//! Schema-mapping generators (step ④ of the paper's architecture).
//!
//! A generator receives a *scope* — a [`CandidateSet`] of mapping elements — and
//! enumerates schema mappings built from it, returning every mapping with
//! `Δ(s,t) ≥ δ` plus the performance counters Tab. 1 reports. Because a schema
//! mapping's images must all come from one repository tree (Def. 2 restricted to the
//! forest model), a generator searches single-tree scopes; a scope of several trees
//! is split per tree first, each part searched independently and the results sorted
//! once. Every cluster scope is a single-tree scope and skips the split altogether.
//!
//! Implementations:
//!
//! * [`branch_and_bound`] — the paper's generator (Kreher & Stinson B&B with the
//!   admissible bound from [`crate::objective::Objective::upper_bound`]),
//! * [`exhaustive`] — naive full enumeration (the yardstick the paper compares B&B
//!   against: "Instead of generating and testing all 11 962 741 mappings, B&B tested
//!   30 times less partial mappings", and the reference the test suites compare
//!   the production generator with).

pub mod branch_and_bound;
pub mod exhaustive;

use crate::candidates::CandidateSet;
use crate::counters::GeneratorCounters;
use crate::mapping::SchemaMapping;
use crate::problem::MatchingProblem;
use xsm_repo::SchemaRepository;

/// The result of one generator run: retained mappings (sorted by descending score) and
/// the counters accumulated while producing them.
#[derive(Debug, Clone, Default)]
pub struct GenerationOutcome {
    /// Mappings with `Δ ≥ δ`, best first.
    pub mappings: Vec<SchemaMapping>,
    /// Search-effort counters.
    pub counters: GeneratorCounters,
}

impl GenerationOutcome {
    /// The best `n` mappings.
    pub fn top(&self, n: usize) -> &[SchemaMapping] {
        &self.mappings[..n.min(self.mappings.len())]
    }
}

/// Sort mappings by descending score with a deterministic tie-break: the image
/// sequences, compared lexicographically. The sort is stable and finds the sorted
/// runs already present, so sorting a concatenation of sorted lists is a merge.
pub fn sort_mappings(mappings: &mut [SchemaMapping]) {
    mappings.sort_by(ranking);
}

/// The order of [`sort_mappings`]. The tie-break walks the two image sequences in
/// place — a comparator runs `O(n log n)` times per sort and must not allocate.
fn ranking(a: &SchemaMapping, b: &SchemaMapping) -> std::cmp::Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.images().cmp(b.images()))
}

/// A schema-mapping generator.
pub trait MappingGenerator: Send + Sync {
    /// Enumerate mappings within a *single-tree* scope. `scope` must contain
    /// candidates from at most one repository tree; [`MappingGenerator::generate`]
    /// handles the general case.
    fn generate_single_tree(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
    ) -> GenerationOutcome;

    /// Short name used in reports.
    fn name(&self) -> &'static str;

    /// Enumerate mappings within an arbitrary scope. A scope within one repository
    /// tree — every cluster scope, every per-tree baseline scope — goes to
    /// [`MappingGenerator::generate_single_tree`] as it is. A scope of several trees
    /// is split per tree in one pass, non-useful parts are skipped ("clusters which
    /// cannot deliver schema mappings"), and the parts' results, each sorted, are
    /// sorted together once.
    fn generate(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
    ) -> GenerationOutcome {
        // No part of a non-useful scope is useful.
        if !scope.is_useful() {
            return GenerationOutcome::default();
        }
        if scope.sole_tree().is_some() {
            return self.generate_single_tree(problem, repo, scope);
        }
        let mut outcome = GenerationOutcome::default();
        for (_, part) in scope.split_by_tree() {
            if !part.is_useful() {
                continue;
            }
            let found = self.generate_single_tree(problem, repo, &part);
            outcome.counters = outcome.counters.merge(&found.counters);
            outcome.mappings.extend(found.mappings);
        }
        sort_mappings(&mut outcome.mappings);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::MappingElement;
    use xsm_schema::{GlobalNodeId, NodeId, TreeId};

    #[test]
    fn top_is_a_prefix_clamped_to_the_list() {
        let mapping = |score: f64| SchemaMapping::with_score(Vec::new(), score);
        let outcome = GenerationOutcome {
            mappings: vec![mapping(0.9), mapping(0.8)],
            ..Default::default()
        };
        assert_eq!(outcome.top(1).len(), 1);
        assert_eq!(outcome.top(10).len(), 2);
    }

    #[test]
    fn sort_mappings_is_deterministic_on_ties() {
        let mk = |tree: u32, score: f64| {
            SchemaMapping::with_score(
                vec![MappingElement::new(
                    NodeId(0),
                    GlobalNodeId::new(TreeId(tree), NodeId(0)),
                    1.0,
                )],
                score,
            )
        };
        let mut v1 = vec![mk(2, 0.5), mk(1, 0.5), mk(3, 0.9)];
        let mut v2 = vec![mk(1, 0.5), mk(3, 0.9), mk(2, 0.5)];
        sort_mappings(&mut v1);
        sort_mappings(&mut v2);
        assert_eq!(v1, v2);
        assert_eq!(v1[0].score, 0.9);
    }
}
