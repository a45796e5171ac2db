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
//! A caller that wants only the best `k` mappings hands
//! [`MappingGenerator::generate_into`] a [`TopMappings`]: the counters still cover
//! every mapping with `Δ ≥ δ`, but the branch-and-bound search builds a mapping only
//! if it can still make the top `k`.
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

/// The best `keep` mappings offered to it, in [`sort_mappings`]' order, and a
/// `cutoff` below which no later mapping can join them.
///
/// The generators produce every mapping with `Δ ≥ δ`; a served query returns a few.
/// The collector holds up to about `max(2·keep, 64)` mappings; past that it selects
/// the best `keep` in place and drops the rest, and the `keep`-th score becomes the
/// cutoff. A mapping scoring strictly below the cutoff loses to `keep` held ones, so
/// a generator asks [`TopMappings::wants`] before it builds one. A mapping that ties
/// the cutoff is still wanted: the image tie-break decides. The result is therefore
/// exactly the first `keep` of the full list sorted by [`sort_mappings`], and
/// `keep = usize::MAX` keeps everything. Nothing is reserved up front.
///
/// The cutoff only decides what is *built*; it never cuts a branch of the search,
/// so every generator counter stays what it is without a collector.
#[derive(Debug, Clone)]
pub struct TopMappings {
    keep: usize,
    mappings: Vec<SchemaMapping>,
    /// The `keep`-th best score held after the last cut; `-∞` before the first.
    cutoff: f64,
}

impl TopMappings {
    /// A collector of the best `keep` mappings.
    pub fn new(keep: usize) -> Self {
        TopMappings {
            keep,
            mappings: Vec::new(),
            cutoff: f64::NEG_INFINITY,
        }
    }

    /// Can a mapping scoring `score` still be among the best `keep`?
    pub fn wants(&self, score: f64) -> bool {
        self.keep > 0 && score >= self.cutoff
    }

    /// Offer a mapping; it is dropped at once unless [`TopMappings::wants`] it.
    pub fn push(&mut self, mapping: SchemaMapping) {
        if !self.wants(mapping.score) {
            return;
        }
        self.mappings.push(mapping);
        if self.mappings.len() > self.keep.saturating_mul(2).max(64) {
            let kth = self.keep - 1;
            self.mappings.select_nth_unstable_by(kth, ranking);
            self.mappings.truncate(self.keep);
            self.cutoff = self.mappings[kth].score;
        }
    }

    /// The best `keep` mappings offered, best first.
    pub fn into_sorted(mut self) -> Vec<SchemaMapping> {
        sort_mappings(&mut self.mappings);
        self.mappings.truncate(self.keep);
        self.mappings
    }
}

/// Run `search` on each useful single-tree part of `scope` and sum its counters: a
/// scope within one tree is its own part, a scope of several is split per tree in one
/// pass, and a non-useful scope has no useful part.
fn search_tree_parts(
    scope: &CandidateSet,
    mut search: impl FnMut(&CandidateSet) -> GeneratorCounters,
) -> GeneratorCounters {
    if !scope.is_useful() {
        return GeneratorCounters::default();
    }
    if scope.sole_tree().is_some() {
        return search(scope);
    }
    let mut counters = GeneratorCounters::default();
    for (_, part) in scope.split_by_tree() {
        if part.is_useful() {
            counters = counters.merge(&search(&part));
        }
    }
    counters
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
        let mut mappings = Vec::new();
        let mut parts = 0;
        let counters = search_tree_parts(scope, |part| {
            let found = self.generate_single_tree(problem, repo, part);
            parts += 1;
            if parts == 1 {
                mappings = found.mappings;
            } else {
                mappings.extend(found.mappings);
            }
            found.counters
        });
        // Each part's mappings come sorted: one part is the answer as it is, and
        // several are merged.
        if parts > 1 {
            sort_mappings(&mut mappings);
        }
        GenerationOutcome { mappings, counters }
    }

    /// [`MappingGenerator::generate`] into a [`TopMappings`]: the counters are the
    /// same, and `sink` is offered every retained mapping. A generator that asks
    /// [`TopMappings::wants`] before building a mapping overrides this; the default
    /// builds them all through `generate`.
    fn generate_into(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
        sink: &mut TopMappings,
    ) -> GeneratorCounters {
        let outcome = self.generate(problem, repo, scope);
        for mapping in outcome.mappings {
            sink.push(mapping);
        }
        outcome.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::MappingElement;
    use xsm_schema::{GlobalNodeId, NodeId, TreeId};

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

    #[test]
    fn top_mappings_keep_the_sorted_prefix_and_raise_a_cutoff() {
        let mk = |node: u32, score: f64| {
            SchemaMapping::with_score(
                vec![MappingElement::new(
                    NodeId(0),
                    GlobalNodeId::new(TreeId(0), NodeId(node)),
                    1.0,
                )],
                score,
            )
        };
        // 300 mappings over five scores, offered worst-ish first: several cuts.
        let all: Vec<SchemaMapping> = (0..300u32)
            .map(|i| mk(299 - i, f64::from(i % 5) / 4.0))
            .collect();
        let mut sorted = all.clone();
        sort_mappings(&mut sorted);
        for keep in [0, 1, 3, 10, 64, 200, 300, 301, usize::MAX] {
            let mut top = TopMappings::new(keep);
            all.iter().cloned().for_each(|m| top.push(m));
            assert_eq!(
                top.into_sorted(),
                sorted[..keep.min(sorted.len())],
                "keep {keep}"
            );
        }
        let mut top = TopMappings::new(3);
        assert!(top.wants(0.0));
        all.into_iter().for_each(|m| top.push(m));
        // The three best all score 1.0: nothing below it is wanted any more.
        assert!(top.wants(1.0));
        assert!(!top.wants(0.75));
        assert!(!TopMappings::new(0).wants(1.0));
    }
}
