//! Naive exhaustive mapping generator.
//!
//! Enumerates every injective assignment of personal nodes to candidate repository
//! nodes and evaluates Δ on each. This is the yardstick the paper measures B&B against
//! ("Instead of generating and testing all 11962741 mappings, B&B algorithm tested 30
//! times less partial mappings") and the reference implementation the correctness
//! tests of the other generators compare to.

use std::time::Instant;

use crate::candidates::{CandidateSet, MappingElement};
use crate::counters::GeneratorCounters;
use crate::generator::{sort_mappings, GenerationOutcome, MappingGenerator};
use crate::mapping::SchemaMapping;
use crate::objective::Objective;
use crate::problem::MatchingProblem;
use xsm_repo::SchemaRepository;
use xsm_schema::GlobalNodeId;

/// Exhaustive generator with an optional safety cap on expansions.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveGenerator {
    /// Stop after this many partial mappings (protection for huge scopes).
    pub max_partial_mappings: u64,
}

impl Default for ExhaustiveGenerator {
    fn default() -> Self {
        ExhaustiveGenerator {
            max_partial_mappings: u64::MAX,
        }
    }
}

impl ExhaustiveGenerator {
    /// Unbounded exhaustive generator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exhaustive generator that gives up after `cap` partial mappings.
    pub fn with_cap(cap: u64) -> Self {
        ExhaustiveGenerator {
            max_partial_mappings: cap,
        }
    }
}

impl MappingGenerator for ExhaustiveGenerator {
    fn generate_single_tree(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
    ) -> GenerationOutcome {
        let start = Instant::now();
        let mut counters = GeneratorCounters {
            search_space: scope.search_space_size(),
            ..Default::default()
        };
        let mut mappings = Vec::new();
        let trees = scope.trees();
        let (Some(&tree_id), true) = (trees.first(), scope.is_useful()) else {
            counters.elapsed = start.elapsed();
            return GenerationOutcome { mappings, counters };
        };
        let Some(labeling) = repo.labeling(tree_id) else {
            counters.elapsed = start.elapsed();
            return GenerationOutcome { mappings, counters };
        };
        let objective = Objective::for_problem(problem);
        let order: Vec<usize> = (0..scope.node_count()).collect();
        let mut assignment = Vec::with_capacity(order.len());
        let mut used = Vec::with_capacity(order.len());
        self.enumerate(
            problem,
            scope,
            labeling,
            &objective,
            &order,
            0,
            &mut assignment,
            &mut used,
            &mut mappings,
            &mut counters,
        );
        counters.elapsed = start.elapsed();
        sort_mappings(&mut mappings);
        GenerationOutcome { mappings, counters }
    }

    fn name(&self) -> &'static str {
        "exhaustive"
    }
}

impl ExhaustiveGenerator {
    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        &self,
        problem: &MatchingProblem,
        scope: &CandidateSet,
        labeling: &xsm_schema::TreeLabeling,
        objective: &Objective,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<MappingElement>,
        used: &mut Vec<GlobalNodeId>,
        out: &mut Vec<SchemaMapping>,
        counters: &mut GeneratorCounters,
    ) {
        if counters.partial_mappings >= self.max_partial_mappings {
            return;
        }
        if depth == order.len() {
            let mapping = SchemaMapping::new(assignment.clone());
            let score = objective.delta(&mapping, labeling);
            counters.complete_mappings += 1;
            if score >= problem.threshold {
                counters.retained_mappings += 1;
                out.push(SchemaMapping::with_score(assignment.clone(), score));
            }
            return;
        }
        for candidate in scope.candidates_at(order[depth]) {
            if counters.partial_mappings >= self.max_partial_mappings {
                return;
            }
            if used.contains(&candidate.repo) {
                continue;
            }
            assignment.push(*candidate);
            used.push(candidate.repo);
            counters.partial_mappings += 1;
            self.enumerate(
                problem,
                scope,
                labeling,
                objective,
                order,
                depth + 1,
                assignment,
                used,
                out,
                counters,
            );
            assignment.pop();
            used.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{match_elements, ElementMatchConfig};
    use xsm_schema::tree::paper_repository_fragment;

    #[test]
    fn enumerates_all_complete_assignments() {
        let problem = MatchingProblem::new(
            xsm_schema::tree::paper_personal_schema(),
            crate::objective::ObjectiveConfig::default(),
            0.0, // keep everything
        );
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let scope = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.0),
        );
        let outcome = ExhaustiveGenerator::new().generate(&problem, &repo, &scope);
        // The search space is the product of the per-node candidate counts (pairs with
        // zero similarity are excluded by the element matcher, so it is below 7³).
        let expected_space: u128 = problem
            .personal_nodes()
            .iter()
            .map(|&n| scope.candidates_for(n).len() as u128)
            .product();
        assert_eq!(outcome.counters.search_space, expected_space);
        assert!(expected_space > 0);
        // With threshold 0 every complete injective assignment is retained.
        assert_eq!(
            outcome.counters.complete_mappings,
            outcome.counters.retained_mappings
        );
        assert_eq!(
            outcome.mappings.len() as u64,
            outcome.counters.complete_mappings
        );
        assert!(outcome.counters.complete_mappings > 0);
        // Exhaustive search expands at least as many partial mappings as it completes
        // and never more than the search space allows.
        assert!(outcome.counters.partial_mappings >= outcome.counters.complete_mappings);
        // Results are sorted best-first.
        assert!(outcome.mappings[0].score >= outcome.mappings[1].score);
    }

    #[test]
    fn cap_stops_early() {
        let problem = MatchingProblem::fig1_example();
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let scope = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.0),
        );
        let outcome = ExhaustiveGenerator::with_cap(10).generate(&problem, &repo, &scope);
        assert!(outcome.counters.partial_mappings <= 10 + problem.personal_size() as u64);
    }

    #[test]
    fn threshold_filters_results() {
        let problem = MatchingProblem::new(
            xsm_schema::tree::paper_personal_schema(),
            crate::objective::ObjectiveConfig::default(),
            0.9,
        );
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let scope = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.0),
        );
        let outcome = ExhaustiveGenerator::new().generate(&problem, &repo, &scope);
        assert!(outcome.mappings.iter().all(|m| m.score >= 0.9));
        assert!(outcome.counters.retained_mappings < outcome.counters.complete_mappings);
    }
}
