//! The Branch & Bound generator as it ran in production before the incremental
//! search, kept as the reference the production search is compared against.
//!
//! Every node of the search tree clones the assignment into a fresh `SchemaMapping`
//! and asks `Objective::upper_bound` for the bound from scratch — a fold over the
//! pairs, an `image_of` scan per personal node, a sorted-and-deduplicated
//! `steiner_edge_count` with one LCA query per image. It is slow and obviously
//! follows the paper's Sec. 3, which is the point: `generator_equivalence.rs` holds
//! the production search to its mappings, their order, their score bits and every
//! counter. Scopes of several trees are split, searched and merged the old way too:
//! `trees()` + `restrict_to_tree` per tree, the whole accumulated list re-sorted
//! after each, by a comparator that collects both image vectors. Only the public
//! API of the product crates is used.

use xsm_matcher::generator::branch_and_bound::BranchAndBoundConfig;
use xsm_matcher::{
    CandidateSet, GenerationOutcome, GeneratorCounters, MappingElement, MatchingProblem, Objective,
    SchemaMapping,
};
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, TreeLabeling};

/// The pre-PR `sort_mappings`: descending score, ties by the image vectors.
pub fn sort_by_collected_images(mappings: &mut [SchemaMapping]) {
    mappings.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.repo_nodes().cmp(&b.repo_nodes()))
    });
}

/// The reference generator: same inputs and outputs as `BranchAndBoundGenerator`
/// (`GeneratorCounters::elapsed` aside, which it leaves at zero).
pub struct OracleBranchAndBound {
    pub config: BranchAndBoundConfig,
}

impl OracleBranchAndBound {
    /// The pre-PR `MappingGenerator::generate`: one restriction and one full
    /// re-sort per repository tree.
    pub fn generate(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
    ) -> GenerationOutcome {
        let mut outcome = GenerationOutcome::default();
        for tree in scope.trees() {
            let sub = scope.restrict_to_tree(tree);
            if !sub.is_useful() {
                continue;
            }
            let part = self.generate_single_tree(problem, repo, &sub);
            outcome.mappings.extend(part.mappings);
            outcome.counters = outcome.counters.merge(&part.counters);
            sort_by_collected_images(&mut outcome.mappings);
        }
        outcome
    }

    /// The pre-PR `BranchAndBoundGenerator::generate_single_tree`.
    pub fn generate_single_tree(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        scope: &CandidateSet,
    ) -> GenerationOutcome {
        let mut counters = GeneratorCounters {
            search_space: scope.search_space_size(),
            ..Default::default()
        };
        let mut mappings = Vec::new();

        let trees = scope.trees();
        let Some(&tree_id) = trees.first() else {
            return GenerationOutcome { mappings, counters };
        };
        let Some(labeling) = repo.labeling(tree_id) else {
            return GenerationOutcome { mappings, counters };
        };
        if !scope.is_useful() {
            return GenerationOutcome { mappings, counters };
        }

        let objective = Objective::for_problem(problem);
        // Most-constrained-first variable order.
        let mut order: Vec<usize> = (0..scope.node_count()).collect();
        order.sort_by_key(|&i| scope.candidates_at(i).len());

        let mut assignment: Vec<MappingElement> = Vec::with_capacity(scope.node_count());
        let mut used: Vec<GlobalNodeId> = Vec::with_capacity(scope.node_count());
        self.search(
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

        sort_by_collected_images(&mut mappings);
        GenerationOutcome { mappings, counters }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        problem: &MatchingProblem,
        scope: &CandidateSet,
        labeling: &TreeLabeling,
        objective: &Objective,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<MappingElement>,
        used: &mut Vec<GlobalNodeId>,
        out: &mut Vec<SchemaMapping>,
        counters: &mut GeneratorCounters,
    ) {
        if counters.partial_mappings >= self.config.max_partial_mappings {
            return;
        }
        if depth == order.len() {
            // Complete mapping: evaluate Δ and retain if above threshold.
            let mapping = SchemaMapping::new(assignment.clone());
            let score = objective.delta(&mapping, labeling);
            counters.complete_mappings += 1;
            if score >= problem.threshold {
                counters.retained_mappings += 1;
                out.push(SchemaMapping::with_score(assignment.clone(), score));
            }
            return;
        }
        let node_index = order[depth];
        for candidate in scope.candidates_at(node_index) {
            if counters.partial_mappings >= self.config.max_partial_mappings {
                return;
            }
            if used.contains(&candidate.repo) {
                continue;
            }
            assignment.push(*candidate);
            used.push(candidate.repo);
            counters.partial_mappings += 1;

            let keep = if self.config.use_bounding {
                let partial = SchemaMapping::new(assignment.clone());
                let bound = objective.upper_bound(&partial, labeling, scope);
                if bound + 1e-12 < problem.threshold {
                    counters.pruned_branches += 1;
                    false
                } else {
                    true
                }
            } else {
                true
            };
            if keep {
                self.search(
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
            }
            assignment.pop();
            used.pop();
        }
    }
}
