//! Cluster ordering — the paper's future-work item 2.
//!
//! "Ordering the clusters — a measure of cluster's quality can be used to decide which
//! clusters have better chances to produce good mappings. In this way, the
//! time-to-first good mapping can be improved."
//!
//! The quality score implemented here is an *optimistic* estimate of the best mapping a
//! cluster can produce, computed from information that is already available before any
//! generation work: for every personal node, the best candidate similarity inside the
//! cluster (an upper bound on `Δ_sim`), combined with `Δ_path = 1` (the optimistic
//! structural term).
//!
//! The clustered pipeline searches its scopes in descending quality order. Its
//! generators feed one top-`k` collector, whose cutoff — the `k`-th best score so far —
//! rises sooner when the likeliest clusters come first, so fewer mappings that end up
//! below the top `k` are built. The order is only an order: every useful scope is
//! still searched, so the answers and Tab. 1's counters, which are sums over scopes,
//! are what any other order gives.

use xsm_matcher::{CandidateSet, Objective};

/// The optimistic `Δ` upper bound described in the module docs. Non-useful scopes
/// score 0.
pub fn scope_quality(scope: &CandidateSet, objective: &Objective) -> f64 {
    if !scope.is_useful() {
        return 0.0;
    }
    let node_count = scope.node_count().max(1) as f64;
    let best_sim_sum: f64 = (0..scope.node_count())
        .map(|i| scope.candidates_at(i).first().map_or(0.0, |m| m.similarity))
        .sum();
    objective.combine(best_sim_sum / node_count, 1.0)
}

/// The indexes of the useful `scopes`, by descending [`scope_quality`]; ties keep
/// index order. A scope that is not useful cannot deliver a mapping and is left out.
pub fn visiting_order(scopes: &[CandidateSet], objective: &Objective) -> Vec<usize> {
    let mut ranked: Vec<(usize, f64)> = scopes
        .iter()
        .enumerate()
        .filter(|(_, scope)| scope.is_useful())
        .map(|(i, scope)| (i, scope_quality(scope, objective)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusteringConfig;
    use crate::kmeans::KMeansClusterer;
    use xsm_matcher::element::{match_elements, ElementMatchConfig};
    use xsm_matcher::generator::branch_and_bound::BranchAndBoundGenerator;
    use xsm_matcher::{MappingGenerator, MatchingProblem};
    use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};

    fn scenario() -> (MatchingProblem, SchemaRepository, Vec<CandidateSet>) {
        let problem = MatchingProblem::paper_experiment();
        let repo = RepositoryGenerator::new(GeneratorConfig::small(41)).generate();
        let candidates = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.4),
        );
        let (set, _) =
            KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &candidates);
        let scopes = set.clusters.into_iter().map(|c| c.scope).collect();
        (problem, repo, scopes)
    }

    #[test]
    fn ranking_is_sorted_and_covers_every_cluster() {
        let (problem, _, scopes) = scenario();
        let objective = Objective::for_problem(&problem);
        let order = visiting_order(&scopes, &objective);
        // Every useful scope exactly once, best quality first.
        let mut visited = order.clone();
        visited.sort_unstable();
        let useful: Vec<usize> = (0..scopes.len())
            .filter(|&i| scopes[i].is_useful())
            .collect();
        assert_eq!(visited, useful);
        assert!(!order.is_empty());
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (qa, qb) = (
                scope_quality(&scopes[a], &objective),
                scope_quality(&scopes[b], &objective),
            );
            assert!(qa > qb || (qa == qb && a < b));
        }
        for scope in &scopes {
            let quality = scope_quality(scope, &objective);
            assert!((0.0..=1.0).contains(&quality));
            if !scope.is_useful() {
                assert_eq!(quality, 0.0);
            }
        }
    }

    #[test]
    fn quality_is_an_upper_bound_on_generated_mappings() {
        let (problem, repo, scopes) = scenario();
        let objective = Objective::for_problem(&problem);
        let generator = BranchAndBoundGenerator::new();
        let mut relaxed = problem.clone();
        relaxed.threshold = 0.0;
        for scope in scopes.iter().filter(|s| s.is_useful()) {
            let quality = scope_quality(scope, &objective);
            let outcome = generator.generate(&relaxed, &repo, scope);
            for mapping in &outcome.mappings {
                assert!(
                    quality + 1e-9 >= mapping.score,
                    "quality {quality} < achieved {}",
                    mapping.score
                );
            }
        }
    }

    #[test]
    fn admissible_order_skips_only_hopeless_clusters() {
        let (problem, repo, scopes) = scenario();
        let objective = Objective::for_problem(&problem);
        let generator = BranchAndBoundGenerator::new();
        let order = visiting_order(&scopes, &objective);
        // A scope the order leaves out yields nothing and costs nothing.
        for (i, scope) in scopes.iter().enumerate() {
            if order.contains(&i) {
                continue;
            }
            let outcome = generator.generate(&problem, &repo, scope);
            assert!(
                outcome.mappings.is_empty(),
                "left-out scope {i} has mappings"
            );
            assert_eq!(outcome.counters.search_space, 0);
            assert_eq!(outcome.counters.partial_mappings, 0);
        }
    }

    #[test]
    fn first_ranked_cluster_yields_the_best_mapping_early() {
        let (problem, repo, scopes) = scenario();
        let objective = Objective::for_problem(&problem);
        let generator = BranchAndBoundGenerator::new();
        let order = visiting_order(&scopes, &objective);
        let best_of = |i: usize| {
            generator
                .generate(&problem, &repo, &scopes[i])
                .mappings
                .first()
                .map_or(0.0, |m| m.score)
        };
        let global_best = order.iter().map(|&i| best_of(i)).fold(0.0, f64::max);
        if global_best == 0.0 {
            return; // nothing qualifies at δ in this seed — nothing to check
        }
        // The optimistic bound is not exact, but the first scope searched comes
        // within 0.15 of the global optimum.
        let first = best_of(order[0]);
        assert!(
            first + 0.15 >= global_best,
            "first-searched scope's best {first} vs global best {global_best}"
        );
    }
}
