//! The clustered schema-matching pipeline (Fig. 3 of the paper).
//!
//! [`ClusteredMatcher`] glues the stages together:
//!
//! 1. element matching (from `xsm-matcher`) → mapping elements,
//! 2. clustering (this crate) → clusters of mapping elements — or, for the baseline
//!    "tree clusters" variant, one cluster per repository tree,
//! 3. mapping generation per useful cluster (any [`MappingGenerator`]), best-looking
//!    cluster first ([`crate::ordering`]),
//! 4. ranking: every cluster's generator feeds one [`TopMappings`], which keeps
//!    either every mapping with `Δ ≥ δ` ([`ClusteredMatcher::run_on_candidates`]) or
//!    only the best `k` ([`ClusteredMatcher::run_on_candidates_top`], what a served
//!    query runs) — one loop either way, and the counters count every mapping.
//!
//! The produced [`ClusteredMatchReport`] carries everything Tab. 1 and Figs. 4–6 need:
//! the useful-cluster statistics, the aggregated generator counters, the cluster-size
//! distribution and the k-means statistics.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use xsm_matcher::element::{match_elements, ElementMatchConfig};
use xsm_matcher::generator::{MappingGenerator, TopMappings};
use xsm_matcher::{CandidateSet, GeneratorCounters, MatchingProblem, Objective, SchemaMapping};
use xsm_repo::SchemaRepository;

use crate::config::{ClusteringConfig, ClusteringVariant};
use crate::kmeans::{KMeansClusterer, KMeansStats};
use crate::ordering::visiting_order;
use crate::report::ClusterStatsRow;

/// Result of one clustered (or baseline) matching run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusteredMatchReport {
    /// Human-readable label of the configuration ("small", "medium", "large", "tree").
    pub label: String,
    /// Total number of mapping elements produced by element matching (`|ME|`,
    /// counting one entry per (personal node, repository node) pair).
    pub mapping_elements: usize,
    /// Number of distinct repository nodes among the mapping elements.
    pub distinct_mapping_nodes: usize,
    /// Tab. 1a: useful-cluster statistics.
    pub cluster_stats: ClusterStatsRow,
    /// Tab. 1b: aggregated generator counters (partial mappings, retained mappings, time).
    /// `retained_mappings` counts every mapping with `Δ ≥ δ`, kept or not.
    pub generator_counters: GeneratorCounters,
    /// The retained schema mappings, best first: all of them, or the best `keep` of
    /// them from [`ClusteredMatcher::run_on_candidates_top`].
    pub mappings: Vec<SchemaMapping>,
    /// Statistics of the k-means run (`None` for the tree-clusters baseline).
    pub kmeans: Option<KMeansStats>,
    /// Sizes of all clusters (useful or not) — the Fig. 4 histogram input.
    pub cluster_sizes: Vec<usize>,
    /// Wall-clock time of the clustering step.
    #[serde(skip)]
    pub clustering_time: Duration,
    /// Wall-clock time of the element-matching step (zero when candidates were reused).
    #[serde(skip)]
    pub element_matching_time: Duration,
}

impl ClusteredMatchReport {
    /// Total pipeline time: clustering + mapping generation (the "12.0 sec + 23.8 sec"
    /// comparison of Sec. 5). Element matching is excluded, as in the paper, because
    /// it is identical for every variant.
    pub fn total_time(&self) -> Duration {
        self.clustering_time + self.generator_counters.elapsed
    }
}

/// The clustered schema matcher. `clustering: None` is the non-clustered baseline in
/// which "each tree in the repository is treated as one cluster".
///
/// The matcher is immutable configuration: every `run*` method takes `&self`, so one
/// instance can be shared (or cheaply cloned) across the worker threads of a serving
/// engine. This thread-safety is part of the public contract and asserted at compile
/// time below.
#[derive(Clone)]
pub struct ClusteredMatcher {
    element_config: ElementMatchConfig,
    clustering: Option<ClusteringConfig>,
    label: String,
}

// `bellflower::service::MatchEngine` shares one matcher and its reports across
// worker threads; breaking `Send`/`Sync` here must fail the build, not the service.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ClusteredMatcher>();
    assert_send_sync::<ClusteredMatchReport>();
};

impl ClusteredMatcher {
    /// A matcher that clusters with the given configuration.
    pub fn clustered(clustering: ClusteringConfig) -> Self {
        ClusteredMatcher {
            element_config: ElementMatchConfig::default(),
            clustering: Some(clustering),
            label: format!("join≤{}", clustering.join_distance),
        }
    }

    /// The non-clustered baseline ("tree clusters").
    pub fn baseline() -> Self {
        ClusteredMatcher {
            element_config: ElementMatchConfig::default(),
            clustering: None,
            label: "tree".to_string(),
        }
    }

    /// A matcher for one of the paper's named variants.
    pub fn for_variant(variant: ClusteringVariant) -> Self {
        let mut m = match variant.config() {
            Some(cfg) => ClusteredMatcher::clustered(cfg),
            None => ClusteredMatcher::baseline(),
        };
        m.label = variant.label().to_string();
        m
    }

    /// Override the element-matching configuration.
    pub fn with_element_config(mut self, config: ElementMatchConfig) -> Self {
        self.element_config = config;
        self
    }

    /// Override the report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The element-matching configuration in use.
    pub fn element_config(&self) -> &ElementMatchConfig {
        &self.element_config
    }

    /// Run the full pipeline: element matching, clustering, per-cluster generation.
    pub fn run(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        generator: &dyn MappingGenerator,
    ) -> ClusteredMatchReport {
        let start = Instant::now();
        let candidates = match_elements(&problem.personal, repo, &self.element_config);
        let element_matching_time = start.elapsed();
        let mut report = self.run_on_candidates(problem, repo, &candidates, generator);
        report.element_matching_time = element_matching_time;
        report
    }

    /// Run clustering + generation on a precomputed candidate set. The experiments use
    /// this so that all variants share *exactly* the same mapping elements, as in the
    /// paper ("the number of mapping elements … were the same in all three cases").
    pub fn run_on_candidates(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        candidates: &CandidateSet,
        generator: &dyn MappingGenerator,
    ) -> ClusteredMatchReport {
        self.run_on_candidates_top(problem, repo, candidates, generator, usize::MAX)
    }

    /// [`ClusteredMatcher::run_on_candidates`] for a caller that wants the best `keep`
    /// mappings: the report's `mappings` are the first `keep` of the full list, and
    /// everything else — `generator_counters.retained_mappings`, the exact number of
    /// mappings with `Δ ≥ δ`, included — is what the full run reports. The generator
    /// builds only mappings that can still make the top `keep`.
    pub fn run_on_candidates_top(
        &self,
        problem: &MatchingProblem,
        repo: &SchemaRepository,
        candidates: &CandidateSet,
        generator: &dyn MappingGenerator,
        keep: usize,
    ) -> ClusteredMatchReport {
        // Stage c: clustering (or per-tree scoping for the baseline). `cluster_sizes[i]`
        // is the number of distinct repository nodes in `scopes[i]`: the clusterer
        // knows it as the member count, so nothing downstream re-derives it.
        let clustering_start = Instant::now();
        let (scopes, kmeans, cluster_sizes) = match &self.clustering {
            Some(config) => {
                let (set, stats) = KMeansClusterer::new(*config).cluster(repo, candidates);
                let sizes = set.sizes();
                let scopes = set.clusters.into_iter().map(|c| c.scope).collect();
                (scopes, Some(stats), sizes)
            }
            None => {
                let scopes: Vec<CandidateSet> = candidates
                    .split_by_tree()
                    .into_iter()
                    .map(|(_, scope)| scope)
                    .collect();
                let sizes = scopes.iter().map(|s| s.distinct_repo_nodes()).collect();
                (scopes, None, sizes)
            }
        };
        let clustering_time = clustering_start.elapsed();
        // Every node sits in exactly one cluster or is unassigned (clustered), or in
        // exactly one tree (baseline).
        let distinct_mapping_nodes = match &kmeans {
            Some(stats) => stats.total_nodes,
            None => cluster_sizes.iter().sum(),
        };

        // Stage 4: per-cluster mapping generation on the useful scopes only, likeliest
        // first, every one feeding the same collector.
        let mut counters = GeneratorCounters::default();
        let mut best = TopMappings::new(keep);
        let order = visiting_order(&scopes, &Objective::for_problem(problem));
        for &i in &order {
            counters =
                counters.merge(&generator.generate_into(problem, repo, &scopes[i], &mut best));
        }
        let useful = order.len();
        let useful_nodes_total: usize = order.iter().map(|&i| cluster_sizes[i]).sum();

        let cluster_stats = ClusterStatsRow {
            useful_clusters: useful,
            avg_mapping_elements: if useful == 0 {
                0.0
            } else {
                useful_nodes_total as f64 / useful as f64
            },
            total_search_space: counters.search_space,
        };

        ClusteredMatchReport {
            label: self.label.clone(),
            mapping_elements: candidates.total_candidates(),
            distinct_mapping_nodes,
            cluster_stats,
            generator_counters: counters,
            mappings: best.into_sorted(),
            kmeans,
            cluster_sizes,
            clustering_time,
            element_matching_time: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusteringVariant;
    use crate::metrics::preservation_curve;
    use xsm_matcher::generator::branch_and_bound::BranchAndBoundGenerator;
    use xsm_repo::{GeneratorConfig, RepositoryGenerator};

    fn scenario() -> (MatchingProblem, SchemaRepository, CandidateSet) {
        let problem = MatchingProblem::paper_experiment();
        let repo = RepositoryGenerator::new(GeneratorConfig::small(31).with_target_elements(900))
            .generate();
        let candidates = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.5),
        );
        (problem, repo, candidates)
    }

    #[test]
    fn baseline_and_clustered_reports_are_consistent() {
        let (problem, repo, candidates) = scenario();
        let generator = BranchAndBoundGenerator::new();
        let baseline = ClusteredMatcher::for_variant(ClusteringVariant::TreeClusters)
            .run_on_candidates(&problem, &repo, &candidates, &generator);
        let clustered = ClusteredMatcher::for_variant(ClusteringVariant::Medium).run_on_candidates(
            &problem,
            &repo,
            &candidates,
            &generator,
        );

        assert_eq!(baseline.label, "tree");
        assert_eq!(clustered.label, "medium");
        assert!(baseline.kmeans.is_none());
        assert!(clustered.kmeans.is_some());
        // Both saw the same mapping elements.
        assert_eq!(baseline.mapping_elements, clustered.mapping_elements);
        assert_eq!(
            baseline.distinct_mapping_nodes,
            clustered.distinct_mapping_nodes
        );
        // Baseline explores at least as large a search space and finds at least as
        // many mappings (clustering only loses mappings, never invents them).
        assert!(
            baseline.cluster_stats.total_search_space >= clustered.cluster_stats.total_search_space
        );
        assert!(baseline.mappings.len() >= clustered.mappings.len());
        // Counters line up with the mapping list.
        assert_eq!(
            baseline.generator_counters.retained_mappings as usize,
            baseline.mappings.len()
        );
        assert_eq!(
            clustered.generator_counters.retained_mappings as usize,
            clustered.mappings.len()
        );
    }

    #[test]
    fn node_counts_come_out_as_recounting_would() {
        // The report takes its distinct-node figures from the clusterer's member
        // counts; they must equal a recount over the candidate scopes.
        let (problem, repo, candidates) = scenario();
        let generator = BranchAndBoundGenerator::new();
        for variant in [ClusteringVariant::Medium, ClusteringVariant::TreeClusters] {
            let report = ClusteredMatcher::for_variant(variant).run_on_candidates(
                &problem,
                &repo,
                &candidates,
                &generator,
            );
            assert_eq!(
                report.distinct_mapping_nodes,
                candidates.distinct_repo_nodes()
            );
            let scopes: Vec<CandidateSet> = match variant.config() {
                Some(config) => {
                    let (set, _) = KMeansClusterer::new(config).cluster(&repo, &candidates);
                    set.clusters.into_iter().map(|c| c.scope).collect()
                }
                None => candidates
                    .trees()
                    .into_iter()
                    .map(|t| candidates.restrict_to_tree(t))
                    .collect(),
            };
            let useful: Vec<usize> = scopes
                .iter()
                .filter(|s| s.is_useful())
                .map(|s| s.distinct_repo_nodes())
                .collect();
            assert_eq!(report.cluster_stats.useful_clusters, useful.len());
            let recount = useful.iter().sum::<usize>() as f64 / useful.len().max(1) as f64;
            assert_eq!(report.cluster_stats.avg_mapping_elements, recount);
        }
    }

    #[test]
    fn every_clustered_mapping_also_exists_in_the_baseline() {
        let (problem, repo, candidates) = scenario();
        let generator = BranchAndBoundGenerator::new();
        let baseline = ClusteredMatcher::baseline().run_on_candidates(
            &problem,
            &repo,
            &candidates,
            &generator,
        );
        let clustered = ClusteredMatcher::for_variant(ClusteringVariant::Small).run_on_candidates(
            &problem,
            &repo,
            &candidates,
            &generator,
        );
        // Clustered results ⊆ baseline results: preservation of the clustered set
        // against itself measured on the baseline must count every clustered mapping.
        let curve = preservation_curve(
            &clustered.mappings,
            &baseline.mappings,
            &[problem.threshold],
        );
        assert_eq!(curve[0].preserved_count, curve[0].reference_count);
    }

    #[test]
    fn smaller_clusters_mean_smaller_search_space() {
        let (problem, repo, candidates) = scenario();
        let generator = BranchAndBoundGenerator::new();
        let small = ClusteredMatcher::for_variant(ClusteringVariant::Small).run_on_candidates(
            &problem,
            &repo,
            &candidates,
            &generator,
        );
        let large = ClusteredMatcher::for_variant(ClusteringVariant::Large).run_on_candidates(
            &problem,
            &repo,
            &candidates,
            &generator,
        );
        let tree = ClusteredMatcher::for_variant(ClusteringVariant::TreeClusters)
            .run_on_candidates(&problem, &repo, &candidates, &generator);
        assert!(
            small.cluster_stats.total_search_space <= large.cluster_stats.total_search_space,
            "small {} > large {}",
            small.cluster_stats.total_search_space,
            large.cluster_stats.total_search_space
        );
        assert!(large.cluster_stats.total_search_space <= tree.cluster_stats.total_search_space);
        // And fewer or equal retained mappings.
        assert!(small.mappings.len() <= tree.mappings.len());
    }

    #[test]
    fn full_run_includes_element_matching_time() {
        let (problem, repo, _) = scenario();
        let generator = BranchAndBoundGenerator::new();
        let report = ClusteredMatcher::for_variant(ClusteringVariant::Medium)
            .with_element_config(ElementMatchConfig::default().with_min_similarity(0.6))
            .run(&problem, &repo, &generator);
        assert!(report.element_matching_time > Duration::ZERO);
        assert!(report.mapping_elements > 0);
        assert!(report.total_time() >= report.clustering_time);
    }

    #[test]
    fn mappings_are_sorted_and_meet_threshold() {
        let (problem, repo, candidates) = scenario();
        let generator = BranchAndBoundGenerator::new();
        let report = ClusteredMatcher::for_variant(ClusteringVariant::Medium).run_on_candidates(
            &problem,
            &repo,
            &candidates,
            &generator,
        );
        let mut prev = f64::INFINITY;
        for m in &report.mappings {
            assert!(m.score >= problem.threshold);
            assert!(m.score <= prev + 1e-12);
            assert!(m.is_structurally_valid());
            prev = m.score;
        }
    }

    #[test]
    fn a_top_k_run_is_the_full_run_cut_to_k() {
        // A low floor and a low δ: enough mappings that the collector cuts many times.
        let mut problem = MatchingProblem::paper_experiment();
        problem.threshold = 0.3;
        let repo = RepositoryGenerator::new(GeneratorConfig::small(31).with_target_elements(900))
            .generate();
        let candidates = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.2),
        );
        let generator = BranchAndBoundGenerator::new();
        for variant in [ClusteringVariant::Small, ClusteringVariant::TreeClusters] {
            let matcher = ClusteredMatcher::for_variant(variant);
            let full = matcher.run_on_candidates(&problem, &repo, &candidates, &generator);
            assert!(
                full.mappings.len() > 1_000,
                "{} mappings",
                full.mappings.len()
            );
            for keep in [0, 1, 3, 10, usize::MAX] {
                let top =
                    matcher.run_on_candidates_top(&problem, &repo, &candidates, &generator, keep);
                assert_eq!(top.mappings, full.mappings[..keep.min(full.mappings.len())]);
                let counts = |c: &GeneratorCounters| {
                    (
                        c.search_space,
                        c.partial_mappings,
                        c.complete_mappings,
                        c.retained_mappings,
                        c.pruned_branches,
                    )
                };
                assert_eq!(
                    counts(&top.generator_counters),
                    counts(&full.generator_counters)
                );
                assert_eq!(top.cluster_stats, full.cluster_stats);
            }
        }
    }

    #[test]
    fn custom_label_names_the_report() {
        let (problem, repo, _) = scenario();
        let generator = BranchAndBoundGenerator::new();
        let report = ClusteredMatcher::baseline()
            .with_label("my-baseline")
            .run(&problem, &repo, &generator);
        assert_eq!(report.label, "my-baseline");
    }
}
