//! The adapted k-means clustering algorithm (Algorithm 1 of the paper).
//!
//! ```text
//! 1: initialize centroids
//! 2: repeat
//! 3:   for each mapping element do
//! 4:     for each centroid do
//! 5:       compute distance(mapping element, centroid)
//! 6:     end for
//! 7:     assign mapping element to nearest centroid
//! 8:   end for
//! 9:   compute new centroids for all clusters
//! 10:  perform reclustering
//! 11: until convergence criterion is met
//! ```
//!
//! Elements are distinct repository nodes carrying their mapping elements; distance is
//! the tree path length; centroids are medoids; the reclustering step joins nearby
//! clusters and removes tiny ones. The paper states the cost as `O(c · i · |ME|)`,
//! with `c` and `i` counted per tree; the kernel's assignment and medoids are linear
//! sweeps over one virtual tree per tree (see the `distance` module), so a pass costs
//! `O(|ME|)` for the assignment and at most that per cluster for the medoids.
//!
//! ## Layout
//!
//! [`KMeansClusterer::cluster`] copies the query's mapping elements into one
//! contiguous arena, sorts it by tree once, and walks it range by range; the per-tree
//! algorithm (the private `kernel` module) seeds, assigns and reclusters `u32` node
//! slots over buffers it reuses from tree to tree, and builds
//! [`Cluster`](crate::Cluster) values — members and the generator's scope — only for
//! the final result. The whole stage is `O(|ME| log |ME|)` plus the sweeps, with a
//! handful of allocations per query beyond its output and none of a tree's own —
//! a served query touches hundreds of trees holding a few candidate nodes each,
//! and must not pay a fixed bill for every one of them.
//!
//! ## Tree-local control
//!
//! Clusters never span repository trees (the clustering distance is only defined
//! within a tree), so the algorithm runs **independently per tree**: each tree gets
//! its own `ME_min` seeding, its own iteration loop and its own convergence test
//! over its own element population. This has two consequences the rest of the
//! system relies on:
//!
//! * every tree that holds candidates receives centroids (under a single global
//!   `ME_min` seeding, trees outside the seed node's candidate set got no centroid
//!   at all and silently produced zero mappings), and
//! * the clustering — and therefore the whole
//!   [`crate::ClusteredMatcher::run_on_candidates`] pipeline — is exactly
//!   *decomposable* over any partition of the forest: clustering a union of trees
//!   equals the union of clustering each tree. `bellflower::service`'s sharded
//!   engine scatters queries across per-shard engines and merges their answers;
//!   tree-local control is what makes the merged answer bit-identical to the
//!   single-engine answer.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use xsm_matcher::CandidateSet;
use xsm_repo::SchemaRepository;

use crate::cluster::ClusterSet;
use crate::config::ClusteringConfig;
use crate::kernel::{Entry, TreeKernel};

/// Statistics of one clustering run (reported by the experiments: clustering time,
/// iteration count, moved-element history, cluster-count history).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KMeansStats {
    /// Number of initial centroids seeded.
    pub initial_centroids: usize,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Elements that switched clusters, per iteration.
    pub moved_per_iteration: Vec<usize>,
    /// Cluster count after reclustering, per iteration.
    pub clusters_per_iteration: Vec<usize>,
    /// Number of clusters in the final result.
    pub final_clusters: usize,
    /// Repository nodes that could not be assigned (their tree holds no centroid).
    pub unassigned_nodes: usize,
    /// Total number of distinct repository nodes clustered.
    pub total_nodes: usize,
    /// Labelling queries (LCAs and path lengths) the clustering asked: one LCA
    /// per slot of a seeded tree after its first, the join step's medoid pairs,
    /// and the pairs of any medoid summed over a sample. A count of work, exact
    /// and repeatable, not a timing.
    #[serde(default)]
    pub labelling_queries: usize,
    /// Wall-clock time of the clustering step (the `12.0 sec` style figure of Sec. 5).
    #[serde(skip)]
    pub elapsed: Duration,
}

/// The adapted k-means clusterer: path-length distance, `ME_min` seeding per tree.
pub struct KMeansClusterer {
    config: ClusteringConfig,
}

impl KMeansClusterer {
    /// A clusterer with the given configuration.
    pub fn new(config: ClusteringConfig) -> Self {
        KMeansClusterer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusteringConfig {
        &self.config
    }

    /// Cluster the mapping elements of `candidates` over `repo`. Each cluster's
    /// scope is `candidates` restricted to its members, list for list in the set's
    /// own order.
    ///
    /// The control loop is **tree-local** (see the module docs): every repository
    /// tree with candidates is seeded, iterated and converged on its own, and the
    /// per-tree results are concatenated in ascending tree order. Statistics are
    /// aggregated across trees: counters sum, `iterations` is the longest per-tree
    /// run, and the per-iteration histories are element-wise sums (a tree that has
    /// already converged contributes nothing to later iterations). A tree whose
    /// seeding already is the medoid fixed point stops after its first iteration.
    pub fn cluster(
        &self,
        repo: &SchemaRepository,
        candidates: &CandidateSet,
    ) -> (ClusterSet, KMeansStats) {
        let start = Instant::now();
        let mut set = ClusterSet::default();
        let mut stats = KMeansStats::default();
        // The arena: every mapping element once, stably sorted by tree, so each
        // tree's range keeps the candidate set's list-by-list order.
        let mut arena: Vec<Entry> = Vec::with_capacity(candidates.total_candidates());
        for list in 0..candidates.node_count() {
            let elements = candidates.candidates_at(list).iter();
            arena.extend(elements.map(|&element| Entry {
                list: list as u32,
                element,
            }));
        }
        arena.sort_by_key(|entry| entry.element.repo.tree);
        let mut kernel = TreeKernel::new(repo, &self.config, candidates.personal_nodes());
        for tree in arena.chunk_by(|a, b| a.element.repo.tree == b.element.repo.tree) {
            kernel.cluster_tree(tree, &mut set, &mut stats);
        }
        stats.final_clusters = set.clusters.len();
        stats.elapsed = start.elapsed();
        (set, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReclusterStrategy;
    use xsm_matcher::element::{match_elements, ElementMatchConfig};
    use xsm_matcher::MatchingProblem;
    use xsm_repo::{GeneratorConfig, RepositoryGenerator};
    use xsm_schema::GlobalNodeId;

    /// A small but realistic clustering scenario: synthetic repository + the paper's
    /// name/address/email personal schema.
    fn scenario() -> (MatchingProblem, SchemaRepository, CandidateSet) {
        let problem = MatchingProblem::paper_experiment();
        let repo = RepositoryGenerator::new(GeneratorConfig::small(21)).generate();
        let candidates = match_elements(
            &problem.personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.5),
        );
        (problem, repo, candidates)
    }

    #[test]
    fn clustering_produces_clusters_and_stats() {
        let (_, repo, candidates) = scenario();
        let clusterer = KMeansClusterer::new(ClusteringConfig::default());
        let (set, stats) = clusterer.cluster(&repo, &candidates);
        assert!(!set.is_empty(), "no clusters formed");
        assert!(stats.iterations >= 1);
        assert!(stats.initial_centroids > 0);
        assert_eq!(stats.final_clusters, set.len());
        assert_eq!(stats.total_nodes, candidates.distinct_repo_nodes());
        assert_eq!(
            stats.moved_per_iteration.len(),
            stats.iterations,
            "one moved-count per iteration"
        );
    }

    #[test]
    fn every_cluster_is_within_one_tree_and_centroid_is_a_member() {
        let (_, repo, candidates) = scenario();
        let (set, _) =
            KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &candidates);
        for cluster in &set.clusters {
            assert!(cluster.size() > 0);
            assert!(
                cluster.members.iter().all(|m| m.tree == cluster.tree),
                "cluster spans trees"
            );
            assert!(
                cluster.members.contains(&cluster.centroid),
                "centroid is not a member (medoid property violated)"
            );
        }
    }

    #[test]
    fn assigned_plus_unassigned_covers_all_nodes_without_duplication() {
        let (_, repo, candidates) = scenario();
        let (set, stats) =
            KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &candidates);
        let mut members: Vec<GlobalNodeId> = set
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        let assigned = members.len();
        members.sort();
        members.dedup();
        assert_eq!(members.len(), assigned, "a node appears in two clusters");
        // The unassigned nodes are the candidate nodes no cluster holds.
        let mut unassigned: Vec<GlobalNodeId> = candidates.iter().map(|m| m.repo).collect();
        unassigned.sort();
        unassigned.dedup();
        unassigned.retain(|node| members.binary_search(node).is_err());
        assert_eq!(unassigned.len(), stats.unassigned_nodes);
        assert_eq!(assigned + unassigned.len(), stats.total_nodes);
    }

    #[test]
    fn no_reclustering_yields_at_least_as_many_clusters_as_join() {
        let (_, repo, candidates) = scenario();
        let none = KMeansClusterer::new(
            ClusteringConfig::default().with_recluster(ReclusterStrategy::None),
        )
        .cluster(&repo, &candidates)
        .0;
        let join = KMeansClusterer::new(
            ClusteringConfig::default().with_recluster(ReclusterStrategy::Join),
        )
        .cluster(&repo, &candidates)
        .0;
        let join_remove = KMeansClusterer::new(
            ClusteringConfig::default().with_recluster(ReclusterStrategy::JoinAndRemove),
        )
        .cluster(&repo, &candidates)
        .0;
        // Fig. 4's ordering: no-reclustering ≥ join ≥ join&remove cluster counts.
        assert!(none.len() >= join.len(), "{} < {}", none.len(), join.len());
        assert!(
            join.len() >= join_remove.len(),
            "{} < {}",
            join.len(),
            join_remove.len()
        );
        // join&remove eliminates tiny clusters.
        let min_size = join_remove.sizes().into_iter().min().unwrap_or(0);
        assert!(min_size >= ClusteringConfig::default().remove_min_size);
    }

    #[test]
    fn smaller_join_distance_gives_more_clusters() {
        let (_, repo, candidates) = scenario();
        let small = KMeansClusterer::new(ClusteringConfig::default().with_join_distance(2))
            .cluster(&repo, &candidates)
            .0;
        let large = KMeansClusterer::new(ClusteringConfig::default().with_join_distance(5))
            .cluster(&repo, &candidates)
            .0;
        assert!(
            small.len() >= large.len(),
            "small-threshold clustering produced fewer clusters ({} vs {})",
            small.len(),
            large.len()
        );
    }

    #[test]
    fn clustering_is_deterministic() {
        let (_, repo, candidates) = scenario();
        let a = KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &candidates);
        let b = KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &candidates);
        assert_eq!(a.0.len(), b.0.len());
        assert_eq!(a.0.sizes(), b.0.sizes());
        assert_eq!(a.1.iterations, b.1.iterations);
    }

    #[test]
    fn empty_candidates_produce_empty_result() {
        let (_, repo, _) = scenario();
        let empty = CandidateSet::new(vec![]);
        let (set, stats) = KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &empty);
        assert!(set.is_empty());
        assert_eq!(stats.total_nodes, 0);
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (_, repo, candidates) = scenario();
        let (_, stats) = KMeansClusterer::new(ClusteringConfig::default().with_max_iterations(2))
            .cluster(&repo, &candidates);
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn seeding_at_the_fixed_point_stops_after_one_iteration() {
        // Two candidate nodes more than the join distance apart seed two singleton
        // clusters whose medoids are the seeds themselves: iteration 2 would
        // reproduce the assignment and only then trip the convergence criteria, so
        // the loop stops after the first.
        use xsm_schema::{SchemaNode, TreeBuilder};
        let tree = TreeBuilder::new("records")
            .root(SchemaNode::element("rec"))
            .child(SchemaNode::element("name"))
            .sibling(SchemaNode::element("x1"))
            .child(SchemaNode::element("x2"))
            .child(SchemaNode::element("x3"))
            .child(SchemaNode::element("names"))
            .build();
        let repo = SchemaRepository::from_trees(vec![tree]);
        let personal = TreeBuilder::new("personal")
            .root(SchemaNode::element("name"))
            .build();
        let candidates = match_elements(
            &personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.5),
        );
        assert_eq!(
            candidates.distinct_repo_nodes(),
            2,
            "scenario must seed exactly the two far-apart name nodes"
        );
        let config = ClusteringConfig::default().with_recluster(ReclusterStrategy::Join);
        let (set, stats) = KMeansClusterer::new(config).cluster(&repo, &candidates);
        assert_eq!(set.sizes(), vec![1, 1]);
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.moved_per_iteration, vec![2]);
        assert_eq!(stats.clusters_per_iteration, vec![2]);
    }

    #[test]
    fn clustering_decomposes_over_trees() {
        // The tree-local control contract: clustering the whole candidate set equals
        // clustering each tree's restriction and concatenating — the property the
        // sharded serving engine's bit-identical merge rests on.
        let (_, repo, candidates) = scenario();
        let clusterer = KMeansClusterer::new(ClusteringConfig::default());
        let (whole, whole_stats) = clusterer.cluster(&repo, &candidates);
        let mut parts = ClusterSet::default();
        let mut unassigned = 0;
        for tree in candidates.trees() {
            let (part, stats) = clusterer.cluster(&repo, &candidates.restrict_to_tree(tree));
            parts.clusters.extend(part.clusters);
            unassigned += stats.unassigned_nodes;
        }
        assert_eq!(whole.len(), parts.len());
        for (a, b) in whole.clusters.iter().zip(&parts.clusters) {
            let diverged = "per-tree clustering diverged from the whole run";
            assert_eq!((a.tree, a.centroid), (b.tree, b.centroid), "{diverged}");
            assert_eq!(a.members, b.members, "{diverged}");
            assert_eq!(a.scope.personal_nodes(), b.scope.personal_nodes());
            for i in 0..a.scope.node_count() {
                let (x, y) = (a.scope.candidates_at(i), b.scope.candidates_at(i));
                assert_eq!(x, y, "{diverged}");
            }
        }
        assert_eq!(whole_stats.unassigned_nodes, unassigned);
    }
}
