//! The straightforward formulation of the adapted k-means, kept as the reference
//! the flat production kernel is compared against.
//!
//! This is the clusterer as it ran in production before the kernel: per tree one
//! `CandidateSet`, nodes as owned `ClusteredNode`s, clusters rebuilt from clones in
//! every iteration, `BTreeMap`s keyed by node id. It is slow and obviously follows
//! Algorithm 1 line by line, which is the point: `kmeans_equivalence.rs` holds the
//! kernel to its clusters *and* its statistics. Only the public API of the product
//! crates is used. Its distance is its own: the path length as an `f64`, asked of
//! the repository pair by pair and compared with `1e-12` tolerances, independent
//! of the kernel's integer sweeps.

use std::cell::Cell;
use std::collections::BTreeMap;

use xsm_core::cluster::{Cluster, ClusterSet, ClusteredNode};
use xsm_core::config::{ClusteringConfig, ReclusterStrategy};
use xsm_core::convergence::ConvergenceTracker;
use xsm_core::init::CentroidInit;
use xsm_core::KMeansStats;
use xsm_matcher::{CandidateSet, MappingElement};
use xsm_repo::SchemaRepository;
use xsm_schema::GlobalNodeId;

const MEDOID_SAMPLE_LIMIT: usize = 256;

/// The reference clusterer: same inputs and outputs as `KMeansClusterer::cluster`
/// (`KMeansStats::elapsed` and `labelling_queries` aside).
pub struct OracleClusterer<'a> {
    pub config: ClusteringConfig,
    pub init: &'a dyn CentroidInit,
    /// Path lengths computed so far.
    pub distance_calls: Cell<usize>,
}

impl<'a> OracleClusterer<'a> {
    pub fn new(config: ClusteringConfig, init: &'a dyn CentroidInit) -> Self {
        OracleClusterer {
            config,
            init,
            distance_calls: Cell::new(0),
        }
    }

    /// The paper's distance: the tree path length, `None` across trees or for a
    /// node the labelling declines.
    fn distance(&self, repo: &SchemaRepository, a: GlobalNodeId, b: GlobalNodeId) -> Option<f64> {
        self.distance_calls.set(self.distance_calls.get() + 1);
        repo.distance(a, b).map(f64::from)
    }

    pub fn cluster(
        &self,
        repo: &SchemaRepository,
        candidates: &CandidateSet,
    ) -> (ClusterSet, KMeansStats) {
        let mut set = ClusterSet::default();
        let mut stats = KMeansStats::default();
        for (_, scope) in candidates.split_by_tree() {
            let (tree_set, tree_stats) = self.cluster_scope(repo, &scope);
            set.clusters.extend(tree_set.clusters);
            set.unassigned.extend(tree_set.unassigned);
            stats.total_nodes += tree_stats.total_nodes;
            stats.initial_centroids += tree_stats.initial_centroids;
            stats.unassigned_nodes += tree_stats.unassigned_nodes;
            stats.iterations = stats.iterations.max(tree_stats.iterations);
            accumulate(
                &mut stats.moved_per_iteration,
                &tree_stats.moved_per_iteration,
            );
            accumulate(
                &mut stats.clusters_per_iteration,
                &tree_stats.clusters_per_iteration,
            );
        }
        stats.final_clusters = set.clusters.len();
        (set, stats)
    }

    /// Algorithm 1 over the candidates of one repository tree.
    fn cluster_scope(
        &self,
        repo: &SchemaRepository,
        candidates: &CandidateSet,
    ) -> (ClusterSet, KMeansStats) {
        let nodes = collect_clustered_nodes(candidates);
        let mut stats = KMeansStats {
            total_nodes: nodes.len(),
            ..Default::default()
        };

        // Line 1: initialise centroids.
        let mut centroids: Vec<GlobalNodeId> = self.init.seed(candidates);
        centroids.sort();
        centroids.dedup();
        stats.initial_centroids = centroids.len();
        if centroids.is_empty() {
            stats.unassigned_nodes = nodes.len();
            let set = ClusterSet {
                clusters: Vec::new(),
                unassigned: nodes,
            };
            return (set, stats);
        }

        let mut tracker = ConvergenceTracker::new();
        let mut previous_assignment: Vec<Option<GlobalNodeId>> = vec![None; nodes.len()];
        let seeds = centroids.clone();

        for iteration in 0..self.config.max_iterations {
            // Lines 3–8: assign every node to its nearest centroid (same tree only).
            let (assignment, moved) = self.assign(repo, &nodes, &centroids, &previous_assignment);
            // Line 9: group into clusters and compute new medoid centroids.
            let mut clusters = self.build_clusters(repo, &nodes, &assignment);
            // Line 10: reclustering.
            clusters = match self.config.recluster {
                ReclusterStrategy::None => clusters,
                ReclusterStrategy::Join => self.join_clusters(repo, clusters),
                ReclusterStrategy::JoinAndRemove => {
                    let joined = self.join_clusters(repo, clusters);
                    remove_small_clusters(joined, self.config.remove_min_size)
                }
            };

            centroids = clusters.iter().map(|c| c.centroid).collect();
            centroids.sort();
            centroids.dedup();
            previous_assignment = assignment;
            stats.iterations += 1;

            // Line 11: convergence.
            if tracker.observe(moved, nodes.len(), clusters.len(), &self.config) {
                break;
            }
            if centroids.is_empty() {
                break;
            }
            // The first iteration left the centroid set exactly where seeding put it:
            // iteration 2 would reproduce this assignment and trip both criteria.
            if iteration == 0 && centroids == seeds {
                break;
            }
        }
        stats.moved_per_iteration = tracker.moved_history.clone();
        stats.clusters_per_iteration = tracker.cluster_history.clone();

        // Final pass: rebuild clusters from the final centroids so that members freed
        // by a trailing remove step get one last chance to join a surviving cluster.
        let (assignment, _) = self.assign(repo, &nodes, &centroids, &previous_assignment);
        let built = self.build_clusters(repo, &nodes, &assignment);
        let clusters = match self.config.recluster {
            ReclusterStrategy::None => built,
            _ => self.join_clusters(repo, built),
        };
        let unassigned: Vec<ClusteredNode> = nodes
            .iter()
            .zip(&assignment)
            .filter(|(_, a)| a.is_none())
            .map(|(n, _)| n.clone())
            .collect();
        stats.unassigned_nodes = unassigned.len();
        stats.final_clusters = clusters.len();
        let set = ClusterSet {
            clusters,
            unassigned,
        };
        (set, stats)
    }

    /// Assign every node to the nearest centroid in its tree. Returns the assignment
    /// (by centroid node id) and how many nodes changed relative to `previous`.
    fn assign(
        &self,
        repo: &SchemaRepository,
        nodes: &[ClusteredNode],
        centroids: &[GlobalNodeId],
        previous: &[Option<GlobalNodeId>],
    ) -> (Vec<Option<GlobalNodeId>>, usize) {
        let mut assignment = Vec::with_capacity(nodes.len());
        let mut moved = 0usize;
        for (i, node) in nodes.iter().enumerate() {
            let mut best: Option<(f64, GlobalNodeId)> = None;
            for &c in centroids {
                if c.tree != node.node.tree {
                    continue;
                }
                if let Some(d) = self.distance(repo, node.node, c) {
                    let better = match best {
                        None => true,
                        Some((bd, bc)) => d < bd - 1e-12 || (d < bd + 1e-12 && c < bc),
                    };
                    if better {
                        best = Some((d, c));
                    }
                }
            }
            let chosen = best.map(|(_, c)| c);
            if previous[i] != chosen {
                moved += 1;
            }
            assignment.push(chosen);
        }
        (assignment, moved)
    }

    /// Group assigned nodes into clusters keyed by centroid and recompute medoids.
    fn build_clusters(
        &self,
        repo: &SchemaRepository,
        nodes: &[ClusteredNode],
        assignment: &[Option<GlobalNodeId>],
    ) -> Vec<Cluster> {
        let mut groups: BTreeMap<GlobalNodeId, Vec<ClusteredNode>> = BTreeMap::new();
        for (node, assigned) in nodes.iter().zip(assignment) {
            if let Some(c) = assigned {
                groups.entry(*c).or_default().push(node.clone());
            }
        }
        groups
            .into_iter()
            .filter_map(|(seed, members)| {
                let centroid = self.medoid(repo, &members)?;
                Some(Cluster::new(seed.tree, centroid, members))
            })
            .collect()
    }

    /// Join clusters whose centroids lie within the join distance of each other
    /// (transitively). Each merged cluster gets a freshly computed medoid.
    fn join_clusters(&self, repo: &SchemaRepository, clusters: Vec<Cluster>) -> Vec<Cluster> {
        let n = clusters.len();
        if n <= 1 {
            return clusters;
        }
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if clusters[i].tree != clusters[j].tree {
                    continue;
                }
                let d = self.distance(repo, clusters[i].centroid, clusters[j].centroid);
                if d.is_some_and(|d| d <= self.config.join_distance as f64) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[rj.max(ri)] = rj.min(ri);
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, Vec<ClusteredNode>> = BTreeMap::new();
        let mut trees = BTreeMap::new();
        for (i, cluster) in clusters.into_iter().enumerate() {
            let root = find(&mut parent, i);
            trees.insert(root, cluster.tree);
            groups.entry(root).or_default().extend(cluster.members);
        }
        groups
            .into_iter()
            .filter_map(|(root, mut members)| {
                members.sort_by_key(|m| m.node);
                members.dedup_by_key(|m| m.node);
                let centroid = self.medoid(repo, &members)?;
                Some(Cluster::new(trees[&root], centroid, members))
            })
            .collect()
    }

    /// The member minimising the sum of distances to (a deterministic sample of) the
    /// members; ties towards the smaller node id.
    fn medoid(&self, repo: &SchemaRepository, members: &[ClusteredNode]) -> Option<GlobalNodeId> {
        if members.len() <= 1 {
            return members.first().map(|m| m.node);
        }
        let stride = (members.len() / MEDOID_SAMPLE_LIMIT).max(1);
        let reference: Vec<GlobalNodeId> = members.iter().step_by(stride).map(|m| m.node).collect();
        let mut best: Option<(f64, GlobalNodeId)> = None;
        for candidate in members {
            let mut sum = 0.0;
            for &other in &reference {
                sum += self
                    .distance(repo, candidate.node, other)
                    .unwrap_or(f64::MAX / reference.len() as f64);
            }
            let better = match best {
                None => true,
                Some((best_sum, best_node)) => {
                    sum < best_sum - 1e-12 || (sum < best_sum + 1e-12 && candidate.node < best_node)
                }
            };
            if better {
                best = Some((sum, candidate.node));
            }
        }
        best.map(|(_, node)| node)
    }
}

/// The scope of a cluster by scanning the whole candidate set for its members.
pub fn scope_by_restriction(cluster: &Cluster, candidates: &CandidateSet) -> CandidateSet {
    let mut nodes = cluster.node_ids();
    nodes.sort();
    candidates.restrict(|m| nodes.binary_search(&m.repo).is_ok())
}

/// Remove clusters with fewer than `min_size` members (their members are free to
/// join another cluster in the next iteration).
fn remove_small_clusters(clusters: Vec<Cluster>, min_size: usize) -> Vec<Cluster> {
    clusters
        .into_iter()
        .filter(|c| c.size() >= min_size)
        .collect()
}

/// The distinct repository nodes of a candidate set, each with its elements.
fn collect_clustered_nodes(candidates: &CandidateSet) -> Vec<ClusteredNode> {
    let mut by_node: BTreeMap<GlobalNodeId, Vec<MappingElement>> = BTreeMap::new();
    for m in candidates.iter() {
        by_node.entry(m.repo).or_default().push(*m);
    }
    by_node
        .into_iter()
        .map(|(node, elements)| ClusteredNode { node, elements })
        .collect()
}

fn accumulate(acc: &mut Vec<usize>, add: &[usize]) {
    if acc.len() < add.len() {
        acc.resize(add.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(add) {
        *a += b;
    }
}
