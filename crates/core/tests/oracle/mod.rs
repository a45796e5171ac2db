//! The straightforward formulation of the adapted k-means, kept as the reference
//! the flat production kernel is compared against.
//!
//! This is the clusterer as it ran in production before the kernel: per tree one
//! `CandidateSet` seeded by `min_candidate_node`, nodes as owned node ids, clusters
//! rebuilt from clones in every iteration, `BTreeMap`s keyed by node id, and each
//! final scope a scan of the whole candidate set ([`scope_by_restriction`]). It is
//! slow and obviously follows Algorithm 1 line by line, which is the point:
//! `kmeans_equivalence.rs` holds the kernel to its clusters, scopes *and*
//! statistics. Only the public API of the product crates is used. Its distance is
//! its own: the path length as an `f64`, asked of the repository pair by pair and
//! compared with `1e-12` tolerances, independent of the kernel's integer sweeps.

use std::cell::Cell;
use std::collections::BTreeMap;

use xsm_core::cluster::{Cluster, ClusterSet};
use xsm_core::config::{ClusteringConfig, ReclusterStrategy};
use xsm_core::convergence::ConvergenceTracker;
use xsm_core::KMeansStats;
use xsm_matcher::CandidateSet;
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, TreeId};

const MEDOID_SAMPLE_LIMIT: usize = 256;

/// A cluster as the oracle iterates on it: members as owned ids, no scope yet.
#[derive(Clone)]
struct OracleCluster {
    tree: TreeId,
    centroid: GlobalNodeId,
    members: Vec<GlobalNodeId>,
}

/// What the oracle returns: `KMeansClusterer::cluster`'s clusters and statistics
/// (`KMeansStats::elapsed` and `labelling_queries` aside), and the nodes it left
/// unassigned, ascending.
pub struct OracleResult {
    pub set: ClusterSet,
    pub unassigned: Vec<GlobalNodeId>,
    pub stats: KMeansStats,
}

/// The reference clusterer.
pub struct OracleClusterer {
    pub config: ClusteringConfig,
    /// Path lengths computed so far.
    pub distance_calls: Cell<usize>,
}

impl OracleClusterer {
    pub fn new(config: ClusteringConfig) -> Self {
        OracleClusterer {
            config,
            distance_calls: Cell::new(0),
        }
    }

    /// The paper's distance: the tree path length, `None` across trees or for a
    /// node the labelling declines.
    fn distance(&self, repo: &SchemaRepository, a: GlobalNodeId, b: GlobalNodeId) -> Option<f64> {
        self.distance_calls.set(self.distance_calls.get() + 1);
        repo.distance(a, b).map(f64::from)
    }

    pub fn cluster(&self, repo: &SchemaRepository, candidates: &CandidateSet) -> OracleResult {
        let mut set = ClusterSet::default();
        let mut unassigned = Vec::new();
        let mut stats = KMeansStats::default();
        for (_, scope) in candidates.split_by_tree() {
            let (clusters, tree_unassigned, tree_stats) = self.cluster_scope(repo, &scope);
            set.clusters
                .extend(clusters.into_iter().map(|cluster| Cluster {
                    scope: scope_by_restriction(&cluster.members, candidates),
                    tree: cluster.tree,
                    centroid: cluster.centroid,
                    members: cluster.members,
                }));
            unassigned.extend(tree_unassigned);
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
        OracleResult {
            set,
            unassigned,
            stats,
        }
    }

    /// Algorithm 1 over the candidates of one repository tree: its clusters, its
    /// unassigned nodes and its statistics.
    fn cluster_scope(
        &self,
        repo: &SchemaRepository,
        candidates: &CandidateSet,
    ) -> (Vec<OracleCluster>, Vec<GlobalNodeId>, KMeansStats) {
        let nodes = distinct_nodes(candidates);
        let mut stats = KMeansStats {
            total_nodes: nodes.len(),
            ..Default::default()
        };

        // Line 1: initialise centroids with `ME_min`, the elements of the personal
        // node with the fewest candidates.
        let mut centroids: Vec<GlobalNodeId> = match candidates.min_candidate_node() {
            Some((node, _)) => candidates
                .candidates_for(node)
                .iter()
                .map(|m| m.repo)
                .collect(),
            None => Vec::new(),
        };
        centroids.sort();
        centroids.dedup();
        stats.initial_centroids = centroids.len();
        if centroids.is_empty() {
            stats.unassigned_nodes = nodes.len();
            return (Vec::new(), nodes, stats);
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
        let unassigned: Vec<GlobalNodeId> = nodes
            .iter()
            .zip(&assignment)
            .filter(|(_, a)| a.is_none())
            .map(|(&n, _)| n)
            .collect();
        stats.unassigned_nodes = unassigned.len();
        stats.final_clusters = clusters.len();
        (clusters, unassigned, stats)
    }

    /// Assign every node to the nearest centroid in its tree. Returns the assignment
    /// (by centroid node id) and how many nodes changed relative to `previous`.
    fn assign(
        &self,
        repo: &SchemaRepository,
        nodes: &[GlobalNodeId],
        centroids: &[GlobalNodeId],
        previous: &[Option<GlobalNodeId>],
    ) -> (Vec<Option<GlobalNodeId>>, usize) {
        let mut assignment = Vec::with_capacity(nodes.len());
        let mut moved = 0usize;
        for (i, &node) in nodes.iter().enumerate() {
            let mut best: Option<(f64, GlobalNodeId)> = None;
            for &c in centroids {
                if c.tree != node.tree {
                    continue;
                }
                if let Some(d) = self.distance(repo, node, c) {
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
        nodes: &[GlobalNodeId],
        assignment: &[Option<GlobalNodeId>],
    ) -> Vec<OracleCluster> {
        let mut groups: BTreeMap<GlobalNodeId, Vec<GlobalNodeId>> = BTreeMap::new();
        for (&node, assigned) in nodes.iter().zip(assignment) {
            if let Some(c) = assigned {
                groups.entry(*c).or_default().push(node);
            }
        }
        groups
            .into_iter()
            .filter_map(|(seed, members)| {
                let centroid = self.medoid(repo, &members)?;
                Some(OracleCluster {
                    tree: seed.tree,
                    centroid,
                    members,
                })
            })
            .collect()
    }

    /// Join clusters whose centroids lie within the join distance of each other
    /// (transitively). Each merged cluster gets a freshly computed medoid.
    fn join_clusters(
        &self,
        repo: &SchemaRepository,
        clusters: Vec<OracleCluster>,
    ) -> Vec<OracleCluster> {
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
        let mut groups: BTreeMap<usize, Vec<GlobalNodeId>> = BTreeMap::new();
        let mut trees = BTreeMap::new();
        for (i, cluster) in clusters.into_iter().enumerate() {
            let root = find(&mut parent, i);
            trees.insert(root, cluster.tree);
            groups.entry(root).or_default().extend(cluster.members);
        }
        groups
            .into_iter()
            .filter_map(|(root, mut members)| {
                members.sort();
                members.dedup();
                let centroid = self.medoid(repo, &members)?;
                Some(OracleCluster {
                    tree: trees[&root],
                    centroid,
                    members,
                })
            })
            .collect()
    }

    /// The member minimising the sum of distances to (a deterministic sample of) the
    /// members; ties towards the smaller node id.
    fn medoid(&self, repo: &SchemaRepository, members: &[GlobalNodeId]) -> Option<GlobalNodeId> {
        if members.len() <= 1 {
            return members.first().copied();
        }
        let stride = (members.len() / MEDOID_SAMPLE_LIMIT).max(1);
        let reference: Vec<GlobalNodeId> = members.iter().step_by(stride).copied().collect();
        let mut best: Option<(f64, GlobalNodeId)> = None;
        for &candidate in members {
            let mut sum = 0.0;
            for &other in &reference {
                sum += self
                    .distance(repo, candidate, other)
                    .unwrap_or(f64::MAX / reference.len() as f64);
            }
            let better = match best {
                None => true,
                Some((best_sum, best_node)) => {
                    sum < best_sum - 1e-12 || (sum < best_sum + 1e-12 && candidate < best_node)
                }
            };
            if better {
                best = Some((sum, candidate));
            }
        }
        best.map(|(_, node)| node)
    }
}

/// The scope of a cluster by scanning the whole candidate set for its members.
pub fn scope_by_restriction(members: &[GlobalNodeId], candidates: &CandidateSet) -> CandidateSet {
    let mut nodes = members.to_vec();
    nodes.sort();
    candidates.restrict(|m| nodes.binary_search(&m.repo).is_ok())
}

/// Remove clusters with fewer than `min_size` members (their members are free to
/// join another cluster in the next iteration).
fn remove_small_clusters(clusters: Vec<OracleCluster>, min_size: usize) -> Vec<OracleCluster> {
    clusters
        .into_iter()
        .filter(|c| c.members.len() >= min_size)
        .collect()
}

/// The distinct repository nodes of a candidate set, ascending.
fn distinct_nodes(candidates: &CandidateSet) -> Vec<GlobalNodeId> {
    let mut nodes: Vec<GlobalNodeId> = candidates.iter().map(|m| m.repo).collect();
    nodes.sort();
    nodes.dedup();
    nodes
}

fn accumulate(acc: &mut Vec<usize>, add: &[usize]) {
    if acc.len() < add.len() {
        acc.resize(add.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(add) {
        *a += b;
    }
}
