//! Clusters of mapping elements.
//!
//! A cluster is a set of repository nodes within a single repository tree,
//! represented by a *centroid* node, together with its *scope*: the mapping elements
//! that reference its members, as the candidate set the mapping generator runs on.
//! Clusters never span trees because the clustering distance (path length) is only
//! defined within a tree.

use serde::{Deserialize, Serialize};
use xsm_matcher::CandidateSet;
use xsm_schema::{GlobalNodeId, TreeId};

/// One cluster of mapping elements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cluster {
    /// The repository tree every member belongs to.
    pub tree: TreeId,
    /// The centroid (a member node — a medoid in k-means terms).
    pub centroid: GlobalNodeId,
    /// Member nodes, ascending.
    pub members: Vec<GlobalNodeId>,
    /// The clustered candidate set restricted to the members: same personal nodes,
    /// every list in that set's order. The scope the mapping generator runs on for
    /// this cluster.
    pub scope: CandidateSet,
}

impl Cluster {
    /// Number of member repository nodes (the "size" used by Fig. 4's histogram).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Total number of mapping elements in the scope.
    pub fn element_count(&self) -> usize {
        self.scope.total_candidates()
    }

    /// A copy of the cluster's [`scope`](Cluster#structfield.scope); `candidates`
    /// is not read. It stays only for bellbench's staged replay (`layers.rs`),
    /// which calls it, and goes when the trace moves into the engine (ROADMAP
    /// direction 3).
    pub fn scope(&self, _candidates: &CandidateSet) -> CandidateSet {
        self.scope.clone()
    }

    /// A cluster is *useful* if it holds at least one mapping element for every
    /// personal-schema node (only useful clusters can produce complete mappings).
    pub fn is_useful(&self) -> bool {
        self.scope.is_useful()
    }
}

/// The result of a clustering pass: the clusters, in ascending tree order. A node
/// in no cluster is unassigned (its tree received no centroid that reaches it);
/// [`crate::KMeansStats::unassigned_nodes`] counts them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterSet {
    /// The clusters.
    pub clusters: Vec<Cluster>,
}

impl ClusterSet {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Total number of member nodes over all clusters.
    pub fn total_members(&self) -> usize {
        self.clusters.iter().map(|c| c.size()).sum()
    }

    /// Cluster sizes (used by the Fig. 4 histogram).
    pub fn sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(|c| c.size()).collect()
    }

    /// Only the useful clusters.
    pub fn useful(&self) -> impl Iterator<Item = &Cluster> + '_ {
        self.clusters.iter().filter(|c| c.is_useful())
    }

    /// Count of useful clusters (Tab. 1a, first column).
    pub fn useful_count(&self) -> usize {
        self.useful().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReclusterStrategy;
    use crate::{ClusteringConfig, KMeansClusterer};
    use xsm_matcher::MappingElement;
    use xsm_repo::SchemaRepository;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::NodeId;

    fn gid(tree: u32, node: u32) -> GlobalNodeId {
        GlobalNodeId::new(TreeId(tree), NodeId(node))
    }

    fn sample_candidates() -> CandidateSet {
        let mut set = CandidateSet::new(vec![NodeId(0), NodeId(1)]);
        set.push(MappingElement::new(NodeId(0), gid(0, 1), 0.9));
        set.push(MappingElement::new(NodeId(0), gid(0, 3), 0.6));
        set.push(MappingElement::new(NodeId(1), gid(0, 3), 0.8));
        set.push(MappingElement::new(NodeId(1), gid(0, 5), 0.7));
        set.push(MappingElement::new(NodeId(1), gid(1, 2), 0.95));
        set.sort();
        set
    }

    /// A cluster of `members` (ascending) of one tree, scoped by restriction.
    fn cluster_of(candidates: &CandidateSet, members: &[GlobalNodeId]) -> Cluster {
        Cluster {
            tree: members[0].tree,
            centroid: members[0],
            members: members.to_vec(),
            scope: candidates.restrict(|m| members.contains(&m.repo)),
        }
    }

    #[test]
    fn cluster_scope_and_usefulness() {
        let candidates = sample_candidates();
        let cluster = cluster_of(&candidates, &[gid(0, 1), gid(0, 3), gid(0, 5)]);
        assert_eq!(cluster.size(), 3);
        assert_eq!(cluster.element_count(), 4);
        assert_eq!(cluster.scope(&candidates).total_candidates(), 4);
        assert!(cluster.is_useful());

        // A cluster holding only node 5 covers personal node 1 but not node 0.
        let narrow = cluster_of(&candidates, &[gid(0, 5)]);
        assert!(!narrow.is_useful());
    }

    #[test]
    fn scope_equals_restricting_the_clustered_set_to_the_members() {
        // Fig. 1's tree, every node a candidate of two personal nodes at similarities
        // that put each list out of id order.
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let mut candidates = CandidateSet::new(vec![NodeId(0), NodeId(1)]);
        for (i, (node, _)) in repo.nodes().enumerate() {
            candidates.push(MappingElement::new(NodeId(0), node, [0.6, 0.9, 0.7][i % 3]));
            if i % 2 == 0 {
                candidates.push(MappingElement::new(NodeId(1), node, [0.8, 0.5][i % 4 / 2]));
            }
        }
        candidates.sort();
        let config = ClusteringConfig::default().with_recluster(ReclusterStrategy::None);
        let (set, _) = KMeansClusterer::new(config).cluster(&repo, &candidates);
        assert!(set.len() > 1, "the scenario must split the tree");
        for cluster in &set.clusters {
            let reference = candidates.restrict(|m| cluster.members.contains(&m.repo));
            assert_eq!(cluster.scope.personal_nodes(), reference.personal_nodes());
            for i in 0..reference.node_count() {
                assert_eq!(cluster.scope.candidates_at(i), reference.candidates_at(i));
            }
            let copy = cluster.scope(&candidates);
            assert_eq!(copy.total_candidates(), reference.total_candidates());
        }
    }

    #[test]
    fn cluster_set_statistics() {
        let candidates = sample_candidates();
        let set = ClusterSet {
            clusters: vec![
                cluster_of(&candidates, &[gid(0, 1), gid(0, 3), gid(0, 5)]),
                cluster_of(&candidates, &[gid(1, 2)]),
            ],
        };
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.total_members(), 4);
        assert_eq!(set.sizes(), vec![3, 1]);
        // Tree-1 cluster only covers personal node 1 → not useful.
        assert_eq!(set.useful_count(), 1);
    }

    #[test]
    fn empty_cluster_set() {
        let set = ClusterSet::default();
        assert!(set.is_empty());
        assert_eq!(set.total_members(), 0);
        assert_eq!(set.useful_count(), 0);
    }
}
