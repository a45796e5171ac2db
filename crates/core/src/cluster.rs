//! Clusters of mapping elements.
//!
//! A cluster is a set of repository nodes (each carrying the mapping elements that
//! reference it) within a single repository tree, represented by a *centroid* node.
//! Clusters never span trees because the clustering distance (path length) is only
//! defined within a tree.

use serde::{Deserialize, Serialize};
use xsm_matcher::{CandidateSet, MappingElement};
use xsm_schema::{GlobalNodeId, TreeId};

/// A clustered repository node: the node plus every mapping element referencing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusteredNode {
    /// The repository node.
    pub node: GlobalNodeId,
    /// Mapping elements `(personal, repo = node, sim)` that reference the node.
    pub elements: Vec<MappingElement>,
}

impl ClusteredNode {
    /// Number of mapping elements carried by the node.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }
}

/// One cluster of mapping elements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// The repository tree every member belongs to.
    pub tree: TreeId,
    /// The centroid (a member node — a medoid in k-means terms).
    pub centroid: GlobalNodeId,
    /// Member nodes.
    pub members: Vec<ClusteredNode>,
}

impl Cluster {
    /// Create a cluster with a centroid and members (members may be empty).
    pub fn new(tree: TreeId, centroid: GlobalNodeId, members: Vec<ClusteredNode>) -> Self {
        Cluster {
            tree,
            centroid,
            members,
        }
    }

    /// Number of member repository nodes (the "size" used by Fig. 4's histogram).
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Total number of mapping elements across the members.
    pub fn element_count(&self) -> usize {
        self.members.iter().map(|m| m.element_count()).sum()
    }

    /// The member node ids.
    pub fn node_ids(&self) -> Vec<GlobalNodeId> {
        self.members.iter().map(|m| m.node).collect()
    }

    /// The slice of `candidates` that falls inside this cluster — the scope handed
    /// to the mapping generator for this cluster.
    ///
    /// **Precondition:** `candidates` is the set this cluster was formed from, with
    /// its lists in [`CandidateSet::sort`] order (as element matching leaves them).
    /// The members then already carry exactly the elements a scan of the whole set
    /// would keep, so the scope is assembled from them in `O(|cluster| log
    /// |cluster|)` — per node by descending similarity, then ascending repository
    /// id — instead of filtering `|ME|` elements once per cluster. Every call site
    /// scopes a clustering against the set it just clustered; debug builds check
    /// that the elements fit the set.
    pub fn scope(&self, candidates: &CandidateSet) -> CandidateSet {
        let scope = candidates.subset(self.members.iter().flat_map(|m| &m.elements));
        debug_assert!(
            scope.total_candidates() == self.element_count()
                && (0..scope.node_count())
                    .all(|i| scope.candidates_at(i).len() <= candidates.candidates_at(i).len()),
            "Cluster::scope: the cluster was not formed from this candidate set"
        );
        scope
    }

    /// A cluster is *useful* if it holds at least one mapping element for every
    /// personal-schema node (only useful clusters can produce complete mappings).
    pub fn is_useful(&self, candidates: &CandidateSet) -> bool {
        self.scope(candidates).is_useful()
    }
}

/// The result of a clustering pass: clusters plus the nodes that could not be assigned
/// to any centroid (their tree received no centroid).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterSet {
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// Repository nodes left unassigned (no centroid in their tree).
    pub unassigned: Vec<ClusteredNode>,
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

    /// Only the useful clusters with respect to a candidate set.
    pub fn useful<'a>(
        &'a self,
        candidates: &'a CandidateSet,
    ) -> impl Iterator<Item = &'a Cluster> + 'a {
        self.clusters.iter().filter(|c| c.is_useful(candidates))
    }

    /// Count of useful clusters (Tab. 1a, first column).
    pub fn useful_count(&self, candidates: &CandidateSet) -> usize {
        self.useful(candidates).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::NodeId;

    fn gid(tree: u32, node: u32) -> GlobalNodeId {
        GlobalNodeId::new(TreeId(tree), NodeId(node))
    }

    /// The distinct repository nodes of a candidate set, each with its elements.
    fn collect_clustered_nodes(candidates: &CandidateSet) -> Vec<ClusteredNode> {
        let mut by_node: std::collections::BTreeMap<GlobalNodeId, Vec<MappingElement>> =
            Default::default();
        for m in candidates.iter() {
            by_node.entry(m.repo).or_default().push(*m);
        }
        by_node
            .into_iter()
            .map(|(node, elements)| ClusteredNode { node, elements })
            .collect()
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

    #[test]
    fn collect_groups_elements_by_repo_node() {
        let nodes = collect_clustered_nodes(&sample_candidates());
        assert_eq!(nodes.len(), 4);
        let shared = nodes.iter().find(|n| n.node == gid(0, 3)).unwrap();
        assert_eq!(shared.element_count(), 2);
    }

    #[test]
    fn cluster_scope_and_usefulness() {
        let candidates = sample_candidates();
        let nodes = collect_clustered_nodes(&candidates);
        let members: Vec<ClusteredNode> = nodes
            .iter()
            .filter(|n| n.node.tree == TreeId(0))
            .cloned()
            .collect();
        let cluster = Cluster::new(TreeId(0), gid(0, 1), members);
        assert_eq!(cluster.size(), 3);
        assert_eq!(cluster.element_count(), 4);
        let scope = cluster.scope(&candidates);
        assert_eq!(scope.total_candidates(), 4);
        assert!(cluster.is_useful(&candidates));

        // A cluster holding only node 5 covers personal node 1 but not node 0.
        let narrow = Cluster::new(
            TreeId(0),
            gid(0, 5),
            nodes
                .iter()
                .filter(|n| n.node == gid(0, 5))
                .cloned()
                .collect(),
        );
        assert!(!narrow.is_useful(&candidates));
    }

    #[test]
    fn scope_equals_restricting_the_clustered_set_to_the_members() {
        let candidates = sample_candidates();
        let members: Vec<ClusteredNode> = collect_clustered_nodes(&candidates)
            .into_iter()
            .filter(|n| n.node != gid(0, 1))
            .rev() // member order must not matter
            .collect();
        let cluster = Cluster::new(TreeId(0), gid(0, 3), members);
        let (fast, reference) = (
            cluster.scope(&candidates),
            candidates.restrict(|m| m.repo != gid(0, 1)),
        );
        assert_eq!(fast.personal_nodes(), reference.personal_nodes());
        for &n in candidates.personal_nodes() {
            assert_eq!(fast.candidates_for(n), reference.candidates_for(n));
        }
    }

    #[test]
    fn cluster_set_statistics() {
        let candidates = sample_candidates();
        let nodes = collect_clustered_nodes(&candidates);
        let tree0: Vec<ClusteredNode> = nodes
            .iter()
            .filter(|n| n.node.tree == TreeId(0))
            .cloned()
            .collect();
        let tree1: Vec<ClusteredNode> = nodes
            .iter()
            .filter(|n| n.node.tree == TreeId(1))
            .cloned()
            .collect();
        let set = ClusterSet {
            clusters: vec![
                Cluster::new(TreeId(0), gid(0, 1), tree0),
                Cluster::new(TreeId(1), gid(1, 2), tree1),
            ],
            unassigned: vec![],
        };
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.total_members(), 4);
        assert_eq!(set.sizes(), vec![3, 1]);
        // Tree-1 cluster only covers personal node 1 → not useful.
        assert_eq!(set.useful_count(&candidates), 1);
    }

    #[test]
    fn empty_cluster_set() {
        let set = ClusterSet::default();
        assert!(set.is_empty());
        assert_eq!(set.total_members(), 0);
        assert_eq!(set.useful_count(&CandidateSet::new(vec![])), 0);
    }
}
