//! The schema repository: a forest of schema trees with cached node labellings.

use serde::{Deserialize, Serialize};
use xsm_schema::stats::ForestStats;
use xsm_schema::{GlobalNodeId, SchemaNode, SchemaTree, TreeId, TreeLabeling};

/// A repository `R` of XML schema trees.
///
/// The paper treats `R` as "a single large tree" in formulas for brevity but implements
/// it as a forest; we store the forest explicitly. Each tree carries its precomputed
/// [`TreeLabeling`] so both the matcher (for `Δ_path`) and the clusterer (for the
/// k-means distance measure) get path lengths from flat labels instead of walking the
/// tree.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SchemaRepository {
    trees: Vec<SchemaTree>,
    #[serde(skip)]
    labelings: Vec<TreeLabeling>,
}

impl SchemaRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a repository from a forest of trees.
    pub fn from_trees(trees: Vec<SchemaTree>) -> Self {
        let labelings = trees.iter().map(TreeLabeling::build).collect();
        SchemaRepository { trees, labelings }
    }

    /// Add a tree and return its id.
    pub fn add_tree(&mut self, tree: SchemaTree) -> TreeId {
        let id = TreeId(self.trees.len() as u32);
        self.labelings.push(TreeLabeling::build(&tree));
        self.trees.push(tree);
        id
    }

    /// Number of trees in the forest.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// True when the repository holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Total number of nodes (elements + attributes) across all trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.len()).sum()
    }

    /// Access a tree by id.
    pub fn tree(&self, id: TreeId) -> Option<&SchemaTree> {
        self.trees.get(id.index())
    }

    /// Access a tree's labelling by id (rebuilding lazily after deserialization is the
    /// caller's job via [`SchemaRepository::rebuild_labelings`]).
    pub fn labeling(&self, id: TreeId) -> Option<&TreeLabeling> {
        self.labelings.get(id.index())
    }

    /// Recompute all labellings (needed after `serde` deserialization, which skips them).
    pub fn rebuild_labelings(&mut self) {
        self.labelings = self.trees.iter().map(TreeLabeling::build).collect();
    }

    /// Iterate over `(TreeId, &SchemaTree)` pairs.
    pub fn trees(&self) -> impl Iterator<Item = (TreeId, &SchemaTree)> + '_ {
        self.trees
            .iter()
            .enumerate()
            .map(|(i, t)| (TreeId(i as u32), t))
    }

    /// Iterate over every node in the repository.
    pub fn nodes(&self) -> impl Iterator<Item = (GlobalNodeId, &SchemaNode)> + '_ {
        self.trees().flat_map(|(tid, tree)| {
            tree.nodes()
                .map(move |(nid, node)| (GlobalNodeId::new(tid, nid), node))
        })
    }

    /// Look up a node's data by its global id.
    pub fn node(&self, id: GlobalNodeId) -> Option<&SchemaNode> {
        self.tree(id.tree)?.node(id.node)
    }

    /// Name of a node by global id (empty string for unknown ids).
    pub fn name_of(&self, id: GlobalNodeId) -> &str {
        self.tree(id.tree).map(|t| t.name_of(id.node)).unwrap_or("")
    }

    /// Tree (path-length) distance between two nodes **of the same tree**; `None` when
    /// the nodes live in different trees or either id is unknown. Cross-tree distance
    /// is undefined in the paper's model — clusters never span trees.
    pub fn distance(&self, a: GlobalNodeId, b: GlobalNodeId) -> Option<u32> {
        if a.tree != b.tree {
            return None;
        }
        self.labeling(a.tree)?.distance(a.node, b.node)
    }

    /// Depth of a node within its tree.
    pub fn depth(&self, id: GlobalNodeId) -> Option<u32> {
        self.labeling(id.tree)?.depth(id.node)
    }

    /// Absolute path of a node (e.g. `/lib/book/title`), prefixed by the tree id.
    pub fn describe(&self, id: GlobalNodeId) -> String {
        match self.tree(id.tree) {
            Some(t) => format!("{}{}", id.tree, t.absolute_path(id.node)),
            None => format!("{id}?"),
        }
    }

    /// Forest-level statistics (used by EXPERIMENTS.md and the examples).
    pub fn stats(&self) -> ForestStats {
        ForestStats::of(self.trees.iter())
    }

    /// All node ids of one tree.
    pub fn tree_node_ids(&self, id: TreeId) -> Vec<GlobalNodeId> {
        match self.tree(id) {
            Some(t) => t.node_ids().map(|n| GlobalNodeId::new(id, n)).collect(),
            None => Vec::new(),
        }
    }

    /// Does the repository contain the given global node id?
    pub fn contains(&self, id: GlobalNodeId) -> bool {
        self.tree(id.tree)
            .map(|t| (id.node.index()) < t.len())
            .unwrap_or(false)
    }

    /// Parent of a node within its tree.
    pub fn parent(&self, id: GlobalNodeId) -> Option<GlobalNodeId> {
        let p = self.tree(id.tree)?.parent(id.node)?;
        Some(GlobalNodeId::new(id.tree, p))
    }

    /// Children of a node within its tree.
    pub fn children(&self, id: GlobalNodeId) -> Vec<GlobalNodeId> {
        match self.tree(id.tree) {
            Some(t) => t
                .children(id.node)
                .iter()
                .map(|&c| GlobalNodeId::new(id.tree, c))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Number of edges of a tree.
    pub fn tree_edge_count(&self, id: TreeId) -> usize {
        self.tree(id).map(|t| t.edge_count()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::{paper_personal_schema, paper_repository_fragment};
    use xsm_schema::NodeId;

    fn two_tree_repo() -> SchemaRepository {
        SchemaRepository::from_trees(vec![paper_repository_fragment(), paper_personal_schema()])
    }

    #[test]
    fn empty_repository() {
        let r = SchemaRepository::new();
        assert!(r.is_empty());
        assert_eq!(r.tree_count(), 0);
        assert_eq!(r.total_nodes(), 0);
        assert_eq!(r.nodes().count(), 0);
        assert!(!r.contains(GlobalNodeId::new(TreeId(0), NodeId(0))));
    }

    #[test]
    fn from_trees_and_add_tree() {
        let mut r = two_tree_repo();
        assert_eq!(r.tree_count(), 2);
        assert_eq!(r.total_nodes(), 10);
        let id = r.add_tree(paper_personal_schema());
        assert_eq!(id, TreeId(2));
        assert_eq!(r.total_nodes(), 13);
        assert!(r.labeling(id).is_some());
    }

    #[test]
    fn node_lookup_and_names() {
        let r = two_tree_repo();
        let lib_root = GlobalNodeId::new(TreeId(0), NodeId(0));
        assert_eq!(r.name_of(lib_root), "lib");
        assert!(r.contains(lib_root));
        let unknown = GlobalNodeId::new(TreeId(9), NodeId(0));
        assert_eq!(r.name_of(unknown), "");
        assert!(r.node(unknown).is_none());
    }

    #[test]
    fn distance_within_and_across_trees() {
        let r = two_tree_repo();
        let t0 = r.tree(TreeId(0)).unwrap();
        let title = GlobalNodeId::new(TreeId(0), t0.find_by_name("title").unwrap());
        let address = GlobalNodeId::new(TreeId(0), t0.find_by_name("address").unwrap());
        assert_eq!(r.distance(title, address), Some(4));
        // Cross-tree distance is undefined.
        let other = GlobalNodeId::new(TreeId(1), NodeId(0));
        assert_eq!(r.distance(title, other), None);
    }

    #[test]
    fn parent_children_navigation() {
        let r = two_tree_repo();
        let t0 = r.tree(TreeId(0)).unwrap();
        let book = GlobalNodeId::new(TreeId(0), t0.find_by_name("book").unwrap());
        let kids = r.children(book);
        assert_eq!(kids.len(), 2);
        assert_eq!(r.parent(kids[0]), Some(book));
        let root = GlobalNodeId::new(TreeId(0), t0.root().unwrap());
        assert_eq!(r.parent(root), None);
    }

    #[test]
    fn describe_and_stats() {
        let r = two_tree_repo();
        let t0 = r.tree(TreeId(0)).unwrap();
        let title = GlobalNodeId::new(TreeId(0), t0.find_by_name("title").unwrap());
        assert_eq!(r.describe(title), "t0/lib/book/data/title");
        let s = r.stats();
        assert_eq!(s.tree_count, 2);
        assert_eq!(s.total_nodes, 10);
    }

    #[test]
    fn serde_roundtrip_requires_rebuild() {
        let r = two_tree_repo();
        let json = serde_json::to_string(&r).unwrap();
        let mut back: SchemaRepository = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tree_count(), 2);
        // Labelings are skipped by serde; distance queries need a rebuild.
        let t0 = back.tree(TreeId(0)).unwrap();
        let title = GlobalNodeId::new(TreeId(0), t0.find_by_name("title").unwrap());
        let addr = GlobalNodeId::new(TreeId(0), t0.find_by_name("address").unwrap());
        assert_eq!(back.distance(title, addr), None);
        back.rebuild_labelings();
        assert_eq!(back.distance(title, addr), Some(4));
    }

    #[test]
    fn tree_node_ids_cover_whole_tree() {
        let r = two_tree_repo();
        assert_eq!(r.tree_node_ids(TreeId(0)).len(), 7);
        assert_eq!(r.tree_node_ids(TreeId(1)).len(), 3);
        assert_eq!(r.tree_node_ids(TreeId(5)).len(), 0);
        assert_eq!(r.tree_edge_count(TreeId(0)), 6);
    }
}
