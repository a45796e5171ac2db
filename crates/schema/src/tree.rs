//! Arena-backed schema trees (Def. 1 of the paper, restricted to trees).

use crate::error::{Result, SchemaError};
use crate::node::{NodeId, SchemaNode};
use crate::parser::MAX_TREE_DEPTH;
use crate::path::NodePath;
use serde::{Deserialize, Serialize};

/// Internal per-node bookkeeping of the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct NodeSlot {
    data: SchemaNode,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    depth: u32,
}

/// A rooted, ordered, labelled tree representing one XML schema.
///
/// This is the `PS = (N, E, I, H)` structure of Def. 1: nodes live in an arena indexed
/// by [`NodeId`]; edges are represented implicitly by the parent/children links (the
/// incidence function `I`); node properties (`H`) live in [`SchemaNode`].
///
/// Trees are append-only: nodes can be added but not removed, which keeps `NodeId`s
/// stable and dense — a property the repository indexes and the node labelling rely on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaTree {
    /// Human readable name of the schema (file name, generated name, …).
    name: String,
    slots: Vec<NodeSlot>,
    root: Option<NodeId>,
}

impl SchemaTree {
    /// Create an empty tree with the given schema name.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaTree {
            name: name.into(),
            slots: Vec::new(),
            root: None,
        }
    }

    /// The schema's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the schema.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of edges (`|E|`); for a tree this is `len() - 1`.
    pub fn edge_count(&self) -> usize {
        self.slots.len().saturating_sub(1)
    }

    /// The root node id, if the tree is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Add the root node. Fails if a root already exists.
    pub fn add_root(&mut self, node: SchemaNode) -> Result<NodeId> {
        if self.root.is_some() {
            return Err(SchemaError::MultipleRoots);
        }
        let id = NodeId::from_index(self.slots.len());
        self.slots.push(NodeSlot {
            data: node,
            parent: None,
            children: Vec::new(),
            depth: 0,
        });
        self.root = Some(id);
        Ok(id)
    }

    /// Rebuild a tree from a parent table in one pass: `parents[i]` is the
    /// parent slot of node `i` (`None` for the root), and a parent must
    /// precede its children. Children keep slot order, which is insertion
    /// order — the exact shape a sequence of [`SchemaTree::add_root`] /
    /// [`SchemaTree::add_child`] calls produces, validated the same way
    /// ([`SchemaError::UnknownNode`] for a parent at or after its child,
    /// [`SchemaError::MultipleRoots`] for a second root,
    /// [`SchemaError::TooDeep`] past [`MAX_TREE_DEPTH`]) but without the
    /// per-node slot growth — bulk callers (snapshot load) allocate each
    /// child list exactly once.
    pub fn from_parent_table(
        name: impl Into<String>,
        nodes: Vec<SchemaNode>,
        parents: &[Option<NodeId>],
    ) -> Result<Self> {
        if nodes.len() != parents.len() {
            return Err(SchemaError::UnknownNode(parents.len() as u32));
        }
        let mut child_counts = vec![0u32; nodes.len()];
        let mut root = None;
        for (i, parent) in parents.iter().enumerate() {
            match parent {
                None => {
                    if root.is_some() {
                        return Err(SchemaError::MultipleRoots);
                    }
                    root = Some(NodeId::from_index(i));
                }
                // `parent < i` also forces slot 0 to be the root, so `depth`
                // and `children` fill in a single forward pass below.
                Some(p) if p.index() < i => child_counts[p.index()] += 1,
                Some(p) => return Err(SchemaError::UnknownNode(p.0)),
            }
        }
        let mut slots: Vec<NodeSlot> = nodes
            .into_iter()
            .zip(parents)
            .enumerate()
            .map(|(i, (data, &parent))| NodeSlot {
                data,
                parent,
                children: Vec::with_capacity(child_counts[i] as usize),
                depth: 0,
            })
            .collect();
        for i in 0..slots.len() {
            if let Some(p) = slots[i].parent {
                let depth = slots[p.index()].depth + 1;
                if depth > MAX_TREE_DEPTH {
                    return Err(SchemaError::TooDeep {
                        limit: MAX_TREE_DEPTH,
                    });
                }
                slots[i].depth = depth;
                slots[p.index()].children.push(NodeId::from_index(i));
            }
        }
        Ok(SchemaTree {
            name: name.into(),
            slots,
            root,
        })
    }

    /// Add a child of `parent`. Children are ordered by insertion. Fails with
    /// [`SchemaError::TooDeep`] if the child would sit deeper than
    /// [`MAX_TREE_DEPTH`].
    pub fn add_child(&mut self, parent: NodeId, node: SchemaNode) -> Result<NodeId> {
        let parent_depth = self
            .slots
            .get(parent.index())
            .ok_or(SchemaError::UnknownNode(parent.0))?
            .depth;
        if parent_depth >= MAX_TREE_DEPTH {
            return Err(SchemaError::TooDeep {
                limit: MAX_TREE_DEPTH,
            });
        }
        let id = NodeId::from_index(self.slots.len());
        self.slots.push(NodeSlot {
            data: node,
            parent: Some(parent),
            children: Vec::new(),
            depth: parent_depth + 1,
        });
        self.slots[parent.index()].children.push(id);
        Ok(id)
    }

    /// Immutable access to a node's data.
    pub fn node(&self, id: NodeId) -> Option<&SchemaNode> {
        self.slots.get(id.index()).map(|s| &s.data)
    }

    /// Mutable access to a node's data.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut SchemaNode> {
        self.slots.get_mut(id.index()).map(|s| &mut s.data)
    }

    /// Panic-free name lookup; returns `""` for unknown nodes.
    pub fn name_of(&self, id: NodeId) -> &str {
        self.node(id).map(|n| n.name.as_str()).unwrap_or("")
    }

    /// Parent of a node (`None` for the root or unknown nodes).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.slots.get(id.index()).and_then(|s| s.parent)
    }

    /// Children of a node, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.slots
            .get(id.index())
            .map(|s| s.children.as_slice())
            .unwrap_or(&[])
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, id: NodeId) -> u32 {
        self.slots.get(id.index()).map(|s| s.depth).unwrap_or(0)
    }

    /// True when `id` has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.children(id).is_empty()
    }

    /// Iterator over all node ids in insertion (pre-order for built trees) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots.len()).map(NodeId::from_index)
    }

    /// Iterator over `(NodeId, &SchemaNode)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &SchemaNode)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId::from_index(i), &s.data))
    }

    /// Pre-order traversal starting from the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let Some(root) = self.root else {
            return order;
        };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            order.push(id);
            // Push children in reverse so they pop in document order.
            for &c in self.children(id).iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Post-order traversal starting from the root.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let Some(root) = self.root else {
            return order;
        };
        // Iterative post-order: reverse of (node, children-reversed) pre-order.
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            order.push(id);
            for &c in self.children(id) {
                stack.push(c);
            }
        }
        order.reverse();
        order
    }

    /// Ancestor chain from `id` (inclusive) up to the root (inclusive).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if self.slots.get(c.index()).is_none() {
                break;
            }
            chain.push(c);
            cur = self.parent(c);
        }
        chain
    }

    /// Lowest common ancestor of two nodes, computed by walking up the deeper node.
    ///
    /// This is the reference implementation; [`crate::labeling::TreeLabeling`] answers
    /// the same from flat labels, climbing only the shallower node.
    pub fn lca(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        if self.slots.get(a.index()).is_none() || self.slots.get(b.index()).is_none() {
            return None;
        }
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a)?;
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b)?;
        }
        while a != b {
            a = self.parent(a)?;
            b = self.parent(b)?;
        }
        Some(a)
    }

    /// Tree (path-length) distance between two nodes: the number of edges on the
    /// unique path connecting them.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let l = self.lca(a, b)?;
        Some(self.depth(a) + self.depth(b) - 2 * self.depth(l))
    }

    /// The unique path between two nodes as a [`NodePath`].
    pub fn path_between(&self, a: NodeId, b: NodeId) -> Option<NodePath> {
        let l = self.lca(a, b)?;
        let mut up = Vec::new();
        let mut cur = a;
        while cur != l {
            up.push(cur);
            cur = self.parent(cur)?;
        }
        up.push(l);
        let mut down = Vec::new();
        let mut cur = b;
        while cur != l {
            down.push(cur);
            cur = self.parent(cur)?;
        }
        down.reverse();
        up.extend(down);
        Some(NodePath::new(up))
    }

    /// The root-to-node path, expressed as a slash separated string of names
    /// (e.g. `/lib/book/title`). Useful for debugging and for the examples.
    pub fn absolute_path(&self, id: NodeId) -> String {
        let mut chain = self.ancestors(id);
        chain.reverse();
        let mut s = String::new();
        for n in chain {
            s.push('/');
            s.push_str(self.name_of(n));
        }
        if s.is_empty() {
            s.push('/');
        }
        s
    }

    /// Find the first node (in pre-order) whose name equals `name`.
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.preorder()
            .into_iter()
            .find(|&id| self.name_of(id) == name)
    }

    /// All nodes whose name equals `name`, in pre-order.
    pub fn find_all_by_name(&self, name: &str) -> Vec<NodeId> {
        self.preorder()
            .into_iter()
            .filter(|&id| self.name_of(id) == name)
            .collect()
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        self.node_ids().filter(|&id| self.is_leaf(id)).count()
    }

    /// Maximum depth over all nodes (0 for a single-node tree, 0 for an empty tree).
    pub fn max_depth(&self) -> u32 {
        self.slots.iter().map(|s| s.depth).max().unwrap_or(0)
    }

    /// Validates structural invariants (acyclicity by construction, depth consistency,
    /// parent/child symmetry). Intended for tests and debug assertions.
    pub fn validate(&self) -> Result<()> {
        if self.slots.is_empty() {
            return Ok(());
        }
        let root = self.root.ok_or(SchemaError::EmptyTree)?;
        if self.slots[root.index()].parent.is_some() {
            return Err(SchemaError::WouldCycle);
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let id = NodeId::from_index(i);
            if let Some(p) = slot.parent {
                let pslot = self
                    .slots
                    .get(p.index())
                    .ok_or(SchemaError::UnknownNode(p.0))?;
                if !pslot.children.contains(&id) {
                    return Err(SchemaError::UnknownNode(id.0));
                }
                if slot.depth != pslot.depth + 1 {
                    return Err(SchemaError::WouldCycle);
                }
            } else if id != root {
                return Err(SchemaError::MultipleRoots);
            }
            for &c in &slot.children {
                let cslot = self
                    .slots
                    .get(c.index())
                    .ok_or(SchemaError::UnknownNode(c.0))?;
                if cslot.parent != Some(id) {
                    return Err(SchemaError::UnknownNode(c.0));
                }
            }
        }
        // Reachability: every node must be reachable from the root.
        if self.preorder().len() != self.slots.len() {
            return Err(SchemaError::WouldCycle);
        }
        Ok(())
    }
}

/// Fluent builder for hand-constructing small schema trees (used heavily in tests,
/// examples and the synthetic corpus generator).
///
/// ```
/// use xsm_schema::{TreeBuilder, SchemaNode};
///
/// let tree = TreeBuilder::new("personal")
///     .root(SchemaNode::element("book"))
///     .child(SchemaNode::element("title"))
///     .sibling(SchemaNode::element("author"))
///     .build();
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.name_of(tree.root().unwrap()), "book");
/// ```
#[derive(Debug, Clone)]
pub struct TreeBuilder {
    tree: SchemaTree,
    /// Stack of "open" nodes; the last entry is the current insertion parent.
    cursor: Vec<NodeId>,
    /// The most recently inserted node (target of `sibling` / `up`).
    last: Option<NodeId>,
}

impl TreeBuilder {
    /// Start building a schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TreeBuilder {
            tree: SchemaTree::new(name),
            cursor: Vec::new(),
            last: None,
        }
    }

    /// Set the root node. Must be called exactly once and first.
    pub fn root(mut self, node: SchemaNode) -> Self {
        let id = self
            .tree
            .add_root(node)
            .expect("TreeBuilder::root called twice");
        self.cursor.push(id);
        self.last = Some(id);
        self
    }

    /// Add a child of the most recently inserted node and descend into it.
    pub fn child(mut self, node: SchemaNode) -> Self {
        let parent = self.last.expect("TreeBuilder::child before root");
        let id = self
            .tree
            .add_child(parent, node)
            .expect("a parent within the depth limit");
        self.cursor.push(parent);
        self.last = Some(id);
        self
    }

    /// Add a sibling of the most recently inserted node (a child of the current parent).
    pub fn sibling(mut self, node: SchemaNode) -> Self {
        let parent = *self
            .cursor
            .last()
            .expect("TreeBuilder::sibling before child");
        let id = self.tree.add_child(parent, node).expect("valid parent");
        self.last = Some(id);
        self
    }

    /// Move the insertion point one level up (the next `sibling` attaches to the
    /// grandparent of the last inserted node).
    pub fn up(mut self) -> Self {
        self.last = self.cursor.pop();
        self
    }

    /// Finish building and return the tree.
    pub fn build(self) -> SchemaTree {
        debug_assert!(self.tree.validate().is_ok());
        self.tree
    }
}

/// Construct the running-example *personal schema* `s` of Fig. 1:
/// `book(title, author)`.
pub fn paper_personal_schema() -> SchemaTree {
    TreeBuilder::new("personal:book")
        .root(SchemaNode::element("book"))
        .child(SchemaNode::element("title"))
        .sibling(SchemaNode::element("author"))
        .build()
}

/// Construct the running-example *repository fragment* `R` of Fig. 1:
/// `lib(book(data(title, authorName), shelf), address)`.
pub fn paper_repository_fragment() -> SchemaTree {
    TreeBuilder::new("repo:lib")
        .root(SchemaNode::element("lib"))
        .child(SchemaNode::element("book"))
        .child(SchemaNode::element("data"))
        .child(SchemaNode::element("title"))
        .sibling(SchemaNode::element("authorName"))
        .up()
        .sibling(SchemaNode::element("shelf"))
        .up()
        .sibling(SchemaNode::element("address"))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn fig1_repo() -> SchemaTree {
        paper_repository_fragment()
    }

    #[test]
    fn empty_tree_properties() {
        let t = SchemaTree::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.edge_count(), 0);
        assert!(t.root().is_none());
        assert_eq!(t.preorder(), Vec::<NodeId>::new());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn add_root_twice_fails() {
        let mut t = SchemaTree::new("x");
        t.add_root(SchemaNode::element("a")).unwrap();
        assert_eq!(
            t.add_root(SchemaNode::element("b")),
            Err(SchemaError::MultipleRoots)
        );
    }

    #[test]
    fn add_child_unknown_parent_fails() {
        let mut t = SchemaTree::new("x");
        t.add_root(SchemaNode::element("a")).unwrap();
        assert_eq!(
            t.add_child(NodeId(99), SchemaNode::element("b")),
            Err(SchemaError::UnknownNode(99))
        );
    }

    #[test]
    fn add_child_refuses_a_node_past_the_depth_limit() {
        let mut t = SchemaTree::new("chain");
        let mut last = t.add_root(SchemaNode::element("n0")).unwrap();
        for i in 1..=MAX_TREE_DEPTH {
            last = t
                .add_child(last, SchemaNode::element(format!("n{i}")))
                .unwrap();
        }
        assert_eq!(t.depth(last), 1024);
        assert_eq!(
            t.add_child(last, SchemaNode::element("deeper")),
            Err(SchemaError::TooDeep { limit: 1024 })
        );
        assert_eq!(t.len(), 1025, "the refused node is not added");
    }

    #[test]
    fn from_parent_table_refuses_a_node_past_the_depth_limit() {
        let chain = |nodes: u32| {
            let parents: Vec<Option<NodeId>> =
                (0..nodes).map(|i| i.checked_sub(1).map(NodeId)).collect();
            let names = (0..nodes).map(|i| SchemaNode::element(format!("n{i}")));
            SchemaTree::from_parent_table("chain", names.collect(), &parents)
        };
        assert_eq!(chain(1025).unwrap().max_depth(), 1024);
        assert_eq!(
            chain(1026).unwrap_err(),
            SchemaError::TooDeep { limit: 1024 }
        );
    }

    #[test]
    fn fig1_repository_structure() {
        let t = fig1_repo();
        assert_eq!(t.len(), 7);
        assert_eq!(t.edge_count(), 6);
        let root = t.root().unwrap();
        assert_eq!(t.name_of(root), "lib");
        assert_eq!(t.children(root).len(), 2); // book, address
        let book = t.find_by_name("book").unwrap();
        assert_eq!(t.depth(book), 1);
        let title = t.find_by_name("title").unwrap();
        assert_eq!(t.depth(title), 3);
        assert_eq!(t.absolute_path(title), "/lib/book/data/title");
        assert!(t.validate().is_ok());
    }

    #[test]
    fn preorder_and_postorder_cover_all_nodes() {
        let t = fig1_repo();
        let pre = t.preorder();
        let post = t.postorder();
        assert_eq!(pre.len(), t.len());
        assert_eq!(post.len(), t.len());
        // Root first in pre-order, last in post-order.
        assert_eq!(pre[0], t.root().unwrap());
        assert_eq!(*post.last().unwrap(), t.root().unwrap());
        // Pre-order respects document order of children.
        assert_eq!(t.name_of(pre[1]), "book");
    }

    #[test]
    fn lca_and_distance_match_paper_example() {
        let t = fig1_repo();
        let title = t.find_by_name("title").unwrap();
        let author = t.find_by_name("authorName").unwrap();
        let shelf = t.find_by_name("shelf").unwrap();
        let address = t.find_by_name("address").unwrap();
        let data = t.find_by_name("data").unwrap();
        let lib = t.root().unwrap();

        assert_eq!(t.lca(title, author), Some(data));
        assert_eq!(t.distance(title, author), Some(2));
        assert_eq!(t.lca(title, address), Some(lib));
        assert_eq!(t.distance(title, address), Some(4));
        assert_eq!(t.distance(shelf, shelf), Some(0));
        assert_eq!(t.distance(lib, title), Some(3));
    }

    #[test]
    fn path_between_produces_connected_path() {
        let t = fig1_repo();
        let title = t.find_by_name("title").unwrap();
        let shelf = t.find_by_name("shelf").unwrap();
        let p = t.path_between(title, shelf).unwrap();
        // title - data - book - shelf
        assert_eq!(p.len_edges(), 3);
        assert_eq!(p.endpoints(), Some((title, shelf)));
        let names: Vec<_> = p.nodes().iter().map(|&n| t.name_of(n)).collect();
        assert_eq!(names, vec!["title", "data", "book", "shelf"]);
    }

    #[test]
    fn ancestors_from_leaf_to_root() {
        let t = fig1_repo();
        let title = t.find_by_name("title").unwrap();
        let chain: Vec<_> = t
            .ancestors(title)
            .iter()
            .map(|&n| t.name_of(n).to_string())
            .collect();
        assert_eq!(chain, vec!["title", "data", "book", "lib"]);
    }

    #[test]
    fn find_all_by_name_returns_every_occurrence() {
        let mut t = fig1_repo();
        let book = t.find_by_name("book").unwrap();
        t.add_child(book, SchemaNode::element("title")).unwrap();
        assert_eq!(t.find_all_by_name("title").len(), 2);
        assert_eq!(t.find_all_by_name("nonexistent").len(), 0);
    }

    #[test]
    fn leaf_count_and_max_depth() {
        let t = fig1_repo();
        // Leaves: title, authorName, shelf, address.
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn builder_up_navigates_correctly() {
        let t = paper_repository_fragment();
        let address = t.find_by_name("address").unwrap();
        assert_eq!(t.depth(address), 1);
        let shelf = t.find_by_name("shelf").unwrap();
        assert_eq!(t.depth(shelf), 2);
    }

    #[test]
    fn personal_schema_has_expected_shape() {
        let s = paper_personal_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.edge_count(), 2);
        let root = s.root().unwrap();
        assert_eq!(s.node(root).unwrap().kind, NodeKind::Element);
        assert_eq!(s.children(root).len(), 2);
    }

    #[test]
    fn node_mut_allows_updates() {
        let mut t = paper_personal_schema();
        let root = t.root().unwrap();
        t.node_mut(root).unwrap().set_property("doc", "a book");
        assert_eq!(t.node(root).unwrap().property("doc"), Some("a book"));
        assert!(t.node_mut(NodeId(77)).is_none());
    }

    #[test]
    fn distance_unknown_node_is_none() {
        let t = paper_personal_schema();
        assert_eq!(t.distance(NodeId(0), NodeId(55)), None);
        assert_eq!(t.lca(NodeId(55), NodeId(0)), None);
    }

    #[test]
    fn absolute_path_of_root() {
        let t = paper_personal_schema();
        assert_eq!(t.absolute_path(t.root().unwrap()), "/book");
    }
}
