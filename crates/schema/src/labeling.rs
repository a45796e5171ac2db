//! Node labelling for tree-distance queries.
//!
//! The paper (Sec. 4, "Distance measure") notes that distances are computed very often
//! during k-means clustering and that Bellflower "uses node labeling techniques
//! \[Kaplan & Milo\] to provide low-cost computation of path lengths". We keep four
//! flat labels per node — its parent, its depth and the `[pre, post]` interval of
//! pre-order ranks its subtree covers — built in linear time from the tree's slots.
//! The interval answers "is `a` an ancestor of `b`" with two comparisons, so the
//! lowest common ancestor of two nodes is found by climbing one of them until its
//! interval holds the other: at most [`MAX_TREE_DEPTH`] steps, and in practice the
//! few between the shallower node and the ancestor.
//!
//! [`MAX_TREE_DEPTH`]: crate::parser::MAX_TREE_DEPTH

use crate::node::NodeId;
use crate::tree::SchemaTree;

/// The root's parent.
const NONE: u32 = u32::MAX;

/// Precomputed labels for one [`SchemaTree`].
#[derive(Debug, Clone)]
pub struct TreeLabeling {
    /// parent[node] — its parent's slot, [`NONE`] at the root.
    parent: Vec<u32>,
    /// depth[node] — number of edges from the root.
    depth: Vec<u32>,
    /// pre[node] — its pre-order rank.
    pre: Vec<u32>,
    /// post[node] — the last pre-order rank in its subtree.
    post: Vec<u32>,
}

impl TreeLabeling {
    /// Build the labelling for a tree. Empty trees produce an empty labelling whose
    /// queries all return `None`.
    ///
    /// A parent's slot always precedes its children's, so no traversal is needed:
    /// depths are copied forward, subtree sizes add up backward, and pre-order ranks
    /// are handed out forward, each parent numbering its children in order.
    pub fn build(tree: &SchemaTree) -> Self {
        let parent: Vec<u32> = tree
            .node_ids()
            .map(|id| tree.parent(id).map_or(NONE, |p| p.0))
            .collect();
        let depth = tree.node_ids().map(|id| tree.depth(id)).collect();
        // Subtree sizes first; `post` becomes the last rank below.
        let mut post = vec![1u32; parent.len()];
        for (slot, &p) in parent.iter().enumerate().rev() {
            if p != NONE {
                post[p as usize] += post[slot];
            }
        }
        let mut pre = vec![0u32; parent.len()];
        for id in tree.node_ids() {
            let mut next = pre[id.index()] + 1;
            for &child in tree.children(id) {
                pre[child.index()] = next;
                next += post[child.index()];
            }
        }
        for (last, &first) in post.iter_mut().zip(&pre) {
            *last = first + *last - 1;
        }
        TreeLabeling {
            parent,
            depth,
            pre,
            post,
        }
    }

    /// Number of nodes covered by this labelling.
    pub fn len(&self) -> usize {
        self.depth.len()
    }

    /// True when the labelling covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.depth.is_empty()
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: NodeId) -> Option<u32> {
        self.depth.get(id.index()).copied()
    }

    /// Depth of the lowest common ancestor of two nodes; `None` for a node past the
    /// labelling.
    #[inline]
    pub fn lca_depth(&self, a: NodeId, b: NodeId) -> Option<u32> {
        Some(self.depth[self.lca(a, b)?])
    }

    /// Path length (number of edges) between two nodes; `None` for a node past the
    /// labelling.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let lca_depth = self.lca_depth(a, b)?;
        Some(self.depth[a.index()] + self.depth[b.index()] - 2 * lca_depth)
    }

    /// Pre-order rank of a node: sorting nodes by it sorts them in pre-order.
    pub fn preorder_rank(&self, id: NodeId) -> Option<u32> {
        self.pre.get(id.index()).copied()
    }

    /// The slot of the two nodes' lowest common ancestor: the shallower node
    /// climbs until its subtree holds the other. The root's subtree holds every
    /// node, so the climb ends there at the latest.
    #[inline]
    fn lca(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let (da, db) = (self.depth(a)?, self.depth(b)?);
        let (mut up, other) = if da <= db { (a, b) } else { (b, a) };
        let at = self.pre[other.index()];
        while !self.holds(up.index(), at) {
            up = NodeId(self.parent[up.index()]);
        }
        Some(up.index())
    }

    /// Whether the subtree of `slot` holds the node of pre-order rank `rank`.
    #[inline]
    fn holds(&self, slot: usize, rank: u32) -> bool {
        self.pre[slot] <= rank && rank <= self.post[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SchemaNode;
    use crate::tree::{paper_repository_fragment, SchemaTree, TreeBuilder};

    fn labeled_fig1() -> (SchemaTree, TreeLabeling) {
        let t = paper_repository_fragment();
        let l = TreeLabeling::build(&t);
        (t, l)
    }

    /// Whether `ancestor` is an ancestor of (or equal to) `node`.
    fn is_ancestor(l: &TreeLabeling, ancestor: NodeId, node: NodeId) -> bool {
        l.holds(ancestor.index(), l.pre[node.index()])
    }

    fn subtree_size(l: &TreeLabeling, id: NodeId) -> u32 {
        l.post[id.index()] - l.pre[id.index()] + 1
    }

    #[test]
    fn empty_tree_labeling() {
        let t = SchemaTree::new("empty");
        let l = TreeLabeling::build(&t);
        assert!(l.is_empty());
        assert_eq!(l.distance(NodeId(0), NodeId(1)), None);
        assert_eq!(l.lca_depth(NodeId(0), NodeId(0)), None);
        assert_eq!(l.preorder_rank(NodeId(0)), None);
    }

    /// A tree of `n` nodes from a seeded xorshift, each node hung under one of
    /// the `reach` nodes before it: chains for a small reach, bushes for a large.
    fn seeded_tree(seed: u64, n: usize, reach: usize) -> SchemaTree {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = SchemaTree::new("random");
        let mut ids = vec![t.add_root(SchemaNode::element("r")).unwrap()];
        for i in 1..n {
            let back = (next() % reach.min(ids.len()) as u64) as usize;
            let parent = ids[ids.len() - 1 - back];
            ids.push(
                t.add_child(parent, SchemaNode::element(format!("n{i}")))
                    .unwrap(),
            );
        }
        t
    }

    #[test]
    fn seeded_random_trees_agree_with_the_tree() {
        for seed in 1..=40u64 {
            let n = [1, 2, 3, 9, 17, 33, 64, 65, 129, 300][seed as usize % 10];
            let reach = [1, 2, 4, 16, 1000][seed as usize % 5];
            let t = seeded_tree(seed, n, reach);
            let l = TreeLabeling::build(&t);
            // Every pair, and an id past the labelling on either side.
            let ids: Vec<NodeId> = (0..n as u32 + 1).map(NodeId).collect();
            for &a in &ids {
                for &b in &ids {
                    assert_eq!(l.distance(a, b), t.distance(a, b), "seed {seed} d({a},{b})");
                    let naive = t.lca(a, b);
                    assert_eq!(
                        l.lca(a, b),
                        naive.map(NodeId::index),
                        "seed {seed} lca({a},{b})"
                    );
                    assert_eq!(
                        l.lca_depth(a, b),
                        naive.map(|c| t.depth(c)),
                        "seed {seed} lca_depth({a},{b})"
                    );
                }
            }
            let outside = NodeId(n as u32);
            assert_eq!(l.preorder_rank(outside), None);
            assert_eq!(l.depth(outside), None);
            let mut by_rank: Vec<NodeId> = ids[..n].to_vec();
            by_rank.sort_by_key(|&id| l.preorder_rank(id).expect("labelled"));
            assert_eq!(by_rank, t.preorder(), "seed {seed}: pre-order");
        }
    }

    #[test]
    fn single_node_tree() {
        let t = TreeBuilder::new("one")
            .root(SchemaNode::element("only"))
            .build();
        let l = TreeLabeling::build(&t);
        let r = t.root().unwrap();
        assert_eq!(l.distance(r, r), Some(0));
        assert_eq!(l.lca(r, r), Some(r.index()));
        assert_eq!(subtree_size(&l, r), 1);
        assert!(is_ancestor(&l, r, r));
    }

    #[test]
    fn distances_agree_with_naive_tree_distance() {
        let (t, l) = labeled_fig1();
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(
                    l.distance(a, b),
                    t.distance(a, b),
                    "distance mismatch for {a},{b}"
                );
            }
        }
    }

    #[test]
    fn lca_agrees_with_naive() {
        let (t, l) = labeled_fig1();
        for a in t.node_ids() {
            for b in t.node_ids() {
                let naive = t.lca(a, b).map(NodeId::index);
                assert_eq!(l.lca(a, b), naive, "lca mismatch for {a},{b}");
            }
        }
    }

    #[test]
    fn ancestor_tests() {
        let (t, l) = labeled_fig1();
        let lib = t.root().unwrap();
        let title = t.find_by_name("title").unwrap();
        let address = t.find_by_name("address").unwrap();
        assert!(is_ancestor(&l, lib, title));
        assert!(!is_ancestor(&l, title, lib));
        assert!(!is_ancestor(&l, address, title));
        assert!(is_ancestor(&l, title, title));
    }

    #[test]
    fn subtree_sizes() {
        let (t, l) = labeled_fig1();
        let lib = t.root().unwrap();
        let book = t.find_by_name("book").unwrap();
        let data = t.find_by_name("data").unwrap();
        assert_eq!(subtree_size(&l, lib), 7);
        assert_eq!(subtree_size(&l, book), 5);
        assert_eq!(subtree_size(&l, data), 3);
    }

    #[test]
    fn distance_symmetric_and_triangle_on_random_tree() {
        // Build a deterministic "comb" tree with some branching to stress the LCA.
        let mut t = SchemaTree::new("comb");
        let root = t.add_root(SchemaNode::element("r")).unwrap();
        let mut spine = root;
        let mut all = vec![root];
        for i in 0..50 {
            let s = t
                .add_child(spine, SchemaNode::element(format!("s{i}")))
                .unwrap();
            let leaf = t
                .add_child(spine, SchemaNode::element(format!("l{i}")))
                .unwrap();
            all.push(s);
            all.push(leaf);
            spine = s;
        }
        let l = TreeLabeling::build(&t);
        for (i, &a) in all.iter().enumerate().step_by(7) {
            for &b in all.iter().skip(i).step_by(11) {
                let d_ab = l.distance(a, b).unwrap();
                let d_ba = l.distance(b, a).unwrap();
                assert_eq!(d_ab, d_ba);
                assert_eq!(l.distance(a, b), t.distance(a, b));
                for &c in all.iter().step_by(13) {
                    let d_ac = l.distance(a, c).unwrap();
                    let d_cb = l.distance(c, b).unwrap();
                    assert!(d_ab <= d_ac + d_cb, "triangle inequality violated");
                }
            }
        }
    }

    #[test]
    fn preorder_rank_is_dense_permutation() {
        let (t, l) = labeled_fig1();
        let mut ranks: Vec<u32> = t
            .node_ids()
            .map(|id| l.preorder_rank(id).unwrap())
            .collect();
        ranks.sort_unstable();
        let expected: Vec<u32> = (0..t.len() as u32).collect();
        assert_eq!(ranks, expected);
    }
}
