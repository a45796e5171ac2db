//! Node labelling for fast tree-distance queries.
//!
//! The paper (Sec. 4, "Distance measure") notes that distances are computed very often
//! during k-means clustering and that Bellflower "uses node labeling techniques
//! \[Kaplan & Milo\] to provide low-cost computation of path lengths". We implement the
//! standard Euler-tour + sparse-table LCA labelling: after an `O(n log n)` preprocessing
//! pass, the path length between any two nodes of the same tree is answered in `O(1)`.
//!
//! The labelling also exposes pre/post order intervals, which give `O(1)`
//! ancestor/descendant tests — used by the structural element matchers.

use crate::node::NodeId;
use crate::tree::SchemaTree;

/// The flat label arrays `(depth, first_occurrence, euler, pre, post)` as
/// borrowed slices — what [`TreeLabeling::raw_parts`] hands to a serializer.
pub type RawLabelParts<'a> = (&'a [u32], &'a [u32], &'a [u32], &'a [u32], &'a [u32]);

/// Precomputed labels for one [`SchemaTree`].
#[derive(Debug, Clone)]
pub struct TreeLabeling {
    /// depth[node] — number of edges from the root.
    depth: Vec<u32>,
    /// First index of each node in the Euler tour.
    first_occurrence: Vec<u32>,
    /// Euler tour of node indices.
    euler: Vec<u32>,
    /// Sparse table over the Euler tour, one flat array of levels: level `k`
    /// holds, for every window `[i, i + 2^k)` of the tour, the packed key
    /// `depth << 32 | euler_index` of its minimum-depth entry, and starts at
    /// [`row_offset`]`(m, k)` for a tour of `m` entries (each level is as long
    /// as it has windows, so nothing is padded). Packing the comparison key
    /// next to the index makes the table build a sequential branch-free `min`
    /// scan, ties break toward the lower euler index (the leftward preference
    /// of the classic formulation), and a query has its answer's depth in the
    /// key's high half and its tour position in the low half: `distance`
    /// reads no `euler` or `depth` entry for the ancestor.
    ///
    /// Built **on the first range-minimum query** (thread-safe; concurrent
    /// first calls race benignly): the depth/pre/post labels answer the
    /// ancestor tests and depth lookups that dominate many workloads, and a
    /// snapshot-loaded repository should not spend startup time on RMQ tables
    /// for trees no LCA query ever touches.
    sparse: std::sync::OnceLock<Vec<u64>>,
    /// Pre-order entry numbers (for ancestor tests).
    pre: Vec<u32>,
    /// Pre-order exit numbers (size of subtree encoded as interval end).
    post: Vec<u32>,
    node_count: usize,
}

impl TreeLabeling {
    /// Build the labelling for a tree. Empty trees produce an empty labelling whose
    /// queries all return `None`.
    pub fn build(tree: &SchemaTree) -> Self {
        let n = tree.len();
        let mut depth = vec![0u32; n];
        let mut first_occurrence = vec![u32::MAX; n];
        let mut euler = Vec::with_capacity(2 * n);
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];

        if let Some(root) = tree.root() {
            // Iterative DFS producing the Euler tour and pre/post numbers.
            #[derive(Debug)]
            enum Step {
                Enter(NodeId),
                Return(NodeId),
            }
            let mut counter = 0u32;
            let mut stack = vec![Step::Enter(root)];
            while let Some(step) = stack.pop() {
                match step {
                    Step::Enter(id) => {
                        let d = tree.depth(id);
                        depth[id.index()] = d;
                        pre[id.index()] = counter;
                        counter += 1;
                        first_occurrence[id.index()] = euler.len() as u32;
                        euler.push(id.0);
                        let children = tree.children(id);
                        // Interleave: after each child subtree, revisit the parent.
                        for &c in children.iter().rev() {
                            stack.push(Step::Return(id));
                            stack.push(Step::Enter(c));
                        }
                    }
                    Step::Return(id) => {
                        euler.push(id.0);
                    }
                }
            }
            // Post numbers: a node's interval is [pre, post]; compute by DFS sizes.
            // Since ids are appended in pre-order by the builder we can compute post
            // from the pre-order traversal directly.
            let order = tree.preorder();
            // post[v] = pre[v] + size(subtree(v)) - 1; compute sizes bottom-up.
            let mut size = vec![1u32; n];
            for &id in order.iter().rev() {
                if let Some(p) = tree.parent(id) {
                    size[p.index()] += size[id.index()];
                }
            }
            for &id in &order {
                post[id.index()] = pre[id.index()] + size[id.index()] - 1;
            }
        }

        TreeLabeling {
            depth,
            first_occurrence,
            euler,
            sparse: std::sync::OnceLock::new(),
            pre,
            post,
            node_count: n,
        }
    }

    /// The flat label arrays, in `(depth, first_occurrence, euler, pre, post)`
    /// order — everything [`TreeLabeling::from_raw_parts`] needs to reassemble
    /// the labelling without re-walking the tree. The derived sparse RMQ table
    /// is deliberately not exposed: it is lazily rebuilt on first use, so
    /// shipping it would trade file size for nothing.
    pub fn raw_parts(&self) -> RawLabelParts<'_> {
        (
            &self.depth,
            &self.first_occurrence,
            &self.euler,
            &self.pre,
            &self.post,
        )
    }

    /// Reassemble a labelling from arrays previously obtained via
    /// [`TreeLabeling::raw_parts`]; the sparse RMQ table stays lazy. The
    /// arrays must describe the same tree they were built from; this
    /// constructor trusts them (snapshot loading validates array lengths and
    /// checksums before calling it, and equivalence tests pin the behaviour).
    pub fn from_raw_parts(
        depth: Vec<u32>,
        first_occurrence: Vec<u32>,
        euler: Vec<u32>,
        pre: Vec<u32>,
        post: Vec<u32>,
    ) -> Self {
        let node_count = depth.len();
        TreeLabeling {
            depth,
            first_occurrence,
            euler,
            sparse: std::sync::OnceLock::new(),
            pre,
            post,
            node_count,
        }
    }

    /// Number of nodes covered by this labelling.
    pub fn len(&self) -> usize {
        self.node_count
    }

    /// True when the labelling covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count == 0
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: NodeId) -> Option<u32> {
        self.depth.get(id.index()).copied()
    }

    /// Lowest common ancestor in `O(1)`. `None` for a node the labelling does not
    /// cover or the tour never entered (its first occurrence is the `u32::MAX`
    /// sentinel, past the end of any tour, so the range query declines it).
    pub fn lca(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let key = self.lca_key(a, b)?;
        Some(NodeId(self.euler[(key & 0xffff_ffff) as usize]))
    }

    /// Depth of the lowest common ancestor of two nodes, in `O(1)`; `None` where
    /// [`TreeLabeling::lca`] is. Read from the range-minimum key, like
    /// [`TreeLabeling::distance`]: no lookup of the ancestor itself.
    #[inline]
    pub fn lca_depth(&self, a: NodeId, b: NodeId) -> Option<u32> {
        Some((self.lca_key(a, b)? >> 32) as u32)
    }

    /// Path length (number of edges) between two nodes, in `O(1)`; `None` where
    /// [`TreeLabeling::lca`] is.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let lca_depth = self.lca_depth(a, b)?;
        Some(self.depth[a.index()] + self.depth[b.index()] - 2 * lca_depth)
    }

    /// `true` if `ancestor` is an ancestor of (or equal to) `descendant`.
    pub fn is_ancestor(&self, ancestor: NodeId, descendant: NodeId) -> Option<bool> {
        let pa = *self.pre.get(ancestor.index())?;
        let qa = *self.post.get(ancestor.index())?;
        let pd = *self.pre.get(descendant.index())?;
        Some(pa <= pd && pd <= qa)
    }

    /// Where the Euler tour first enters a node: ascending in pre-order, so
    /// sorting nodes by it sorts them in pre-order. `None` exactly for the
    /// nodes every [`TreeLabeling::lca`] and [`TreeLabeling::distance`] query
    /// declines (not covered, or carrying the `u32::MAX` sentinel). A plain
    /// array read: no range-minimum query, no sparse table.
    pub fn tour_position(&self, id: NodeId) -> Option<u32> {
        let first = *self.first_occurrence.get(id.index())?;
        ((first as usize) < self.euler.len()).then_some(first)
    }

    /// Pre-order rank of a node.
    pub fn preorder_rank(&self, id: NodeId) -> Option<u32> {
        self.pre.get(id.index()).copied()
    }

    /// Size of the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> Option<u32> {
        let p = *self.pre.get(id.index())?;
        let q = *self.post.get(id.index())?;
        Some(q - p + 1)
    }

    /// The packed sparse-table key (`depth << 32 | euler_index`) of the two
    /// nodes' lowest common ancestor: the minimum-depth tour entry between
    /// their first occurrences.
    #[inline]
    fn lca_key(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let fa = *self.first_occurrence.get(a.index())? as usize;
        let fb = *self.first_occurrence.get(b.index())? as usize;
        let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        let m = self.euler.len();
        if hi >= m {
            return None;
        }
        let span = hi - lo + 1;
        let k = usize::BITS as usize - 1 - span.leading_zeros() as usize;
        let sparse = self
            .sparse
            .get_or_init(|| build_sparse_table(&self.euler, &self.depth));
        let row = &sparse[row_offset(m, k)..];
        Some(row[lo].min(row[hi + 1 - (1 << k)]))
    }
}

/// Where level `k` of the sparse table over a tour of `m` entries starts: level
/// `j` holds `m - 2^j + 1` windows, so the levels below `k` hold
/// `k·(m + 1) − (2^k − 1)` cells together.
#[inline]
fn row_offset(m: usize, k: usize) -> usize {
    k * (m + 1) + 1 - (1 << k)
}

/// Build the sparse table for range-minimum (by depth) queries over the Euler
/// tour, level after level into one array (see [`row_offset`]).
///
/// Cells pack `depth << 32 | euler_index`, so each level is a plain sequential
/// `min` over the previous level with no lookups into `euler`/`depth`. On ties
/// the lower euler index (the packed low bits) wins, preserving the leftward
/// preference of the classic formulation.
fn build_sparse_table(euler: &[u32], depth: &[u32]) -> Vec<u64> {
    let m = euler.len();
    if m == 0 {
        return vec![];
    }
    let levels = (usize::BITS - m.leading_zeros()) as usize;
    let mut table = Vec::with_capacity(row_offset(m, levels));
    table.extend(
        euler
            .iter()
            .enumerate()
            .map(|(i, &e)| (depth[e as usize] as u64) << 32 | i as u64),
    );
    for k in 1..levels {
        let start = table.len();
        table.resize(start + m + 1 - (1 << k), 0);
        let (done, row) = table.split_at_mut(start);
        let prev = &done[row_offset(m, k - 1)..];
        let width = 1 << (k - 1);
        for (cell, (&left, &right)) in row.iter_mut().zip(prev.iter().zip(&prev[width..])) {
            *cell = left.min(right);
        }
    }
    table
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

    #[test]
    fn empty_tree_labeling() {
        let t = SchemaTree::new("empty");
        let l = TreeLabeling::build(&t);
        assert!(l.is_empty());
        assert_eq!(l.distance(NodeId(0), NodeId(1)), None);
        assert_eq!(l.lca(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn a_node_the_tour_never_entered_has_no_lca() {
        // Node 1 is covered by the label arrays but carries the "no first
        // occurrence" sentinel, as a node unreachable from the root would.
        let l = TreeLabeling::from_raw_parts(
            vec![0, 1],
            vec![0, u32::MAX],
            vec![0],
            vec![0, 1],
            vec![0, 1],
        );
        for (a, b) in [(0, 1), (1, 0), (1, 1)] {
            assert_eq!(l.lca(NodeId(a), NodeId(b)), None);
            assert_eq!(l.distance(NodeId(a), NodeId(b)), None);
        }
        assert_eq!(l.lca(NodeId(0), NodeId(0)), Some(NodeId(0)));
        // The same holds before and after the sparse table exists.
        assert_eq!(l.lca(NodeId(0), NodeId(1)), None);
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
    fn seeded_random_trees_agree_with_the_tree_before_and_after_the_table() {
        for seed in 1..=40u64 {
            // Tours of 2n − 1 entries around and across powers of two.
            let n = [1, 2, 3, 9, 17, 33, 64, 65, 129, 300][seed as usize % 10];
            let reach = [1, 2, 4, 16, 1000][seed as usize % 5];
            let t = seeded_tree(seed, n, reach);
            // One node past the tree carries the never-entered sentinel; one id
            // past that is not covered at all. The tree knows neither.
            let built = TreeLabeling::build(&t);
            let (depth, first, euler, pre, post) = built.raw_parts();
            let extend = |v: &[u32], x: u32| v.iter().copied().chain([x]).collect();
            let l = TreeLabeling::from_raw_parts(
                extend(depth, 1),
                extend(first, u32::MAX),
                euler.to_vec(),
                extend(pre, n as u32),
                extend(post, n as u32),
            );
            let ids: Vec<NodeId> = (0..n as u32 + 2).map(NodeId).collect();
            let (sentinel, outside) = (NodeId(n as u32), NodeId(n as u32 + 1));
            let check = |a: NodeId, b: NodeId| {
                assert_eq!(l.distance(a, b), t.distance(a, b), "seed {seed} d({a},{b})");
                assert_eq!(l.lca(a, b), t.lca(a, b), "seed {seed} lca({a},{b})");
                assert_eq!(
                    l.lca_depth(a, b),
                    t.lca(a, b).map(|c| t.depth(c)),
                    "seed {seed} lca_depth({a},{b})"
                );
            };
            // Before the table: nodes off the tour are declined without building it.
            for &a in &ids {
                for b in [sentinel, outside] {
                    check(a, b);
                    check(b, a);
                }
            }
            // The tour position declines exactly those two and orders the rest
            // in pre-order, without building the table either.
            assert_eq!(l.tour_position(sentinel), None);
            assert_eq!(l.tour_position(outside), None);
            let mut by_tour: Vec<NodeId> = ids[..n].to_vec();
            by_tour.sort_by_key(|&id| l.tour_position(id).expect("on the tour"));
            assert_eq!(by_tour, t.preorder(), "seed {seed}: tour order");
            assert!(l.sparse.get().is_none(), "seed {seed}: table built early");
            for &a in &ids {
                for &b in &ids {
                    check(a, b);
                }
            }
            assert!(l.sparse.get().is_some());
            for &a in &ids {
                check(a, sentinel);
                check(sentinel, a);
            }
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
        assert_eq!(l.lca(r, r), Some(r));
        assert_eq!(l.subtree_size(r), Some(1));
        assert_eq!(l.is_ancestor(r, r), Some(true));
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
                assert_eq!(l.lca(a, b), t.lca(a, b), "lca mismatch for {a},{b}");
            }
        }
    }

    #[test]
    fn ancestor_tests() {
        let (t, l) = labeled_fig1();
        let lib = t.root().unwrap();
        let title = t.find_by_name("title").unwrap();
        let address = t.find_by_name("address").unwrap();
        assert_eq!(l.is_ancestor(lib, title), Some(true));
        assert_eq!(l.is_ancestor(title, lib), Some(false));
        assert_eq!(l.is_ancestor(address, title), Some(false));
        assert_eq!(l.is_ancestor(title, title), Some(true));
    }

    #[test]
    fn subtree_sizes() {
        let (t, l) = labeled_fig1();
        let lib = t.root().unwrap();
        let book = t.find_by_name("book").unwrap();
        let data = t.find_by_name("data").unwrap();
        assert_eq!(l.subtree_size(lib), Some(7));
        assert_eq!(l.subtree_size(book), Some(5));
        assert_eq!(l.subtree_size(data), Some(3));
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
