//! Path lengths for the k-means kernel: one virtual tree per clustered tree.
//!
//! "In Bellflower, the distance measure distance(n′,m′) is the actual tree distance
//! (i.e., path length) between the centroid node n′ and the mapping element m′. …
//! Bellflower uses node labeling techniques to provide low-cost computation of path
//! lengths."
//!
//! The kernel needs path lengths in two bulk shapes — every slot to its nearest
//! centroid (Algorithm 1, lines 3–8) and every member to all members of its cluster
//! (the medoid, line 9) — and asking the labelling pair by pair costs `n · c` and
//! `m²` queries per pass. [`SlotPaths`] instead asks it about `n` times per tree,
//! once per query: it builds the tree's **virtual tree** — the tree's slots (every
//! seed and every medoid is one), plus the lowest common ancestor of every two that
//! are neighbours in pre-order, with edges weighted by depth difference. That vertex
//! set is closed under LCA, so a path length between two vertices in the virtual
//! tree *is* their path length in the schema tree, and both bulk shapes become
//! linear sweeps over it:
//!
//! * **nearest centroid** — a two-sweep multi-source search over
//!   `(distance, centroid index)` keys, compared lexicographically, which is exactly
//!   "strictly nearer wins, ties to the smaller centroid";
//! * **medoid** — subtree member counts and distance sums swept up, then rerooted
//!   down (`S(v) = S(p) + len · (M − 2 · cnt(v))`), argmin over members of
//!   `(sum, slot)`.
//!
//! A node the labelling declines is no vertex: it reaches nothing and attracts
//! nothing, just as every labelling query about it returns `None`.

use xsm_schema::{NodeId, TreeLabeling};

use crate::centroid::{medoid_of, medoid_stride};

/// No vertex (a point the labelling declines), and no parent (the root).
const NONE: u32 = u32::MAX;

/// A nearest-centroid key nothing reached.
const UNREACHED: u64 = u64::MAX;

/// The path lengths among one tree's points — its slots — as the kernel asks for
/// them, over buffers kept from tree to tree.
///
/// Vertices are numbered in the order the construction finishes them: children
/// before parents, the root last. So an upward sweep is a forward loop, a downward
/// sweep a backward one, and the subtree of `v` is the range `first[v]..=v`.
#[derive(Default)]
pub(crate) struct SlotPaths<'a> {
    labeling: Option<&'a TreeLabeling>,
    /// Labelling queries (LCAs and distances) asked since the last `take_queries`.
    queries: usize,
    /// Point → its vertex, or `NONE`.
    vertex: Vec<u32>,
    /// Vertex → its parent (`NONE` at the root), the length of the edge up to it
    /// (0 at the root), and the first vertex of its subtree.
    parent: Vec<u32>,
    len: Vec<u32>,
    first: Vec<u32>,
    /// Construction scratch: the labelled points as `(pre-order rank, point, node)`;
    /// per vertex in creation order its depth and parent; the stack of the
    /// rightmost path; the creation indexes in finishing order, and the inverse.
    order: Vec<(u32, u32, NodeId)>,
    depth: Vec<u32>,
    up: Vec<u32>,
    stack: Vec<u32>,
    finished: Vec<u32>,
    position: Vec<u32>,
    /// Sweep buffers, one cell per vertex.
    key: Vec<u64>,
    count: Vec<u32>,
    sum: Vec<u64>,
}

impl<'a> SlotPaths<'a> {
    /// Build the virtual tree over `points` (the tree's slots) under the tree's
    /// labelling — none: every point is declined. One LCA query per labelled point
    /// after the first. A repeated point gets a vertex of its own, a zero-length
    /// edge below the first.
    pub(crate) fn build(
        &mut self,
        labeling: Option<&'a TreeLabeling>,
        points: impl Iterator<Item = NodeId>,
    ) {
        self.labeling = labeling;
        self.vertex.clear();
        self.order.clear();
        for (point, node) in points.enumerate() {
            self.vertex.push(NONE);
            if let Some(at) = labeling.and_then(|l| l.preorder_rank(node)) {
                self.order.push((at, point as u32, node));
            }
        }
        for buffer in [&mut self.parent, &mut self.len, &mut self.first] {
            buffer.clear();
        }
        self.key.clear();
        let Some(labeling) = labeling else {
            return;
        };
        // Slots ascend by node id, which is pre-order for most trees: nearly sorted.
        self.order.sort_unstable();

        // The classic stack construction over pre-order neighbours. The stack
        // holds the rightmost path of what is built so far — every vertex on it
        // an ancestor of the previous point, which is its top — and a vertex
        // leaves it finished, with its parent known. Ancestors of one node differ
        // in depth, so the LCA's depth alone says where it sits on that path.
        self.depth.clear();
        self.up.clear();
        self.stack.clear();
        self.finished.clear();
        let order = std::mem::take(&mut self.order);
        let mut previous = None;
        for &(_, point, node) in &order {
            if let Some(seen) = previous {
                self.queries += 1;
                let lca_depth = labeling
                    .lca_depth(seen, node)
                    .expect("both nodes are labelled");
                while let [.., below, top] = self.stack[..] {
                    if self.depth[below as usize] < lca_depth {
                        break;
                    }
                    self.finish(top, below);
                }
                let top = *self.stack.last().expect("the root stays");
                if self.depth[top as usize] != lca_depth {
                    let joint = self.add(lca_depth);
                    self.finish(top, joint);
                    self.stack.push(joint);
                }
            }
            previous = Some(node);
            let depth = labeling.depth(node).expect("a labelled node has a depth");
            let v = self.add(depth);
            self.stack.push(v);
            self.vertex[point as usize] = v;
        }
        self.order = order;
        while let Some(top) = self.stack.last().copied() {
            let below = self
                .stack
                .len()
                .checked_sub(2)
                .map_or(NONE, |i| self.stack[i]);
            self.finish(top, below);
        }

        // Renumber in finishing order.
        let count = self.finished.len();
        self.position.clear();
        self.position.resize(count, 0);
        for (at, &v) in self.finished.iter().enumerate() {
            self.position[v as usize] = at as u32;
        }
        for &v in &self.finished {
            let up = self.up[v as usize];
            let (parent, len) = match up {
                NONE => (NONE, 0),
                up => (
                    self.position[up as usize],
                    self.depth[v as usize] - self.depth[up as usize],
                ),
            };
            self.parent.push(parent);
            self.len.push(len);
        }
        self.first.extend(0..count as u32);
        for v in 0..count.saturating_sub(1) {
            let p = self.parent[v] as usize;
            self.first[p] = self.first[p].min(self.first[v]);
        }
        for vertex in &mut self.vertex {
            if *vertex != NONE {
                *vertex = self.position[*vertex as usize];
            }
        }
        self.key.resize(count, 0);
        self.count.resize(count, 0);
        self.sum.resize(count, 0);
    }

    /// A new vertex in creation order.
    fn add(&mut self, depth: u32) -> u32 {
        self.depth.push(depth);
        self.up.push(NONE);
        (self.depth.len() - 1) as u32
    }

    /// Pop `v` off the stack, finished, under `parent`.
    fn finish(&mut self, v: u32, parent: u32) {
        self.stack.pop();
        self.up[v as usize] = parent;
        self.finished.push(v);
    }

    /// The vertex of a point, or `NONE` for one the labelling declines.
    #[cfg(test)]
    pub(crate) fn vertex(&self, point: usize) -> u32 {
        self.vertex[point]
    }

    /// How many labelling queries were asked since the last call.
    pub(crate) fn take_queries(&mut self) -> usize {
        std::mem::take(&mut self.queries)
    }

    /// Run the nearest-centroid sweeps for `sources`, the centroids' points in
    /// index order (a declined one attracts nothing); [`SlotPaths::nearest`] then
    /// answers for every point. Each vertex ends with its nearest source's key
    /// `distance << 32 | index`: the smallest, so ties go to the smaller index.
    pub(crate) fn spread(&mut self, sources: impl Iterator<Item = usize>) {
        let key = &mut self.key[..];
        key.fill(UNREACHED);
        for (index, point) in sources.enumerate() {
            let v = self.vertex[point];
            if v != NONE {
                let cell = &mut key[v as usize];
                *cell = (*cell).min(index as u64);
            }
        }
        let stretch = |key: u64, len: u32| match key {
            UNREACHED => UNREACHED,
            key => key + (u64::from(len) << 32),
        };
        // Up: the nearest source within each subtree. Down: or through the parent.
        let edges = key.len().saturating_sub(1);
        for v in 0..edges {
            let up = stretch(key[v], self.len[v]);
            let p = self.parent[v] as usize;
            key[p] = key[p].min(up);
        }
        for v in (0..edges).rev() {
            let down = stretch(key[self.parent[v] as usize], self.len[v]);
            key[v] = key[v].min(down);
        }
    }

    /// The nearest source of a point after [`SlotPaths::spread`], as `(distance,
    /// index)`; `None` when the point is declined or no source is a vertex.
    pub(crate) fn nearest(&self, point: usize) -> Option<(u32, u32)> {
        let v = self.vertex[point];
        let key = *self.key.get(v as usize)?;
        (key != UNREACHED).then_some(((key >> 32) as u32, key as u32))
    }

    /// The medoid of `members` (ascending slots; `node_ids` maps slot → node): the
    /// member with the smallest sum of path lengths to all members, ties to the
    /// smaller slot. By sweeps where `medoid_of` would sum over every member and
    /// every member is a vertex; otherwise `medoid_of` asks the labelling, so its
    /// sampling and unreachable rules hold unchanged.
    pub(crate) fn medoid(&mut self, members: &[u32], node_ids: &[NodeId]) -> u32 {
        let swept = medoid_stride(members.len()) == 1
            && members
                .iter()
                .all(|&slot| self.vertex[slot as usize] != NONE);
        if swept {
            return self.swept_medoid(members);
        }
        let (labeling, queries) = (self.labeling, &mut self.queries);
        medoid_of(members, |a, b| {
            let labeling = labeling?;
            *queries += 1;
            labeling.distance(node_ids[a as usize], node_ids[b as usize])
        })
        .expect("a cluster holds the slot that formed it")
    }

    /// Path length between two nodes of the tree, asked of the labelling.
    pub(crate) fn distance(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        let labeling = self.labeling?;
        self.queries += 1;
        labeling.distance(a, b)
    }

    /// [`SlotPaths::medoid`] by sweeps, over the smallest subtree holding every
    /// member: its root `top` is the lowest vertex at or above the last member
    /// whose subtree reaches back to the first, and the sweeps need only the
    /// vertices from the first member up to `top`.
    fn swept_medoid(&mut self, members: &[u32]) -> u32 {
        let vertex = &self.vertex;
        let at = |slot: u32| vertex[slot as usize] as usize;
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &slot in members {
            lo = lo.min(at(slot));
            hi = hi.max(at(slot));
        }
        let mut top = hi;
        while self.first[top] as usize > lo {
            top = self.parent[top] as usize;
        }
        let (count, sum) = (&mut self.count[..], &mut self.sum[..]);
        count[lo..=top].fill(0);
        sum[lo..=top].fill(0);
        for &slot in members {
            count[at(slot)] = 1;
        }
        for v in lo..top {
            let (p, len) = (self.parent[v] as usize, u64::from(self.len[v]));
            count[p] += count[v];
            sum[p] += sum[v] + len * u64::from(count[v]);
        }
        // Reroot: stepping from `p` down to `v` brings the `cnt(v)` members below
        // `v` one edge closer and the other `M − cnt(v)` one edge further.
        let total = members.len() as u64;
        for v in (lo..top).rev() {
            let (p, len) = (self.parent[v] as usize, u64::from(self.len[v]));
            sum[v] = sum[p] + len * total - 2 * len * u64::from(count[v]);
        }
        members
            .iter()
            .map(|&slot| (sum[at(slot)], slot))
            .min()
            .expect("a cluster holds the slot that formed it")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_repo::SchemaRepository;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::{GlobalNodeId, SchemaNode, SchemaTree, TreeBuilder, TreeId};

    /// A tree whose ids are not in pre-order: every node after the first two
    /// hangs under a node well before it.
    fn shuffled_tree(n: u32) -> SchemaTree {
        let mut tree = SchemaTree::new("shuffled");
        let root = tree.add_root(SchemaNode::element("r")).unwrap();
        let mut ids = vec![root];
        for i in 1..n {
            let parent = ids[(i as usize * 7 / 3) % ids.len()];
            ids.push(
                tree.add_child(parent, SchemaNode::element(format!("n{i}")))
                    .unwrap(),
            );
        }
        tree
    }

    /// Every source alone: the sweep's distance to every point is the labelling's.
    fn assert_single_sources_agree(repo: &SchemaRepository, points: &[NodeId]) {
        let labeling = repo.labeling(TreeId(0));
        let mut paths = SlotPaths::default();
        paths.build(labeling, points.iter().copied());
        for (i, &source) in points.iter().enumerate() {
            paths.spread([i].into_iter());
            for (j, &node) in points.iter().enumerate() {
                let expected = repo.distance(
                    GlobalNodeId::new(TreeId(0), source),
                    GlobalNodeId::new(TreeId(0), node),
                );
                let got = paths.nearest(j).map(|(d, _)| d);
                assert_eq!(got, expected, "d({source}, {node})");
            }
        }
    }

    #[test]
    fn path_length_matches_repository_distance() {
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let tree = repo.tree(TreeId(0)).unwrap();
        let (title, shelf) = (
            tree.find_by_name("title").unwrap(),
            tree.find_by_name("shelf").unwrap(),
        );
        let mut paths = SlotPaths::default();
        paths.build(repo.labeling(TreeId(0)), [title, shelf].into_iter());
        assert_eq!(paths.take_queries(), 1, "one LCA for two points");
        paths.spread([1].into_iter());
        assert_eq!(paths.nearest(0), Some((3, 0)), "title is 3 from shelf");
        assert_eq!(paths.nearest(1), Some((0, 0)));
    }

    #[test]
    fn in_tree_distance_agrees_with_the_global_form() {
        // Every node as a point, a handful of points, a point repeated, and ids
        // out of pre-order.
        let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
        let all: Vec<NodeId> = repo.tree(TreeId(0)).unwrap().node_ids().collect();
        assert_single_sources_agree(&repo, &all);
        assert_single_sources_agree(&repo, &[all[5], all[2], all[6], all[2]]);
        let repo = SchemaRepository::from_trees(vec![shuffled_tree(40)]);
        assert!(
            repo.tree(TreeId(0)).unwrap().preorder() != (0..40).map(NodeId).collect::<Vec<_>>()
        );
        let some: Vec<NodeId> = (0..40).step_by(3).map(NodeId).collect();
        assert_single_sources_agree(&repo, &some);
    }

    #[test]
    fn declined_points_are_no_vertices() {
        // A root with two children; nodes 3 and 5 are past the labelling.
        let tree = TreeBuilder::new("t")
            .root(SchemaNode::element("r"))
            .child(SchemaNode::element("a"))
            .sibling(SchemaNode::element("b"))
            .build();
        let labeling = TreeLabeling::build(&tree);
        let mut paths = SlotPaths::default();
        let points = [NodeId(0), NodeId(5), NodeId(2), NodeId(3)];
        paths.build(Some(&labeling), points.into_iter());
        assert_eq!(paths.vertex(1), NONE);
        assert_eq!(paths.vertex(3), NONE);
        paths.spread([1, 2].into_iter());
        assert_eq!(paths.nearest(0), Some((1, 1)), "the root is 1 from node 2");
        assert_eq!(paths.nearest(1), None);
        assert_eq!(paths.nearest(3), None);
        paths.build(None, points.into_iter());
        assert!((0..4).all(|point| paths.vertex(point) == NONE));
    }

    #[test]
    fn swept_medoids_equal_pairwise_medoids() {
        let repo = SchemaRepository::from_trees(vec![shuffled_tree(60)]);
        let labeling = repo.labeling(TreeId(0)).unwrap();
        let nodes: Vec<NodeId> = (0..60).map(NodeId).collect();
        let mut paths = SlotPaths::default();
        paths.build(Some(labeling), nodes.iter().copied());
        for (start, step) in [(0, 1), (3, 7), (10, 2), (59, 1), (1, 13)] {
            let members: Vec<u32> = (start..60).step_by(step).collect();
            let pairwise = medoid_of(&members, |a, b| labeling.distance(NodeId(a), NodeId(b)));
            assert_eq!(
                Some(paths.swept_medoid(&members)),
                pairwise,
                "{start}/{step}"
            );
        }
    }
}
