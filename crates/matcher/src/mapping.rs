//! Schema mappings (`s ↦ t`, Def. 2 of the paper).
//!
//! A [`SchemaMapping`] assigns every personal-schema node to one repository node; the
//! repository subgraph `t` is the minimal subtree spanning the chosen nodes (so every
//! personal edge maps to the unique repository path between its endpoints' images —
//! the edge-to-path rule of Def. 2). All images must come from one repository tree and
//! must be pairwise distinct ("1 to 1" element mappings).

use serde::{Deserialize, Serialize};
use xsm_schema::{GlobalNodeId, NodeId, TreeId, TreeLabeling};

use crate::candidates::MappingElement;

/// A (possibly partial) schema mapping with its objective score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaMapping {
    /// The element mappings, one per assigned personal node.
    pairs: Vec<MappingElement>,
    /// The value of the objective function `Δ(s,t)` (set by the generator).
    pub score: f64,
}

impl SchemaMapping {
    /// Create a mapping from element mappings; the score defaults to 0 until the
    /// objective is evaluated.
    pub fn new(pairs: Vec<MappingElement>) -> Self {
        SchemaMapping { pairs, score: 0.0 }
    }

    /// Create a mapping and set its score.
    pub fn with_score(pairs: Vec<MappingElement>, score: f64) -> Self {
        SchemaMapping { pairs, score }
    }

    /// The element mappings.
    pub fn pairs(&self) -> &[MappingElement] {
        &self.pairs
    }

    /// Number of assigned personal nodes.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no personal node is assigned.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Is every one of the given personal nodes assigned?
    pub fn is_complete_for(&self, personal_nodes: &[NodeId]) -> bool {
        personal_nodes
            .iter()
            .all(|n| self.pairs.iter().any(|p| p.personal == *n))
    }

    /// The image of a personal node, if assigned.
    pub fn image_of(&self, personal: NodeId) -> Option<GlobalNodeId> {
        self.pairs
            .iter()
            .find(|p| p.personal == personal)
            .map(|p| p.repo)
    }

    /// The repository tree all images live in (`None` for an empty mapping; mappings
    /// constructed by the generators never mix trees).
    pub fn repo_tree(&self) -> Option<TreeId> {
        self.pairs.first().map(|p| p.repo.tree)
    }

    /// The repository nodes used as images, in pair order.
    pub fn images(&self) -> impl Iterator<Item = GlobalNodeId> + '_ {
        self.pairs.iter().map(|p| p.repo)
    }

    /// All repository nodes used as images.
    pub fn repo_nodes(&self) -> Vec<GlobalNodeId> {
        self.images().collect()
    }

    /// Average element similarity over the assigned pairs (the `Δ_sim` numerator
    /// restricted to assigned nodes; the full `Δ_sim` divides by `|N_s|`).
    pub fn assigned_similarity_sum(&self) -> f64 {
        self.pairs.iter().map(|p| p.similarity).sum()
    }

    /// Structural validity: all images in one tree and pairwise distinct, and each
    /// personal node assigned at most once.
    pub fn is_structurally_valid(&self) -> bool {
        if self.pairs.is_empty() {
            return true;
        }
        let tree = self.pairs[0].repo.tree;
        if !self.pairs.iter().all(|p| p.repo.tree == tree) {
            return false;
        }
        let mut repo_nodes: Vec<GlobalNodeId> = self.repo_nodes();
        repo_nodes.sort();
        let before = repo_nodes.len();
        repo_nodes.dedup();
        if repo_nodes.len() != before {
            return false;
        }
        let mut personal: Vec<NodeId> = self.pairs.iter().map(|p| p.personal).collect();
        personal.sort();
        let before = personal.len();
        personal.dedup();
        personal.len() == before
    }
}

/// Number of edges of the minimal subtree (Steiner tree) of `nodes` within one
/// repository tree, computed from the labelling in `O(k log k)` for `k` nodes:
/// order the nodes by pre-order rank, sum the pairwise distances of consecutive nodes
/// cyclically, and halve. This is `|E_t|` of the paper's `Δ_path` (Eq. 2).
pub fn steiner_edge_count(labeling: &TreeLabeling, nodes: &[xsm_schema::NodeId]) -> u32 {
    let mut unique: Vec<xsm_schema::NodeId> = nodes.to_vec();
    unique.sort();
    unique.dedup();
    if unique.len() <= 1 {
        return 0;
    }
    unique.sort_by_key(|&n| labeling.preorder_rank(n).unwrap_or(u32::MAX));
    let mut total = 0u32;
    for i in 0..unique.len() {
        let a = unique[i];
        let b = unique[(i + 1) % unique.len()];
        total += labeling.distance(a, b).unwrap_or(0);
    }
    total / 2
}

/// The images of a growing and shrinking partial mapping, kept so that `|E_t|`, and
/// `|E_t|` with any one more image, is known without looking at the whole set again.
///
/// [`steiner_edge_count`] orders the nodes by pre-order rank, sums the distances
/// of cyclically consecutive nodes and halves. The ring keeps that order and that
/// sum, and lays out its **gaps**: for `n` nodes held, the `n + 1` places a new
/// node can enter (the first and the last are the one gap that wraps around), each
/// with the nodes `pred` and `succ` it lies between and the sum without the term
/// `d(pred, succ)`. A node `v` entering a gap makes the sum
/// `base + d(pred, v) + d(v, succ)`, so [`SteinerRing::edge_count_with`] answers
/// "what if `v` were added" with a count of the held keys below `v`'s — no branch —
/// and two distances, without touching the ring. Inserting or removing a node lays
/// the gaps out again: `n` distances, where `n` is at most the personal schema's size.
///
/// The ring holds **slots**, not nodes: small integers a caller gives the images
/// it will ask about, numbered in ascending [`NodeId`] order, so that the ring's
/// `(rank, slot)` order is `steiner_edge_count`'s `(rank, node)` order. The caller
/// passes each image's pre-order rank (`u32::MAX` for a node the labelling does
/// not know, which sorts last) and, with every call, its source of distances
/// between two slots — a memo, or [`TreeLabeling::distance`] itself. As long as
/// that source answers what `steiner_edge_count` reads (`distance(a, b)`, 0 where
/// the labelling has none), [`SteinerRing::edge_count`] *equals*
/// `steiner_edge_count` of the nodes held, after any sequence of changes: the sum
/// is an integer.
#[derive(Debug, Clone)]
pub struct SteinerRing {
    /// `(pre-order rank, slot)` as one integer, `rank << 32 | slot`, ascending.
    keys: Vec<u64>,
    /// `gaps[g]`: the gap a slot enters when `g` held keys sort below its own.
    gaps: Vec<Gap>,
    /// Sum of the distances between cyclically consecutive ring nodes (`2·|E_t|`).
    cycle: u32,
}

/// A gap of a [`SteinerRing`]: the slots it lies between, and the ring's cycle sum
/// without the distance between them.
#[derive(Debug, Clone, Copy)]
struct Gap {
    pred: u32,
    succ: u32,
    base: u32,
}

impl SteinerRing {
    /// An empty ring with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        SteinerRing {
            keys: Vec::with_capacity(capacity),
            gaps: Vec::with_capacity(capacity + 1),
            cycle: 0,
        }
    }

    /// `|E_t|`: the edge count of the minimal subtree spanning the nodes held.
    pub fn edge_count(&self) -> u32 {
        self.cycle / 2
    }

    /// `|E_t|` were `slot`, of pre-order rank `rank`, added — the ring itself is
    /// left as it is, so a caller can look at an extension before (or without)
    /// committing to it. A slot already held enters the gap that ends at itself,
    /// and `d(slot, slot)` is 0, so the answer is then `|E_t|` as it is.
    #[inline]
    pub fn edge_count_with(
        &self,
        rank: u32,
        slot: u32,
        mut distance: impl FnMut(u32, u32) -> u32,
    ) -> u32 {
        match self.gaps.get(self.below(ring_key(rank, slot))) {
            Some(&Gap { pred, succ, base }) => {
                (base + distance(pred, slot) + distance(slot, succ)) / 2
            }
            None => 0,
        }
    }

    /// Add `slot`, of pre-order rank `rank`; `false` (and no change) when it is
    /// already held.
    pub fn insert(&mut self, rank: u32, slot: u32, distance: impl FnMut(u32, u32) -> u32) -> bool {
        let key = ring_key(rank, slot);
        let at = self.below(key);
        if self.keys.get(at) == Some(&key) {
            return false;
        }
        self.keys.insert(at, key);
        self.lay_out_gaps(distance);
        true
    }

    /// Take `slot`, of pre-order rank `rank`, out; `false` (and no change) when it
    /// is not held.
    pub fn remove(&mut self, rank: u32, slot: u32, distance: impl FnMut(u32, u32) -> u32) -> bool {
        let key = ring_key(rank, slot);
        let at = self.below(key);
        if self.keys.get(at) != Some(&key) {
            return false;
        }
        self.keys.remove(at);
        self.lay_out_gaps(distance);
        true
    }

    /// How many held keys sort below `key`: the gap it enters, or its place if it
    /// is held. Counted without a branch — the ring holds a handful of keys.
    #[inline]
    fn below(&self, key: u64) -> usize {
        self.keys.iter().map(|&held| usize::from(held < key)).sum()
    }

    /// Sum the cycle of the keys held and lay out its gaps.
    fn lay_out_gaps(&mut self, mut distance: impl FnMut(u32, u32) -> u32) {
        self.gaps.clear();
        let Some(&last) = self.keys.last() else {
            self.cycle = 0;
            return;
        };
        let mut cycle = 0;
        let mut pred = slot_of(last);
        for &key in &self.keys {
            let succ = slot_of(key);
            let term = distance(pred, succ);
            cycle += term;
            self.gaps.push(Gap {
                pred,
                succ,
                base: term,
            });
            pred = succ;
        }
        self.gaps.push(self.gaps[0]);
        for gap in &mut self.gaps {
            gap.base = cycle - gap.base;
        }
        self.cycle = cycle;
    }
}

/// A ring key: `(rank, slot)` as one integer that orders as the pair does.
#[inline]
fn ring_key(rank: u32, slot: u32) -> u64 {
    (u64::from(rank) << 32) | u64::from(slot)
}

/// The slot of a ring key.
#[inline]
fn slot_of(key: u64) -> u32 {
    key as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::TreeLabeling;

    fn gid(tree: u32, node: u32) -> GlobalNodeId {
        GlobalNodeId::new(TreeId(tree), NodeId(node))
    }

    #[test]
    fn empty_mapping_properties() {
        let m = SchemaMapping::new(vec![]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(m.is_structurally_valid());
        assert_eq!(m.repo_tree(), None);
        assert!(m.is_complete_for(&[]));
        assert!(!m.is_complete_for(&[NodeId(0)]));
    }

    #[test]
    fn image_lookup_and_completeness() {
        let m = SchemaMapping::new(vec![
            MappingElement::new(NodeId(0), gid(0, 2), 1.0),
            MappingElement::new(NodeId(1), gid(0, 4), 0.9),
        ]);
        assert_eq!(m.image_of(NodeId(0)), Some(gid(0, 2)));
        assert_eq!(m.image_of(NodeId(5)), None);
        assert!(m.is_complete_for(&[NodeId(0), NodeId(1)]));
        assert!(!m.is_complete_for(&[NodeId(0), NodeId(1), NodeId(2)]));
        assert_eq!(m.repo_tree(), Some(TreeId(0)));
        assert!((m.assigned_similarity_sum() - 1.9).abs() < 1e-12);
    }

    #[test]
    fn validity_rejects_cross_tree_and_duplicates() {
        let cross = SchemaMapping::new(vec![
            MappingElement::new(NodeId(0), gid(0, 2), 1.0),
            MappingElement::new(NodeId(1), gid(1, 4), 0.9),
        ]);
        assert!(!cross.is_structurally_valid());

        let dup_repo = SchemaMapping::new(vec![
            MappingElement::new(NodeId(0), gid(0, 2), 1.0),
            MappingElement::new(NodeId(1), gid(0, 2), 0.9),
        ]);
        assert!(!dup_repo.is_structurally_valid());

        let dup_personal = SchemaMapping::new(vec![
            MappingElement::new(NodeId(0), gid(0, 2), 1.0),
            MappingElement::new(NodeId(0), gid(0, 3), 0.9),
        ]);
        assert!(!dup_personal.is_structurally_valid());
    }

    #[test]
    fn steiner_edge_count_on_fig1() {
        let tree = paper_repository_fragment();
        let lab = TreeLabeling::build(&tree);
        let title = tree.find_by_name("title").unwrap();
        let author = tree.find_by_name("authorName").unwrap();
        let book = tree.find_by_name("book").unwrap();
        let address = tree.find_by_name("address").unwrap();
        let shelf = tree.find_by_name("shelf").unwrap();

        // Single node: no edges. Pair: path length.
        assert_eq!(steiner_edge_count(&lab, &[title]), 0);
        assert_eq!(steiner_edge_count(&lab, &[title, author]), 2);
        // {book, title, authorName}: book-data, data-title, data-authorName = 3 edges
        // (data is a Steiner point).
        assert_eq!(steiner_edge_count(&lab, &[book, title, author]), 3);
        // The gray subtree t of Fig. 1 {book, data, title, authorName}: same 3 edges.
        let data = tree.find_by_name("data").unwrap();
        assert_eq!(steiner_edge_count(&lab, &[book, data, title, author]), 3);
        // Adding shelf grows the subtree by one edge.
        assert_eq!(steiner_edge_count(&lab, &[book, title, author, shelf]), 4);
        // Spanning the whole fragment: 6 edges (all of them).
        assert_eq!(
            steiner_edge_count(&lab, &[title, author, shelf, address]),
            6
        );
        // Duplicates are ignored.
        assert_eq!(steiner_edge_count(&lab, &[title, title, author]), 2);
        assert_eq!(steiner_edge_count(&lab, &[]), 0);
    }

    #[test]
    fn steiner_is_monotone_under_node_addition() {
        let tree = paper_repository_fragment();
        let lab = TreeLabeling::build(&tree);
        let all: Vec<_> = tree.node_ids().collect();
        // For every pair of subsets A ⊆ B (built incrementally), |E(A)| <= |E(B)|.
        let mut acc = Vec::new();
        let mut prev = 0;
        for &n in &all {
            acc.push(n);
            let cur = steiner_edge_count(&lab, &acc);
            assert!(cur >= prev, "steiner shrank when adding {n}");
            prev = cur;
        }
        assert_eq!(prev, (tree.len() - 1) as u32);
    }
}
