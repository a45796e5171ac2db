//! Mapping elements and candidate sets (step ③ of the paper's architecture).
//!
//! A *mapping element* is a repository node paired with the personal-schema node it may
//! map to, together with the element-level similarity the matchers computed for the
//! pair. The set of mapping elements for personal node `n` is `ME_n`; the paper's
//! clusterer partitions the union `ME = ⋃ ME_n` and its centroid initialisation uses
//! the smallest set `ME_min`.

use serde::{Deserialize, Serialize};
use xsm_schema::{GlobalNodeId, NodeId, TreeId};

/// One mapping element: `n ↦ n'` with its element-level similarity `sim(n, n')`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MappingElement {
    /// The personal-schema node `n` (the *mapped* element).
    pub personal: NodeId,
    /// The repository node `n'` (the *mapping* element).
    pub repo: GlobalNodeId,
    /// Element-level similarity in `[0,1]`.
    pub similarity: f64,
}

impl MappingElement {
    /// Convenience constructor.
    pub fn new(personal: NodeId, repo: GlobalNodeId, similarity: f64) -> Self {
        MappingElement {
            personal,
            repo,
            similarity,
        }
    }
}

/// Candidate mapping elements grouped per personal-schema node.
///
/// A `CandidateSet` is the *scope* a mapping generator works on: the element-matching
/// step produces one covering the entire repository, the non-clustered baseline slices
/// it per repository tree, and the clusterer slices it per cluster.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CandidateSet {
    /// Personal-schema node ids, in the canonical (pre-order) order.
    personal_nodes: Vec<NodeId>,
    /// `per_node[i]` = mapping elements for `personal_nodes[i]`, sorted by descending
    /// similarity.
    per_node: Vec<Vec<MappingElement>>,
}

impl CandidateSet {
    /// Create an empty candidate set over the given personal nodes.
    pub fn new(personal_nodes: Vec<NodeId>) -> Self {
        let per_node = vec![Vec::new(); personal_nodes.len()];
        CandidateSet {
            personal_nodes,
            per_node,
        }
    }

    /// The personal nodes this set is indexed by.
    pub fn personal_nodes(&self) -> &[NodeId] {
        &self.personal_nodes
    }

    /// Add a mapping element (appended; call [`CandidateSet::sort`] when done).
    pub fn push(&mut self, element: MappingElement) {
        if let Some(idx) = self.index_of(element.personal) {
            self.per_node[idx].push(element);
        }
    }

    /// Sort every per-node list by descending similarity (ties broken by repo id for
    /// determinism).
    pub fn sort(&mut self) {
        for list in &mut self.per_node {
            list.sort_by(|a, b| {
                b.similarity
                    .partial_cmp(&a.similarity)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.repo.cmp(&b.repo))
            });
        }
    }

    /// Index of a personal node in the canonical order.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.personal_nodes.iter().position(|&n| n == node)
    }

    /// Mapping elements for the personal node at canonical index `i`.
    pub fn candidates_at(&self, i: usize) -> &[MappingElement] {
        self.per_node.get(i).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Mapping elements for a personal node.
    pub fn candidates_for(&self, node: NodeId) -> &[MappingElement] {
        match self.index_of(node) {
            Some(i) => self.candidates_at(i),
            None => &[],
        }
    }

    /// Number of personal nodes (`|N_s|`).
    pub fn node_count(&self) -> usize {
        self.personal_nodes.len()
    }

    /// Total number of mapping elements across all personal nodes (`|ME|`, counting a
    /// repository node once per personal node it is a candidate for).
    pub fn total_candidates(&self) -> usize {
        self.per_node.iter().map(|v| v.len()).sum()
    }

    /// Number of *distinct* repository nodes appearing as candidates.
    pub fn distinct_repo_nodes(&self) -> usize {
        let mut set: Vec<GlobalNodeId> = self
            .per_node
            .iter()
            .flat_map(|v| v.iter().map(|m| m.repo))
            .collect();
        set.sort();
        set.dedup();
        set.len()
    }

    /// The personal node with the fewest candidates and that count (`ME_min` of the
    /// paper's centroid-initialisation heuristic). `None` for an empty set.
    pub fn min_candidate_node(&self) -> Option<(NodeId, usize)> {
        self.personal_nodes
            .iter()
            .zip(&self.per_node)
            .map(|(&n, v)| (n, v.len()))
            .min_by_key(|&(_, len)| len)
    }

    /// True if at least one personal node has no candidate at all (such a scope can
    /// never produce a complete schema mapping — a "non-useful cluster").
    pub fn has_empty_node(&self) -> bool {
        self.per_node.iter().any(|v| v.is_empty())
    }

    /// Whether the scope can produce complete mappings (every personal node has at
    /// least one candidate) — the paper's *useful cluster* test.
    pub fn is_useful(&self) -> bool {
        !self.per_node.is_empty() && !self.has_empty_node()
    }

    /// The size of the search space this scope induces: `∏_n max(|ME_n|, 1)` counting
    /// only useful scopes — i.e. the number of complete node assignments a naive
    /// generator would have to consider. Saturates at `u128::MAX`.
    pub fn search_space_size(&self) -> u128 {
        if !self.is_useful() {
            return 0;
        }
        let mut size: u128 = 1;
        for v in &self.per_node {
            size = size.saturating_mul(v.len().max(1) as u128);
        }
        size
    }

    /// Restrict this set to candidates within a single repository tree. Used by the
    /// non-clustered baseline ("each tree in the repository is treated as one cluster").
    pub fn restrict_to_tree(&self, tree: TreeId) -> CandidateSet {
        self.restrict(|m| m.repo.tree == tree)
    }

    /// Split the set into its per-tree restrictions in one pass, ascending by tree:
    /// equivalent to `self.trees()` + [`CandidateSet::restrict_to_tree`] per tree,
    /// but `O(|ME|·log T + T·|N_s|)` instead of `O(T·|ME|)`. Per-query tree-local
    /// consumers (the clusterer) use this so a forest of thousands of trees does
    /// not rescan the whole candidate set per tree.
    pub fn split_by_tree(&self) -> Vec<(TreeId, CandidateSet)> {
        let trees = self.trees();
        let mut parts: Vec<(TreeId, CandidateSet)> = trees
            .iter()
            .map(|&t| (t, CandidateSet::new(self.personal_nodes.clone())))
            .collect();
        for (node_idx, list) in self.per_node.iter().enumerate() {
            for m in list {
                let slot = trees
                    .binary_search(&m.repo.tree)
                    .expect("trees() covers every candidate tree");
                parts[slot].1.per_node[node_idx].push(*m);
            }
        }
        parts
    }

    /// Restrict this set to candidates accepted by a predicate. A cluster's scope is
    /// this set restricted to the cluster's members.
    pub fn restrict<F>(&self, keep: F) -> CandidateSet
    where
        F: Fn(&MappingElement) -> bool,
    {
        let per_node = self
            .per_node
            .iter()
            .map(|v| v.iter().copied().filter(|m| keep(m)).collect())
            .collect();
        CandidateSet {
            personal_nodes: self.personal_nodes.clone(),
            per_node,
        }
    }

    /// Empty every per-node list, keeping the personal nodes and the lists'
    /// capacity: a scratch set refilled over and over (the clusterer fills each
    /// cluster's scope in one) allocates nothing after its first few uses.
    pub fn clear(&mut self) {
        for list in &mut self.per_node {
            list.clear();
        }
    }

    /// Append a mapping element to the list at canonical index `i` (no lookup of
    /// its personal node; out-of-range indices are ignored like unknown nodes in
    /// [`CandidateSet::push`]).
    pub fn push_at(&mut self, i: usize, element: MappingElement) {
        if let Some(list) = self.per_node.get_mut(i) {
            list.push(element);
        }
    }

    /// Keep at most `cap` mapping elements per personal node — on a sorted set,
    /// the `cap` most similar.
    pub fn truncate_per_node(&mut self, cap: usize) {
        for list in &mut self.per_node {
            list.truncate(cap);
        }
    }

    /// The repository tree every candidate lies in: `None` for a set without
    /// candidates or one touching several trees. One pass, no allocation — what a
    /// consumer that only needs "is this a single-tree scope" should ask instead
    /// of [`CandidateSet::trees`].
    pub fn sole_tree(&self) -> Option<TreeId> {
        let mut trees = self.iter().map(|m| m.repo.tree);
        let first = trees.next()?;
        trees.all(|tree| tree == first).then_some(first)
    }

    /// All distinct repository trees touched by the candidates.
    pub fn trees(&self) -> Vec<TreeId> {
        let mut trees: Vec<TreeId> = self
            .per_node
            .iter()
            .flat_map(|v| v.iter().map(|m| m.repo.tree))
            .collect();
        trees.sort();
        trees.dedup();
        trees
    }

    /// Iterate over all mapping elements (across all personal nodes).
    pub fn iter(&self) -> impl Iterator<Item = &MappingElement> + '_ {
        self.per_node.iter().flatten()
    }

    /// Average `|ME_n|` over personal nodes (the "avg. # of mapping elements" column of
    /// Tab. 1a).
    pub fn avg_candidates_per_node(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        self.total_candidates() as f64 / self.per_node.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(tree: u32, node: u32) -> GlobalNodeId {
        GlobalNodeId::new(TreeId(tree), NodeId(node))
    }

    fn sample_set() -> CandidateSet {
        let mut set = CandidateSet::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        set.push(MappingElement::new(NodeId(0), gid(0, 1), 0.9));
        set.push(MappingElement::new(NodeId(0), gid(1, 4), 0.7));
        set.push(MappingElement::new(NodeId(1), gid(0, 3), 0.95));
        set.push(MappingElement::new(NodeId(1), gid(0, 5), 0.5));
        set.push(MappingElement::new(NodeId(1), gid(1, 2), 0.8));
        set.push(MappingElement::new(NodeId(2), gid(0, 6), 0.6));
        set.sort();
        set
    }

    #[test]
    fn push_and_lookup() {
        let set = sample_set();
        assert_eq!(set.node_count(), 3);
        assert_eq!(set.total_candidates(), 6);
        assert_eq!(set.candidates_for(NodeId(1)).len(), 3);
        assert_eq!(set.candidates_for(NodeId(9)).len(), 0);
        // Sorted descending by similarity.
        let sims: Vec<f64> = set
            .candidates_for(NodeId(1))
            .iter()
            .map(|m| m.similarity)
            .collect();
        assert_eq!(sims, vec![0.95, 0.8, 0.5]);
    }

    #[test]
    fn push_ignores_unknown_personal_node() {
        let mut set = CandidateSet::new(vec![NodeId(0)]);
        set.push(MappingElement::new(NodeId(7), gid(0, 0), 0.9));
        assert_eq!(set.total_candidates(), 0);
    }

    #[test]
    fn min_candidate_node_is_me_min() {
        let set = sample_set();
        assert_eq!(set.min_candidate_node(), Some((NodeId(2), 1)));
    }

    #[test]
    fn usefulness_and_search_space() {
        let set = sample_set();
        assert!(set.is_useful());
        assert_eq!(set.search_space_size(), (2 * 3));
        assert_eq!(set.avg_candidates_per_node(), 2.0);

        let mut missing = CandidateSet::new(vec![NodeId(0), NodeId(1)]);
        missing.push(MappingElement::new(NodeId(0), gid(0, 1), 0.9));
        assert!(!missing.is_useful());
        assert!(missing.has_empty_node());
        assert_eq!(missing.search_space_size(), 0);
    }

    #[test]
    fn restrict_to_tree_keeps_only_that_tree() {
        let set = sample_set();
        let t0 = set.restrict_to_tree(TreeId(0));
        assert_eq!(t0.total_candidates(), 4);
        assert!(t0.iter().all(|m| m.repo.tree == TreeId(0)));
        assert_eq!(t0.personal_nodes(), set.personal_nodes());
        let t1 = set.restrict_to_tree(TreeId(1));
        assert_eq!(t1.total_candidates(), 2);
        assert!(!t1.is_useful()); // node 2 has no candidate in tree 1
    }

    #[test]
    fn split_by_tree_equals_per_tree_restriction() {
        let set = sample_set();
        let parts = set.split_by_tree();
        assert_eq!(
            parts.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            set.trees()
        );
        for (tree, part) in &parts {
            let reference = set.restrict_to_tree(*tree);
            assert_eq!(part.personal_nodes(), reference.personal_nodes());
            for &n in part.personal_nodes() {
                let (a, b) = (part.candidates_for(n), reference.candidates_for(n));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.repo, y.repo);
                    assert_eq!(x.similarity.to_bits(), y.similarity.to_bits());
                }
            }
        }
        assert!(CandidateSet::new(vec![]).split_by_tree().is_empty());
    }

    #[test]
    fn clear_and_push_at_refill_a_scratch_set() {
        let mut set = sample_set();
        set.clear();
        assert_eq!(set.total_candidates(), 0);
        assert_eq!(set.node_count(), 3);
        set.push_at(2, MappingElement::new(NodeId(2), gid(0, 6), 0.6));
        set.push_at(7, MappingElement::new(NodeId(2), gid(0, 6), 0.6)); // ignored
        assert_eq!(set.candidates_for(NodeId(2)).len(), 1);
        assert_eq!(set.total_candidates(), 1);
    }

    #[test]
    fn trees_and_distinct_repo_nodes() {
        let set = sample_set();
        assert_eq!(set.trees(), vec![TreeId(0), TreeId(1)]);
        assert_eq!(set.distinct_repo_nodes(), 6);
    }

    #[test]
    fn sole_tree_names_the_tree_of_a_single_tree_set_only() {
        let set = sample_set();
        assert_eq!(set.sole_tree(), None);
        assert_eq!(set.restrict_to_tree(TreeId(1)).sole_tree(), Some(TreeId(1)));
        assert_eq!(set.restrict(|_| false).sole_tree(), None);
        assert_eq!(CandidateSet::new(vec![]).sole_tree(), None);
    }

    #[test]
    fn empty_set_properties() {
        let set = CandidateSet::new(vec![]);
        assert_eq!(set.node_count(), 0);
        assert!(!set.is_useful());
        assert_eq!(set.search_space_size(), 0);
        assert_eq!(set.avg_candidates_per_node(), 0.0);
        assert_eq!(set.min_candidate_node(), None);
    }

    #[test]
    fn restrict_by_similarity_predicate() {
        let set = sample_set();
        let strong = set.restrict(|m| m.similarity >= 0.8);
        assert_eq!(strong.total_candidates(), 3);
        assert!(!strong.is_useful()); // node 2's only candidate was 0.6
    }
}
