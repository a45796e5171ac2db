//! The repository [`FeatureStore`]: the **name table** under the index, the
//! matcher and the snapshot.
//!
//! The element matcher is *localized* — a pair's similarity is a function of
//! the two names and nothing else — and schema repositories repeat names
//! heavily, so everything derived from a name lives here **once per distinct
//! spelling**, not once per node: a stable [`NameId`], the [`NameFeatures`]
//! the similarity kernels score against (lowercased characters, Myers match
//! vectors, interned q-gram signature), and the
//! ascending list of live nodes that carry the spelling. A node keeps only
//! its name id. The [`crate::NameIndex`] posts name ids, the matcher scores
//! each surviving name once and fans the score out over the name's node list,
//! and a snapshot stores features, postings and the names themselves per name.
//!
//! Names are keyed on the **exact spelling** (`Name` and `name` are two
//! entries with equal lowercased forms), so the features reachable through
//! [`FeatureStore::features_of`] are field for field what
//! [`NameFeatures::build`] gives for that node's own name, original case
//! included. The store and the index share one
//! [`GramInterner`], which is what lets the index keep its posting lists in a
//! dense `Vec` keyed by gram id and lets candidate scoring intersect
//! signatures by integer merge.

use std::collections::HashMap;
use std::sync::OnceLock;

use xsm_schema::{GlobalNodeId, NodeId, SchemaTree, TreeId};
use xsm_similarity::features::{for_each_gram, GramInterner, NameFeatures};

use crate::repository::SchemaRepository;

/// Stable id of one distinct name spelling in a [`FeatureStore`]. Ids are
/// dense (`0..name_count`), assigned in first-occurrence order and never
/// renumbered or reused: a spelling whose last node was deleted keeps its id
/// and is found again when an append brings the spelling back.
pub type NameId = u32;

/// The flat per-name feature columns a snapshot load hands over instead of
/// materialised [`NameFeatures`]: concatenated name blobs and the decoded
/// signature / multiplicity / match-vector arenas, each with `name_count + 1`
/// prefix-sum offsets. Holding these and building each name's `NameFeatures`
/// on first use keeps snapshot startup at a handful of bulk allocations —
/// the ~4 boxed slices per name are deferred to the first query that actually
/// scores the name (and are identical to an eager build when they do happen).
#[derive(Debug, Clone, Default)]
pub(crate) struct FeatureColumns {
    /// Every name's lowercased form, concatenated.
    pub lower_blob: String,
    /// Byte offsets into [`FeatureColumns::lower_blob`] (`name_count + 1`).
    pub lower_offsets: Vec<u32>,
    /// Original spellings, concatenated — only for names where lowercasing
    /// changed the spelling (an empty range means `lower` *is* the original).
    pub orig_blob: String,
    /// Byte offsets into [`FeatureColumns::orig_blob`] (`name_count + 1`).
    pub orig_offsets: Vec<u32>,
    /// All gram signatures, concatenated in name-id order.
    pub sig_flat: Vec<u32>,
    /// Multiplicities parallel to [`FeatureColumns::sig_flat`].
    pub count_flat: Vec<u32>,
    /// Entry offsets into the two gram arenas (`name_count + 1`).
    pub sig_offsets: Vec<u32>,
    /// All Myers match vectors, concatenated in name-id order.
    pub peq_flat: Vec<(char, u64)>,
    /// Entry offsets into [`FeatureColumns::peq_flat`] (`name_count + 1`).
    pub peq_offsets: Vec<u32>,
}

impl FeatureColumns {
    /// Name `name`'s lowercased form.
    fn lower(&self, name: usize) -> &str {
        &self.lower_blob[self.lower_offsets[name] as usize..self.lower_offsets[name + 1] as usize]
    }

    /// Materialise name `name`'s features — exactly what an eager
    /// [`NameFeatures::build`] against the same interner produced at write time.
    fn materialize(&self, name: usize) -> NameFeatures {
        let lower: Box<str> = self.lower(name).into();
        let orig =
            &self.orig_blob[self.orig_offsets[name] as usize..self.orig_offsets[name + 1] as usize];
        let original: Option<Box<str>> = (!orig.is_empty()).then(|| orig.into());
        let sig_range = self.sig_offsets[name] as usize..self.sig_offsets[name + 1] as usize;
        let grams: Box<[u32]> = self.sig_flat[sig_range.clone()]
            .iter()
            .chain(self.count_flat[sig_range].iter())
            .copied()
            .collect();
        let peq: Box<[(char, u64)]> = self.peq_flat
            [self.peq_offsets[name] as usize..self.peq_offsets[name + 1] as usize]
            .into();
        NameFeatures::from_parts(lower, original, grams, peq)
    }
}

/// The name table of a repository: per distinct spelling its features and
/// live nodes, per node its name id, plus the shared gram interner. Node
/// lookup is `O(1)` arithmetic: per-tree offsets into one dense name-id
/// column, no hashing.
///
/// A store built with [`FeatureStore::build`] is fully materialised. A store
/// reassembled from a snapshot keeps the flat `FeatureColumns` and fills each
/// name's slot on first access (thread-safe; concurrent first touches race
/// benignly on the slot's `OnceLock`) — same values, none of the startup cost.
#[derive(Debug, Clone, Default)]
pub struct FeatureStore {
    interner: GramInterner,
    /// Exact spelling → name id.
    by_spelling: HashMap<Box<str>, NameId>,
    /// One slot per name id.
    features: Vec<OnceLock<NameFeatures>>,
    /// Set only for snapshot-loaded stores; `None` means every slot is filled.
    columns: Option<FeatureColumns>,
    /// Per name id: the live nodes carrying the spelling, ascending. A name
    /// whose list is empty is dead — no lookup returns it — until an append
    /// brings the spelling back.
    nodes: Vec<Vec<GlobalNodeId>>,
    /// Name id of every node by dense slot, tombstoned trees included (dense
    /// slots, like name ids, are stable forever).
    node_names: Vec<NameId>,
    /// `offsets[t]..offsets[t+1]` is the dense-slot range of tree `t` (one
    /// trailing entry, so the last tree needs no special case).
    offsets: Vec<u32>,
    /// The tombstoned trees, sorted ascending — the set a snapshot persists.
    dead_trees: Vec<TreeId>,
    /// Number of nodes outside tombstoned trees, maintained incrementally.
    alive: usize,
}

impl FeatureStore {
    /// Build the name table of `repo` with gram length `q` (`q >= 1`),
    /// interning all grams into a fresh shared interner. Features are built
    /// once per distinct spelling.
    pub fn build(repo: &SchemaRepository, q: usize) -> Self {
        let mut store = FeatureStore {
            interner: GramInterner::new(q),
            node_names: Vec::with_capacity(repo.total_nodes()),
            offsets: Vec::with_capacity(repo.tree_count() + 1),
            ..FeatureStore::default()
        };
        store.offsets.push(0);
        for (tid, tree) in repo.trees() {
            store.append_tree(tid, tree);
        }
        store
    }

    /// Reassemble a store from snapshot parts: the rebuilt interner, the flat
    /// per-name feature columns, the spellings in name-id order, every node's
    /// name id by dense slot (each below `spellings.len()`), the per-tree
    /// offsets (`tree_count + 1` prefix sums of tree node counts, ending at
    /// `node_names.len()`) and the tombstoned trees (ascending, in range).
    /// The per-name node lists are rederived — node `n` of tree `t` is dense
    /// slot `offsets[t] + n`, and a name's live nodes are the slots outside
    /// tombstoned trees that carry its id — so they are never serialized and
    /// cannot disagree with the id column. Features materialise lazily out of
    /// the columns. Fails on a repeated spelling.
    pub(crate) fn from_columns(
        interner: GramInterner,
        columns: FeatureColumns,
        spellings: Vec<String>,
        node_names: Vec<NameId>,
        offsets: Vec<u32>,
        dead_trees: Vec<TreeId>,
    ) -> Result<Self, String> {
        let name_count = spellings.len();
        let mut by_spelling = HashMap::with_capacity(name_count);
        for (name, spelling) in spellings.into_iter().enumerate() {
            if let Some(first) = by_spelling.insert(spelling.into_boxed_str(), name as NameId) {
                return Err(format!("names {first} and {name} have the same spelling"));
            }
        }
        let live_trees = || {
            offsets
                .windows(2)
                .enumerate()
                .map(|(tree, window)| (TreeId(tree as u32), window[0], window[1]))
                .filter(|(tid, ..)| dead_trees.binary_search(tid).is_err())
        };
        // Count first, so every node list is allocated once at its size.
        let mut carried = vec![0usize; name_count];
        let mut alive = 0usize;
        for (_, start, end) in live_trees() {
            for &name in &node_names[start as usize..end as usize] {
                carried[name as usize] += 1;
            }
            alive += (end - start) as usize;
        }
        let mut nodes: Vec<Vec<GlobalNodeId>> =
            carried.into_iter().map(Vec::with_capacity).collect();
        for (tid, start, end) in live_trees() {
            for dense in start..end {
                nodes[node_names[dense as usize] as usize]
                    .push(GlobalNodeId::new(tid, NodeId(dense - start)));
            }
        }
        let mut features = Vec::new();
        features.resize_with(name_count, OnceLock::new);
        Ok(FeatureStore {
            interner,
            by_spelling,
            features,
            columns: Some(columns),
            nodes,
            node_names,
            offsets,
            dead_trees,
            alive,
        })
    }

    /// Append one tree's nodes to the store: dense slots for the new nodes are
    /// allocated at the tail and each node joins its spelling's node list; only
    /// a spelling never seen before gets a new name id and has features built
    /// (new grams extend the shared interner). `tid` must be the next tree
    /// index — appends never leave holes in the tree table. The appended
    /// nodes' name ids are the tail of [`FeatureStore::node_names`].
    pub(crate) fn append_tree(&mut self, tid: TreeId, tree: &SchemaTree) {
        debug_assert_eq!(
            tid.index() + 1,
            self.offsets.len(),
            "appends allocate the next tree index"
        );
        for (nid, node) in tree.nodes() {
            let name = match self.by_spelling.get(node.name.as_str()) {
                Some(&name) => name,
                None => {
                    let name = self.features.len() as NameId;
                    self.features.push(OnceLock::from(NameFeatures::build(
                        &node.name,
                        &mut self.interner,
                    )));
                    self.nodes.push(Vec::new());
                    self.by_spelling.insert(node.name.as_str().into(), name);
                    name
                }
            };
            // Appended ids exceed every id already listed, so pushes keep the
            // node lists ascending.
            self.nodes[name as usize].push(GlobalNodeId::new(tid, nid));
            self.node_names.push(name);
        }
        self.alive += tree.len();
        self.offsets.push(self.node_names.len() as u32);
    }

    /// Tombstone every node of tree `tid`: the nodes leave their names' node
    /// lists (a name left with none is dead). Returns the dense range killed —
    /// its slice of [`FeatureStore::node_names`] names what was touched — or
    /// `None`, changing nothing, for an unknown or already-dead tree.
    pub(crate) fn tombstone_tree(&mut self, tid: TreeId) -> Option<std::ops::Range<usize>> {
        let range = self.tree_range(tid)?;
        match self.dead_trees.binary_search(&tid) {
            Ok(_) => return None,
            Err(pos) => self.dead_trees.insert(pos, tid),
        }
        for dense in range.clone() {
            // One tree's nodes are one contiguous run of an ascending list;
            // the first node of a name drains the run, its siblings find
            // nothing left.
            let list = &mut self.nodes[self.node_names[dense] as usize];
            let start = list.partition_point(|id| id.tree < tid);
            let end = start + list[start..].partition_point(|id| id.tree == tid);
            list.drain(start..end);
        }
        self.alive -= range.len();
        Some(range)
    }

    /// Rebuild name `name`'s features from its spelling. A snapshot-loaded
    /// slot carries no gram positions (the index holds them beside its
    /// postings); the index calls this before it posts such a name afresh.
    /// Every gram is already interned, so the ids come out unchanged.
    pub(crate) fn rebuild_features(&mut self, name: NameId) {
        let features = self.name_features(name);
        let spelling: Box<str> = features.original().unwrap_or(&features.lower).into();
        self.features[name as usize] =
            OnceLock::from(NameFeatures::build(&spelling, &mut self.interner));
    }

    /// The dense-slot range of tree `tid`, or `None` for unknown trees.
    fn tree_range(&self, tid: TreeId) -> Option<std::ops::Range<usize>> {
        let t = tid.index();
        let start = *self.offsets.get(t)? as usize;
        let end = *self.offsets.get(t + 1)? as usize;
        Some(start..end)
    }

    /// Whether tree `tid` has been tombstoned.
    pub fn is_tree_dead(&self, tid: TreeId) -> bool {
        self.dead_trees.binary_search(&tid).is_ok()
    }

    /// The tombstoned trees, ascending.
    pub fn dead_trees(&self) -> &[TreeId] {
        &self.dead_trees
    }

    /// Number of nodes that are *not* tombstoned.
    pub fn alive_len(&self) -> usize {
        self.alive
    }

    /// The shared gram interner (frozen between mutations: only a live
    /// append, via `NameIndex::append_tree`, extends it).
    pub fn interner(&self) -> &GramInterner {
        &self.interner
    }

    /// Number of node slots covered (tombstoned trees included).
    pub fn len(&self) -> usize {
        self.node_names.len()
    }

    /// True when the store covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_names.is_empty()
    }

    /// Number of name ids allocated: every distinct spelling the store has
    /// ever held, dead ones included.
    pub fn name_count(&self) -> usize {
        self.features.len()
    }

    /// The features of name `name` (must be below
    /// [`FeatureStore::name_count`]), materialising them from the columns on
    /// first touch.
    pub fn name_features(&self, name: NameId) -> &NameFeatures {
        self.features[name as usize].get_or_init(|| {
            self.columns
                .as_ref()
                .expect("an unfilled slot exists only in a column-backed store")
                .materialize(name as usize)
        })
    }

    /// Name `name`'s lowercased form, read in place: a still-lazy slot of a
    /// snapshot-loaded store is *not* materialised for it (grouping every name
    /// by its lowercased form is part of every load).
    pub(crate) fn lower_of(&self, name: NameId) -> &str {
        match (self.features[name as usize].get(), &self.columns) {
            (None, Some(columns)) => columns.lower(name as usize),
            _ => &self.name_features(name).lower,
        }
    }

    /// The live nodes carrying name `name`, ascending — what a score for the
    /// name fans out to. Empty for a dead name.
    pub fn nodes_of_name(&self, name: NameId) -> &[GlobalNodeId] {
        &self.nodes[name as usize]
    }

    /// Name id of every node by dense slot (tree by tree, slot order).
    pub(crate) fn node_names(&self) -> &[NameId] {
        &self.node_names
    }

    /// The name id of one node, or `None` for ids outside the repository the
    /// store was built over.
    pub fn name_of(&self, id: GlobalNodeId) -> Option<NameId> {
        let range = self.tree_range(id.tree)?;
        let dense = range.start + id.node.index();
        (dense < range.end).then(|| self.node_names[dense])
    }

    /// The features of one node's name, or `None` for ids outside the
    /// repository the store was built over.
    pub fn features_of(&self, id: GlobalNodeId) -> Option<&NameFeatures> {
        self.name_of(id).map(|name| self.name_features(name))
    }

    /// Iterate `(node id, features of its name)` in the repository's canonical
    /// node order (materialising any still-lazy slots as it goes). Tombstoned
    /// nodes are *included*; logical consumers want
    /// [`FeatureStore::live_names`].
    pub fn iter(&self) -> impl Iterator<Item = (GlobalNodeId, &NameFeatures)> + '_ {
        self.offsets
            .windows(2)
            .enumerate()
            .flat_map(move |(tree, window)| {
                (window[0]..window[1]).map(move |dense| {
                    (
                        GlobalNodeId::new(TreeId(tree as u32), NodeId(dense - window[0])),
                        self.name_features(self.node_names[dense as usize]),
                    )
                })
            })
    }

    /// Every name with at least one live node, ascending by id, with its
    /// features and node list — what an exhaustive matching pass scores: one
    /// kernel call per name, fanned out over the nodes.
    pub fn live_names(
        &self,
    ) -> impl Iterator<Item = (NameId, &NameFeatures, &[GlobalNodeId])> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, nodes)| !nodes.is_empty())
            .map(move |(name, nodes)| {
                let name = name as NameId;
                (name, self.name_features(name), nodes.as_slice())
            })
    }

    /// Build features for a *query* name against the frozen interner (unseen grams
    /// get private non-colliding ids — see [`NameFeatures::build_query`]). Called
    /// once per personal-schema node, not once per candidate pair.
    pub fn query_features(&self, name: &str) -> NameFeatures {
        NameFeatures::build_query(name, &self.interner)
    }

    /// The **one** interner resolution of a query name every index-side consumer
    /// (candidate lookup, volume estimation, the query planner) shares, so no
    /// call site re-walks the query's grams. Returns `(known ids, packed
    /// first/last positions parallel to them, distinct gram count, char length)`:
    /// the sorted, deduplicated ids of the grams **known to the interner**, and
    /// the count of distinct grams overall (known + unknown — the denominator a
    /// count filter needs, since unknown grams can never match a posting but
    /// still dilute the overlap fraction).
    /// Positions are packed `first << 16 | last` (clamped to `u16`) in the
    /// padded gram stream, matching `NameFeatures::gram_positions`; they feed
    /// the positional q-gram filter.
    pub fn query_profile(&self, name: &str) -> (Vec<u32>, Vec<u32>, usize, usize) {
        let lower = crate::simd::lowercase(name);
        let mut occurrences: Vec<(u32, u32)> = Vec::new();
        let mut unknown: Vec<String> = Vec::new();
        let mut pos = 0u32;
        for_each_gram(&lower, self.interner.q(), |gram| {
            match self.interner.lookup(gram) {
                Some(id) => occurrences.push((id, pos)),
                None => {
                    if !unknown.iter().any(|g| g == gram) {
                        unknown.push(gram.to_string());
                    }
                }
            }
            pos += 1;
        });
        occurrences.sort_unstable();
        let mut known: Vec<u32> = Vec::with_capacity(occurrences.len());
        let mut known_pos: Vec<u32> = Vec::with_capacity(occurrences.len());
        for &(id, p) in &occurrences {
            let p16 = p.min(0xFFFF);
            if known.last() == Some(&id) {
                let packed = known_pos.last_mut().expect("parallel to known");
                *packed = (*packed & 0xFFFF_0000) | p16;
            } else {
                known.push(id);
                known_pos.push((p16 << 16) | p16);
            }
        }
        let distinct = known.len() + unknown.len();
        (known, known_pos, distinct, lower.chars().count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::{SchemaNode, TreeBuilder};
    use xsm_similarity::features::{fuzzy_features, SimScratch};
    use xsm_similarity::ngram::qgrams;

    fn repo() -> SchemaRepository {
        let other = TreeBuilder::new("contacts")
            .root(SchemaNode::element("person"))
            .child(SchemaNode::element("name"))
            .sibling(SchemaNode::element("emailAddress"))
            .build();
        SchemaRepository::from_trees(vec![paper_repository_fragment(), other])
    }

    #[test]
    fn store_covers_every_node_in_order() {
        let repo = repo();
        let store = FeatureStore::build(&repo, 3);
        assert_eq!(store.len(), repo.total_nodes());
        assert!(!store.is_empty());
        for (id, node) in repo.nodes() {
            let f = store.features_of(id).expect("every node has features");
            assert_eq!(&*f.lower, node.name.to_lowercase().as_str());
            assert_eq!(f.gram_total(), qgrams(&node.name.to_lowercase(), 3).len());
        }
        let mut seen = 0;
        for ((id, f), (rid, node)) in store.iter().zip(repo.nodes()) {
            assert_eq!(id, rid);
            assert_eq!(&*f.lower, node.name.to_lowercase().as_str());
            seen += 1;
        }
        assert_eq!(seen, store.len());
    }

    #[test]
    fn features_are_held_once_per_spelling() {
        let tree = |root: &str| {
            TreeBuilder::new("t")
                .root(SchemaNode::element(root))
                .child(SchemaNode::element("name"))
                .sibling(SchemaNode::element("Name"))
                .sibling(SchemaNode::element("name"))
                .build()
        };
        let repo = SchemaRepository::from_trees(vec![tree("a"), tree("b")]);
        let store = FeatureStore::build(&repo, 3);
        // "a", "name", "Name", "b" — case variants are distinct spellings.
        assert_eq!(store.name_count(), 4);
        assert_eq!(store.len(), 8);
        let lower = store.name_of(repo.nodes().nth(1).unwrap().0).unwrap();
        let upper = store.name_of(repo.nodes().nth(2).unwrap().0).unwrap();
        assert_ne!(lower, upper);
        assert_eq!(store.nodes_of_name(lower).len(), 4);
        assert_eq!(store.nodes_of_name(upper).len(), 2);
        assert!(store
            .nodes_of_name(lower)
            .windows(2)
            .all(|pair| pair[0] < pair[1]));
        // Same lowercased form, but each spelling keeps its original case.
        assert_eq!(store.name_features(lower).original(), None);
        assert_eq!(store.name_features(upper).original(), Some("Name"));
        // Every node of a spelling shares one features slot.
        let slots: Vec<*const NameFeatures> = store
            .nodes_of_name(lower)
            .iter()
            .map(|&id| store.features_of(id).unwrap() as *const _)
            .collect();
        assert!(slots.windows(2).all(|pair| pair[0] == pair[1]));
        assert_eq!(store.live_names().count(), 4);
    }

    #[test]
    fn unknown_ids_have_no_features() {
        let repo = repo();
        let store = FeatureStore::build(&repo, 3);
        assert!(store
            .features_of(GlobalNodeId::new(TreeId(9), NodeId(0)))
            .is_none());
        assert!(store
            .features_of(GlobalNodeId::new(TreeId(0), NodeId(99)))
            .is_none());
    }

    #[test]
    fn query_features_score_against_store_features() {
        let repo = repo();
        let store = FeatureStore::build(&repo, 3);
        let q = store.query_features("emailAdress"); // typo: unseen grams
        let mut scratch = SimScratch::default();
        let (id, _) = repo
            .nodes()
            .find(|(_, n)| n.name == "emailAddress")
            .expect("node exists");
        let f = store.features_of(id).unwrap();
        let s = fuzzy_features(&q, f, &mut scratch);
        assert_eq!(
            s.to_bits(),
            xsm_similarity::compare_string_fuzzy("emailAdress", "emailAddress").to_bits()
        );
    }

    #[test]
    fn query_signature_counts_unknown_grams() {
        let repo = repo();
        let store = FeatureStore::build(&repo, 3);
        // A name made of grams the corpus cannot contain.
        let (known, _, distinct, _) = store.query_profile("qqq");
        assert!(known.is_empty());
        assert!(distinct > 0, "unknown grams still count as distinct");
        // A corpus name resolves every gram.
        let (known, _, distinct, _) = store.query_profile("person");
        assert_eq!(known.len(), distinct);
        assert!(known.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }

    #[test]
    fn tombstoning_a_tree_empties_only_its_names() {
        let repo = repo();
        let mut store = FeatureStore::build(&repo, 3);
        let person = store
            .name_of(GlobalNodeId::new(TreeId(1), NodeId(0)))
            .unwrap();
        let before = store.alive_len();
        let range = store.tombstone_tree(TreeId(1)).expect("alive tree");
        assert_eq!(range.len(), 3);
        assert_eq!(store.alive_len(), before - 3);
        assert!(store.nodes_of_name(person).is_empty());
        assert!(store.is_tree_dead(TreeId(1)));
        assert!(
            store.tombstone_tree(TreeId(1)).is_none(),
            "dies exactly once"
        );
        assert!(store.tombstone_tree(TreeId(7)).is_none(), "unknown tree");
        // Name ids and features outlive their nodes.
        assert_eq!(&*store.name_features(person).lower, "person");
        assert!(store.live_names().all(|(name, _, _)| name != person));
    }

    #[test]
    fn a_snapshot_load_materialises_no_features() {
        // Loading groups every name by its lowercased form and sizes every
        // segment; none of that may fill a lazy slot — the first query to
        // score a name does.
        let repo = repo();
        let index = crate::NameIndex::build(&repo);
        let bytes = crate::SnapshotWriter::new(1)
            .to_bytes(&repo, &index, &vec![None; repo.tree_count()])
            .unwrap();
        let loaded = crate::SnapshotReader::read_bytes(&bytes).unwrap().index;
        let store = loaded.features();
        assert!(store.features.iter().all(|slot| slot.get().is_none()));
        assert_eq!(loaded.lookup_exact("PERSON").len(), 1);
        assert!(store.features.iter().all(|slot| slot.get().is_none()));
        let (id, _) = repo.nodes().next().unwrap();
        store.features_of(id).unwrap();
        assert_eq!(
            store.features.iter().filter(|s| s.get().is_some()).count(),
            1
        );
    }

    #[test]
    fn empty_repository_store() {
        let store = FeatureStore::build(&SchemaRepository::new(), 3);
        assert!(store.is_empty());
        assert_eq!(store.name_count(), 0);
        assert!(store
            .features_of(GlobalNodeId::new(TreeId(0), NodeId(0)))
            .is_none());
    }
}
