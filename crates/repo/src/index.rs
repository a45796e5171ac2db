//! Name indexes over a repository: exact lookup and q-gram approximate lookup.
//!
//! Bellflower's element matcher conceptually compares *every* personal-schema element
//! with *every* repository element. The paper points to "approximate string joins"
//! (Gravano et al.) as the standard way to implement such matchers efficiently; the
//! [`NameIndex`] is that substrate: an inverted index from lowercased names (exact)
//! and from character q-grams (approximate candidate retrieval with a count filter).
//!
//! ## Names, not nodes
//!
//! A string join joins sets of **distinct strings**, and the filter (shared
//! distinct grams, length window, positional intervals) is a function of the
//! name alone. So the index is built over the repository's name table (the
//! [`FeatureStore`]): every posting, positional interval, length and ScanCount
//! counter is per distinct spelling — a [`NameId`] — and a surviving name
//! stands for every live node in [`FeatureStore::nodes_of_name`]. A corpus
//! that repeats each name eight times merges an eighth of the postings and
//! verifies an eighth of the pairs; [`NameIndex::lookup_names_resolved`] is the
//! lookup at that level, [`NameIndex::lookup_candidates_resolved`] its fan-out
//! to node ids. Only the numbers a query *planner* compares with
//! `|N_s| · indexed_nodes` stay **node-weighted**
//! ([`NameIndex::estimate_candidate_volume_resolved`]: per segment, the live
//! nodes behind its names), so plans do not depend on how often names repeat
//! and per-shard statistics stay additive.
//!
//! ## Filter–verify layout
//!
//! The gram side is a **filter–verify pipeline** over integer postings:
//!
//! * Postings live in one flat arena of name ids, grouped by gram and
//!   **segmented by name character length**, ascending within a segment. A
//!   [`LengthWindow`] derived from the caller's
//!   similarity floor — the same length-difference bound
//!   `xsm_similarity::compare_string_fuzzy_bounded` exploits — skips whole
//!   segments before any merging: a candidate whose length already caps its fuzzy
//!   similarity below the floor is never touched.
//! * The surviving segments are merged with a **T-occurrence count filter**
//!   (`needed = ceil(min_overlap_fraction · distinct query grams)`), by an
//!   algorithm chosen from the in-window volume: dense `u8`-counter **ScanCount**
//!   for small volumes; for large ones **ScanProbe**, which exploits the length
//!   bucketing directly — a candidate has exactly one name length, so per length
//!   bucket the `T − 1` heaviest segments can be excluded from scanning entirely
//!   (a candidate absent from every short segment tops out at `T − 1`
//!   occurrences) and are only binary-probed for candidates that already
//!   surfaced in the short segments. The heaviest postings of common grams are
//!   therefore never merged at all. Both count in saturating `u8` counters: a
//!   counter stuck at 255 still clears any bound `T ≤ 255`, so only a bound
//!   past 255 (a query of more than 510 distinct grams at overlap 0.5) needs
//!   more. Such a query always runs ScanCount, which recounts each saturated
//!   name exactly by probing the name's own length segment of every known gram.
//! * Every merge reuses caller-owned [`CandidateScratch`] (one counter per
//!   name id); steady-state name-level generation allocates nothing.
//!
//! Under an infinite window the result is **exactly** the classic merge-everything
//! count filter: same ids, same order. The reference lives in test code
//! (`tests/oracle/mod.rs`, a brute-force count over every live name that never
//! reads the arena) and the property suite in `tests/candidate_equivalence.rs`
//! holds every merge policy to it; `tests/name_table_equivalence.rs` checks
//! both against a brute-force pass over the repository's nodes.
//!
//! ## Live mutation
//!
//! Appends and deletes follow the name table. A node whose spelling is already
//! live adds no posting; only a new spelling (or one coming back after a
//! compaction) extends the arena. A delete removes nodes from their names'
//! lists; only a name left with **no** live node has dead postings, which
//! [`NameIndex::compact`] reclaims. Name ids are never renumbered.

use std::cmp::Reverse;
use std::collections::HashMap;
use xsm_schema::GlobalNodeId;
use xsm_similarity::edit::normalized_similarity;

use crate::features::{FeatureStore, NameId};
use crate::repository::SchemaRepository;

// The ScanCount-vs-ScanProbe volume threshold lives in `crate::simd`
// (`scan_count_max_volume`): it depends on whether the vectorized counter
// core is active on this host.

/// Segments smaller than this are never designated probe-only: excluding a tiny
/// segment saves almost no scanning but still charges every surviving candidate
/// of that length a binary probe.
const PROBE_MIN_SEGMENT: usize = 16;

/// A length filter on candidate names, derived from the caller's similarity floor.
///
/// The fuzzy kernel normalizes the edit distance by the longer name, and the
/// distance is at least the length difference, so a candidate of length `c` can
/// score at most `1 - |q - c| / max(q, c)` against a query of length `q`. A window
/// admits exactly the lengths whose bound still reaches the floor — evaluated with
/// the *same* float expression the kernel uses
/// ([`normalized_similarity`]), so the filter is conservative by construction:
/// nothing a later `score >= floor` check would keep is ever dropped.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LengthWindow {
    /// Every candidate length is admitted (the classic, unfiltered lookup).
    #[default]
    Infinite,
    /// Admit only lengths whose length-difference similarity bound can still reach
    /// this floor against the query name.
    FuzzyFloor(f64),
}

impl LengthWindow {
    /// A window for a similarity floor; floors at or below zero admit everything
    /// and collapse to [`LengthWindow::Infinite`].
    pub fn fuzzy_floor(floor: f64) -> Self {
        if floor <= 0.0 {
            LengthWindow::Infinite
        } else {
            LengthWindow::FuzzyFloor(floor)
        }
    }

    /// Whether the window admits every length.
    pub fn is_infinite(&self) -> bool {
        matches!(self, LengthWindow::Infinite)
    }

    /// Whether a candidate name of `candidate_chars` characters can still reach
    /// the window's floor against a query of `query_chars` characters.
    pub fn admits(&self, query_chars: usize, candidate_chars: usize) -> bool {
        match *self {
            LengthWindow::Infinite => true,
            LengthWindow::FuzzyFloor(floor) => {
                normalized_similarity(
                    query_chars.abs_diff(candidate_chars),
                    query_chars,
                    candidate_chars,
                ) >= floor
            }
        }
    }
}

/// A query name resolved against one index's interner **once**: the sorted ids of
/// its known grams, the distinct-gram denominator of the count filter, and the
/// query's character length (the length-window anchor). Candidate lookup, volume
/// estimation and the query planner all consume the same resolution instead of
/// re-walking the name's grams per call site.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    known: Vec<u32>,
    /// Packed `first << 16 | last` occurrence positions, parallel to `known`
    /// (the positional q-gram filter's query side).
    known_pos: Vec<u32>,
    distinct: usize,
    char_len: usize,
}

impl ResolvedQuery {
    /// Sorted, deduplicated interned ids of the query grams present in the index.
    pub fn known_grams(&self) -> &[u32] {
        &self.known
    }

    /// Number of distinct query grams (known + unknown — the count filter's
    /// denominator).
    pub fn distinct_grams(&self) -> usize {
        self.distinct
    }

    /// Character length of the lowercased query name.
    pub fn char_len(&self) -> usize {
        self.char_len
    }
}

/// Which merge algorithm [`NameIndex::lookup_names_resolved`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Choose from the in-window posting volume (the serving default):
    /// ScanCount at small volumes, ScanProbe beyond.
    #[default]
    Auto,
    /// Force the dense-counter ScanCount merge over every in-window segment.
    ScanCount,
    /// Force the long-segment-probing ScanCount merge. A bound past 255 runs
    /// ScanCount instead: ScanProbe's saturated short counts cannot be topped
    /// up to it.
    ScanProbe,
}

/// The merge algorithm that actually served a lookup (reported in
/// [`CandidateStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeAlgorithm {
    /// Dense-counter scan over every in-window segment.
    #[default]
    ScanCount,
    /// Dense-counter scan over the short segments, binary probes into the
    /// per-length heavy segments.
    ScanProbe,
}

/// Reusable working memory for candidate generation. One instance per worker
/// thread makes steady-state generation allocate nothing but the output `Vec`:
/// the ScanCount counters persist (reset via the touched list, not wholesale),
/// and the run and segment tables keep their capacity across queries.
#[derive(Debug, Clone, Default)]
pub struct CandidateScratch {
    /// Dense per-name occurrence counters (ScanCount); only `touched` entries are
    /// ever non-zero between queries.
    counts: Vec<u8>,
    /// Name ids whose counter was incremented this query.
    touched: Vec<u32>,
    /// Runs to count: `(start, end)` into the index's posting arena.
    runs: Vec<(u32, u32)>,
    /// ScanProbe: in-window segments as `(len, start, end)` awaiting partition.
    segs: Vec<(u32, u32, u32)>,
    /// ScanProbe: the probe-only segments, sorted by length.
    long: Vec<(u32, u32, u32)>,
    /// Surviving name ids, ascending.
    out: Vec<u32>,
}

impl CandidateScratch {
    /// Number of dense ScanCount counters currently allocated: one per name id
    /// of the last index a counting merge ran against (never one per node).
    pub fn counter_slots(&self) -> usize {
        self.counts.len()
    }
}

/// Work accounting of one candidate lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateStats {
    /// Distinct **names** whose occurrence count was actually examined
    /// (ScanCount: counter touches; ScanProbe: counter touches in the short
    /// segments — probe-only postings are never examined). Never more than
    /// [`NameIndex::distinct_names`], however often names repeat.
    pub candidates_examined: usize,
    /// Posting entries never merged: the full volume of ScanProbe's
    /// probe-only segments.
    pub postings_skipped: usize,
    /// Length segments excluded by the window before merging.
    pub segments_skipped: usize,
    /// Binary probes into probe-only segments (ScanProbe).
    pub probes: usize,
    /// Summed posting volume (live names) of the in-window segments — the
    /// work the merge faces, not the node-weighted volume the planner reads.
    pub volume_in_window: usize,
    /// Summed posting volume (live names) of all the query grams' segments.
    pub volume_total: usize,
    /// Count-filter survivors rejected by the positional q-gram filter (their
    /// matching grams were all displaced beyond the length-window edit bound).
    pub positional_rejections: usize,
    /// The merge algorithm that served the query.
    pub algorithm: MergeAlgorithm,
}

/// One length-homogeneous slice of a gram's posting list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LenSegment {
    /// Character length of every name in the segment.
    pub(crate) len: u32,
    /// Arena range of the segment's postings (name ids, ascending).
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// The spellings sharing one lowercased form — what a case-insensitive exact
/// lookup resolves to.
#[derive(Debug, Clone, Default)]
struct ExactGroup {
    /// The spellings' name ids, ascending. Dead names stay listed (their node
    /// lists are empty), so a group only ever grows.
    names: Vec<NameId>,
    /// The ascending union of the spellings' live nodes, kept **only** for a
    /// group of two or more spellings; a lone spelling's node list in the
    /// store already is the answer.
    merged: Vec<GlobalNodeId>,
}

impl ExactGroup {
    /// Derive `merged` from the members' node lists — whenever another
    /// spelling joins the group.
    fn rebuild(&mut self, store: &FeatureStore) {
        self.merged.clear();
        for &name in &self.names {
            self.merged.extend_from_slice(store.nodes_of_name(name));
        }
        self.merged.sort_unstable();
    }

    /// Bring `merged`'s run for tree `tid` in line with the members' node
    /// lists after that tree was appended or tombstoned. Idempotent, so every
    /// touched member of the group may call it.
    fn sync_tree(&mut self, store: &FeatureStore, tid: xsm_schema::TreeId) {
        if self.names.len() < 2 {
            return;
        }
        let mut run: Vec<GlobalNodeId> = Vec::new();
        for &name in &self.names {
            let nodes = store.nodes_of_name(name);
            let start = nodes.partition_point(|id| id.tree < tid);
            let end = start + nodes[start..].partition_point(|id| id.tree == tid);
            run.extend_from_slice(&nodes[start..end]);
        }
        run.sort_unstable();
        let start = self.merged.partition_point(|id| id.tree < tid);
        let end = start + self.merged[start..].partition_point(|id| id.tree == tid);
        self.merged.splice(start..end, run);
    }
}

/// Inverted indexes from names and q-grams to the repository's **name table**
/// (the [`FeatureStore`] the similarity kernels score against): every posting,
/// positional interval, length and counter is per distinct spelling, and a
/// surviving name fans out to the nodes that carry it.
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    /// lowercase name → the spellings that lowercase to it.
    exact: HashMap<String, ExactGroup>,
    /// All posting entries (name ids), grouped by gram, then by name length;
    /// ascending within each segment.
    arena: Vec<NameId>,
    /// Packed `first << 16 | last` occurrence positions of the posting's gram
    /// within the posting's name, parallel to `arena` (the positional q-gram
    /// filter's corpus side). Serialized with the arena so snapshot loads keep
    /// the filter without re-deriving per-name gram positions.
    arena_pos: Vec<u32>,
    /// Length-segment directory; gram `g` owns
    /// `segments[gram_segments[g] .. gram_segments[g + 1]]`, ordered by length.
    /// After appends a gram may own several segments of the *same* length (the
    /// older run first, one tail run per append that posted new names); each
    /// is ascending on its own and compaction merges them back into one.
    segments: Vec<LenSegment>,
    gram_segments: Vec<u32>,
    /// Postings of dead names (no live node) per segment, parallel to
    /// `segments`: segment `i` merges `(end - start) - seg_dead[i]` live
    /// names. The merge algorithms skip dead names at emission time;
    /// compaction rewrites the arena and zeroes this.
    seg_dead: Vec<u32>,
    /// Live **nodes** behind each segment, parallel to `segments`: the summed
    /// node-list lengths of the segment's names. This is the posting volume a
    /// per-node index would hold, and what the planner-facing estimates
    /// report, so plans do not depend on how often names repeat.
    seg_nodes: Vec<u32>,
    /// Total postings of dead names in the arena (`seg_dead` summed).
    dead_postings: usize,
    /// Character length of every name's lowercased form, by name id (ScanProbe
    /// reads a candidate's length to pick its probe segments).
    lens: Vec<u32>,
    /// Whether the name's postings are in the arena, by name id. A dead name
    /// stays posted until a compaction; one that comes back before then is
    /// revived in place, one that comes back after is posted afresh.
    posted: Vec<bool>,
    /// The name table and the shared gram interner.
    store: FeatureStore,
    q: usize,
}

/// Run-length counts of a batch of node name ids: `(name, nodes)` per distinct
/// name, ascending by name.
fn name_counts(names: &[NameId]) -> Vec<(NameId, u32)> {
    let mut sorted = names.to_vec();
    sorted.sort_unstable();
    let mut counts: Vec<(NameId, u32)> = Vec::new();
    for name in sorted {
        match counts.last_mut() {
            Some((last, n)) if *last == name => *n += 1,
            _ => counts.push((name, 1)),
        }
    }
    counts
}

impl NameIndex {
    /// Build the index over all nodes of a repository with the default `q = 3`.
    pub fn build(repo: &SchemaRepository) -> Self {
        Self::build_with_q(repo, 3)
    }

    /// Build with an explicit q-gram length (`q >= 1`). This also builds the
    /// repository's [`FeatureStore`], so every distinct name's features (and
    /// the shared gram interner) are computed exactly once, here.
    pub fn build_with_q(repo: &SchemaRepository, q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        let mut index = NameIndex {
            store: FeatureStore::build(repo, q),
            gram_segments: vec![0],
            q,
            ..NameIndex::default()
        };
        let names: Vec<NameId> = (0..index.store.name_count() as NameId).collect();
        for &name in &names {
            index.register_name(name);
        }
        index.post_names(&names);
        index
    }

    /// Reassemble an index from snapshot parts: a dump of a previously built
    /// index's posting arena and directories over the names `store` holds
    /// (`lens` one entry per name, every arena entry a valid name id, every
    /// segment inside the arena). What follows from those — the exact-name
    /// groups, which names are posted, and the dead and node-weighted size of
    /// every segment under the store's tombstones — is rederived in one arena
    /// pass, so it is never serialized.
    pub(crate) fn from_parts(
        arena: Vec<NameId>,
        arena_pos: Vec<u32>,
        segments: Vec<LenSegment>,
        gram_segments: Vec<u32>,
        lens: Vec<u32>,
        store: FeatureStore,
        q: usize,
    ) -> Self {
        debug_assert_eq!(arena.len(), arena_pos.len());
        debug_assert_eq!(lens.len(), store.name_count());
        let mut index = NameIndex {
            seg_dead: vec![0; segments.len()],
            seg_nodes: vec![0; segments.len()],
            posted: vec![false; lens.len()],
            arena,
            arena_pos,
            segments,
            gram_segments,
            lens,
            store,
            q,
            ..NameIndex::default()
        };
        for name in 0..index.store.name_count() as NameId {
            index.join_exact_group(name);
        }
        for (i, seg) in index.segments.iter().enumerate() {
            for &name in &index.arena[seg.start as usize..seg.end as usize] {
                index.posted[name as usize] = true;
                let nodes = index.store.nodes_of_name(name).len() as u32;
                index.seg_nodes[i] += nodes;
                if nodes == 0 {
                    index.seg_dead[i] += 1;
                    index.dead_postings += 1;
                }
            }
        }
        index
    }

    /// Give a name the store just allocated its index-side columns: length,
    /// posted flag (postings follow in [`NameIndex::post_names`]) and
    /// exact-name group.
    fn register_name(&mut self, name: NameId) {
        debug_assert_eq!(name as usize, self.lens.len(), "names register in id order");
        self.lens
            .push(self.store.name_features(name).char_len() as u32);
        self.posted.push(false);
        self.join_exact_group(name);
    }

    /// List `name` under its lowercased form; a spelling that joins others
    /// makes (or keeps) their group a merged one. Keyed lookups before
    /// insertion keep it to one owned `String` per *distinct* lowercased name.
    fn join_exact_group(&mut self, name: NameId) {
        let lower = self.store.lower_of(name);
        match self.exact.get_mut(lower) {
            Some(group) => {
                group.names.push(name);
                group.rebuild(&self.store);
            }
            None => {
                self.exact.insert(
                    lower.to_string(),
                    ExactGroup {
                        names: vec![name],
                        merged: Vec::new(),
                    },
                );
            }
        }
    }

    /// After tree `tid` was appended or tombstoned: bring the merged node list
    /// of `name`'s exact group up to date (a no-op for the common
    /// lone-spelling group, whose answer is the store's own node list).
    fn sync_exact_group(&mut self, name: NameId, tid: xsm_schema::TreeId) {
        let lower = self.store.lower_of(name);
        if let Some(group) = self.exact.get_mut(lower) {
            group.sync_tree(&self.store, tid);
        }
    }

    /// The directory entry of gram `gram_id` holding `name` (whose lowercased
    /// length is `len`), if the name is posted under the gram. Same-length
    /// twins hold disjoint names, so at most one probe hits.
    fn find_segment(&self, gram_id: u32, len: u32, name: NameId) -> Option<usize> {
        let (seg_start, seg_end) = self.segment_range(gram_id);
        let first = seg_start + self.segments[seg_start..seg_end].partition_point(|s| s.len < len);
        (first..seg_end)
            .take_while(|&i| self.segments[i].len == len)
            .find(|&i| {
                let seg = self.segments[i];
                self.arena[seg.start as usize..seg.end as usize]
                    .binary_search(&name)
                    .is_ok()
            })
    }

    /// The directory entries holding `name`'s postings, one per distinct gram
    /// of the name, written into `out`.
    fn segments_of(&self, name: NameId, out: &mut Vec<usize>) {
        out.clear();
        let len = self.lens[name as usize];
        out.extend(
            self.store
                .name_features(name)
                .gram_sig()
                .iter()
                .filter_map(|&gram_id| self.find_segment(gram_id, len, name)),
        );
    }

    /// Post `names` (distinct, each live and not yet posted): their postings
    /// extend the arena as new length-segmented tail runs, one per
    /// (gram, length) among them, and the per-gram segment *directory* is
    /// remerged (metadata-sized work — existing arena entries are untouched).
    fn post_names(&mut self, names: &[NameId]) {
        if names.is_empty() {
            return;
        }
        let mut postings: Vec<(u32, u32, NameId, u32)> = Vec::new();
        for &name in names {
            let features = self.store.name_features(name);
            if features.gram_positions().len() != features.gram_sig().len() {
                self.store.rebuild_features(name);
            }
            let features = self.store.name_features(name);
            let len = self.lens[name as usize];
            for (&gram_id, &pos) in features.gram_sig().iter().zip(features.gram_positions()) {
                postings.push((gram_id, len, name, pos));
            }
            self.posted[name as usize] = true;
        }
        // The signature is sorted + deduplicated, so a name lands at most once
        // per gram; sorting groups the batch into ascending (gram, length) runs.
        postings.sort_unstable();
        self.arena.reserve(postings.len());
        self.arena_pos.reserve(postings.len());
        let mut runs: Vec<(u32, LenSegment, u32)> = Vec::new();
        for &(gram_id, len, name, pos) in &postings {
            let at = self.arena.len() as u32;
            self.arena.push(name);
            self.arena_pos.push(pos);
            let nodes = self.store.nodes_of_name(name).len() as u32;
            match runs.last_mut() {
                Some((g, seg, seg_nodes)) if *g == gram_id && seg.len == len => {
                    seg.end = at + 1;
                    *seg_nodes += nodes;
                }
                _ => runs.push((
                    gram_id,
                    LenSegment {
                        len,
                        start: at,
                        end: at + 1,
                    },
                    nodes,
                )),
            }
        }

        // Remerge the directory: per gram, the old segments and the new runs
        // ordered by length, the old segment first on equal lengths.
        let gram_count = self.store.interner().len();
        let total = self.segments.len() + runs.len();
        let mut segments = Vec::with_capacity(total);
        let mut seg_dead = Vec::with_capacity(total);
        let mut seg_nodes = Vec::with_capacity(total);
        let mut gram_segments = Vec::with_capacity(gram_count + 1);
        gram_segments.push(0u32);
        let old_gram_count = self.gram_segments.len() - 1;
        let mut new_runs = runs.into_iter().peekable();
        for gram_id in 0..gram_count {
            let (old_start, old_end) = if gram_id < old_gram_count {
                self.segment_range(gram_id as u32)
            } else {
                (0, 0)
            };
            let mut old = (old_start..old_end).peekable();
            loop {
                let new_len = new_runs
                    .peek()
                    .filter(|(g, _, _)| *g as usize == gram_id)
                    .map(|(_, seg, _)| seg.len);
                let take_old = match (old.peek(), new_len) {
                    (Some(&oi), Some(new_len)) => self.segments[oi].len <= new_len,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if take_old {
                    let oi = old.next().expect("peeked");
                    segments.push(self.segments[oi]);
                    seg_dead.push(self.seg_dead[oi]);
                    seg_nodes.push(self.seg_nodes[oi]);
                } else {
                    let (_, seg, nodes) = new_runs.next().expect("peeked");
                    segments.push(seg);
                    seg_dead.push(0);
                    seg_nodes.push(nodes);
                }
            }
            gram_segments.push(segments.len() as u32);
        }
        self.segments = segments;
        self.seg_dead = seg_dead;
        self.seg_nodes = seg_nodes;
        self.gram_segments = gram_segments;
    }

    /// Append a batch of trees to the index; they take consecutive ids from
    /// `first`, which must be the next tree index of the repository the index
    /// covers. A node whose spelling is already live is a push onto that
    /// name's node list plus a node-weight bump on the name's segments — no
    /// posting, no directory work. Only a spelling that is new, or that comes
    /// back after a compaction reclaimed it, posts: the arena grows tail runs
    /// and the segment directory is remerged, once for the whole batch. A
    /// spelling that comes back while its dead postings are still in the
    /// arena is revived in place.
    pub fn append_trees(&mut self, first: xsm_schema::TreeId, trees: &[xsm_schema::SchemaTree]) {
        let mut to_post: Vec<NameId> = Vec::new();
        let mut segs: Vec<usize> = Vec::new();
        for (tid, tree) in (first.0..).map(xsm_schema::TreeId).zip(trees) {
            let old_names = self.store.name_count();
            let old_nodes = self.store.len();
            self.store.append_tree(tid, tree);
            for name in old_names..self.store.name_count() {
                self.register_name(name as NameId);
            }
            for (name, added) in name_counts(&self.store.node_names()[old_nodes..]) {
                let awakened = self.store.nodes_of_name(name).len() == added as usize;
                if !self.posted[name as usize] {
                    // Posted after the batch, with all the node weight the
                    // batch gave it; a later tree of the batch finds it
                    // already waiting.
                    if awakened {
                        to_post.push(name);
                    }
                } else {
                    self.segments_of(name, &mut segs);
                    for &i in &segs {
                        self.seg_nodes[i] += added;
                        if awakened {
                            self.seg_dead[i] -= 1;
                        }
                    }
                    if awakened {
                        self.dead_postings -= segs.len();
                    }
                }
                self.sync_exact_group(name, tid);
            }
        }
        self.post_names(&to_post);
    }

    /// Tombstone tree `tid`: its nodes leave their names' node lists, so no
    /// lookup returns them and the node-weighted segment sizes shrink; a name
    /// left with **no** live node has its postings recorded dead per segment
    /// (filtered at candidate emission until a [`NameIndex::compact`]
    /// physically reclaims them). Returns the node-weighted posting volume the
    /// tombstone removed — each deleted node once per distinct gram of its
    /// name, the same number however the forest is sharded — or `None` when
    /// the tree is unknown or already dead.
    pub fn tombstone_tree(&mut self, tid: xsm_schema::TreeId) -> Option<usize> {
        let range = self.store.tombstone_tree(tid)?;
        let mut dropped = 0usize;
        let mut segs: Vec<usize> = Vec::new();
        for (name, removed) in name_counts(&self.store.node_names()[range]) {
            let died = self.store.nodes_of_name(name).is_empty();
            self.segments_of(name, &mut segs);
            for &i in &segs {
                self.seg_nodes[i] -= removed;
                if died {
                    self.seg_dead[i] += 1;
                }
            }
            if died {
                self.dead_postings += segs.len();
            }
            dropped += removed as usize * segs.len();
            self.sync_exact_group(name, tid);
        }
        Some(dropped)
    }

    /// LSM-style compaction: rewrite the posting arena without the postings
    /// of dead names, merging a gram's same-length segment twins (accumulated
    /// by appends) back into one ascending run each. Name ids are *never*
    /// renumbered — a dead name keeps its id and features, and is posted
    /// afresh if an append brings it back — which makes compaction a
    /// physical-layout operation with no logical effect (and no generation
    /// bump). Returns the number of postings reclaimed.
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.dead_postings;
        let mut arena = Vec::with_capacity(self.arena.len() - self.dead_postings);
        let mut arena_pos = Vec::with_capacity(arena.capacity());
        let mut segments = Vec::with_capacity(self.segments.len());
        let mut seg_nodes = Vec::with_capacity(self.segments.len());
        let mut gram_segments = Vec::with_capacity(self.gram_segments.len());
        gram_segments.push(0u32);
        let mut run: Vec<(NameId, u32)> = Vec::new();
        for gram_id in 0..self.gram_segments.len() - 1 {
            let (seg_start, seg_end) = self.segment_range(gram_id as u32);
            let mut i = seg_start;
            while i < seg_end {
                let len = self.segments[i].len;
                run.clear();
                let mut nodes = 0u32;
                while i < seg_end && self.segments[i].len == len {
                    let seg = self.segments[i];
                    for k in seg.start as usize..seg.end as usize {
                        let name = self.arena[k];
                        if self.is_dead(name) {
                            self.posted[name as usize] = false;
                        } else {
                            run.push((name, self.arena_pos[k]));
                        }
                    }
                    nodes += self.seg_nodes[i];
                    i += 1;
                }
                if run.is_empty() {
                    continue;
                }
                // Each twin is ascending, but a name posted afresh in a later
                // twin may sort before an older twin's names.
                run.sort_unstable_by_key(|&(name, _)| name);
                let start = arena.len() as u32;
                for &(name, pos) in &run {
                    arena.push(name);
                    arena_pos.push(pos);
                }
                segments.push(LenSegment {
                    len,
                    start,
                    end: arena.len() as u32,
                });
                seg_nodes.push(nodes);
            }
            gram_segments.push(segments.len() as u32);
        }
        self.arena = arena;
        self.arena_pos = arena_pos;
        self.segments = segments;
        self.gram_segments = gram_segments;
        self.seg_dead = vec![0; self.segments.len()];
        self.seg_nodes = seg_nodes;
        self.dead_postings = 0;
        reclaimed
    }

    /// Posting entries in the arena, dead ones included: one per (gram, posted
    /// name) pair — however many nodes carry the name.
    pub fn posting_count(&self) -> usize {
        self.arena.len()
    }

    /// Entries in the length-segment directory (same-length twins left by
    /// appends count separately until a compaction merges them).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Postings of dead names (names with no live node) still occupying the
    /// arena.
    pub fn dead_postings(&self) -> usize {
        self.dead_postings
    }

    /// Fraction of the arena occupied by postings of dead names (0 when
    /// empty) — the dead-weight measure compaction thresholds are expressed
    /// in. Deleting a tree whose names all live on elsewhere adds nothing here.
    pub fn dead_posting_fraction(&self) -> f64 {
        if self.arena.is_empty() {
            0.0
        } else {
            self.dead_postings as f64 / self.arena.len() as f64
        }
    }

    /// The tombstoned trees, ascending — what a snapshot persists.
    pub fn tombstoned_trees(&self) -> &[xsm_schema::TreeId] {
        self.store.dead_trees()
    }

    /// The flat posting arena (name ids), for serialization.
    pub(crate) fn arena_raw(&self) -> &[NameId] {
        &self.arena
    }

    /// Packed gram positions parallel to the arena, for serialization.
    pub(crate) fn arena_pos_raw(&self) -> &[u32] {
        &self.arena_pos
    }

    /// The length-segment directory, for serialization.
    pub(crate) fn segments_raw(&self) -> &[LenSegment] {
        &self.segments
    }

    /// The per-gram segment-directory offsets, for serialization.
    pub(crate) fn gram_segments_raw(&self) -> &[u32] {
        &self.gram_segments
    }

    /// Character length of every name's lowercased form, for serialization.
    pub(crate) fn lens_raw(&self) -> &[u32] {
        &self.lens
    }

    /// Number of distinct name spellings in the name table — the id space the
    /// postings and the ScanCount counters range over. Like
    /// [`FeatureStore::name_count`] it includes names whose nodes were all
    /// deleted.
    pub fn distinct_names(&self) -> usize {
        self.store.name_count()
    }

    /// The name table (shared gram interner, one `NameFeatures` per distinct
    /// spelling, each name's live nodes) built alongside the index.
    pub fn features(&self) -> &FeatureStore {
        &self.store
    }

    /// Nodes whose name equals `name` (case-insensitive), ascending.
    pub fn lookup_exact(&self, name: &str) -> &[GlobalNodeId] {
        match self.exact.get(&name.to_lowercase()) {
            None => &[],
            Some(group) => match group.names[..] {
                [only] => self.store.nodes_of_name(only),
                _ => &group.merged,
            },
        }
    }

    /// The spellings equal to `name` case-insensitively, ascending by id —
    /// the name-level form of [`NameIndex::lookup_exact`]. Dead names are
    /// included; their node lists are empty.
    pub fn exact_names(&self, name: &str) -> &[NameId] {
        self.exact
            .get(&name.to_lowercase())
            .map_or(&[], |group| &group.names)
    }

    /// Resolve a query name against this index's interner once; the result feeds
    /// [`NameIndex::lookup_candidates_resolved`] and
    /// [`NameIndex::estimate_candidate_volume_resolved`] without re-walking the
    /// name's grams.
    pub fn resolve_query(&self, name: &str) -> ResolvedQuery {
        let (known, known_pos, distinct, char_len) = self.store.query_profile(name);
        ResolvedQuery {
            known,
            known_pos,
            distinct,
            char_len,
        }
    }

    /// The node-level form of the resolved lookup:
    /// [`NameIndex::lookup_names_resolved`] fanned out over the surviving
    /// names' node lists, ascending. The matcher scores names, not nodes, and
    /// calls the name-level lookup directly.
    pub fn lookup_candidates_resolved(
        &self,
        resolved: &ResolvedQuery,
        min_overlap_fraction: f64,
        window: LengthWindow,
        policy: MergePolicy,
        scratch: &mut CandidateScratch,
    ) -> (Vec<GlobalNodeId>, CandidateStats) {
        let (names, stats) =
            self.lookup_names_resolved(resolved, min_overlap_fraction, window, policy, scratch);
        (self.fan_out(names), stats)
    }

    /// The nodes of `names`, ascending.
    fn fan_out(&self, names: &[NameId]) -> Vec<GlobalNodeId> {
        let mut nodes: Vec<GlobalNodeId> = Vec::new();
        for &name in names {
            nodes.extend_from_slice(self.store.nodes_of_name(name));
        }
        nodes.sort_unstable();
        nodes
    }

    /// The resolved-query core of the filter–verify lookup, at the level it
    /// runs on: the live names (ascending, held in `scratch`) that pass the
    /// length window, the T-occurrence count filter and — under a finite
    /// window — the positional filter. Each returned name stands for every
    /// node in [`FeatureStore::nodes_of_name`].
    pub fn lookup_names_resolved<'s>(
        &self,
        resolved: &ResolvedQuery,
        min_overlap_fraction: f64,
        window: LengthWindow,
        policy: MergePolicy,
        scratch: &'s mut CandidateScratch,
    ) -> (&'s [NameId], CandidateStats) {
        let mut stats = CandidateStats::default();
        scratch.out.clear();
        if resolved.distinct == 0 {
            return (&scratch.out, stats);
        }
        let needed = ((min_overlap_fraction * resolved.distinct as f64).ceil() as usize).max(1);

        // Length filter: collect the in-window segments. Sizes and volumes
        // count *live names* — what the merge below actually touches; segments
        // whose names are all dead vanish entirely, like a from-scratch
        // rebuild never having had them.
        scratch.segs.clear();
        for &gram_id in &resolved.known {
            let (seg_start, seg_end) = self.segment_range(gram_id);
            for i in seg_start..seg_end {
                let seg = self.segments[i];
                let size = (seg.end - seg.start - self.seg_dead[i]) as usize;
                if size == 0 {
                    continue;
                }
                stats.volume_total += size;
                if window.admits(resolved.char_len, seg.len as usize) {
                    scratch.segs.push((seg.len, seg.start, seg.end));
                    stats.volume_in_window += size;
                } else {
                    stats.segments_skipped += 1;
                }
            }
        }
        // A name can occur at most once per known gram, so a bound above the known
        // gram count (or the surviving segment count) is unreachable.
        if needed > resolved.known.len()
            || needed > scratch.segs.len()
            || stats.volume_in_window == 0
        {
            return (&scratch.out, stats);
        }

        // The `u8` counters saturate, so a counter at 255 clears any bound up to
        // 255. A bound past it is decided only by ScanCount's exact recount of
        // the saturated names.
        let algorithm = match policy {
            _ if needed > u8::MAX as usize => MergeAlgorithm::ScanCount,
            MergePolicy::ScanCount => MergeAlgorithm::ScanCount,
            MergePolicy::ScanProbe => MergeAlgorithm::ScanProbe,
            MergePolicy::Auto if stats.volume_in_window <= crate::simd::scan_count_max_volume() => {
                MergeAlgorithm::ScanCount
            }
            MergePolicy::Auto => MergeAlgorithm::ScanProbe,
        };
        stats.algorithm = algorithm;
        match algorithm {
            MergeAlgorithm::ScanCount => {
                scratch.runs.clear();
                scratch
                    .runs
                    .extend(scratch.segs.iter().map(|&(_, s, e)| (s, e)));
                self.merge_scan_count(resolved, needed, scratch, &mut stats);
            }
            MergeAlgorithm::ScanProbe => self.merge_scan_probe(needed, scratch, &mut stats),
        }
        if let LengthWindow::FuzzyFloor(floor) = window {
            self.positional_filter(resolved, floor, scratch, &mut stats);
        }
        (&scratch.out, stats)
    }

    /// Positional q-gram filter over the count-filter survivors in
    /// `scratch.out` (the FuzzyFloor refinement of the classic count filter,
    /// Gravano et al.'s position-augmented T-occurrence idea adapted to the
    /// packed first/last intervals the arena stores).
    ///
    /// Soundness: a candidate scoring `>= floor` is within `k` OSA edits of
    /// the query (same float expression as the kernel, see
    /// [`max_edits_for_floor`]). Each edit destroys at most `q + 1` gram
    /// occurrences and shifts no surviving occurrence by more than `k`
    /// positions, so at least `distinct - k * (q + 1)` distinct query grams
    /// keep a surviving occurrence — each of which the candidate contains at
    /// a position within `k` of a query occurrence, making its packed
    /// first/last intervals overlap under slack `k`. Counting the grams that
    /// pass the interval test therefore reaches the bound for every true
    /// match; candidates below it are provably below the floor.
    fn positional_filter(
        &self,
        resolved: &ResolvedQuery,
        floor: f64,
        scratch: &mut CandidateScratch,
        stats: &mut CandidateStats,
    ) {
        if resolved.known.is_empty() || scratch.out.is_empty() {
            return;
        }
        let per_edit = (self.q + 1) as i64;
        let mut kept = 0usize;
        for idx in 0..scratch.out.len() {
            let name = scratch.out[idx];
            let c_len = self.lens[name as usize] as usize;
            let k = max_edits_for_floor(floor, resolved.char_len, c_len);
            let bound = resolved.distinct as i64 - k as i64 * per_edit;
            if bound <= 0 {
                // The edit budget could destroy every gram — nothing to test.
                scratch.out[kept] = name;
                kept += 1;
                continue;
            }
            let bound = bound as usize;
            let mut compatible = 0usize;
            for (g_i, (&gram_id, &q_pos)) in
                resolved.known.iter().zip(&resolved.known_pos).enumerate()
            {
                if compatible + (resolved.known.len() - g_i) < bound {
                    break; // the remaining grams cannot reach the bound
                }
                if let Some(c_pos) = self.posting_position(gram_id, name) {
                    if positions_compatible(q_pos, c_pos, k) {
                        compatible += 1;
                        if compatible >= bound {
                            break;
                        }
                    }
                }
            }
            if compatible >= bound {
                scratch.out[kept] = name;
                kept += 1;
            } else {
                stats.positional_rejections += 1;
            }
        }
        scratch.out.truncate(kept);
    }

    /// The packed gram-position entry of `name` in `gram_id`'s posting list,
    /// or `None` when the name does not contain the gram.
    fn posting_position(&self, gram_id: u32, name: NameId) -> Option<u32> {
        let seg = self.segments[self.find_segment(gram_id, self.lens[name as usize], name)?];
        let off = self.arena[seg.start as usize..seg.end as usize]
            .binary_search(&name)
            .ok()?;
        Some(self.arena_pos[seg.start as usize + off])
    }

    /// The counting pass shared by ScanCount and ScanProbe: dense `u8` counters
    /// over `scratch.runs`, first touches recorded so the counters can be reset
    /// in time proportional to the candidates touched, not the corpus.
    fn scan_runs(&self, scratch: &mut CandidateScratch, stats: &mut CandidateStats) {
        scratch.counts.resize(self.store.name_count(), 0);
        scratch.touched.clear();
        for &(start, end) in &scratch.runs {
            crate::simd::accumulate_run(
                &self.arena[start as usize..end as usize],
                &mut scratch.counts,
                &mut scratch.touched,
            );
        }
        stats.candidates_examined = scratch.touched.len();
    }

    /// ScanCount: one dense `u8` counter per name, reset through the touched list
    /// so the per-query cost scales with the candidates touched, not the corpus.
    /// A counter saturated at 255 under a bound past 255 is recounted exactly.
    fn merge_scan_count(
        &self,
        resolved: &ResolvedQuery,
        needed: usize,
        scratch: &mut CandidateScratch,
        stats: &mut CandidateStats,
    ) {
        self.scan_runs(scratch, stats);
        scratch.out.clear();
        for &name in &scratch.touched {
            let count = scratch.counts[name as usize];
            scratch.counts[name as usize] = 0;
            let qualifies = count as usize >= needed
                || (count == u8::MAX && self.shares_at_least(resolved, name, needed));
            if qualifies && !self.is_dead(name) {
                scratch.out.push(name);
            }
        }
        scratch.out.sort_unstable();
    }

    /// Whether `name` contains at least `needed` of the query's known grams,
    /// counted exactly. Each probe looks only in the name's own length
    /// segment, which is in the window because the name was counted there.
    fn shares_at_least(&self, resolved: &ResolvedQuery, name: NameId, needed: usize) -> bool {
        let mut shared = 0usize;
        for (g_i, &gram_id) in resolved.known.iter().enumerate() {
            if shared + (resolved.known.len() - g_i) < needed {
                return false; // the remaining grams cannot reach the bound
            }
            if self.posting_position(gram_id, name).is_some() {
                shared += 1;
                if shared >= needed {
                    return true;
                }
            }
        }
        false
    }

    /// ScanProbe: the length-bucketed refinement of DivideSkip (Li et al.). A
    /// candidate has exactly one name length, so per length bucket the up-to
    /// `needed − 1` largest segments can be excluded from scanning: a candidate
    /// appearing **only** in those probe segments tops out at `needed − 1`
    /// occurrences and can never qualify. The short segments are ScanCounted;
    /// each touched candidate that could still reach the bound binary-probes the
    /// probe segments **of its own length**. The heaviest postings — common grams
    /// at common lengths — are never merged at all.
    fn merge_scan_probe(
        &self,
        needed: usize,
        scratch: &mut CandidateScratch,
        stats: &mut CandidateStats,
    ) {
        // Partition: group segments by length, largest first within a group, and
        // designate up to `needed − 1` worthwhile leaders per group probe-only.
        scratch
            .segs
            .sort_unstable_by_key(|&(len, start, end)| (len, Reverse(end - start)));
        scratch.long.clear();
        scratch.runs.clear();
        let mut group_len = u32::MAX;
        let mut group_taken = 0usize;
        for &(len, start, end) in scratch.segs.iter() {
            if len != group_len {
                group_len = len;
                group_taken = 0;
            }
            if group_taken < needed - 1 && (end - start) as usize >= PROBE_MIN_SEGMENT {
                scratch.long.push((len, start, end));
                group_taken += 1;
                stats.postings_skipped += (end - start) as usize;
            } else {
                scratch.runs.push((start, end));
            }
        }

        // ScanCount over the short segments.
        self.scan_runs(scratch, stats);

        // Qualification: top a candidate's short count up with probes into the
        // probe segments of its length (`scratch.long` is sorted by length, so the
        // per-length slice is one binary-searched range).
        scratch.out.clear();
        for &name in &scratch.touched {
            let short_count = scratch.counts[name as usize] as usize;
            scratch.counts[name as usize] = 0;
            if self.is_dead(name) {
                continue;
            }
            let len = self.lens[name as usize];
            let group_start = scratch.long.partition_point(|&(l, _, _)| l < len);
            let group_end =
                scratch.long[group_start..].partition_point(|&(l, _, _)| l == len) + group_start;
            let potential = group_end - group_start;
            if short_count + potential < needed {
                continue;
            }
            let mut total = short_count;
            for &(_, start, end) in &scratch.long[group_start..group_end] {
                stats.probes += 1;
                if self.arena[start as usize..end as usize]
                    .binary_search(&name)
                    .is_ok()
                {
                    total += 1;
                }
                if total >= needed {
                    break;
                }
            }
            if total >= needed {
                scratch.out.push(name);
            }
        }
        scratch.out.sort_unstable();
    }

    /// The q used when the index was built.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of nodes indexed and alive (tombstoned nodes are not served, so
    /// they do not count).
    pub fn indexed_nodes(&self) -> usize {
        self.store.alive_len()
    }

    /// Whether `name` has no live node (its postings, if still in the arena,
    /// are dead weight).
    #[inline]
    fn is_dead(&self, name: NameId) -> bool {
        self.store.nodes_of_name(name).is_empty()
    }

    /// Segment-directory range of one gram.
    fn segment_range(&self, gram_id: u32) -> (usize, usize) {
        (
            self.gram_segments[gram_id as usize] as usize,
            self.gram_segments[gram_id as usize + 1] as usize,
        )
    }

    /// Number of live nodes whose name contains the q-gram (0 for grams
    /// absent from the index) — the gram's node-weighted posting length.
    pub fn gram_posting_len(&self, gram: &str) -> usize {
        self.store
            .interner()
            .lookup(gram)
            .map(|id| {
                let (seg_start, seg_end) = self.segment_range(id);
                self.seg_nodes[seg_start..seg_end]
                    .iter()
                    .map(|&nodes| nodes as usize)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Upper bound on the work of an unwindowed candidate lookup for `name`: the
    /// summed posting-list lengths of the query's distinct q-grams. Query planners use
    /// this to decide between index-pruned and exhaustive candidate generation without
    /// materialising the candidates. Pure integer work: grams are resolved to interned
    /// ids once and the sums read the dense segment directory.
    pub fn estimate_candidate_volume(&self, name: &str) -> usize {
        self.estimate_candidate_volume_resolved(&self.resolve_query(name), LengthWindow::Infinite)
    }

    /// The length-aware volume estimate: summed posting volume of the resolved
    /// query's **in-window** segments — the post-length-filter work bound the
    /// planner's pruned-vs-exhaustive decision uses.
    pub fn estimate_candidate_volume_resolved(
        &self,
        resolved: &ResolvedQuery,
        window: LengthWindow,
    ) -> usize {
        let mut volume = 0usize;
        for &gram_id in &resolved.known {
            let (seg_start, seg_end) = self.segment_range(gram_id);
            for i in seg_start..seg_end {
                let seg = self.segments[i];
                if window.admits(resolved.char_len, seg.len as usize) {
                    volume += self.seg_nodes[i] as usize;
                }
            }
        }
        volume
    }

    /// Per-name-length breakdown of the resolved query's posting volume, ascending
    /// by length: what a planner (or an operator) sees before choosing a window.
    pub fn candidate_volume_by_length(&self, resolved: &ResolvedQuery) -> Vec<(usize, usize)> {
        let mut by_len: Vec<(usize, usize)> = Vec::new();
        for &gram_id in &resolved.known {
            let (seg_start, seg_end) = self.segment_range(gram_id);
            for i in seg_start..seg_end {
                let seg = self.segments[i];
                let size = self.seg_nodes[i] as usize;
                if size == 0 {
                    continue;
                }
                match by_len.binary_search_by_key(&(seg.len as usize), |&(l, _)| l) {
                    Ok(pos) => by_len[pos].1 += size,
                    Err(pos) => by_len.insert(pos, (seg.len as usize, size)),
                }
            }
        }
        by_len
    }

    /// Number of q-grams the indexed node's name produced (0 for unknown nodes).
    pub fn gram_count(&self, id: GlobalNodeId) -> usize {
        self.store
            .features_of(id)
            .map(|f| f.gram_total())
            .unwrap_or(0)
    }
}

/// Do the packed first/last position intervals of a query gram (`qp`) and a
/// candidate gram (`cp`) overlap once widened by an edit budget of `k`?
///
/// Positions are window indices in the `#`-padded gram stream, packed as
/// `first << 16 | last` with both halves clamped to `u16`. A clamped half
/// (`0xFFFF`) means the true position may be larger than what was stored, so
/// the test is inexact there and must keep the candidate.
fn positions_compatible(qp: u32, cp: u32, k: u32) -> bool {
    let (qmin, qmax) = (qp >> 16, qp & 0xFFFF);
    let (cmin, cmax) = (cp >> 16, cp & 0xFFFF);
    if qmin == 0xFFFF || qmax == 0xFFFF || cmin == 0xFFFF || cmax == 0xFFFF {
        return true;
    }
    cmin <= qmax + k && cmax + k >= qmin
}

/// Largest edit distance `k` for which [`normalized_similarity`] of a
/// `q_len`-char query and `c_len`-char candidate can still reach `floor`.
///
/// Evaluated against the exact float expression the scoring kernel uses (not
/// its algebraic rearrangement) so the filter's edit budget can never be
/// tighter than the verifier's accept region: start at the algebraic bound and
/// settle with the real predicate in both directions.
fn max_edits_for_floor(floor: f64, q_len: usize, c_len: usize) -> u32 {
    let m = q_len.max(c_len);
    if m == 0 {
        // normalized_similarity(d, 0, 0) is 1.0 for every d; without this
        // guard the widening loop below would never terminate.
        return 0;
    }
    let mut k = (((1.0 - floor) * m as f64).floor() as i64).clamp(0, m as i64) as usize;
    while k > 0 && normalized_similarity(k, q_len, c_len) < floor {
        k -= 1;
    }
    while k < m && normalized_similarity(k + 1, q_len, c_len) >= floor {
        k += 1;
    }
    k as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::{SchemaNode, TreeBuilder};
    use xsm_similarity::ngram::qgrams;

    fn small_repo() -> SchemaRepository {
        let other = TreeBuilder::new("contacts")
            .root(SchemaNode::element("person"))
            .child(SchemaNode::element("name"))
            .sibling(SchemaNode::element("emailAddress"))
            .sibling(SchemaNode::element("address"))
            .build();
        SchemaRepository::from_trees(vec![paper_repository_fragment(), other])
    }

    /// The node-level lookup under the serving merge policy.
    fn lookup(idx: &NameIndex, name: &str, frac: f64, window: LengthWindow) -> Vec<GlobalNodeId> {
        let mut scratch = CandidateScratch::default();
        idx.lookup_candidates_resolved(
            &idx.resolve_query(name),
            frac,
            window,
            MergePolicy::Auto,
            &mut scratch,
        )
        .0
    }

    #[test]
    fn exact_lookup_is_case_insensitive() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        assert_eq!(idx.lookup_exact("ADDRESS").len(), 2);
        assert_eq!(idx.lookup_exact("title").len(), 1);
        assert_eq!(idx.lookup_exact("nosuchname").len(), 0);
        assert!(idx.distinct_names() >= 9);
    }

    #[test]
    fn approximate_lookup_finds_related_names() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        let candidates = lookup(&idx, "email", 0.3, LengthWindow::Infinite);
        let names: Vec<&str> = candidates.iter().map(|&id| repo.name_of(id)).collect();
        assert!(
            names.contains(&"emailAddress"),
            "expected emailAddress among {names:?}"
        );
        // A strict overlap requirement excludes loosely related names.
        let strict = lookup(&idx, "email", 0.99, LengthWindow::Infinite);
        assert!(strict.len() <= candidates.len());
    }

    #[test]
    fn approximate_lookup_of_exact_name_contains_it() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        let candidates = lookup(&idx, "address", 0.9, LengthWindow::Infinite);
        let names: Vec<&str> = candidates.iter().map(|&id| repo.name_of(id)).collect();
        assert!(names.iter().filter(|&&n| n == "address").count() >= 2);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        // q-gram padding means even "" produces grams, but sanity: tiny queries work.
        let v = lookup(&idx, "x", 0.5, LengthWindow::Infinite);
        // No name contains 'x' grams in this repo.
        assert!(v.is_empty() || v.iter().all(|&id| repo.name_of(id).contains('x')));
    }

    #[test]
    fn gram_counts_recorded_per_node() {
        let repo = small_repo();
        let idx = NameIndex::build_with_q(&repo, 2);
        assert_eq!(idx.q(), 2);
        for (id, node) in repo.nodes() {
            assert_eq!(
                idx.gram_count(id),
                qgrams(&node.name.to_lowercase(), 2).len()
            );
        }
    }

    #[test]
    fn candidate_volume_estimates_lookup_work() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        assert_eq!(idx.indexed_nodes(), repo.total_nodes());
        // The estimate sums posting lists, so it bounds the ids touched by the
        // approximate lookup with the loosest overlap requirement.
        for name in ["address", "email", "person", "qqqq"] {
            let touched: usize = lookup(&idx, name, 0.0, LengthWindow::Infinite).len();
            assert!(
                idx.estimate_candidate_volume(name) >= touched,
                "estimate below actual candidates for {name}"
            );
        }
        // No indexed name shares a gram (even a padded one) with "qqqq".
        assert_eq!(idx.estimate_candidate_volume("qqqq"), 0);
        // "address" appears twice, so each of its grams posts at least two ids.
        assert!(idx.estimate_candidate_volume("address") >= 2);
        assert!(idx.gram_posting_len("add") >= 2);
        assert_eq!(idx.gram_posting_len("no such gram"), 0);
    }

    #[test]
    fn windowed_estimate_never_exceeds_the_infinite_one() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        for name in ["address", "email", "person", "na"] {
            let resolved = idx.resolve_query(name);
            let infinite =
                idx.estimate_candidate_volume_resolved(&resolved, LengthWindow::Infinite);
            assert_eq!(infinite, idx.estimate_candidate_volume(name));
            let mut last = infinite;
            for floor in [0.2, 0.5, 0.8, 1.0] {
                let windowed = idx.estimate_candidate_volume_resolved(
                    &resolved,
                    LengthWindow::fuzzy_floor(floor),
                );
                assert!(windowed <= last, "{name}: tighter floor grew the volume");
                last = windowed;
            }
            // The by-length breakdown sums back to the infinite estimate.
            let by_len = idx.candidate_volume_by_length(&resolved);
            assert_eq!(by_len.iter().map(|&(_, v)| v).sum::<usize>(), infinite);
            assert!(by_len.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        }
    }

    #[test]
    fn length_window_drops_only_sub_floor_candidates() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        for (name, floor) in [("email", 0.5), ("address", 0.7), ("person", 0.9)] {
            let unwindowed = lookup(&idx, name, 0.2, LengthWindow::Infinite);
            let windowed = lookup(&idx, name, 0.2, LengthWindow::fuzzy_floor(floor));
            // Subset of the unwindowed lookup…
            assert!(windowed.iter().all(|id| unwindowed.contains(id)));
            // …and nothing that clears the fuzzy floor was dropped.
            for &id in &unwindowed {
                let sim = xsm_similarity::compare_string_fuzzy(name, repo.name_of(id));
                if sim >= floor {
                    assert!(
                        windowed.contains(&id),
                        "{name}: dropped {:?} with sim {sim} >= {floor}",
                        repo.name_of(id)
                    );
                }
            }
        }
    }

    #[test]
    fn unreachable_overlap_bounds_return_empty() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        let mut scratch = CandidateScratch::default();
        // "emailx" has grams unknown to the corpus; a 0.99 fraction of its distinct
        // grams exceeds the known-gram count, so no candidate can qualify.
        let (got, stats) = idx.lookup_candidates_resolved(
            &idx.resolve_query("emailxyzq"),
            0.99,
            LengthWindow::Infinite,
            MergePolicy::Auto,
            &mut scratch,
        );
        assert!(got.is_empty());
        assert_eq!(stats.candidates_examined, 0);
    }

    #[test]
    fn scratch_is_reusable_across_queries() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        let mut scratch = CandidateScratch::default();
        for _ in 0..3 {
            for name in ["address", "email", "person"] {
                let fresh = lookup(&idx, name, 0.3, LengthWindow::Infinite);
                let (reused, _) = idx.lookup_candidates_resolved(
                    &idx.resolve_query(name),
                    0.3,
                    LengthWindow::Infinite,
                    MergePolicy::Auto,
                    &mut scratch,
                );
                assert_eq!(fresh, reused, "dirty scratch changed {name}");
            }
        }
    }

    #[test]
    fn features_are_exposed_for_scoring() {
        let repo = small_repo();
        let idx = NameIndex::build(&repo);
        assert_eq!(idx.features().len(), repo.total_nodes());
        assert_eq!(idx.features().interner().q(), idx.q());
        for (id, node) in repo.nodes() {
            let f = idx.features().features_of(id).unwrap();
            assert_eq!(&*f.lower, node.name.to_lowercase().as_str());
        }
    }

    #[test]
    fn length_window_admits_conservatively() {
        let w = LengthWindow::fuzzy_floor(0.5);
        // Query of 6 chars: lengths 3..=12 can still reach 0.5.
        assert!(w.admits(6, 3));
        assert!(w.admits(6, 12));
        assert!(!w.admits(6, 2));
        assert!(!w.admits(6, 13));
        // Floors at or below zero collapse to Infinite.
        assert!(LengthWindow::fuzzy_floor(0.0).is_infinite());
        assert!(LengthWindow::fuzzy_floor(-1.0).is_infinite());
        assert!(LengthWindow::Infinite.admits(0, 1_000_000));
        // Empty query vs empty candidate is a perfect pair.
        assert!(LengthWindow::fuzzy_floor(1.0).admits(0, 0));
        assert!(!LengthWindow::fuzzy_floor(1.0).admits(0, 1));
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_panics() {
        let repo = small_repo();
        NameIndex::build_with_q(&repo, 0);
    }
}
