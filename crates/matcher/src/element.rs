//! Element matching (step ② of the paper's architecture).
//!
//! Bellflower uses a single *localized* matcher: the fuzzy name similarity
//! [`compare_string_fuzzy`] of a personal-schema node and a repository node, a
//! value in `[0,1]`.
//!
//! [`match_elements`] runs it over personal × repository and produces the
//! [`CandidateSet`] of mapping elements — the input to both the clusterer and the
//! mapping generators. It and [`match_elements_with_index`] are the string
//! reference paths (one kernel call per node pair);
//! [`match_elements_features`] and [`match_elements_with_index_features_resolved`]
//! are what a serving engine runs: one kernel call per distinct repository name
//! over precomputed features, byte-identical results.

use serde::{Deserialize, Serialize};
use xsm_schema::{GlobalNodeId, NodeId, SchemaTree};
use xsm_similarity::compare_string_fuzzy;

use crate::candidates::{CandidateSet, MappingElement};
use xsm_repo::{
    CandidateScratch, FeatureStore, LengthWindow, MergePolicy, NameId, NameIndex, ResolvedQuery,
    SchemaRepository,
};
use xsm_similarity::features::{fuzzy_features, NameFeatures, SimScratch};

/// Configuration of the element-matching pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElementMatchConfig {
    /// Minimum element similarity for a pair to become a mapping element.
    ///
    /// The paper keeps every pair with a "non-zero similarity index"; with a graded
    /// kernel that would admit almost everything, so Bellflower-style systems in
    /// practice use a floor. 0.5 keeps every repository element whose name is at least
    /// half-way similar to some personal-schema name, which reproduces the paper's
    /// regime of thousands of mapping elements spread over most repository trees.
    pub min_similarity: f64,
    /// Optional cap on the number of mapping elements kept per personal node
    /// (highest-similarity first); `None` keeps everything above the floor.
    pub max_candidates_per_node: Option<usize>,
}

impl Default for ElementMatchConfig {
    fn default() -> Self {
        ElementMatchConfig {
            min_similarity: 0.5,
            max_candidates_per_node: None,
        }
    }
}

impl ElementMatchConfig {
    /// Builder-style floor override (clamped to `[0,1]`).
    pub fn with_min_similarity(mut self, floor: f64) -> Self {
        self.min_similarity = floor.clamp(0.0, 1.0);
        self
    }

    /// Builder-style candidate cap.
    pub fn with_max_candidates(mut self, cap: usize) -> Self {
        self.max_candidates_per_node = Some(cap);
        self
    }
}

/// Run element matching: compare every node of `personal` against every node of `repo`
/// and collect mapping elements with similarity ≥ `config.min_similarity`.
///
/// Complexity is `O(|N_s| · |N_R| · kernel)`; the q-gram index in `xsm-repo` can be
/// used by callers to pre-filter, but the default path mirrors the paper's exhaustive
/// element-matching step.
pub fn match_elements(
    personal: &SchemaTree,
    repo: &SchemaRepository,
    config: &ElementMatchConfig,
) -> CandidateSet {
    let mut set = CandidateSet::new(personal.preorder());
    for i in 0..set.node_count() {
        let pnode = set.personal_nodes()[i];
        let pdata = personal.node(pnode).expect("preorder yields valid ids");
        for (rid, rdata) in repo.nodes() {
            let sim = compare_string_fuzzy(&pdata.name, &rdata.name);
            if sim >= config.min_similarity && sim > 0.0 {
                set.push_at(i, MappingElement::new(pnode, rid, sim));
            }
        }
    }
    set.sort();
    cap(set, config)
}

/// Run element matching through a prebuilt [`NameIndex`]: for every personal node,
/// only the repository nodes surfaced by the exact and approximate (q-gram) lookups
/// are scored, instead of scanning the whole forest.
///
/// `min_overlap` is the q-gram overlap fraction of the index's count filter
/// ([`NameIndex::lookup_candidates_resolved`]). The filter is not lossless at any
/// similarity floor: it prunes pairs the exhaustive scan would keep, even at the
/// default floor 0.5 with `min_overlap` 0.5 (a few edits can remove most grams of a
/// short name) — which is exactly the recall/latency trade a serving layer plans
/// per query.
pub fn match_elements_with_index(
    personal: &SchemaTree,
    repo: &SchemaRepository,
    index: &NameIndex,
    config: &ElementMatchConfig,
    min_overlap: f64,
) -> CandidateSet {
    let mut set = CandidateSet::new(personal.preorder());
    let mut scratch = CandidateScratch::default();
    for i in 0..set.node_count() {
        let pnode = set.personal_nodes()[i];
        let pdata = personal.node(pnode).expect("preorder yields valid ids");
        for rid in index_candidates(index, &pdata.name, min_overlap, &mut scratch) {
            let rdata = repo.node(rid).expect("index ids are valid");
            let sim = compare_string_fuzzy(&pdata.name, &rdata.name);
            if sim >= config.min_similarity && sim > 0.0 {
                set.push_at(i, MappingElement::new(pnode, rid, sim));
            }
        }
    }
    set.sort();
    cap(set, config)
}

/// Candidate retrieval of the string reference path: the unwindowed count filter
/// plus exact lookups, deduplicated, in canonical id order. The feature path
/// retrieves *names* through [`NameIndex::lookup_names_resolved`] under a length
/// window instead — a *pre-scoring* subset — but both paths apply the same
/// `min_similarity` floor after scoring, and the window only drops pairs whose
/// length difference already caps them below that floor, so the **scored**
/// candidate sets (and therefore the byte-identical replay guarantee) are
/// unchanged.
fn index_candidates(
    index: &NameIndex,
    name: &str,
    min_overlap: f64,
    scratch: &mut CandidateScratch,
) -> Vec<GlobalNodeId> {
    let (mut candidates, _) = index.lookup_candidates_resolved(
        &index.resolve_query(name),
        min_overlap,
        LengthWindow::Infinite,
        MergePolicy::Auto,
        scratch,
    );
    candidates.extend_from_slice(index.lookup_exact(name));
    candidates.sort();
    candidates.dedup();
    candidates
}

/// One personal node's side of name-level element matching: the repository
/// names that cleared the floor with the score each earned, and the merge
/// buffer for names that tied. Reused across the personal nodes of a call.
#[derive(Default)]
struct NameHits {
    scored: Vec<(f64, NameId)>,
    tied: Vec<GlobalNodeId>,
}

impl NameHits {
    /// Score one repository name against the personal node's features — the
    /// **only** kernel call the name's nodes get — and keep it if it clears
    /// the floor.
    fn score(
        &mut self,
        personal: &NameFeatures,
        name: NameId,
        features: &NameFeatures,
        config: &ElementMatchConfig,
        scratch: &mut SimScratch,
    ) {
        let sim = fuzzy_features(personal, features, scratch);
        if sim >= config.min_similarity && sim > 0.0 {
            self.scored.push((sim, name));
        }
    }

    /// Fan the kept scores out to the names' live nodes as the mapping
    /// elements of personal node `pnode` (canonical index `i`), already in the
    /// order [`CandidateSet::sort`] gives: similarity descending, repository
    /// node ascending. A name's node list is ascending, so only names that
    /// tied on the score need their nodes merged.
    fn fan_out(&mut self, set: &mut CandidateSet, i: usize, pnode: NodeId, store: &FeatureStore) {
        self.scored
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut rest = &self.scored[..];
        while let Some(&(sim, first)) = rest.first() {
            let ties = rest.iter().take_while(|&&(s, _)| s == sim).count();
            if ties == 1 {
                for &rid in store.nodes_of_name(first) {
                    set.push_at(i, MappingElement::new(pnode, rid, sim));
                }
            } else {
                self.tied.clear();
                for &(_, name) in &rest[..ties] {
                    self.tied.extend_from_slice(store.nodes_of_name(name));
                }
                self.tied.sort_unstable();
                for &rid in &self.tied {
                    set.push_at(i, MappingElement::new(pnode, rid, sim));
                }
            }
            rest = &rest[ties..];
        }
        self.scored.clear();
    }
}

/// Element matching through the repository's [`FeatureStore`]: the zero-allocation
/// fast path of [`match_elements`].
///
/// The matcher is localized — a pair's score depends on the two names only —
/// so the pass runs over **names**: query-side [`xsm_similarity::NameFeatures`]
/// are built once per personal node, each live repository name is scored once
/// by [`fuzzy_features`] (bit-identical to [`compare_string_fuzzy`] on the
/// names), and the score is fanned out to every node that carries the name.
/// This produces byte-identical candidate sets to [`match_elements`] in
/// `|N_s| · distinct names`
/// kernel calls instead of `|N_s| · |N_R|`, with no allocation and no hashing
/// in the inner loop (bit-parallel edit distance for names of ≤ 64 characters,
/// blocked beyond).
pub fn match_elements_features(
    personal: &SchemaTree,
    store: &FeatureStore,
    config: &ElementMatchConfig,
    scratch: &mut SimScratch,
) -> CandidateSet {
    let mut set = CandidateSet::new(personal.preorder());
    let mut hits = NameHits::default();
    for i in 0..set.node_count() {
        let pnode = set.personal_nodes()[i];
        let pdata = personal.node(pnode).expect("preorder yields valid ids");
        let pfeatures = store.query_features(&pdata.name);
        // Live names only: tombstoned trees must be invisible to the
        // exhaustive path exactly as the index-pruned path filters them.
        for (name, rfeatures, _) in store.live_names() {
            hits.score(&pfeatures, name, rfeatures, config, scratch);
        }
        hits.fan_out(&mut set, i, pnode, store);
    }
    cap(set, config)
}

/// Resolve every personal name against `index`, in the tree's pre-order — the
/// slice [`match_elements_with_index_features_resolved`] consumes. Exposed so a
/// serving engine can resolve once and share the result with its query planner
/// ([`xsm_repo::NameIndex::resolve_query`] is also what the planner's windowed
/// volume estimate reads).
pub fn resolve_personal_queries(personal: &SchemaTree, index: &NameIndex) -> Vec<ResolvedQuery> {
    personal
        .preorder()
        .iter()
        .map(|&node| {
            let data = personal.node(node).expect("preorder yields valid ids");
            index.resolve_query(&data.name)
        })
        .collect()
}

/// Index-pruned element matching through the [`FeatureStore`]: the zero-allocation
/// fast path of [`match_elements_with_index`] for the paper's fuzzy name kernel.
/// Candidate retrieval runs the filter–verify pipeline (length-bucketed postings,
/// count-threshold merging over `candidates` scratch) with the length window
/// derived from `config.min_similarity`; scoring runs on interned ids and
/// precomputed features. Results are byte-identical to the string path: the
/// window only skips pairs the similarity floor would reject after scoring
/// anyway.
///
/// The per-node query resolutions come from the caller
/// ([`resolve_personal_queries`], `resolved` parallel to `personal.preorder()`),
/// so a pipeline that already resolved the names for planning never re-walks
/// their grams here.
///
/// Per personal node: one name-level filter lookup
/// ([`NameIndex::lookup_names_resolved`]), the exact-name spellings added
/// (always in-window — equal lowercased names have equal lengths — so the
/// union stays complete), one kernel call per surviving **name**, and the
/// score fanned out to the name's nodes.
pub fn match_elements_with_index_features_resolved(
    personal: &SchemaTree,
    index: &NameIndex,
    config: &ElementMatchConfig,
    min_overlap: f64,
    resolved: &[ResolvedQuery],
    scratch: &mut SimScratch,
    candidates: &mut CandidateScratch,
) -> CandidateSet {
    let store = index.features();
    let window = LengthWindow::fuzzy_floor(config.min_similarity);
    let mut set = CandidateSet::new(personal.preorder());
    assert_eq!(
        resolved.len(),
        set.node_count(),
        "one resolved query per personal node, in pre-order"
    );
    let mut hits = NameHits::default();
    for (i, presolved) in resolved.iter().enumerate() {
        let pnode = set.personal_nodes()[i];
        let pdata = personal.node(pnode).expect("preorder yields valid ids");
        let pfeatures = store.query_features(&pdata.name);
        let (names, _) = index.lookup_names_resolved(
            presolved,
            min_overlap,
            window,
            MergePolicy::Auto,
            candidates,
        );
        for &name in names {
            hits.score(&pfeatures, name, store.name_features(name), config, scratch);
        }
        for &name in index.exact_names(&pdata.name) {
            // `names` is ascending; a spelling the filter already surfaced is
            // scored once. A dead spelling fans out to nothing.
            if names.binary_search(&name).is_err() {
                hits.score(&pfeatures, name, store.name_features(name), config, scratch);
            }
        }
        hits.fan_out(&mut set, i, pnode, store);
    }
    cap(set, config)
}

/// Shared tail of the `match_elements*` entry points: apply the optional
/// per-node candidate cap to a sorted set (highest-similarity first).
fn cap(mut set: CandidateSet, config: &ElementMatchConfig) -> CandidateSet {
    if let Some(cap) = config.max_candidates_per_node {
        set.truncate_per_node(cap);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::{paper_personal_schema, paper_repository_fragment};

    fn fig1_repo() -> SchemaRepository {
        SchemaRepository::from_trees(vec![paper_repository_fragment()])
    }

    #[test]
    fn match_elements_scores_with_the_fuzzy_kernel() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let config = ElementMatchConfig::default().with_min_similarity(0.0);
        let set = match_elements(&personal, &repo, &config);
        assert!(set.total_candidates() > 0);
        for m in set.iter() {
            let pname = &personal.node(m.personal).unwrap().name;
            assert_eq!(
                m.similarity.to_bits(),
                compare_string_fuzzy(pname, repo.name_of(m.repo)).to_bits()
            );
        }
    }

    #[test]
    fn match_elements_on_fig1() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let set = match_elements(&personal, &repo, &ElementMatchConfig::default());
        // Personal node "book" must find repository node "book", "title" finds "title",
        // "author" finds "authorName".
        let book = personal.find_by_name("book").unwrap();
        let title = personal.find_by_name("title").unwrap();
        let author = personal.find_by_name("author").unwrap();
        let names_for = |n| {
            set.candidates_for(n)
                .iter()
                .map(|m| repo.name_of(m.repo).to_string())
                .collect::<Vec<_>>()
        };
        assert!(names_for(book).contains(&"book".to_string()));
        assert!(names_for(title).contains(&"title".to_string()));
        assert!(names_for(author).contains(&"authorName".to_string()));
        assert!(set.is_useful());
        // Exact matches rank first.
        assert_eq!(repo.name_of(set.candidates_for(title)[0].repo), "title");
    }

    #[test]
    fn floor_filters_weak_pairs() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let lenient = match_elements(
            &personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.1),
        );
        let strict = match_elements(
            &personal,
            &repo,
            &ElementMatchConfig::default().with_min_similarity(0.9),
        );
        assert!(lenient.total_candidates() > strict.total_candidates());
        assert!(strict.iter().all(|m| m.similarity >= 0.9));
    }

    #[test]
    fn candidate_cap_limits_per_node() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let capped = match_elements(
            &personal,
            &repo,
            &ElementMatchConfig::default()
                .with_min_similarity(0.0)
                .with_max_candidates(2),
        );
        for &n in capped.personal_nodes() {
            assert!(capped.candidates_for(n).len() <= 2);
        }
    }

    #[test]
    fn indexed_matching_agrees_with_exhaustive_on_found_pairs() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let index = NameIndex::build(&repo);
        let config = ElementMatchConfig::default().with_min_similarity(0.5);
        let exhaustive = match_elements(&personal, &repo, &config);
        let indexed = match_elements_with_index(&personal, &repo, &index, &config, 0.3);
        // Index pruning is a subset of the exhaustive scan with identical scores.
        assert!(indexed.total_candidates() <= exhaustive.total_candidates());
        for m in indexed.iter() {
            assert!(exhaustive
                .candidates_for(m.personal)
                .iter()
                .any(|e| e.repo == m.repo && e.similarity == m.similarity));
        }
        // The high-similarity pairs survive the pruning.
        let title = personal.find_by_name("title").unwrap();
        assert_eq!(repo.name_of(indexed.candidates_for(title)[0].repo), "title");
    }

    /// Byte-level equality of two candidate sets: same nodes, same pairs, same
    /// similarity bits, same order.
    fn assert_sets_identical(a: &CandidateSet, b: &CandidateSet) {
        assert_eq!(a.personal_nodes(), b.personal_nodes());
        for &n in a.personal_nodes() {
            let (ca, cb) = (a.candidates_for(n), b.candidates_for(n));
            assert_eq!(ca.len(), cb.len(), "candidate count for {n:?}");
            for (x, y) in ca.iter().zip(cb) {
                assert_eq!(x.repo, y.repo);
                assert_eq!(x.similarity.to_bits(), y.similarity.to_bits());
            }
        }
    }

    #[test]
    fn feature_path_is_byte_identical_to_string_path() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let index = NameIndex::build(&repo);
        let mut scratch = SimScratch::default();
        let mut candidates = CandidateScratch::default();
        for floor in [0.0, 0.4, 0.8] {
            let config = ElementMatchConfig::default().with_min_similarity(floor);
            let strings = match_elements(&personal, &repo, &config);
            let features =
                match_elements_features(&personal, index.features(), &config, &mut scratch);
            assert_sets_identical(&strings, &features);

            let strings_idx = match_elements_with_index(&personal, &repo, &index, &config, 0.3);
            let features_idx = match_elements_with_index_features_resolved(
                &personal,
                &index,
                &config,
                0.3,
                &resolve_personal_queries(&personal, &index),
                &mut scratch,
                &mut candidates,
            );
            assert_sets_identical(&strings_idx, &features_idx);
        }
    }

    #[test]
    fn feature_path_respects_candidate_cap() {
        let personal = paper_personal_schema();
        let repo = fig1_repo();
        let index = NameIndex::build(&repo);
        let mut scratch = SimScratch::default();
        let config = ElementMatchConfig::default()
            .with_min_similarity(0.0)
            .with_max_candidates(2);
        let capped = match_elements_features(&personal, index.features(), &config, &mut scratch);
        for &n in capped.personal_nodes() {
            assert!(capped.candidates_for(n).len() <= 2);
        }
        let reference = match_elements(&personal, &repo, &config);
        assert_sets_identical(&reference, &capped);
    }

    #[test]
    fn config_builders_clamp() {
        let c = ElementMatchConfig::default().with_min_similarity(9.0);
        assert_eq!(c.min_similarity, 1.0);
        let c = ElementMatchConfig::default().with_min_similarity(-2.0);
        assert_eq!(c.min_similarity, 0.0);
    }
}
