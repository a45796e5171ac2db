//! The name table is a pure optimisation: matching names and fanning out to
//! nodes answers exactly what matching nodes would.
//!
//! The oracle here knows nothing of the index. It walks `repo.nodes()`, cuts
//! every name into q-grams **on strings** and counts the distinct grams a node
//! shares with the query — the per-node definition of the T-occurrence count
//! filter. The name-table oracle of `oracle/mod.rs` (a brute-force count over
//! interned gram signatures) is held to it as well, so the suites that compare
//! against that one stand on strings too. The suites check, over forests that
//! repeat names heavily and mix case variants of one name (`Name` / `name` /
//! `NAME`), empty names, names past 64 characters (the blocked edit-distance
//! kernels) and a query with more than 255 known grams (past the `u8`
//! counters):
//!
//! * the name-level lookup plus fan-out equals the oracle under an infinite
//!   window, for every merge policy, and under a finite window keeps every
//!   oracle candidate that clears the floor;
//! * the features reachable through a node are field for field what
//!   `NameFeatures::build` gives for that node's own name;
//! * a live index that appended, deleted, revived and compacted equals a
//!   from-scratch rebuild of the same logical content — lookups, exact hits,
//!   planner volumes and dead postings;
//! * the work a lookup does is bounded by the number of distinct names, not
//!   nodes, and an append of known spellings adds no posting.

mod oracle;

use std::collections::BTreeSet;

use oracle::{count_filter, lookup, POLICIES};
use proptest::prelude::*;
use xsm_repo::{
    CandidateScratch, LengthWindow, LiveRepository, MergePolicy, NameIndex, SchemaRepository,
};
use xsm_schema::{GlobalNodeId, SchemaNode, SchemaTree, TreeBuilder, TreeId};
use xsm_similarity::compare_string_fuzzy;
use xsm_similarity::features::{GramInterner, NameFeatures};
use xsm_similarity::ngram::qgrams;

/// A name of `len` lowercase letters with (almost) no repeated 3-gram.
fn long_name(len: usize, salt: usize) -> String {
    (0..len)
        .map(|i| char::from(b'a' + ((i * i + i / 7 + salt * (i % 5)) % 26) as u8))
        .collect()
}

/// The spellings the forests draw from: case variants, near-duplicates, the
/// empty name, names past the 64-character single-word kernels, and one name
/// with more than 255 distinct grams.
fn pool() -> Vec<String> {
    let mut pool: Vec<String> = [
        "name",
        "Name",
        "NAME",
        "address",
        "Address",
        "addr",
        "id",
        "ID",
        "",
        "title",
        "titel",
        "authorName",
        "author_name",
        "emailAddress",
        "ÉcoleNom",
        "écolenom",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let long = long_name(70, 1);
    let mut near = long.clone();
    near.replace_range(30..31, "Q");
    pool.push(long);
    pool.push(near);
    pool.push(long_name(300, 2));
    pool
}

fn tree_of(names: &[String]) -> SchemaTree {
    let mut builder = TreeBuilder::new("t").root(SchemaNode::element(&names[0]));
    for name in &names[1..] {
        builder = builder.sibling(SchemaNode::element(name));
    }
    builder.build()
}

/// A forest of ~5-node trees: `picks` index the pool (so names repeat
/// heavily), `extra` adds a few one-off names.
fn forest(picks: &[usize], extra: &[String]) -> Vec<SchemaTree> {
    let pool = pool();
    let names: Vec<String> = picks
        .iter()
        .map(|&p| pool[p % pool.len()].clone())
        .chain(extra.iter().cloned())
        .collect();
    names.chunks(5).map(tree_of).collect()
}

fn distinct_grams(name: &str, q: usize) -> BTreeSet<String> {
    qgrams(&name.to_lowercase(), q).into_iter().collect()
}

/// The string-side view of a repository: every node with its lowercased
/// length and distinct grams, cut once.
struct Oracle {
    q: usize,
    nodes: Vec<(GlobalNodeId, String, usize, BTreeSet<String>)>,
}

impl Oracle {
    fn of(repo: &SchemaRepository, q: usize) -> Self {
        Oracle {
            q,
            nodes: repo
                .nodes()
                .map(|(id, node)| {
                    let lower = node.name.to_lowercase();
                    let len = lower.chars().count();
                    let grams = distinct_grams(&node.name, q);
                    (id, lower, len, grams)
                })
                .collect(),
        }
    }

    /// Distinct grams every node shares with `query`, in node order.
    fn shared(&self, query: &str) -> Vec<usize> {
        let query_grams = distinct_grams(query, self.q);
        self.nodes
            .iter()
            .map(|(.., grams)| grams.intersection(&query_grams).count())
            .collect()
    }

    /// The per-node count filter, from [`Oracle::shared`] of the same query:
    /// every node sharing at least `ceil(frac · distinct query grams)` (at
    /// least one) distinct grams with the query, ascending. `window`
    /// additionally drops nodes whose length alone caps the similarity below
    /// the floor.
    fn candidates(
        &self,
        query: &str,
        shared: &[usize],
        frac: f64,
        window: LengthWindow,
    ) -> Vec<GlobalNodeId> {
        let distinct = distinct_grams(query, self.q).len();
        if distinct == 0 {
            return Vec::new();
        }
        let needed = ((frac * distinct as f64).ceil() as usize).max(1);
        let query_len = query.to_lowercase().chars().count();
        self.nodes
            .iter()
            .zip(shared)
            .filter(|((_, _, len, _), &shared)| shared >= needed && window.admits(query_len, *len))
            .map(|(&(id, ..), _)| id)
            .collect()
    }

    fn exact(&self, query: &str) -> Vec<GlobalNodeId> {
        let query = query.to_lowercase();
        self.nodes
            .iter()
            .filter(|(_, lower, ..)| *lower == query)
            .map(|&(id, ..)| id)
            .collect()
    }

    /// What a per-node index would hold as in-window posting volume for the
    /// query behind `shared`: per distinct query gram, the nodes whose name
    /// contains it.
    fn volume(&self, query: &str, shared: &[usize], window: LengthWindow) -> usize {
        let query_len = query.to_lowercase().chars().count();
        self.nodes
            .iter()
            .zip(shared)
            .filter(|((_, _, len, _), _)| window.admits(query_len, *len))
            .map(|(_, &shared)| shared)
            .sum()
    }
}

const FRACTIONS: [f64; 3] = [0.0, 0.5, 0.99];
const FLOORS: [f64; 2] = [0.5, 0.9];

/// Queries worth asking of any forest: pool spellings, near-misses of them,
/// the >255-gram name and strangers.
fn queries(random: &[String]) -> Vec<String> {
    let pool = pool();
    let mut queries: Vec<String> = vec![
        "name".into(),
        "NAME".into(),
        "nme".into(),
        "Address".into(),
        "adress".into(),
        "".into(),
        "autorName".into(),
        "écoleNom".into(),
        "zzzz".into(),
    ];
    queries.push(pool[pool.len() - 3].clone()); // 70 chars
    queries.push(pool[pool.len() - 2].to_uppercase()); // its near twin, recased
    queries.push(pool[pool.len() - 1].clone()); // > 255 grams
    queries.extend(random.iter().cloned());
    queries
}

/// Every lookup of `index` against the string oracle over `logical` (the
/// repository a from-scratch rebuild would see: dead trees emptied).
fn assert_index_matches_oracle(index: &NameIndex, logical: &SchemaRepository, queries: &[String]) {
    let oracle = Oracle::of(logical, index.q());
    let store = index.features();
    let mut scratch = CandidateScratch::default();
    assert_eq!(index.indexed_nodes(), logical.total_nodes());
    for query in queries {
        assert_eq!(
            index.lookup_exact(query),
            &oracle.exact(query)[..],
            "exact hits of {query:?}"
        );
        let resolved = index.resolve_query(query);
        let shared = oracle.shared(query);
        for window in std::iter::once(LengthWindow::Infinite)
            .chain(FLOORS.iter().map(|&f| LengthWindow::fuzzy_floor(f)))
        {
            assert_eq!(
                index.estimate_candidate_volume_resolved(&resolved, window),
                oracle.volume(query, &shared, window),
                "node-weighted volume of {query:?} under {window:?}"
            );
        }
        for frac in FRACTIONS {
            let expected = oracle.candidates(query, &shared, frac, LengthWindow::Infinite);
            assert_eq!(
                count_filter(index, query, frac),
                expected,
                "name-table oracle of {query:?} frac={frac}"
            );
            for policy in POLICIES {
                let (got, stats) = lookup(
                    index,
                    query,
                    frac,
                    LengthWindow::Infinite,
                    policy,
                    &mut scratch,
                );
                assert_eq!(got, expected, "{query:?} frac={frac} policy={policy:?}");
                assert!(stats.candidates_examined <= index.distinct_names());

                // The name-level sibling, fanned out by hand.
                let (names, _) = index.lookup_names_resolved(
                    &resolved,
                    frac,
                    LengthWindow::Infinite,
                    policy,
                    &mut scratch,
                );
                assert!(names.windows(2).all(|pair| pair[0] < pair[1]));
                let mut fanned: Vec<GlobalNodeId> = names
                    .iter()
                    .flat_map(|&name| store.nodes_of_name(name).iter().copied())
                    .collect();
                fanned.sort();
                assert_eq!(fanned, expected, "fan-out of {query:?} frac={frac}");

                for floor in FLOORS {
                    let window = LengthWindow::fuzzy_floor(floor);
                    let in_window = oracle.candidates(query, &shared, frac, window);
                    let (windowed, _) = lookup(index, query, frac, window, policy, &mut scratch);
                    assert!(windowed.windows(2).all(|pair| pair[0] < pair[1]));
                    for id in &windowed {
                        assert!(
                            in_window.contains(id),
                            "{query:?}: {id:?} outside the oracle"
                        );
                    }
                    // The positional filter may drop more, but never a node
                    // that clears the floor.
                    for &id in &in_window {
                        if !windowed.contains(&id) {
                            let sim = compare_string_fuzzy(query, logical.name_of(id));
                            assert!(sim < floor, "{query:?}: dropped {id:?} at sim {sim}");
                        }
                    }
                }
            }
        }
    }
}

/// `live`'s forest as a rebuild sees it: tombstoned trees emptied in place.
fn logical_content(live: &LiveRepository) -> SchemaRepository {
    SchemaRepository::from_trees(
        live.repo()
            .trees()
            .map(|(tid, tree)| {
                if live.index().features().is_tree_dead(tid) {
                    SchemaTree::new(tree.name())
                } else {
                    tree.clone()
                }
            })
            .collect(),
    )
}

proptest! {
    /// Name-level lookup + fan-out is the per-node count filter, and a node's
    /// features are its own name's.
    #[test]
    fn lookups_equal_a_brute_force_pass_over_nodes(
        picks in proptest::collection::vec(0usize..64, 8..60),
        extra in proptest::collection::vec("[a-cA-C]{0,7}", 0..6),
        random in proptest::collection::vec("[a-dN]{0,9}", 1..4),
    ) {
        let repo = SchemaRepository::from_trees(forest(&picks, &extra));
        for q in [2usize, 3] {
            let index = NameIndex::build_with_q(&repo, q);
            assert_index_matches_oracle(&index, &repo, &queries(&random));

            // A per-node build in canonical order interns grams in the order the
            // name table does, so even the gram ids must agree.
            let mut interner = GramInterner::new(q);
            for (id, node) in repo.nodes() {
                let own = NameFeatures::build(&node.name, &mut interner);
                let shared = index.features().features_of(id).expect("every node has a name");
                prop_assert_eq!(&shared.lower, &own.lower);
                prop_assert_eq!(shared.original(), own.original());
                prop_assert_eq!(shared.char_len(), own.char_len());
                prop_assert_eq!(shared.chars(), own.chars());
                prop_assert_eq!(shared.gram_sig(), own.gram_sig());
                prop_assert_eq!(shared.gram_counts(), own.gram_counts());
                prop_assert_eq!(shared.gram_total(), own.gram_total());
                prop_assert_eq!(shared.gram_positions(), own.gram_positions());
                prop_assert_eq!(shared.peq_pairs(), own.peq_pairs());
            }
            prop_assert_eq!(interner.len(), index.features().interner().len());
        }
    }

    /// Random append / delete / compact interleavings — with trees that bring
    /// no new name, and names that die and come back — stay equal to a rebuild.
    #[test]
    fn live_mutations_equal_a_rebuild(
        picks in proptest::collection::vec(0usize..64, 10..40),
        pool_picks in proptest::collection::vec(0usize..64, 10..30),
        ops in proptest::collection::vec(0usize..1000, 2..7),
    ) {
        let mut live = LiveRepository::build(SchemaRepository::from_trees(forest(&picks, &[])));
        // Trees to append: repeats of known spellings plus two one-off names.
        let mut fresh = forest(&pool_picks, &["onlyHere".to_string(), "ONLYhere".to_string()]);
        let asked: Vec<String> = ["name", "adress", "", "onlyhere", "autorName"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for op in ops {
            let param = op / 3;
            match op % 3 {
                0 if !fresh.is_empty() => {
                    let tree = fresh.remove(param % fresh.len());
                    // Appending the same content twice exercises "no new name".
                    live.append_trees(vec![tree.clone(), tree]).unwrap();
                }
                1 => {
                    let alive: Vec<TreeId> = (0..live.repo().tree_count() as u32)
                        .map(TreeId)
                        .filter(|&t| !live.index().features().is_tree_dead(t))
                        .collect();
                    if !alive.is_empty() {
                        live.delete_trees(&[alive[param % alive.len()]]).unwrap();
                    }
                }
                _ => {
                    live.compact();
                    prop_assert_eq!(live.index().dead_postings(), 0);
                }
            }
            let logical = logical_content(&live);
            assert_index_matches_oracle(live.index(), &logical, &asked);
        }
    }
}

/// The pool really reaches the edges the suites are meant to cover.
#[test]
fn the_pool_reaches_the_kernel_and_counter_edges() {
    let all: Vec<usize> = (0..pool().len()).collect();
    let repo = SchemaRepository::from_trees(forest(&all, &[]));
    let index = NameIndex::build(&repo);
    let huge = pool().pop().unwrap();
    assert!(
        index.resolve_query(&huge).known_grams().len() > u8::MAX as usize,
        "the long query must overflow the u8 counters"
    );
    let (got, stats) = lookup(
        &index,
        &huge,
        0.5,
        LengthWindow::Infinite,
        MergePolicy::Auto,
        &mut CandidateScratch::default(),
    );
    // Past 255 known grams but under a bound of at most 255: the saturating
    // counters decide it, so Auto picks by volume like any other query.
    assert_eq!(stats.algorithm, xsm_repo::MergeAlgorithm::ScanCount);
    assert_eq!(got, oracle_exact_ids(&repo, &huge));
    assert!(pool()
        .iter()
        .any(|name| name.chars().count() > 64 && name.len() < 100));
    assert_eq!(index.lookup_exact("name").len(), 3, "Name / name / NAME");
    assert_eq!(index.exact_names("NaMe").len(), 3);
    assert_eq!(index.lookup_exact("").len(), 1);
}

fn oracle_exact_ids(repo: &SchemaRepository, query: &str) -> Vec<GlobalNodeId> {
    Oracle::of(repo, 3).exact(query)
}

fn plain_tree(names: &[&str]) -> SchemaTree {
    tree_of(&names.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// A name dies with its only tree and comes back with an append: revived in
/// place while its postings are still in the arena, posted afresh once a
/// compaction has reclaimed them — equal to a rebuild at every step.
#[test]
fn a_name_that_dies_and_comes_back_matches_a_rebuild() {
    let mut live = LiveRepository::build(SchemaRepository::from_trees(vec![
        plain_tree(&["order", "item", "price"]),
        plain_tree(&["invoice", "rareName", "price"]),
        plain_tree(&["order", "Price", "total"]),
    ]));
    let asked: Vec<String> = [
        "rareName", "rarename", "rarName", "price", "invoice", "total",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let check = |live: &LiveRepository| {
        assert_index_matches_oracle(live.index(), &logical_content(live), &asked);
    };
    let names_before = live.index().distinct_names();

    // "price" lives on in other trees; "invoice" and "rareName" die.
    live.delete_trees(&[TreeId(1)]).unwrap();
    let dead = live.index().dead_postings();
    assert!(dead > 0);
    assert!(live.index().lookup_exact("rareName").is_empty());
    check(&live);

    // Revived in place: no posting added, none dead any more for that name.
    let postings = live.index().posting_count();
    live.append_trees(vec![plain_tree(&["rareName", "item"])])
        .unwrap();
    assert_eq!(live.index().posting_count(), postings);
    assert!(live.index().dead_postings() < dead);
    assert_eq!(live.index().lookup_exact("RARENAME").len(), 1);
    check(&live);

    // Dies again, is compacted away, comes back: posted afresh under its old id.
    live.delete_trees(&[TreeId(3)]).unwrap();
    check(&live);
    assert!(live.compact() > 0);
    assert_eq!(live.index().dead_postings(), 0);
    check(&live);
    live.append_trees(vec![plain_tree(&["price", "rareName"])])
        .unwrap();
    assert_eq!(live.index().dead_postings(), 0);
    assert_eq!(
        live.index().distinct_names(),
        names_before,
        "no name id was added"
    );
    check(&live);

    // A second compaction merges the twin segments the re-post left behind.
    live.delete_trees(&[TreeId(0)]).unwrap();
    live.compact();
    check(&live);
}

/// The work bounds, without a clock: a lookup's cost follows the number of
/// distinct names, and an append of known spellings adds no posting.
#[test]
fn work_is_bounded_by_distinct_names_not_nodes() {
    // One spelling a thousand times over, between a few dozen others.
    let mut trees: Vec<SchemaTree> = (0..1000)
        .map(|i| {
            let unique = format!("field{}", i % 37);
            plain_tree(&["customer", unique.as_str(), "custom"])
        })
        .collect();
    trees.push(plain_tree(&["Customer", "costumer", "customerName"]));
    let mut live = LiveRepository::build(SchemaRepository::from_trees(trees));
    let names = live.index().distinct_names();
    assert_eq!(names, 2 + 37 + 3);
    assert_eq!(live.index().indexed_nodes(), 3003);

    let mut scratch = CandidateScratch::default();
    for query in ["customer", "custmer", "field3", "customerName", "x", ""] {
        for policy in POLICIES {
            for window in [LengthWindow::Infinite, LengthWindow::fuzzy_floor(0.5)] {
                let (got, stats) = lookup(live.index(), query, 0.3, window, policy, &mut scratch);
                assert!(
                    stats.candidates_examined <= names,
                    "{query:?} {policy:?}: examined {} of {names} names",
                    stats.candidates_examined
                );
                assert!(stats.volume_in_window <= stats.volume_total);
                if query == "customer" {
                    assert!(got.len() >= 1000, "the repeated spelling fans out");
                }
            }
        }
    }
    assert_eq!(
        scratch.counter_slots(),
        names,
        "one ScanCount counter per name, not per node"
    );

    // A tree of known spellings: nodes join their names' lists, nothing else.
    let (postings, segments) = (live.index().posting_count(), live.index().segment_count());
    live.append_trees(vec![plain_tree(&[
        "customer", "field3", "custom", "customer",
    ])])
    .unwrap();
    assert_eq!(live.index().posting_count(), postings);
    assert_eq!(live.index().segment_count(), segments);
    assert_eq!(live.index().distinct_names(), names);
    assert_eq!(live.index().indexed_nodes(), 3007);
    assert_eq!(live.index().lookup_exact("customer").len(), 1003);

    // Deleting it again kills no name, so nothing is dead.
    live.delete_trees(&[TreeId(1001)]).unwrap();
    assert_eq!(live.index().dead_postings(), 0);
    assert_eq!(live.maybe_compact(0.0), None);
    assert_eq!(live.index().lookup_exact("CUSTOMER").len(), 1001);
}
