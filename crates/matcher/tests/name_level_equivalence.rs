//! Scoring names and fanning out is a pure optimisation of scoring nodes.
//!
//! Both feature paths of element matching run over the repository's name
//! table: one kernel call per distinct spelling, the score copied to every
//! node that carries it, each per-node list emitted already in canonical
//! order. The string paths — `match_elements` and `match_elements_with_index` —
//! still score every (personal node, repository node) pair with
//! `compare_string_fuzzy` on the names themselves and sort afterwards, so they
//! serve as the reference: the candidate sets must be **byte-identical** (same pairs,
//! same similarity bits, same order), over forests that repeat names heavily
//! and mix case variants, empty names, names past 64 characters and a name
//! with more than 255 grams, with and without a per-node cap, and on a live
//! repository that has deleted, revived and compacted names.

use proptest::prelude::*;
use xsm_matcher::element::{
    match_elements, match_elements_features, match_elements_with_index,
    match_elements_with_index_features_resolved, resolve_personal_queries, ElementMatchConfig,
};
use xsm_matcher::CandidateSet;
use xsm_repo::{CandidateScratch, LiveRepository, NameIndex, SchemaRepository};
use xsm_schema::{SchemaNode, SchemaTree, TreeBuilder, TreeId};
use xsm_similarity::features::SimScratch;

/// A name of `len` lowercase letters with (almost) no repeated 3-gram.
fn long_name(len: usize, salt: usize) -> String {
    (0..len)
        .map(|i| char::from(b'a' + ((i * i + i / 7 + salt * (i % 5)) % 26) as u8))
        .collect()
}

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

fn forest(picks: &[usize], extra: &[String]) -> Vec<SchemaTree> {
    let pool = pool();
    let names: Vec<String> = picks
        .iter()
        .map(|&p| pool[p % pool.len()].clone())
        .chain(extra.iter().cloned())
        .collect();
    names.chunks(5).map(tree_of).collect()
}

/// Byte-level equality of two candidate sets: same nodes, same pairs, same
/// similarity bits, same order.
fn assert_sets_identical(reference: &CandidateSet, got: &CandidateSet, context: &str) {
    assert_eq!(
        reference.personal_nodes(),
        got.personal_nodes(),
        "{context}"
    );
    for &node in reference.personal_nodes() {
        let (want, have) = (reference.candidates_for(node), got.candidates_for(node));
        assert_eq!(want.len(), have.len(), "{context}: count for {node:?}");
        for (x, y) in want.iter().zip(have) {
            assert_eq!(x.repo, y.repo, "{context}: order for {node:?}");
            assert_eq!(x.personal, y.personal, "{context}");
            assert_eq!(
                x.similarity.to_bits(),
                y.similarity.to_bits(),
                "{context}: score of {:?}",
                x.repo
            );
        }
    }
}

/// Both feature paths against both string paths, across floors, overlap
/// fractions and caps. `repo` is what the string paths scan; `index` must
/// cover the same logical content.
fn assert_paths_agree(personal: &SchemaTree, repo: &SchemaRepository, index: &NameIndex) {
    let mut sim = SimScratch::default();
    let mut scratch = CandidateScratch::default();
    let resolved = resolve_personal_queries(personal, index);
    for floor in [0.0, 0.4, 0.75] {
        for cap in [None, Some(3)] {
            let mut config = ElementMatchConfig::default().with_min_similarity(floor);
            config.max_candidates_per_node = cap;
            let context = format!("floor {floor} cap {cap:?}");
            assert_sets_identical(
                &match_elements(personal, repo, &config),
                &match_elements_features(personal, index.features(), &config, &mut sim),
                &format!("exhaustive, {context}"),
            );
            for min_overlap in [0.0, 0.3, 0.6] {
                assert_sets_identical(
                    &match_elements_with_index(personal, repo, index, &config, min_overlap),
                    &match_elements_with_index_features_resolved(
                        personal,
                        index,
                        &config,
                        min_overlap,
                        &resolved,
                        &mut sim,
                        &mut scratch,
                    ),
                    &format!("index-pruned, overlap {min_overlap}, {context}"),
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn feature_paths_replay_the_string_paths(
        picks in proptest::collection::vec(0usize..64, 8..50),
        extra in proptest::collection::vec("[a-cA-C]{0,7}", 0..5),
        personal_picks in proptest::collection::vec(0usize..64, 1..4),
        typo in "[a-dN]{1,9}",
    ) {
        let repo = SchemaRepository::from_trees(forest(&picks, &extra));
        let index = NameIndex::build(&repo);
        // A personal schema of pool spellings (recased) and one near-miss.
        let pool = pool();
        let mut names: Vec<String> = personal_picks
            .iter()
            .map(|&p| {
                let name = &pool[p % pool.len()];
                if p % 2 == 0 { name.to_uppercase() } else { name.clone() }
            })
            .collect();
        names.push(typo);
        assert_paths_agree(&tree_of(&names), &repo, &index);
    }
}

#[test]
fn a_live_name_table_replays_the_string_paths_over_the_logical_forest() {
    let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut live = LiveRepository::build(SchemaRepository::from_trees(vec![
        tree_of(&names(&["order", "item", "price", "Price"])),
        tree_of(&names(&["invoice", "rareName", "price"])),
        tree_of(&names(&["order", "PRICE", "total", "item"])),
    ]));
    let personal = tree_of(&names(&["rarename", "price", "itm"]));
    let check = |live: &LiveRepository| {
        let logical = SchemaRepository::from_trees(
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
        );
        assert_paths_agree(&personal, &logical, live.index());
    };
    check(&live);
    live.delete_trees(&[TreeId(1)]).unwrap(); // "rareName" and "invoice" die
    check(&live);
    live.append_trees(vec![tree_of(&names(&["rareName", "item"]))])
        .unwrap(); // revived in place
    check(&live);
    live.delete_trees(&[TreeId(3), TreeId(0)]).unwrap();
    live.compact();
    check(&live);
    live.append_trees(vec![tree_of(&names(&["Price", "rareName", "price"]))])
        .unwrap(); // posted afresh
    check(&live);
}
