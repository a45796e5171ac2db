//! The sharded-serving contract: a [`ShardedEngine`] over any partition of the
//! repository answers every query **byte-identically** to a single [`MatchEngine`]
//! over the whole repository.
//!
//! The property suite draws random repositories (seeded generator corpora and
//! hand-assembled forests of random names), random personal schemas, every
//! strategy (`Auto`, forced index-pruned, forced exhaustive), both placements and
//! shard counts 1/2/3/8, and compares the *entire serialized response* — strategy,
//! candidate counts, total matches, every mapping's pairs and score bits.
//! Deterministic edge-case tests cover what random draws hit rarely: empty shards,
//! all-equal scores across shards at a top-k tie boundary, `top_k` beyond the total
//! match count, thresholds excluding every candidate, and the empty repository.

mod support;

use proptest::prelude::*;
use support::seeded_personal_schemas;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository, ShardPlacement};
use xsm_schema::{SchemaNode, SchemaTree, TreeBuilder};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, QueryStrategy, ShardedEngine,
    ShardedEngineConfig,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_workers(1)
        .with_element_config(ElementMatchConfig::default().with_min_similarity(0.5))
}

fn sharded_config(shards: usize, placement: ShardPlacement) -> ShardedEngineConfig {
    ShardedEngineConfig::default()
        .with_shards(shards)
        .with_placement(placement)
        .with_router_workers(1)
        .with_engine_config(engine_config())
}

/// Full byte-level response comparison. `result_digest` alone already covers the
/// ranked content; serializing the whole response additionally pins the pairs
/// (personal node, repo node, similarity bits), the counts and the strategy.
fn assert_identical(single: &MatchResponse, sharded: &MatchResponse, context: &str) {
    assert_eq!(
        single.result_digest(),
        sharded.result_digest(),
        "digest diverged: {context}"
    );
    assert_eq!(
        serde_json::to_string(single).unwrap(),
        serde_json::to_string(sharded).unwrap(),
        "serialized response diverged: {context}"
    );
}

/// Serve `queries` through a fresh single engine and fresh sharded engines for
/// every shard count, asserting byte-identical responses throughout.
fn assert_equivalence(repo: &SchemaRepository, placement: ShardPlacement, queries: &[MatchQuery]) {
    let single = MatchEngine::new(repo.clone(), engine_config());
    let references: Vec<MatchResponse> = queries.iter().map(|q| single.answer_inline(q)).collect();
    for &shards in &SHARD_COUNTS {
        let sharded = ShardedEngine::new(repo.clone(), sharded_config(shards, placement));
        for (query, reference) in queries.iter().zip(&references) {
            let mut response = sharded.answer_inline(query).unwrap();
            // The single engine may have served a repeat from its own cache;
            // normalise the serving metadata, which is outside the contract.
            response.cache_hit = reference.cache_hit;
            assert_identical(
                reference,
                &response,
                &format!(
                    "{shards} shards, {placement:?}, fingerprint {}",
                    query.fingerprint()
                ),
            );
        }
    }
}

proptest! {
    #[test]
    fn generated_corpora_serve_identically_sharded(
        seed in 1u64..5_000,
        elements in 80usize..220,
        top_k in 1usize..12,
        threshold in 0.0f64..1.0,
        strategy_pick in 0usize..3,
        placement_pick in 0usize..2,
        query_pick in 0usize..6,
    ) {
        let repo = RepositoryGenerator::new(
            GeneratorConfig::small(seed).with_target_elements(elements),
        )
        .generate();
        let strategy = [
            QueryStrategy::Auto,
            QueryStrategy::IndexPruned,
            QueryStrategy::Exhaustive,
        ][strategy_pick];
        let placement = [ShardPlacement::Contiguous, ShardPlacement::TreeHash][placement_pick];
        let personal = seeded_personal_schemas(&repo, query_pick + 1)
            .swap_remove(query_pick);
        let query = MatchQuery::new(personal)
            .with_top_k(top_k)
            .with_threshold(threshold)
            .with_strategy(strategy);
        assert_equivalence(&repo, placement, &[query]);
    }

    #[test]
    fn random_forests_of_random_names_serve_identically_sharded(
        names in proptest::collection::vec("[a-d]{1,6}", 4..28),
        personal_names in proptest::collection::vec("[a-d]{1,6}", 1..4),
        top_k in 1usize..9,
        threshold in 0.0f64..1.0,
        placement_pick in 0usize..2,
    ) {
        // A tiny alphabet makes name collisions — and therefore score ties that
        // cross shard boundaries — common rather than exceptional.
        let mut repo = SchemaRepository::new();
        for chunk in names.chunks(5) {
            let mut b = TreeBuilder::new("t").root(SchemaNode::element(chunk[0].as_str()));
            for (i, name) in chunk[1..].iter().enumerate() {
                b = if i % 2 == 0 {
                    b.child(SchemaNode::element(name.as_str()))
                } else {
                    b.sibling(SchemaNode::element(name.as_str()))
                };
            }
            repo.add_tree(b.build());
        }
        let mut pb = TreeBuilder::new("personal")
            .root(SchemaNode::element(personal_names[0].as_str()));
        for name in &personal_names[1..] {
            pb = pb.sibling(SchemaNode::element(name.as_str()));
        }
        let personal = pb.build();
        let placement = [ShardPlacement::Contiguous, ShardPlacement::TreeHash][placement_pick];
        // Auto exercises the aggregated router planner on every case here.
        let query = MatchQuery::new(personal)
            .with_top_k(top_k)
            .with_threshold(threshold)
            .with_strategy(QueryStrategy::Auto);
        assert_equivalence(&repo, placement, &[query]);
    }
}

/// One tree of `person/name/email/address` records, repeated to force exact score
/// ties across trees (and, sharded, across shards).
fn identical_tree(label: &str) -> SchemaTree {
    TreeBuilder::new(label)
        .root(SchemaNode::element("person"))
        .child(SchemaNode::element("name"))
        .sibling(SchemaNode::element("email"))
        .sibling(SchemaNode::element("address"))
        .build()
}

fn tie_personal() -> SchemaTree {
    TreeBuilder::new("personal")
        .root(SchemaNode::element("person"))
        .child(SchemaNode::element("name"))
        .build()
}

#[test]
fn top_k_tie_boundary_across_identical_trees() {
    // Six identical trees → six mappings with bit-equal scores. Any top_k below six
    // cuts through the tie group, so the merge's id tie-break must match the single
    // engine's exactly; node-id order must also survive the shard-local→global
    // translation under both placements.
    let repo =
        SchemaRepository::from_trees((0..6).map(|i| identical_tree(&format!("t{i}"))).collect());
    for placement in [ShardPlacement::Contiguous, ShardPlacement::TreeHash] {
        let queries: Vec<MatchQuery> = (1..=7)
            .map(|k| {
                MatchQuery::new(tie_personal())
                    .with_top_k(k)
                    .with_threshold(0.9)
                    .with_strategy(QueryStrategy::Exhaustive)
            })
            .collect();
        assert_equivalence(&repo, placement, &queries);
    }
    // Sanity: the scenario really produces the tie group it claims to.
    let single = MatchEngine::new(repo, engine_config());
    let all = single.query(
        MatchQuery::new(tie_personal())
            .with_top_k(3)
            .with_threshold(0.9),
    );
    assert_eq!(all.total_matches, 6);
    assert_eq!(all.mappings.len(), 3);
    let bits: Vec<u64> = all.mappings.iter().map(|m| m.score.to_bits()).collect();
    assert!(bits.windows(2).all(|w| w[0] == w[1]), "scores must tie");
    // Equal scores are ordered by repository node id.
    let trees: Vec<_> = all
        .mappings
        .iter()
        .map(|m| m.repo_tree().unwrap())
        .collect();
    assert!(trees.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn empty_shards_contribute_nothing_and_break_nothing() {
    // Two trees over eight shards: six shard engines hold empty repositories.
    let repo = SchemaRepository::from_trees(vec![identical_tree("a"), identical_tree("b")]);
    let query = MatchQuery::new(tie_personal())
        .with_top_k(10)
        .with_threshold(0.8);
    assert_equivalence(
        &repo,
        ShardPlacement::Contiguous,
        std::slice::from_ref(&query),
    );
    let sharded = ShardedEngine::new(repo, sharded_config(8, ShardPlacement::Contiguous));
    let non_empty = (0..8)
        .filter(|&s| !sharded.shard_trees(s).is_empty())
        .count();
    assert_eq!(non_empty, 2);
    let response = sharded.query(query);
    assert_eq!(response.total_matches, 2);
    assert_eq!(response.mappings.len(), 2);
}

#[test]
fn top_k_larger_than_total_matches_returns_everything() {
    let repo = SchemaRepository::from_trees(vec![identical_tree("a"), identical_tree("b")]);
    let query = MatchQuery::new(tie_personal())
        .with_top_k(500)
        .with_threshold(0.7);
    assert_equivalence(
        &repo,
        ShardPlacement::TreeHash,
        std::slice::from_ref(&query),
    );
    let sharded = ShardedEngine::new(repo, sharded_config(3, ShardPlacement::TreeHash));
    let response = sharded.query(query);
    assert_eq!(response.mappings.len(), response.total_matches);
    assert!(response.total_matches < 500);
}

#[test]
fn threshold_excluding_every_candidate_yields_empty_mappings() {
    let repo = SchemaRepository::from_trees(vec![identical_tree("a"), identical_tree("b")]);
    // `zzz`-ish personal names relate to nothing at δ = 1.0.
    let personal = TreeBuilder::new("personal")
        .root(SchemaNode::element("zzzqqq"))
        .child(SchemaNode::element("wwwvvv"))
        .build();
    let query = MatchQuery::new(personal)
        .with_top_k(5)
        .with_threshold(1.0)
        .with_strategy(QueryStrategy::Exhaustive);
    assert_equivalence(
        &repo,
        ShardPlacement::Contiguous,
        std::slice::from_ref(&query),
    );
    let sharded = ShardedEngine::new(repo, sharded_config(2, ShardPlacement::Contiguous));
    let response = sharded.query(query);
    assert!(response.mappings.is_empty());
    assert_eq!(response.total_matches, 0);
}

#[test]
fn empty_repository_serves_empty_answers_sharded() {
    let query = MatchQuery::new(tie_personal()).with_top_k(3);
    assert_equivalence(
        &SchemaRepository::new(),
        ShardPlacement::Contiguous,
        std::slice::from_ref(&query),
    );
    let sharded = ShardedEngine::new(
        SchemaRepository::new(),
        sharded_config(4, ShardPlacement::TreeHash),
    );
    let response = sharded.query(query);
    assert!(response.mappings.is_empty());
    assert_eq!(response.candidate_count, 0);
    assert_eq!(response.total_matches, 0);
}

#[test]
fn forced_strategies_round_trip_through_the_router() {
    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(23).with_target_elements(150)).generate();
    let personal = seeded_personal_schemas(&repo, 1).swap_remove(0);
    let sharded = ShardedEngine::new(repo.clone(), sharded_config(2, ShardPlacement::Contiguous));
    let single = MatchEngine::new(repo, engine_config());
    for strategy in [
        QueryStrategy::IndexPruned,
        QueryStrategy::Exhaustive,
        QueryStrategy::Auto,
    ] {
        let query = MatchQuery::new(personal.clone())
            .with_top_k(5)
            .with_threshold(0.6)
            .with_strategy(strategy);
        let a = single.answer_inline(&query);
        let b = sharded.answer_inline(&query).unwrap();
        assert_eq!(a.strategy, b.strategy, "{strategy:?}");
        assert_identical(&a, &b, &format!("{strategy:?}"));
    }
}
