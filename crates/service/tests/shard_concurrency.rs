//! Concurrency contract of the [`ShardedEngine`] router: batches preserve input
//! order, duplicate in-flight queries coalesce onto **one** scatter (counted by
//! `coalesced_queries`), and neither worker count nor coalescing changes content.

mod support;

use support::seeded_personal_schemas;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};
use xsm_service::{
    EngineConfig, MatchQuery, MatchService, QueryStrategy, ShardedEngine, ShardedEngineConfig,
};

fn repository() -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(29).with_target_elements(500)).generate()
}

fn config(shards: usize, router_workers: usize) -> ShardedEngineConfig {
    ShardedEngineConfig::default()
        .with_shards(shards)
        .with_router_workers(router_workers)
        .with_router_queue_capacity(4) // smaller than the batches: backpressure
        .with_engine_config(
            EngineConfig::default()
                .with_workers(2)
                .with_element_config(ElementMatchConfig::default().with_min_similarity(0.5)),
        )
}

fn query_batch(repo: &SchemaRepository, n: usize) -> Vec<MatchQuery> {
    seeded_personal_schemas(repo, n)
        .into_iter()
        .enumerate()
        .map(|(i, personal)| {
            let strategy = match i % 3 {
                0 => QueryStrategy::Auto,
                1 => QueryStrategy::IndexPruned,
                _ => QueryStrategy::Exhaustive,
            };
            MatchQuery::new(personal)
                .with_top_k(1 + i % 5)
                .with_threshold(0.55)
                .with_strategy(strategy)
        })
        .collect()
}

#[test]
fn batches_preserve_order_and_router_worker_count_is_invisible() {
    let repo = repository();
    let batch = query_batch(&repo, 40);
    let one = ShardedEngine::new(repo.clone(), config(3, 1));
    let many = ShardedEngine::new(repo, config(3, 4));
    let a = one.submit_batch(batch.clone()).unwrap();
    let b = many.submit_batch(batch.clone()).unwrap();
    assert_eq!(a.len(), batch.len());
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra.fingerprint, batch[i].fingerprint(), "order broke at {i}");
        assert_eq!(rb.fingerprint, batch[i].fingerprint(), "order broke at {i}");
        assert_eq!(
            ra.result_digest(),
            rb.result_digest(),
            "query {i} diverged between 1 and 4 router workers"
        );
    }
    assert_eq!(one.metrics().router.queries_served, batch.len() as u64);
    assert_eq!(many.metrics().router.queries_served, batch.len() as u64);
}

#[test]
fn duplicate_in_flight_queries_coalesce_exactly_once() {
    // 12 copies of one query against 4 router workers: exactly one scatter runs;
    // every other copy is served by the router's result cache or coalesces onto
    // the leader's in-flight merge. The split between the two depends on timing,
    // the accounting invariant does not.
    let repo = repository();
    let sharded = ShardedEngine::new(repo.clone(), config(3, 4));
    let query = MatchQuery::new(seeded_personal_schemas(&repo, 1).swap_remove(0))
        .with_top_k(4)
        .with_threshold(0.55)
        .with_strategy(QueryStrategy::Exhaustive);
    let responses = sharded.submit_batch(vec![query; 12]).unwrap();

    let digest = responses[0].result_digest();
    for r in &responses {
        assert_eq!(r.result_digest(), digest, "duplicates must not diverge");
    }
    let m = sharded.metrics();
    assert_eq!(m.router.queries_served, 12);
    assert_eq!(
        m.router.exhaustive_queries + m.router.index_pruned_queries,
        1,
        "one scatter for 12 identical queries"
    );
    assert_eq!(m.router.result_cache_hits + m.router.coalesced_queries, 11);
    // The single scatter reached every shard exactly once.
    for (i, shard) in m.per_shard.iter().enumerate() {
        assert_eq!(shard.queries_served, 1, "shard {i} saw a duplicate scatter");
    }
}

#[test]
fn mixed_duplicates_account_consistently() {
    let repo = repository();
    let sharded = ShardedEngine::new(repo.clone(), config(2, 4));
    let base = query_batch(&repo, 6);
    // Each distinct query three times, interleaved.
    let mut batch = Vec::new();
    for _ in 0..3 {
        batch.extend(base.clone());
    }
    let responses = sharded.submit_batch(batch.clone()).unwrap();
    for (query, response) in batch.iter().zip(&responses) {
        assert_eq!(response.fingerprint, query.fingerprint());
    }
    let m = sharded.metrics().router;
    assert_eq!(m.queries_served, 18);
    // 6 distinct fingerprints → exactly 6 scatters, 12 hits/coalesces.
    assert_eq!(m.exhaustive_queries + m.index_pruned_queries, 6);
    assert_eq!(m.result_cache_hits + m.coalesced_queries, 12);
    // Every shard saw each distinct query exactly once.
    for shard in sharded.metrics().per_shard {
        assert_eq!(shard.queries_served, 6);
    }
}
