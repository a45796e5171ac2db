//! Concurrency-determinism contract of the [`MatchEngine`]: the same query batch run
//! through a 1-worker and an 8-worker engine yields identical top-k mappings and
//! scores, cache hits never change result content, and dropping an engine
//! still answers every query it had accepted. The seeded workload all the service
//! suites share is itself deterministic.

mod support;

use support::seeded_personal_schemas;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};
use xsm_schema::tree::paper_repository_fragment;
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchService, PendingResponse, QueryStrategy,
    ShardedEngine, ShardedEngineConfig,
};

fn repository() -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(11).with_target_elements(700)).generate()
}

fn config() -> EngineConfig {
    EngineConfig::default()
        .with_element_config(ElementMatchConfig::default().with_min_similarity(0.5))
        .with_queue_capacity(8) // smaller than the batch: exercises backpressure
}

/// A deterministic batch over the shared seeded workload, cycling every strategy.
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
                .with_top_k(1 + i % 7)
                .with_threshold(0.55)
                .with_strategy(strategy)
        })
        .collect()
}

#[test]
fn one_and_eight_workers_serve_identical_batches() {
    let repo = repository();
    let batch = query_batch(&repo, 100);

    let sequential = MatchEngine::new(repo.clone(), config().with_workers(1));
    let concurrent = MatchEngine::new(repo, config().with_workers(8));
    assert_eq!(sequential.workers(), 1);
    assert_eq!(concurrent.workers(), 8);

    let a = sequential.submit_batch(batch.clone()).unwrap();
    let b = concurrent.submit_batch(batch.clone()).unwrap();
    assert_eq!(a.len(), batch.len());

    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ra.fingerprint, batch[i].fingerprint(), "order broke at {i}");
        assert_eq!(rb.fingerprint, batch[i].fingerprint(), "order broke at {i}");
        assert_eq!(
            ra.result_digest(),
            rb.result_digest(),
            "query {i} diverged between 1 and 8 workers"
        );
        for m in &ra.mappings {
            assert!(m.score >= 0.55);
            assert!(m.is_structurally_valid());
        }
    }

    // Both engines did real work and the metrics saw every query.
    assert_eq!(sequential.metrics().queries_served, batch.len() as u64);
    assert_eq!(concurrent.metrics().queries_served, batch.len() as u64);
    assert!(a.iter().any(|r| !r.mappings.is_empty()));
}

#[test]
fn cache_hits_do_not_change_results() {
    let repo = repository();
    let batch = query_batch(&repo, 30);
    let engine = MatchEngine::new(repo, config().with_workers(4));

    let cold = engine.submit_batch(batch.clone()).unwrap();
    let warm = engine.submit_batch(batch.clone()).unwrap();

    // Batches can repeat a fingerprint, so even the first pass may hit; the second
    // pass must be all hits.
    assert!(warm.iter().all(|r| r.cache_hit));
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(
            c.result_digest(),
            w.result_digest(),
            "cache changed the content of query {i}"
        );
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.queries_served, 60);
    assert!(metrics.result_cache_hits >= 30);
    assert!(metrics.result_cache_hit_rate >= 0.5);
}

/// Drop closes the submission queue and joins the workers only after they have
/// drained it: a query accepted before the drop resolves `Ok` with the same
/// content as the inline answer, never with a dropped reply channel. Holds for
/// the engine's pool and the sharded router's pool alike.
#[test]
fn dropping_an_engine_drains_every_queued_query() {
    let repo = repository();
    let batch = query_batch(&repo, 3);
    let reference = MatchEngine::new(repo.clone(), config().with_workers(1));
    let expected: Vec<String> = batch
        .iter()
        .map(|q| reference.answer_inline(q).result_digest())
        .collect();

    let engine = MatchEngine::new(repo.clone(), config().with_workers(1));
    let pending: Vec<PendingResponse> = batch
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    drop(engine);
    for (i, handle) in pending.into_iter().enumerate() {
        let response = handle.wait().expect("a queued query must be answered");
        assert_eq!(response.result_digest(), expected[i], "engine query {i}");
    }

    let sharded = ShardedEngine::new(
        repo,
        ShardedEngineConfig::default()
            .with_shards(2)
            .with_router_workers(1)
            .with_engine_config(config().with_workers(1)),
    );
    let pending: Vec<PendingResponse> = batch
        .iter()
        .map(|q| sharded.submit(q.clone()).unwrap())
        .collect();
    drop(sharded);
    for (i, handle) in pending.into_iter().enumerate() {
        let response = handle.wait().expect("a queued query must be answered");
        assert!(!response.incomplete, "sharded query {i} lost a shard");
        assert_eq!(response.result_digest(), expected[i], "sharded query {i}");
    }
}

#[test]
fn workload_is_deterministic_and_shaped() {
    let repo = SchemaRepository::from_trees(vec![paper_repository_fragment()]);
    let a = seeded_personal_schemas(&repo, 12);
    let b = seeded_personal_schemas(&repo, 12);
    assert_eq!(a.len(), 12);
    for (ta, tb) in a.iter().zip(&b) {
        assert_eq!(ta.len(), 3);
        let names_a: Vec<&str> = ta.preorder().iter().map(|&n| ta.name_of(n)).collect();
        let names_b: Vec<&str> = tb.preorder().iter().map(|&n| tb.name_of(n)).collect();
        assert_eq!(names_a, names_b);
    }
    // The perturbation actually fires somewhere in the mix.
    assert!(a.iter().any(|t| t
        .preorder()
        .iter()
        .any(|&n| t.name_of(n).ends_with('x') && t.name_of(n).len() > 1)));
}

#[test]
#[should_panic(expected = "empty repository")]
fn empty_repository_is_rejected() {
    seeded_personal_schemas(&SchemaRepository::new(), 3);
}
