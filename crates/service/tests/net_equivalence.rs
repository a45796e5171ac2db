//! The networked-serving contract: a [`ShardedEngine`] whose shards live behind
//! loopback TCP — real sockets, real frames, real handshakes — answers every
//! query **byte-identically** to a single in-process [`MatchEngine`] over the
//! whole repository.
//!
//! This is `tests/shard_equivalence.rs` lifted one transport layer up: the
//! deterministic sweep covers shard counts {1, 2, 4} × both placements × all
//! three strategies with whole-response serde comparison, and the property test
//! fires randomized queries (shape, `top_k`, threshold bits, strategy) at one
//! long-lived TCP fleet. If the frame codec, the DTOs, the planner-stats
//! aggregation or the merge lost a single bit anywhere, the serialized
//! responses would diverge.

mod support;

use std::sync::{Arc, OnceLock};
use std::time::Duration;
use support::seeded_personal_schemas;

use proptest::prelude::*;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{
    GeneratorConfig, RepositoryGenerator, RepositoryPartition, SchemaRepository, ShardPlacement,
};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, MatchService, QueryStrategy,
    RemoteEngine, RemoteEngineConfig, ShardServer, ShardedEngine, ShardedEngineConfig,
};

fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .workers(1)
        .element(ElementMatchConfig::default().with_min_similarity(0.5))
        .build()
        .unwrap()
}

fn client_config() -> RemoteEngineConfig {
    RemoteEngineConfig::default()
        .with_connect_timeout(Duration::from_secs(5))
        .with_request_deadline(Duration::from_secs(120))
}

/// A router whose every shard is served over loopback TCP. The servers must
/// outlive the router, so they ride along.
struct TcpFleet {
    router: ShardedEngine,
    _servers: Vec<ShardServer>,
}

fn tcp_fleet(repo: &SchemaRepository, shards: usize, placement: ShardPlacement) -> TcpFleet {
    let partition = RepositoryPartition::build(repo, shards, placement);
    let (parts, tree_maps) = partition.into_parts();
    let mut servers = Vec::new();
    let mut services: Vec<Box<dyn MatchService>> = Vec::new();
    for part in parts {
        let backend: Arc<dyn MatchService> = Arc::new(MatchEngine::new(part, engine_config()));
        let server = ShardServer::bind("127.0.0.1:0", backend).expect("bind loopback");
        let client = RemoteEngine::connect(server.local_addr().to_string(), client_config())
            .expect("handshake with own server");
        services.push(Box::new(client));
        servers.push(server);
    }
    let config = ShardedEngineConfig::builder()
        .shards(shards)
        .placement(placement)
        .router_workers(1)
        .engine(engine_config())
        .build()
        .unwrap();
    let router = ShardedEngine::from_services(services, tree_maps, config).expect("wire fleet");
    TcpFleet {
        router,
        _servers: servers,
    }
}

/// Whole-response comparison via serde: strategy, every mapping's pairs and
/// score bits, the counts, the degraded-mode fields — everything except
/// latency (`#[serde(skip)]`) and the normalised `cache_hit`.
fn assert_identical(single: &MatchResponse, networked: &MatchResponse, context: &str) {
    assert_eq!(
        single.result_digest(),
        networked.result_digest(),
        "digest diverged: {context}"
    );
    assert_eq!(
        serde_json::to_string(single).unwrap(),
        serde_json::to_string(networked).unwrap(),
        "serialized response diverged: {context}"
    );
}

fn assert_tcp_equivalence(repo: &SchemaRepository, queries: &[MatchQuery]) {
    let single = MatchEngine::new(repo.clone(), engine_config());
    let references: Vec<MatchResponse> = queries.iter().map(|q| single.answer_inline(q)).collect();
    for shards in [1usize, 2, 4] {
        for placement in [ShardPlacement::Contiguous, ShardPlacement::TreeHash] {
            let fleet = tcp_fleet(repo, shards, placement);
            for (query, reference) in queries.iter().zip(&references) {
                let mut response = fleet.router.answer_inline(query).unwrap();
                assert!(!response.incomplete, "healthy fleet must never degrade");
                response.cache_hit = reference.cache_hit;
                assert_identical(
                    reference,
                    &response,
                    &format!(
                        "{shards} TCP shards, {placement:?}, fingerprint {}",
                        query.fingerprint()
                    ),
                );
            }
        }
    }
}

#[test]
fn loopback_tcp_sharding_is_byte_identical_across_strategies() {
    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(41).with_target_elements(260)).generate();
    let mut queries = Vec::new();
    for (i, personal) in seeded_personal_schemas(&repo, 3).into_iter().enumerate() {
        for strategy in [
            QueryStrategy::Auto,
            QueryStrategy::IndexPruned,
            QueryStrategy::Exhaustive,
        ] {
            queries.push(
                MatchQuery::new(personal.clone())
                    .with_top_k(2 + i)
                    .with_threshold(0.45 + 0.1 * i as f64)
                    .with_strategy(strategy),
            );
        }
    }
    assert_tcp_equivalence(&repo, &queries);
}

#[test]
fn batches_over_tcp_preserve_order_and_content() {
    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(43).with_target_elements(200)).generate();
    let single = MatchEngine::new(repo.clone(), engine_config());
    let batch: Vec<MatchQuery> = seeded_personal_schemas(&repo, 6)
        .into_iter()
        .map(|p| MatchQuery::new(p).with_top_k(4).with_threshold(0.5))
        .collect();
    let references = single.submit_batch(batch.clone()).unwrap();
    let fleet = tcp_fleet(&repo, 2, ShardPlacement::Contiguous);
    let responses = fleet.router.submit_batch(batch.clone()).unwrap();
    assert_eq!(responses.len(), batch.len());
    for (i, ((query, reference), mut response)) in
        batch.iter().zip(references).zip(responses).enumerate()
    {
        assert_eq!(
            response.fingerprint,
            query.fingerprint(),
            "order broke at {i}"
        );
        response.cache_hit = reference.cache_hit;
        assert_identical(&reference, &response, &format!("batch query {i}"));
    }
}

/// The long-lived fleet the property test fires at: building a TCP fleet per
/// proptest case would dominate the runtime without testing anything new.
fn shared_fleet() -> &'static (SchemaRepository, MatchEngine, TcpFleet) {
    static FLEET: OnceLock<(SchemaRepository, MatchEngine, TcpFleet)> = OnceLock::new();
    FLEET.get_or_init(|| {
        let repo = RepositoryGenerator::new(GeneratorConfig::small(47).with_target_elements(220))
            .generate();
        let single = MatchEngine::new(repo.clone(), engine_config());
        let fleet = tcp_fleet(&repo, 2, ShardPlacement::TreeHash);
        (repo, single, fleet)
    })
}

proptest! {
    #[test]
    fn random_queries_survive_the_wire_bit_for_bit(
        pick in 0usize..6,
        top_k in 1usize..10,
        threshold in 0.0f64..1.0,
        strategy_pick in 0usize..3,
    ) {
        let (repo, single, fleet) = shared_fleet();
        let personal = seeded_personal_schemas(repo, pick + 1).swap_remove(pick);
        let strategy = [
            QueryStrategy::Auto,
            QueryStrategy::IndexPruned,
            QueryStrategy::Exhaustive,
        ][strategy_pick];
        let query = MatchQuery::new(personal)
            .with_top_k(top_k)
            .with_threshold(threshold)
            .with_strategy(strategy);
        let reference = single.answer_inline(&query);
        let mut response = fleet.router.answer_inline(&query).unwrap();
        prop_assert!(!response.incomplete);
        response.cache_hit = reference.cache_hit;
        prop_assert_eq!(
            serde_json::to_string(&reference).unwrap(),
            serde_json::to_string(&response).unwrap()
        );
    }
}
