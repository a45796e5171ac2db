//! Degraded-mode serving under injected and real transport faults.
//!
//! The router's partial-failure policy has three clauses, and each gets pinned
//! here: a failed shard **degrades** the response (flagged `incomplete`, the
//! missing shards listed) rather than failing the query; a degraded answer is
//! exactly the surviving shards' merged top-k — proven by comparing against a
//! router built over only the survivors — and is never cached, so recovered
//! shards rejoin on the very next submission; and a *slow* shard is not a
//! failed shard. On the real-TCP side, a suspended server (crash simulation
//! that keeps the port) degrades the fleet and a resume heals it through the
//! client's redial path. Protocol abuse — version skew, garbage frames,
//! oversized headers — gets structured refusals, never hangs or panics.

mod support;

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use support::seeded_personal_schemas;

use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{
    GeneratorConfig, RepositoryGenerator, RepositoryPartition, SchemaRepository, ShardPlacement,
};
use xsm_schema::TreeId;
use xsm_service::net::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use xsm_service::net::proto::{decode, encode, Hello, HelloOk, WireResponse};
use xsm_service::net::{Fault, FaultyTransport};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchService, QueryStrategy, RemoteEngine,
    RemoteEngineConfig, ServiceError, ShardServer, ShardedEngine, ShardedEngineConfig,
    PROTOCOL_VERSION,
};

fn engine_config() -> EngineConfig {
    EngineConfig::builder()
        .workers(1)
        .element(ElementMatchConfig::default().with_min_similarity(0.5))
        .build()
        .unwrap()
}

fn router_config(shards: usize) -> ShardedEngineConfig {
    ShardedEngineConfig::builder()
        .shards(shards)
        .router_workers(4)
        .engine(engine_config())
        .build()
        .unwrap()
}

fn repo() -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(29).with_target_elements(240)).generate()
}

/// Shard engines (shared via `Arc` so several routers can serve the same
/// backends) plus their global tree maps.
fn shard_backends(
    repo: &SchemaRepository,
    shards: usize,
) -> (Vec<Arc<MatchEngine>>, Vec<Vec<TreeId>>) {
    let partition = RepositoryPartition::build(repo, shards, ShardPlacement::Contiguous);
    let (parts, tree_maps) = partition.into_parts();
    let engines = parts
        .into_iter()
        .map(|p| Arc::new(MatchEngine::new(p, engine_config())))
        .collect();
    (engines, tree_maps)
}

fn queries(repo: &SchemaRepository, n: usize, strategy: QueryStrategy) -> Vec<MatchQuery> {
    seeded_personal_schemas(repo, n)
        .into_iter()
        .map(|p| {
            MatchQuery::new(p)
                .with_top_k(5)
                .with_threshold(0.5)
                .with_strategy(strategy)
        })
        .collect()
}

#[test]
fn never_answering_shard_degrades_to_the_exact_survivor_merge() {
    let repo = repo();
    let (engines, tree_maps) = shard_backends(&repo, 3);

    // The survivors-only reference: the same backends minus shard 1, with the
    // same global tree maps — so its answers are, by definition, "exactly the
    // surviving shards' merged top-k".
    let survivors = ShardedEngine::from_services(
        vec![
            Box::new(Arc::clone(&engines[0])) as Box<dyn MatchService>,
            Box::new(Arc::clone(&engines[2])),
        ],
        vec![tree_maps[0].clone(), tree_maps[2].clone()],
        router_config(2),
    )
    .unwrap();

    let faulty = FaultyTransport::new(Box::new(Arc::clone(&engines[1])));
    let dead = faulty.kill_switch();
    dead.store(true, std::sync::atomic::Ordering::SeqCst);
    let fleet = ShardedEngine::from_services(
        vec![
            Box::new(Arc::clone(&engines[0])) as Box<dyn MatchService>,
            Box::new(faulty),
            Box::new(Arc::clone(&engines[2])),
        ],
        tree_maps,
        router_config(3),
    )
    .unwrap();

    // Auto exercises the stats-stage exclusion, Exhaustive the scatter-stage.
    for strategy in [QueryStrategy::Auto, QueryStrategy::Exhaustive] {
        for query in queries(&repo, 3, strategy) {
            let expected = survivors.answer_inline(&query).unwrap();
            let degraded = fleet.answer_inline(&query).unwrap();
            assert!(degraded.incomplete, "missing shard must flag the response");
            assert_eq!(degraded.failed_shards, vec![1], "exactly shard 1 failed");
            assert_eq!(
                degraded.result_digest(),
                expected.result_digest(),
                "degraded answer must be exactly the survivors' merge ({strategy:?})"
            );
            // Deterministic: a repeat degrades identically (and was not cached).
            let again = fleet.answer_inline(&query).unwrap();
            assert!(again.incomplete && !again.cache_hit);
            assert_eq!(again.result_digest(), degraded.result_digest());
        }
        assert_eq!(
            fleet.result_cache_len(),
            0,
            "degraded responses never cache"
        );
    }
    let m = fleet.metrics();
    assert_eq!(m.router.degraded_responses, m.router.queries_served);
    assert_eq!(m.router.failed_queries, 0);

    // Recovery: flip the kill switch off and the shard rejoins immediately —
    // no cached degraded answer can shadow it.
    dead.store(false, std::sync::atomic::Ordering::SeqCst);
    let healed = fleet
        .answer_inline(&queries(&repo, 1, QueryStrategy::Auto)[0])
        .unwrap();
    assert!(!healed.incomplete && healed.failed_shards.is_empty());
    assert_eq!(fleet.result_cache_len(), 1, "complete answers cache again");
}

#[test]
fn scripted_submit_and_wait_failures_are_transient() {
    let repo = repo();
    let (engines, tree_maps) = shard_backends(&repo, 2);
    let clean = ShardedEngine::from_services(
        engines
            .iter()
            .map(|e| Box::new(Arc::clone(e)) as Box<dyn MatchService>)
            .collect(),
        tree_maps.clone(),
        router_config(2),
    )
    .unwrap();

    let faulty = FaultyTransport::new(Box::new(Arc::clone(&engines[1]))).with_script([
        Fault::FailSubmit(ServiceError::transport("injected: send failed")),
        Fault::FailWait(ServiceError::Timeout),
    ]);
    let fleet = ShardedEngine::from_services(
        vec![
            Box::new(Arc::clone(&engines[0])) as Box<dyn MatchService>,
            Box::new(faulty),
        ],
        tree_maps,
        router_config(2),
    )
    .unwrap();

    let qs = queries(&repo, 3, QueryStrategy::Exhaustive);
    // First fault: rejected at the submit stage.
    let r0 = fleet.answer_inline(&qs[0]).unwrap();
    assert!(r0.incomplete);
    assert_eq!(r0.failed_shards, vec![1]);
    // Second fault: accepted, but the reply is lost in flight.
    let r1 = fleet.answer_inline(&qs[1]).unwrap();
    assert!(r1.incomplete);
    assert_eq!(r1.failed_shards, vec![1]);
    // Script drained: the shard serves again, byte-identically to a clean fleet.
    let r2 = fleet.answer_inline(&qs[2]).unwrap();
    assert!(!r2.incomplete);
    assert_eq!(
        r2.result_digest(),
        clean.answer_inline(&qs[2]).unwrap().result_digest()
    );
}

#[test]
fn a_slow_shard_is_not_a_failed_shard() {
    let repo = repo();
    let (engines, tree_maps) = shard_backends(&repo, 2);
    let clean = ShardedEngine::from_services(
        engines
            .iter()
            .map(|e| Box::new(Arc::clone(e)) as Box<dyn MatchService>)
            .collect(),
        tree_maps.clone(),
        router_config(2),
    )
    .unwrap();
    let slow = FaultyTransport::new(Box::new(Arc::clone(&engines[0])))
        .with_script([Fault::Delay(Duration::from_millis(120))]);
    let fleet = ShardedEngine::from_services(
        vec![
            Box::new(slow) as Box<dyn MatchService>,
            Box::new(Arc::clone(&engines[1])),
        ],
        tree_maps,
        router_config(2),
    )
    .unwrap();
    let query = queries(&repo, 1, QueryStrategy::Exhaustive).pop().unwrap();
    let response = fleet.answer_inline(&query).unwrap();
    assert!(!response.incomplete, "slow must not mean failed");
    assert_eq!(
        response.result_digest(),
        clean.answer_inline(&query).unwrap().result_digest()
    );
}

#[test]
fn coalesced_degraded_queries_share_the_leaders_fate_with_exact_accounting() {
    let repo = repo();
    let (engines, tree_maps) = shard_backends(&repo, 2);
    let faulty = FaultyTransport::new(Box::new(Arc::clone(&engines[1])));
    faulty
        .kill_switch()
        .store(true, std::sync::atomic::Ordering::SeqCst);
    let fleet = ShardedEngine::from_services(
        vec![
            Box::new(Arc::clone(&engines[0])) as Box<dyn MatchService>,
            Box::new(faulty),
        ],
        tree_maps,
        router_config(2),
    )
    .unwrap();

    let query = queries(&repo, 1, QueryStrategy::Exhaustive).pop().unwrap();
    let responses = fleet.submit_batch(vec![query; 8]).unwrap();
    let digest = responses[0].result_digest();
    for response in &responses {
        assert!(
            response.incomplete,
            "every duplicate shares the degradation"
        );
        assert_eq!(response.failed_shards, vec![1]);
        assert_eq!(response.result_digest(), digest);
    }
    let m = fleet.metrics().router;
    // Exact accounting: every response was served and flagged; none came from
    // the cache (degraded answers never cache), so every query either ran a
    // scatter or coalesced onto one — nothing double-counted, nothing lost.
    assert_eq!(m.queries_served, 8);
    assert_eq!(m.degraded_responses, 8);
    assert_eq!(m.result_cache_hits, 0);
    assert_eq!(m.failed_queries, 0);
    assert_eq!(
        m.index_pruned_queries + m.exhaustive_queries + m.coalesced_queries,
        8,
        "scatters + coalesces must cover the whole batch exactly"
    );
    assert_eq!(fleet.result_cache_len(), 0);
}

/// Client config tuned for fast failure detection in tests: one retry, short
/// backoff, and a deadline far below the suite timeout.
fn fast_client() -> RemoteEngineConfig {
    RemoteEngineConfig::default()
        .with_connect_timeout(Duration::from_millis(500))
        .with_io_timeout(Duration::from_millis(500))
        .with_request_deadline(Duration::from_secs(3))
        .with_retries(1)
        .with_backoff(Duration::from_millis(10))
}

#[test]
fn suspended_tcp_shard_degrades_and_resume_heals_through_redial() {
    let repo = repo();
    let (engines, tree_maps) = shard_backends(&repo, 2);
    let single_reference = ShardedEngine::from_services(
        engines
            .iter()
            .map(|e| Box::new(Arc::clone(e)) as Box<dyn MatchService>)
            .collect(),
        tree_maps.clone(),
        router_config(2),
    )
    .unwrap();

    let mut servers = Vec::new();
    let mut services: Vec<Box<dyn MatchService>> = Vec::new();
    for engine in &engines {
        let backend: Arc<dyn MatchService> = Arc::new(Arc::clone(engine));
        let server = ShardServer::bind("127.0.0.1:0", backend).unwrap();
        let client = RemoteEngine::connect(server.local_addr().to_string(), fast_client()).unwrap();
        services.push(Box::new(client));
        servers.push(server);
    }
    let fleet = ShardedEngine::from_services(services, tree_maps, router_config(2)).unwrap();
    let qs = queries(&repo, 3, QueryStrategy::Auto);

    // Healthy: byte-identical to the in-process fleet.
    let healthy = fleet.answer_inline(&qs[0]).unwrap();
    assert!(!healthy.incomplete);
    assert_eq!(
        healthy.result_digest(),
        single_reference
            .answer_inline(&qs[0])
            .unwrap()
            .result_digest()
    );

    // Crash shard 1 (port stays bound): the fleet degrades around it after the
    // client's retries run dry.
    servers[1].suspend();
    let degraded = fleet.answer_inline(&qs[1]).unwrap();
    assert!(degraded.incomplete);
    assert_eq!(degraded.failed_shards, vec![1]);
    assert_eq!(
        degraded.result_digest(),
        // Survivors-only reference: shard 0 alone.
        ShardedEngine::from_services(
            vec![Box::new(Arc::clone(&engines[0])) as Box<dyn MatchService>],
            vec![fleet.shard_trees(0).to_vec()],
            router_config(1),
        )
        .unwrap()
        .answer_inline(&qs[1])
        .unwrap()
        .result_digest()
    );

    // Restart: the client redials on its next call and the shard rejoins. The
    // degraded answer was never cached, so even the *same* fingerprint heals.
    servers[1].resume();
    let healed = fleet.answer_inline(&qs[1]).unwrap();
    assert!(!healed.incomplete, "resume must heal the same fingerprint");
    assert_eq!(
        healed.result_digest(),
        single_reference
            .answer_inline(&qs[1])
            .unwrap()
            .result_digest()
    );
    let fresh = fleet.answer_inline(&qs[2]).unwrap();
    assert!(!fresh.incomplete);
}

#[test]
fn version_skew_and_garbage_get_structured_refusals() {
    let repo = repo();
    let engine: Arc<dyn MatchService> = Arc::new(MatchEngine::new(repo, engine_config()));
    let server = ShardServer::bind("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr();

    // A client from the future: the server refuses with ProtocolMismatch.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &encode(&Hello {
            protocol_version: 99,
        })
        .unwrap(),
    )
    .unwrap();
    let reply: WireResponse = decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(
        reply,
        WireResponse::Error(ServiceError::ProtocolMismatch {
            expected: PROTOCOL_VERSION,
            actual: 99
        })
    ));
    // ...and closes the connection.
    assert!(read_frame(&mut stream).is_err());

    // Garbage instead of a handshake: BadRequest, then close.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, b"\xff\xfenot a handshake").unwrap();
    let reply: WireResponse = decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(
        reply,
        WireResponse::Error(ServiceError::BadRequest { .. })
    ));
    assert!(read_frame(&mut stream).is_err());

    // Garbage after a valid handshake: same structured refusal.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &encode(&Hello {
            protocol_version: PROTOCOL_VERSION,
        })
        .unwrap(),
    )
    .unwrap();
    let ok: HelloOk = decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert_eq!(ok.protocol_version, PROTOCOL_VERSION);
    write_frame(&mut stream, b"{\"NotARequest\":[]}").unwrap();
    let reply: WireResponse = decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(matches!(
        reply,
        WireResponse::Error(ServiceError::BadRequest { .. })
    ));
    assert!(read_frame(&mut stream).is_err());

    // An oversized frame header: the server drops the connection without
    // reading (or allocating) the claimed payload.
    let mut stream = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut stream,
        &encode(&Hello {
            protocol_version: PROTOCOL_VERSION,
        })
        .unwrap(),
    )
    .unwrap();
    let _: HelloOk = decode(&read_frame(&mut stream).unwrap()).unwrap();
    use std::io::Write;
    stream
        .write_all(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes())
        .unwrap();
    stream.flush().unwrap();
    assert!(read_frame(&mut stream).is_err(), "server must hang up");
}

#[test]
fn client_refuses_a_version_skewed_server() {
    // A fake server that answers every handshake with a future version.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = read_frame(&mut stream);
            let _ = write_frame(
                &mut stream,
                &encode(&HelloOk {
                    protocol_version: 2,
                })
                .unwrap(),
            );
        }
    });
    let err = RemoteEngine::connect(addr.to_string(), fast_client()).unwrap_err();
    assert_eq!(
        err,
        ServiceError::ProtocolMismatch {
            expected: PROTOCOL_VERSION,
            actual: 2
        }
    );
    fake.join().unwrap();
}

#[test]
fn a_server_can_front_a_whole_sharded_engine() {
    // Router-of-routers: the MatchService seam composes — a ShardedEngine is
    // itself servable, and a remote client sees the same answers.
    let repo = repo();
    let single = MatchEngine::new(repo.clone(), engine_config());
    let sharded: Arc<dyn MatchService> = Arc::new(ShardedEngine::new(
        repo.clone(),
        router_config(2).with_shards(2),
    ));
    let server = ShardServer::bind("127.0.0.1:0", sharded).unwrap();
    let client = RemoteEngine::connect(server.local_addr().to_string(), fast_client()).unwrap();
    client.ping().unwrap();
    let query = queries(&repo, 1, QueryStrategy::Auto).pop().unwrap();
    let over_wire = client.submit(query.clone()).unwrap().wait().unwrap();
    assert_eq!(
        over_wire.result_digest(),
        single.answer_inline(&query).result_digest()
    );
    let metrics = client.metrics_snapshot().unwrap();
    assert_eq!(metrics.queries_served, 1);

    // The WireRequest::Query round trip also lost nothing to the wire: ask the
    // same engine twice and the second answer is the cached first.
    let again = client.submit(query).unwrap().wait().unwrap();
    assert!(again.cache_hit);
    assert_eq!(again.result_digest(), over_wire.result_digest());
}
