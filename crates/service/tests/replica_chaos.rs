//! The self-healing contract: a replicated sharded fleet under chaos —
//! killed replicas, flapping transports, suspended TCP servers — answers
//! every query **byte-identically** to a single engine, with zero
//! [`xsm_service::ServiceError`]s and zero `incomplete` responses. A dead
//! replica costs failovers and breaker trips (visible in the metrics), never
//! a failed or degraded query.
//!
//! The property suite draws fleet shapes (replicas 1–3 × shards 1/2/4) and a
//! per-replica chaos schedule (healthy, killed mid-batch, call-counted
//! flapping), keeping replica 0 of every shard healthy so the self-healing
//! invariant is actually satisfiable. Deterministic tests pin the individual
//! mechanisms: failover + breaker trips under flapping, hedging past a slow
//! replica, and the background prober redialing a suspended-then-resumed
//! [`xsm_service::ShardServer`].

mod support;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::seeded_personal_schemas;

use proptest::prelude::*;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{
    GeneratorConfig, RepositoryGenerator, RepositoryPartition, SchemaRepository, ShardPlacement,
};
use xsm_service::net::FaultyTransport;
use xsm_service::{
    BreakerState, EngineConfig, HealthConfig, HedgeConfig, MatchEngine, MatchQuery, MatchService,
    QueryStrategy, RemoteEngine, RemoteEngineConfig, ReplicaSet, ReplicaSetConfig, ShardServer,
    ShardedEngine, ShardedEngineConfig,
};

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_workers(1)
        .with_element_config(ElementMatchConfig::default().with_min_similarity(0.5))
}

fn router_config(shards: usize) -> ShardedEngineConfig {
    ShardedEngineConfig::default()
        .with_shards(shards)
        .with_router_workers(2)
        .with_engine_config(engine_config())
}

/// Breakers trip on the first failure and re-admit trials immediately; the
/// hedge fires fast. Aggressive on purpose: every chaos case should walk the
/// breaker through real transitions, not merely count failures.
fn replica_config() -> ReplicaSetConfig {
    ReplicaSetConfig::default()
        .with_health(
            HealthConfig::default()
                .with_failure_threshold(1)
                .with_open_cooldown(Duration::ZERO),
        )
        .with_hedge(
            HedgeConfig::default()
                .with_initial_delay(Duration::from_millis(10))
                .with_percentile(0.99),
        )
        // No prober thread: the tests drive probing explicitly (probe_now)
        // or, in the TCP test, configure a real interval.
        .with_probe_interval(None)
}

fn repo() -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(41).with_target_elements(200)).generate()
}

fn queries(repo: &SchemaRepository, n: usize) -> Vec<MatchQuery> {
    seeded_personal_schemas(repo, n)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let strategy = if i % 2 == 0 {
                QueryStrategy::Auto
            } else {
                QueryStrategy::Exhaustive
            };
            MatchQuery::new(p)
                .with_top_k(5)
                .with_threshold(0.5)
                .with_strategy(strategy)
        })
        .collect()
}

/// The single-engine reference answers, computed once for the whole suite.
fn reference_digests() -> &'static Vec<String> {
    static REFERENCE: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    REFERENCE.get_or_init(|| {
        let repo = repo();
        let single = MatchEngine::new(repo.clone(), engine_config());
        queries(&repo, QUERY_COUNT)
            .iter()
            .map(|q| single.answer_inline(q).result_digest())
            .collect()
    })
}

const QUERY_COUNT: usize = 6;

/// One replica's chaos assignment for a case.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Chaos {
    Healthy,
    /// Kill switch flipped on right after the batch is submitted, off again
    /// after the batch completes.
    KilledMidBatch,
    /// Deterministic fail-K/succeed-M cycle from the start.
    Flapping(u64, u64),
}

fn chaos_for(seed: u64, shard: usize, replica: usize) -> Chaos {
    // Replica 0 stays healthy: the zero-failure invariant needs one live
    // replica per shard at all times.
    if replica == 0 {
        return Chaos::Healthy;
    }
    let mut h = seed ^ ((shard as u64) << 32) ^ (replica as u64);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    match h % 3 {
        0 => Chaos::Healthy,
        1 => Chaos::KilledMidBatch,
        _ => Chaos::Flapping(1 + h % 2, 1 + (h >> 8) % 2),
    }
}

proptest! {
    /// Replicated sharded fleets under drawn kill/flap schedules: byte-identical
    /// to the single engine, `incomplete == false` and zero errors throughout.
    #[test]
    fn chaotic_replicated_fleet_serves_like_a_single_engine(
        replicas in 1usize..4,
        shard_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let shards = [1usize, 2, 4][shard_pick];
        let repo = repo();
        let reference = reference_digests();
        let partition = RepositoryPartition::build(&repo, shards, ShardPlacement::Contiguous);
        let (parts, tree_maps) = partition.into_parts();

        let mut kill_switches = Vec::new();
        let mut replica_sets = Vec::new();
        let mut services: Vec<Box<dyn MatchService>> = Vec::new();
        for (shard, part) in parts.into_iter().enumerate() {
            let mut backends: Vec<Box<dyn MatchService>> = Vec::new();
            for replica in 0..replicas {
                let engine = MatchEngine::new(part.clone(), engine_config());
                let transport = Arc::new(FaultyTransport::new(Box::new(engine)));
                match chaos_for(seed, shard, replica) {
                    Chaos::Healthy => {}
                    Chaos::KilledMidBatch => kill_switches.push(transport.kill_switch()),
                    Chaos::Flapping(fail, succeed) => transport.set_flapping(fail, succeed),
                }
                backends.push(Box::new(Arc::clone(&transport)));
            }
            let set = Arc::new(ReplicaSet::new(backends, replica_config()).unwrap());
            services.push(Box::new(Arc::clone(&set)));
            replica_sets.push(set);
        }
        let fleet =
            ShardedEngine::from_services(services, tree_maps, router_config(shards)).unwrap();

        let qs = queries(&repo, QUERY_COUNT);

        // Phase 1: flapping already active — every answer complete and exact.
        for (i, query) in qs.iter().take(QUERY_COUNT / 2).enumerate() {
            let response = fleet.answer_inline(query).unwrap();
            prop_assert!(!response.incomplete, "phase 1 query {i} degraded");
            prop_assert!(response.failed_shards.is_empty());
            prop_assert_eq!(&response.result_digest(), &reference[i]);
        }

        // Phase 2: kill the scheduled replicas *while* a batch is in flight.
        let pending: Vec<_> = qs
            .iter()
            .map(|q| fleet.submit(q.clone()).unwrap())
            .collect();
        for switch in &kill_switches {
            switch.store(true, Ordering::SeqCst);
        }
        for (i, handle) in pending.into_iter().enumerate() {
            let response = handle.wait().unwrap();
            prop_assert!(!response.incomplete, "mid-kill query {i} degraded");
            prop_assert!(response.failed_shards.is_empty());
            prop_assert_eq!(&response.result_digest(), &reference[i]);
        }

        // Phase 3: revive and probe — the sets fold dead replicas back in.
        for switch in &kill_switches {
            switch.store(false, Ordering::SeqCst);
        }
        for set in &replica_sets {
            set.probe_now();
        }
        for (i, query) in qs.iter().enumerate() {
            let response = fleet.answer_inline(query).unwrap();
            prop_assert!(!response.incomplete, "post-heal query {i} degraded");
            prop_assert_eq!(&response.result_digest(), &reference[i]);
            prop_assert_eq!(response.generation, 0);
        }
    }
}

#[test]
fn killed_replica_costs_failovers_and_breaker_trips_never_queries() {
    let repo = repo();
    let single = MatchEngine::new(repo.clone(), engine_config());
    let qs = queries(&repo, 4);

    let doomed = Arc::new(FaultyTransport::new(Box::new(MatchEngine::new(
        repo.clone(),
        engine_config(),
    ))));
    let healthy = MatchEngine::new(repo.clone(), engine_config());
    let set = ReplicaSet::new(
        vec![Box::new(Arc::clone(&doomed)), Box::new(healthy)],
        replica_config(),
    )
    .unwrap();
    assert_eq!(set.replica_count(), 2);

    doomed.kill_switch().store(true, Ordering::SeqCst);
    for query in &qs {
        let response = set.submit(query.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.result_digest(),
            single.answer_inline(query).result_digest(),
            "failover answer must be the answer"
        );
    }
    let metrics = set.metrics_snapshot().unwrap();
    assert_eq!(metrics.failed_queries, 0, "a dead replica fails no queries");
    assert_eq!(metrics.queries_served, qs.len() as u64);
    assert!(metrics.failovers >= 1, "the dead replica forced failovers");
    assert!(metrics.breaker_opens >= 1, "its breaker tripped");
    assert!(
        set.breaker_states().contains(&BreakerState::Open),
        "the dead replica's breaker stays open while it is down"
    );

    // Revive + probe: the breaker closes through the redial path and the
    // redial is counted.
    doomed.kill_switch().store(false, Ordering::SeqCst);
    set.probe_now();
    assert!(
        set.breaker_states()
            .iter()
            .all(|s| *s == BreakerState::Closed),
        "probe must close the healed breaker"
    );
    assert_eq!(set.metrics_snapshot().unwrap().probe_redials, 1);
}

#[test]
fn flapping_replica_walks_the_breaker_without_failing_queries() {
    let repo = repo();
    let single = MatchEngine::new(repo.clone(), engine_config());
    let qs = queries(&repo, 6);

    let flappy = Arc::new(FaultyTransport::new(Box::new(MatchEngine::new(
        repo.clone(),
        engine_config(),
    ))));
    flappy.set_flapping(2, 1);
    let set = ReplicaSet::new(
        vec![
            Box::new(Arc::clone(&flappy)) as Box<dyn MatchService>,
            Box::new(MatchEngine::new(repo.clone(), engine_config())),
        ],
        replica_config(),
    )
    .unwrap();

    for query in &qs {
        let response = set.submit(query.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.result_digest(),
            single.answer_inline(query).result_digest()
        );
    }
    let metrics = set.metrics_snapshot().unwrap();
    assert_eq!(metrics.failed_queries, 0);
    assert_eq!(metrics.queries_served, qs.len() as u64);
    assert!(
        metrics.failovers + metrics.breaker_opens >= 1,
        "a fail-2/succeed-1 flap schedule must trip something"
    );
}

#[test]
fn hedging_races_past_a_slow_replica() {
    let repo = repo();
    let single = MatchEngine::new(repo.clone(), engine_config());
    let qs = queries(&repo, 6);

    let slow = Arc::new(FaultyTransport::new(Box::new(MatchEngine::new(
        repo.clone(),
        engine_config(),
    ))));
    slow.set_slowdown(Some(Duration::from_millis(150)));
    let set = ReplicaSet::new(
        vec![
            Box::new(Arc::clone(&slow)) as Box<dyn MatchService>,
            Box::new(MatchEngine::new(repo.clone(), engine_config())),
        ],
        ReplicaSetConfig::default()
            .with_hedge(
                HedgeConfig::default()
                    .with_initial_delay(Duration::from_millis(10))
                    .with_percentile(0.99),
            )
            .with_probe_interval(None),
    )
    .unwrap();

    let started = Instant::now();
    for query in &qs {
        let response = set.submit(query.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.result_digest(),
            single.answer_inline(query).result_digest()
        );
    }
    let elapsed = started.elapsed();
    let metrics = set.metrics_snapshot().unwrap();
    assert_eq!(metrics.failed_queries, 0);
    assert!(
        metrics.hedged_queries >= 1,
        "the slow primary must trigger hedges (elapsed {elapsed:?})"
    );
    assert!(
        metrics.hedge_wins >= 1,
        "a 150ms-slow primary loses the race to a 10ms hedge"
    );
    assert!(metrics.hedge_wins <= metrics.hedged_queries);
}

#[test]
fn suspended_tcp_replica_heals_through_the_background_prober() {
    let repo = repo();
    let single = MatchEngine::new(repo.clone(), engine_config());
    let partition = RepositoryPartition::build(&repo, 2, ShardPlacement::Contiguous);
    let (parts, tree_maps) = partition.into_parts();

    let client_config = RemoteEngineConfig::default()
        .with_connect_timeout(Duration::from_millis(300))
        .with_io_timeout(Duration::from_millis(500))
        .with_request_deadline(Duration::from_secs(2))
        .with_retries(1)
        .with_backoff(Duration::from_millis(5));

    // 2 shards × 2 replicas, each replica a real ShardServer + RemoteEngine.
    let mut servers = Vec::new();
    let mut replica_sets = Vec::new();
    let mut services: Vec<Box<dyn MatchService>> = Vec::new();
    for part in parts {
        let mut backends: Vec<Box<dyn MatchService>> = Vec::new();
        for _ in 0..2 {
            let engine: Arc<dyn MatchService> =
                Arc::new(MatchEngine::new(part.clone(), engine_config()));
            let server = ShardServer::bind("127.0.0.1:0", engine).unwrap();
            let client =
                RemoteEngine::connect(server.local_addr().to_string(), client_config.clone())
                    .unwrap();
            backends.push(Box::new(client));
            servers.push(server);
        }
        let set = Arc::new(
            ReplicaSet::new(
                backends,
                replica_config().with_probe_interval(Some(Duration::from_millis(25))),
            )
            .unwrap(),
        );
        services.push(Box::new(Arc::clone(&set)));
        replica_sets.push(set);
    }
    let fleet = ShardedEngine::from_services(services, tree_maps, router_config(2)).unwrap();
    let qs = queries(&repo, 4);

    // Crash shard 0's replica 0 mid-fleet (port stays bound — the realistic
    // wedge). Every query still completes, byte-identical.
    servers[0].suspend();
    for query in &qs {
        let response = fleet.answer_inline(query).unwrap();
        assert!(!response.incomplete, "a replicated shard never degrades");
        assert!(response.failed_shards.is_empty());
        assert_eq!(
            response.result_digest(),
            single.answer_inline(query).result_digest()
        );
    }
    let tripped = replica_sets[0].metrics_snapshot().unwrap();
    assert_eq!(tripped.failed_queries, 0);
    assert!(tripped.failovers >= 1 || tripped.hedged_queries >= 1);

    // Resume the server: the *background* prober must redial and close the
    // breaker with no traffic at all. Bounded wait, generous margin.
    servers[0].resume();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let healed = replica_sets[0]
            .breaker_states()
            .iter()
            .all(|s| *s == BreakerState::Closed);
        if healed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prober did not redial the resumed server within 5s \
             (states: {:?})",
            replica_sets[0].breaker_states()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(replica_sets[0].metrics_snapshot().unwrap().probe_redials >= 1);

    // And the healed fleet still serves exactly.
    let response = fleet.answer_inline(&qs[0]).unwrap();
    assert!(!response.incomplete);
    assert_eq!(
        response.result_digest(),
        single.answer_inline(&qs[0]).result_digest()
    );
}

#[test]
fn replica_set_rejects_an_empty_backend_list() {
    assert!(ReplicaSet::new(Vec::new(), ReplicaSetConfig::default()).is_err());
}

#[test]
fn replica_set_rejects_a_hedge_floor_above_its_cap() {
    // Clamping to an inverted range would panic inside the latency lock and
    // poison every later submission; the set must refuse it up front.
    let hedge = HedgeConfig {
        floor: Duration::from_millis(20),
        cap: Duration::from_millis(10),
        ..HedgeConfig::default()
    };
    let backend: Box<dyn MatchService> = Box::new(MatchEngine::new(repo(), engine_config()));
    let err = ReplicaSet::new(
        vec![backend],
        ReplicaSetConfig::default()
            .with_hedge(hedge)
            .with_probe_interval(None),
    )
    .err()
    .expect("an inverted hedge clamp is a configuration error");
    assert_eq!(err.field, "hedge.floor");
}
