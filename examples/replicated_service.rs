//! Self-healing replicated serving: each shard is a [`ReplicaSet`] of
//! interchangeable TCP backends with circuit breakers, hedged requests and a
//! background prober — so a crashed replica costs failovers, never failed
//! queries, and heals with no traffic at all. A second act flips the whole
//! fleet to a new snapshot generation under live queries: the zero-downtime
//! swap.
//!
//! Run with:
//! ```text
//! cargo run --release --example replicated_service
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use bellflower::matcher::element::ElementMatchConfig;
use bellflower::repo::{GeneratorConfig, RepositoryGenerator, RepositoryPartition, ShardPlacement};
use bellflower::schema::{SchemaNode, TreeBuilder};
use bellflower::service::{
    write_shard_snapshots, BreakerState, EngineConfig, HealthConfig, MatchEngine, MatchQuery,
    MatchService, QueryStrategy, RemoteEngine, RemoteEngineConfig, ReplicaSet, ReplicaSetConfig,
    ShardServer, ShardedEngine, ShardedEngineConfig,
};

const SHARDS: usize = 2;
const REPLICAS: usize = 2;

fn main() {
    let repository = RepositoryGenerator::new(
        GeneratorConfig::default()
            .with_seed(7)
            .with_target_elements(1_500),
    )
    .generate();
    println!(
        "repository: {} trees, {} elements; {SHARDS} shards × {REPLICAS} TCP replicas",
        repository.tree_count(),
        repository.total_nodes()
    );

    let engine_config = EngineConfig::builder()
        .workers(1)
        .element(ElementMatchConfig::default().with_min_similarity(0.5))
        .build()
        .expect("static engine config");
    let client_config = RemoteEngineConfig::default()
        .with_connect_timeout(Duration::from_millis(300))
        .with_io_timeout(Duration::from_millis(500))
        .with_request_deadline(Duration::from_secs(5))
        .with_retries(1)
        .with_backoff(Duration::from_millis(5));

    // Every replica of a shard serves the identical partition, so any
    // replica's answer is authoritative — that determinism is what makes
    // failover and hedging safe.
    let partition = RepositoryPartition::build(&repository, SHARDS, ShardPlacement::Contiguous);
    let (parts, tree_maps) = partition.into_parts();
    let mut servers = Vec::new();
    let mut replica_sets = Vec::new();
    let mut services: Vec<Box<dyn MatchService>> = Vec::new();
    for (shard, part) in parts.into_iter().enumerate() {
        let mut backends: Vec<Box<dyn MatchService>> = Vec::new();
        for replica in 0..REPLICAS {
            let backend: Arc<dyn MatchService> =
                Arc::new(MatchEngine::new(part.clone(), engine_config.clone()));
            let server = ShardServer::bind("127.0.0.1:0", backend).expect("bind a loopback port");
            println!(
                "  shard {shard} replica {replica} on {}",
                server.local_addr()
            );
            let client =
                RemoteEngine::connect(server.local_addr().to_string(), client_config.clone())
                    .expect("handshake with the replica server");
            backends.push(Box::new(client));
            servers.push(server);
        }
        // The replica set is a MatchService, so it drops into a router shard
        // slot exactly where a single backend would go. The 25ms prober
        // redials suspected-dead replicas in the background.
        let set = Arc::new(
            ReplicaSet::new(
                backends,
                ReplicaSetConfig::default()
                    // One failure opens the breaker — demo-crisp; production
                    // would keep the default threshold.
                    .with_health(HealthConfig::default().with_failure_threshold(1))
                    .with_probe_interval(Some(Duration::from_millis(25))),
            )
            .expect("assemble the replica set"),
        );
        services.push(Box::new(Arc::clone(&set)));
        replica_sets.push(set);
    }
    let router_config = ShardedEngineConfig::builder()
        .shards(SHARDS)
        .placement(ShardPlacement::Contiguous)
        .engine(engine_config.clone())
        .build()
        .expect("static router config");
    let fleet = ShardedEngine::from_services(services, tree_maps, router_config)
        .expect("assemble the replicated fleet");

    let single = MatchEngine::new(repository.clone(), engine_config.clone());
    // Eight distinct personal schemas over names the generated corpus uses, two
    // of them misspelt for the fuzzy matcher: four for the healthy fleet, four
    // fresh ones while a replica is down.
    let queries: Vec<MatchQuery> = [
        ["person", "name", "email"],
        ["book", "title", "author"],
        ["contact", "phone", "adress"],
        ["library", "shelf", "isbn"],
        ["member", "firstName", "lastName"],
        ["catalog", "publisher", "year"],
        ["profile", "homepage", "emial"],
        ["bookstore", "price", "genre"],
    ]
    .into_iter()
    .map(|[root, first, second]| {
        let personal = TreeBuilder::new("personal")
            .root(SchemaNode::element(root))
            .child(SchemaNode::element(first))
            .sibling(SchemaNode::element(second))
            .build();
        MatchQuery::new(personal)
            .with_top_k(5)
            .with_threshold(0.5)
            .with_strategy(QueryStrategy::Auto)
    })
    .collect();

    // Healthy serving: byte-identical to one unsharded, unreplicated engine.
    for query in &queries[..4] {
        let response = fleet.answer_inline(query).expect("healthy fleet answers");
        assert_eq!(
            response.result_digest(),
            single.answer_inline(query).result_digest()
        );
    }
    println!("\nhealthy fleet: all answers byte-identical to the single engine");

    // Crash shard 0's replica 0 — the port stays bound, connections just die,
    // the realistic wedge. Fresh queries (the healthy ones are already in the
    // router's result cache): the replica set fails over inside the shard, so
    // the router never even sees a degraded response.
    servers[0].suspend();
    for query in &queries[4..] {
        let response = fleet
            .answer_inline(query)
            .expect("replicated shard answers");
        assert!(!response.incomplete, "a replicated shard never degrades");
        assert_eq!(
            response.result_digest(),
            single.answer_inline(query).result_digest()
        );
    }
    let metrics = replica_sets[0].metrics_snapshot().expect("local metrics");
    println!(
        "replica down: 0 failed queries; {} failovers, {} hedges, {} breaker opens; \
         breakers now {:?}",
        metrics.failovers,
        metrics.hedged_queries,
        metrics.breaker_opens,
        replica_sets[0].breaker_states()
    );
    assert_eq!(metrics.failed_queries, 0);

    // Resume the server and just wait: the *background* prober redials the
    // open breaker and closes it — healing needs no query traffic.
    servers[0].resume();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !replica_sets[0]
        .breaker_states()
        .iter()
        .all(|s| *s == BreakerState::Closed)
    {
        assert!(Instant::now() < deadline, "prober did not heal within 5s");
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "replica back: prober redialed and closed the breaker ({} redials), no traffic needed",
        replica_sets[0]
            .metrics_snapshot()
            .expect("local metrics")
            .probe_redials
    );

    // ── Act two: zero-downtime generation swap ──────────────────────────────
    // A fleet booted from generation-1 snapshot files flips to generation 2
    // while queries are in flight: load-beside, one atomic pointer swap per
    // shard under the router's write gate, then the old engines drain.
    let snapshot_dir = std::env::temp_dir().join("bellflower-replicated-swap");
    let gen1_dir = snapshot_dir.join("gen1");
    let gen2_dir = snapshot_dir.join("gen2");
    std::fs::create_dir_all(&gen1_dir).expect("create snapshot directory");
    std::fs::create_dir_all(&gen2_dir).expect("create snapshot directory");
    let gen1 = write_shard_snapshots(
        &repository,
        SHARDS,
        ShardPlacement::Contiguous,
        &gen1_dir,
        1,
    )
    .expect("write generation-1 snapshots");
    let gen2 = write_shard_snapshots(
        &repository,
        SHARDS,
        ShardPlacement::Contiguous,
        &gen2_dir,
        2,
    )
    .expect("write generation-2 snapshots");

    let swappable = ShardedEngine::from_swappable_snapshot_paths(
        &gen1,
        ShardedEngineConfig::builder()
            .shards(SHARDS)
            .placement(ShardPlacement::Contiguous)
            .engine(engine_config.clone())
            .build()
            .expect("static router config"),
    )
    .expect("boot the swappable fleet from generation 1");
    println!(
        "\nswappable fleet up, serving generation {:?}",
        swappable.serving_generation()
    );

    let before = swappable
        .answer_inline(&queries[0])
        .expect("generation 1 answers");
    assert_eq!(before.generation, 1);
    assert_eq!(
        before.result_digest(),
        single.answer_inline(&queries[0]).result_digest()
    );

    let swapped_to = swappable
        .swap_generation(&gen2)
        .expect("flip the fleet to generation 2");
    let after = swappable
        .answer_inline(&queries[0])
        .expect("generation 2 answers");
    assert_eq!(swapped_to, 2);
    assert_eq!(after.generation, 2);
    assert_eq!(
        after.result_digest(),
        before.result_digest(),
        "same repository content, new revision stamp"
    );
    println!(
        "zero-downtime swap: generation {} → {} with identical answers; \
         router counted {} swaps, {} failed queries",
        before.generation,
        after.generation,
        swappable.metrics().router.generation_swaps,
        swappable.metrics().router.failed_queries
    );

    let _ = std::fs::remove_dir_all(&snapshot_dir);
}
