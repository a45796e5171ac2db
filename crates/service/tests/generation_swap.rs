//! The zero-downtime swap contract: flipping a snapshot-served fleet to a new
//! repository generation under concurrent traffic never errors a query, never
//! returns a mixed-generation response, and leaves the fleet serving the new
//! generation exactly. Refusals fail closed: a mixed-generation snapshot set,
//! a wrong shard count, a moved tree placement or a fixed (non-swappable)
//! fleet all leave the old generation serving untouched.

mod support;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::seeded_personal_schemas;

use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::snapshot::SnapshotError;
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository, ShardPlacement};
use xsm_service::{
    write_shard_snapshots, EngineConfig, MatchEngine, MatchQuery, MatchService, QueryStrategy,
    ShardedEngine, ShardedEngineConfig, SnapshotServeError, SwappableEngine,
};

/// A fresh scratch directory per call, cleaned up by the returned guard.
fn scratch_dir(tag: &str) -> (PathBuf, impl Drop) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xsm-genswap-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    (dir.clone(), Cleanup(dir))
}

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

fn repo() -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(53).with_target_elements(200)).generate()
}

fn queries(repo: &SchemaRepository, n: usize) -> Vec<MatchQuery> {
    seeded_personal_schemas(repo, n)
        .into_iter()
        .map(|p| {
            MatchQuery::new(p)
                .with_top_k(5)
                .with_threshold(0.5)
                .with_strategy(QueryStrategy::Auto)
        })
        .collect()
}

#[test]
fn single_swappable_engine_flips_generations_in_place() {
    let (dir, _cleanup) = scratch_dir("single");
    let repo = repo();
    let engine = MatchEngine::new(repo.clone(), engine_config());
    let gen1 = dir.join("gen1.xsmsnap");
    let gen2 = dir.join("gen2.xsmsnap");
    engine.write_snapshot(&gen1, 1).unwrap();
    engine.write_snapshot(&gen2, 2).unwrap();

    let swappable = SwappableEngine::from_snapshot(&gen1, engine_config()).unwrap();
    assert_eq!(swappable.generation(), 1);
    assert_eq!(swappable.swap_count(), 0);

    let query = queries(&repo, 1).pop().unwrap();
    let before = swappable.submit(query.clone()).unwrap().wait().unwrap();
    assert_eq!(before.generation, 1);

    // A held handle pins the old generation across the swap.
    let old_handle = swappable.current();
    assert_eq!(swappable.swap_to_snapshot(&gen2).unwrap(), 2);
    assert_eq!(swappable.generation(), 2);
    assert_eq!(swappable.swap_count(), 1);
    assert_eq!(old_handle.generation(), 1, "pinned generation stays alive");
    drop(old_handle);

    let after = swappable.submit(query.clone()).unwrap().wait().unwrap();
    assert_eq!(after.generation, 2);
    assert_eq!(
        after.result_digest(),
        before.result_digest(),
        "same repository content, different generation stamp"
    );
    assert_eq!(swappable.metrics_snapshot().unwrap().generation_swaps, 1);

    // Wrong expected generation refuses before any load.
    assert!(matches!(
        swappable.swap_to_snapshot_expecting(&gen1, 9),
        Err(SnapshotError::GenerationMismatch {
            expected: 9,
            found: 1
        })
    ));
    assert_eq!(
        swappable.generation(),
        2,
        "refusal leaves serving untouched"
    );
}

#[test]
fn fleet_swap_under_concurrent_traffic_is_atomic_and_errorless() {
    let (dir, _cleanup) = scratch_dir("fleet");
    let repo = repo();
    let gen1_dir = dir.join("gen1");
    let gen2_dir = dir.join("gen2");
    std::fs::create_dir_all(&gen1_dir).unwrap();
    std::fs::create_dir_all(&gen2_dir).unwrap();
    let gen1 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &gen1_dir, 1).unwrap();
    let gen2 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &gen2_dir, 2).unwrap();

    let fleet =
        Arc::new(ShardedEngine::from_swappable_snapshot_paths(&gen1, router_config(2)).unwrap());
    assert_eq!(fleet.serving_generation(), Some(1));

    let qs = queries(&repo, 4);
    let reference = MatchEngine::new(repo.clone(), engine_config());
    let digests: Vec<String> = qs
        .iter()
        .map(|q| reference.answer_inline(q).result_digest())
        .collect();

    // Hammer the fleet from worker threads while the main thread swaps.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|worker| {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            let qs = qs.clone();
            let digests = digests.clone();
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut saw = [false, false];
                while !stop.load(Ordering::Relaxed) {
                    let i = (worker + served as usize) % qs.len();
                    let response = fleet
                        .submit(qs[i].clone())
                        .expect("submission never fails during a swap")
                        .wait()
                        .expect("no query errors during a swap");
                    assert!(!response.incomplete, "no degraded response during a swap");
                    assert!(
                        response.generation == 1 || response.generation == 2,
                        "a response must come from exactly one generation, got {}",
                        response.generation
                    );
                    saw[(response.generation - 1) as usize] = true;
                    assert_eq!(response.result_digest(), digests[i]);
                    served += 1;
                }
                (served, saw)
            })
        })
        .collect();

    // Let traffic flow on generation 1, flip, let it flow on generation 2.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(fleet.swap_generation(&gen2).unwrap(), 2);
    assert_eq!(fleet.serving_generation(), Some(2));
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut total = 0;
    for hammer in hammers {
        let (served, _saw) = hammer.join().unwrap();
        assert!(served > 0, "every hammer thread made progress");
        total += served;
    }
    assert!(total > 0);

    // After the flip every fresh answer is generation 2 — including repeats
    // of fingerprints served (and cached) before the swap: the swap cleared
    // the router cache under the gate.
    for (query, digest) in qs.iter().zip(&digests) {
        let response = fleet.answer_inline(query).unwrap();
        assert_eq!(response.generation, 2, "stale generation served post-swap");
        assert_eq!(&response.result_digest(), digest);
    }
    let router_metrics = fleet.metrics().router;
    assert_eq!(router_metrics.generation_swaps, 1);
    assert_eq!(router_metrics.failed_queries, 0);
}

#[test]
fn swap_refusals_fail_closed() {
    let (dir, _cleanup) = scratch_dir("refusals");
    let repo = repo();
    let gen1_dir = dir.join("gen1");
    let gen2_dir = dir.join("gen2");
    let gen3_dir = dir.join("gen3");
    let moved_dir = dir.join("moved");
    for d in [&gen1_dir, &gen2_dir, &gen3_dir, &moved_dir] {
        std::fs::create_dir_all(d).unwrap();
    }
    let gen1 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &gen1_dir, 1).unwrap();
    let gen2 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &gen2_dir, 2).unwrap();
    let gen3 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &gen3_dir, 3).unwrap();
    // Same shard count, different tree placement.
    let moved = write_shard_snapshots(&repo, 2, ShardPlacement::TreeHash, &moved_dir, 2).unwrap();

    let fleet = ShardedEngine::from_swappable_snapshot_paths(&gen1, router_config(2)).unwrap();
    let query = queries(&repo, 1).pop().unwrap();
    let baseline = fleet.answer_inline(&query).unwrap();
    assert_eq!(baseline.generation, 1);

    // A mixed-generation snapshot set is refused before any flip.
    let mixed = vec![gen2[0].clone(), gen3[1].clone()];
    assert!(matches!(
        fleet.swap_generation(&mixed),
        Err(SnapshotServeError::Snapshot(
            SnapshotError::GenerationMismatch {
                expected: 2,
                found: 3
            }
        ))
    ));

    // Wrong shard count.
    assert!(matches!(
        fleet.swap_generation(&gen2[..1]),
        Err(SnapshotServeError::Config(_))
    ));

    // A snapshot set that moves trees between shards.
    assert!(matches!(
        fleet.swap_generation(&moved),
        Err(SnapshotServeError::Config(_))
    ));

    // All refusals left generation 1 serving, byte-identically.
    let still = fleet.answer_inline(&query).unwrap();
    assert_eq!(still.generation, 1);
    assert_eq!(still.result_digest(), baseline.result_digest());

    // A fixed fleet (no swappable shards) cannot swap at all.
    let fixed = ShardedEngine::from_snapshot_paths(&gen1, router_config(2)).unwrap();
    assert!(matches!(
        fixed.swap_generation(&gen2),
        Err(SnapshotServeError::Config(_))
    ));
    assert_eq!(fixed.serving_generation(), None);

    // The valid swap still goes through after all those refusals.
    assert_eq!(fleet.swap_generation(&gen2).unwrap(), 2);
    assert_eq!(fleet.answer_inline(&query).unwrap().generation, 2);

    // And the mixed-generation *merge* guard is independent of swapping:
    // a fleet accidentally built half-and-half refuses to construct.
    let half = vec![gen1[0].clone(), gen2[1].clone()];
    assert!(matches!(
        ShardedEngine::from_swappable_snapshot_paths(&half, router_config(2)),
        Err(SnapshotServeError::Snapshot(
            SnapshotError::GenerationMismatch { .. }
        ))
    ));
}
