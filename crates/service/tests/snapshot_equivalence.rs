//! The snapshot contract: an engine reconstructed from a snapshot file answers
//! every query **byte-identically** to an engine freshly built from the same
//! repository at the same generation — single-engine and sharded, across
//! strategies, placements and shard counts.
//!
//! The property suite draws seeded generator corpora, writes them to disk,
//! loads them back and compares the *entire serialized response* (the same
//! comparison `shard_equivalence.rs` uses). Deterministic tests cover the
//! startup metrics tag, generation enforcement across a shard fleet, and the
//! bootstrap config validation.

mod support;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use support::seeded_personal_schemas;

use proptest::prelude::*;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::snapshot::SnapshotError;
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository, ShardPlacement};
use xsm_service::{
    write_shard_snapshots, EngineConfig, MatchEngine, MatchQuery, MatchResponse, QueryStrategy,
    ShardedEngine, ShardedEngineConfig, SnapshotServeError, StartupSource,
};

/// A fresh scratch directory per call, cleaned up by the returned guard.
fn scratch_dir(tag: &str) -> (PathBuf, impl Drop) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xsm-snapshot-eq-{}-{tag}-{}",
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

fn sharded_config(shards: usize, placement: ShardPlacement) -> ShardedEngineConfig {
    ShardedEngineConfig::default()
        .with_shards(shards)
        .with_placement(placement)
        .with_router_workers(1)
        .with_engine_config(engine_config())
}

fn assert_identical(fresh: &MatchResponse, loaded: &MatchResponse, context: &str) {
    assert_eq!(
        fresh.result_digest(),
        loaded.result_digest(),
        "digest diverged: {context}"
    );
    assert_eq!(
        serde_json::to_string(fresh).unwrap(),
        serde_json::to_string(loaded).unwrap(),
        "serialized response diverged: {context}"
    );
}

fn queries_for(repo: &SchemaRepository, top_k: usize, threshold: f64) -> Vec<MatchQuery> {
    let mut schemas = seeded_personal_schemas(repo, 2);
    let second = schemas.pop().unwrap();
    let first = schemas.pop().unwrap();
    [
        QueryStrategy::Auto,
        QueryStrategy::IndexPruned,
        QueryStrategy::Exhaustive,
    ]
    .into_iter()
    .flat_map(|strategy| {
        [first.clone(), second.clone()].into_iter().map(move |p| {
            MatchQuery::new(p)
                .with_top_k(top_k)
                .with_threshold(threshold)
                .with_strategy(strategy)
        })
    })
    .collect()
}

proptest! {
    #[test]
    fn single_engine_snapshot_answers_identically(
        seed in 1u64..5_000,
        elements in 80usize..220,
        top_k in 1usize..12,
        threshold in 0.0f64..1.0,
        generation in 0u64..u64::MAX,
    ) {
        let repo = RepositoryGenerator::new(
            GeneratorConfig::small(seed).with_target_elements(elements),
        )
        .generate();
        let fresh = MatchEngine::new(repo.clone(), engine_config());

        let (dir, _cleanup) = scratch_dir("single");
        let path = dir.join("repo.xsmsnap");
        fresh.write_snapshot(&path, generation).unwrap();
        let loaded = MatchEngine::from_snapshot_expecting(&path, engine_config(), generation)
            .unwrap();
        prop_assert_eq!(loaded.metrics().startup_source, StartupSource::SnapshotLoad);

        for query in queries_for(&repo, top_k, threshold) {
            let a = fresh.answer_inline(&query);
            let mut b = loaded.answer_inline(&query);
            b.cache_hit = a.cache_hit;
            // Serving metadata, not result content: the loaded engine stamps
            // its snapshot generation where the fresh build stamps 0.
            prop_assert_eq!(b.generation, generation);
            b.generation = a.generation;
            assert_identical(&a, &b, &format!("seed {seed}, fp {}", query.fingerprint()));
        }
    }

    #[test]
    fn sharded_snapshot_fleet_answers_identically(
        seed in 1u64..5_000,
        elements in 80usize..200,
        top_k in 1usize..10,
        threshold in 0.0f64..1.0,
        shard_pick in 0usize..4,
        placement_pick in 0usize..2,
    ) {
        let shards = [1usize, 2, 3, 8][shard_pick];
        let placement = [ShardPlacement::Contiguous, ShardPlacement::TreeHash][placement_pick];
        let repo = RepositoryGenerator::new(
            GeneratorConfig::small(seed).with_target_elements(elements),
        )
        .generate();

        let (dir, _cleanup) = scratch_dir("sharded");
        let paths = write_shard_snapshots(&repo, shards, placement, &dir, seed).unwrap();
        prop_assert_eq!(paths.len(), shards);

        let cold = ShardedEngine::new(repo.clone(), sharded_config(shards, placement));
        let warm =
            ShardedEngine::from_snapshot_paths_expecting(&paths, sharded_config(shards, placement), seed)
                .unwrap();
        for (local, engine) in warm.shard_engines().iter().enumerate() {
            prop_assert_eq!(engine.metrics().startup_source, StartupSource::SnapshotLoad);
            prop_assert_eq!(warm.shard_trees(local), cold.shard_trees(local));
        }

        for query in queries_for(&repo, top_k, threshold) {
            let a = cold.answer_inline(&query).unwrap();
            let mut b = warm.answer_inline(&query).unwrap();
            b.cache_hit = a.cache_hit;
            // Serving metadata, not result content (see the single-engine test).
            prop_assert_eq!(b.generation, seed);
            b.generation = a.generation;
            assert_identical(
                &a,
                &b,
                &format!("seed {seed}, {shards} shards, {placement:?}, fp {}", query.fingerprint()),
            );
        }
    }
}

#[test]
fn startup_metrics_distinguish_cold_build_from_snapshot_load() {
    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(11).with_target_elements(120)).generate();
    let cold = MatchEngine::new(repo, engine_config());
    let m = cold.metrics();
    assert_eq!(m.startup_source, StartupSource::ColdBuild);
    assert_eq!(m.startup_source.label(), "cold_build");

    let (dir, _cleanup) = scratch_dir("metrics");
    let path = dir.join("repo.xsmsnap");
    cold.write_snapshot(&path, 1).unwrap();
    let warm = MatchEngine::from_snapshot(&path, engine_config()).unwrap();
    let m = warm.metrics();
    assert_eq!(m.startup_source, StartupSource::SnapshotLoad);
    assert_eq!(m.startup_source.label(), "snapshot_load");
    // The tag survives the wire format (it is part of EngineMetrics).
    let json = serde_json::to_string(&m).unwrap();
    let back: xsm_service::EngineMetrics = serde_json::from_str(&json).unwrap();
    assert_eq!(back.startup_source, StartupSource::SnapshotLoad);
}

#[test]
fn a_mixed_generation_fleet_is_refused() {
    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(13).with_target_elements(140)).generate();
    let (dir, _cleanup) = scratch_dir("mixed");
    let gen5 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &dir, 5).unwrap();
    // Overwrite shard 1 with a generation-6 copy: same repository, wrong stamp.
    let dir6 = dir.join("g6");
    std::fs::create_dir_all(&dir6).unwrap();
    let gen6 = write_shard_snapshots(&repo, 2, ShardPlacement::Contiguous, &dir6, 6).unwrap();
    let mixed = vec![gen5[0].clone(), gen6[1].clone()];

    let err =
        ShardedEngine::from_snapshot_paths(&mixed, sharded_config(2, ShardPlacement::Contiguous))
            .err()
            .expect("mixed fleet must be refused");
    match err {
        SnapshotServeError::Snapshot(SnapshotError::GenerationMismatch { expected, found }) => {
            assert_eq!(expected, 5);
            assert_eq!(found, 6);
        }
        other => panic!("mixed fleet gave {other:?}"),
    }
    // The explicit-generation variant rejects a uniform fleet of the wrong one.
    let err = ShardedEngine::from_snapshot_paths_expecting(
        &gen5,
        sharded_config(2, ShardPlacement::Contiguous),
        9,
    )
    .err()
    .expect("wrong expected generation must be refused");
    match err {
        SnapshotServeError::Snapshot(SnapshotError::GenerationMismatch { expected, .. }) => {
            assert_eq!(expected, 9)
        }
        other => panic!("wrong expected generation gave {other:?}"),
    }
}

#[test]
fn snapshot_bootstrap_validates_the_config() {
    let empty: Vec<PathBuf> = Vec::new();
    let err =
        ShardedEngine::from_snapshot_paths(&empty, sharded_config(1, ShardPlacement::Contiguous))
            .err()
            .expect("empty path list must be refused");
    assert!(matches!(err, SnapshotServeError::Config(_)), "{err:?}");
    let config = sharded_config(1, ShardPlacement::Contiguous).with_engine_config(
        engine_config().with_element_config(ElementMatchConfig::default().with_max_candidates(3)),
    );
    let paths = vec![PathBuf::from("unused.xsmsnap")];
    let err = ShardedEngine::from_snapshot_paths(&paths, config)
        .err()
        .expect("capped config must be refused before any file is read");
    assert!(matches!(err, SnapshotServeError::Config(_)), "{err:?}");
}

#[test]
fn a_damaged_shard_file_fails_the_whole_bootstrap() {
    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(17).with_target_elements(120)).generate();
    let (dir, _cleanup) = scratch_dir("damaged");
    let paths = write_shard_snapshots(&repo, 2, ShardPlacement::TreeHash, &dir, 1).unwrap();
    let mut bytes = std::fs::read(&paths[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&paths[1], &bytes).unwrap();
    let err =
        ShardedEngine::from_snapshot_paths(&paths, sharded_config(2, ShardPlacement::TreeHash))
            .err()
            .expect("damaged shard must fail the bootstrap");
    match err {
        SnapshotServeError::Snapshot(e) => {
            assert!(
                matches!(
                    e,
                    SnapshotError::SectionChecksum { .. } | SnapshotError::FooterChecksum
                ),
                "{e:?}"
            );
        }
        other => panic!("damaged shard gave {other:?}"),
    }
}
