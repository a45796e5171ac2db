//! The live-repository contract: an engine mutated **incrementally** — trees
//! appended, trees tombstone-deleted, the posting arena compacted, in any
//! order — answers every query **byte-identically** to an engine rebuilt from
//! scratch over the same logical content.
//!
//! The property suite draws a seeded base corpus, a pool of extra trees and a
//! random interleaving of append / delete / compact / query operations, then
//! applies the interleaving simultaneously to a single live [`MatchEngine`]
//! and to live [`ShardedEngine`] fleets (shard counts 1/2/4, the placement
//! drawn per case) while tracking the logical content in a plain `Vec`. Every
//! query op — plus one final check per case — compares the *entire serialized
//! response* (strategy, counts, every pair, every score bit, the generation
//! stamp) against a from-scratch oracle in which deleted trees are empty
//! positional placeholders.
//!
//! Deterministic edge-case tests cover what random draws hit rarely: deleting
//! every tree, appending to an emptied repository, a name that dies with its
//! only tree and comes back (before and after a compaction), appends that
//! bring no new name, compaction idempotence and cache survival across
//! compaction, and snapshot round trips of a mutated engine that keeps
//! mutating after the reload. Every check also compares the `Auto` query plan
//! of the live index with the rebuild's: postings are per distinct name, but
//! the volumes a plan reads must not be.

mod support;

use proptest::prelude::*;
use support::seeded_personal_schemas;
use xsm_matcher::element::ElementMatchConfig;
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository, ShardPlacement};
use xsm_schema::{SchemaNode, SchemaTree, TreeBuilder, TreeId};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchResponse, QueryPlanner, QueryStrategy,
    ShardedEngine, ShardedEngineConfig,
};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_workers(1)
        .with_element_config(ElementMatchConfig::default().with_min_similarity(0.5))
}

fn sharded_config(
    shards: usize,
    placement: ShardPlacement,
    engine: EngineConfig,
) -> ShardedEngineConfig {
    ShardedEngineConfig::default()
        .with_shards(shards)
        .with_placement(placement)
        .with_router_workers(1)
        .with_engine_config(engine)
}

/// Full byte-level response comparison (`latency` is `#[serde(skip)]`; the
/// caller normalises `cache_hit`, which is serving metadata outside the
/// contract — everything else, the generation stamp included, must agree).
fn assert_identical(oracle: &MatchResponse, live: &MatchResponse, context: &str) {
    assert_eq!(
        oracle.result_digest(),
        live.result_digest(),
        "digest diverged: {context}"
    );
    assert_eq!(
        serde_json::to_string(oracle).unwrap(),
        serde_json::to_string(live).unwrap(),
        "serialized response diverged: {context}"
    );
}

/// The live engines under test plus the logical model they must track.
struct Harness {
    single: MatchEngine,
    fleets: Vec<ShardedEngine>,
    placement: ShardPlacement,
    /// Logical content: every tree ever added, in global id order, deleted
    /// trees replaced by an empty positional placeholder — exactly what a
    /// from-scratch rebuild at the same logical content sees.
    logical: Vec<SchemaTree>,
    /// Global ids currently alive (ascending).
    alive: Vec<TreeId>,
}

impl Harness {
    fn new(repo: SchemaRepository, placement: ShardPlacement) -> Self {
        Self::with_config(repo, placement, engine_config())
    }

    fn with_config(
        repo: SchemaRepository,
        placement: ShardPlacement,
        config: EngineConfig,
    ) -> Self {
        let logical: Vec<SchemaTree> = repo.trees().map(|(_, t)| t.clone()).collect();
        let alive = (0..repo.tree_count() as u32).map(TreeId).collect();
        Harness {
            single: MatchEngine::new(repo.clone(), config.clone()),
            fleets: SHARD_COUNTS
                .iter()
                .map(|&shards| {
                    ShardedEngine::new(
                        repo.clone(),
                        sharded_config(shards, placement, config.clone()),
                    )
                })
                .collect(),
            placement,
            logical,
            alive,
        }
    }

    fn append(&mut self, trees: Vec<SchemaTree>) {
        let expected: Vec<TreeId> = (0..trees.len())
            .map(|i| TreeId((self.logical.len() + i) as u32))
            .collect();
        let ids = self.single.append_trees(trees.clone()).unwrap();
        assert_eq!(ids, expected, "single engine assigns sequential ids");
        for fleet in &self.fleets {
            let ids = fleet.append_trees(trees.clone()).unwrap();
            assert_eq!(
                ids,
                expected,
                "{} shards assign the same global ids ({:?})",
                fleet.shard_count(),
                self.placement
            );
        }
        self.alive.extend(expected);
        self.logical.extend(trees);
    }

    fn delete(&mut self, victims: &[TreeId]) {
        let dropped = self.single.delete_trees(victims).unwrap();
        for fleet in &self.fleets {
            let fleet_dropped = fleet.delete_trees(victims).unwrap();
            assert_eq!(
                dropped,
                fleet_dropped,
                "{} shards drop the same posting count",
                fleet.shard_count()
            );
        }
        for &victim in victims {
            let name = self.logical[victim.index()].name().to_string();
            self.logical[victim.index()] = SchemaTree::new(name);
            self.alive.retain(|&t| t != victim);
        }
    }

    fn compact(&mut self) {
        self.single.compact();
        for fleet in &self.fleets {
            fleet.compact();
        }
    }

    /// Compare every live engine's answer against a from-scratch rebuild of
    /// the logical content, stepped to the live generation.
    fn check(&self, query: &MatchQuery) {
        let oracle = MatchEngine::new(
            SchemaRepository::from_trees(self.logical.clone()),
            engine_config(),
        );
        let generation = self.single.generation();
        if generation > 0 {
            oracle.advance_generation(generation).unwrap();
        }
        // Same plan from the live index as from the rebuilt one: the volumes
        // are node-weighted on both sides, however the names are posted.
        let planner = QueryPlanner::default();
        let plan = |index: &xsm_repo::NameIndex| {
            let plan = planner.plan(&query.personal, QueryStrategy::Auto, index, 0.5);
            (plan.strategy, plan.estimated_volume, plan.exhaustive_volume)
        };
        assert_eq!(
            plan(&self.single.index()),
            plan(&oracle.index()),
            "live plan vs rebuild"
        );
        let reference = oracle.answer_inline(query);
        let mut live = self.single.answer_inline(query);
        live.cache_hit = reference.cache_hit;
        assert_identical(&reference, &live, "single live engine vs rebuild");
        for fleet in &self.fleets {
            assert_eq!(fleet.generation(), Some(generation));
            let mut response = fleet.answer_inline(query).unwrap();
            response.cache_hit = reference.cache_hit;
            assert_identical(
                &reference,
                &response,
                &format!(
                    "{} shards ({:?}) vs rebuild",
                    fleet.shard_count(),
                    self.placement
                ),
            );
        }
    }
}

proptest! {
    /// The tentpole property: random interleavings of append / delete /
    /// compact / query over a single live engine and sharded live fleets all
    /// answer byte-identically to a from-scratch rebuild at every step.
    #[test]
    fn live_mutation_interleavings_match_a_rebuilt_oracle(
        seed in 1u64..4_000,
        elements in 60usize..160,
        placement_pick in 0usize..2,
        ops in proptest::collection::vec(0usize..4_000, 3..9),
    ) {
        let repo = RepositoryGenerator::new(
            GeneratorConfig::small(seed).with_target_elements(elements),
        )
        .generate();
        // Extra trees to append, and personal schemas to query with, are all
        // derived deterministically from the same draw.
        let mut pool: Vec<SchemaTree> = RepositoryGenerator::new(
            GeneratorConfig::small(seed ^ 0x9e37_79b9).with_target_elements(120),
        )
        .generate()
        .trees()
        .map(|(_, t)| t.clone())
        .collect();
        let personals = seeded_personal_schemas(&repo, 6);
        let placement = [ShardPlacement::Contiguous, ShardPlacement::TreeHash][placement_pick];

        let mut harness = Harness::new(repo, placement);
        for code in ops {
            let param = code / 4;
            match code % 4 {
                0 => {
                    let count = (1 + param % 3).min(pool.len());
                    if count > 0 {
                        harness.append(pool.drain(..count).collect());
                    }
                }
                1 => {
                    if !harness.alive.is_empty() {
                        let first = harness.alive[param % harness.alive.len()];
                        let mut victims = vec![first];
                        if param % 2 == 0 && harness.alive.len() > 1 {
                            let second = harness.alive[(param / 7) % harness.alive.len()];
                            if second != first {
                                victims.push(second);
                            }
                        }
                        harness.delete(&victims);
                    }
                }
                2 => harness.compact(),
                _ => {
                    let query = MatchQuery::new(personals[param % personals.len()].clone())
                        .with_top_k(1 + param % 8)
                        .with_threshold((param % 20) as f64 / 20.0)
                        .with_strategy(
                            [
                                QueryStrategy::Auto,
                                QueryStrategy::IndexPruned,
                                QueryStrategy::Exhaustive,
                            ][param % 3],
                        );
                    harness.check(&query);
                }
            }
        }
        // Every interleaving ends with a full check even when the draw held
        // no query op.
        let final_query = MatchQuery::new(personals[0].clone())
            .with_top_k(5)
            .with_threshold(0.5);
        harness.check(&final_query);
    }
}

fn base_repo(seed: u64, elements: usize) -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(seed).with_target_elements(elements)).generate()
}

#[test]
fn deleting_every_tree_then_appending_revives_the_engine() {
    let repo = base_repo(31, 120);
    let all: Vec<TreeId> = (0..repo.tree_count() as u32).map(TreeId).collect();
    let mut harness = Harness::new(repo.clone(), ShardPlacement::TreeHash);
    let query = MatchQuery::new(seeded_personal_schemas(&repo, 1).swap_remove(0))
        .with_top_k(5)
        .with_threshold(0.4);

    harness.delete(&all);
    harness.check(&query);
    let emptied = harness.single.answer_inline(&query);
    assert!(
        emptied.mappings.is_empty(),
        "a fully deleted forest matches nothing"
    );
    assert_eq!(emptied.total_matches, 0);

    // Appends continue the global id sequence past the tombstones.
    let extra: Vec<SchemaTree> = base_repo(32, 80).trees().map(|(_, t)| t.clone()).collect();
    harness.append(extra);
    harness.check(&query);
    assert!(
        !harness.single.answer_inline(&query).mappings.is_empty()
            || harness.single.answer_inline(&query).total_matches == 0,
        "the revived engine serves the appended content"
    );
}

#[test]
fn compaction_changes_no_answer_and_keeps_the_cache() {
    let repo = base_repo(33, 150);
    // A threshold of 1.0 disables auto-compaction so the test controls it.
    let engine = MatchEngine::new(repo.clone(), engine_config().with_compaction_threshold(1.0));
    let query = MatchQuery::new(seeded_personal_schemas(&repo, 1).swap_remove(0))
        .with_top_k(6)
        .with_threshold(0.4);
    engine
        .delete_trees(&[TreeId(0), TreeId(2), TreeId(4)])
        .unwrap();
    assert!(engine.dead_posting_fraction() > 0.0);
    let before = engine.answer_inline(&query);
    let cached = engine.answer_inline(&query);
    assert!(cached.cache_hit, "second serve hits the result cache");

    let generation = engine.generation();
    let reclaimed = engine.compact();
    assert!(reclaimed > 0, "compaction reclaims the tombstoned postings");
    assert_eq!(engine.dead_posting_fraction(), 0.0);
    assert_eq!(
        engine.generation(),
        generation,
        "compaction is physical-only: no generation step"
    );
    let after = engine.answer_inline(&query);
    assert!(
        after.cache_hit,
        "compaction must not invalidate the result cache"
    );
    assert_eq!(before.result_digest(), after.result_digest());
    assert_eq!(engine.compact(), 0, "compaction is idempotent");
}

fn named_tree(name: &str, fields: &[&str]) -> SchemaTree {
    let mut builder = TreeBuilder::new(name).root(SchemaNode::element(fields[0]));
    for field in &fields[1..] {
        builder = builder.child(SchemaNode::element(*field));
    }
    builder.build()
}

#[test]
fn auto_compaction_triggers_at_the_configured_threshold() {
    // A posting is dead once its *name* has no live node left, so what counts
    // towards the threshold is names dying, not trees.
    let repo = base_repo(34, 150);
    let novel = named_tree(
        "novel",
        &[
            "zebraCrossingPermit",
            "quokkaHabitatSurvey",
            "xylophoneTuningLog",
            "wombatBurrowDepth",
            "yachtMooringLedger",
            "kumquatHarvestTally",
        ],
    );
    // The same mutations with compaction disabled show what the trigger sees.
    let unmanaged = MatchEngine::new(repo.clone(), engine_config().with_compaction_threshold(1.0));
    let engine = MatchEngine::new(
        repo.clone(),
        engine_config().with_compaction_threshold(0.05),
    );
    let clean_postings = engine.index().posting_count();
    let mut copies = Vec::new();
    for e in [&unmanaged, &engine] {
        copies = e.append_trees(vec![novel.clone(), novel.clone()]).unwrap();
    }

    // One copy goes: every name lives on in the other, nothing is dead.
    for e in [&unmanaged, &engine] {
        e.delete_trees(&copies[..1]).unwrap();
        assert_eq!(e.dead_posting_fraction(), 0.0);
    }
    assert!(engine.index().posting_count() > clean_postings);

    // The other goes: six names die, and their postings cross 5 % of the arena.
    for e in [&unmanaged, &engine] {
        e.delete_trees(&copies[1..]).unwrap();
    }
    assert!(
        unmanaged.dead_posting_fraction() >= 0.05,
        "the dead names weigh {} of the arena",
        unmanaged.dead_posting_fraction()
    );
    assert_eq!(
        engine.dead_posting_fraction(),
        0.0,
        "delete_trees compacts once the dead fraction crosses the threshold"
    );
    assert_eq!(
        engine.index().posting_count(),
        clean_postings,
        "compaction reclaimed exactly the dead names' postings"
    );
    assert_eq!(
        engine.tombstoned_trees(),
        copies,
        "compaction reclaims postings but keeps the tombstone set"
    );
}

#[test]
fn a_name_that_dies_and_comes_back_matches_a_rebuild() {
    let repo = SchemaRepository::from_trees(vec![
        named_tree("t0", &["library", "book", "title", "author"]),
        named_tree("t1", &["person", "name", "email", "Title"]),
        named_tree("t2", &["order", "item", "price", "uniqueField"]),
    ]);
    let orders = named_tree("orders", &["order", "item", "uniqueField"]);
    let query = MatchQuery::new(named_tree("p", &["order", "itm", "uniqueFeild"]))
        .with_top_k(5)
        .with_threshold(0.3);
    // Compaction only where the test asks for it.
    let mut harness = Harness::with_config(
        repo,
        ShardPlacement::Contiguous,
        engine_config().with_compaction_threshold(1.0),
    );
    let dead = |h: &Harness| h.single.index().dead_postings();
    let postings = |h: &Harness| h.single.index().posting_count();
    harness.check(&query);

    // The only tree carrying "order", "item", "price" and "uniqueField" goes.
    harness.delete(&[TreeId(2)]);
    assert!(dead(&harness) > 0);
    harness.check(&query);
    assert!(harness.single.answer_inline(&query).mappings.is_empty());

    // An append brings three of the names back: revived in place, nothing
    // posted, and only "price" is still dead.
    let before = (postings(&harness), dead(&harness));
    harness.append(vec![orders.clone()]);
    assert_eq!(postings(&harness), before.0);
    assert!(dead(&harness) > 0 && dead(&harness) < before.1);
    harness.check(&query);
    assert!(!harness.single.answer_inline(&query).mappings.is_empty());

    // Appends that introduce no new name add no posting at all.
    harness.append(vec![
        orders.clone(),
        named_tree("lib", &["library", "title", "book"]),
    ]);
    assert_eq!(postings(&harness), before.0);
    harness.check(&query);

    // The names die again, a compaction reclaims them, an append posts them afresh.
    harness.delete(&[TreeId(3), TreeId(4)]);
    harness.check(&query);
    harness.compact();
    assert_eq!(dead(&harness), 0, "as in a from-scratch rebuild");
    assert!(postings(&harness) < before.0);
    harness.check(&query);
    harness.append(vec![orders]);
    assert_eq!(dead(&harness), 0, "as in a from-scratch rebuild");
    harness.check(&query);
    assert!(!harness.single.answer_inline(&query).mappings.is_empty());

    // And once more through a compaction that has twin segments to merge.
    harness.delete(&[TreeId(0)]);
    harness.compact();
    harness.check(&query);
}

#[test]
fn snapshot_round_trip_preserves_and_continues_live_state() {
    let dir = std::env::temp_dir().join(format!("xsm-live-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("live.snap");

    let repo = base_repo(35, 140);
    let engine = MatchEngine::new(repo.clone(), engine_config());
    let extra: Vec<SchemaTree> = base_repo(36, 60)
        .trees()
        .map(|(_, t)| t.clone())
        .take(3)
        .collect();
    engine.append_trees(extra).unwrap();
    engine.delete_trees(&[TreeId(1), TreeId(3)]).unwrap();
    let generation = engine.generation();
    let query = MatchQuery::new(seeded_personal_schemas(&repo, 1).swap_remove(0))
        .with_top_k(5)
        .with_threshold(0.4);
    let before = engine.answer_inline(&query);

    engine.write_snapshot(&path, generation).unwrap();
    let warm = MatchEngine::from_snapshot(&path, engine_config()).unwrap();
    assert_eq!(warm.generation(), generation);
    assert_eq!(warm.tombstoned_trees(), engine.tombstoned_trees());
    let mut warmed = warm.answer_inline(&query);
    warmed.cache_hit = before.cache_hit;
    assert_identical(&before, &warmed, "snapshot round trip of a mutated engine");

    // The reloaded engine keeps mutating from where the writer stopped.
    warm.delete_trees(&[TreeId(0)]).unwrap();
    engine.delete_trees(&[TreeId(0)]).unwrap();
    assert_eq!(warm.generation(), engine.generation());
    let a = engine.answer_inline(&query);
    let mut b = warm.answer_inline(&query);
    b.cache_hit = a.cache_hit;
    assert_identical(&a, &b, "post-reload mutations stay in lockstep");

    std::fs::remove_dir_all(&dir).ok();
}
