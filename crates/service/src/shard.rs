//! The [`ShardedEngine`]: one repository served by N shard services.
//!
//! A repository that outgrows a single host is partitioned **by tree**
//! ([`xsm_repo::RepositoryPartition`]): every schema mapping lives inside one tree,
//! the clustering control loop is tree-local, and the planner statistics are
//! additive over a disjoint partition — so a query scattered to all shards and
//! gathered with a deterministic merge returns **byte-identical** answers to the
//! unsharded engine. That equivalence is the module's contract, proven for
//! 1/2/3/8 shards by the property suite in `tests/shard_equivalence.rs` and over
//! loopback TCP by `tests/net_equivalence.rs`.
//!
//! ## Transport blindness
//!
//! Since the `MatchService` redesign the router holds `Box<dyn MatchService>`
//! slots, not concrete engines: a shard may be an in-process [`MatchEngine`]
//! (the [`ShardedEngine::new`] path), a [`crate::net::RemoteEngine`] speaking
//! the frame protocol to another host ([`ShardedEngine::from_services`]), or
//! any other implementation of the trait. The scatter/gather logic is identical
//! either way.
//!
//! ## Scatter
//!
//! The router resolves [`QueryStrategy::Auto`] **once**, by gathering each
//! shard's additive [`PlanStats`] and deciding globally
//! ([`QueryPlanner::plan_from_stats`]), then forces the resolved strategy onto
//! every shard — per-shard re-planning could split the fleet across strategies
//! and silently diverge from the single-engine answer. Sub-queries flow through
//! each shard service's own submission path.
//!
//! ## Gather
//!
//! Each shard answers with its local top-k; shard-local node ids are translated
//! back to global ids (tree placement preserves ascending id order, so translation
//! never disturbs a tie-break), the lists are merged with the same comparator the
//! pipeline sorts with — score descending, then repository node ids — and cut to
//! `top_k`. The global top-k is always contained in the union of per-shard top-ks,
//! so the merge loses nothing. `candidate_count` and `total_matches` are sums.
//!
//! ## Partial failure
//!
//! A shard that fails — submission rejected, transport gave up, deadline
//! elapsed — does not fail the query: the router **degrades** to the shards
//! that answered, marks the merged response
//! [`MatchResponse::incomplete`] and lists the missing shard indexes in
//! [`MatchResponse::failed_shards`]. A degraded answer is never *wrong* (every
//! mapping is a true mapping of the surviving slice) and is never cached, so
//! recovered shards rejoin on the next submission. Only when **every** shard
//! fails does the query return the last shard's [`ServiceError`].
//!
//! ## Above the router
//!
//! The router carries its own bounded LRU [`ResultCache`] and [`Singleflight`] map
//! keyed by the *original* query fingerprint (requested strategy included):
//! concurrent identical queries coalesce onto one scatter, repeats are answered
//! without touching any shard. [`ShardedEngine::metrics`] reports the router's own
//! counters plus the per-shard breakdown.
//!
//! ## Live mutation
//!
//! A fleet with in-process shards is **live**: [`ShardedEngine::append_trees`]
//! routes new trees by the construction placement (hash placement is a pure
//! function of the tree, so existing trees never move) and
//! [`ShardedEngine::delete_trees`] tombstones by global id. Both step every
//! shard — mutated or not — to one target generation under the swap gate's
//! write side, so an in-flight scatter never merges across a half-mutated
//! fleet and the mixed-generation guard keeps holding.
//!
//! ## Restrictions
//!
//! [`xsm_matcher::element::ElementMatchConfig::max_candidates_per_node`] must be
//! unset: the cap keeps the
//! globally best candidates per personal node, which per-shard engines cannot
//! reconstruct from local views (each would cap against its own candidates, keeping
//! pairs the global cut would drop). Construction panics (or the builder and
//! [`ShardedEngine::from_services`] return [`ConfigError`]) rather than serving
//! subtly different answers.

use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};
use xsm_matcher::generator::sort_mappings;
use xsm_matcher::{MappingElement, SchemaMapping};
use xsm_repo::{tree_hash_shard, RepositoryPartition, SchemaRepository, ShardPlacement};
use xsm_schema::{GlobalNodeId, SchemaTree, TreeId};

use crate::cache::{ResultCache, DEFAULT_RESULT_CACHE_CAPACITY};
use crate::engine::{EngineConfig, MatchEngine, PendingResponse};
use crate::error::{ConfigError, ServiceError, ServiceResult};
use crate::metrics::{EngineMetrics, MetricsRegistry};
use crate::planner::{PlanStats, QueryPlanner};
use crate::pool::WorkerPool;
use crate::query::{MatchQuery, MatchResponse, PlannedStrategy, QueryStrategy};
use crate::service::MatchService;
use crate::singleflight::Singleflight;
use crate::swap::SwappableEngine;

/// Construction-time configuration of a [`ShardedEngine`].
///
/// `#[non_exhaustive]`: build one with [`ShardedEngineConfig::builder`]
/// (validating) or [`ShardedEngineConfig::default`] plus the `with_*` methods
/// (clamping).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ShardedEngineConfig {
    /// Number of shards the repository is partitioned into (`>= 1`; shards beyond
    /// the tree count stay empty and answer instantly).
    pub shards: usize,
    /// How trees are placed onto shards.
    pub placement: ShardPlacement,
    /// Router worker threads scattering/gathering queries (`>= 1`).
    pub router_workers: usize,
    /// Capacity of the router's bounded submission queue (backpressure on
    /// submitters, exactly like the engine's).
    pub router_queue_capacity: usize,
    /// Capacity of the router-level result cache (whole merged responses, LRU).
    pub router_result_cache_capacity: usize,
    /// Configuration applied to **every** shard engine (workers per shard, element
    /// matching, clustering variant, objective, planner tuning). For
    /// [`ShardedEngine::from_services`] only the planner tuning and the element
    /// floor are read — the remote shards were configured at their own
    /// construction, and the caller is responsible for keeping them consistent.
    pub engine: EngineConfig,
}

impl Default for ShardedEngineConfig {
    fn default() -> Self {
        ShardedEngineConfig {
            shards: 2,
            placement: ShardPlacement::Contiguous,
            router_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(4),
            router_queue_capacity: 64,
            router_result_cache_capacity: DEFAULT_RESULT_CACHE_CAPACITY,
            engine: EngineConfig::default(),
        }
    }
}

impl ShardedEngineConfig {
    /// Builder-style shard-count override (`0` is clamped to `1`).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style placement override.
    pub fn with_placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style router worker-count override (`0` is clamped to `1`).
    pub fn with_router_workers(mut self, workers: usize) -> Self {
        self.router_workers = workers.max(1);
        self
    }

    /// Builder-style router queue-capacity override.
    pub fn with_router_queue_capacity(mut self, capacity: usize) -> Self {
        self.router_queue_capacity = capacity.max(1);
        self
    }

    /// Builder-style router result-cache capacity override.
    pub fn with_router_result_cache_capacity(mut self, capacity: usize) -> Self {
        self.router_result_cache_capacity = capacity.max(1);
        self
    }

    /// Builder-style per-shard engine configuration override.
    pub fn with_engine_config(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// A validating builder seeded with the default configuration; `build()`
    /// rejects nonsense values (and the sharded-incompatible per-node candidate
    /// cap) with a [`ConfigError`] instead of clamping or panicking.
    pub fn builder() -> ShardedEngineConfigBuilder {
        ShardedEngineConfigBuilder {
            config: ShardedEngineConfig::default(),
        }
    }
}

/// Validating builder for [`ShardedEngineConfig`]; see
/// [`ShardedEngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct ShardedEngineConfigBuilder {
    config: ShardedEngineConfig,
}

impl ShardedEngineConfigBuilder {
    /// Number of shards.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Tree-placement policy.
    pub fn placement(mut self, placement: ShardPlacement) -> Self {
        self.config.placement = placement;
        self
    }

    /// Router worker-thread count.
    pub fn router_workers(mut self, workers: usize) -> Self {
        self.config.router_workers = workers;
        self
    }

    /// Router submission-queue capacity.
    pub fn router_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.router_queue_capacity = capacity;
        self
    }

    /// Router result-cache capacity.
    pub fn router_result_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.router_result_cache_capacity = capacity;
        self
    }

    /// Per-shard engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ShardedEngineConfig, ConfigError> {
        if self.config.shards == 0 {
            return Err(ConfigError::new("shards", "must be >= 1"));
        }
        if self.config.router_workers == 0 {
            return Err(ConfigError::new("router_workers", "must be >= 1"));
        }
        if self.config.router_queue_capacity == 0 {
            return Err(ConfigError::new("router_queue_capacity", "must be >= 1"));
        }
        if self.config.router_result_cache_capacity == 0 {
            return Err(ConfigError::new(
                "router_result_cache_capacity",
                "must be >= 1",
            ));
        }
        reject_candidate_cap(&self.config)?;
        Ok(self.config)
    }
}

/// The sharded-serving restriction on the element configuration (see the
/// module docs): the per-node candidate cap is a global cut, so it must be
/// unset.
fn reject_candidate_cap(config: &ShardedEngineConfig) -> Result<(), ConfigError> {
    if config.engine.element.max_candidates_per_node.is_some() {
        return Err(ConfigError::new(
            "engine.element.max_candidates_per_node",
            "the per-node candidate cap is a global cut that per-shard \
             candidate generation cannot reproduce",
        ));
    }
    Ok(())
}

/// Router slots over in-process shard engines, in shard order.
fn as_services<E: MatchService + 'static>(engines: &[Arc<E>]) -> Vec<Box<dyn MatchService>> {
    engines
        .iter()
        .map(|engine| Box::new(Arc::clone(engine)) as Box<dyn MatchService>)
        .collect()
}

/// Per shard, in shard order: what serves it and its local-to-global tree map.
type LoadedShards<E> = Vec<(Arc<E>, Vec<TreeId>)>;

/// Load one snapshot per shard, in shard order, into what serves it (`load`
/// builds a [`MatchEngine`] or a [`SwappableEngine`]), each with the tree map
/// its snapshot carries. Every shard must carry the same generation:
/// `expected_generation` when given, otherwise the first shard's.
fn load_shard_snapshots<E>(
    paths: &[impl AsRef<std::path::Path>],
    config: &ShardedEngineConfig,
    mut expected_generation: Option<u64>,
    load: impl Fn(xsm_repo::snapshot::Snapshot, EngineConfig, std::time::Instant) -> E,
) -> Result<LoadedShards<E>, crate::snapshot::SnapshotServeError> {
    use xsm_repo::snapshot::{SnapshotError, SnapshotReader};
    if paths.is_empty() {
        return Err(ConfigError::new("paths", "must not be empty").into());
    }
    reject_candidate_cap(config)?;
    let mut shards = Vec::with_capacity(paths.len());
    for path in paths {
        let start = std::time::Instant::now();
        let snapshot = SnapshotReader::read(path.as_ref())?;
        match expected_generation {
            None => expected_generation = Some(snapshot.generation),
            Some(expected) if snapshot.generation != expected => {
                return Err(SnapshotError::GenerationMismatch {
                    expected,
                    found: snapshot.generation,
                }
                .into());
            }
            Some(_) => {}
        }
        let tree_map = snapshot.tree_map.clone();
        shards.push((
            Arc::new(load(snapshot, config.engine.clone(), start)),
            tree_map,
        ));
    }
    Ok(shards)
}

/// Router-level and per-shard serving metrics of a [`ShardedEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedMetrics {
    /// The router's own counters: queries served (merged responses), router
    /// result-cache hits, coalesced queries, per-strategy scatter counts,
    /// degraded/failed counts and end-to-end (scatter + gather) latency
    /// quantiles.
    pub router: EngineMetrics,
    /// One [`EngineMetrics`] per shard service, in shard order (zeroed for a
    /// shard whose snapshot was unreachable). Every scattered query appears
    /// once in each answering shard's `queries_served`.
    pub per_shard: Vec<EngineMetrics>,
}

/// Everything the router workers share.
struct RouterCore {
    services: Vec<Box<dyn MatchService>>,
    /// Per shard: local `TreeId` index → global `TreeId` (ascending). Behind a
    /// lock because live appends extend the maps; tombstoned trees **stay** in
    /// their map (shard-local ids are positional and never renumbered by a
    /// delete). Lock order: always after `swap_gate`.
    tree_maps: RwLock<Vec<Vec<TreeId>>>,
    planner: QueryPlanner,
    /// The shard engines' element floor, anchoring the planner's length window —
    /// the router must estimate with the same window the shards will generate with.
    length_floor: f64,
    results: ResultCache,
    inflight: Singleflight<ServiceResult<MatchResponse>>,
    metrics: MetricsRegistry,
    /// The generation-swap gate. Every query holds a **read** lock across its
    /// whole cache-lookup → scatter → merge → cache-insert span;
    /// [`ShardedEngine::swap_generation`] takes the **write** lock to flip
    /// all shards and clear the router cache atomically. The read span must
    /// cover the cache insert (which happens *after* the scatter returns):
    /// otherwise a pre-swap scatter could insert its old-generation response
    /// into the freshly cleared cache and serve it after the flip.
    swap_gate: RwLock<()>,
}

impl RouterCore {
    /// Answer one query at the router: result cache → singleflight → scatter to
    /// every shard → gather/merge. Runs the same `serve_with_caches` discipline as
    /// `EngineCore::answer`, so the sharded serving path inherits the engine's
    /// determinism and accounting contract by construction.
    fn answer(&self, query: &MatchQuery) -> ServiceResult<MatchResponse> {
        // Hold the swap gate's read side for the entire serve — see the
        // `swap_gate` field docs for why the span includes the cache insert.
        let _gate = self
            .swap_gate
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        crate::engine::serve_with_caches(
            &self.results,
            &self.inflight,
            &self.metrics,
            query.fingerprint(),
            |fingerprint| self.scatter_gather(query, fingerprint),
        )
    }

    /// One scatter/gather pass: plan globally from the shards' additive
    /// statistics, fan the sub-query out to every reachable shard, merge the
    /// answers deterministically, degrading to the survivors on partial
    /// failure.
    fn scatter_gather(
        &self,
        query: &MatchQuery,
        fingerprint: &str,
    ) -> ServiceResult<MatchResponse> {
        let mut failed: Vec<u32> = Vec::new();
        let mut last_error: Option<ServiceError> = None;
        let mut available = vec![true; self.services.len()];

        // Plan once, globally. `Auto` needs every reachable shard's statistics;
        // a shard that cannot even report stats is marked failed up front and
        // excluded from the scatter. Forced strategies skip the stats pass
        // entirely — exactly like the single engine's planner.
        let plan = match query.strategy {
            QueryStrategy::Auto => {
                let mut stats = PlanStats::default();
                for (shard, service) in self.services.iter().enumerate() {
                    match service.plan_stats(&query.personal, self.length_floor) {
                        Ok(s) => stats = stats.merge(s),
                        Err(error) => {
                            available[shard] = false;
                            failed.push(shard as u32);
                            last_error = Some(error);
                        }
                    }
                }
                if failed.len() == self.services.len() {
                    return Err(last_error.unwrap_or_else(|| {
                        ServiceError::internal("sharded engine has no shards")
                    }));
                }
                self.planner
                    .plan_from_stats(&query.personal, query.strategy, stats)
            }
            QueryStrategy::IndexPruned | QueryStrategy::Exhaustive => {
                self.planner
                    .plan_from_stats(&query.personal, query.strategy, PlanStats::default())
            }
        };
        let forced = match plan.strategy {
            PlannedStrategy::IndexPruned => QueryStrategy::IndexPruned,
            PlannedStrategy::Exhaustive => QueryStrategy::Exhaustive,
        };
        let sub = MatchQuery {
            personal: query.personal.clone(),
            top_k: query.top_k,
            strategy: forced,
            threshold: query.threshold,
        };
        // Scatter first, wait second: the shards work concurrently.
        let submitted: Vec<(usize, ServiceResult<PendingResponse>)> = self
            .services
            .iter()
            .enumerate()
            .filter(|(shard, _)| available[*shard])
            .map(|(shard, service)| (shard, service.submit(sub.clone())))
            .collect();
        let mut mappings: Vec<SchemaMapping> = Vec::new();
        let mut candidate_count = 0usize;
        let mut total_matches = 0usize;
        let mut answered = 0usize;
        let mut nested_incomplete = false;
        let mut generation: Option<u64> = None;
        let mut mixed_generations = false;
        let tree_maps = self
            .tree_maps
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (shard, outcome) in submitted {
            match outcome.and_then(PendingResponse::wait) {
                Ok(response) => {
                    answered += 1;
                    candidate_count += response.candidate_count;
                    total_matches += response.total_matches;
                    // Merging shards that answered from different repository
                    // revisions would produce an answer no repository ever
                    // had; the swap gate makes this impossible for swappable
                    // fleets, so disagreement here is a deployment bug.
                    match generation {
                        None => generation = Some(response.generation),
                        Some(g) if g != response.generation => mixed_generations = true,
                        Some(_) => {}
                    }
                    // A nested router may itself have degraded; our own
                    // `failed_shards` lists only direct children, but the
                    // incompleteness must propagate.
                    nested_incomplete |= response.incomplete;
                    let map = &tree_maps[shard];
                    mappings.extend(
                        response
                            .mappings
                            .into_iter()
                            .map(|m| globalize_mapping(m, map)),
                    );
                }
                Err(error) => {
                    failed.push(shard as u32);
                    last_error = Some(error);
                }
            }
        }
        if answered == 0 {
            return Err(last_error
                .unwrap_or_else(|| ServiceError::internal("sharded engine has no shards")));
        }
        if mixed_generations {
            return Err(ServiceError::internal(
                "mixed-generation merge: shards answered from different repository generations",
            ));
        }
        // The same comparator the single engine's pipeline sorts with; per-shard
        // lists arrive pre-sorted under it, so the merged order equals the order a
        // single engine would have produced over the union.
        sort_mappings(&mut mappings);
        mappings.truncate(query.top_k);
        failed.sort_unstable();

        Ok(MatchResponse {
            fingerprint: fingerprint.to_string(),
            strategy: plan.strategy,
            cache_hit: false,
            mappings,
            candidate_count,
            total_matches,
            incomplete: nested_incomplete || !failed.is_empty(),
            failed_shards: failed,
            generation: generation.unwrap_or(0),
            latency: std::time::Duration::ZERO,
        })
    }
}

/// Translate one shard-local mapping to global node ids (scores untouched).
fn globalize_mapping(mapping: SchemaMapping, tree_map: &[TreeId]) -> SchemaMapping {
    let score = mapping.score;
    let pairs = mapping
        .pairs()
        .iter()
        .map(|p| {
            let global_tree = tree_map[p.repo.tree.index()];
            MappingElement::new(
                p.personal,
                GlobalNodeId::new(global_tree, p.repo.node),
                p.similarity,
            )
        })
        .collect();
    SchemaMapping::with_score(pairs, score)
}

/// A sharded match-serving engine over one repository.
///
/// Construction partitions the repository by tree and builds one [`MatchEngine`]
/// per shard (each with its own index, feature store and worker pool); serving
/// scatters every query to all shards and merges the answers. The public API and
/// the answers themselves are indistinguishable from a single [`MatchEngine`] over
/// the whole repository — only capacity and the metrics breakdown differ. With
/// [`ShardedEngine::from_services`] the shards can live anywhere a
/// [`MatchService`] implementation reaches — including other hosts via
/// [`crate::net::RemoteEngine`].
pub struct ShardedEngine {
    /// The router pool. Declared first so it drops first: its workers finish
    /// every queued query and are joined before the shard services below shut
    /// down their own backends.
    pool: WorkerPool,
    core: Arc<RouterCore>,
    /// The in-process shard engines when built by [`ShardedEngine::new`]
    /// (empty for [`ShardedEngine::from_services`]).
    local_engines: Vec<Arc<MatchEngine>>,
    /// The placement policy live appends route with (from the construction
    /// config; the caller owns its consistency with how the shards were
    /// actually partitioned when restoring from snapshots).
    placement: ShardPlacement,
    /// Per-shard swap handles when built by
    /// [`ShardedEngine::from_swappable_snapshot_paths`] (empty otherwise);
    /// what [`ShardedEngine::swap_generation`] flips.
    swappable_engines: Vec<Arc<SwappableEngine>>,
}

impl ShardedEngine {
    /// Partition `repo` into shards and start the shard engines and router pool.
    ///
    /// # Panics
    /// Panics when `config.engine.element.max_candidates_per_node` is set — the
    /// per-node candidate cap is a *global* cut that per-shard candidate generation
    /// cannot reproduce, so serving it sharded would violate the equivalence
    /// contract (see the module docs). [`ShardedEngineConfig::builder`] rejects
    /// the same configuration with a [`ConfigError`] instead.
    pub fn new(repo: SchemaRepository, config: ShardedEngineConfig) -> Self {
        assert!(
            reject_candidate_cap(&config).is_ok(),
            "ShardedEngine cannot serve ElementMatchConfig::max_candidates_per_node: \
             the cap keeps the globally best candidates per personal node, which \
             per-shard engines cannot determine from their local view"
        );
        let shard_count = config.shards.max(1);
        let partition = RepositoryPartition::build(&repo, shard_count, config.placement);
        let (shards, tree_maps) = partition.into_parts();
        let local_engines: Vec<Arc<MatchEngine>> = shards
            .into_iter()
            .map(|shard| Arc::new(MatchEngine::new(shard, config.engine.clone())))
            .collect();
        Self::start(
            as_services(&local_engines),
            tree_maps,
            local_engines,
            config,
        )
    }

    /// A sharded engine with `shards` shards and default configuration otherwise.
    pub fn with_defaults(repo: SchemaRepository, shards: usize) -> Self {
        Self::new(repo, ShardedEngineConfig::default().with_shards(shards))
    }

    /// Build a router over externally-provided shard services — in-process
    /// engines, [`crate::net::RemoteEngine`] clients, fault-injection wrappers,
    /// or any mix. `tree_maps[shard]` translates shard-local tree indexes back
    /// to global [`TreeId`]s, exactly as
    /// [`xsm_repo::RepositoryPartition::into_parts`] produces them.
    ///
    /// The caller owns the equivalence contract's preconditions: every service
    /// must serve a disjoint slice of the same repository, built with the same
    /// element/clustering/objective configuration that `config.engine`
    /// describes (the router reads only its planner tuning and element floor).
    pub fn from_services(
        services: Vec<Box<dyn MatchService>>,
        tree_maps: Vec<Vec<TreeId>>,
        config: ShardedEngineConfig,
    ) -> Result<Self, ConfigError> {
        if services.is_empty() {
            return Err(ConfigError::new("services", "must not be empty"));
        }
        if services.len() != tree_maps.len() {
            return Err(ConfigError::new(
                "tree_maps",
                "must have exactly one entry per service",
            ));
        }
        reject_candidate_cap(&config)?;
        Ok(Self::start(services, tree_maps, Vec::new(), config))
    }

    /// Restart a sharded engine from per-shard snapshot files — one path per
    /// shard, in shard order, as produced by
    /// [`crate::snapshot::write_shard_snapshots`]. Every shard engine is
    /// reconstructed from its file (no index rebuild), the router's tree maps
    /// come from the snapshots themselves, and all shards must carry the same
    /// generation stamp — a mixed fleet fails closed with
    /// [`xsm_repo::SnapshotError::GenerationMismatch`] rather than serving a
    /// repository that never existed.
    pub fn from_snapshot_paths(
        paths: &[impl AsRef<std::path::Path>],
        config: ShardedEngineConfig,
    ) -> Result<Self, crate::snapshot::SnapshotServeError> {
        Self::from_snapshot_paths_inner(paths, config, None)
    }

    /// [`ShardedEngine::from_snapshot_paths`], additionally requiring every
    /// shard snapshot to carry exactly `generation` — use when the expected
    /// repository revision is known out of band (e.g. from a fleet manifest).
    pub fn from_snapshot_paths_expecting(
        paths: &[impl AsRef<std::path::Path>],
        config: ShardedEngineConfig,
        generation: u64,
    ) -> Result<Self, crate::snapshot::SnapshotServeError> {
        Self::from_snapshot_paths_inner(paths, config, Some(generation))
    }

    fn from_snapshot_paths_inner(
        paths: &[impl AsRef<std::path::Path>],
        config: ShardedEngineConfig,
        expected_generation: Option<u64>,
    ) -> Result<Self, crate::snapshot::SnapshotServeError> {
        let (local_engines, tree_maps): (Vec<_>, Vec<_>) = load_shard_snapshots(
            paths,
            &config,
            expected_generation,
            MatchEngine::from_snapshot_parts,
        )?
        .into_iter()
        .unzip();
        Ok(Self::start(
            as_services(&local_engines),
            tree_maps,
            local_engines,
            config,
        ))
    }

    /// [`ShardedEngine::from_snapshot_paths`], but every shard is wrapped in a
    /// [`SwappableEngine`] so the whole fleet can later be flipped to a newer
    /// snapshot generation **under live traffic** with
    /// [`ShardedEngine::swap_generation`] — no restart, no failed queries, no
    /// mixed-generation response.
    pub fn from_swappable_snapshot_paths(
        paths: &[impl AsRef<std::path::Path>],
        config: ShardedEngineConfig,
    ) -> Result<Self, crate::snapshot::SnapshotServeError> {
        let (swappable, tree_maps): (Vec<_>, Vec<_>) =
            load_shard_snapshots(paths, &config, None, SwappableEngine::from_snapshot_parts)?
                .into_iter()
                .unzip();
        let mut sharded = Self::start(as_services(&swappable), tree_maps, Vec::new(), config);
        sharded.swappable_engines = swappable;
        Ok(sharded)
    }

    /// Flip the whole fleet to the snapshot generation in `paths` (one file
    /// per shard, shard order) under live traffic. The sequence:
    ///
    /// 1. **Validate** — peek every header; refuse a wrong shard count, a
    ///    mixed-generation set ([`xsm_repo::SnapshotError::GenerationMismatch`])
    ///    or a snapshot that moves trees between shards (the router's tree
    ///    maps are fixed; rebalancing is a different operation).
    /// 2. **Load beside** — build every shard's new engine next to the
    ///    serving one, traffic undisturbed.
    /// 3. **Flip under the gate** — take the swap gate's write lock (queries
    ///    hold read locks for their full serve span, so the gate waits for
    ///    in-flight scatters and blocks new ones for microseconds), install
    ///    every new engine, clear the router's result cache (its entries
    ///    answer for the old generation), release.
    /// 4. **Drain** — drop the old engines outside the gate; each finishes
    ///    its queued queries and joins its workers.
    ///
    /// Returns the new serving generation. On any validation or load error
    /// the old generation keeps serving untouched. Only routers built with
    /// [`ShardedEngine::from_swappable_snapshot_paths`] can swap.
    pub fn swap_generation(
        &self,
        paths: &[impl AsRef<std::path::Path>],
    ) -> Result<u64, crate::snapshot::SnapshotServeError> {
        use xsm_repo::snapshot::{SnapshotError, SnapshotReader};
        if self.swappable_engines.is_empty() {
            return Err(ConfigError::new(
                "swap",
                "this router has fixed shards; build it with \
                 from_swappable_snapshot_paths to enable generation swaps",
            )
            .into());
        }
        if paths.len() != self.swappable_engines.len() {
            return Err(
                ConfigError::new("paths", "must have exactly one snapshot per shard").into(),
            );
        }
        // Validate every header before loading anything: one bad file must
        // leave the fleet untouched, and a mixed-generation set must never
        // start flipping.
        let mut generation: Option<u64> = None;
        let tree_maps = self
            .core
            .tree_maps
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (shard, path) in paths.iter().enumerate() {
            let header = SnapshotReader::peek(path.as_ref())?;
            match generation {
                None => generation = Some(header.generation),
                Some(expected) if header.generation != expected => {
                    return Err(SnapshotError::GenerationMismatch {
                        expected,
                        found: header.generation,
                    }
                    .into());
                }
                Some(_) => {}
            }
            let expected_map = &tree_maps[shard];
            let same_placement = header.tree_map.len() == expected_map.len()
                && header
                    .tree_map
                    .iter()
                    .zip(expected_map)
                    .all(|(&raw, tree)| raw == tree.0);
            if !same_placement {
                return Err(ConfigError::new(
                    "tree_map",
                    "a generation swap must keep every tree on its shard; \
                     re-placing trees needs a fleet rebuild",
                )
                .into());
            }
        }
        let generation = generation.expect("paths verified non-empty");
        // Release the map lock before taking the swap gate below: the lock
        // order everywhere is gate first, maps second.
        drop(tree_maps);
        // Load every new engine beside the serving ones — the expensive part,
        // fully concurrent with traffic.
        let mut next_engines = Vec::with_capacity(paths.len());
        for (swappable, path) in self.swappable_engines.iter().zip(paths) {
            next_engines.push(swappable.load_next(path.as_ref(), generation)?);
        }
        // The flip: exclusive gate, every shard, cache clear — one atomic
        // cutover from the router's point of view.
        let old_engines: Vec<Arc<MatchEngine>> = {
            let _gate = self
                .core
                .swap_gate
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let old = self
                .swappable_engines
                .iter()
                .zip(next_engines)
                .map(|(swappable, next)| swappable.install(next))
                .collect();
            self.core.results.clear();
            old
        };
        self.core.metrics.record_generation_swap();
        // Drain outside the gate: late in-flight waits on the old generation
        // finish here without stalling new traffic.
        drop(old_engines);
        Ok(generation)
    }

    /// The generation currently served by a swappable fleet (`None` when the
    /// router was not built with
    /// [`ShardedEngine::from_swappable_snapshot_paths`]).
    pub fn serving_generation(&self) -> Option<u64> {
        self.swappable_engines.first().map(|s| s.generation())
    }

    /// The error every live mutation returns on a router without in-process
    /// shard engines (built over external services or swappable handles):
    /// the router cannot reach inside a remote shard to mutate it.
    fn require_local_engines(&self) -> ServiceResult<()> {
        if self.local_engines.is_empty() {
            return Err(ServiceError::bad_request(
                "this router serves fixed shard services; live mutation needs \
                 in-process shards (ShardedEngine::new or from_snapshot_paths)",
            ));
        }
        Ok(())
    }

    /// Append new trees to the live fleet without a rebuild, routed by the
    /// construction-time [`ShardPlacement`]: [`ShardPlacement::TreeHash`]
    /// sends each tree to [`xsm_repo::tree_hash_shard`] (a pure function of
    /// the tree, so existing placements never move — see the append-stability
    /// property in `xsm-repo`); [`ShardPlacement::Contiguous`] extends the
    /// last shard (the only placement that keeps global id ranges contiguous).
    ///
    /// Every shard — mutated or not — lands on the same target generation
    /// (max over the fleet, plus one), so the mixed-generation merge guard
    /// holds across the mutation. The router's result cache is invalidated.
    /// Returns the global [`TreeId`]s assigned, in input order.
    pub fn append_trees(&self, trees: Vec<SchemaTree>) -> ServiceResult<Vec<TreeId>> {
        self.require_local_engines()?;
        if trees.is_empty() {
            return Err(ServiceError::bad_request("append batch must not be empty"));
        }
        let shard_count = self.local_engines.len();
        // Placement is a pure function of the tree: route before locking.
        let routed: Vec<usize> = trees
            .iter()
            .map(|tree| match self.placement {
                ShardPlacement::TreeHash => tree_hash_shard(tree, shard_count),
                ShardPlacement::Contiguous => shard_count - 1,
            })
            .collect();
        // The gate's write side drains every in-flight scatter (queries hold
        // its read side across their whole serve span) and blocks new ones
        // while the fleet steps generations — scatters can never observe a
        // half-mutated fleet. Lock order: gate, then maps.
        let _gate = self
            .core
            .swap_gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut tree_maps = self
            .core
            .tree_maps
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let target = self.fleet_target_generation();
        // Global ids continue past every id ever assigned — tombstoned trees
        // stay in the maps, so the sum counts them and ids are never reused.
        let next_global = tree_maps.iter().map(Vec::len).sum::<usize>() as u32;
        let mut assigned = Vec::with_capacity(trees.len());
        let mut per_shard_trees: Vec<Vec<SchemaTree>> = vec![Vec::new(); shard_count];
        let mut per_shard_ids: Vec<Vec<TreeId>> = vec![Vec::new(); shard_count];
        for (global, (tree, &shard)) in (next_global..).zip(trees.into_iter().zip(&routed)) {
            let global = TreeId(global);
            assigned.push(global);
            per_shard_trees[shard].push(tree);
            per_shard_ids[shard].push(global);
        }
        for (shard, engine) in self.local_engines.iter().enumerate() {
            if per_shard_trees[shard].is_empty() {
                engine.advance_generation(target)?;
            } else {
                // Local ids are assigned sequentially in batch order, matching
                // the order the map entries are pushed; global ids ascend, so
                // the map's ascending invariant is preserved.
                engine.append_trees_at(std::mem::take(&mut per_shard_trees[shard]), target)?;
                tree_maps[shard].extend_from_slice(&per_shard_ids[shard]);
            }
        }
        self.core.results.clear();
        Ok(assigned)
    }

    /// Tombstone a batch of trees across the fleet without a rebuild. The
    /// whole batch is validated against the router's maps and every shard's
    /// tombstone set **before** any shard mutates — a half-applied cross-shard
    /// delete would leave the fleet on diverged generations. Tombstoned trees
    /// stay in the tree maps (local ids are positional); each shard reclaims
    /// its arena independently once its dead fraction crosses
    /// [`EngineConfig::compaction_threshold`]. Returns the node-weighted
    /// posting volume removed fleet-wide (each deleted node once per distinct
    /// gram of its name — the single engine's number, whatever the placement).
    pub fn delete_trees(&self, trees: &[TreeId]) -> ServiceResult<usize> {
        self.require_local_engines()?;
        if trees.is_empty() {
            return Err(ServiceError::bad_request("delete batch must not be empty"));
        }
        let mut sorted = trees.to_vec();
        sorted.sort_unstable();
        if let Some(dup) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(ServiceError::bad_request(format!(
                "tree {:?} appears twice in the delete batch",
                dup[0]
            )));
        }
        let _gate = self
            .core
            .swap_gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let tree_maps = self
            .core
            .tree_maps
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Route every victim to (shard, local id) and validate it is alive.
        let mut per_shard: Vec<Vec<TreeId>> = vec![Vec::new(); self.local_engines.len()];
        for &tree in trees {
            let Some((shard, local)) = tree_maps.iter().enumerate().find_map(|(shard, map)| {
                map.binary_search(&tree)
                    .ok()
                    .map(|local| (shard, TreeId(local as u32)))
            }) else {
                return Err(ServiceError::bad_request(format!("unknown tree {tree:?}")));
            };
            if self.local_engines[shard]
                .tombstoned_trees()
                .binary_search(&local)
                .is_ok()
            {
                return Err(ServiceError::bad_request(format!(
                    "tree {tree:?} is already deleted"
                )));
            }
            per_shard[shard].push(local);
        }
        let target = self.fleet_target_generation();
        let mut dropped = 0usize;
        for (shard, engine) in self.local_engines.iter().enumerate() {
            if per_shard[shard].is_empty() {
                engine.advance_generation(target)?;
            } else {
                dropped += engine.delete_trees_at(&per_shard[shard], target)?;
            }
        }
        self.core.results.clear();
        Ok(dropped)
    }

    /// Force arena compaction on every in-process shard (physical-only: no
    /// generation step, answers unchanged, caches stay valid — see
    /// [`MatchEngine::compact`]). Returns the postings reclaimed fleet-wide.
    pub fn compact(&self) -> usize {
        self.local_engines.iter().map(|e| e.compact()).sum()
    }

    /// The generation the in-process fleet serves (`None` without in-process
    /// shards). Router mutations keep every shard in step, so the fleet has
    /// one well-defined generation.
    pub fn generation(&self) -> Option<u64> {
        self.local_engines.first().map(|e| e.generation())
    }

    /// Every tombstoned tree across the fleet as global ids, ascending.
    pub fn tombstoned_trees(&self) -> Vec<TreeId> {
        let tree_maps = self
            .core
            .tree_maps
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut dead: Vec<TreeId> = self
            .local_engines
            .iter()
            .enumerate()
            .flat_map(|(shard, engine)| {
                let map = &tree_maps[shard];
                engine
                    .tombstoned_trees()
                    .into_iter()
                    .map(|local| map[local.index()])
                    .collect::<Vec<_>>()
            })
            .collect();
        dead.sort_unstable();
        dead
    }

    /// The generation every shard lands on after a mutation: one past the
    /// fleet maximum (the shards agree whenever the fleet is healthy, but a
    /// max survives a half-applied mutation that errored midway).
    fn fleet_target_generation(&self) -> u64 {
        self.local_engines
            .iter()
            .map(|e| e.generation())
            .max()
            .unwrap_or(0)
            + 1
    }

    /// Shared tail of both constructors: build the router core and its pool.
    fn start(
        services: Vec<Box<dyn MatchService>>,
        tree_maps: Vec<Vec<TreeId>>,
        local_engines: Vec<Arc<MatchEngine>>,
        config: ShardedEngineConfig,
    ) -> Self {
        let core = Arc::new(RouterCore {
            planner: QueryPlanner::new(config.engine.planner),
            length_floor: config.engine.element.min_similarity,
            services,
            tree_maps: RwLock::new(tree_maps),
            results: ResultCache::with_capacity(config.router_result_cache_capacity),
            inflight: Singleflight::new(),
            metrics: MetricsRegistry::new(),
            swap_gate: RwLock::new(()),
        });
        let served = Arc::clone(&core);
        let pool = WorkerPool::spawn(
            "xsm-shard-router",
            config.router_workers,
            config.router_queue_capacity,
            move |query, _: &mut ()| served.answer(query),
        );
        ShardedEngine {
            pool,
            core,
            local_engines,
            placement: config.placement,
            swappable_engines: Vec::new(),
        }
    }

    /// Number of shards (empty shards included).
    pub fn shard_count(&self) -> usize {
        self.core.services.len()
    }

    /// The in-process shard engines in shard order (for inspection and tests);
    /// empty when the router was built over external services with
    /// [`ShardedEngine::from_services`].
    pub fn shard_engines(&self) -> &[Arc<MatchEngine>] {
        &self.local_engines
    }

    /// The global tree ids placed on shard `shard`, ascending (owned: the
    /// maps live behind the append lock). Tombstoned trees stay listed —
    /// shard-local ids are positional.
    pub fn shard_trees(&self, shard: usize) -> Vec<TreeId> {
        self.core
            .tree_maps
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(shard)
            .cloned()
            .unwrap_or_default()
    }

    /// Enqueue one query with the router's backpressure; the returned handle blocks
    /// until the merged response (or the serving error) is ready.
    pub fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        self.pool.submit(query)
    }

    /// Answer one query, blocking until the merged response is ready.
    ///
    /// # Panics
    /// Panics if serving returned a [`ServiceError`] — which cannot happen with
    /// in-process shards, but can with remote ones (every shard unreachable).
    /// Use [`ShardedEngine::submit`] for the `Result`-returning path when shards
    /// live behind a real transport.
    pub fn query(&self, query: MatchQuery) -> MatchResponse {
        self.submit(query)
            .and_then(PendingResponse::wait)
            .expect("sharded serving failed on every shard")
    }

    /// Answer a query on the calling thread, bypassing the router pool (identical
    /// results and accounting to [`ShardedEngine::query`]; the scatter still runs
    /// through the shard services).
    pub fn answer_inline(&self, query: &MatchQuery) -> ServiceResult<MatchResponse> {
        self.core.answer(query)
    }

    /// Router-level metrics plus the per-shard breakdown (zeroed entries for
    /// shards whose snapshot was unreachable).
    pub fn metrics(&self) -> ShardedMetrics {
        ShardedMetrics {
            router: self.core.metrics.snapshot(),
            per_shard: self
                .core
                .services
                .iter()
                .map(|s| s.metrics_snapshot().unwrap_or_default())
                .collect(),
        }
    }

    /// Number of merged responses currently held by the router's result cache.
    pub fn result_cache_len(&self) -> usize {
        self.core.results.len()
    }

    /// Drop every cached response, router and in-process shards alike (remote
    /// shards manage their own caches).
    pub fn invalidate_results(&self) {
        self.core.results.clear();
        for engine in &self.local_engines {
            engine.invalidate_results();
        }
    }
}

impl MatchService for ShardedEngine {
    fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        ShardedEngine::submit(self, query)
    }

    fn metrics_snapshot(&self) -> ServiceResult<EngineMetrics> {
        Ok(self.core.metrics.snapshot())
    }

    fn plan_stats(&self, personal: &SchemaTree, length_floor: f64) -> ServiceResult<PlanStats> {
        let mut stats = PlanStats::default();
        for service in &self.core.services {
            stats = stats.merge(service.plan_stats(personal, length_floor)?);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_matcher::element::ElementMatchConfig;
    use xsm_repo::{GeneratorConfig, RepositoryGenerator};
    use xsm_schema::tree::paper_personal_schema;

    fn repo() -> SchemaRepository {
        RepositoryGenerator::new(GeneratorConfig::small(17).with_target_elements(400)).generate()
    }

    fn config(shards: usize) -> ShardedEngineConfig {
        ShardedEngineConfig::builder()
            .shards(shards)
            .router_workers(2)
            .engine(
                EngineConfig::builder()
                    .workers(1)
                    .element(ElementMatchConfig::default().with_min_similarity(0.5))
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    fn query() -> MatchQuery {
        MatchQuery::new(paper_personal_schema())
            .with_top_k(5)
            .with_threshold(0.5)
    }

    #[test]
    fn sharded_answers_match_the_single_engine() {
        let repo = repo();
        let single = MatchEngine::new(repo.clone(), config(1).engine);
        let reference = single.query(query());
        for shards in [1, 2, 4] {
            let sharded = ShardedEngine::new(repo.clone(), config(shards));
            assert_eq!(sharded.shard_count(), shards);
            let response = sharded.query(query());
            assert_eq!(
                response.result_digest(),
                reference.result_digest(),
                "{shards} shards diverged"
            );
            assert_eq!(response.fingerprint, query().fingerprint());
            assert!(!response.incomplete);
            assert!(response.failed_shards.is_empty());
        }
    }

    #[test]
    fn router_cache_and_shard_metrics_account_every_query() {
        let repo = repo();
        let sharded = ShardedEngine::new(repo, config(3));
        let first = sharded.query(query());
        let second = sharded.query(query());
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.result_digest(), second.result_digest());
        let metrics = sharded.metrics();
        assert_eq!(metrics.router.queries_served, 2);
        assert_eq!(metrics.router.result_cache_hits, 1);
        assert_eq!(metrics.router.degraded_responses, 0);
        assert_eq!(metrics.router.failed_queries, 0);
        assert_eq!(metrics.per_shard.len(), 3);
        // The scatter touched every shard exactly once (the repeat was served
        // entirely by the router cache).
        for shard in &metrics.per_shard {
            assert_eq!(shard.queries_served, 1);
        }
        assert_eq!(sharded.result_cache_len(), 1);
        sharded.invalidate_results();
        assert_eq!(sharded.result_cache_len(), 0);
        assert!(!sharded.query(query()).cache_hit);
    }

    #[test]
    fn shard_trees_cover_the_forest() {
        let repo = repo();
        let tree_count = repo.tree_count();
        let sharded = ShardedEngine::new(repo, config(4));
        let mut seen: Vec<TreeId> = (0..4)
            .flat_map(|s| sharded.shard_trees(s).to_vec())
            .collect();
        seen.sort();
        assert_eq!(seen.len(), tree_count);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(sharded.shard_trees(99).is_empty());
    }

    #[test]
    #[should_panic(expected = "max_candidates_per_node")]
    fn candidate_cap_is_rejected() {
        let config = ShardedEngineConfig::default().with_engine_config(
            EngineConfig::default()
                .with_element_config(ElementMatchConfig::default().with_max_candidates(3)),
        );
        ShardedEngine::new(repo(), config);
    }

    #[test]
    fn builder_rejects_the_candidate_cap_and_zero_knobs() {
        let err = ShardedEngineConfig::builder()
            .engine(
                EngineConfig::default()
                    .with_element_config(ElementMatchConfig::default().with_max_candidates(3)),
            )
            .build()
            .unwrap_err();
        assert_eq!(err.field, "engine.element.max_candidates_per_node");
        assert_eq!(
            ShardedEngineConfig::builder()
                .shards(0)
                .build()
                .unwrap_err()
                .field,
            "shards"
        );
        assert_eq!(
            ShardedEngineConfig::builder()
                .router_workers(0)
                .build()
                .unwrap_err()
                .field,
            "router_workers"
        );
    }

    #[test]
    fn from_services_over_local_engines_matches_new() {
        let repo = repo();
        let reference = ShardedEngine::new(repo.clone(), config(3)).query(query());

        let partition = RepositoryPartition::build(&repo, 3, ShardPlacement::Contiguous);
        let (shards, tree_maps) = partition.into_parts();
        let services: Vec<Box<dyn MatchService>> = shards
            .into_iter()
            .map(|shard| {
                Box::new(MatchEngine::new(shard, config(3).engine)) as Box<dyn MatchService>
            })
            .collect();
        let router = ShardedEngine::from_services(services, tree_maps, config(3)).unwrap();
        assert!(router.shard_engines().is_empty());
        assert_eq!(router.shard_count(), 3);
        let response = router.query(query());
        assert_eq!(response.result_digest(), reference.result_digest());
        assert!(!response.incomplete);

        // Mismatched maps and empty fleets are rejected up front.
        let one_service: Vec<Box<dyn MatchService>> =
            vec![Box::new(MatchEngine::new(repo.clone(), config(1).engine))];
        let mismatched = ShardedEngine::from_services(one_service, Vec::new(), config(1));
        assert_eq!(mismatched.err().map(|e| e.field), Some("tree_maps"));
        assert!(ShardedEngine::from_services(Vec::new(), Vec::new(), config(1)).is_err());
    }

    #[test]
    fn drop_joins_router_and_shards_cleanly() {
        let sharded = ShardedEngine::new(repo(), config(2));
        let _ = sharded.query(query());
        drop(sharded);
    }

    #[test]
    fn live_mutations_match_a_rebuilt_single_engine() {
        for placement in [ShardPlacement::Contiguous, ShardPlacement::TreeHash] {
            let repo = repo();
            let base_trees = repo.tree_count();
            let sharded = ShardedEngine::new(repo.clone(), config(3).with_placement(placement));
            let extra: Vec<_> =
                RepositoryGenerator::new(GeneratorConfig::small(29).with_target_elements(80))
                    .generate()
                    .trees()
                    .map(|(_, t)| t.clone())
                    .take(4)
                    .collect();

            let assigned = sharded.append_trees(extra.clone()).unwrap();
            let expected: Vec<TreeId> = (0..extra.len())
                .map(|i| TreeId((base_trees + i) as u32))
                .collect();
            assert_eq!(assigned, expected, "global ids are assigned sequentially");

            let victims = [TreeId(0), TreeId(2)];
            let dropped = sharded.delete_trees(&victims).unwrap();
            assert!(dropped > 0);
            assert_eq!(sharded.tombstoned_trees(), victims);
            assert_eq!(
                sharded.generation(),
                Some(2),
                "append and delete each step the fleet generation once"
            );

            // The oracle: a from-scratch single engine over the same logical
            // content (deleted trees leave an empty positional placeholder).
            let mut oracle_repo = SchemaRepository::new();
            for (tid, tree) in repo.trees() {
                if victims.contains(&tid) {
                    oracle_repo.add_tree(xsm_schema::SchemaTree::new(tree.name()));
                } else {
                    oracle_repo.add_tree(tree.clone());
                }
            }
            for tree in extra {
                oracle_repo.add_tree(tree);
            }
            let oracle = MatchEngine::new(oracle_repo, config(1).engine);
            assert_eq!(
                sharded.query(query()).result_digest(),
                oracle.query(query()).result_digest(),
                "{placement:?} fleet diverged from the rebuilt oracle"
            );

            // Invalid batches are rejected atomically — nothing mutated.
            assert!(sharded.delete_trees(&[TreeId(0)]).is_err(), "already dead");
            assert!(sharded.delete_trees(&[TreeId(9999)]).is_err(), "unknown");
            assert!(
                sharded.delete_trees(&[TreeId(1), TreeId(1)]).is_err(),
                "duplicate"
            );
            assert!(sharded.append_trees(Vec::new()).is_err(), "empty batch");
            assert_eq!(sharded.generation(), Some(2), "failed batches do not step");
        }
    }

    #[test]
    fn routers_without_local_engines_reject_mutation() {
        let repo = repo();
        let partition = RepositoryPartition::build(&repo, 2, ShardPlacement::Contiguous);
        let (shards, tree_maps) = partition.into_parts();
        let services: Vec<Box<dyn MatchService>> = shards
            .into_iter()
            .map(|shard| {
                Box::new(MatchEngine::new(shard, config(2).engine)) as Box<dyn MatchService>
            })
            .collect();
        let router = ShardedEngine::from_services(services, tree_maps, config(2)).unwrap();
        let tree = repo.trees().next().unwrap().1.clone();
        assert!(router.append_trees(vec![tree]).is_err());
        assert!(router.delete_trees(&[TreeId(0)]).is_err());
        assert_eq!(router.generation(), None);
        assert_eq!(router.compact(), 0);
    }
}
