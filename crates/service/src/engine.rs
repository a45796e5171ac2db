//! The [`MatchEngine`]: a long-lived, concurrent match-serving engine.
//!
//! The experiment binaries rebuild the repository index and clustering configuration
//! for every run; a serving deployment cannot afford that. The engine is constructed
//! **once** — building the [`NameIndex`] together with its
//! [`xsm_repo::FeatureStore`] (one precomputed
//! [`xsm_similarity::NameFeatures`] per distinct repository name, all q-grams
//! interned to shared `u32` ids) and the [`ClusteredMatcher`] configuration up front — and
//! then answers [`MatchQuery`]s from a pool of worker threads draining a bounded
//! submission queue: the crate's one `std`-only worker pool (`pool.rs`), which
//! the sharded router runs too.
//!
//! Candidate scoring runs the zero-allocation feature kernels: query-side features
//! are built once per personal node, repository-side features once at construction,
//! and each pair costs a bit-parallel edit distance over `u64` words plus an integer
//! signature merge — no lowercasing, no `Vec<char>`, no hashing, no per-pair cache
//! (the kernel is cheaper than a cache lookup). Each worker owns a
//! [`SimScratch`] so even the blocked kernel for >64-character names allocates
//! nothing in steady state.
//!
//! Concurrent identical queries that miss the result cache are deduplicated by a
//! [`Singleflight`] map: one leader runs the pipeline, every concurrent duplicate
//! waits and receives a clone ([`EngineMetrics::coalesced_queries`] counts them).
//!
//! Determinism contract: a query's result content ([`MatchResponse::result_digest`])
//! depends only on the query and the engine configuration — never on the number of
//! workers, the interleaving of a batch, or whether a cache or a coalesced flight
//! served it.

use std::sync::mpsc::Receiver;
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xsm_core::{ClusteredMatcher, ClusteringVariant};
use xsm_matcher::element::{
    match_elements_features, match_elements_with_index_features_resolved, resolve_personal_queries,
    ElementMatchConfig,
};
use xsm_matcher::generator::branch_and_bound::BranchAndBoundGenerator;
use xsm_matcher::{MatchingProblem, ObjectiveConfig};
use xsm_repo::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use xsm_repo::{CandidateScratch, LiveError, LiveRepository, NameIndex, SchemaRepository};
use xsm_schema::{GlobalNodeId, SchemaTree, TreeId};
use xsm_similarity::SimScratch;

use crate::cache::{ResultCache, DEFAULT_RESULT_CACHE_CAPACITY};
use crate::error::{ConfigError, ServiceError, ServiceResult};
use crate::metrics::{EngineMetrics, MetricsRegistry, ServedVia, StartupSource};
use crate::planner::{PlanStats, PlannerConfig, QueryPlanner};
use crate::pool::WorkerPool;
use crate::query::{MatchQuery, MatchResponse, PlannedStrategy, QueryStrategy};
use crate::service::MatchService;
use crate::singleflight::{Join, Singleflight};

/// Construction-time configuration of a [`MatchEngine`].
///
/// `#[non_exhaustive]`: build one with [`EngineConfig::builder`] (validating) or
/// [`EngineConfig::default`] plus the `with_*` methods (clamping) — future
/// fields then cannot break downstream construction.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Number of worker threads (`>= 1`).
    pub workers: usize,
    /// Capacity of the bounded submission queue; submitters block when it is full
    /// (backpressure instead of unbounded buffering).
    pub queue_capacity: usize,
    /// Capacity of the result cache (whole responses, LRU).
    pub result_cache_capacity: usize,
    /// Element-matching configuration (similarity floor, per-node cap).
    pub element: ElementMatchConfig,
    /// Clustering variant the pipeline runs per query.
    pub variant: ClusteringVariant,
    /// Objective-function configuration (α, K) applied to every query.
    pub objective: ObjectiveConfig,
    /// Planner tuning (overlap fraction, pruning budget).
    pub planner: PlannerConfig,
    /// Dead fraction of the posting arena at which a delete triggers
    /// compaction (`0.0` compacts after every delete, `1.0` effectively
    /// never). Compaction is physical-only — it cannot change any answer.
    pub compaction_threshold: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_capacity: 64,
            result_cache_capacity: DEFAULT_RESULT_CACHE_CAPACITY,
            element: ElementMatchConfig::default(),
            variant: ClusteringVariant::Medium,
            objective: ObjectiveConfig::default(),
            planner: PlannerConfig::default(),
            compaction_threshold: 0.3,
        }
    }
}

impl EngineConfig {
    /// Builder-style worker-count override (`0` is clamped to `1`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style submission-queue capacity override.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Builder-style result-cache capacity override.
    pub fn with_result_cache_capacity(mut self, capacity: usize) -> Self {
        self.result_cache_capacity = capacity.max(1);
        self
    }

    /// Builder-style element-matching override.
    pub fn with_element_config(mut self, element: ElementMatchConfig) -> Self {
        self.element = element;
        self
    }

    /// Builder-style clustering-variant override.
    pub fn with_variant(mut self, variant: ClusteringVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Builder-style objective override.
    pub fn with_objective(mut self, objective: ObjectiveConfig) -> Self {
        self.objective = objective;
        self
    }

    /// Builder-style planner override.
    pub fn with_planner(mut self, planner: PlannerConfig) -> Self {
        self.planner = planner;
        self
    }

    /// Builder-style compaction-threshold override (clamped into `0.0..=1.0`;
    /// NaN reads as "never compact").
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Self {
        self.compaction_threshold = if threshold.is_nan() {
            1.0
        } else {
            threshold.clamp(0.0, 1.0)
        };
        self
    }

    /// A validating builder seeded with the default configuration. Unlike the
    /// `with_*` methods (which clamp nonsense values), the builder **rejects**
    /// them: `build()` returns a [`ConfigError`] naming the bad field.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Validating builder for [`EngineConfig`]; see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Number of worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Capacity of the bounded submission queue.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Capacity of the result cache (whole responses, LRU).
    pub fn result_cache_capacity(mut self, capacity: usize) -> Self {
        self.config.result_cache_capacity = capacity;
        self
    }

    /// Element-matching configuration.
    pub fn element(mut self, element: ElementMatchConfig) -> Self {
        self.config.element = element;
        self
    }

    /// Clustering variant the pipeline runs per query.
    pub fn variant(mut self, variant: ClusteringVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Objective-function configuration.
    pub fn objective(mut self, objective: ObjectiveConfig) -> Self {
        self.config.objective = objective;
        self
    }

    /// Planner tuning.
    pub fn planner(mut self, planner: PlannerConfig) -> Self {
        self.config.planner = planner;
        self
    }

    /// Compaction trigger threshold.
    pub fn compaction_threshold(mut self, threshold: f64) -> Self {
        self.config.compaction_threshold = threshold;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        if self.config.workers == 0 {
            return Err(ConfigError::new("workers", "must be >= 1"));
        }
        if self.config.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "must be >= 1"));
        }
        if self.config.result_cache_capacity == 0 {
            return Err(ConfigError::new("result_cache_capacity", "must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.config.compaction_threshold) {
            return Err(ConfigError::new(
                "compaction_threshold",
                "must be within 0.0..=1.0",
            ));
        }
        Ok(self.config)
    }
}

/// Per-worker reusable working memory: the similarity kernels' scratch rows plus
/// the candidate generator's counters. One bundle per worker thread keeps the
/// whole serving hot path allocation-free in steady state (candidate generation
/// allocates only its output `Vec`).
#[derive(Default)]
struct WorkerScratch {
    sim: SimScratch,
    candidates: CandidateScratch,
}

/// The mutable half of the engine: the live repository (forest + index +
/// generation) and the per-tree centroid table derived from it. Everything in
/// here moves together under one [`RwLock`] — queries hold the read side for
/// their whole serving span, mutations take the write side, so every response
/// is computed against exactly one generation.
struct EngineState {
    live: LiveRepository,
    /// Per-tree centroid nodes: pre-populated on a snapshot load, computed on
    /// first use on a cold build (the query pipeline never reads them, so cold
    /// construction pays nothing). Appends extend the table incrementally when
    /// it is already materialised — a tree's medoid is tree-local, so the
    /// extension equals a full recompute.
    centroids: std::sync::OnceLock<Vec<Option<GlobalNodeId>>>,
}

impl EngineState {
    /// The centroid table, computing it on first use.
    fn centroids(&self) -> &[Option<GlobalNodeId>] {
        self.centroids
            .get_or_init(|| xsm_core::centroid::tree_centroids(self.live.repo()))
    }

    /// Keep an already-materialised centroid table covering newly appended
    /// trees (an unmaterialised table needs nothing — first use covers them).
    fn extend_centroids(&mut self, appended: &[TreeId]) {
        let EngineState { live, centroids } = self;
        if let Some(table) = centroids.get_mut() {
            for &tid in appended {
                table.push(xsm_core::centroid::tree_medoid(
                    live.repo(),
                    &live.repo().tree_node_ids(tid),
                ));
            }
        }
    }
}

/// Everything the workers share; lives behind one `Arc` so worker threads can outlive
/// borrows of the engine handle.
struct EngineCore {
    state: RwLock<EngineState>,
    matcher: ClusteredMatcher,
    generator: BranchAndBoundGenerator,
    planner: QueryPlanner,
    results: ResultCache,
    inflight: Singleflight<ServiceResult<MatchResponse>>,
    metrics: MetricsRegistry,
    objective: ObjectiveConfig,
    /// Dead-posting fraction at which a delete triggers arena compaction.
    compaction_threshold: f64,
}

/// The cache → singleflight → compute serving discipline shared by the engine's
/// workers and the sharded router (`shard::RouterCore`): look the fingerprint up
/// in the result cache, otherwise join the in-flight map — followers take a clone
/// of the leader's outcome, the leader runs `compute`, publishes and caches. One
/// implementation, so the two serving layers cannot drift apart in accounting or
/// in the leader's cache re-check. `compute` is `FnMut` because a caller can lose
/// a cancelled leader's flight and end up leading a later one.
///
/// Outcomes are [`ServiceResult`]s: errors and **incomplete** (degraded-merge)
/// responses are published to coalesced followers — everyone waiting on the
/// flight shares the leader's fate — but are **never cached**, so the next
/// non-concurrent submission retries against a possibly-recovered backend.
pub(crate) fn serve_with_caches(
    results: &ResultCache,
    inflight: &Singleflight<ServiceResult<MatchResponse>>,
    metrics: &MetricsRegistry,
    fingerprint: String,
    mut compute: impl FnMut(&str) -> ServiceResult<MatchResponse>,
) -> ServiceResult<MatchResponse> {
    let start = Instant::now();
    if let Some(cached) = results.get(&fingerprint) {
        // Deep-clone outside the cache lock (get returns an Arc) so warm traffic
        // doesn't serialise workers on the clone.
        let mut response = (*cached).clone();
        response.cache_hit = true;
        response.latency = start.elapsed();
        metrics.record(response.latency, response.strategy, ServedVia::ResultCache);
        return Ok(response);
    }
    loop {
        match inflight.join(&fingerprint) {
            Join::Follower(Some(Ok(leader_response))) => {
                let mut response = leader_response;
                response.cache_hit = true;
                response.latency = start.elapsed();
                metrics.record(response.latency, response.strategy, ServedVia::Coalesced);
                if response.incomplete {
                    metrics.record_degraded();
                }
                return Ok(response);
            }
            Join::Follower(Some(Err(error))) => {
                // The leader's scatter failed outright; every coalesced caller
                // shares the failure (retrying here would thunder onto a dead
                // backend).
                metrics.record_failure();
                return Err(error);
            }
            // The leader died without publishing (a pipeline panic is a bug, but
            // it must not strand followers): try to take the lead ourselves.
            Join::Follower(None) => continue,
            Join::Leader(guard) => {
                // Re-check the result cache: the previous leader may have
                // published between our miss and this join.
                if let Some(cached) = results.get(&fingerprint) {
                    let response = (*cached).clone();
                    guard.complete(Ok(response.clone()));
                    let mut out = response;
                    out.cache_hit = true;
                    out.latency = start.elapsed();
                    metrics.record(out.latency, out.strategy, ServedVia::ResultCache);
                    return Ok(out);
                }
                match compute(&fingerprint) {
                    Ok(response) => {
                        if !response.incomplete {
                            // Degraded merges stay out of the cache: caching one
                            // would keep serving the partial answer long after
                            // the failed shards recovered.
                            results.insert(fingerprint, response.clone());
                        }
                        guard.complete(Ok(response.clone()));
                        let mut out = response;
                        out.latency = start.elapsed();
                        metrics.record(out.latency, out.strategy, ServedVia::Pipeline);
                        if out.incomplete {
                            metrics.record_degraded();
                        }
                        return Ok(out);
                    }
                    Err(error) => {
                        guard.complete(Err(error.clone()));
                        metrics.record_failure();
                        return Err(error);
                    }
                }
            }
        }
    }
}

impl EngineCore {
    /// Answer one query: result cache → singleflight → planner → candidate
    /// generation (feature kernels) → clustered pipeline, best `top_k` kept. This is
    /// the sequential unit of work; concurrency only ever runs *whole* queries in
    /// parallel, which is what makes worker-count invisible in the results.
    fn answer(
        &self,
        query: &MatchQuery,
        scratch: &mut WorkerScratch,
    ) -> ServiceResult<MatchResponse> {
        // Hold the state read lock across the whole serving span — cache
        // lookup, singleflight join, compute — the same write-gate discipline
        // the sharded router's swap gate applies: a mutation's write lock
        // drains every in-flight query first, so a response can never mix two
        // generations and a cache insert can never race a mutation's clear.
        let state = self.state.read().expect("engine state lock poisoned");
        serve_with_caches(
            &self.results,
            &self.inflight,
            &self.metrics,
            query.fingerprint(),
            |fingerprint| Ok(self.run_pipeline(&state, query, fingerprint, scratch)),
        )
    }

    /// The uncached pipeline: plan, generate candidates through the filter–verify
    /// index and the feature kernels, then run the clustered matcher for the best
    /// `top_k` mappings. Only mappings that can still make the top `k` are built;
    /// `total_matches` is the generator's exact count of every mapping with `Δ ≥ δ`.
    fn run_pipeline(
        &self,
        state: &EngineState,
        query: &MatchQuery,
        fingerprint: &str,
        scratch: &mut WorkerScratch,
    ) -> MatchResponse {
        let index = state.live.index();
        // The element floor doubles as the candidate generator's length-window
        // anchor: pairs outside the window cannot clear the floor after scoring.
        let length_floor = self.matcher.element_config().min_similarity;
        // Resolve every personal name against the index once; the Auto plan
        // estimate and index-pruned generation consume the same resolutions.
        // Forced-exhaustive queries never touch the gram index, so they skip it.
        let resolved = match query.strategy {
            QueryStrategy::Exhaustive => None,
            QueryStrategy::Auto | QueryStrategy::IndexPruned => {
                Some(resolve_personal_queries(&query.personal, index))
            }
        };
        let plan = match &resolved {
            Some(resolved) => self.planner.plan_resolved(
                &query.personal,
                query.strategy,
                index,
                length_floor,
                resolved,
            ),
            None => self
                .planner
                .plan(&query.personal, query.strategy, index, length_floor),
        };
        // The pub `threshold` field (and a future deserialized front-end) can bypass
        // the builder's clamp; sanitise here so NaN can't poison every `Δ ≥ δ`
        // comparison. NaN reads as "no threshold given a garbage value" → strictest.
        let threshold = if query.threshold.is_nan() {
            1.0
        } else {
            query.threshold.clamp(0.0, 1.0)
        };
        let problem = MatchingProblem::new(query.personal.clone(), self.objective, threshold);
        let candidates = match plan.strategy {
            // The pruned path only ever resolves out of Auto or forced
            // IndexPruned requests, both of which resolved above.
            PlannedStrategy::IndexPruned => match_elements_with_index_features_resolved(
                &problem.personal,
                index,
                self.matcher.element_config(),
                self.planner.config().min_overlap,
                resolved
                    .as_deref()
                    .expect("index-pruned serving implies resolved queries"),
                &mut scratch.sim,
                &mut scratch.candidates,
            ),
            PlannedStrategy::Exhaustive => match_elements_features(
                &problem.personal,
                index.features(),
                self.matcher.element_config(),
                &mut scratch.sim,
            ),
        };
        let candidate_count = candidates.total_candidates();
        let report = self.matcher.run_on_candidates_top(
            &problem,
            state.live.repo(),
            &candidates,
            &self.generator,
            query.top_k,
        );

        MatchResponse {
            fingerprint: fingerprint.to_string(),
            strategy: plan.strategy,
            cache_hit: false,
            mappings: report.mappings,
            candidate_count,
            total_matches: report.generator_counters.retained_mappings as usize,
            incomplete: false,
            failed_shards: Vec::new(),
            generation: state.live.generation(),
            latency: Duration::ZERO,
        }
    }
}

/// The transports a [`PendingResponse`] can resolve through.
#[derive(Debug)]
enum PendingInner {
    /// A reply channel a pool worker will answer on (in-process engines and the
    /// sharded router).
    Channel(Receiver<ServiceResult<MatchResponse>>),
    /// A dedicated thread performing the request (the TCP client, one round
    /// trip per thread).
    Task(JoinHandle<ServiceResult<MatchResponse>>),
    /// An outcome known at submission time (fault injection, immediate
    /// rejections).
    Ready(ServiceResult<MatchResponse>),
}

/// A handle to a submitted query; [`PendingResponse::wait`] blocks until the
/// answer — or the serving error — is available.
///
/// Every [`crate::MatchService`] implementation hands these out, whatever its
/// transport: in-process submissions resolve through a worker's reply channel,
/// remote submissions through a request thread, injected faults immediately.
#[derive(Debug)]
pub struct PendingResponse {
    inner: PendingInner,
}

impl PendingResponse {
    /// Wrap a reply channel (used by the engine's and the sharded router's
    /// worker pools).
    pub(crate) fn from_channel(rx: Receiver<ServiceResult<MatchResponse>>) -> Self {
        PendingResponse {
            inner: PendingInner::Channel(rx),
        }
    }

    /// Wrap a thread computing the response (used by transports that dedicate a
    /// thread per in-flight request, e.g. the TCP client). A panicking thread
    /// resolves to [`ServiceError::Internal`], never a caller panic.
    pub fn from_task(handle: JoinHandle<ServiceResult<MatchResponse>>) -> Self {
        PendingResponse {
            inner: PendingInner::Task(handle),
        }
    }

    /// A response (or error) that is already available; [`PendingResponse::wait`]
    /// returns it without blocking. Useful for fault injection and for services
    /// that can answer at submission time.
    pub fn ready(result: ServiceResult<MatchResponse>) -> Self {
        PendingResponse {
            inner: PendingInner::Ready(result),
        }
    }

    /// Block until the response is ready. A serving backend that died before
    /// answering yields [`ServiceError::Internal`] — waiting never panics.
    pub fn wait(self) -> ServiceResult<MatchResponse> {
        match self.inner {
            PendingInner::Channel(rx) => rx
                .recv()
                .map_err(|_| ServiceError::internal("serving worker dropped the reply channel"))?,
            PendingInner::Task(handle) => handle
                .join()
                .map_err(|_| ServiceError::internal("response thread panicked"))?,
            PendingInner::Ready(result) => result,
        }
    }
}

/// A concurrent match-serving engine over one repository.
///
/// Construction amortises the expensive artefacts (name index, per-name feature
/// table, clustering configuration) across every subsequent query; serving happens
/// on a fixed pool of worker threads behind a bounded queue, each worker owning its
/// similarity scratch buffers. Dropping the engine answers every query already
/// queued, then joins every worker.
pub struct MatchEngine {
    /// Declared first so it drops first: the workers are joined while this
    /// handle still holds the core, so the core is freed on the dropping
    /// thread, never on a worker.
    pool: WorkerPool,
    core: Arc<EngineCore>,
}

impl MatchEngine {
    /// Build an engine over `repo` (index and feature-store construction happens
    /// here) and start the worker pool.
    pub fn new(repo: SchemaRepository, config: EngineConfig) -> Self {
        let start = Instant::now();
        let index = NameIndex::build(&repo);
        Self::assemble(
            repo,
            index,
            None,
            0,
            config,
            start,
            StartupSource::ColdBuild,
        )
    }

    /// Start an engine from the snapshot file at `path` — no index rebuild, no
    /// feature recomputation; everything `MatchEngine::new` constructs is read
    /// back from the file. Fails closed with a typed [`SnapshotError`] on any
    /// corrupt, truncated or version-skewed snapshot.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
        config: EngineConfig,
    ) -> Result<Self, SnapshotError> {
        let start = Instant::now();
        let snapshot = SnapshotReader::read(path)?;
        Ok(Self::from_snapshot_parts(snapshot, config, start))
    }

    /// [`MatchEngine::from_snapshot`], additionally requiring the snapshot's
    /// generation stamp to equal `generation` —
    /// [`SnapshotError::GenerationMismatch`] otherwise. The guard callers use
    /// to refuse serving a stale index for a repository that has moved on.
    pub fn from_snapshot_expecting(
        path: impl AsRef<std::path::Path>,
        config: EngineConfig,
        generation: u64,
    ) -> Result<Self, SnapshotError> {
        let start = Instant::now();
        let snapshot = SnapshotReader::read(path)?.expect_generation(generation)?;
        Ok(Self::from_snapshot_parts(snapshot, config, start))
    }

    /// Assemble an engine from an already-loaded [`Snapshot`] (the in-memory
    /// entry point [`MatchEngine::from_snapshot`] wraps with file I/O).
    pub fn from_snapshot_parts(snapshot: Snapshot, config: EngineConfig, start: Instant) -> Self {
        Self::assemble(
            snapshot.repository,
            snapshot.index,
            Some(snapshot.centroids),
            snapshot.generation,
            config,
            start,
            StartupSource::SnapshotLoad,
        )
    }

    /// The engine's current repository generation: the snapshot stamp it was
    /// loaded with (0 for a cold build), +1 per applied mutation batch. Every
    /// response carries the generation it was computed against.
    pub fn generation(&self) -> u64 {
        self.read_state().live.generation()
    }

    /// Serialize this engine's startup artefacts — repository, index, feature
    /// store, per-tree centroids and the tombstone set — to a snapshot file
    /// stamped `generation`. Returns the file size in bytes.
    pub fn write_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
        generation: u64,
    ) -> Result<u64, SnapshotError> {
        let state = self.read_state();
        SnapshotWriter::new(generation).write(
            state.live.repo(),
            state.live.index(),
            state.centroids(),
            path,
        )
    }

    /// The per-tree centroid (medoid) table: loaded from the snapshot on a warm
    /// start, computed on first use (deterministically) on a cold build, and
    /// extended in place when trees are appended. Owned because the table
    /// lives under the state lock.
    pub fn tree_centroids(&self) -> Vec<Option<GlobalNodeId>> {
        self.read_state().centroids().to_vec()
    }

    fn read_state(&self) -> RwLockReadGuard<'_, EngineState> {
        self.core.state.read().expect("engine state lock poisoned")
    }

    /// The shared constructor tail: wrap prebuilt artefacts in the core, stamp
    /// the startup metrics, and start the worker pool.
    fn assemble(
        repo: SchemaRepository,
        index: NameIndex,
        centroids: Option<Vec<Option<GlobalNodeId>>>,
        generation: u64,
        config: EngineConfig,
        start: Instant,
        source: StartupSource,
    ) -> Self {
        let centroid_cell = std::sync::OnceLock::new();
        if let Some(centroids) = centroids {
            let _ = centroid_cell.set(centroids);
        }
        let core = Arc::new(EngineCore {
            state: RwLock::new(EngineState {
                live: LiveRepository::from_parts(repo, index, generation),
                centroids: centroid_cell,
            }),
            matcher: ClusteredMatcher::for_variant(config.variant)
                .with_element_config(config.element.clone()),
            generator: BranchAndBoundGenerator::new(),
            planner: QueryPlanner::new(config.planner),
            results: ResultCache::with_capacity(config.result_cache_capacity),
            inflight: Singleflight::new(),
            metrics: MetricsRegistry::new(),
            objective: config.objective,
            compaction_threshold: config.compaction_threshold,
        });
        let served = Arc::clone(&core);
        let pool = WorkerPool::spawn(
            "xsm-serve",
            config.workers,
            config.queue_capacity,
            move |query, scratch: &mut WorkerScratch| served.answer(query, scratch),
        );
        core.metrics.set_startup(
            start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            source,
        );
        MatchEngine { pool, core }
    }

    /// Build an engine with the default configuration.
    pub fn with_defaults(repo: SchemaRepository) -> Self {
        Self::new(repo, EngineConfig::default())
    }

    /// Number of worker threads serving queries.
    pub fn workers(&self) -> usize {
        self.pool.len()
    }

    /// The repository the engine serves, behind the state read lock. Holding
    /// the guard blocks mutations — drop it before calling [`MatchEngine::append_trees`]
    /// and friends on the same thread.
    pub fn repository(&self) -> RepositoryGuard<'_> {
        RepositoryGuard {
            state: self.read_state(),
        }
    }

    /// The name index (its [`xsm_repo::FeatureStore`] included), behind the
    /// state read lock.
    pub fn index(&self) -> IndexGuard<'_> {
        IndexGuard {
            state: self.read_state(),
        }
    }

    /// Append a batch of trees without a rebuild: the index's posting arena,
    /// the feature store and the tree table all grow tail-only, existing
    /// entries untouched. One generation bump per batch; the result cache is
    /// invalidated precisely (old responses carry the old generation).
    /// Returns the consecutive [`TreeId`]s the trees received.
    pub fn append_trees(&self, trees: Vec<SchemaTree>) -> ServiceResult<Vec<TreeId>> {
        self.append(trees, None)
    }

    /// [`MatchEngine::append_trees`] landing on an explicit target generation
    /// (`> current`) — how a sharded router keeps every shard in step. The
    /// target is validated before anything mutates.
    pub fn append_trees_at(
        &self,
        trees: Vec<SchemaTree>,
        generation: u64,
    ) -> ServiceResult<Vec<TreeId>> {
        self.append(trees, Some(generation))
    }

    fn append(&self, trees: Vec<SchemaTree>, target: Option<u64>) -> ServiceResult<Vec<TreeId>> {
        self.mutate(
            target,
            |live| live.append_trees(trees),
            |state, ids| state.extend_centroids(ids),
        )
    }

    /// Tombstone a batch of trees without a rebuild: their postings are
    /// filtered out of candidate generation immediately and reclaimed by
    /// LSM-style arena compaction once the dead fraction crosses
    /// [`EngineConfig::compaction_threshold`]. The batch is validated before
    /// anything mutates (atomic). One generation bump per batch; the result
    /// cache is invalidated. Returns the node-weighted posting volume removed
    /// (each deleted node once per distinct gram of its name).
    pub fn delete_trees(&self, trees: &[TreeId]) -> ServiceResult<usize> {
        self.delete(trees, None)
    }

    /// [`MatchEngine::delete_trees`] landing on an explicit target generation
    /// (`> current`); see [`MatchEngine::append_trees_at`].
    pub fn delete_trees_at(&self, trees: &[TreeId], generation: u64) -> ServiceResult<usize> {
        self.delete(trees, Some(generation))
    }

    fn delete(&self, trees: &[TreeId], target: Option<u64>) -> ServiceResult<usize> {
        let threshold = self.core.compaction_threshold;
        self.mutate(
            target,
            |live| live.delete_trees(trees),
            |state, _| {
                state.live.maybe_compact(threshold);
            },
        )
    }

    /// The one shape of a content mutation, under the write lock: refuse a
    /// stale `target` generation before anything mutates, apply `change`, land
    /// on the target, let `settle` bring the derived state along (centroid
    /// table, arena compaction) and invalidate the result cache.
    fn mutate<T>(
        &self,
        target: Option<u64>,
        change: impl FnOnce(&mut LiveRepository) -> Result<T, LiveError>,
        settle: impl FnOnce(&mut EngineState, &T),
    ) -> ServiceResult<T> {
        let mut state = self.write_state();
        let current = state.live.generation();
        if let Some(requested) = target.filter(|&requested| requested <= current) {
            return Err(live_error(LiveError::StaleGeneration {
                current,
                requested,
            }));
        }
        let outcome = change(&mut state.live).map_err(live_error)?;
        if let Some(generation) = target.filter(|&target| state.live.generation() < target) {
            state
                .live
                .advance_generation(generation)
                .expect("target was validated above");
        }
        settle(&mut state, &outcome);
        self.core.results.clear();
        Ok(outcome)
    }

    /// Force the arena compaction [`MatchEngine::delete_trees`] would trigger
    /// at the threshold. Physical-only: answers and generation are unchanged,
    /// so the result cache stays valid. Returns the postings reclaimed.
    pub fn compact(&self) -> usize {
        self.write_state().live.compact()
    }

    /// Advance the generation without a content change — how a router keeps
    /// unmutated shards in step with mutated ones. Invalidates the result
    /// cache (cached responses carry the old generation stamp).
    pub fn advance_generation(&self, generation: u64) -> ServiceResult<()> {
        let mut state = self.write_state();
        state
            .live
            .advance_generation(generation)
            .map_err(live_error)?;
        self.core.results.clear();
        Ok(())
    }

    /// The tombstoned trees, ascending (owned: the set lives under the state
    /// lock).
    pub fn tombstoned_trees(&self) -> Vec<TreeId> {
        self.read_state().live.tombstoned_trees().to_vec()
    }

    /// Dead fraction of the index's posting arena — the compaction trigger
    /// input, exposed for observability.
    pub fn dead_posting_fraction(&self) -> f64 {
        self.read_state().live.dead_posting_fraction()
    }

    fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, EngineState> {
        self.core.state.write().expect("engine state lock poisoned")
    }

    /// Enqueue one query; blocks while the submission queue is full (backpressure).
    /// Fails with [`ServiceError::Internal`] only if the worker pool died — an
    /// engine bug, not a load condition.
    pub fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        self.pool.submit(query)
    }

    /// Like [`MatchEngine::submit`] but **never blocks**: a full submission
    /// queue is reported as [`ServiceError::QueueFull`] instead of applying
    /// backpressure. The shed-load entry point for latency-sensitive callers.
    pub fn try_submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        self.pool.try_submit(query)
    }

    /// Answer one query, blocking until it is served.
    ///
    /// # Panics
    /// Panics if the worker pool died mid-request (an engine bug). Use
    /// [`MatchEngine::submit`] for the `Result`-returning path.
    pub fn query(&self, query: MatchQuery) -> MatchResponse {
        self.submit(query)
            .and_then(PendingResponse::wait)
            .expect("in-process engine serving cannot fail while the pool lives")
    }

    /// Answer a query on the *calling* thread, bypassing the pool. Identical results
    /// to [`MatchEngine::query`] (same caches, same planner); used as the sequential
    /// baseline in benches and determinism tests.
    pub fn answer_inline(&self, query: &MatchQuery) -> MatchResponse {
        let mut scratch = WorkerScratch::default();
        self.core
            .answer(query, &mut scratch)
            .expect("the in-process pipeline is infallible")
    }

    /// A point-in-time snapshot of the serving metrics.
    pub fn metrics(&self) -> EngineMetrics {
        self.core.metrics.snapshot()
    }

    /// Number of responses currently held by the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.core.results.len()
    }

    /// Drop every cached response (e.g. after the repository's ranking semantics
    /// change out of band). The feature store is derived purely from the immutable
    /// repository names, so it stays.
    pub fn invalidate_results(&self) {
        self.core.results.clear();
    }
}

/// Read-locked view of the engine's repository ([`MatchEngine::repository`]);
/// derefs to [`SchemaRepository`]. Mutations block while a guard is held.
pub struct RepositoryGuard<'a> {
    state: RwLockReadGuard<'a, EngineState>,
}

impl std::ops::Deref for RepositoryGuard<'_> {
    type Target = SchemaRepository;

    fn deref(&self) -> &SchemaRepository {
        self.state.live.repo()
    }
}

/// Read-locked view of the engine's name index ([`MatchEngine::index`]);
/// derefs to [`NameIndex`]. Mutations block while a guard is held.
pub struct IndexGuard<'a> {
    state: RwLockReadGuard<'a, EngineState>,
}

impl std::ops::Deref for IndexGuard<'_> {
    type Target = NameIndex;

    fn deref(&self) -> &NameIndex {
        self.state.live.index()
    }
}

/// Mutation rejections surface as [`ServiceError::BadRequest`]: the request
/// itself was invalid (unknown tree, stale generation); nothing about the
/// engine is broken and nothing was applied.
fn live_error(error: LiveError) -> ServiceError {
    ServiceError::bad_request(error.to_string())
}

impl MatchService for MatchEngine {
    fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        MatchEngine::submit(self, query)
    }

    fn metrics_snapshot(&self) -> ServiceResult<EngineMetrics> {
        Ok(self.metrics())
    }

    fn plan_stats(&self, personal: &SchemaTree, length_floor: f64) -> ServiceResult<PlanStats> {
        Ok(PlanStats::measure(
            personal,
            self.read_state().live.index(),
            length_floor,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryStrategy;
    use xsm_schema::tree::{paper_personal_schema, paper_repository_fragment};
    use xsm_schema::{SchemaNode, TreeBuilder};

    fn small_repo() -> SchemaRepository {
        let people = TreeBuilder::new("people")
            .root(SchemaNode::element("person"))
            .child(SchemaNode::element("name"))
            .sibling(SchemaNode::element("email"))
            .sibling(SchemaNode::element("address"))
            .build();
        SchemaRepository::from_trees(vec![paper_repository_fragment(), people])
    }

    fn engine(workers: usize) -> MatchEngine {
        MatchEngine::new(
            small_repo(),
            EngineConfig::default()
                .with_workers(workers)
                .with_element_config(ElementMatchConfig::default().with_min_similarity(0.4)),
        )
    }

    fn book_query() -> MatchQuery {
        MatchQuery::new(paper_personal_schema())
            .with_top_k(5)
            .with_threshold(0.5)
    }

    #[test]
    fn serves_the_fig1_query() {
        let engine = engine(2);
        assert_eq!(engine.workers(), 2);
        let response = engine.query(book_query());
        assert!(!response.cache_hit);
        assert!(!response.mappings.is_empty());
        assert!(response.mappings.len() <= 5);
        let best = &response.mappings[0];
        assert!(best.score >= 0.5);
        assert!(best.is_structurally_valid());
        // Scores are sorted best-first.
        for pair in response.mappings.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn repeated_query_hits_the_result_cache_with_identical_content() {
        let engine = engine(2);
        let first = engine.query(book_query());
        let second = engine.query(book_query());
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(first.result_digest(), second.result_digest());
        let metrics = engine.metrics();
        assert_eq!(metrics.queries_served, 2);
        assert_eq!(metrics.result_cache_hits, 1);
        assert_eq!(engine.result_cache_len(), 1);
        engine.invalidate_results();
        assert_eq!(engine.result_cache_len(), 0);
        assert!(!engine.query(book_query()).cache_hit);
    }

    #[test]
    fn inline_and_pooled_answers_agree() {
        let pooled = engine(3).query(book_query());
        let inline = engine(1).answer_inline(&book_query());
        assert_eq!(pooled.result_digest(), inline.result_digest());
    }

    #[test]
    fn top_k_truncates_but_counts_all_matches() {
        let engine = engine(1);
        let all = engine.query(book_query().with_top_k(100));
        let one = engine.query(book_query().with_top_k(1));
        assert_eq!(one.mappings.len(), 1.min(all.total_matches));
        assert_eq!(one.total_matches, all.total_matches);
        assert_eq!(one.mappings[0], all.mappings[0]);
    }

    #[test]
    fn top_k_zero_returns_no_mappings_but_counts_all_matches() {
        let engine = engine(1);
        let none = engine.query(book_query().with_top_k(0));
        let all = engine.query(book_query().with_top_k(100));
        assert!(none.mappings.is_empty());
        assert!(all.total_matches > 0);
        assert_eq!(none.total_matches, all.total_matches);
        assert_eq!(none.candidate_count, all.candidate_count);
    }

    #[test]
    fn an_unvalidated_top_k_of_usize_max_answers_like_a_large_one() {
        // Nothing validates a wire-decoded `top_k`, and nothing may reserve room
        // for it: the pipeline must answer as it does for any k past the count.
        let engine = engine(2);
        let large = engine.query(book_query().with_top_k(100));
        assert_eq!(
            large.mappings.len(),
            large.total_matches,
            "k = 100 keeps all"
        );
        let huge = engine.query(book_query().with_top_k(usize::MAX));
        assert_eq!(huge.mappings, large.mappings);
        assert_eq!(huge.total_matches, large.total_matches);
        assert_eq!(huge.candidate_count, large.candidate_count);
    }

    #[test]
    fn forced_strategies_round_trip_through_the_engine() {
        let engine = engine(2);
        let pruned = engine.query(book_query().with_strategy(QueryStrategy::IndexPruned));
        let exhaustive = engine.query(book_query().with_strategy(QueryStrategy::Exhaustive));
        assert_eq!(pruned.strategy, PlannedStrategy::IndexPruned);
        assert_eq!(exhaustive.strategy, PlannedStrategy::Exhaustive);
        // Index pruning never invents candidates.
        assert!(pruned.candidate_count <= exhaustive.candidate_count);
        let metrics = engine.metrics();
        assert_eq!(metrics.index_pruned_queries, 1);
        assert_eq!(metrics.exhaustive_queries, 1);
        assert!(metrics.p50_latency_us > 0);
    }

    #[test]
    fn unsanitised_thresholds_cannot_poison_serving() {
        let engine = engine(1);
        let mut nan_query = book_query();
        nan_query.threshold = f64::NAN;
        // NaN serves as δ = 1.0: a valid (possibly empty) answer, and every returned
        // mapping would be a perfect match. Must not panic or return NaN scores.
        let response = engine.answer_inline(&nan_query);
        assert!(response.mappings.iter().all(|m| m.score >= 1.0 - 1e-12));

        let mut wild = book_query();
        wild.threshold = -3.0;
        let clamped = engine.answer_inline(&wild);
        let built = engine.answer_inline(&book_query().with_threshold(-3.0));
        assert_eq!(clamped.mappings.len(), built.mappings.len());
    }

    #[test]
    fn batch_preserves_input_order() {
        let engine = engine(4);
        let queries: Vec<MatchQuery> = (1..=8).map(|k| book_query().with_top_k(k)).collect();
        let responses = engine.submit_batch(queries.clone()).unwrap();
        assert_eq!(responses.len(), 8);
        for (query, response) in queries.iter().zip(&responses) {
            assert_eq!(response.fingerprint, query.fingerprint());
            assert!(response.mappings.len() <= query.top_k);
        }
    }

    #[test]
    fn identical_concurrent_queries_coalesce_or_hit_the_cache() {
        // 8 copies of one query against 4 workers: exactly one pipeline execution;
        // every other copy is served by the result cache or coalesces onto the
        // leader's in-flight computation. Which of the two depends on timing, but
        // the accounting invariant does not.
        let engine = engine(4);
        let responses = engine
            .submit_batch(vec![
                book_query().with_strategy(QueryStrategy::Exhaustive);
                8
            ])
            .unwrap();
        let digest = responses[0].result_digest();
        for r in &responses {
            assert_eq!(r.result_digest(), digest, "duplicates must not diverge");
        }
        let m = engine.metrics();
        assert_eq!(m.queries_served, 8);
        assert_eq!(
            m.exhaustive_queries + m.index_pruned_queries,
            1,
            "one pipeline execution for 8 identical queries"
        );
        assert_eq!(m.result_cache_hits + m.coalesced_queries, 7);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let engine = engine(4);
        let _ = engine.query(book_query());
        drop(engine); // must not hang or panic
    }

    #[test]
    fn builder_validates_instead_of_clamping() {
        assert_eq!(
            EngineConfig::builder()
                .workers(0)
                .build()
                .unwrap_err()
                .field,
            "workers"
        );
        assert_eq!(
            EngineConfig::builder()
                .queue_capacity(0)
                .build()
                .unwrap_err()
                .field,
            "queue_capacity"
        );
        assert_eq!(
            EngineConfig::builder()
                .result_cache_capacity(0)
                .build()
                .unwrap_err()
                .field,
            "result_cache_capacity"
        );
        let config = EngineConfig::builder()
            .workers(2)
            .queue_capacity(7)
            .result_cache_capacity(11)
            .element(ElementMatchConfig::default().with_min_similarity(0.4))
            .build()
            .unwrap();
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_capacity, 7);
        assert_eq!(config.result_cache_capacity, 11);
    }

    #[test]
    fn try_submit_reports_queue_full_instead_of_blocking() {
        let engine = MatchEngine::new(
            small_repo(),
            EngineConfig::builder()
                .workers(1)
                .queue_capacity(1)
                .build()
                .unwrap(),
        );
        let blocker = book_query();
        let fp = blocker.fingerprint();
        // Take the singleflight lead for the blocker's fingerprint so the lone
        // worker parks as a follower — the queue then backs up deterministically.
        let guard = match engine.core.inflight.join(&fp) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("nothing else is in flight"),
        };
        let parked = engine.submit(blocker.clone()).unwrap();
        while engine.core.inflight.waiters(&fp) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Queue capacity 1: one more submission fits, the next must shed.
        let queued = engine.try_submit(book_query().with_top_k(1)).unwrap();
        let overflow = engine.try_submit(book_query().with_top_k(2));
        assert_eq!(overflow.unwrap_err(), ServiceError::QueueFull);
        // Publish a canned answer to release the parked worker.
        guard.complete(Ok(MatchResponse {
            fingerprint: fp,
            strategy: PlannedStrategy::Exhaustive,
            cache_hit: false,
            mappings: Vec::new(),
            candidate_count: 0,
            total_matches: 0,
            incomplete: false,
            failed_shards: Vec::new(),
            generation: 0,
            latency: Duration::ZERO,
        }));
        assert!(parked.wait().unwrap().cache_hit);
        let _ = queued.wait().unwrap();
    }

    #[test]
    fn followers_retake_the_flight_when_the_leader_is_cancelled() {
        let engine = engine(2);
        let query = book_query();
        let fp = query.fingerprint();
        // Steal the singleflight lead for the fingerprint so both workers park
        // as followers on a flight that will never publish.
        let leader = match engine.core.inflight.join(&fp) {
            Join::Leader(g) => g,
            Join::Follower(_) => panic!("nothing else is in flight"),
        };
        let first = engine.submit(query.clone()).unwrap();
        let second = engine.submit(query).unwrap();
        while engine.core.inflight.waiters(&fp) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Kill the leader without publishing — exactly what a pipeline panic
        // does through the guard's Drop. Both followers observe the cancelled
        // slot (`Join::Follower(None)`), loop, and one retakes the lead and
        // computes the real answer instead of stranding or erroring.
        drop(leader);
        let a = first.wait().unwrap();
        let b = second.wait().unwrap();
        assert!(!a.mappings.is_empty(), "recovered leader computed for real");
        assert_eq!(a.result_digest(), b.result_digest());
        let metrics = engine.metrics();
        assert_eq!(metrics.queries_served, 2);
        assert_eq!(metrics.failed_queries, 0);
        // Exactly one follower recomputed; the other coalesced onto the
        // retaken flight or hit the freshly published cache entry. Either way
        // the accounting adds up — the cancellation double-counts nothing.
        assert_eq!(metrics.coalesced_queries + metrics.result_cache_hits, 1);
        assert_eq!(
            metrics.index_pruned_queries + metrics.exhaustive_queries,
            1,
            "the pipeline ran exactly once"
        );
    }

    #[test]
    fn engine_serves_through_the_service_trait_object() {
        let service: Box<dyn MatchService> = Box::new(engine(2));
        let response = service.submit(book_query()).unwrap().wait().unwrap();
        assert!(!response.incomplete);
        let batch = service.submit_batch(vec![book_query(); 3]).unwrap();
        assert_eq!(batch.len(), 3);
        let metrics = service.metrics_snapshot().unwrap();
        assert_eq!(metrics.queries_served, 4);
        assert_eq!(metrics.failed_queries, 0);
        let stats = service.plan_stats(&paper_personal_schema(), 0.4).unwrap();
        assert!(stats.indexed_nodes > 0);
    }
}
