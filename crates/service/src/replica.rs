//! Self-healing replicated serving: [`ReplicaSet`].
//!
//! A `ReplicaSet` implements [`MatchService`] over N interchangeable backends
//! that serve the *same* repository slice — in-process engines, TCP
//! [`crate::net::RemoteEngine`]s, anything boxed. Because the serving contract
//! guarantees byte-identical answers for the same query against the same
//! slice, *any* replica's answer is *the* answer, which is what makes the
//! three mechanisms here safe:
//!
//! * **Health-tracked routing** — every backend carries a
//!   [`CircuitBreaker`]; queries go to a Closed (healthy) breaker first,
//!   round-robin, falling back to a cooled-down trial and, as a last resort,
//!   to any backend at all (an all-open set still *tries* rather than
//!   refusing — breakers bias routing, they never orphan a query).
//! * **Hedged requests** — if the first attempt has not answered within a
//!   latency-percentile-derived delay ([`HedgeConfig`]), a second replica is
//!   raced against it; first answer wins, the loser is abandoned. Tail
//!   latency becomes the minimum of two draws instead of one.
//! * **Failover** — an attempt that returns an error is retried on the next
//!   untried replica instead of failing the caller. A dead replica therefore
//!   costs *zero* failed queries while its breaker trips and the set routes
//!   around it.
//!
//! A background **prober** thread redials suspected-dead backends
//! ([`MatchService::ping`] — the TCP client re-dials and re-handshakes) and
//! closes the breaker on a successful handshake, so a restarted
//! [`crate::net::ShardServer`] is folded back into rotation without any
//! operator action.
//!
//! A `ReplicaSet` is itself a [`MatchService`], so it drops straight into a
//! [`crate::ShardedEngine::from_services`] shard slot: a fleet of shards,
//! each a replica set, gives scatter/gather *and* per-shard self-healing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xsm_schema::SchemaTree;

use crate::engine::PendingResponse;
use crate::error::{ConfigError, ServiceError, ServiceResult};
use crate::health::{BreakerEvent, BreakerState, CircuitBreaker, HealthConfig};
use crate::metrics::{EngineMetrics, LatencyHistogram, MetricsRegistry, ServedVia};
use crate::planner::PlanStats;
use crate::query::{MatchQuery, MatchResponse};
use crate::service::MatchService;

/// Hedged-request tuning.
///
/// The hedge delay adapts to the observed latency distribution: once
/// [`HedgeConfig::min_observations`] successful attempts have been recorded,
/// the delay is the [`HedgeConfig::percentile`] of their latency histogram
/// (clamped to `[floor, cap]`); before that, [`HedgeConfig::initial_delay`]
/// is used. A replica slower than the fleet's p99 therefore gets raced, while
/// normal traffic never pays for a second attempt.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Whether slow requests are hedged at all. With hedging off the set
    /// still fails over on errors — hedging only affects *slow* attempts.
    pub enabled: bool,
    /// Latency quantile (in `0.0..=1.0`) after which an attempt counts as
    /// slow enough to race.
    pub percentile: f64,
    /// Successful attempts observed before the percentile is trusted.
    pub min_observations: u64,
    /// Hedge delay used until enough observations exist.
    pub initial_delay: Duration,
    /// Lower clamp on the delay — never hedge more aggressively than this.
    /// Must not exceed [`HedgeConfig::cap`].
    pub floor: Duration,
    /// Upper clamp on the delay (also applied when the percentile lands in
    /// the histogram's overflow bucket).
    pub cap: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            percentile: 0.99,
            min_observations: 32,
            initial_delay: Duration::from_millis(50),
            floor: Duration::from_millis(1),
            cap: Duration::from_secs(2),
        }
    }
}

impl HedgeConfig {
    /// A disabled hedge configuration (failover-only replica set).
    pub fn disabled() -> Self {
        HedgeConfig {
            enabled: false,
            ..HedgeConfig::default()
        }
    }

    /// Builder-style override of the hedge trigger percentile.
    pub fn with_percentile(mut self, percentile: f64) -> Self {
        self.percentile = percentile.clamp(0.0, 1.0);
        self
    }

    /// Builder-style override of the pre-warmup hedge delay.
    pub fn with_initial_delay(mut self, delay: Duration) -> Self {
        self.initial_delay = delay;
        self
    }

    /// Builder-style override of the warmup threshold: how many observed
    /// latencies before the percentile trigger replaces the initial delay.
    /// `u64::MAX` pins the initial delay forever (a fixed-delay hedge).
    pub fn with_min_observations(mut self, observations: u64) -> Self {
        self.min_observations = observations;
        self
    }
}

/// Tuning of a [`ReplicaSet`].
#[derive(Debug, Clone, Default)]
pub struct ReplicaSetConfig {
    /// Per-backend circuit-breaker tuning.
    pub health: HealthConfig,
    /// Hedged-request tuning.
    pub hedge: HedgeConfig,
    /// How often the background prober wakes to redial open (suspected-dead)
    /// backends. `None` disables the prober thread entirely — recovery then
    /// happens only through breaker trial requests or explicit
    /// [`ReplicaSet::probe_now`] calls (what the deterministic tests use).
    pub probe_interval: Option<Duration>,
}

impl ReplicaSetConfig {
    /// Builder-style health override.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Builder-style hedge override.
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = hedge;
        self
    }

    /// Builder-style prober-cadence override (`None` disables the thread).
    pub fn with_probe_interval(mut self, interval: Option<Duration>) -> Self {
        self.probe_interval = interval;
        self
    }
}

/// Why an attempt was launched — distinguishes a hedge win from a failover win
/// in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptKind {
    Primary,
    Hedge,
    Failover,
}

struct AttemptReport {
    kind: AttemptKind,
    outcome: ServiceResult<MatchResponse>,
}

struct Backend {
    service: Box<dyn MatchService>,
    breaker: CircuitBreaker,
}

struct ReplicaInner {
    backends: Vec<Backend>,
    config: ReplicaSetConfig,
    metrics: MetricsRegistry,
    /// Successful attempt latencies — the source of the adaptive hedge delay.
    latencies: Mutex<LatencyHistogram>,
    /// Round-robin cursor so healthy replicas share load.
    rotation: AtomicUsize,
    /// Prober shutdown flag + condvar for prompt wake-on-drop.
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl ReplicaInner {
    /// Pick the next backend to try, healthiest first: Closed breakers in
    /// round-robin order, then cooled-down breakers willing to admit a trial,
    /// then — last resort — any untried backend at all. Returns `None` only
    /// when every backend has been tried.
    fn pick_next(&self, used: &mut [bool], start: usize) -> Option<usize> {
        let n = self.backends.len();
        for k in 0..n {
            let i = (start + k) % n;
            if !used[i] && self.backends[i].breaker.state() == BreakerState::Closed {
                used[i] = true;
                return Some(i);
            }
        }
        for k in 0..n {
            let i = (start + k) % n;
            if !used[i] && self.backends[i].breaker.admit() {
                used[i] = true;
                return Some(i);
            }
        }
        for k in 0..n {
            let i = (start + k) % n;
            if !used[i] {
                used[i] = true;
                return Some(i);
            }
        }
        None
    }

    /// The current hedge delay: observed percentile once warmed up, the
    /// configured initial delay before that, clamped to `[floor, cap]` either
    /// way (overflow-bucket quantiles clamp to `cap`).
    fn hedge_delay(&self) -> Duration {
        let hedge = &self.config.hedge;
        let histogram = self.latencies.lock().unwrap();
        let raw = if histogram.count() >= hedge.min_observations {
            histogram
                .quantile(hedge.percentile)
                .unwrap_or(hedge.initial_delay)
        } else {
            hedge.initial_delay
        };
        raw.clamp(hedge.floor, hedge.cap)
    }

    /// Run one attempt to completion on backend `index`, record its breaker
    /// and latency bookkeeping, and report the outcome. Runs on a helper
    /// thread so the orchestrator can race attempts.
    fn run_attempt(&self, index: usize, kind: AttemptKind, query: MatchQuery) -> AttemptReport {
        let backend = &self.backends[index];
        let started = Instant::now();
        let outcome = backend
            .service
            .submit(query)
            .and_then(PendingResponse::wait);
        match &outcome {
            Ok(_) => {
                backend.breaker.record_success();
                self.latencies.lock().unwrap().record(started.elapsed());
            }
            Err(_) => {
                if backend.breaker.record_failure() == BreakerEvent::Opened {
                    self.metrics.record_breaker_open();
                }
            }
        }
        AttemptReport { kind, outcome }
    }

    /// The full submit orchestration: primary attempt, hedge on slowness,
    /// failover on error, first success wins.
    fn orchestrate(self: &Arc<Self>, query: MatchQuery) -> ServiceResult<MatchResponse> {
        let started = Instant::now();
        let n = self.backends.len();
        let start = self.rotation.fetch_add(1, Ordering::Relaxed) % n;
        let mut used = vec![false; n];
        let (tx, rx) = mpsc::channel::<AttemptReport>();

        let launch = |index: usize, kind: AttemptKind| -> ServiceResult<()> {
            let inner = Arc::clone(self);
            let tx = tx.clone();
            let query = query.clone();
            std::thread::Builder::new()
                .name("xsm-replica-attempt".to_string())
                .spawn(move || {
                    let report = inner.run_attempt(index, kind, query);
                    let _ = tx.send(report);
                })
                .map(|_| ())
                .map_err(|e| ServiceError::internal(format!("failed to spawn attempt: {e}")))
        };

        let primary = self
            .pick_next(&mut used, start)
            .ok_or_else(|| ServiceError::internal("replica set has no backends"))?;
        launch(primary, AttemptKind::Primary)?;
        let mut outstanding = 1usize;
        let mut hedged = false;
        let hedge_delay = self.hedge_delay();
        let mut last_error: Option<ServiceError> = None;

        loop {
            let can_hedge = self.config.hedge.enabled && !hedged && used.iter().any(|u| !u);
            let timeout = if can_hedge {
                hedge_delay.saturating_sub(started.elapsed())
            } else {
                // No further attempt to launch: just wait for the outstanding
                // ones. The backends enforce their own deadlines.
                Duration::from_secs(3600)
            };
            match rx.recv_timeout(timeout) {
                Ok(AttemptReport {
                    kind,
                    outcome: Ok(response),
                }) => {
                    self.metrics
                        .record(started.elapsed(), response.strategy, ServedVia::Pipeline);
                    if kind == AttemptKind::Hedge {
                        self.metrics.record_hedge_win();
                    }
                    return Ok(response);
                }
                Ok(AttemptReport {
                    outcome: Err(error),
                    ..
                }) => {
                    outstanding -= 1;
                    last_error = Some(error);
                    if let Some(index) = self.pick_next(&mut used, start) {
                        self.metrics.record_failover();
                        launch(index, AttemptKind::Failover)?;
                        outstanding += 1;
                    } else if outstanding == 0 {
                        self.metrics.record_failure();
                        return Err(last_error.take().unwrap_or_else(|| {
                            ServiceError::internal("replica set: every attempt failed")
                        }));
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if can_hedge {
                        if let Some(index) = self.pick_next(&mut used, start) {
                            hedged = true;
                            self.metrics.record_hedged();
                            launch(index, AttemptKind::Hedge)?;
                            outstanding += 1;
                        } else {
                            hedged = true;
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.metrics.record_failure();
                    return Err(last_error.take().unwrap_or_else(|| {
                        ServiceError::internal("replica set: every attempt thread died")
                    }));
                }
            }
        }
    }

    /// One prober pass: redial every backend whose breaker is open past its
    /// cooldown; a successful handshake closes the breaker and counts a
    /// redial, a failed one restarts the cooldown.
    fn probe_pass(&self) {
        for backend in &self.backends {
            if backend.breaker.probe_due() {
                match backend.service.ping() {
                    Ok(()) => {
                        if backend.breaker.record_success() == BreakerEvent::Closed {
                            self.metrics.record_probe_redial();
                        }
                    }
                    Err(_) => {
                        backend.breaker.record_failure();
                    }
                }
            }
        }
    }
}

/// A health-tracked, hedging, failing-over replica group; see the module docs.
pub struct ReplicaSet {
    inner: Arc<ReplicaInner>,
    prober: Option<JoinHandle<()>>,
}

impl ReplicaSet {
    /// Build a replica set over interchangeable backends (each must serve the
    /// same repository slice — the determinism contract is what makes any
    /// replica's answer authoritative). Fails on an empty backend list, a hedge
    /// percentile outside `0.0..=1.0` or a hedge floor above the hedge cap.
    pub fn new(
        backends: Vec<Box<dyn MatchService>>,
        config: ReplicaSetConfig,
    ) -> Result<Self, ConfigError> {
        if backends.is_empty() {
            return Err(ConfigError::new(
                "replicas",
                "a replica set needs at least one backend",
            ));
        }
        if !(0.0..=1.0).contains(&config.hedge.percentile) {
            return Err(ConfigError::new(
                "hedge.percentile",
                "must be within 0.0..=1.0",
            ));
        }
        if config.hedge.floor > config.hedge.cap {
            return Err(ConfigError::new("hedge.floor", "must not exceed hedge.cap"));
        }
        let health = config.health.clone();
        let inner = Arc::new(ReplicaInner {
            backends: backends
                .into_iter()
                .map(|service| Backend {
                    service,
                    breaker: CircuitBreaker::new(health.clone()),
                })
                .collect(),
            config,
            metrics: MetricsRegistry::default(),
            latencies: Mutex::new(LatencyHistogram::new()),
            rotation: AtomicUsize::new(0),
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        let prober = match inner.config.probe_interval {
            None => None,
            Some(interval) => {
                let probe_inner = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name("xsm-replica-prober".to_string())
                    .spawn(move || {
                        let mut guard = probe_inner.shutdown.lock().unwrap();
                        loop {
                            let (g, _) = probe_inner
                                .shutdown_cv
                                .wait_timeout(guard, interval)
                                .unwrap();
                            guard = g;
                            if *guard {
                                return;
                            }
                            drop(guard);
                            probe_inner.probe_pass();
                            guard = probe_inner.shutdown.lock().unwrap();
                            if *guard {
                                return;
                            }
                        }
                    })
                    .map_err(|_| ConfigError::new("prober", "failed to spawn prober thread"))?;
                Some(handle)
            }
        };
        Ok(ReplicaSet { inner, prober })
    }

    /// How many backends the set holds.
    pub fn replica_count(&self) -> usize {
        self.inner.backends.len()
    }

    /// Every backend's current breaker state, in backend order.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.inner
            .backends
            .iter()
            .map(|b| b.breaker.state())
            .collect()
    }

    /// Run one prober pass synchronously — redial open backends right now
    /// instead of waiting for the background cadence. This is what the
    /// deterministic recovery tests call (no sleeps, no timing races).
    pub fn probe_now(&self) {
        self.inner.probe_pass();
    }

    /// The hedge delay the next submission would use (diagnostics/tests).
    pub fn current_hedge_delay(&self) -> Duration {
        self.inner.hedge_delay()
    }

    /// Metrics of one *backend* (by index), as opposed to the set-level
    /// [`MatchService::metrics_snapshot`]. Fails if the backend is
    /// unreachable or the index is out of range.
    pub fn backend_metrics(&self, index: usize) -> ServiceResult<EngineMetrics> {
        self.inner
            .backends
            .get(index)
            .ok_or_else(|| ServiceError::bad_request("backend index out of range"))?
            .service
            .metrics_snapshot()
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        if let Some(handle) = self.prober.take() {
            *self.inner.shutdown.lock().unwrap() = true;
            self.inner.shutdown_cv.notify_all();
            let _ = handle.join();
        }
    }
}

impl MatchService for ReplicaSet {
    fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("xsm-replica-orchestrator".to_string())
            .spawn(move || inner.orchestrate(query))
            .map_err(|e| ServiceError::internal(format!("failed to spawn orchestrator: {e}")))?;
        Ok(PendingResponse::from_task(handle))
    }

    /// Set-level serving metrics: queries served through the set plus the
    /// robustness counters (`hedged_queries`, `hedge_wins`, `failovers`,
    /// `breaker_opens`, `probe_redials`). Per-backend engine metrics are
    /// available via [`ReplicaSet::backend_metrics`].
    fn metrics_snapshot(&self) -> ServiceResult<EngineMetrics> {
        Ok(self.inner.metrics.snapshot())
    }

    /// Planning statistics from the healthiest backend, failing over on
    /// error — every replica serves the same slice, so any answer is *the*
    /// answer.
    fn plan_stats(&self, personal: &SchemaTree, length_floor: f64) -> ServiceResult<PlanStats> {
        let n = self.inner.backends.len();
        let start = self.inner.rotation.fetch_add(1, Ordering::Relaxed) % n;
        let mut used = vec![false; n];
        let mut last_error: Option<ServiceError> = None;
        while let Some(index) = self.inner.pick_next(&mut used, start) {
            // A retry after a failed backend is a failover, same as at the
            // query stage — this is often where a dead replica is first seen.
            if last_error.is_some() {
                self.inner.metrics.record_failover();
            }
            let backend = &self.inner.backends[index];
            match backend.service.plan_stats(personal, length_floor) {
                Ok(stats) => {
                    backend.breaker.record_success();
                    return Ok(stats);
                }
                Err(error) => {
                    if backend.breaker.record_failure() == BreakerEvent::Opened {
                        self.inner.metrics.record_breaker_open();
                    }
                    last_error = Some(error);
                }
            }
        }
        Err(last_error.unwrap_or_else(|| ServiceError::internal("replica set has no backends")))
    }

    /// Alive iff at least one backend answers its ping.
    fn ping(&self) -> ServiceResult<()> {
        let mut last_error: Option<ServiceError> = None;
        for backend in &self.inner.backends {
            match backend.service.ping() {
                Ok(()) => return Ok(()),
                Err(error) => last_error = Some(error),
            }
        }
        Err(last_error.unwrap_or_else(|| ServiceError::internal("replica set has no backends")))
    }
}
