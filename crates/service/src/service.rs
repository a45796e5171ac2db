//! The transport-agnostic [`MatchService`] serving contract.
//!
//! Everything that can answer match queries — the in-process
//! [`crate::MatchEngine`], the scatter/gather [`crate::ShardedEngine`] router,
//! and the TCP [`crate::net::RemoteEngine`] client — implements this one trait,
//! so composition is transport-blind: a router scatters over
//! `Box<dyn MatchService>` slots without knowing whether a slot is a thread pool
//! two cache lines away or a server two networks away.
//!
//! The contract every implementation upholds:
//!
//! * **Determinism** — a query's result content depends only on the query and
//!   the repository/config behind the service, never on the transport. The
//!   equivalence suites (`tests/shard_equivalence.rs`,
//!   `tests/net_equivalence.rs`) assert byte-identical responses across
//!   in-process, sharded and loopback-TCP serving.
//! * **Explicit failure** — no panicking serving paths: every failure mode is a
//!   [`crate::ServiceError`] value ([`ServiceResult`]), wire-serializable so remote
//!   failures look exactly like local ones.
//! * **Additive planning statistics** — [`MatchService::plan_stats`] reports
//!   the posting-list statistics of the repository slice behind the service.
//!   Stats are additive over a disjoint partition, which is what lets a router
//!   resolve [`crate::QueryStrategy::Auto`] *once*, identically to an unsharded
//!   engine, and force the resolved strategy onto every shard.

use std::sync::Arc;

use xsm_schema::SchemaTree;

use crate::engine::PendingResponse;
use crate::error::ServiceResult;
use crate::metrics::EngineMetrics;
use crate::planner::PlanStats;
use crate::query::{MatchQuery, MatchResponse};

/// A match-serving endpoint: submit queries, snapshot metrics, expose planning
/// statistics. Object-safe; routers hold `Box<dyn MatchService>` shards.
pub trait MatchService: Send + Sync {
    /// Enqueue one query. The returned [`PendingResponse`] blocks on
    /// [`PendingResponse::wait`] until the answer (or a serving error) is
    /// available. Submission itself fails fast on queue pressure
    /// ([`crate::ServiceError::QueueFull`] from non-blocking implementations)
    /// or on a dead endpoint.
    fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse>;

    /// Serve a whole batch, responses in input order. The default
    /// implementation submits everything first (so the endpoint works the batch
    /// concurrently) and then waits in order. An implementation overrides it
    /// only when a batch means more than its queries:
    /// [`crate::SwappableEngine`] serves the whole batch on one generation,
    /// and [`crate::net::RemoteEngine`] sends it in one framed round trip.
    fn submit_batch(&self, queries: Vec<MatchQuery>) -> ServiceResult<Vec<MatchResponse>> {
        let pending: Vec<PendingResponse> = queries
            .into_iter()
            .map(|query| self.submit(query))
            .collect::<ServiceResult<_>>()?;
        pending.into_iter().map(PendingResponse::wait).collect()
    }

    /// A point-in-time snapshot of the endpoint's serving metrics.
    fn metrics_snapshot(&self) -> ServiceResult<EngineMetrics>;

    /// Additive posting-list statistics of the repository slice this service
    /// serves, measured for `personal` under the given similarity floor — the
    /// inputs a router needs to resolve [`crate::QueryStrategy::Auto`] globally
    /// (see [`crate::QueryPlanner::plan_from_stats`]).
    fn plan_stats(&self, personal: &SchemaTree, length_floor: f64) -> ServiceResult<PlanStats>;

    /// A cheap liveness probe: `Ok(())` iff the endpoint can currently serve.
    /// In-process services are alive by construction (the default); transports
    /// override it to actually touch the backend — [`crate::net::RemoteEngine`]
    /// dials and re-handshakes, which is exactly what a replica set's
    /// background prober needs to detect a healed shard server.
    fn ping(&self) -> ServiceResult<()> {
        Ok(())
    }
}

impl<T: MatchService + ?Sized> MatchService for Arc<T> {
    fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        (**self).submit(query)
    }

    fn submit_batch(&self, queries: Vec<MatchQuery>) -> ServiceResult<Vec<MatchResponse>> {
        (**self).submit_batch(queries)
    }

    fn metrics_snapshot(&self) -> ServiceResult<EngineMetrics> {
        (**self).metrics_snapshot()
    }

    fn plan_stats(&self, personal: &SchemaTree, length_floor: f64) -> ServiceResult<PlanStats> {
        (**self).plan_stats(personal, length_floor)
    }

    fn ping(&self) -> ServiceResult<()> {
        (**self).ping()
    }
}

impl<T: MatchService + ?Sized> MatchService for Box<T> {
    fn submit(&self, query: MatchQuery) -> ServiceResult<PendingResponse> {
        (**self).submit(query)
    }

    fn submit_batch(&self, queries: Vec<MatchQuery>) -> ServiceResult<Vec<MatchResponse>> {
        (**self).submit_batch(queries)
    }

    fn metrics_snapshot(&self) -> ServiceResult<EngineMetrics> {
        (**self).metrics_snapshot()
    }

    fn plan_stats(&self, personal: &SchemaTree, length_floor: f64) -> ServiceResult<PlanStats> {
        (**self).plan_stats(personal, length_floor)
    }

    fn ping(&self) -> ServiceResult<()> {
        (**self).ping()
    }
}
