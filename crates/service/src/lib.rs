//! # xsm-service — the concurrent match-serving engine
//!
//! The paper's point is making schema matching cheap enough to answer *many* personal
//! -schema queries against one large repository. The other crates provide the
//! algorithms; this crate provides the long-lived component that amortises the
//! expensive artefacts — the q-gram [`xsm_repo::NameIndex`] with its name table
//! ([`xsm_repo::FeatureStore`]: features built once per distinct name) and the
//! clustering configuration — across every query, and serves them concurrently:
//!
//! * [`engine::MatchEngine`] — built once from a repository; a `std::thread` worker
//!   pool drains a bounded submission queue; [`service::MatchService::submit_batch`]
//!   shards a batch across the workers and returns responses in input order,
//! * [`query`] — [`query::MatchQuery`] (personal schema, `top_k`, strategy,
//!   threshold δ) and [`query::MatchResponse`] with a canonical fingerprint,
//! * [`planner`] — resolves [`query::QueryStrategy::Auto`] per query into
//!   index-pruned or exhaustive candidate generation from posting-list statistics,
//! * [`cache`] — a bounded LRU cache of whole responses keyed by fingerprint,
//! * [`shard`] — [`shard::ShardedEngine`]: the repository partitioned by tree
//!   across N independent engines, queries scattered to all shards and merged with
//!   a deterministic top-k merge — byte-identical to the single-engine answer,
//! * [`service`] — the [`service::MatchService`] trait every serving backend
//!   implements (`submit`, `submit_batch`, `metrics_snapshot`, `plan_stats`), so
//!   the router is transport-blind: a shard slot holds `Box<dyn MatchService>`,
//!   whether the shard is in-process or on another host,
//! * [`error`] — [`error::ServiceError`], the structured, wire-serializable error
//!   every fallible serving call returns, and [`error::ConfigError`] from the
//!   validating config builders,
//! * [`net`] — networked serving: a length-prefixed JSON frame protocol with a
//!   versioned handshake, the thread-per-connection [`net::ShardServer`], the
//!   [`net::RemoteEngine`] client (deadlines, bounded retry with backoff) and the
//!   [`net::FaultyTransport`] fault-injection wrapper,
//! * [`singleflight`] — in-flight deduplication: concurrent identical queries that
//!   miss the result cache coalesce onto one pipeline execution,
//! * [`metrics`] — queries served, cache hit rates, coalesced-query counts,
//!   per-strategy counts and p50/p99 serving latency from a fixed-bucket histogram.
//!
//! Scoring runs on the zero-allocation feature kernels of
//! [`xsm_similarity::features`]: the engine's [`xsm_repo::NameIndex`] carries a
//! [`xsm_repo::FeatureStore`] (per-name precomputed features, interned gram
//! signatures, each name's node list), each worker owns its
//! [`xsm_similarity::SimScratch`], and a personal node is scored against each
//! surviving *name* once — bit-parallel edit distance plus integer signature
//! merges — with the score fanned out to the nodes that carry the name.
//!
//! Determinism is a hard guarantee: the result content of a query is identical
//! whether the engine runs 1 worker or 8, and whether a cache served it — asserted by
//! `tests/determinism.rs`.
//!
//! ```
//! use xsm_repo::{GeneratorConfig, RepositoryGenerator};
//! use xsm_service::{MatchEngine, MatchQuery};
//! use xsm_schema::{SchemaNode, TreeBuilder};
//!
//! let repo = RepositoryGenerator::new(GeneratorConfig::small(7)).generate();
//! let engine = MatchEngine::with_defaults(repo);
//! let personal = TreeBuilder::new("personal")
//!     .root(SchemaNode::element("name"))
//!     .child(SchemaNode::element("email"))
//!     .build();
//! let response = engine.query(MatchQuery::new(personal).with_top_k(3));
//! assert!(response.mappings.len() <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod health;
pub mod metrics;
pub mod net;
pub mod planner;
mod pool;
pub mod query;
pub mod replica;
pub mod service;
pub mod shard;
pub mod singleflight;
pub mod snapshot;
pub mod swap;

pub use cache::ResultCache;
pub use engine::{EngineConfig, EngineConfigBuilder, MatchEngine, PendingResponse};
pub use error::{ConfigError, ServiceError, ServiceResult};
pub use health::{BreakerEvent, BreakerState, CircuitBreaker, HealthConfig};
pub use metrics::{EngineMetrics, LatencyHistogram, StartupSource};
pub use net::{FaultyTransport, RemoteEngine, RemoteEngineConfig, ShardServer, PROTOCOL_VERSION};
pub use planner::{PlanStats, PlannerConfig, QueryPlan, QueryPlanner};
pub use query::{MatchQuery, MatchResponse, PlannedStrategy, QueryStrategy};
pub use replica::{HedgeConfig, ReplicaSet, ReplicaSetConfig};
pub use service::MatchService;
pub use shard::{ShardedEngine, ShardedEngineConfig, ShardedEngineConfigBuilder, ShardedMetrics};
pub use singleflight::Singleflight;
pub use snapshot::{write_shard_snapshots, SnapshotServeError};
pub use swap::SwappableEngine;
