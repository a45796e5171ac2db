//! # xsm-repo — schema repository, indexes and the synthetic corpus generator
//!
//! The paper's Bellflower system matches a small *personal schema* against a large
//! *schema repository*: "GoogleTM search engine was used to discover 1700 non-recursive
//! DTDs and XML schemas with a total number of 178252 element (attribute) nodes
//! distributed over 3889 trees", from which sub-repositories of 2 500 – 10 200 elements
//! were sampled for the experiments.
//!
//! This crate provides:
//!
//! * [`SchemaRepository`] — the forest store with per-tree node labellings,
//! * [`index::NameIndex`] — exact and q-gram approximate name lookup across the forest,
//! * [`features::FeatureStore`] — the name table: per distinct spelling one
//!   precomputed `NameFeatures` and the live nodes that carry it, per node a
//!   name id, plus the shared gram interner — built together with the index so
//!   the similarity kernels never re-derive per-name data at query time,
//! * [`generator`] — a seeded synthetic corpus generator that substitutes for the
//!   crawled corpus (see DESIGN.md, substitution 1): domain vocabularies, realistic
//!   tree shapes and name mutations give the same *statistical* behaviour that the
//!   matching and clustering algorithms depend on,
//! * [`corpus`] — loading real DTD/XSD files from disk through the `xsm-schema` parsers,
//! * [`sampling`] — drawing sub-repositories of a target element count, as the paper
//!   does for its experiments,
//! * [`partition`] — deterministic tree-to-shard placement
//!   ([`RepositoryPartition`]) for serving one repository from several engines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod features;
pub mod generator;
pub mod index;
pub mod live;
pub mod partition;
pub mod repository;
pub mod sampling;
pub mod simd;
pub mod snapshot;

pub use features::{FeatureStore, NameId};
pub use generator::{GeneratorConfig, RepositoryGenerator};
pub use index::{
    CandidateScratch, CandidateStats, LengthWindow, MergeAlgorithm, MergePolicy, NameIndex,
    ResolvedQuery,
};
pub use live::{IngestLog, IngestOp, IngestRecord, LiveError, LiveRepository};
pub use partition::{tree_hash_shard, RepositoryPartition, ShardPlacement};
pub use repository::SchemaRepository;
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
