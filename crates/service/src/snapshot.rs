//! Snapshot-backed serving: write per-shard snapshot files and the error type
//! of every snapshot-bootstrap entry point.
//!
//! The repo-layer [`xsm_repo::snapshot`] module owns the file format; this
//! module owns the serving-side workflow around it. [`write_shard_snapshots`]
//! partitions a repository exactly as [`crate::ShardedEngine::new`] would,
//! builds each shard's index once, and writes one snapshot file per shard —
//! each carrying its slice of the router's tree map and the shared generation
//! stamp. Those files are what a fleet restarts from
//! ([`crate::ShardedEngine::from_snapshot_paths`],
//! [`crate::net::ShardServer::bind_snapshot`]) and what shard rebalancing
//! would ship to another host.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use xsm_core::centroid::tree_centroids;
use xsm_repo::snapshot::{SnapshotError, SnapshotWriter};
use xsm_repo::{NameIndex, RepositoryPartition, SchemaRepository, ShardPlacement};

use crate::error::ConfigError;

/// Why a snapshot-backed serving bootstrap failed: the snapshot itself was
/// bad, the serving configuration was invalid, or (for the TCP server) the
/// listener could not bind. Keeping this separate from
/// [`crate::ServiceError`] keeps the wire protocol's error enum untouched —
/// bootstrap failures never cross the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotServeError {
    /// Reading or validating a snapshot file failed.
    Snapshot(SnapshotError),
    /// The serving configuration was rejected (same rules as
    /// [`crate::ShardedEngine::from_services`]).
    Config(ConfigError),
    /// The TCP listener could not bind its address.
    Bind(io::Error),
}

impl fmt::Display for SnapshotServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotServeError::Snapshot(e) => write!(f, "snapshot bootstrap failed: {e}"),
            SnapshotServeError::Config(e) => write!(f, "snapshot bootstrap rejected: {e}"),
            SnapshotServeError::Bind(e) => write!(f, "snapshot-backed server failed to bind: {e}"),
        }
    }
}

impl std::error::Error for SnapshotServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotServeError::Snapshot(e) => Some(e),
            SnapshotServeError::Config(e) => Some(e),
            SnapshotServeError::Bind(e) => Some(e),
        }
    }
}

impl From<SnapshotError> for SnapshotServeError {
    fn from(e: SnapshotError) -> Self {
        SnapshotServeError::Snapshot(e)
    }
}

impl From<ConfigError> for SnapshotServeError {
    fn from(e: ConfigError) -> Self {
        SnapshotServeError::Config(e)
    }
}

/// Partition `repo` into `shard_count` shards with `placement` — exactly the
/// partition [`crate::ShardedEngine::new`] would serve — and write one
/// snapshot file per shard into `dir` (`shard-<i>.xsmsnap`), every file
/// stamped with the same `generation` and carrying its shard's slice of the
/// router tree map. Returns the file paths in shard order.
pub fn write_shard_snapshots(
    repo: &SchemaRepository,
    shard_count: usize,
    placement: ShardPlacement,
    dir: impl AsRef<Path>,
    generation: u64,
) -> Result<Vec<PathBuf>, SnapshotError> {
    let partition = RepositoryPartition::build(repo, shard_count.max(1), placement);
    let (shards, tree_maps) = partition.into_parts();
    let mut paths = Vec::with_capacity(shards.len());
    for (i, (shard, tree_map)) in shards.into_iter().zip(tree_maps).enumerate() {
        let index = NameIndex::build(&shard);
        let centroids = tree_centroids(&shard);
        let path = dir.as_ref().join(format!("shard-{i}.xsmsnap"));
        SnapshotWriter::new(generation)
            .with_tree_map(tree_map)
            .write(&shard, &index, &centroids, &path)?;
        paths.push(path);
    }
    Ok(paths)
}
