//! Versioned snapshot persistence: build once, load in milliseconds.
//!
//! Everything the serving engine builds at startup — the name table (every
//! distinct spelling once, with its
//! [`xsm_similarity::features::NameFeatures`]: gram signatures, Myers match
//! vectors), the length-segmented posting arena of the
//! [`crate::NameIndex`] over name ids with its gram and length-segment
//! directories, the [`xsm_similarity::features::GramInterner`] table,
//! per-tree centroids and the repository's tree/node tables — is deterministic
//! given the repository. This module serializes all of it into **one
//! self-describing file** so a restart is a sequential read plus validation
//! instead of a rebuild.
//!
//! Since format v3 everything that is a function of a name is stored **per
//! name**: `names` (the spellings, in name-id order), `gram_sigs` /
//! `gram_counts` / `peq` (feature columns), `index_arena` / `index_pos`
//! (postings and positional intervals over name ids) and `index_lens`. A node
//! costs its fixed-width metadata (parent slot, kind, cardinality, datatype)
//! and one `u32` in `node_name_ids`. What follows from those columns — each
//! tree's [`xsm_schema::TreeLabeling`], each name's node list, the
//! case-insensitive exact-name groups, which postings the tombstones leave
//! dead and the node-weighted segment sizes the planner reads — is **derived
//! at load**, not stored, so no section can contradict another about it.
//!
//! ## File layout
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "XSMSNAP1" (8 bytes)                                   │
//! │ format version  (u32 LE)                                     │
//! │ header length   (u32 LE)                                     │
//! │ header (serde JSON): generation stamp, q, counts, tree map,  │
//! │   section directory — name + offset + length + checksum      │
//! │ sections: fixed-width little-endian payloads, back to back   │
//! │ footer checksum (u64 LE, over the header bytes — the header  │
//! │   carries every section checksum, so it covers the body too) │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Section offsets are relative to the first section byte, so the (variable
//! length) header never perturbs them and the writer can lay sections out
//! before it knows the header's exact size. Serde is used **only** for the
//! small header; every section is a flat array of little-endian integers or a
//! length-prefixed string table, decoded by slicing — there is no per-entry
//! deserialization loop.
//!
//! ## Failure policy
//!
//! Loading is fail-closed: corrupt, truncated, version-skewed or
//! wrong-generation files return a typed [`SnapshotError`] — never a panic,
//! never a silently wrong index. Validation order is deliberate: magic, then
//! version, then header bounds/parse, then per-section bounds and checksums,
//! then the footer checksum (so a flipped byte is attributed to its section,
//! and header corruption that survives the JSON parse is still caught).
//!
//! ## Compatibility policy
//!
//! The format version is bumped on **any** byte-layout change; there is no
//! cross-version migration — a reader only accepts its own version
//! ([`FORMAT_VERSION`]) and rejects everything else as
//! [`SnapshotError::UnsupportedVersion`]. Snapshots are cheap to regenerate
//! from the repository, so compatibility machinery would buy nothing. The
//! golden test in `tests/snapshot_golden.rs` pins the layout byte-for-byte and
//! fails loudly on accidental drift.

mod error;
mod format;
mod reader;
mod writer;

pub use error::SnapshotError;
pub use format::{SectionEntry, SnapshotHeader, FORMAT_VERSION, SNAPSHOT_MAGIC};
pub use reader::{Snapshot, SnapshotReader};
pub use writer::SnapshotWriter;
