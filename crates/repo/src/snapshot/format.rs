//! On-disk format primitives: magic, header types, checksums, and the
//! little-endian encode/decode helpers shared by writer and reader.

use serde::{Deserialize, Serialize};

use super::SnapshotError;

/// First eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"XSMSNAP1";

/// The format revision this build writes and the only one it reads. Bumped on
/// any byte-layout change; there is no cross-version migration.
///
/// v2 added the `index_pos` section (packed gram-position intervals parallel
/// to the posting arena, feeding the positional q-gram filter). v3 is the
/// name-table layout: spellings, features, postings, positions and lengths
/// are stored once per distinct name (`names` replaces `node_names`), every
/// node carries a `u32` name id (`node_name_ids`), and the exact-name
/// sections are gone — the reader derives them. v4 drops the `labelings`
/// section: the reader labels each tree from its parent table.
pub const FORMAT_VERSION: u32 = 4;

/// Bytes before the header payload: magic + version (u32) + header length (u32).
pub(crate) const PREAMBLE_LEN: usize = 8 + 4 + 4;

/// Trailing whole-file checksum length.
pub(crate) const FOOTER_LEN: usize = 8;

/// Root sentinel in the `node_meta` parent column, and the "no centroid"
/// sentinel in the `centroids` section.
pub(crate) const NONE_SENTINEL: u32 = u32::MAX;

/// Required section names, in the order the writer lays them out.
pub(crate) mod section {
    pub const TREES: &str = "trees";
    /// Every distinct name spelling, in name-id order (new in format v3,
    /// replacing the per-node `node_names`).
    pub const NAMES: &str = "names";
    /// One `u32` name id per node, canonical (tree, slot) order — an index
    /// into [`NAMES`]. New in format v3.
    pub const NODE_NAME_IDS: &str = "node_name_ids";
    pub const NODE_META: &str = "node_meta";
    pub const NODE_PROPS: &str = "node_props";
    pub const GRAM_TABLE: &str = "gram_table";
    pub const GRAM_SIGS: &str = "gram_sigs";
    /// One byte per signature entry — multiplicities above 255 cannot occur
    /// unless a single name repeats one gram 256+ times, so the writer emits
    /// [`GRAM_COUNTS_WIDE`] instead (and this section not at all) in that case.
    pub const GRAM_COUNTS: &str = "gram_counts";
    /// Four bytes per signature entry; present only when some multiplicity
    /// exceeds `u8::MAX`. Exactly one of the two count sections exists.
    pub const GRAM_COUNTS_WIDE: &str = "gram_counts_wide";
    pub const PEQ: &str = "peq";
    pub const INDEX_ARENA: &str = "index_arena";
    /// Packed `first << 16 | last` gram-position intervals, one `u32` per
    /// posting-arena entry (the positional-filter sidecar). New in format v2.
    pub const INDEX_POS: &str = "index_pos";
    pub const INDEX_SEGMENTS: &str = "index_segments";
    pub const INDEX_GRAM_SEGMENTS: &str = "index_gram_segments";
    pub const INDEX_LENS: &str = "index_lens";
    pub const CENTROIDS: &str = "centroids";
    /// Tombstoned tree ids (u32, ascending). **Optional**: written only when a
    /// live repository has tombstones, so snapshots of never-mutated
    /// repositories keep their byte layout (the golden-file suite pins it).
    pub const TOMBSTONES: &str = "tombstones";
}

/// One entry of the section directory carried in the header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionEntry {
    /// Section name (see the format documentation in [`crate::snapshot`]).
    pub name: String,
    /// Byte offset of the payload, relative to the first section byte (i.e.
    /// to the end of the header, not to the start of the file).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// `checksum64` of the payload bytes (see the module's checksum docs).
    pub checksum: u64,
}

/// The snapshot header: the only serde-encoded part of the file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Repository generation stamp — lets caches and shard routers reject a
    /// snapshot of the wrong repository revision precisely.
    pub generation: u64,
    /// Gram length of the interner and index.
    pub q: u32,
    /// Number of trees in the snapshotted repository.
    pub tree_count: u32,
    /// Total node count across all trees.
    pub node_count: u32,
    /// Local tree index → global [`xsm_schema::TreeId`] value. Identity for a
    /// whole-repository snapshot; the shard's slice of the router's tree map
    /// for a per-shard snapshot.
    pub tree_map: Vec<u32>,
    /// The section directory.
    pub sections: Vec<SectionEntry>,
}

/// The 64-bit checksum used for sections and the footer: an FNV-style
/// xor-multiply fold over little-endian `u64` words, run in four independent
/// lanes so the multiply latency chains overlap (≈8× the throughput of
/// byte-at-a-time FNV-1a — validation is on the startup path, so checksum
/// speed is load speed). Tail bytes and the total length fold into the final
/// combine, so prefixes and zero-padded tails cannot collide trivially.
/// Not cryptographic; it detects bit rot and torn writes, not adversaries.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const SEEDS: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9e37_79b9_7f4a_7c15,
        0x8422_2325_cbf2_9ce4,
        0x7f4a_7c15_9e37_79b9,
    ];
    let mut lanes = SEEDS;
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut hash = lanes[0];
    for lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        hash = (hash ^ b as u64).wrapping_mul(PRIME);
    }
    (hash ^ bytes.len() as u64).wrapping_mul(PRIME)
}

// ---------------------------------------------------------------------------
// Writing helpers
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a string table: `u32` entry count, `count + 1` cumulative `u32`
/// byte offsets into the blob, then the concatenated UTF-8 blob.
pub(crate) fn put_str_table<'a>(out: &mut Vec<u8>, entries: impl Iterator<Item = &'a str>) {
    let entries: Vec<&str> = entries.collect();
    put_u32(out, entries.len() as u32);
    let mut offset = 0u32;
    put_u32(out, 0);
    for s in &entries {
        offset += s.len() as u32;
        put_u32(out, offset);
    }
    for s in &entries {
        out.extend_from_slice(s.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Reading helpers
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over one section's payload. Every
/// overrun or decode failure becomes a [`SnapshotError::Malformed`] naming the
/// section — by the time a cursor runs, the section's checksum has already
/// validated, so a decode failure means the writer (not the disk) was wrong.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Cursor {
            bytes,
            pos: 0,
            section,
        }
    }

    fn overrun(&self, what: &str) -> SnapshotError {
        SnapshotError::malformed(format!(
            "section `{}` ends before {what} (offset {})",
            self.section, self.pos
        ))
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.overrun(what))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn read_u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a run of `n` `u32`s into an owned vector (one `memcpy`-ish pass).
    pub(crate) fn read_u32s(&mut self, n: usize, what: &str) -> Result<Vec<u32>, SnapshotError> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| self.overrun(what))?, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Decode a string table written by [`put_str_table`], expecting exactly
    /// `expected` entries when `Some`.
    pub(crate) fn read_str_table(
        &mut self,
        expected: Option<usize>,
        what: &str,
    ) -> Result<Vec<String>, SnapshotError> {
        let count = self.read_u32(what)? as usize;
        if let Some(expected) = expected {
            if count != expected {
                return Err(SnapshotError::malformed(format!(
                    "section `{}`: {what} has {count} entries, expected {expected}",
                    self.section
                )));
            }
        }
        let offsets = self.read_u32s(count + 1, what)?;
        let blob_len = *offsets.last().unwrap_or(&0) as usize;
        let blob = self.take(blob_len, what)?;
        let mut entries = Vec::with_capacity(count);
        for w in offsets.windows(2) {
            let (start, end) = (w[0] as usize, w[1] as usize);
            if start > end || end > blob.len() {
                return Err(SnapshotError::malformed(format!(
                    "section `{}`: {what} has a non-monotonic offset table",
                    self.section
                )));
            }
            let s = std::str::from_utf8(&blob[start..end]).map_err(|_| {
                SnapshotError::malformed(format!(
                    "section `{}`: {what} contains invalid UTF-8",
                    self.section
                ))
            })?;
            entries.push(s.to_string());
        }
        Ok(entries)
    }

    /// Error unless the cursor consumed the whole payload — trailing garbage
    /// inside a checksummed section still means a malformed writer.
    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::malformed(format!(
                "section `{}` has {} trailing bytes",
                self.section,
                self.bytes.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pinned_and_length_sensitive() {
        // Self-consistency vectors: the checksum is part of the on-disk format,
        // so any change to the algorithm must show up here (and bump
        // FORMAT_VERSION).
        assert_eq!(checksum64(b""), 0x86d9_6ee5_73f5_2b6d);
        assert_eq!(checksum64(b"a"), 0x1832_b7e4_0939_83a1);
        assert_eq!(checksum64(b"foobar"), 0x9768_c313_5c3a_eb60);
        // Zero-padded tails must not collide with shorter inputs: the total
        // length folds into the final combine.
        let zeros = [0u8; 64];
        let sums: Vec<u64> = (0..=64).map(|n| checksum64(&zeros[..n])).collect();
        for (i, a) in sums.iter().enumerate() {
            for b in &sums[i + 1..] {
                assert_ne!(a, b, "zero runs of different lengths collided");
            }
        }
        // Word order matters within a 32-byte block (lanes are combined in a
        // fixed order, not xor-summed symmetrically).
        let mut block = [0u8; 32];
        block[0] = 1;
        let a = checksum64(&block);
        block[0] = 0;
        block[8] = 1;
        assert_ne!(a, checksum64(&block));
    }

    #[test]
    fn str_table_round_trips() {
        let mut buf = Vec::new();
        put_str_table(&mut buf, ["alpha", "", "βγ"].into_iter());
        let mut cur = Cursor::new(&buf, "test");
        let back = cur.read_str_table(Some(3), "names").unwrap();
        assert_eq!(back, vec!["alpha".to_string(), String::new(), "βγ".into()]);
        cur.finish().unwrap();
    }

    #[test]
    fn cursor_overrun_is_malformed_not_panic() {
        let mut cur = Cursor::new(&[1, 2], "tiny");
        assert!(matches!(
            cur.read_u32("value"),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}
