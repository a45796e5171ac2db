//! The snapshot reader: validate, then reconstruct in place.
//!
//! Validation happens in a fixed order so every failure is attributed
//! precisely: magic → version → header bounds → header parse → per-section
//! bounds → per-section checksums → footer checksum. Only after all of that
//! passes does reconstruction begin, and reconstruction failures (which imply
//! a buggy writer, since the checksums already validated) are
//! [`SnapshotError::Malformed`].
//!
//! Reconstruction is slicing, not parsing: every section is a flat
//! little-endian array decoded with bulk `u32` passes; the only per-entry work
//! is replaying tree edges and, per distinct name, one hash insert into the
//! spelling map and the exact-name groups. What follows from the serialized
//! columns — each tree's labelling, each name's node list, the exact-name
//! groups, the dead and node-weighted segment sizes — is rederived, never
//! read, so it cannot disagree with them.

use std::path::Path;

use xsm_schema::{Cardinality, GlobalNodeId, NodeId, SchemaNode, SchemaTree, TreeId};
use xsm_similarity::features::GramInterner;

use crate::features::{FeatureColumns, FeatureStore};
use crate::index::{LenSegment, NameIndex};
use crate::repository::SchemaRepository;

use super::format::{
    checksum64, section, Cursor, SnapshotHeader, FOOTER_LEN, FORMAT_VERSION, NONE_SENTINEL,
    PREAMBLE_LEN, SNAPSHOT_MAGIC,
};
use super::SnapshotError;

/// A fully validated, fully reconstructed snapshot — everything
/// `MatchEngine` needs to start serving without a rebuild.
#[derive(Debug)]
pub struct Snapshot {
    /// The generation stamp recorded at write time.
    pub generation: u64,
    /// Local tree index → global tree id (identity for whole-repo snapshots).
    pub tree_map: Vec<TreeId>,
    /// The reconstructed repository, each tree labelled from its parent table.
    pub repository: SchemaRepository,
    /// The reconstructed name index (posting arena, feature store, interner).
    pub index: NameIndex,
    /// Per-tree centroid nodes (`None` for empty trees), in local tree order.
    pub centroids: Vec<Option<GlobalNodeId>>,
}

impl Snapshot {
    /// Fail with [`SnapshotError::GenerationMismatch`] unless the snapshot
    /// carries exactly `expected` — the guard callers use to refuse serving a
    /// stale index for a repository that has moved on.
    pub fn expect_generation(self, expected: u64) -> Result<Self, SnapshotError> {
        if self.generation == expected {
            Ok(self)
        } else {
            Err(SnapshotError::GenerationMismatch {
                expected,
                found: self.generation,
            })
        }
    }
}

/// Loads snapshot files written by [`super::SnapshotWriter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotReader;

impl SnapshotReader {
    /// Read and reconstruct the snapshot at `path`: one sequential read, full
    /// validation, in-place reconstruction.
    pub fn read(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::read_bytes(&bytes)
    }

    /// [`SnapshotReader::read`] over an in-memory byte slice.
    pub fn read_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let (header, body) = validate(bytes)?;
        reconstruct(&header, body)
    }

    /// Validate `path` and return only its header — generation stamp, tree
    /// map, counts and section directory — without reconstructing anything.
    /// The full checksums still run: a peeked header is a trustworthy header.
    pub fn peek(path: impl AsRef<Path>) -> Result<SnapshotHeader, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::peek_bytes(&bytes)
    }

    /// [`SnapshotReader::peek`] over an in-memory byte slice.
    pub fn peek_bytes(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
        let (header, _) = validate(bytes)?;
        Ok(header)
    }
}

/// The shared validation pipeline: returns the parsed header and the section
/// region, or the precise error for what is wrong with the file.
fn validate(bytes: &[u8]) -> Result<(SnapshotHeader, &[u8]), SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() {
        return Err(SnapshotError::truncated(
            "file shorter than the magic number",
        ));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < PREAMBLE_LEN {
        return Err(SnapshotError::truncated("file ends inside the preamble"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let header_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let body_start = PREAMBLE_LEN
        .checked_add(header_len)
        .ok_or_else(|| SnapshotError::truncated("header length overflows"))?;
    if body_start + FOOTER_LEN > bytes.len() {
        return Err(SnapshotError::truncated(
            "file ends inside the header or footer",
        ));
    }
    let header_bytes = &bytes[PREAMBLE_LEN..body_start];
    let header_str = std::str::from_utf8(header_bytes)
        .map_err(|_| SnapshotError::malformed("header is not UTF-8"))?;
    let header: SnapshotHeader = serde_json::from_str(header_str)
        .map_err(|e| SnapshotError::malformed(format!("header does not parse: {e}")))?;

    // Section bounds first (truncation beats checksums in the report), then
    // per-section checksums (a flipped payload byte is attributed to its
    // section), then the footer, which covers the header bytes: the header
    // carries every section checksum, so a clean footer transitively vouches
    // for the whole file without a second pass over the body.
    let body = &bytes[body_start..bytes.len() - FOOTER_LEN];
    for entry in &header.sections {
        let end = entry.offset.checked_add(entry.len);
        if end.is_none() || end.unwrap() > body.len() as u64 {
            return Err(SnapshotError::truncated(format!(
                "section `{}` extends past the end of the file",
                entry.name
            )));
        }
    }
    for entry in &header.sections {
        let payload = &body[entry.offset as usize..(entry.offset + entry.len) as usize];
        if checksum64(payload) != entry.checksum {
            return Err(SnapshotError::SectionChecksum {
                section: entry.name.clone(),
            });
        }
    }
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    let recorded = u64::from_le_bytes([
        footer[0], footer[1], footer[2], footer[3], footer[4], footer[5], footer[6], footer[7],
    ]);
    if checksum64(header_bytes) != recorded {
        return Err(SnapshotError::FooterChecksum);
    }
    Ok((header, body))
}

/// Find an optional section's payload in the validated body.
fn maybe_section_payload<'a>(
    header: &SnapshotHeader,
    body: &'a [u8],
    name: &'static str,
) -> Option<&'a [u8]> {
    let entry = header.sections.iter().find(|e| e.name == name)?;
    Some(&body[entry.offset as usize..(entry.offset + entry.len) as usize])
}

/// Find a required section's payload in the validated body.
fn section_payload<'a>(
    header: &SnapshotHeader,
    body: &'a [u8],
    name: &'static str,
) -> Result<&'a [u8], SnapshotError> {
    let entry = header
        .sections
        .iter()
        .find(|e| e.name == name)
        .ok_or(SnapshotError::MissingSection { section: name })?;
    Ok(&body[entry.offset as usize..(entry.offset + entry.len) as usize])
}

/// A fixed-width section: interpret the whole payload as little-endian `u32`s.
fn flat_u32s(
    header: &SnapshotHeader,
    body: &[u8],
    name: &'static str,
) -> Result<Vec<u32>, SnapshotError> {
    let payload = section_payload(header, body, name)?;
    if payload.len() % 4 != 0 {
        return Err(SnapshotError::malformed(format!(
            "section `{name}` length {} is not a multiple of 4",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn reconstruct(header: &SnapshotHeader, body: &[u8]) -> Result<Snapshot, SnapshotError> {
    let tree_count = header.tree_count as usize;
    let node_count = header.node_count as usize;
    if header.tree_map.len() != tree_count {
        return Err(SnapshotError::malformed(format!(
            "tree map has {} entries for {tree_count} trees",
            header.tree_map.len()
        )));
    }

    // --- trees: names + per-tree node counts -------------------------------
    let mut cur = Cursor::new(
        section_payload(header, body, section::TREES)?,
        section::TREES,
    );
    let tree_names = cur.read_str_table(Some(tree_count), "tree names")?;
    let tree_sizes = cur.read_u32s(tree_count, "tree node counts")?;
    cur.finish()?;
    let total: u64 = tree_sizes.iter().map(|&n| n as u64).sum();
    if total != node_count as u64 {
        return Err(SnapshotError::malformed(format!(
            "tree node counts sum to {total}, header says {node_count}"
        )));
    }

    // --- tombstones (optional; absent from never-mutated snapshots) --------
    let tombstoned: Vec<TreeId> = match maybe_section_payload(header, body, section::TOMBSTONES) {
        None => Vec::new(),
        Some(payload) => {
            let raw = flat_u32s(header, body, section::TOMBSTONES)?;
            debug_assert_eq!(payload.len(), raw.len() * 4);
            let mut trees = Vec::with_capacity(raw.len());
            for &t in &raw {
                if t as usize >= tree_count {
                    return Err(SnapshotError::malformed(format!(
                        "tombstones name unknown tree {t} ({tree_count} trees)"
                    )));
                }
                trees.push(TreeId(t));
            }
            if !trees.windows(2).all(|w| w[0] < w[1]) {
                return Err(SnapshotError::malformed(
                    "tombstoned trees must be strictly ascending".to_string(),
                ));
            }
            trees
        }
    };

    // --- the name table, per-node name ids + fixed-width metadata ----------
    let mut cur = Cursor::new(
        section_payload(header, body, section::NAMES)?,
        section::NAMES,
    );
    let spellings = cur.read_str_table(None, "name spellings")?;
    cur.finish()?;
    let name_count = spellings.len();
    let node_name_ids = flat_u32s(header, body, section::NODE_NAME_IDS)?;
    if node_name_ids.len() != node_count {
        return Err(SnapshotError::malformed(format!(
            "node_name_ids has {} entries for {node_count} nodes",
            node_name_ids.len()
        )));
    }
    if let Some(&bad) = node_name_ids.iter().find(|&&n| n as usize >= name_count) {
        return Err(SnapshotError::malformed(format!(
            "a node refers to unknown name {bad} ({name_count} names)"
        )));
    }

    let meta = section_payload(header, body, section::NODE_META)?;
    if meta.len() != node_count * 8 {
        return Err(SnapshotError::malformed(format!(
            "node_meta is {} bytes for {node_count} nodes (want {})",
            meta.len(),
            node_count * 8
        )));
    }

    // --- rebuild the forest from each tree's parent table ------------------
    // Slot order *is* insertion order in `SchemaTree`, and a parent always
    // precedes its children, so `from_parent_table` reproduces the tree
    // exactly — child order, depths, the lot — with the same validation a
    // replayed `add_root`/`add_child` sequence would apply.
    let mut trees = Vec::with_capacity(tree_count);
    let mut dense = 0usize;
    for (t, name) in tree_names.iter().enumerate() {
        let n = tree_sizes[t] as usize;
        let mut nodes = Vec::with_capacity(n);
        let mut parents = Vec::with_capacity(n);
        for _ in 0..n {
            let m = &meta[dense * 8..dense * 8 + 8];
            let parent = u32::from_le_bytes([m[0], m[1], m[2], m[3]]);
            let node_name = spellings[node_name_ids[dense] as usize].clone();
            nodes.push(decode_node(node_name, m[4], m[5], m[6])?);
            parents.push((parent != NONE_SENTINEL).then_some(NodeId(parent)));
            dense += 1;
        }
        let tree = SchemaTree::from_parent_table(name.clone(), nodes, &parents).map_err(|e| {
            SnapshotError::malformed(format!("tree `{name}`: parent table rejected: {e}"))
        })?;
        trees.push(tree);
    }

    // --- sparse node properties --------------------------------------------
    let mut cur = Cursor::new(
        section_payload(header, body, section::NODE_PROPS)?,
        section::NODE_PROPS,
    );
    let prop_count = cur.read_u32("property count")?;
    let tree_starts: Vec<u32> = {
        let mut starts = Vec::with_capacity(tree_count + 1);
        starts.push(0u32);
        for &n in &tree_sizes {
            starts.push(starts.last().unwrap() + n);
        }
        starts
    };
    for _ in 0..prop_count {
        let dense = cur.read_u32("property node")? as usize;
        let key_len = cur.read_u32("property key length")? as usize;
        let key = std::str::from_utf8(cur.take(key_len, "property key")?)
            .map_err(|_| SnapshotError::malformed("property key is not UTF-8"))?
            .to_string();
        let val_len = cur.read_u32("property value length")? as usize;
        let value = std::str::from_utf8(cur.take(val_len, "property value")?)
            .map_err(|_| SnapshotError::malformed("property value is not UTF-8"))?
            .to_string();
        let tree = tree_starts
            .partition_point(|&s| s as usize <= dense)
            .checked_sub(1)
            .filter(|&t| t < tree_count && dense < tree_starts[t + 1] as usize)
            .ok_or_else(|| {
                SnapshotError::malformed(format!("property refers to unknown node {dense}"))
            })?;
        let slot = dense as u32 - tree_starts[tree];
        trees[tree]
            .node_mut(NodeId(slot))
            .expect("slot bounds checked above")
            .set_property(key, value);
    }
    cur.finish()?;

    let repository = SchemaRepository::from_trees(trees);

    // --- the gram interner and per-name features ---------------------------
    if header.q == 0 {
        return Err(SnapshotError::malformed("header q must be >= 1"));
    }
    let mut cur = Cursor::new(
        section_payload(header, body, section::GRAM_TABLE)?,
        section::GRAM_TABLE,
    );
    let gram_table = cur.read_str_table(None, "gram table")?;
    cur.finish()?;
    let gram_count = gram_table.len();
    let interner = GramInterner::from_table(header.q as usize, gram_table);

    let mut cur = Cursor::new(
        section_payload(header, body, section::GRAM_SIGS)?,
        section::GRAM_SIGS,
    );
    let sig_offsets = cur.read_u32s(name_count + 1, "gram signature offsets")?;
    let sig_total = *sig_offsets.last().unwrap() as usize;
    // The flat signature/count/match-vector payloads stay as raw bytes here
    // and are decoded once into the feature columns below.
    let sig_bytes = cur.take(
        sig_total
            .checked_mul(4)
            .ok_or_else(|| SnapshotError::malformed("gram signature count overflows"))?,
        "gram signatures",
    )?;
    cur.finish()?;
    check_offsets(&sig_offsets, sig_total, "gram signature offsets")?;

    // Counts come as one byte per entry, or as the wide u32 section when some
    // multiplicity overflowed a byte at write time; exactly one is present.
    let count_flat: Vec<u32> = match maybe_section_payload(header, body, section::GRAM_COUNTS) {
        Some(counts) => {
            if counts.len() != sig_total {
                return Err(SnapshotError::malformed(format!(
                    "gram_counts has {} bytes, gram_sigs has {sig_total} entries",
                    counts.len()
                )));
            }
            counts.iter().map(|&b| b as u32).collect()
        }
        None => {
            let wide = maybe_section_payload(header, body, section::GRAM_COUNTS_WIDE).ok_or(
                SnapshotError::MissingSection {
                    section: section::GRAM_COUNTS,
                },
            )?;
            if wide.len() != sig_total * 4 {
                return Err(SnapshotError::malformed(format!(
                    "gram_counts_wide has {} bytes, gram_sigs has {sig_total} entries",
                    wide.len()
                )));
            }
            wide.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        }
    };

    let mut cur = Cursor::new(section_payload(header, body, section::PEQ)?, section::PEQ);
    let peq_offsets = cur.read_u32s(name_count + 1, "match-vector offsets")?;
    let peq_total = *peq_offsets.last().unwrap() as usize;
    let peq_bytes = cur.take(
        peq_total
            .checked_mul(12)
            .ok_or_else(|| SnapshotError::malformed("match-vector count overflows"))?,
        "match vectors",
    )?;
    cur.finish()?;
    check_offsets(&peq_offsets, peq_total, "match-vector offsets")?;

    // Per-name features stay *columnar*: a handful of bulk decodes here, and
    // the store materialises a name's `NameFeatures` on its first use. This is
    // what keeps reconstruction time proportional to bytes rather than to the
    // several boxed slices per name an eager build would allocate.
    let decode_u32 = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let mut columns = FeatureColumns {
        sig_flat: sig_bytes.chunks_exact(4).map(decode_u32).collect(),
        count_flat,
        sig_offsets,
        peq_flat: Vec::with_capacity(peq_total),
        peq_offsets,
        ..FeatureColumns::default()
    };
    for e in peq_bytes.chunks_exact(12) {
        let c = decode_u32(e);
        let mask = u64::from_le_bytes([e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11]]);
        let c = char::from_u32(c).ok_or_else(|| {
            SnapshotError::malformed(format!("invalid character scalar {c:#x} in match vectors"))
        })?;
        columns.peq_flat.push((c, mask));
    }
    columns.lower_offsets.reserve_exact(name_count + 1);
    columns.lower_offsets.push(0);
    columns.orig_offsets.reserve_exact(name_count + 1);
    columns.orig_offsets.push(0);
    for name in &spellings {
        let name = name.as_str();
        // One scan decides both the lowercase form and whether the original
        // spelling needs keeping; ASCII (the overwhelming case) skips the
        // Unicode lowercasing machinery entirely.
        if name.is_ascii() {
            if name.bytes().any(|b| b.is_ascii_uppercase()) {
                columns
                    .lower_blob
                    .extend(name.bytes().map(|b| b.to_ascii_lowercase() as char));
                columns.orig_blob.push_str(name);
            } else {
                columns.lower_blob.push_str(name);
            }
        } else {
            let lower = name.to_lowercase();
            if name != lower {
                columns.orig_blob.push_str(name);
            }
            columns.lower_blob.push_str(&lower);
        }
        columns.lower_offsets.push(columns.lower_blob.len() as u32);
        columns.orig_offsets.push(columns.orig_blob.len() as u32);
    }
    let store = FeatureStore::from_columns(
        interner,
        columns,
        spellings,
        node_name_ids,
        tree_starts,
        tombstoned,
    )
    .map_err(|e| SnapshotError::malformed(format!("name table: {e}")))?;

    // --- the index ---------------------------------------------------------
    // Decode and bounds-check the posting arena in one pass — it is the
    // largest index section, and a second sweep over it is pure cache misses.
    let arena_payload = section_payload(header, body, section::INDEX_ARENA)?;
    if arena_payload.len() % 4 != 0 {
        return Err(SnapshotError::malformed(format!(
            "section `{}` length {} is not a multiple of 4",
            section::INDEX_ARENA,
            arena_payload.len()
        )));
    }
    let mut arena = Vec::with_capacity(arena_payload.len() / 4);
    for c in arena_payload.chunks_exact(4) {
        let d = decode_u32(c);
        if d as usize >= name_count {
            return Err(SnapshotError::malformed(format!(
                "posting arena refers to unknown name {d} ({name_count} names)"
            )));
        }
        arena.push(d);
    }
    // The positional sidecar is entry-for-entry parallel to the arena; no
    // value validation is needed (any packed interval is a legal interval —
    // the filter treats clamped halves as "inexact, keep").
    let arena_pos = flat_u32s(header, body, section::INDEX_POS)?;
    if arena_pos.len() != arena.len() {
        return Err(SnapshotError::malformed(format!(
            "index_pos has {} entries for a {}-posting arena",
            arena_pos.len(),
            arena.len()
        )));
    }
    let seg_raw = flat_u32s(header, body, section::INDEX_SEGMENTS)?;
    if seg_raw.len() % 3 != 0 {
        return Err(SnapshotError::malformed(format!(
            "index_segments has {} words, not a multiple of 3",
            seg_raw.len()
        )));
    }
    let segments: Vec<LenSegment> = seg_raw
        .chunks_exact(3)
        .map(|c| LenSegment {
            len: c[0],
            start: c[1],
            end: c[2],
        })
        .collect();
    if let Some(bad) = segments
        .iter()
        .find(|s| s.start > s.end || s.end as usize > arena.len())
    {
        return Err(SnapshotError::malformed(format!(
            "length segment [{}, {}) exceeds the arena ({} postings)",
            bad.start,
            bad.end,
            arena.len()
        )));
    }
    let gram_segments = flat_u32s(header, body, section::INDEX_GRAM_SEGMENTS)?;
    if gram_segments.len() != gram_count + 1
        || gram_segments.last().copied().unwrap_or(0) as usize != segments.len()
    {
        return Err(SnapshotError::malformed(format!(
            "gram segment directory has {} entries for {gram_count} grams / {} segments",
            gram_segments.len(),
            segments.len()
        )));
    }
    let lens = flat_u32s(header, body, section::INDEX_LENS)?;
    if lens.len() != name_count {
        return Err(SnapshotError::malformed(format!(
            "index_lens has {} entries for {name_count} names",
            lens.len()
        )));
    }

    // The store already carries the tombstones (dead trees are out of every
    // name's node list); the index rederives which postings that leaves dead.
    let index = NameIndex::from_parts(
        arena,
        arena_pos,
        segments,
        gram_segments,
        lens,
        store,
        header.q as usize,
    );

    // --- centroids ---------------------------------------------------------
    let centroid_slots = flat_u32s(header, body, section::CENTROIDS)?;
    if centroid_slots.len() != tree_count {
        return Err(SnapshotError::malformed(format!(
            "centroids has {} entries for {tree_count} trees",
            centroid_slots.len()
        )));
    }
    let mut centroids = Vec::with_capacity(tree_count);
    for (t, &slot) in centroid_slots.iter().enumerate() {
        if slot == NONE_SENTINEL {
            centroids.push(None);
        } else if (slot as u64) < tree_sizes[t] as u64 {
            centroids.push(Some(GlobalNodeId::new(TreeId(t as u32), NodeId(slot))));
        } else {
            return Err(SnapshotError::malformed(format!(
                "tree {t} centroid {slot} is outside the tree ({} nodes)",
                tree_sizes[t]
            )));
        }
    }

    Ok(Snapshot {
        generation: header.generation,
        tree_map: header.tree_map.iter().map(|&t| TreeId(t)).collect(),
        repository,
        index,
        centroids,
    })
}

/// Offsets must start at 0, end at `total` and never decrease.
fn check_offsets(offsets: &[u32], total: usize, what: &str) -> Result<(), SnapshotError> {
    let monotonic = offsets.windows(2).all(|w| w[0] <= w[1]);
    if offsets.first() != Some(&0)
        || !monotonic
        || offsets.last().copied().unwrap_or(0) as usize != total
    {
        return Err(SnapshotError::malformed(format!(
            "{what} are not a monotonic prefix-sum table"
        )));
    }
    Ok(())
}

fn decode_node(
    name: String,
    kind: u8,
    cardinality: u8,
    datatype: u8,
) -> Result<SchemaNode, SnapshotError> {
    let mut node = match kind {
        0 => SchemaNode::element(name),
        1 => SchemaNode::attribute(name),
        other => {
            return Err(SnapshotError::malformed(format!(
                "unknown node kind discriminant {other}"
            )))
        }
    };
    node.cardinality = match cardinality {
        0 => Cardinality::One,
        1 => Cardinality::Optional,
        2 => Cardinality::OneOrMore,
        3 => Cardinality::ZeroOrMore,
        other => {
            return Err(SnapshotError::malformed(format!(
                "unknown cardinality discriminant {other}"
            )))
        }
    };
    node.datatype = match datatype {
        0 => None,
        n => Some(
            *xsm_schema::XsdType::all()
                .get(n as usize - 1)
                .ok_or_else(|| {
                    SnapshotError::malformed(format!("unknown datatype discriminant {n}"))
                })?,
        ),
    };
    Ok(node)
}
