//! The snapshot writer: lay out every engine-startup artefact as flat
//! little-endian sections and stamp the self-describing header around them.
//!
//! The writer is deliberately deterministic byte-for-byte: given the same
//! repository, index, centroids, generation and tree map it produces the same
//! file, which is what lets `tests/snapshot_golden.rs` pin the format. The
//! hash-ordered structures in the engine are therefore laid out in a canonical
//! order instead of map iteration order: the gram table in dense gram-id
//! order, the name table in name-id order.

use std::path::Path;

use xsm_schema::{GlobalNodeId, TreeId, XsdType};

use crate::index::NameIndex;
use crate::repository::SchemaRepository;

use super::format::{
    checksum64, put_str_table, put_u32, put_u64, section, SectionEntry, SnapshotHeader, FOOTER_LEN,
    FORMAT_VERSION, NONE_SENTINEL, SNAPSHOT_MAGIC,
};
use super::SnapshotError;

/// Serializes a repository and its prebuilt index into the snapshot format.
///
/// ```
/// use xsm_repo::{GeneratorConfig, NameIndex, RepositoryGenerator};
/// use xsm_repo::snapshot::{SnapshotReader, SnapshotWriter};
///
/// let repo = RepositoryGenerator::new(GeneratorConfig::small(7)).generate();
/// let index = NameIndex::build(&repo);
/// let centroids = vec![None; repo.tree_count()];
/// let bytes = SnapshotWriter::new(42)
///     .to_bytes(&repo, &index, &centroids)
///     .unwrap();
/// let snapshot = SnapshotReader::read_bytes(&bytes).unwrap();
/// assert_eq!(snapshot.generation, 42);
/// assert_eq!(snapshot.repository.total_nodes(), repo.total_nodes());
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    generation: u64,
    tree_map: Option<Vec<TreeId>>,
}

impl SnapshotWriter {
    /// A writer stamping `generation` into the header. The tree map defaults
    /// to the identity (a whole-repository snapshot).
    pub fn new(generation: u64) -> Self {
        SnapshotWriter {
            generation,
            tree_map: None,
        }
    }

    /// Record a non-identity local-tree → global-tree map (a per-shard
    /// snapshot carrying its slice of the router's tree map). Must have one
    /// entry per tree of the repository being written.
    pub fn with_tree_map(mut self, tree_map: Vec<TreeId>) -> Self {
        self.tree_map = Some(tree_map);
        self
    }

    /// Serialize to an in-memory byte vector. `centroids` carries one entry
    /// per tree (local tree order): the tree's centroid node, or `None` for
    /// an empty tree.
    pub fn to_bytes(
        &self,
        repo: &SchemaRepository,
        index: &NameIndex,
        centroids: &[Option<GlobalNodeId>],
    ) -> Result<Vec<u8>, SnapshotError> {
        let tree_count = repo.tree_count();
        let node_count = repo.total_nodes();
        assert_eq!(
            centroids.len(),
            tree_count,
            "one centroid slot per tree required"
        );
        let tree_map: Vec<u32> = match &self.tree_map {
            Some(map) => {
                assert_eq!(map.len(), tree_count, "tree map must cover every tree");
                map.iter().map(|t| t.0).collect()
            }
            None => (0..tree_count as u32).collect(),
        };

        let store = index.features();
        let interner = store.interner();

        let mut sections: Vec<(&'static str, Vec<u8>)> = Vec::with_capacity(16);

        // trees: name table + per-tree node counts.
        let mut buf = Vec::new();
        put_str_table(&mut buf, repo.trees().map(|(_, t)| t.name()));
        for (_, tree) in repo.trees() {
            put_u32(&mut buf, tree.len() as u32);
        }
        sections.push((section::TREES, buf));

        // names: every distinct spelling once, in name-id order, and
        // node_name_ids: each node's index into it, canonical (tree, slot)
        // order. Together they replace a per-node name table.
        assert_eq!(
            store.len(),
            node_count,
            "the index must cover the repository being written"
        );
        let name_count = store.name_count();
        let mut buf = Vec::new();
        put_str_table(
            &mut buf,
            (0..name_count as u32).map(|name| {
                let features = store.name_features(name);
                features.original().unwrap_or(&features.lower)
            }),
        );
        sections.push((section::NAMES, buf));

        let mut buf = Vec::with_capacity(4 * node_count);
        for &name in store.node_names() {
            put_u32(&mut buf, name);
        }
        sections.push((section::NODE_NAME_IDS, buf));

        // node_meta: 8 bytes per node — parent, kind, cardinality, datatype, flags.
        let mut buf = Vec::with_capacity(node_count * 8);
        for (_tid, tree) in repo.trees() {
            for (nid, node) in tree.nodes() {
                let parent = tree.parent(nid).map(|p| p.0).unwrap_or(NONE_SENTINEL);
                put_u32(&mut buf, parent);
                buf.push(encode_kind(node.kind));
                buf.push(encode_cardinality(node.cardinality));
                buf.push(encode_datatype(node.datatype));
                buf.push(0); // flags, reserved
            }
        }
        sections.push((section::NODE_META, buf));

        // node_props: sparse (node, key, value) triples — rare in practice.
        let mut buf = Vec::new();
        let mut entries = 0u32;
        let mut body = Vec::new();
        for (dense, (_, node)) in repo.nodes().enumerate() {
            for (key, value) in node.properties() {
                put_u32(&mut body, dense as u32);
                put_u32(&mut body, key.len() as u32);
                body.extend_from_slice(key.as_bytes());
                put_u32(&mut body, value.len() as u32);
                body.extend_from_slice(value.as_bytes());
                entries += 1;
            }
        }
        put_u32(&mut buf, entries);
        buf.extend_from_slice(&body);
        sections.push((section::NODE_PROPS, buf));

        // gram_table: the interner's grams in dense id order.
        let gram_table = interner.gram_table();
        let mut buf = Vec::new();
        put_str_table(&mut buf, gram_table.iter().map(|s| s.as_str()));
        sections.push((section::GRAM_TABLE, buf));

        // gram_sigs / gram_counts / peq: per-name variable-length feature
        // columns, each as offsets + one flat arena.
        let mut sig_offsets = Vec::with_capacity(name_count + 1);
        let mut sig_flat: Vec<u32> = Vec::new();
        let mut count_flat: Vec<u32> = Vec::new();
        let mut peq_offsets = Vec::with_capacity(name_count + 1);
        let mut peq_flat: Vec<(char, u64)> = Vec::new();
        sig_offsets.push(0u32);
        peq_offsets.push(0u32);
        for name in 0..name_count as u32 {
            let features = store.name_features(name);
            sig_flat.extend_from_slice(features.gram_sig());
            count_flat.extend_from_slice(features.gram_counts());
            sig_offsets.push(sig_flat.len() as u32);
            peq_flat.extend_from_slice(features.peq_pairs());
            peq_offsets.push(peq_flat.len() as u32);
        }

        let mut buf = Vec::with_capacity(4 * (sig_offsets.len() + sig_flat.len()));
        for &v in &sig_offsets {
            put_u32(&mut buf, v);
        }
        for &v in &sig_flat {
            put_u32(&mut buf, v);
        }
        sections.push((section::GRAM_SIGS, buf));

        // Multiplicities fit a byte unless one name repeats a single gram 256+
        // times; only such a pathological corpus pays for the wide encoding.
        if count_flat.iter().all(|&c| c <= u8::MAX as u32) {
            sections.push((
                section::GRAM_COUNTS,
                count_flat.iter().map(|&c| c as u8).collect(),
            ));
        } else {
            let mut buf = Vec::with_capacity(4 * count_flat.len());
            for &v in &count_flat {
                put_u32(&mut buf, v);
            }
            sections.push((section::GRAM_COUNTS_WIDE, buf));
        }

        let mut buf = Vec::with_capacity(4 * peq_offsets.len() + 12 * peq_flat.len());
        for &v in &peq_offsets {
            put_u32(&mut buf, v);
        }
        for &(c, mask) in &peq_flat {
            put_u32(&mut buf, c as u32);
            put_u64(&mut buf, mask);
        }
        sections.push((section::PEQ, buf));

        // The index: posting arena (name ids), length-segment directory,
        // per-gram directory offsets, per-name lengths.
        let mut buf = Vec::with_capacity(4 * index.arena_raw().len());
        for &v in index.arena_raw() {
            put_u32(&mut buf, v);
        }
        sections.push((section::INDEX_ARENA, buf));

        // index_pos: the packed first/last gram-position intervals, entry for
        // entry parallel to the arena (new in format v2).
        let mut buf = Vec::with_capacity(4 * index.arena_pos_raw().len());
        for &v in index.arena_pos_raw() {
            put_u32(&mut buf, v);
        }
        sections.push((section::INDEX_POS, buf));

        let mut buf = Vec::with_capacity(12 * index.segments_raw().len());
        for seg in index.segments_raw() {
            put_u32(&mut buf, seg.len);
            put_u32(&mut buf, seg.start);
            put_u32(&mut buf, seg.end);
        }
        sections.push((section::INDEX_SEGMENTS, buf));

        let mut buf = Vec::with_capacity(4 * index.gram_segments_raw().len());
        for &v in index.gram_segments_raw() {
            put_u32(&mut buf, v);
        }
        sections.push((section::INDEX_GRAM_SEGMENTS, buf));

        let mut buf = Vec::with_capacity(4 * index.lens_raw().len());
        for &v in index.lens_raw() {
            put_u32(&mut buf, v);
        }
        sections.push((section::INDEX_LENS, buf));

        // centroids: one node slot per tree.
        let mut buf = Vec::with_capacity(4 * tree_count);
        for (t, centroid) in centroids.iter().enumerate() {
            let slot = match centroid {
                Some(id) => {
                    assert_eq!(id.tree.index(), t, "centroid must belong to its tree");
                    id.node.0
                }
                None => NONE_SENTINEL,
            };
            put_u32(&mut buf, slot);
        }
        sections.push((section::CENTROIDS, buf));

        // tombstones: the live repository's dead trees, ascending. Only
        // written when present — never-mutated repositories keep the exact
        // byte layout the golden suite pins.
        let tombstones = index.tombstoned_trees();
        if !tombstones.is_empty() {
            let mut buf = Vec::with_capacity(4 * tombstones.len());
            for t in tombstones {
                put_u32(&mut buf, t.0);
            }
            sections.push((section::TOMBSTONES, buf));
        }

        // Directory, header, and final assembly.
        let mut directory = Vec::with_capacity(sections.len());
        let mut offset = 0u64;
        for (name, payload) in &sections {
            directory.push(SectionEntry {
                name: (*name).to_string(),
                offset,
                len: payload.len() as u64,
                checksum: checksum64(payload),
            });
            offset += payload.len() as u64;
        }
        let header = SnapshotHeader {
            generation: self.generation,
            q: index.q() as u32,
            tree_count: tree_count as u32,
            node_count: node_count as u32,
            tree_map,
            sections: directory,
        };
        let header_bytes = serde_json::to_string(&header)
            .map_err(|e| SnapshotError::malformed(format!("header serialization failed: {e}")))?
            .into_bytes();

        let total = 8 + 4 + 4 + header_bytes.len() + offset as usize + FOOTER_LEN;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, header_bytes.len() as u32);
        out.extend_from_slice(&header_bytes);
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        // The footer checksums the header bytes only: the header carries every
        // section checksum, so it transitively covers the body — one
        // validation pass over the payload instead of two.
        let footer = checksum64(&header_bytes);
        put_u64(&mut out, footer);
        Ok(out)
    }

    /// Serialize straight to `path` (atomically enough for our purposes: the
    /// bytes are fully assembled in memory first, so a crash mid-write leaves
    /// a truncated file the reader rejects, never a silently wrong one).
    /// Returns the file size in bytes.
    pub fn write(
        &self,
        repo: &SchemaRepository,
        index: &NameIndex,
        centroids: &[Option<GlobalNodeId>],
        path: impl AsRef<Path>,
    ) -> Result<u64, SnapshotError> {
        let bytes = self.to_bytes(repo, index, centroids)?;
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }
}

pub(super) fn encode_kind(kind: xsm_schema::NodeKind) -> u8 {
    match kind {
        xsm_schema::NodeKind::Element => 0,
        xsm_schema::NodeKind::Attribute => 1,
    }
}

pub(super) fn encode_cardinality(c: xsm_schema::Cardinality) -> u8 {
    match c {
        xsm_schema::Cardinality::One => 0,
        xsm_schema::Cardinality::Optional => 1,
        xsm_schema::Cardinality::OneOrMore => 2,
        xsm_schema::Cardinality::ZeroOrMore => 3,
    }
}

pub(super) fn encode_datatype(dt: Option<XsdType>) -> u8 {
    match dt {
        None => 0,
        Some(t) => {
            let pos = XsdType::all()
                .iter()
                .position(|&x| x == t)
                .expect("XsdType::all covers every variant");
            (pos + 1) as u8
        }
    }
}
