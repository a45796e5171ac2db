//! Hostile-input suite for the snapshot reader: every way a file can be wrong
//! must map to the right [`SnapshotError`] variant — never a panic, never a
//! silently wrong index.
//!
//! Coverage: truncation at *every* section boundary (and inside the preamble,
//! header and footer), a flipped byte in *every* section (attributed to that
//! section by name), magic/version mismatch, generation mismatch, and
//! malformed-but-checksummed payloads (the checksums are recomputed so only
//! the reconstruction validation can catch them) — among them structure-aware
//! lies in the name-table sections of format v3: a node naming a name that
//! does not exist, a posting doing the same, a spelling listed twice, columns
//! that disagree about how many names there are, and a table claiming more
//! entries than the file has bytes — and a parent table chaining a node past
//! the tree depth limit. A name's node list is not among them: the format
//! does not store one (the reader derives it from the per-node name ids), so
//! it cannot lie; nor is a labelling, which the reader derives from the
//! parent table.

use xsm_repo::snapshot::{
    SnapshotError, SnapshotHeader, SnapshotReader, SnapshotWriter, FORMAT_VERSION,
};
use xsm_repo::{GeneratorConfig, NameIndex, RepositoryGenerator};
use xsm_schema::{GlobalNodeId, NodeId};

/// A small but fully featured snapshot (multiple trees, attributes,
/// properties, a real index) to mutate.
fn snapshot_bytes() -> Vec<u8> {
    let repo = RepositoryGenerator::new(GeneratorConfig::small(9)).generate();
    let index = NameIndex::build(&repo);
    let centroids: Vec<Option<GlobalNodeId>> = repo
        .trees()
        .map(|(tid, tree)| (!tree.is_empty()).then(|| GlobalNodeId::new(tid, NodeId(0))))
        .collect();
    SnapshotWriter::new(3)
        .to_bytes(&repo, &index, &centroids)
        .expect("corpus serializes")
}

/// Byte offset where the section region starts (end of the JSON header).
fn body_start(bytes: &[u8]) -> usize {
    let header_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    16 + header_len
}

#[test]
fn intact_snapshot_loads() {
    let bytes = snapshot_bytes();
    let snapshot = SnapshotReader::read_bytes(&bytes).expect("intact bytes load");
    assert_eq!(snapshot.generation, 3);
}

#[test]
fn truncation_at_every_section_boundary_fails_closed() {
    let bytes = snapshot_bytes();
    let header = SnapshotReader::peek_bytes(&bytes).expect("intact header");
    let start = body_start(&bytes);

    // Cut the file exactly at the start of each section: the first missing
    // section is reported as truncation (its directory entry points past the
    // end), and nothing panics.
    for entry in &header.sections {
        let cut = start + entry.offset as usize;
        let err = SnapshotReader::read_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "cut at section `{}` start gave {err:?}",
            entry.name
        );
    }
    // And one byte into each section's payload (a torn write mid-section).
    for entry in &header.sections {
        if entry.len == 0 {
            continue;
        }
        let cut = start + entry.offset as usize + 1;
        let err = SnapshotReader::read_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "cut inside section `{}` gave {err:?}",
            entry.name
        );
    }
    // Losing only the footer is also truncation.
    let err = SnapshotReader::read_bytes(&bytes[..bytes.len() - 8]).unwrap_err();
    assert!(matches!(err, SnapshotError::Truncated { .. }));
}

#[test]
fn truncation_inside_the_preamble_and_header() {
    let bytes = snapshot_bytes();
    for cut in [0, 3, 7] {
        let err = SnapshotReader::read_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "cut at {cut} gave {err:?}"
        );
    }
    // Magic intact but version/header-length missing.
    for cut in [8, 12, 15] {
        let err = SnapshotReader::read_bytes(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "cut at {cut} gave {err:?}"
        );
    }
    // Mid-header cut.
    let err = SnapshotReader::read_bytes(&bytes[..20]).unwrap_err();
    assert!(matches!(err, SnapshotError::Truncated { .. }));
}

#[test]
fn a_flipped_byte_in_any_section_names_that_section() {
    let bytes = snapshot_bytes();
    let header = SnapshotReader::peek_bytes(&bytes).expect("intact header");
    let start = body_start(&bytes);

    for entry in &header.sections {
        if entry.len == 0 {
            continue;
        }
        let mut corrupt = bytes.clone();
        // Flip a byte in the middle of the payload.
        let at = start + entry.offset as usize + (entry.len as usize / 2);
        corrupt[at] ^= 0x40;
        let err = SnapshotReader::read_bytes(&corrupt).unwrap_err();
        match err {
            SnapshotError::SectionChecksum { ref section } => {
                assert_eq!(
                    section, &entry.name,
                    "corruption in `{}` attributed to `{section}`",
                    entry.name
                );
            }
            other => panic!(
                "flipped byte in `{}` gave {other:?}, want SectionChecksum",
                entry.name
            ),
        }
    }
}

#[test]
fn a_flipped_footer_byte_is_a_footer_checksum_failure() {
    let mut bytes = snapshot_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let err = SnapshotReader::read_bytes(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::FooterChecksum), "{err:?}");
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = snapshot_bytes();
    bytes[0] = b'Y';
    let err = SnapshotReader::read_bytes(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::BadMagic), "{err:?}");
    // An unrelated file is also BadMagic, not a panic.
    let err = SnapshotReader::read_bytes(b"not a snapshot at all").unwrap_err();
    assert!(matches!(err, SnapshotError::BadMagic), "{err:?}");
}

#[test]
fn wrong_version_reports_the_version_found() {
    let mut bytes = snapshot_bytes();
    let next = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&next.to_le_bytes());
    match SnapshotReader::read_bytes(&bytes).unwrap_err() {
        SnapshotError::UnsupportedVersion { found } => assert_eq!(found, next),
        other => panic!("{other:?}"),
    }
}

#[test]
fn generation_mismatch_reports_both_generations() {
    let bytes = snapshot_bytes();
    let snapshot = SnapshotReader::read_bytes(&bytes).expect("intact bytes load");
    match snapshot.expect_generation(99).unwrap_err() {
        SnapshotError::GenerationMismatch { expected, found } => {
            assert_eq!(expected, 99);
            assert_eq!(found, 3);
        }
        other => panic!("{other:?}"),
    }
    // The matching generation passes through.
    let snapshot = SnapshotReader::read_bytes(&bytes).unwrap();
    assert!(snapshot.expect_generation(3).is_ok());
}

#[test]
fn missing_file_is_an_io_error() {
    let err = SnapshotReader::read("/nonexistent/path/shard-0.xsmsnap").unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
}

#[test]
fn garbage_header_that_checksums_clean_is_malformed() {
    // Hand-build a file whose preamble and footer are valid but whose header
    // is not a SnapshotHeader: validation must fail with Malformed (from the
    // header parse), not panic.
    let header = b"{\"not\": \"a header\"}";
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"XSMSNAP1");
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
    bytes.extend_from_slice(header);
    let footer = checksum64(header);
    bytes.extend_from_slice(&footer.to_le_bytes());
    let err = SnapshotReader::read_bytes(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed { .. }), "{err:?}");
}

#[test]
fn header_length_overflow_is_truncated_not_panic() {
    let mut bytes = snapshot_bytes();
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = SnapshotReader::read_bytes(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Truncated { .. }), "{err:?}");
}

/// Rewrite one section's payload and re-stamp everything that vouches for it
/// — the section's checksum and offsets in the header, the header length, the
/// footer — so the file validates and only reconstruction can object.
fn forge(bytes: &[u8], section: &str, lie: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut header: SnapshotHeader = SnapshotReader::peek_bytes(bytes).expect("intact header");
    let start = body_start(bytes);
    let mut payloads: Vec<Vec<u8>> = header
        .sections
        .iter()
        .map(|e| bytes[start + e.offset as usize..start + (e.offset + e.len) as usize].to_vec())
        .collect();
    let target = header
        .sections
        .iter()
        .position(|e| e.name == section)
        .unwrap_or_else(|| panic!("no section `{section}`"));
    lie(&mut payloads[target]);
    let mut offset = 0u64;
    for (entry, payload) in header.sections.iter_mut().zip(&payloads) {
        entry.offset = offset;
        entry.len = payload.len() as u64;
        entry.checksum = checksum64(payload);
        offset += entry.len;
    }
    let header_bytes = serde_json::to_string(&header).unwrap().into_bytes();
    let mut out = Vec::new();
    out.extend_from_slice(b"XSMSNAP1");
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&header_bytes);
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&checksum64(&header_bytes).to_le_bytes());
    out
}

fn u32_at(payload: &[u8], word: usize) -> u32 {
    u32::from_le_bytes(payload[word * 4..word * 4 + 4].try_into().unwrap())
}

fn set_u32(payload: &mut [u8], word: usize, value: u32) {
    payload[word * 4..word * 4 + 4].copy_from_slice(&value.to_le_bytes());
}

/// Number of names in the snapshot: the leading count of the `names` table.
fn name_count(bytes: &[u8]) -> u32 {
    let mut count = 0;
    forge(bytes, "names", |payload| count = u32_at(payload, 0));
    count
}

fn assert_malformed(bytes: &[u8], what: &str) {
    match SnapshotReader::read_bytes(bytes) {
        Err(SnapshotError::Malformed { .. }) => {}
        other => panic!("{what}: expected Malformed, got {other:?}"),
    }
}

#[test]
fn a_forged_but_honest_file_still_loads() {
    // The forging helper itself must not be what the reader objects to.
    let bytes = snapshot_bytes();
    let forged = forge(&bytes, "node_name_ids", |_| {});
    assert_eq!(forged, bytes);
    assert!(SnapshotReader::read_bytes(&forged).is_ok());
}

#[test]
fn a_node_naming_a_missing_name_is_malformed() {
    let bytes = snapshot_bytes();
    let names = name_count(&bytes);
    for bad in [names, u32::MAX] {
        let forged = forge(&bytes, "node_name_ids", |payload| set_u32(payload, 3, bad));
        assert_malformed(&forged, "node name id past the name table");
    }
    // One id too few is a column-length lie, not a panic.
    let forged = forge(&bytes, "node_name_ids", |payload| {
        payload.truncate(payload.len() - 4)
    });
    assert_malformed(&forged, "node_name_ids shorter than the node count");
}

#[test]
fn a_posting_naming_a_missing_name_is_malformed() {
    let bytes = snapshot_bytes();
    let names = name_count(&bytes);
    let forged = forge(&bytes, "index_arena", |payload| set_u32(payload, 0, names));
    assert_malformed(&forged, "posting past the name table");
}

#[test]
fn a_spelling_listed_twice_is_malformed() {
    // Swap the second spelling for a copy of the first: re-encode the table
    // (count, cumulative offsets, blob) around the changed entry.
    let bytes = snapshot_bytes();
    let forged = forge(&bytes, "names", |payload| {
        let count = u32_at(payload, 0) as usize;
        let offsets: Vec<usize> = (0..=count)
            .map(|i| u32_at(payload, 1 + i) as usize)
            .collect();
        let blob = payload[4 * (count + 2)..].to_vec();
        let mut names: Vec<Vec<u8>> = offsets
            .windows(2)
            .map(|w| blob[w[0]..w[1]].to_vec())
            .collect();
        names[1] = names[0].clone();
        payload.clear();
        payload.extend_from_slice(&(count as u32).to_le_bytes());
        let mut end = 0u32;
        payload.extend_from_slice(&end.to_le_bytes());
        for name in &names {
            end += name.len() as u32;
            payload.extend_from_slice(&end.to_le_bytes());
        }
        for name in &names {
            payload.extend_from_slice(name);
        }
    });
    assert_malformed(&forged, "two names with one spelling");
}

#[test]
fn columns_that_disagree_about_the_name_count_are_malformed() {
    let bytes = snapshot_bytes();
    // One length too few for the names listed.
    let forged = forge(&bytes, "index_lens", |payload| {
        payload.truncate(payload.len() - 4)
    });
    assert_malformed(&forged, "index_lens shorter than the name table");
    // One name fewer than the feature columns and the node ids were written for.
    let forged = forge(&bytes, "names", |payload| {
        let count = u32_at(payload, 0) as usize;
        let last_start = u32_at(payload, count) as usize;
        let blob_start = 4 * (count + 2);
        payload.truncate(blob_start + last_start);
        payload.drain(4 * (count + 1)..blob_start);
        set_u32(payload, 0, count as u32 - 1);
    });
    assert_malformed(&forged, "a name table one entry short");
}

#[test]
fn a_table_claiming_more_entries_than_bytes_is_malformed_without_allocating() {
    // A 4-billion-entry name table in a few hundred kilobytes: the reader
    // must notice from the payload length, not by reserving for the count.
    let bytes = snapshot_bytes();
    for section in ["names", "gram_table", "trees"] {
        let forged = forge(&bytes, section, |payload| set_u32(payload, 0, u32::MAX));
        assert_malformed(&forged, section);
    }
}

#[test]
fn a_parent_table_chaining_past_the_depth_limit_is_malformed() {
    // One tree of a root and `MAX_TREE_DEPTH + 1` children: re-parenting every
    // node under the slot before it makes the last one a node too deep.
    use xsm_repo::SchemaRepository;
    use xsm_schema::parser::MAX_TREE_DEPTH;
    use xsm_schema::{SchemaNode, SchemaTree, TreeId};

    let mut tree = SchemaTree::new("wide");
    let root = tree.add_root(SchemaNode::element("root")).unwrap();
    for i in 1..=MAX_TREE_DEPTH + 1 {
        tree.add_child(root, SchemaNode::element(format!("n{i}")))
            .unwrap();
    }
    let nodes = tree.len();
    let repo = SchemaRepository::from_trees(vec![tree]);
    let bytes = SnapshotWriter::new(1)
        .to_bytes(
            &repo,
            &NameIndex::build(&repo),
            &[Some(GlobalNodeId::new(TreeId(0), root))],
        )
        .expect("corpus serializes");
    // `node_meta` holds two words per node, the parent slot first.
    let chain = |depth: usize| {
        forge(&bytes, "node_meta", |payload| {
            for slot in 1..=depth {
                set_u32(payload, 2 * slot, slot as u32 - 1);
            }
        })
    };
    assert!(SnapshotReader::read_bytes(&chain(MAX_TREE_DEPTH as usize)).is_ok());
    assert_malformed(&chain(nodes - 1), "a node past the depth limit");
}

/// The snapshot checksum — four-lane word-folding FNV variant, duplicated here
/// so the test can forge checksummed files without reaching into crate
/// internals. Must match `snapshot::format::checksum64`.
fn checksum64(bytes: &[u8]) -> u64 {
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
