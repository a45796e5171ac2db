//! Golden-file test for the snapshot format: the writer must be byte-stable
//! (same repository → same bytes, across runs and across code changes that
//! claim to keep `FORMAT_VERSION` at its current value), and a checked-in
//! snapshot written by an earlier build must load into exactly the state a
//! fresh build produces.
//!
//! Regenerating the golden file is a deliberate act — it means the byte
//! layout changed and `FORMAT_VERSION` must be bumped:
//!
//! ```text
//! XSM_UPDATE_GOLDEN=1 cargo test -p xsm-repo --test snapshot_golden
//! ```

mod oracle;

use xsm_repo::snapshot::{
    SnapshotError, SnapshotReader, SnapshotWriter, FORMAT_VERSION, SNAPSHOT_MAGIC,
};
use xsm_repo::{GeneratorConfig, NameIndex, RepositoryGenerator, SchemaRepository};
use xsm_schema::{GlobalNodeId, NodeId};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v4.bin");
/// The golden files of previous formats, kept to pin that they are refused.
const PREVIOUS_GOLDEN_PATHS: [(u32, &str); 2] = [
    (
        2,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v2.bin"),
    ),
    (
        3,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/snapshot_v3.bin"),
    ),
];
const GOLDEN_GENERATION: u64 = 7;

/// The deterministic corpus the golden file is built from. The centroids are
/// a deterministic placeholder (each tree's root) — the golden test pins the
/// *format*, not the medoid algorithm, which lives upstream in xsm-core.
fn corpus() -> (SchemaRepository, NameIndex, Vec<Option<GlobalNodeId>>) {
    let repo = RepositoryGenerator::new(GeneratorConfig::small(42)).generate();
    let index = NameIndex::build(&repo);
    let centroids = repo
        .trees()
        .map(|(tid, tree)| (!tree.is_empty()).then(|| GlobalNodeId::new(tid, NodeId(0))))
        .collect();
    (repo, index, centroids)
}

fn corpus_bytes() -> Vec<u8> {
    let (repo, index, centroids) = corpus();
    SnapshotWriter::new(GOLDEN_GENERATION)
        .to_bytes(&repo, &index, &centroids)
        .expect("corpus serializes")
}

#[test]
fn writer_is_byte_stable_against_the_golden_file() {
    let bytes = corpus_bytes();
    assert_eq!(
        bytes,
        corpus_bytes(),
        "two writes of the same repository must be byte-identical"
    );
    if std::env::var_os("XSM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &bytes).unwrap();
        panic!(
            "golden file regenerated at {GOLDEN_PATH} ({} bytes) — \
             bump FORMAT_VERSION if the layout changed, then rerun without \
             XSM_UPDATE_GOLDEN",
            bytes.len()
        );
    }
    let golden = std::fs::read(GOLDEN_PATH).expect(
        "golden snapshot missing — regenerate with \
         XSM_UPDATE_GOLDEN=1 cargo test -p xsm-repo --test snapshot_golden",
    );
    assert_eq!(
        bytes, golden,
        "snapshot byte layout changed without a FORMAT_VERSION bump \
         (or the golden file is stale); see the module docs for the \
         regeneration procedure"
    );
}

#[test]
fn golden_file_loads_equivalent_to_a_fresh_build() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden snapshot present");
    assert_eq!(&golden[..8], &SNAPSHOT_MAGIC[..]);

    let snapshot = SnapshotReader::read_bytes(&golden).expect("golden snapshot loads");
    assert_eq!(snapshot.generation, GOLDEN_GENERATION);

    let (repo, index, centroids) = corpus();

    // Identity tree map for a whole-repository snapshot.
    assert_eq!(snapshot.tree_map.len(), repo.tree_count());
    for (local, tid) in snapshot.tree_map.iter().enumerate() {
        assert_eq!(tid.index(), local);
    }
    assert_eq!(snapshot.centroids, centroids);

    // Full load equivalence, proven by closure: re-serializing the loaded
    // state must reproduce the golden file byte for byte. Every field the
    // snapshot carries — tree structure, node metadata and properties, the
    // interner, every feature array, the posting arena and its directories —
    // feeds that serialization, so a single differing bit anywhere would
    // break the equality.
    let rewritten = SnapshotWriter::new(GOLDEN_GENERATION)
        .to_bytes(&snapshot.repository, &snapshot.index, &snapshot.centroids)
        .expect("loaded snapshot re-serializes");
    assert_eq!(
        rewritten, golden,
        "loading then re-writing the golden snapshot must be the identity"
    );

    // And the loaded state matches a fresh build of the same corpus.
    let fresh = SnapshotWriter::new(GOLDEN_GENERATION)
        .to_bytes(&repo, &index, &centroids)
        .expect("fresh build serializes");
    assert_eq!(fresh, golden);
}

#[test]
fn wide_gram_counts_round_trip() {
    // A single name repeating one gram 256+ times forces the writer off the
    // one-byte `gram_counts` section onto `gram_counts_wide`. `"a" * 300`
    // yields the gram "aaa" (q = 3) with multiplicity 298.
    use xsm_schema::{SchemaNode, TreeBuilder};

    let mut repo = SchemaRepository::new();
    repo.add_tree(
        TreeBuilder::new("t")
            .root(SchemaNode::element("a".repeat(300)))
            .sibling(SchemaNode::element("ordinary"))
            .build(),
    );
    let index = NameIndex::build(&repo);
    let centroids = vec![Some(GlobalNodeId::new(xsm_schema::TreeId(0), NodeId(0)))];
    let bytes = SnapshotWriter::new(1)
        .to_bytes(&repo, &index, &centroids)
        .expect("wide-count corpus serializes");

    let header = SnapshotReader::peek_bytes(&bytes).expect("header validates");
    let names: Vec<&str> = header.sections.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"gram_counts_wide"));
    assert!(!names.contains(&"gram_counts"));

    let snapshot = SnapshotReader::read_bytes(&bytes).expect("wide-count snapshot loads");
    let rewritten = SnapshotWriter::new(1)
        .to_bytes(&snapshot.repository, &snapshot.index, &snapshot.centroids)
        .expect("loaded snapshot re-serializes");
    assert_eq!(
        rewritten, bytes,
        "loading then re-writing a wide-count snapshot must be the identity"
    );
}

#[test]
fn tombstoned_snapshot_round_trips_and_stays_out_of_clean_snapshots() {
    use oracle::{count_filter, lookup};
    use xsm_repo::{CandidateScratch, LengthWindow, LiveRepository, MergePolicy};

    let repo =
        RepositoryGenerator::new(GeneratorConfig::small(23).with_target_elements(400)).generate();
    let mut live = LiveRepository::build(repo.clone());
    let extra =
        RepositoryGenerator::new(GeneratorConfig::small(24).with_target_elements(60)).generate();
    let appended: Vec<_> = extra.trees().map(|(_, t)| t.clone()).take(3).collect();
    live.append_trees(appended).unwrap();
    let victims = [xsm_schema::TreeId(1), xsm_schema::TreeId(3)];
    live.delete_trees(&victims).unwrap();

    let centroids = vec![None; live.repo().tree_count()];
    let bytes = SnapshotWriter::new(live.generation())
        .to_bytes(live.repo(), live.index(), &centroids)
        .expect("tombstoned repository serializes");

    // The optional section is present exactly when tombstones exist.
    let header = SnapshotReader::peek_bytes(&bytes).expect("header validates");
    assert!(header.sections.iter().any(|s| s.name == "tombstones"));
    let clean = SnapshotWriter::new(0)
        .to_bytes(
            &repo,
            &NameIndex::build(&repo),
            &vec![None; repo.tree_count()],
        )
        .expect("clean repository serializes");
    let clean_header = SnapshotReader::peek_bytes(&clean).expect("header validates");
    assert!(clean_header.sections.iter().all(|s| s.name != "tombstones"));

    // Loading restores the tombstone set and the exact live behaviour.
    let snapshot = SnapshotReader::read_bytes(&bytes).expect("tombstoned snapshot loads");
    assert_eq!(snapshot.index.tombstoned_trees(), &victims[..]);
    assert_eq!(
        snapshot.index.indexed_nodes(),
        live.index().indexed_nodes(),
        "alive node count must survive the round trip"
    );
    let mut scratch = CandidateScratch::default();
    for (_, tree) in repo.trees().take(5) {
        for (_, node) in tree.nodes().take(4) {
            let mut candidates = |index: &NameIndex| {
                lookup(
                    index,
                    &node.name,
                    0.5,
                    LengthWindow::Infinite,
                    MergePolicy::Auto,
                    &mut scratch,
                )
                .0
            };
            let loaded = candidates(&snapshot.index);
            assert_eq!(
                loaded,
                candidates(live.index()),
                "candidates diverged after round trip for {:?}",
                node.name
            );
            assert_eq!(loaded, count_filter(&snapshot.index, &node.name, 0.5));
            assert_eq!(
                snapshot.index.lookup_exact(&node.name),
                live.index().lookup_exact(&node.name)
            );
        }
    }

    // Write → read → write is the identity.
    let rewritten = SnapshotWriter::new(live.generation())
        .to_bytes(&snapshot.repository, &snapshot.index, &snapshot.centroids)
        .expect("loaded snapshot re-serializes");
    assert_eq!(rewritten, bytes);
}

#[test]
fn peek_reports_the_header_without_reconstruction() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden snapshot present");
    let header = SnapshotReader::peek_bytes(&golden).expect("peek validates");
    let (repo, _, _) = corpus();
    assert_eq!(header.generation, GOLDEN_GENERATION);
    assert_eq!(header.tree_count as usize, repo.tree_count());
    assert_eq!(header.node_count as usize, repo.total_nodes());
    assert_eq!(header.sections.len(), 15);
    assert!(header.sections.iter().all(|s| s.name != "labelings"));
    assert_eq!(FORMAT_VERSION, 4);
}

#[test]
fn the_previous_format_is_refused_with_the_version_found() {
    // The format has never migrated: a v2 file (per-node features and
    // postings) and a v3 file (with a `labelings` section) are rejected by
    // their version, before any section is looked at.
    for (version, path) in PREVIOUS_GOLDEN_PATHS {
        let bytes = std::fs::read(path).expect("previous golden snapshot present");
        for result in [
            SnapshotReader::read_bytes(&bytes).map(|_| ()),
            SnapshotReader::peek_bytes(&bytes).map(|_| ()),
        ] {
            match result.unwrap_err() {
                SnapshotError::UnsupportedVersion { found } => assert_eq!(found, version),
                other => panic!("v{version}: {other:?}"),
            }
        }
    }
}
