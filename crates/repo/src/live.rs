//! Live repositories: incremental ingest and tombstone delete without rebuild.
//!
//! The paper's pipeline assumes a repository built once and queried forever; a
//! serving deployment sees schemas uploaded, revised and retired continuously.
//! [`LiveRepository`] bundles a [`SchemaRepository`] with its [`NameIndex`] (and
//! therefore its [`crate::FeatureStore`]) and keeps the pair **incrementally
//! consistent** under three mutations:
//!
//! * **append** — new trees take the next [`TreeId`]s and their nodes join the
//!   node lists of their names in the name table. A node whose spelling is
//!   already known adds **no posting**; only a spelling never seen before (or
//!   one a compaction had reclaimed) grows the arena by tail-only runs. No
//!   existing entry moves (name ids and dense node slots are stable for the
//!   repository's lifetime),
//! * **delete** — trees are *tombstoned*: their nodes leave their names' node
//!   lists, so queries answer as if the tree were never there. Only a name
//!   left with **no** live node has dead postings: they stay in the arena,
//!   filtered out of every candidate merge,
//! * **compact** — once the postings of dead names cross a threshold, the
//!   arena is rewritten without them (LSM-style), without renumbering a single
//!   name id. A corpus that repeats its names kills few of them, so it
//!   compacts rarely.
//!
//! Every *logical* mutation (append batch, delete batch) bumps a monotonically
//! increasing **generation**, recorded per-operation in the [`IngestLog`].
//! Compaction is physical-only and does not bump the generation — it cannot
//! change any answer. The correctness contract, pinned by the
//! `live_equivalence` property suite in the service crate, is that a live
//! repository answers **byte-identically** to a from-scratch rebuild at the
//! same logical content.

use crate::index::NameIndex;
use crate::repository::SchemaRepository;
use xsm_schema::{SchemaTree, TreeId};

/// Why a mutation was rejected. Mutations are **atomic**: a batch that returns
/// an error has changed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// An append or delete batch was empty — a no-op request is almost always
    /// a caller bug, and accepting it would burn a generation for nothing.
    EmptyBatch,
    /// A delete named a tree the repository has never held.
    UnknownTree(TreeId),
    /// A delete named a tree that is already tombstoned.
    AlreadyDeleted(TreeId),
    /// A delete batch named the same tree twice.
    DuplicateTree(TreeId),
    /// [`LiveRepository::advance_generation`] was asked to move backwards (or
    /// stand still) — generations are strictly monotonic.
    StaleGeneration {
        /// The repository's current generation.
        current: u64,
        /// The non-advancing generation that was requested.
        requested: u64,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::EmptyBatch => write!(f, "empty mutation batch"),
            LiveError::UnknownTree(t) => write!(f, "unknown tree {t}"),
            LiveError::AlreadyDeleted(t) => write!(f, "tree {t} is already deleted"),
            LiveError::DuplicateTree(t) => write!(f, "tree {t} named twice in one batch"),
            LiveError::StaleGeneration { current, requested } => write!(
                f,
                "generation must advance: current {current}, requested {requested}"
            ),
        }
    }
}

impl std::error::Error for LiveError {}

/// One applied mutation, stamped with the generation it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestRecord {
    /// The repository generation after this operation's batch applied.
    pub generation: u64,
    /// What happened.
    pub op: IngestOp,
}

/// The mutation kinds an [`IngestLog`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOp {
    /// A tree was appended.
    Append {
        /// The id the tree received.
        tree: TreeId,
        /// Number of nodes the tree brought.
        nodes: usize,
    },
    /// A tree was tombstoned.
    Delete {
        /// The tree that died.
        tree: TreeId,
        /// Node-weighted posting volume the tombstone removed: each deleted
        /// node once per distinct gram of its name.
        postings_dropped: usize,
    },
    /// The posting arena was compacted (physical-only; same generation as the
    /// preceding logical mutation).
    Compact {
        /// Dead postings reclaimed from the arena.
        postings_reclaimed: usize,
    },
}

/// The ordered history of applied mutations — enough to audit how a live
/// repository reached its current content, and the hook a future replication
/// log would tail.
#[derive(Debug, Clone, Default)]
pub struct IngestLog {
    records: Vec<IngestRecord>,
}

impl IngestLog {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no mutation has been applied yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, oldest first.
    pub fn records(&self) -> &[IngestRecord] {
        &self.records
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&IngestRecord> {
        self.records.last()
    }
}

/// A [`SchemaRepository`] + [`NameIndex`] pair that stays consistent under
/// append, tombstone delete and compaction — see the module docs for the
/// mutation contract.
#[derive(Debug)]
pub struct LiveRepository {
    repo: SchemaRepository,
    index: NameIndex,
    generation: u64,
    log: IngestLog,
}

impl LiveRepository {
    /// Build a live repository from an initial forest (index construction
    /// happens here), starting at generation 0 like a cold-built engine.
    pub fn build(repo: SchemaRepository) -> Self {
        let index = NameIndex::build(&repo);
        Self::from_parts(repo, index, 0)
    }

    /// Wrap an already-built repository/index pair (the snapshot-load path; the
    /// snapshot's tombstones must already be applied to `index`).
    pub fn from_parts(repo: SchemaRepository, index: NameIndex, generation: u64) -> Self {
        LiveRepository {
            repo,
            index,
            generation,
            log: IngestLog::default(),
        }
    }

    /// The forest. Tombstoned trees remain physically present (their
    /// [`TreeId`]s stay assigned forever) but contribute nothing to queries.
    pub fn repo(&self) -> &SchemaRepository {
        &self.repo
    }

    /// The name index over the forest, tombstones applied.
    pub fn index(&self) -> &NameIndex {
        &self.index
    }

    /// The current generation: 0 at build, +1 per applied append/delete batch.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The ordered mutation history.
    pub fn log(&self) -> &IngestLog {
        &self.log
    }

    /// Append a batch of trees; they receive consecutive [`TreeId`]s starting
    /// at the current tree count, returned in order. One generation bump for
    /// the whole batch. Existing index entries are never touched — appending
    /// is tail-only in the arena, the name table and the tree table, and a
    /// tree of already-known spellings does not touch the arena at all.
    pub fn append_trees(&mut self, trees: Vec<SchemaTree>) -> Result<Vec<TreeId>, LiveError> {
        if trees.is_empty() {
            return Err(LiveError::EmptyBatch);
        }
        let generation = self.generation + 1;
        self.index
            .append_trees(TreeId(self.repo.tree_count() as u32), &trees);
        let mut ids = Vec::with_capacity(trees.len());
        for tree in trees {
            let nodes = tree.len();
            let tid = self.repo.add_tree(tree);
            self.log.records.push(IngestRecord {
                generation,
                op: IngestOp::Append { tree: tid, nodes },
            });
            ids.push(tid);
        }
        self.generation = generation;
        Ok(ids)
    }

    /// Tombstone a batch of trees; returns the node-weighted posting volume the
    /// tombstones removed (each deleted node once per distinct gram of its
    /// name — the same however the forest is sharded; the arena itself only
    /// holds dead postings for names that lost their last node). The batch is
    /// validated **before** anything is
    /// applied — an unknown, already-dead or duplicated tree rejects the whole
    /// batch with the repository unchanged. One generation bump per batch.
    pub fn delete_trees(&mut self, trees: &[TreeId]) -> Result<usize, LiveError> {
        if trees.is_empty() {
            return Err(LiveError::EmptyBatch);
        }
        for (i, &tid) in trees.iter().enumerate() {
            if tid.index() >= self.repo.tree_count() {
                return Err(LiveError::UnknownTree(tid));
            }
            if self.index.features().is_tree_dead(tid) {
                return Err(LiveError::AlreadyDeleted(tid));
            }
            if trees[..i].contains(&tid) {
                return Err(LiveError::DuplicateTree(tid));
            }
        }
        let generation = self.generation + 1;
        let mut dropped = 0;
        for &tid in trees {
            let postings = self
                .index
                .tombstone_tree(tid)
                .expect("batch was validated above");
            dropped += postings;
            self.log.records.push(IngestRecord {
                generation,
                op: IngestOp::Delete {
                    tree: tid,
                    postings_dropped: postings,
                },
            });
        }
        self.generation = generation;
        Ok(dropped)
    }

    /// Rewrite the posting arena without the postings of dead names.
    /// Physical-only: answers cannot change, so the generation does
    /// not move and caches keyed on it stay valid.
    pub fn compact(&mut self) -> usize {
        let reclaimed = self.index.compact();
        self.log.records.push(IngestRecord {
            generation: self.generation,
            op: IngestOp::Compact {
                postings_reclaimed: reclaimed,
            },
        });
        reclaimed
    }

    /// [`LiveRepository::compact`] iff the dead fraction of the posting arena
    /// has reached `threshold` (a fraction in `0.0..=1.0`; `1.0` effectively
    /// disables compaction, `0.0` compacts whenever anything is dead).
    pub fn maybe_compact(&mut self, threshold: f64) -> Option<usize> {
        if self.index.dead_postings() > 0 && self.index.dead_posting_fraction() >= threshold {
            Some(self.compact())
        } else {
            None
        }
    }

    /// Dead fraction of the posting arena — the compaction trigger input.
    pub fn dead_posting_fraction(&self) -> f64 {
        self.index.dead_posting_fraction()
    }

    /// The tombstoned trees, ascending. Persisted by snapshots and re-applied
    /// on load.
    pub fn tombstoned_trees(&self) -> &[TreeId] {
        self.index.tombstoned_trees()
    }

    /// Nodes that still answer queries (total minus tombstoned).
    pub fn alive_nodes(&self) -> usize {
        self.index.indexed_nodes()
    }

    /// Force the generation forward to `generation` without a content change —
    /// how a sharded router keeps *unmutated* shards in step with mutated ones
    /// so the mixed-generation merge guard keeps holding. Strictly monotonic:
    /// a non-advancing request is [`LiveError::StaleGeneration`].
    pub fn advance_generation(&mut self, generation: u64) -> Result<(), LiveError> {
        if generation <= self.generation {
            return Err(LiveError::StaleGeneration {
                current: self.generation,
                requested: generation,
            });
        }
        self.generation = generation;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CandidateScratch, LengthWindow, MergePolicy};
    use xsm_schema::{SchemaNode, TreeBuilder};

    fn tree(name: &str, fields: &[&str]) -> SchemaTree {
        let mut b = TreeBuilder::new(name).root(SchemaNode::element(fields[0]));
        for f in &fields[1..] {
            b = b.child(SchemaNode::element(*f));
        }
        b.build()
    }

    fn seed_repo() -> SchemaRepository {
        SchemaRepository::from_trees(vec![
            tree("t0", &["library", "book", "title"]),
            tree("t1", &["person", "name", "email"]),
            tree("t2", &["order", "item", "price"]),
        ])
    }

    /// The logical content of a live repository, rebuilt from scratch: alive
    /// trees keep their ids, tombstoned trees become empty placeholders (same
    /// id, zero nodes), appended trees are plain trees.
    fn rebuilt_oracle(live: &LiveRepository) -> NameIndex {
        let trees: Vec<SchemaTree> = live
            .repo()
            .trees()
            .map(|(tid, t)| {
                if live.index().features().is_tree_dead(tid) {
                    SchemaTree::new(t.name())
                } else {
                    t.clone()
                }
            })
            .collect();
        NameIndex::build(&SchemaRepository::from_trees(trees))
    }

    fn assert_matches_rebuild(live: &LiveRepository, queries: &[&str]) {
        let oracle = rebuilt_oracle(live);
        let mut scratch = CandidateScratch::default();
        assert_eq!(live.index().indexed_nodes(), oracle.indexed_nodes());
        for name in queries {
            assert_eq!(
                live.index().lookup_exact(name),
                oracle.lookup_exact(name),
                "exact lookup diverged for {name:?}"
            );
            let mut candidates = |index: &NameIndex| {
                index
                    .lookup_candidates_resolved(
                        &index.resolve_query(name),
                        0.5,
                        LengthWindow::Infinite,
                        MergePolicy::Auto,
                        &mut scratch,
                    )
                    .0
            };
            let (got, want) = (candidates(live.index()), candidates(&oracle));
            assert_eq!(got, want, "candidates diverged for {name:?}");
            assert_eq!(
                live.index().estimate_candidate_volume(name),
                oracle.estimate_candidate_volume(name),
                "volume estimate diverged for {name:?}"
            );
        }
    }

    const QUERIES: &[&str] = &[
        "library", "book", "title", "person", "name", "email", "order", "item", "price",
        "customer", "status", "nam", "boo",
    ];

    #[test]
    fn append_extends_without_touching_existing_entries() {
        let mut live = LiveRepository::build(seed_repo());
        let before_exact: Vec<_> = live.index().lookup_exact("book").to_vec();
        let ids = live
            .append_trees(vec![tree("t3", &["customer", "name", "status"])])
            .unwrap();
        assert_eq!(ids, vec![TreeId(3)]);
        assert_eq!(live.generation(), 1);
        assert_eq!(live.repo().tree_count(), 4);
        // Existing postings are untouched.
        assert_eq!(live.index().lookup_exact("book"), &before_exact[..]);
        // The new tree is queryable and equals a from-scratch rebuild.
        assert!(!live.index().lookup_exact("customer").is_empty());
        assert_matches_rebuild(&live, QUERIES);
    }

    #[test]
    fn delete_tombstones_and_matches_rebuild() {
        let mut live = LiveRepository::build(seed_repo());
        let dropped = live.delete_trees(&[TreeId(1)]).unwrap();
        assert!(dropped > 0);
        assert_eq!(live.generation(), 1);
        assert_eq!(live.tombstoned_trees(), &[TreeId(1)]);
        assert!(live.index().lookup_exact("person").is_empty());
        assert!(live.dead_posting_fraction() > 0.0);
        assert_matches_rebuild(&live, QUERIES);
    }

    #[test]
    fn interleaved_mutations_with_compaction_match_rebuild() {
        let mut live = LiveRepository::build(seed_repo());
        live.append_trees(vec![
            tree("t3", &["customer", "name", "status"]),
            tree("t4", &["invoice", "total", "price"]),
        ])
        .unwrap();
        live.delete_trees(&[TreeId(0), TreeId(3)]).unwrap();
        assert_matches_rebuild(&live, QUERIES);
        let dead = live.index().dead_postings();
        assert!(dead > 0);
        let reclaimed = live.compact();
        assert_eq!(reclaimed, dead);
        assert_eq!(live.index().dead_postings(), 0);
        assert_matches_rebuild(&live, QUERIES);
        // Mutations keep working after a compaction.
        live.append_trees(vec![tree("t5", &["person", "name"])])
            .unwrap();
        live.delete_trees(&[TreeId(4)]).unwrap();
        assert_matches_rebuild(&live, QUERIES);
        assert_eq!(live.generation(), 4);
    }

    #[test]
    fn maybe_compact_honours_the_threshold() {
        let mut live = LiveRepository::build(seed_repo());
        assert_eq!(live.maybe_compact(0.0), None, "nothing dead yet");
        live.delete_trees(&[TreeId(2)]).unwrap();
        let fraction = live.dead_posting_fraction();
        assert_eq!(live.maybe_compact(fraction + 0.1), None, "below threshold");
        assert!(live.maybe_compact(fraction).is_some(), "at threshold");
        assert_eq!(live.index().dead_postings(), 0);
    }

    #[test]
    fn batches_are_validated_atomically() {
        let mut live = LiveRepository::build(seed_repo());
        assert_eq!(live.append_trees(vec![]), Err(LiveError::EmptyBatch));
        assert_eq!(live.delete_trees(&[]), Err(LiveError::EmptyBatch));
        assert_eq!(
            live.delete_trees(&[TreeId(1), TreeId(9)]),
            Err(LiveError::UnknownTree(TreeId(9)))
        );
        assert_eq!(
            live.delete_trees(&[TreeId(1), TreeId(1)]),
            Err(LiveError::DuplicateTree(TreeId(1)))
        );
        // The failed batches changed nothing.
        assert_eq!(live.generation(), 0);
        assert!(live.tombstoned_trees().is_empty());
        live.delete_trees(&[TreeId(1)]).unwrap();
        assert_eq!(
            live.delete_trees(&[TreeId(1)]),
            Err(LiveError::AlreadyDeleted(TreeId(1)))
        );
        assert_eq!(live.generation(), 1);
    }

    #[test]
    fn generations_are_strictly_monotonic() {
        let mut live = LiveRepository::build(seed_repo());
        live.advance_generation(5).unwrap();
        assert_eq!(live.generation(), 5);
        assert_eq!(
            live.advance_generation(5),
            Err(LiveError::StaleGeneration {
                current: 5,
                requested: 5
            })
        );
        live.append_trees(vec![tree("t3", &["a", "b"])]).unwrap();
        assert_eq!(live.generation(), 6);
    }

    #[test]
    fn the_log_records_every_operation_in_order() {
        let mut live = LiveRepository::build(seed_repo());
        assert!(live.log().is_empty());
        live.append_trees(vec![tree("t3", &["customer"])]).unwrap();
        live.delete_trees(&[TreeId(0)]).unwrap();
        live.compact();
        let records = live.log().records();
        assert_eq!(records.len(), 3);
        assert!(matches!(
            records[0].op,
            IngestOp::Append {
                tree: TreeId(3),
                nodes: 1
            }
        ));
        assert_eq!(records[0].generation, 1);
        assert!(matches!(
            records[1].op,
            IngestOp::Delete {
                tree: TreeId(0),
                ..
            }
        ));
        assert_eq!(records[1].generation, 2);
        assert!(matches!(records[2].op, IngestOp::Compact { .. }));
        assert_eq!(records[2].generation, 2, "compaction is generation-neutral");
        assert_eq!(live.log().last(), Some(&records[2]));
    }
}
