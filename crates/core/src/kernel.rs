//! The flat, tree-local kernel of the adapted k-means: Algorithm 1 over index ranges.
//!
//! [`crate::KMeansClusterer::cluster`] sorts a query's mapping elements by tree once
//! into one contiguous arena and hands each tree's range to
//! [`TreeKernel::cluster_tree`]. Inside a tree nothing is keyed by id and nothing is
//! cloned before the output:
//!
//! * every distinct repository node of the range becomes a **slot** (`u32`,
//!   ascending with the node id), and every entry of the range knows its slot;
//! * the seeds are `ME_min`'s: the slots of the tree's first smallest personal list
//!   (a list with no entry in the tree seeds nothing), found by counting the range;
//! * an assignment is one `u32` per slot (an index into the ascending centroid
//!   slots), clusters are ranges over a slot array built by counting sort
//!   ([`FlatClusters`]), and the join step is a union-find over `u32` cluster indexes;
//! * path lengths come from one virtual tree per seeded tree, built once per query
//!   from the tree's labelling ([`SlotPaths`]): the assignment is one
//!   nearest-centroid sweep pair per pass and a medoid one count-and-sum sweep pair
//!   per cluster, so the labelling is asked about once per slot, plus the join
//!   step's medoid pairs and any medoid too large to sum over every member (a tree
//!   no seed falls into builds nothing);
//! * all of these buffers live in one [`Scratch`] that the next tree reuses and that
//!   only grows, so a forest of hundreds of tiny trees allocates per *query*, not
//!   per tree, node or iteration. The only allocations past the scratch are the
//!   outputs, made once, after the tree has converged: per final cluster its member
//!   list and its scope, which one walk over the tree's range fills in the
//!   candidate set's own order. `tests/clustering_allocations.rs` pins both claims.
//!
//! Two shortcuts skip passes whose outcome is already known; both leave the clusters
//! *and* the statistics exactly as the straightforward loop would:
//!
//! * an iteration whose reclustered centroids equal the centroids it assigned to is a
//!   fixed point: every later iteration repeats it (no element moves, the cluster
//!   count holds), so the remaining iterations are only *recorded* until the
//!   convergence test fires, and
//! * the final rebuild after such an iteration would recompute the very clusters the
//!   iteration formed before its remove step — they are kept, not rebuilt.
//!
//! The straightforward, clone-based formulation of the same algorithm lives in
//! `tests/oracle` and is compared against this kernel, clusters, scopes and
//! statistics, by `tests/kmeans_equivalence.rs`.

use xsm_matcher::{CandidateSet, MappingElement};
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, NodeId};

use crate::cluster::{Cluster, ClusterSet};
use crate::config::{ClusteringConfig, ReclusterStrategy};
use crate::convergence::ConvergenceTracker;
use crate::distance::SlotPaths;
use crate::kmeans::KMeansStats;

/// The assignment of a slot no centroid can reach, and the label of a slot outside
/// every cluster. Slots, centroid indexes and cluster indexes all count mapping
/// elements of one query, far below `u32::MAX`.
const NONE: u32 = u32::MAX;

/// One mapping element of the arena, with the index of the per-node list of the
/// candidate set it came from.
pub(crate) struct Entry {
    pub(crate) list: u32,
    pub(crate) element: MappingElement,
}

/// The clusters of one tree as ranges over node slots: cluster `q` owns
/// `members[start[q]..start[q + 1]]` (ascending slots), was grouped under `label[q]`
/// (clusters ascend by label) and has the medoid slot `centroid[q]`.
#[derive(Default)]
struct FlatClusters {
    start: Vec<u32>,
    members: Vec<u32>,
    label: Vec<u32>,
    centroid: Vec<u32>,
}

impl FlatClusters {
    fn len(&self) -> usize {
        self.label.len()
    }

    fn members(&self, q: usize) -> &[u32] {
        &self.members[self.start[q] as usize..self.start[q + 1] as usize]
    }

    /// Regroup by counting sort: one cluster per label below `label_count` that some
    /// slot carries, `NONE` slots left out. `centroid` is left empty for the caller
    /// to fill, one per cluster; `cursor` is scratch.
    fn group(&mut self, labels: &[u32], label_count: usize, cursor: &mut Vec<u32>) {
        cursor.clear();
        cursor.resize(label_count, 0);
        for &label in labels {
            if label != NONE {
                cursor[label as usize] += 1;
            }
        }
        self.start.clear();
        self.label.clear();
        self.centroid.clear();
        let mut offset = 0u32;
        for (label, slots) in cursor.iter_mut().enumerate() {
            if *slots > 0 {
                self.start.push(offset);
                self.label.push(label as u32);
                offset += std::mem::replace(slots, offset);
            }
        }
        self.start.push(offset);
        self.members.clear();
        self.members.resize(offset as usize, 0);
        for (slot, &label) in labels.iter().enumerate() {
            if label != NONE {
                let at = &mut cursor[label as usize];
                self.members[*at as usize] = slot as u32;
                *at += 1;
            }
        }
    }
}

/// Root of `i` in the union-find forest, halving the path on the way up.
fn find(parent: &mut [u32], mut i: u32) -> u32 {
    while parent[i as usize] != i {
        parent[i as usize] = parent[parent[i as usize] as usize];
        i = parent[i as usize];
    }
    i
}

/// Element-wise `acc[i] += add[i]`, growing `acc` to `add`'s length: merges the
/// per-iteration histories of trees that converged after different iteration counts.
fn accumulate(acc: &mut Vec<usize>, add: &[usize]) {
    if acc.len() < add.len() {
        acc.resize(add.len(), 0);
    }
    for (a, &b) in acc.iter_mut().zip(add) {
        *a += b;
    }
}

/// Every buffer one tree's clustering needs, kept across trees.
#[derive(Default)]
struct Scratch<'a> {
    /// Entry of the tree's range → its slot.
    slot_of: Vec<u32>,
    /// `node << 32 | entry` over the range, sorted: how slots are numbered.
    keys: Vec<u64>,
    /// Slot → node, ascending.
    node_ids: Vec<NodeId>,
    /// Personal list → how many entries of the range it holds.
    list_len: Vec<u32>,
    /// Path lengths among the slots.
    paths: SlotPaths<'a>,
    /// The centroid slots the next pass assigns to, ascending and distinct.
    centroids: Vec<u32>,
    /// The centroid slots the previous pass assigned to.
    prev_centroids: Vec<u32>,
    next_centroids: Vec<u32>,
    /// Slot → index into `centroids` (or `NONE`), as the latest pass chose.
    assigned: Vec<u32>,
    /// Slot → index into `prev_centroids` (or `NONE`), as the pass before chose.
    prev_assigned: Vec<u32>,
    /// What the latest pass built, and what its join step made of that (valid only
    /// when the pass reported a join).
    built: FlatClusters,
    joined: FlatClusters,
    parent: Vec<u32>,
    /// Slot → a mark: `ME_min`'s, then the join's union root, then the output
    /// cluster.
    labels: Vec<u32>,
    cursor: Vec<u32>,
    tracker: ConvergenceTracker,
    /// One output cluster's scope, filled here and cloned out at its exact size.
    scope: CandidateSet,
}

impl Scratch<'_> {
    /// Load one tree's range: number its distinct nodes as slots, ascending, and
    /// give every entry its slot.
    fn load(&mut self, entries: &[Entry]) {
        self.keys.clear();
        self.keys.extend(
            entries
                .iter()
                .enumerate()
                .map(|(i, entry)| (u64::from(entry.element.repo.node.0) << 32) | i as u64),
        );
        self.keys.sort_unstable();
        self.node_ids.clear();
        self.slot_of.clear();
        self.slot_of.resize(entries.len(), 0);
        for &key in &self.keys {
            let node = NodeId((key >> 32) as u32);
            if self.node_ids.last() != Some(&node) {
                self.node_ids.push(node);
            }
            self.slot_of[key as u32 as usize] = (self.node_ids.len() - 1) as u32;
        }
    }

    /// Line 1, `ME_min`: "Bellflower initializes centroids by declaring all the
    /// elements of ME_min as centroids" — the slots of the tree's first smallest
    /// personal list, ascending and distinct, into `centroids`. A list with no entry
    /// in the tree is the smallest and seeds nothing.
    fn seed(&mut self, entries: &[Entry]) {
        self.list_len.fill(0);
        for entry in entries {
            self.list_len[entry.list as usize] += 1;
        }
        self.centroids.clear();
        let smallest = (0..self.list_len.len()).min_by_key(|&list| self.list_len[list]);
        let Some(smallest) = smallest.filter(|&list| self.list_len[list] > 0) else {
            return;
        };
        self.labels.clear();
        self.labels.resize(self.node_ids.len(), NONE);
        for (entry, &slot) in entries.iter().zip(&self.slot_of) {
            if entry.list as usize == smallest {
                self.labels[slot as usize] = 0;
            }
        }
        let seeds = (0..self.labels.len() as u32).filter(|&slot| self.labels[slot as usize] == 0);
        self.centroids.extend(seeds);
    }

    /// Lines 3–8: assign every slot to its nearest centroid — centroids ascend, so
    /// a tie stays with the smaller one. Returns how many slots now follow a
    /// different centroid than after the previous pass.
    fn assign(&mut self) -> usize {
        self.paths
            .spread(self.centroids.iter().map(|&slot| slot as usize));
        self.assigned.clear();
        let mut moved = 0;
        for slot in 0..self.node_ids.len() {
            let chosen = self.paths.nearest(slot).map_or(NONE, |(_, index)| index);
            let stayed = match (self.prev_assigned[slot], chosen) {
                (NONE, NONE) => true,
                (NONE, _) | (_, NONE) => false,
                (before, now) => {
                    self.prev_centroids[before as usize] == self.centroids[now as usize]
                }
            };
            moved += usize::from(!stayed);
            self.assigned.push(chosen);
        }
        moved
    }

    /// Line 9: one cluster per centroid that attracted a slot, each with its medoid.
    fn build(&mut self) {
        self.built
            .group(&self.assigned, self.centroids.len(), &mut self.cursor);
        for q in 0..self.built.len() {
            let medoid = self.paths.medoid(self.built.members(q), &self.node_ids);
            self.built.centroid.push(medoid);
        }
    }

    /// Line 10, join: unite built clusters whose medoids lie within `join_distance`
    /// of each other, transitively, into `joined` — ordered by the smallest built
    /// cluster of each union, members ascending, medoid recomputed where clusters
    /// actually merged. Returns `false`, leaving `joined` stale, when nothing merged.
    fn join(&mut self, join_distance: u32) -> bool {
        let n = self.built.len();
        if n <= 1 {
            return false;
        }
        self.parent.clear();
        self.parent.extend(0..n as u32);
        let mut merged = false;
        for i in 0..n {
            for j in (i + 1)..n {
                let a = self.node_ids[self.built.centroid[i] as usize];
                let b = self.node_ids[self.built.centroid[j] as usize];
                if self
                    .paths
                    .distance(a, b)
                    .is_some_and(|d| d <= join_distance)
                {
                    let ri = find(&mut self.parent, i as u32);
                    let rj = find(&mut self.parent, j as u32);
                    if ri != rj {
                        self.parent[ri.max(rj) as usize] = ri.min(rj);
                        merged = true;
                    }
                }
            }
        }
        if !merged {
            return false;
        }
        self.labels.clear();
        self.labels.resize(self.node_ids.len(), NONE);
        for q in 0..n {
            let root = find(&mut self.parent, q as u32);
            for &slot in self.built.members(q) {
                self.labels[slot as usize] = root;
            }
        }
        self.joined.group(&self.labels, n, &mut self.cursor);
        for q in 0..self.joined.len() {
            let root = self.joined.label[q] as usize;
            let members = self.joined.members(q);
            // A union of one cluster kept its members, hence its medoid.
            let medoid = if members.len() == self.built.members(root).len() {
                self.built.centroid[root]
            } else {
                self.paths.medoid(members, &self.node_ids)
            };
            self.joined.centroid.push(medoid);
        }
        true
    }

    /// One pass of lines 3–10 short of the remove step. Returns the moved count and
    /// whether the pass's clusters are in `joined` (else in `built`).
    fn pass(&mut self, config: &ClusteringConfig) -> (usize, bool) {
        let moved = self.assign();
        self.build();
        let joined = config.recluster != ReclusterStrategy::None && self.join(config.join_distance);
        (moved, joined)
    }

    /// The converged tree's output: one [`Cluster`] per final cluster, its scope
    /// filled by one walk over the range. The range is in the candidate set's list
    /// order, so keeping the members' entries restricts the set to the cluster.
    fn emit(&mut self, entries: &[Entry], joined: bool, out: &mut ClusterSet) {
        let clusters = if joined { &self.joined } else { &self.built };
        self.labels.clear();
        self.labels.resize(self.node_ids.len(), NONE);
        for q in 0..clusters.len() {
            for &slot in clusters.members(q) {
                self.labels[slot as usize] = q as u32;
            }
        }
        let tree = entries[0].element.repo.tree;
        let node = |slot: u32| GlobalNodeId::new(tree, self.node_ids[slot as usize]);
        for q in 0..clusters.len() {
            self.scope.clear();
            for (entry, &slot) in entries.iter().zip(&self.slot_of) {
                if self.labels[slot as usize] == q as u32 {
                    self.scope.push_at(entry.list as usize, entry.element);
                }
            }
            out.clusters.push(Cluster {
                tree,
                centroid: node(clusters.centroid[q]),
                members: clusters.members(q).iter().map(|&slot| node(slot)).collect(),
                scope: self.scope.clone(),
            });
        }
    }
}

/// Algorithm 1 for one repository tree at a time, over buffers shared by all of them.
pub(crate) struct TreeKernel<'a> {
    repo: &'a SchemaRepository,
    config: &'a ClusteringConfig,
    scratch: Scratch<'a>,
}

impl<'a> TreeKernel<'a> {
    pub(crate) fn new(
        repo: &'a SchemaRepository,
        config: &'a ClusteringConfig,
        personal_nodes: &[NodeId],
    ) -> Self {
        TreeKernel {
            repo,
            config,
            scratch: Scratch {
                list_len: vec![0; personal_nodes.len()],
                scope: CandidateSet::new(personal_nodes.to_vec()),
                ..Scratch::default()
            },
        }
    }

    /// Cluster the mapping elements of one tree (`entries`: non-empty, one tree, in
    /// candidate-set order), appending its clusters to `out` and folding its
    /// statistics into `stats`.
    pub(crate) fn cluster_tree(
        &mut self,
        entries: &[Entry],
        out: &mut ClusterSet,
        stats: &mut KMeansStats,
    ) {
        let (repo, config) = (self.repo, self.config);
        let s = &mut self.scratch;
        let tree = entries[0].element.repo.tree;
        s.load(entries);
        let n = s.node_ids.len();
        stats.total_nodes += n;

        // Line 1: initialise centroids.
        s.seed(entries);
        stats.initial_centroids += s.centroids.len();
        if s.centroids.is_empty() {
            // Nothing to anchor clusters on: every node stays unassigned.
            stats.unassigned_nodes += n;
            return;
        }
        s.paths
            .build(repo.labeling(tree), s.node_ids.iter().copied());

        let remove_below = match config.recluster {
            ReclusterStrategy::JoinAndRemove => config.remove_min_size,
            _ => 0,
        };
        s.tracker.reset();
        s.prev_centroids.clear();
        s.prev_assigned.clear();
        s.prev_assigned.resize(n, NONE);
        // Whether the latest pass assigned to the centroids the loop ended on, and
        // where it left its clusters.
        let (mut settled, mut joined) = (false, false);
        while s.tracker.iterations() < config.max_iterations {
            let moved;
            (moved, joined) = s.pass(config);

            // Line 10, remove: clusters below the minimum size seed nothing, so
            // their members are free to join a neighbour in the next pass. The
            // clusters themselves stay as built — the final rebuild never removes.
            let clusters = if joined { &s.joined } else { &s.built };
            s.next_centroids.clear();
            for q in 0..clusters.len() {
                if clusters.members(q).len() >= remove_below {
                    s.next_centroids.push(clusters.centroid[q]);
                }
            }
            let cluster_count = s.next_centroids.len();
            s.next_centroids.sort_unstable();
            settled = s.next_centroids == s.centroids;
            std::mem::swap(&mut s.prev_assigned, &mut s.assigned);
            std::mem::swap(&mut s.prev_centroids, &mut s.centroids);
            std::mem::swap(&mut s.centroids, &mut s.next_centroids);

            // Line 11: convergence.
            if s.tracker.observe(moved, n, cluster_count, config) || s.centroids.is_empty() {
                break;
            }
            if settled {
                // A fixed point: from here on every iteration reproduces this
                // assignment (nothing moves) and these clusters. When seeding was
                // already the fixed point the loop ends here; otherwise the
                // repeats are recorded, not run, until the criteria fire.
                let seeded_fixed_point = s.tracker.iterations() == 1;
                while !seeded_fixed_point && s.tracker.iterations() < config.max_iterations {
                    if s.tracker.observe(0, n, cluster_count, config) {
                        break;
                    }
                }
                break;
            }
        }

        // Final pass: rebuild clusters from the final centroids so that members freed
        // by a trailing remove step get one last chance to join a surviving cluster.
        // After a settled pass that is the pass itself, clusters and assignment.
        if settled {
            std::mem::swap(&mut s.prev_assigned, &mut s.assigned);
        } else {
            (_, joined) = s.pass(config);
        }
        s.emit(entries, joined, out);
        stats.unassigned_nodes += s.assigned.iter().filter(|&&a| a == NONE).count();
        stats.labelling_queries += s.paths.take_queries();
        stats.iterations = stats.iterations.max(s.tracker.iterations());
        accumulate(&mut stats.moved_per_iteration, &s.tracker.moved_history);
        accumulate(
            &mut stats.clusters_per_iteration,
            &s.tracker.cluster_history,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::TreeId;

    /// The nodes `ME_min` seeds among one tree's entries, given as `(list, node)`
    /// in list order over `lists` personal lists.
    fn seeds(lists: usize, entries: &[(u32, u32)]) -> Vec<u32> {
        let entries: Vec<Entry> = entries
            .iter()
            .map(|&(list, node)| Entry {
                list,
                element: MappingElement::new(
                    NodeId(list),
                    GlobalNodeId::new(TreeId(0), NodeId(node)),
                    0.5,
                ),
            })
            .collect();
        let mut s = Scratch {
            list_len: vec![0; lists],
            ..Scratch::default()
        };
        s.load(&entries);
        s.seed(&entries);
        s.centroids
            .iter()
            .map(|&slot| s.node_ids[slot as usize].0)
            .collect()
    }

    #[test]
    fn the_smallest_list_seeds() {
        let entries = [
            (0, 5),
            (0, 1),
            (0, 7),
            (1, 9),
            (1, 3),
            (2, 1),
            (2, 2),
            (2, 3),
        ];
        assert_eq!(
            seeds(3, &entries),
            vec![3, 9],
            "ascending, whatever the list order"
        );
    }

    #[test]
    fn the_first_smallest_list_wins_a_tie() {
        let entries = [(0, 5), (0, 1), (0, 7), (1, 9), (1, 3), (2, 4), (2, 2)];
        assert_eq!(seeds(3, &entries), vec![3, 9]);
    }

    #[test]
    fn a_list_with_no_entry_in_the_tree_seeds_nothing() {
        assert_eq!(seeds(3, &[(0, 5), (0, 6), (2, 4)]), Vec::<u32>::new());
        assert_eq!(seeds(2, &[(1, 5)]), Vec::<u32>::new());
    }

    #[test]
    fn a_shared_candidate_seeds_once() {
        // Node 3 is a candidate of both lists, and list 0's only one.
        assert_eq!(seeds(2, &[(0, 3), (1, 3), (1, 4)]), vec![3]);
        // A list naming one node twice seeds it once.
        assert_eq!(seeds(2, &[(0, 3), (0, 3), (1, 3), (1, 4), (1, 5)]), vec![3]);
    }

    #[test]
    fn group_orders_clusters_by_label_and_members_by_slot() {
        let mut clusters = FlatClusters::default();
        let mut cursor = Vec::new();
        clusters.group(&[2, NONE, 0, 2, 0], 4, &mut cursor);
        assert_eq!(clusters.len(), 2, "labels 1 and 3 attracted nothing");
        assert_eq!(clusters.label, vec![0, 2]);
        assert_eq!(clusters.members(0), &[2, 4]);
        assert_eq!(clusters.members(1), &[0, 3]);
        clusters.group(&[NONE, NONE], 1, &mut cursor);
        assert_eq!(clusters.len(), 0);
    }

    /// One pass over the named nodes of the paper's repository fragment, every
    /// node seeding its own centroid.
    fn pass_over<'a>(
        repo: &'a SchemaRepository,
        names: &[&str],
        join_distance: u32,
    ) -> (Scratch<'a>, bool, Vec<NodeId>) {
        let tree = repo.tree(TreeId(0)).unwrap();
        let mut nodes: Vec<NodeId> = names
            .iter()
            .map(|name| tree.find_by_name(name).unwrap())
            .collect();
        nodes.sort();
        let mut s = Scratch {
            node_ids: nodes.clone(),
            prev_assigned: vec![NONE; nodes.len()],
            ..Scratch::default()
        };
        s.paths
            .build(repo.labeling(TreeId(0)), nodes.iter().copied());
        s.centroids = (0..nodes.len() as u32).collect();
        let config = ClusteringConfig::default()
            .with_recluster(ReclusterStrategy::Join)
            .with_join_distance(join_distance);
        let (moved, joined) = s.pass(&config);
        assert_eq!(moved, nodes.len(), "every node was unassigned before");
        (s, joined, nodes)
    }

    fn fig1() -> SchemaRepository {
        SchemaRepository::from_trees(vec![paper_repository_fragment()])
    }

    #[test]
    fn join_merges_nearby_clusters_only() {
        // title and authorName are 2 apart; address is 4 from title.
        let repo = fig1();
        let (s, joined, nodes) = pass_over(&repo, &["title", "authorName", "address"], 2);
        assert!(joined);
        assert_eq!(s.built.len(), 3);
        let mut sizes: Vec<usize> = (0..s.joined.len())
            .map(|q| s.joined.members(q).len())
            .collect();
        sizes.sort();
        assert_eq!(sizes, vec![1, 2]);
        // The merged medoid is a member of its cluster.
        for q in 0..s.joined.len() {
            assert!(s.joined.members(q).contains(&s.joined.centroid[q]));
            assert!((s.joined.centroid[q] as usize) < nodes.len());
        }
    }

    #[test]
    fn join_with_a_large_threshold_merges_the_whole_tree() {
        let repo = fig1();
        let (s, joined, nodes) = pass_over(
            &repo,
            &["title", "authorName", "shelf", "address", "book"],
            10,
        );
        assert!(joined);
        assert_eq!(s.joined.len(), 1);
        assert_eq!(s.joined.members(0).len(), nodes.len());
    }

    #[test]
    fn join_leaves_distant_or_lone_clusters_as_built() {
        let repo = fig1();
        let (_, joined, _) = pass_over(&repo, &["title", "address"], 2);
        assert!(!joined, "4 apart under a threshold of 2");
        let (s, joined, _) = pass_over(&repo, &["title"], 10);
        assert!(!joined);
        assert_eq!(s.built.len(), 1);
    }
}
