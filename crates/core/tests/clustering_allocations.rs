//! What `KMeansClusterer::cluster` allocates, counted by a global allocator that
//! this test binary alone installs. The stage allocates per *query* and per final
//! cluster — its member list and its scope — and never per tree or per node: a
//! served query touches hundreds of trees holding a few candidate nodes each.
//!
//! Allocations are counted on the calling thread only (fresh blocks and
//! reallocations), so the harness's other threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsm_core::{ClusteringConfig, KMeansClusterer};
use xsm_matcher::{CandidateSet, MappingElement};
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, NodeId, SchemaNode, SchemaTree};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn counted() {
    // A thread being torn down has no counter left; it is not under test.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged, so `System`'s guarantees are
// this allocator's. Counting touches only a const-initialised thread-local `Cell`
// with no destructor, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller's guarantees for `alloc` hold for `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller's guarantees for `alloc_zeroed` hold for `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller's guarantees for `realloc` hold for `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Personal-schema nodes of every query here.
const PERSONAL: u32 = 3;

/// The nodes of the largest tree.
const MAX_NODES: usize = 12;

/// Clustering `candidates`: the cluster count, and the allocations the call made.
fn cluster_allocations(repo: &SchemaRepository, candidates: &CandidateSet) -> (usize, usize) {
    let clusterer = KMeansClusterer::new(ClusteringConfig::default());
    let before = ALLOCATIONS.with(Cell::get);
    let (set, _) = clusterer.cluster(repo, candidates);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (set.len(), allocations)
}

/// A forest of `seeded` trees followed by `seedless` ones, and its candidates. Every
/// personal node has a candidate in a seeded tree; personal node 2 has none in a
/// seedless tree, so `ME_min` seeds nothing there. The first tree is the largest,
/// `MAX_NODES` nodes with every node a candidate of every personal node, so no
/// later tree is larger in nodes or in mapping elements.
fn forest(seed: u64, seeded: usize, seedless: usize) -> (SchemaRepository, CandidateSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees = Vec::new();
    for index in 0..seeded + seedless {
        let nodes = if index == 0 {
            MAX_NODES
        } else {
            rng.gen_range(1..=MAX_NODES)
        };
        let mut tree = SchemaTree::new(format!("t{index}"));
        let mut ids = vec![tree.add_root(SchemaNode::element("root")).unwrap()];
        for i in 1..nodes {
            let parent = ids[rng.gen_range(0..ids.len())];
            ids.push(
                tree.add_child(parent, SchemaNode::element(format!("n{i}")))
                    .unwrap(),
            );
        }
        trees.push(tree);
    }
    let repo = SchemaRepository::from_trees(trees);
    let mut candidates = CandidateSet::new((0..PERSONAL).map(NodeId).collect());
    for (tree, schema) in repo.trees() {
        let index = tree.0 as usize;
        let lists = if index < seeded { PERSONAL } else { 2 };
        for node in schema.node_ids() {
            for p in 0..lists {
                // The root is a candidate of every list the tree holds.
                if index == 0 || node.0 == 0 || rng.gen_range(0..3) > 0 {
                    let similarity = rng.gen_range(10..21) as f64 * 0.05;
                    let element =
                        MappingElement::new(NodeId(p), GlobalNodeId::new(tree, node), similarity);
                    candidates.push(element);
                }
            }
        }
    }
    candidates.sort();
    (repo, candidates)
}

#[test]
fn the_first_call_on_a_fresh_repository_allocates_as_often_as_the_second() {
    // Nothing the repository holds is built on a first query: the first of two
    // identical calls allocates exactly as often as the second.
    for seed in 0..4 {
        let (repo, candidates) = forest(seed, 40, 60);
        let (first_clusters, first) = cluster_allocations(&repo, &candidates);
        let (clusters, second) = cluster_allocations(&repo, &candidates);
        assert_eq!(clusters, first_clusters);
        assert_eq!(
            first, second,
            "seed {seed}: {first} allocations on the first call, {second} on the second"
        );
    }
}

#[test]
fn seedless_trees_allocate_nothing() {
    for seed in 0..8 {
        let (seeded, seedless) = (40, 60);
        let (repo, candidates) = forest(seed, seeded, seedless);
        let base = candidates.restrict(|m| (m.repo.tree.0 as usize) < seeded);
        // Past a few hundred mapping elements the arena's stable sort takes its
        // buffer from the heap, once per query; both sets are past that.
        assert!(base.total_candidates() > 256);
        assert!(base.trees().len() == seeded && candidates.trees().len() == seeded + seedless);

        let (base_clusters, base_allocations) = cluster_allocations(&repo, &base);
        let (clusters, allocations) = cluster_allocations(&repo, &candidates);
        assert_eq!(clusters, base_clusters, "seedless trees form no cluster");
        assert_eq!(
            allocations, base_allocations,
            "seed {seed}: {allocations} allocations with {seedless} seedless trees, \
             {base_allocations} without"
        );
    }
}

#[test]
fn allocations_are_a_constant_plus_a_fixed_amount_per_cluster() {
    // Per final cluster: its member list, its scope's personal nodes, its list of
    // lists and each non-empty list.
    const PER_CLUSTER: usize = 3 + PERSONAL as usize;
    // The per-query rest: the arena and its sort, the scratch buffers growing to the
    // largest tree, the statistics' histories growing to the iteration cap, and the
    // cluster list's doublings.
    const PER_QUERY: usize = 128;
    for (seed, trees) in [(1, 4), (2, 32), (3, 256), (4, 1024)] {
        let (repo, candidates) = forest(seed, trees * 3 / 4, trees / 4);
        let (clusters, allocations) = cluster_allocations(&repo, &candidates);
        assert!(
            allocations <= PER_QUERY + PER_CLUSTER * clusters,
            "{trees} trees, {clusters} clusters: {allocations} allocations, more than \
             {PER_QUERY} + {PER_CLUSTER} per cluster"
        );
    }
}
