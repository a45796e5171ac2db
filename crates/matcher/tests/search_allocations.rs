//! What one branch-and-bound search allocates, counted by a global allocator that
//! this test binary alone installs. A search sets up a fixed set of buffers — the
//! list order, the ring keys, the slots and their distance memo, the per-slot
//! `used` flags, the partial mapping and the image ring with its gaps — each sized
//! once from the scope, and then searches without allocating: not per partial mapping, not per leaf, not per level. A
//! collector that wants no mapping (`TopMappings::new(0)`) has nothing built for
//! it, so the count is the same whatever the scope's size and depth.
//!
//! Allocations are counted on the calling thread only (fresh blocks and
//! reallocations), so the harness's other threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsm_matcher::generator::branch_and_bound::BranchAndBoundConfig;
use xsm_matcher::{
    BranchAndBoundGenerator, CandidateSet, GeneratorCounters, MappingElement, MappingGenerator,
    MatchingProblem, ObjectiveConfig, TopMappings,
};
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, NodeId, SchemaNode, SchemaTree, TreeId};

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

/// The nodes of the repository tree: room for the longest lists.
const TREE_NODES: usize = 420;

/// Partial mappings a search may create: the large scopes stop here, the small
/// ones finish first.
const CAP: u64 = 200_000;

/// A tree of `nodes` nodes, each attached to a random one of the `reach` nodes
/// before it.
fn random_tree(rng: &mut StdRng, name: &str, nodes: usize, reach: usize) -> SchemaTree {
    let mut tree = SchemaTree::new(name);
    let mut ids = vec![tree.add_root(SchemaNode::element("root")).unwrap()];
    for i in 1..nodes {
        let parent = ids[ids.len() - 1 - rng.gen_range(0..reach.min(ids.len()))];
        ids.push(
            tree.add_child(parent, SchemaNode::element(format!("n{i}")))
                .unwrap(),
        );
    }
    tree
}

/// A personal schema of `personal` nodes and a sorted scope in which every list
/// holds `per_list` distinct nodes of the one repository tree, similarities on a
/// coarse grid: lists share images, and at δ = 0.5 the search both retains
/// mappings and prunes sorted tails of its last lists.
fn case(
    seed: u64,
    personal: usize,
    per_list: usize,
) -> (MatchingProblem, SchemaRepository, CandidateSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = random_tree(&mut rng, "personal", personal, 2);
    let repo = SchemaRepository::from_trees(vec![random_tree(&mut rng, "t", TREE_NODES, 4)]);
    let mut scope = CandidateSet::new(schema.preorder());
    for p in schema.preorder() {
        let first = rng.gen_range(0..TREE_NODES - per_list);
        for node in first..first + per_list {
            let image = GlobalNodeId::new(TreeId(0), NodeId(node as u32));
            let similarity = rng.gen_range(6..21) as f64 * 0.05;
            scope.push(MappingElement::new(p, image, similarity));
        }
    }
    scope.sort();
    let problem = MatchingProblem::new(schema, ObjectiveConfig::default(), 0.5);
    (problem, repo, scope)
}

/// One search of `scope` into a collector of none: its counters, and the
/// allocations it made.
fn search_allocations(
    problem: &MatchingProblem,
    repo: &SchemaRepository,
    scope: &CandidateSet,
) -> (GeneratorCounters, usize) {
    let generator = BranchAndBoundGenerator::with_config(BranchAndBoundConfig {
        max_partial_mappings: CAP,
        use_bounding: true,
    });
    let mut sink = TopMappings::new(0);
    let before = ALLOCATIONS.with(Cell::get);
    let counters = generator.generate_into(problem, repo, scope, &mut sink);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (counters, allocations)
}

#[test]
fn a_search_allocates_a_fixed_set_of_buffers_whatever_the_scope() {
    let mut counts = Vec::new();
    for (seed, personal, per_list) in [(1, 3, 20), (2, 3, 400), (3, 6, 20), (4, 6, 400)] {
        let (problem, repo, scope) = case(seed, personal, per_list);
        let (counters, allocations) = search_allocations(&problem, &repo, &scope);
        // The search went down to its leaves, kept some of them and cut some.
        assert!(counters.complete_mappings > 0, "{personal} × {per_list}");
        assert!(counters.retained_mappings > 0, "{personal} × {per_list}");
        assert!(counters.pruned_branches > 0, "{personal} × {per_list}");
        counts.push((personal, per_list, allocations));
    }
    let first = counts[0].2;
    assert!(
        counts
            .iter()
            .all(|&(_, _, allocations)| allocations == first),
        "allocations per search (personal nodes, candidates per list, count): {counts:?}"
    );
}
