//! The flat k-means kernel against the straightforward formulation in `oracle/`,
//! both seeding every tree with its `ME_min`: identical clusters (centroids, member
//! order), every scope bit-identical to the oracle's restriction of the clustered
//! candidate set, the same unassigned nodes, and identical statistics (every
//! counter, both histories) — over random forests shaped like the served workloads
//! (hundreds of tiny trees, a few candidates each) and unlike them (one huge tree,
//! single-node trees, trees no seed falls into).
//!
//! The kernel reads its path lengths off one virtual tree per clustered tree; the
//! oracle asks the repository for every pair as an `f64`. Beside the served shapes
//! the forests hold what the sweeps must get exactly right: nodes the labelling
//! declines (seeds among them) and ids out of pre-order.
//!
//! Every scope the clusterer and `CandidateSet::split_by_tree` hand the generator
//! descends by similarity, list by list: the generator's bound and its counted
//! tails rely on it.
//!
//! The complexity claims are pinned as *work bounds*, not timings: the kernel's
//! `labelling_queries` counter and the oracle's call count show that the kernel
//! never asks more than the oracle, and that it asks about once per slot plus the
//! join step's medoid pairs.

mod oracle;

use oracle::{OracleClusterer, OracleResult};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsm_core::cluster::ClusterSet;
use xsm_core::config::ReclusterStrategy;
use xsm_core::{ClusteringConfig, KMeansClusterer, KMeansStats};
use xsm_matcher::{CandidateSet, MappingElement};
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, NodeId, SchemaNode, SchemaTree, TreeId};

const STRATEGIES: [ReclusterStrategy; 3] = [
    ReclusterStrategy::None,
    ReclusterStrategy::Join,
    ReclusterStrategy::JoinAndRemove,
];
const FLOORS: [f64; 2] = [0.5, 0.7];

/// A tree of `nodes` nodes, each attached to a random one of the `reach` nodes before
/// it (small reach → deep and chain-like, large reach → bushy).
fn random_tree(rng: &mut StdRng, index: usize, nodes: usize, reach: usize) -> SchemaTree {
    const NAMES: [&str; 8] = [
        "name", "names", "title", "author", "addr", "address", "email", "mail",
    ];
    let mut tree = SchemaTree::new(format!("t{index}"));
    let mut ids = vec![tree
        .add_root(SchemaNode::element("root"))
        .expect("first root")];
    for _ in 1..nodes {
        let parent = ids[ids.len() - 1 - rng.gen_range(0..reach.min(ids.len()))];
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        ids.push(
            tree.add_child(parent, SchemaNode::element(name))
                .expect("parent exists"),
        );
    }
    tree
}

/// A forest and a sorted candidate set over it. Similarities are drawn from a coarse
/// grid (so ties are common) and kept when they reach `floor`. `huge` adds one tree
/// of that many nodes in which the first personal node has at most three candidates,
/// so `ME_min` seeding forms clusters of hundreds of members.
fn random_forest(
    seed: u64,
    tiny_trees: usize,
    huge: usize,
    floor: f64,
) -> (SchemaRepository, CandidateSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    // The huge tree needs a second personal node to be dense in.
    let fewest = if huge > 0 { 2 } else { 1 };
    let personal: Vec<NodeId> = (0..rng.gen_range(fewest..5u32)).map(NodeId).collect();
    let mut trees = Vec::new();
    for i in 0..tiny_trees {
        // One in five trees is a single node; the rest hold up to 9, rarely 60.
        let nodes = match rng.gen_range(0..20) {
            0..=3 => 1,
            4 => rng.gen_range(20..60),
            _ => rng.gen_range(2..10),
        };
        let reach = rng.gen_range(1..6);
        trees.push(random_tree(&mut rng, i, nodes, reach));
    }
    if huge > 0 {
        trees.insert(tiny_trees / 2, random_tree(&mut rng, tiny_trees, huge, 12));
    }
    let repo = SchemaRepository::from_trees(trees);

    let mut candidates = CandidateSet::new(personal.clone());
    for (tree, schema) in repo.trees() {
        let is_huge = huge > 0 && schema.len() == huge;
        let rare: Vec<u32> = (0..rng.gen_range(1..4))
            .map(|_| rng.gen_range(0..schema.len() as u32))
            .collect();
        for node in schema.node_ids() {
            for &p in &personal {
                let similarity = rng.gen_range(6..21) as f64 * 0.05;
                let kept = if is_huge && p == NodeId(0) {
                    rare.contains(&node.0)
                } else {
                    similarity >= floor
                };
                if kept {
                    let repo_node = GlobalNodeId::new(tree, node);
                    candidates.push(MappingElement::new(p, repo_node, similarity));
                }
            }
        }
    }
    candidates.sort();
    (repo, candidates)
}

/// A configuration drawn from the knobs that shape the loop.
fn config(strategy: usize, join_distance: u32, knobs: u64) -> ClusteringConfig {
    let mut config = ClusteringConfig::default()
        .with_recluster(STRATEGIES[strategy])
        .with_join_distance(join_distance)
        .with_remove_min_size([1, 2, 2, 3, 5][(knobs % 5) as usize])
        .with_max_iterations([1, 2, 3, 12, 12, 12][(knobs / 5 % 6) as usize]);
    // A stability fraction nothing satisfies runs every tree to the iteration cap.
    if knobs / 30 % 4 == 0 {
        config.stability_fraction = -1.0;
    }
    config
}

type ElementBits = (NodeId, GlobalNodeId, u64);

fn bits(elements: &[MappingElement]) -> Vec<ElementBits> {
    elements
        .iter()
        .map(|m| (m.personal, m.repo, m.similarity.to_bits()))
        .collect()
}

/// The candidate nodes in no cluster, ascending.
fn unassigned(set: &ClusterSet, candidates: &CandidateSet) -> Vec<GlobalNodeId> {
    let mut members: Vec<GlobalNodeId> = set
        .clusters
        .iter()
        .flat_map(|c| c.members.iter().copied())
        .collect();
    members.sort();
    let mut nodes: Vec<GlobalNodeId> = candidates.iter().map(|m| m.repo).collect();
    nodes.sort();
    nodes.dedup();
    nodes.retain(|node| members.binary_search(node).is_err());
    nodes
}

/// Clusters, member order, scopes to the similarity bit, and unassigned nodes.
fn assert_sets_identical(kernel: &ClusterSet, oracle: &OracleResult, candidates: &CandidateSet) {
    assert_eq!(
        kernel.clusters.len(),
        oracle.set.clusters.len(),
        "cluster count"
    );
    for (a, b) in kernel.clusters.iter().zip(&oracle.set.clusters) {
        assert_eq!((a.tree, a.centroid), (b.tree, b.centroid));
        assert_eq!(a.members, b.members, "member order");
        assert_eq!(a.scope.personal_nodes(), b.scope.personal_nodes());
        for i in 0..b.scope.node_count() {
            assert_eq!(
                bits(a.scope.candidates_at(i)),
                bits(b.scope.candidates_at(i)),
                "scope"
            );
        }
    }
    assert_eq!(unassigned(kernel, candidates), oracle.unassigned);
}

fn assert_stats_identical(kernel: &KMeansStats, oracle: &KMeansStats) {
    let fields = |s: &KMeansStats| {
        (
            (s.initial_centroids, s.iterations, s.final_clusters),
            (s.unassigned_nodes, s.total_nodes),
            s.moved_per_iteration.clone(),
            s.clusters_per_iteration.clone(),
        )
    };
    assert_eq!(fields(kernel), fields(oracle));
}

/// Cluster with the kernel and with the oracle and hold the kernel to the oracle on
/// everything it returns.
fn assert_equivalent(repo: &SchemaRepository, candidates: &CandidateSet, config: ClusteringConfig) {
    let oracle = OracleClusterer::new(config).cluster(repo, candidates);
    let (set, stats) = KMeansClusterer::new(config).cluster(repo, candidates);
    assert_sets_identical(&set, &oracle, candidates);
    assert_stats_identical(&stats, &oracle.stats);
}

proptest! {
    #[test]
    fn kernel_equals_oracle_on_forests_of_tiny_trees(
        seed in 0u64..u64::MAX,
        trees in 1usize..48,
        shape in (0usize..3, 2u32..6, 0usize..2),
        knobs in 0u64..120,
    ) {
        let (strategy, join_distance, floor) = shape;
        let (repo, candidates) = random_forest(seed, trees, 0, FLOORS[floor]);
        assert_equivalent(&repo, &candidates, config(strategy, join_distance, knobs));
    }

    #[test]
    fn kernel_equals_oracle_with_nodes_the_labelling_declines(
        seed in 0u64..u64::MAX,
        trees in 1usize..32,
        shape in (0usize..3, 2u32..6, 0usize..2),
        knobs in 0u64..120,
    ) {
        let (strategy, join_distance, floor) = shape;
        let (repo, candidates) = random_forest(seed, trees, 0, FLOORS[floor]);
        let candidates = with_declined_nodes(seed, &repo, &candidates);
        assert_equivalent(&repo, &candidates, config(strategy, join_distance, knobs));
    }

    #[test]
    fn kernel_equals_oracle_on_trees_numbered_out_of_pre_order(
        seed in 0u64..u64::MAX,
        nodes in 24usize..160,
        shape in (0usize..3, 2u32..6, 0usize..2),
        knobs in 0u64..120,
    ) {
        let (strategy, join_distance, floor) = shape;
        let (repo, candidates) = bushy_forest(seed, nodes, FLOORS[floor]);
        assert_equivalent(&repo, &candidates, config(strategy, join_distance, knobs));
    }
}

/// Does every list of `scope` descend by similarity? The branch-and-bound
/// generator reads a list's best similarity off its first element and counts the
/// sorted tail of its last list without visiting it, so it needs this of every
/// scope it is handed.
fn descends(scope: &CandidateSet) -> bool {
    (0..scope.node_count()).all(|i| {
        scope
            .candidates_at(i)
            .windows(2)
            .all(|pair| pair[0].similarity >= pair[1].similarity)
    })
}

proptest! {
    #[test]
    fn every_scope_handed_to_the_generator_descends_by_similarity(
        seed in 0u64..u64::MAX,
        trees in 1usize..48,
        shape in (0usize..3, 2u32..6, 0usize..2),
        knobs in 0u64..120,
        declined in 0usize..2,
    ) {
        // The clustered pipeline hands the generator each cluster's scope; the
        // per-tree baseline, and `generate` on a scope of several trees, the parts
        // of `split_by_tree`.
        let (strategy, join_distance, floor) = shape;
        let (repo, candidates) = random_forest(seed, trees, 0, FLOORS[floor]);
        let candidates = if declined == 1 {
            with_declined_nodes(seed, &repo, &candidates)
        } else {
            candidates
        };
        let (set, _) =
            KMeansClusterer::new(config(strategy, join_distance, knobs)).cluster(&repo, &candidates);
        for cluster in &set.clusters {
            prop_assert!(descends(&cluster.scope), "cluster of tree {:?}", cluster.tree);
        }
        for (tree, part) in candidates.split_by_tree() {
            prop_assert!(descends(&part), "part of tree {:?}", tree);
        }
    }
}

/// `candidates` plus, in about half of the trees, mapping elements on ids past the
/// tree's last node — nodes the labelling declines. Personal node 0 gets some of
/// them, so `ME_min` seeding sometimes seeds one.
fn with_declined_nodes(
    seed: u64,
    repo: &SchemaRepository,
    candidates: &CandidateSet,
) -> CandidateSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut out = candidates.clone();
    let personal = candidates.personal_nodes();
    for (tree, schema) in repo.trees() {
        if rng.gen_range(0..2) == 0 {
            continue;
        }
        for _ in 0..rng.gen_range(1..4) {
            let node = NodeId(schema.len() as u32 + rng.gen_range(0..3u32));
            let p = personal[rng.gen_range(0..personal.len())];
            let similarity = rng.gen_range(10..21) as f64 * 0.05;
            out.push(MappingElement::new(
                p,
                GlobalNodeId::new(tree, node),
                similarity,
            ));
        }
    }
    out.sort();
    out
}

/// A forest of a few trees in which every node hangs under a random earlier node,
/// so ids are far from pre-order; at least one tree is out of pre-order.
fn bushy_forest(seed: u64, nodes: usize, floor: f64) -> (SchemaRepository, CandidateSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees: Vec<SchemaTree> = (0..rng.gen_range(1..4))
        .map(|i| random_tree(&mut rng, i, nodes, nodes))
        .collect();
    assert!(
        trees
            .iter()
            .any(|t| t.preorder() != t.node_ids().collect::<Vec<_>>()),
        "the forest must number some tree out of pre-order"
    );
    let repo = SchemaRepository::from_trees(trees);
    let personal: Vec<NodeId> = (0..rng.gen_range(1..4u32)).map(NodeId).collect();
    let mut candidates = CandidateSet::new(personal.clone());
    for (tree, schema) in repo.trees() {
        for node in schema.node_ids() {
            for &p in &personal {
                let similarity = rng.gen_range(6..21) as f64 * 0.05;
                if similarity >= floor && rng.gen_range(0..3) > 0 {
                    let repo_node = GlobalNodeId::new(tree, node);
                    candidates.push(MappingElement::new(p, repo_node, similarity));
                }
            }
        }
    }
    candidates.sort();
    (repo, candidates)
}

#[test]
fn kernel_equals_oracle_on_a_huge_tree_with_sampled_medoids() {
    // 2 600 nodes, most of them candidates, at most three seeds: clusters pass 512
    // members, so the medoid sums run over every second or third member only.
    for (seed, strategy) in [(11, 2), (12, 1), (13, 0)] {
        let (repo, candidates) = random_forest(seed, 6, 2_600, 0.5);
        let (set, _) =
            KMeansClusterer::new(ClusteringConfig::default()).cluster(&repo, &candidates);
        assert!(
            set.sizes().into_iter().max().unwrap_or(0) >= 512,
            "scenario must form a cluster large enough for medoid sampling: {:?} of {} nodes",
            set.sizes(),
            candidates.distinct_repo_nodes()
        );
        assert_equivalent(&repo, &candidates, config(strategy, 3, 3));
    }
}

#[test]
fn empty_and_single_element_sets() {
    let (repo, _) = random_forest(5, 3, 0, 0.5);
    let empty = CandidateSet::new(vec![NodeId(0), NodeId(1)]);
    let mut single = empty.clone();
    single.push(MappingElement::new(
        NodeId(1),
        GlobalNodeId::new(TreeId(1), NodeId(0)),
        0.9,
    ));
    for candidates in [empty, single] {
        assert_equivalent(&repo, &candidates, ClusteringConfig::default());
    }
}

#[test]
fn the_kernel_never_computes_more_distances_than_the_oracle() {
    let (repo, candidates) = random_forest(2006, 500, 0, 0.5);
    for strategy in STRATEGIES {
        let config = ClusteringConfig::default().with_recluster(strategy);
        let oracle = OracleClusterer::new(config);
        let reference = oracle.cluster(&repo, &candidates);
        let oracle_calls = oracle.distance_calls.get();

        let (set, stats) = KMeansClusterer::new(config).cluster(&repo, &candidates);
        let kernel_calls = stats.labelling_queries;
        assert_sets_identical(&set, &reference, &candidates);
        assert!(oracle_calls > 0, "the forest must form clusters");
        assert!(
            kernel_calls <= oracle_calls,
            "{strategy:?}: kernel asked for {kernel_calls} distances, oracle for {oracle_calls}"
        );

        // At most one LCA per slot of a seeded tree, plus every pass's join
        // pairs: the join compares at most as many medoids as the tree has seeds,
        // and no cluster here is large enough for a sampled medoid. Clustering
        // decomposes over trees, so each tree is bounded on its own.
        let mut bound = 0;
        for tree in candidates.trees() {
            let (_, tree_stats) =
                KMeansClusterer::new(config).cluster(&repo, &candidates.restrict_to_tree(tree));
            let seeds = tree_stats.initial_centroids;
            let join_pairs = match strategy {
                ReclusterStrategy::None => 0,
                _ => seeds * seeds.saturating_sub(1) / 2,
            };
            let passes = tree_stats.iterations + 1;
            bound += tree_stats.total_nodes + passes * join_pairs;
        }
        assert!(
            kernel_calls <= bound,
            "{strategy:?}: kernel asked for {kernel_calls} distances, bound {bound}"
        );
    }
}
