//! The incremental Branch & Bound search against the clone-and-recompute formulation
//! in `oracle/`: identical mappings (pairs, order, `score.to_bits()`) and identical
//! counters (every field but `elapsed`) — over random forests, personal schemas of one
//! to twelve nodes and candidate sets in which one repository node serves several
//! personal nodes and similarities tie, across the thresholds, objective weights,
//! caps and the bounding switch that decide where the search turns back. The
//! search counts the sorted tail of a last list instead of visiting it, so every
//! cap from 0 to the uncapped count is tried on a few scopes: a cap inside a
//! counted tail stops it exactly where the oracle stops.
//!
//! Scopes that offer one repository node to several lists, images the labelling
//! does not know, and a scope past the search's pairwise-distance memo cap are
//! covered too. The pieces are held to their from-scratch counterparts as well:
//! the image ring to `steiner_edge_count` after every insert and removal, `generate` on scopes of
//! several trees to per-tree searches merged the old way, `sort_mappings` to a sort
//! by collected image vectors, and `generate_into` with a bounded `TopMappings` to the
//! oracle's full list sorted and cut to `k` — ties on the cutoff score included.

mod oracle;

use oracle::{sort_by_collected_images, OracleBranchAndBound};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xsm_matcher::generator::branch_and_bound::BranchAndBoundConfig;
use xsm_matcher::generator::sort_mappings;
use xsm_matcher::mapping::{steiner_edge_count, SteinerRing};
use xsm_matcher::{
    BranchAndBoundGenerator, CandidateSet, GenerationOutcome, GeneratorCounters, MappingElement,
    MappingGenerator, MatchingProblem, ObjectiveConfig, SchemaMapping, TopMappings,
};
use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, NodeId, SchemaNode, SchemaTree, TreeId, TreeLabeling};

const THRESHOLDS: [f64; 5] = [0.0, 0.6, 0.75, 0.95, 1.0];
const ALPHAS: [f64; 3] = [0.0, 0.5, 1.0];
const PATH_NORMS: [f64; 2] = [4.0, 1.5];
const CAPS: [u64; 5] = [0, 1, 7, 1_000, u64::MAX];
const KEEPS: [usize; 5] = [0, 1, 3, 10, usize::MAX];

/// A tree of `nodes` nodes, each attached to a random one of the `reach` nodes before
/// it (small reach → deep and chain-like, large reach → bushy).
fn random_tree(rng: &mut StdRng, name: &str, nodes: usize, reach: usize) -> SchemaTree {
    let mut tree = SchemaTree::new(name);
    let mut ids = vec![tree
        .add_root(SchemaNode::element("root"))
        .expect("first root")];
    for i in 1..nodes {
        let parent = ids[ids.len() - 1 - rng.gen_range(0..reach.min(ids.len()))];
        ids.push(
            tree.add_child(parent, SchemaNode::element(format!("n{i}")))
                .expect("parent exists"),
        );
    }
    tree
}

/// How a case draws its similarities.
#[derive(Clone, Copy)]
enum Similarities {
    /// A grid of 0.05 steps from 0.3 to 1.0: ties are common, sums round.
    Grid,
    /// Full-precision values in `[0.2, 1)`: every addition rounds.
    Fine,
    /// One value for every candidate: lists full of equal similarities.
    Equal(f64),
}

/// A personal schema of `personal_nodes` nodes, a forest of `trees` trees and a
/// sorted candidate set over it. Every repository node is a candidate of each
/// personal node independently, so many serve several; lists are capped so that an
/// unbounded search stays within a couple of thousand partial mappings.
fn random_case(
    seed: u64,
    personal_nodes: usize,
    trees: usize,
    similarities: Similarities,
) -> (SchemaTree, SchemaRepository, CandidateSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let reach = rng.gen_range(1..4);
    let personal = random_tree(&mut rng, "personal", personal_nodes, reach);
    let forest: Vec<SchemaTree> = (0..trees)
        .map(|i| {
            let nodes = match rng.gen_range(0..8) {
                0 => 1,
                1 => rng.gen_range(20..50),
                _ => rng.gen_range(2..14),
            };
            let reach = rng.gen_range(1..6);
            random_tree(&mut rng, &format!("t{i}"), nodes, reach)
        })
        .collect();
    let repo = SchemaRepository::from_trees(forest);

    let keep_one_in = rng.gen_range(1..4);
    let personal_ids = personal.preorder();
    let mut candidates = CandidateSet::new(personal_ids.clone());
    for (tree, schema) in repo.trees() {
        for node in schema.node_ids() {
            for &p in &personal_ids {
                if rng.gen_range(0..keep_one_in) != 0 {
                    continue;
                }
                let similarity = match similarities {
                    Similarities::Grid => rng.gen_range(6..21) as f64 * 0.05,
                    Similarities::Fine => rng.gen_range(0.2..1.0),
                    Similarities::Equal(value) => value,
                };
                candidates.push(MappingElement::new(
                    p,
                    GlobalNodeId::new(tree, node),
                    similarity,
                ));
            }
        }
    }
    candidates.sort();
    // About a thousand complete assignments per tree whatever the schema size.
    let cap_per_node = [1024, 32, 10, 6, 4, 3, 3, 2, 2, 2, 2, 2][personal_nodes - 1];
    let mut capped = CandidateSet::new(personal_ids);
    for (_, mut part) in candidates.split_by_tree() {
        part.truncate_per_node(cap_per_node);
        for element in part.iter() {
            capped.push(*element);
        }
    }
    capped.sort();
    (personal, repo, capped)
}

type MappingBits = (Vec<(NodeId, GlobalNodeId, u64)>, u64);

fn mapping_bits(mappings: &[SchemaMapping]) -> Vec<MappingBits> {
    mappings
        .iter()
        .map(|m| {
            let pairs = m
                .pairs()
                .iter()
                .map(|p| (p.personal, p.repo, p.similarity.to_bits()))
                .collect();
            (pairs, m.score.to_bits())
        })
        .collect()
}

/// Every counter but `elapsed`.
fn counts(c: &GeneratorCounters) -> (u128, u64, u64, u64, u64) {
    (
        c.search_space,
        c.partial_mappings,
        c.complete_mappings,
        c.retained_mappings,
        c.pruned_branches,
    )
}

fn assert_outcomes_identical(kernel: &GenerationOutcome, oracle: &GenerationOutcome, what: &str) {
    assert_eq!(
        counts(&kernel.counters),
        counts(&oracle.counters),
        "counters, {what}"
    );
    assert_eq!(
        mapping_bits(&kernel.mappings),
        mapping_bits(&oracle.mappings),
        "mappings, {what}"
    );
}

/// Search every tree's part of `scope`, and `scope` as a whole, with the production
/// generator and with the oracle under one configuration, and hold the first to the
/// second.
fn assert_equivalent(
    personal: &SchemaTree,
    repo: &SchemaRepository,
    scope: &CandidateSet,
    objective: ObjectiveConfig,
    threshold: f64,
    config: BranchAndBoundConfig,
) {
    let problem = MatchingProblem::new(personal.clone(), objective, threshold);
    let kernel = BranchAndBoundGenerator::with_config(config);
    let oracle = OracleBranchAndBound { config };
    let what = format!(
        "δ={threshold} α={} K={} bounding={} cap={}",
        objective.alpha, objective.path_norm, config.use_bounding, config.max_partial_mappings
    );
    for (tree, part) in scope.split_by_tree() {
        assert_outcomes_identical(
            &kernel.generate_single_tree(&problem, repo, &part),
            &oracle.generate_single_tree(&problem, repo, &part),
            &format!("{what}, single tree {tree}"),
        );
        // A single-tree scope through `generate`: the fast path.
        assert_outcomes_identical(
            &kernel.generate(&problem, repo, &part),
            &oracle.generate(&problem, repo, &part),
            &format!("{what}, generate on tree {tree}"),
        );
    }
    assert_outcomes_identical(
        &kernel.generate(&problem, repo, scope),
        &oracle.generate(&problem, repo, scope),
        &format!("{what}, whole scope"),
    );
}

/// Collect the best `keep` mappings of `scope` through `generate_into` twice — its
/// per-tree parts fed one by one in shuffled order, and the whole scope in one call —
/// and hold each to the oracle's full list, sorted by `sort_mappings` and cut to
/// `keep`: pairs, order and score bits; and the summed counters to the oracle's.
fn assert_top_k_equivalent(
    personal: &SchemaTree,
    repo: &SchemaRepository,
    scope: &CandidateSet,
    threshold: f64,
    keep: usize,
    rng: &mut StdRng,
) {
    let problem = MatchingProblem::new(personal.clone(), ObjectiveConfig::default(), threshold);
    let config = BranchAndBoundConfig::default();
    let kernel = BranchAndBoundGenerator::with_config(config);
    let oracle = OracleBranchAndBound { config }.generate(&problem, repo, scope);
    let mut expected = oracle.mappings;
    sort_mappings(&mut expected);
    expected.truncate(keep);
    let what = format!("δ={threshold} keep={keep}");

    let mut parts: Vec<CandidateSet> = scope
        .split_by_tree()
        .into_iter()
        .map(|(_, part)| part)
        .collect();
    parts.shuffle(rng);
    let mut sink = TopMappings::new(keep);
    let mut counters = GeneratorCounters::default();
    for part in &parts {
        counters = counters.merge(&kernel.generate_into(&problem, repo, part, &mut sink));
    }
    assert_eq!(
        counts(&counters),
        counts(&oracle.counters),
        "counters, {what}, shuffled parts"
    );
    assert_eq!(
        mapping_bits(&sink.into_sorted()),
        mapping_bits(&expected),
        "mappings, {what}, shuffled parts"
    );

    let mut sink = TopMappings::new(keep);
    let counters = kernel.generate_into(&problem, repo, scope, &mut sink);
    assert_eq!(
        counts(&counters),
        counts(&oracle.counters),
        "counters, {what}, whole scope"
    );
    assert_eq!(
        mapping_bits(&sink.into_sorted()),
        mapping_bits(&expected),
        "mappings, {what}, whole scope"
    );
}

fn objective(alpha: f64, path_norm: f64) -> ObjectiveConfig {
    ObjectiveConfig::default()
        .with_alpha(alpha)
        .with_path_norm(path_norm)
}

proptest! {
    #[test]
    fn kernel_equals_oracle_across_thresholds_and_weights(
        seed in 0u64..u64::MAX,
        personal_nodes in 1usize..13,
        trees in 1usize..5,
        fine in 0usize..3,
    ) {
        let similarities = if fine == 0 { Similarities::Fine } else { Similarities::Grid };
        let (personal, repo, scope) = random_case(seed, personal_nodes, trees, similarities);
        let mut knobs = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for threshold in THRESHOLDS {
            for alpha in ALPHAS {
                let config = BranchAndBoundConfig {
                    // Mostly unbounded, sometimes cut short.
                    max_partial_mappings: CAPS[knobs.gen_range(0..CAPS.len() + 3).min(CAPS.len() - 1)],
                    use_bounding: knobs.gen_range(0..4) != 0,
                };
                let path_norm = PATH_NORMS[knobs.gen_range(0..PATH_NORMS.len())];
                assert_equivalent(
                    &personal, &repo, &scope, objective(alpha, path_norm), threshold, config,
                );
            }
        }
    }

    #[test]
    fn kernel_equals_oracle_with_thresholds_on_the_knife_edge(
        seed in 0u64..u64::MAX,
        personal_nodes in 2usize..13,
        fine in 0usize..2,
    ) {
        // A branch is cut when `bound + 1e-12 < δ`. With δ one slack above a score
        // some mapping attains, every partial mapping whose bound *is* that score
        // sits exactly on the edge: computed one bit lower — say, with its floats
        // summed in another order — it is cut, and the counters show it.
        let similarities = if fine == 0 { Similarities::Fine } else { Similarities::Grid };
        let (personal, repo, scope) = random_case(seed, personal_nodes, 2, similarities);
        let config = BranchAndBoundConfig::default();
        let objective = objective([0.5, 1.0][(seed % 2) as usize], 4.0);
        let everything = OracleBranchAndBound { config }.generate(
            &MatchingProblem::new(personal.clone(), objective, 0.0),
            &repo,
            &scope,
        );
        let mut scores: Vec<f64> = everything.mappings.iter().map(|m| m.score).collect();
        scores.dedup();
        for &score in scores.iter().step_by(scores.len() / 3 + 1) {
            for threshold in [score, score + 1e-12] {
                assert_equivalent(&personal, &repo, &scope, objective, threshold, config);
            }
        }
    }

    #[test]
    fn kernel_equals_oracle_on_lists_of_equal_similarities(
        seed in 0u64..u64::MAX,
        personal_nodes in 1usize..13,
        value in 0usize..5,
    ) {
        let value = [0.0, 0.55, 0.6, 0.75, 1.0][value];
        let (personal, repo, scope) =
            random_case(seed, personal_nodes, 2, Similarities::Equal(value));
        for threshold in THRESHOLDS {
            assert_equivalent(
                &personal,
                &repo,
                &scope,
                objective(ALPHAS[(seed % 3) as usize], PATH_NORMS[(seed % 2) as usize]),
                threshold,
                BranchAndBoundConfig::default(),
            );
        }
    }

    #[test]
    fn top_k_generation_equals_the_sorted_oracle_cut_to_k(
        seed in 0u64..u64::MAX,
        personal_nodes in 1usize..13,
        trees in 1usize..5,
        similarities in 0usize..4,
        keep in 0usize..KEEPS.len(),
    ) {
        // Equal similarities make whole lists of equal scores, so ties straddle the
        // collector's cutoff and the image tie-break decides what is kept.
        let similarities = match similarities {
            0 => Similarities::Fine,
            1 => Similarities::Grid,
            2 => Similarities::Equal(0.6),
            _ => Similarities::Equal(1.0),
        };
        let (personal, repo, scope) = random_case(seed, personal_nodes, trees, similarities);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7cc1_b727);
        for threshold in THRESHOLDS {
            assert_top_k_equivalent(&personal, &repo, &scope, threshold, KEEPS[keep], &mut rng);
        }
    }

    #[test]
    fn ring_edge_count_equals_steiner_edge_count_after_every_step(
        seed in 0u64..u64::MAX,
        nodes in 1usize..40,
        steps in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reach = rng.gen_range(1..6);
        let tree = random_tree(&mut rng, "t", nodes, reach);
        let labeling = TreeLabeling::build(&tree);
        // The ring over node ids as slots, with the labelling as its distance
        // source: the search's memo answers the same integers.
        let rank = |node: NodeId| labeling.preorder_rank(node).unwrap_or(u32::MAX);
        let distance = |a: u32, b: u32| labeling.distance(NodeId(a), NodeId(b)).unwrap_or(0);
        let mut ring = SteinerRing::with_capacity(4);
        let mut held: Vec<NodeId> = Vec::new();
        for _ in 0..steps {
            // Two ids past the tree: nodes the labelling does not know.
            let node = NodeId(rng.gen_range(0..nodes as u32 + 2));
            let at = held.iter().position(|&n| n == node);
            // Asking about an extension answers as the extended set would, and
            // leaves the ring alone.
            let mut extended = held.clone();
            extended.push(node);
            prop_assert_eq!(
                ring.edge_count_with(rank(node), node.0, distance),
                steiner_edge_count(&labeling, &extended)
            );
            prop_assert_eq!(ring.edge_count(), steiner_edge_count(&labeling, &held));
            // Removals as often as inserts.
            if rng.gen_range(0..2) == 0 {
                prop_assert_eq!(ring.insert(rank(node), node.0, distance), at.is_none());
                if at.is_none() {
                    held.push(node);
                }
            } else {
                prop_assert_eq!(ring.remove(rank(node), node.0, distance), at.is_some());
                if let Some(at) = at {
                    held.swap_remove(at);
                }
            }
            prop_assert_eq!(ring.edge_count(), steiner_edge_count(&labeling, &held));
        }
    }

    #[test]
    fn kernel_equals_oracle_on_shared_and_unlabelled_images(
        seed in 0u64..u64::MAX,
        personal_nodes in 1usize..13,
        trees in 1usize..4,
        strangers in 1u32..4,
    ) {
        // Every list of a tree also offers one shared node of that tree, and half
        // of them one of a few ids past its end, which the labelling does not know: one repository node
        // behind several lists, and images of rank `u32::MAX` at distance 0 from
        // everything — in the memo as in the oracle's `steiner_edge_count`.
        let (personal, repo, base) = random_case(seed, personal_nodes, trees, Similarities::Grid);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
        let mut scope = CandidateSet::new(personal.preorder());
        for element in base.iter() {
            scope.push(*element);
        }
        for (tree, schema) in repo.trees() {
            let size = schema.len() as u32;
            let shared = NodeId(rng.gen_range(0..size));
            for p in personal.preorder() {
                let mut offer = |node: NodeId, rng: &mut StdRng| {
                    let image = GlobalNodeId::new(tree, node);
                    if !scope.candidates_for(p).iter().any(|m| m.repo == image) {
                        let similarity = rng.gen_range(6..21) as f64 * 0.05;
                        scope.push(MappingElement::new(p, image, similarity));
                    }
                };
                offer(shared, &mut rng);
                if rng.gen_range(0..2) == 0 {
                    offer(NodeId(size + rng.gen_range(0..strangers)), &mut rng);
                }
            }
        }
        scope.sort();
        let mut knobs = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        for threshold in THRESHOLDS {
            let config = BranchAndBoundConfig {
                max_partial_mappings: CAPS[knobs.gen_range(0..CAPS.len() + 3).min(CAPS.len() - 1)],
                use_bounding: knobs.gen_range(0..4) != 0,
            };
            let objective = objective(ALPHAS[knobs.gen_range(0..3usize)], PATH_NORMS[knobs.gen_range(0..2usize)]);
            assert_equivalent(&personal, &repo, &scope, objective, threshold, config);
        }
    }
}

#[test]
fn a_scope_past_the_memo_cap_asks_the_labelling_and_agrees() {
    // A star of 1 100 leaves: a scope holding more than 1 024 distinct images
    // searches without the pairwise memo. Two short lists and one over every
    // leaf keep the oracle's clone-per-partial-mapping search small.
    const LEAVES: u32 = 1_100;
    let mut star = SchemaTree::new("star");
    let root = star.add_root(SchemaNode::element("root")).expect("root");
    for i in 0..LEAVES {
        star.add_child(root, SchemaNode::element(format!("leaf{i}")))
            .expect("root exists");
    }
    let repo = SchemaRepository::from_trees(vec![star]);
    let mut rng = StdRng::seed_from_u64(1024);
    let personal = random_tree(&mut rng, "personal", 3, 2);
    let nodes = personal.preorder();
    let mut scope = CandidateSet::new(nodes.clone());
    let mut offer = |p: NodeId, node: u32, rng: &mut StdRng| {
        let image = GlobalNodeId::new(TreeId(0), NodeId(node));
        scope.push(MappingElement::new(
            p,
            image,
            rng.gen_range(6..21) as f64 * 0.05,
        ));
    };
    // The root, and a leaf the long list shares.
    for node in [0, 7] {
        offer(nodes[0], node, &mut rng);
    }
    for node in [0, 7, 500] {
        offer(nodes[1], node, &mut rng);
    }
    for node in 0..=LEAVES {
        offer(nodes[2], node, &mut rng);
    }
    scope.sort();
    assert!(scope.distinct_repo_nodes() > 1_024);
    for threshold in THRESHOLDS {
        for (alpha, path_norm) in [(0.5, 4.0), (0.5, 1.5), (1.0, 4.0)] {
            for use_bounding in [true, false] {
                assert_equivalent(
                    &personal,
                    &repo,
                    &scope,
                    objective(alpha, path_norm),
                    threshold,
                    BranchAndBoundConfig {
                        use_bounding,
                        ..Default::default()
                    },
                );
            }
        }
    }
}

#[test]
fn every_cap_stops_both_searches_at_the_same_node() {
    // Forests of three trees under the fixed caps; then single trees under every cap
    // from 0 to the uncapped count as well. The search counts the sorted tail of a
    // last list — the candidates the bound would cut even at today's `|E_t|` — in
    // one step, and a cap landing inside such a tail must stop it where visiting
    // them one by one stops.
    let forests = (0..12u64).map(|seed| (seed, 1 + (seed % 6) as usize, 3, [0.0, 0.75], false));
    let swept = (200..206u64).map(|seed| (seed, 2 + (seed % 4) as usize, 1, [0.6, 0.75], true));
    for (seed, personal_nodes, trees, thresholds, sweep) in forests.chain(swept) {
        let (personal, repo, scope) = random_case(seed, personal_nodes, trees, Similarities::Grid);
        for threshold in thresholds {
            let problem =
                MatchingProblem::new(personal.clone(), ObjectiveConfig::default(), threshold);
            let uncapped = BranchAndBoundGenerator::new()
                .generate(&problem, &repo, &scope)
                .counters
                .partial_mappings;
            let every_cap = (0..=uncapped).filter(|_| sweep);
            for cap in CAPS.into_iter().chain(every_cap) {
                for use_bounding in [true, false] {
                    assert_equivalent(
                        &personal,
                        &repo,
                        &scope,
                        ObjectiveConfig::default(),
                        threshold,
                        BranchAndBoundConfig {
                            max_partial_mappings: cap,
                            use_bounding,
                        },
                    );
                }
            }
        }
    }
}

#[test]
fn exhaustive_enumeration_without_bounding_is_identical_too() {
    for seed in 100..112u64 {
        let personal_nodes = 1 + (seed % 6) as usize;
        let (personal, repo, scope) = random_case(seed, personal_nodes, 2, Similarities::Fine);
        for threshold in THRESHOLDS {
            for (alpha, path_norm) in [(0.0, 4.0), (0.5, 1.5), (1.0, 4.0)] {
                assert_equivalent(
                    &personal,
                    &repo,
                    &scope,
                    objective(alpha, path_norm),
                    threshold,
                    BranchAndBoundConfig {
                        use_bounding: false,
                        ..Default::default()
                    },
                );
            }
        }
    }
}

#[test]
fn a_repository_node_wanted_by_every_personal_node_is_used_once() {
    // One tree, every node a candidate of every personal node at one similarity:
    // nothing but injectivity tells the assignments apart.
    let mut rng = StdRng::seed_from_u64(7);
    let personal = random_tree(&mut rng, "personal", 4, 2);
    let tree = random_tree(&mut rng, "t", 6, 3);
    let repo = SchemaRepository::from_trees(vec![tree]);
    let mut scope = CandidateSet::new(personal.preorder());
    for p in personal.preorder() {
        for node in 0..6 {
            let repo_node = GlobalNodeId::new(TreeId(0), NodeId(node));
            scope.push(MappingElement::new(p, repo_node, 0.8));
        }
    }
    scope.sort();
    for threshold in THRESHOLDS {
        assert_equivalent(
            &personal,
            &repo,
            &scope,
            ObjectiveConfig::default(),
            threshold,
            BranchAndBoundConfig::default(),
        );
    }
    let problem = MatchingProblem::new(personal, ObjectiveConfig::default(), 0.0);
    let outcome = BranchAndBoundGenerator::new().generate(&problem, &repo, &scope);
    // 6·5·4·3 injective assignments, every one of them valid.
    assert_eq!(outcome.mappings.len(), 360);
    assert!(outcome.mappings.iter().all(|m| m.is_structurally_valid()));
}

#[test]
fn the_kth_and_next_mapping_tie_on_score_and_the_images_decide() {
    // Two stars: two distinct leaves of a star are two edges apart, so every mapping
    // of a parent–child personal schema onto two leaves of one star scores the same,
    // and only the images tell the 2 · 380 of them apart. The second star is searched
    // first, so everything the collector holds at its first cut loses the tie-break
    // to what comes after.
    let mut rng = StdRng::seed_from_u64(11);
    let personal = random_tree(&mut rng, "personal", 2, 1);
    let star = |name: &str| {
        let mut tree = SchemaTree::new(name);
        let root = tree.add_root(SchemaNode::element("root")).expect("root");
        for i in 0..20 {
            tree.add_child(root, SchemaNode::element(format!("leaf{i}")))
                .expect("root exists");
        }
        tree
    };
    let repo = SchemaRepository::from_trees(vec![star("a"), star("b")]);
    let mut scope = CandidateSet::new(personal.preorder());
    for p in personal.preorder() {
        for tree in [TreeId(0), TreeId(1)] {
            for leaf in 1..=20 {
                scope.push(MappingElement::new(
                    p,
                    GlobalNodeId::new(tree, NodeId(leaf)),
                    0.8,
                ));
            }
        }
    }
    scope.sort();
    let problem = MatchingProblem::new(personal.clone(), ObjectiveConfig::default(), 0.0);
    let kernel = BranchAndBoundGenerator::new();
    let all = kernel.generate(&problem, &repo, &scope).mappings;
    assert_eq!(all.len(), 760);
    let parts = scope.split_by_tree();
    // 380 puts the cutoff between the last mapping of the first star and the first
    // of the second.
    for keep in [1, 3, 10, 380] {
        let (kth, next) = (&all[keep - 1], &all[keep]);
        assert_eq!(kth.score.to_bits(), next.score.to_bits());
        assert_ne!(kth.repo_nodes(), next.repo_nodes());
        let mut sink = TopMappings::new(keep);
        for (_, part) in parts.iter().rev() {
            kernel.generate_into(&problem, &repo, part, &mut sink);
        }
        assert_eq!(
            mapping_bits(&sink.into_sorted()),
            mapping_bits(&all[..keep]),
            "keep {keep}"
        );
        assert_top_k_equivalent(&personal, &repo, &scope, 0.0, keep, &mut rng);
    }
}

/// `n` mappings of three images each over a handful of nodes, scores from a
/// two-value grid: thousands of ties, many of them sharing an image prefix.
fn tied_mappings(seed: u64, n: usize) -> Vec<SchemaMapping> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let pairs = (0..3)
                .map(|p| {
                    let image =
                        GlobalNodeId::new(TreeId(rng.gen_range(0..3)), NodeId(rng.gen_range(0..6)));
                    MappingElement::new(NodeId(p), image, 1.0)
                })
                .collect();
            SchemaMapping::with_score(pairs, [0.75, 0.8][rng.gen_range(0..2usize)])
        })
        .collect()
}

#[test]
fn sorting_thousands_of_tied_mappings_keeps_the_old_order() {
    let mut fast = tied_mappings(3, 6_000);
    let mut reference = fast.clone();
    sort_mappings(&mut fast);
    sort_by_collected_images(&mut reference);
    assert_eq!(mapping_bits(&fast), mapping_bits(&reference));
}
