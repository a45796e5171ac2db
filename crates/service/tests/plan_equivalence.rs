//! Plans do not depend on how the index posts names.
//!
//! The `Auto` planner compares the posting volume the index-pruned path would
//! merge with `|N_s| · indexed_nodes`. The index posts each distinct name once,
//! but the planner-facing volume stays what a per-node index would hold — so a
//! corpus that repeats names plans exactly as it always did, and per-shard
//! statistics still add up. The oracle here recomputes that volume from the
//! repository's nodes on strings: per personal name and per distinct gram of
//! it, the live nodes inside the length window whose name contains the gram.

mod support;

use std::collections::BTreeSet;
use support::seeded_personal_schemas;

use proptest::prelude::*;
use xsm_repo::{
    GeneratorConfig, LengthWindow, LiveRepository, RepositoryGenerator, SchemaRepository,
};
use xsm_schema::{SchemaNode, SchemaTree, TreeBuilder, TreeId};
use xsm_service::{PlanStats, PlannedStrategy, PlannerConfig, QueryPlanner, QueryStrategy};
use xsm_similarity::ngram::qgrams;

fn distinct_grams(name: &str) -> BTreeSet<String> {
    qgrams(&name.to_lowercase(), 3).into_iter().collect()
}

/// `(estimated, exhaustive)` volumes of `personal` from per-node posting counts.
fn per_node_volumes(personal: &SchemaTree, repo: &SchemaRepository, floor: f64) -> (usize, usize) {
    let window = LengthWindow::fuzzy_floor(floor);
    let nodes: Vec<(usize, BTreeSet<String>)> = repo
        .nodes()
        .map(|(_, node)| {
            (
                node.name.to_lowercase().chars().count(),
                distinct_grams(&node.name),
            )
        })
        .collect();
    let estimated = personal
        .nodes()
        .map(|(_, pnode)| {
            let grams = distinct_grams(&pnode.name);
            let len = pnode.name.to_lowercase().chars().count();
            nodes
                .iter()
                .filter(|(node_len, _)| window.admits(len, *node_len))
                .map(|(_, node_grams)| node_grams.intersection(&grams).count())
                .sum::<usize>()
        })
        .sum();
    (estimated, personal.len() * nodes.len())
}

proptest! {
    #[test]
    fn plans_equal_plans_from_per_node_posting_counts(
        seed in 1u64..5_000,
        elements in 80usize..400,
        floor_pick in 0usize..3,
        fraction_pick in 0usize..3,
        victim in 0usize..64,
    ) {
        let floor = [0.0, 0.5, 0.8][floor_pick];
        let config = PlannerConfig {
            min_overlap: 0.5,
            // Low fractions push realistic corpora onto both sides of the decision.
            max_pruned_fraction: [0.02, 0.1, 0.5][fraction_pick],
        };
        let planner = QueryPlanner::new(config);
        let mut trees: Vec<SchemaTree> = RepositoryGenerator::new(
            GeneratorConfig::small(seed).with_target_elements(elements),
        )
        .generate()
        .trees()
        .map(|(_, t)| t.clone())
        .collect();
        // Case variants of one name, in several trees.
        for spelling in ["Name", "name", "NAME", "name"] {
            trees.push(
                TreeBuilder::new("v")
                    .root(SchemaNode::element(spelling))
                    .child(SchemaNode::element("name"))
                    .build(),
            );
        }
        // A live index that lost a tree plans like the forest without it.
        let mut live = LiveRepository::build(SchemaRepository::from_trees(trees.clone()));
        let victim = TreeId((victim % trees.len()) as u32);
        live.delete_trees(&[victim]).unwrap();
        trees[victim.index()] = SchemaTree::new("gone");
        let logical = SchemaRepository::from_trees(trees);

        for personal in seeded_personal_schemas(&logical, 4) {
            let (estimated, exhaustive) = per_node_volumes(&personal, &logical, floor);
            let plan = planner.plan(&personal, QueryStrategy::Auto, live.index(), floor);
            prop_assert_eq!(plan.estimated_volume, estimated);
            prop_assert_eq!(plan.exhaustive_volume, exhaustive);
            let pruned = exhaustive > 0
                && estimated as f64 <= config.max_pruned_fraction * exhaustive as f64;
            prop_assert_eq!(
                plan.strategy,
                if pruned { PlannedStrategy::IndexPruned } else { PlannedStrategy::Exhaustive }
            );
            // The wire-side statistics carry the same numbers.
            let stats = PlanStats::measure(&personal, live.index(), floor);
            prop_assert_eq!(stats.estimated_volume as usize, estimated);
            prop_assert_eq!(stats.indexed_nodes as usize * personal.len(), exhaustive);
        }
    }
}
