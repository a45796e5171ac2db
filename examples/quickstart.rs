//! Quickstart: match a small personal schema against a synthetic repository, first
//! with the plain (non-clustered) Bellflower matcher, then with clustered matching,
//! and compare the work done and the mappings found.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use bellflower::clustering::{ClusteredMatcher, ClusteringVariant};
use bellflower::matcher::element::ElementMatchConfig;
use bellflower::matcher::{BranchAndBoundGenerator, MatchingProblem, ObjectiveConfig};
use bellflower::repo::{GeneratorConfig, RepositoryGenerator};
use bellflower::schema::{SchemaNode, TreeBuilder};

fn main() {
    // 1. A repository of XML schemas. Here we generate a synthetic one; see the
    //    `load_real_schemas` example for parsing actual DTD/XSD files.
    let repository = RepositoryGenerator::new(
        GeneratorConfig::default()
            .with_seed(1)
            .with_target_elements(3_000),
    )
    .generate();
    println!(
        "repository: {} trees, {} elements",
        repository.tree_count(),
        repository.total_nodes()
    );

    // 2. The personal schema: the user's own view of the data they are looking for.
    let personal = TreeBuilder::new("personal")
        .root(SchemaNode::element("book"))
        .child(SchemaNode::element("title"))
        .sibling(SchemaNode::element("author"))
        .build();

    // 3. The matching problem: personal schema + objective function + threshold δ.
    let problem = MatchingProblem::new(personal, ObjectiveConfig::default().with_alpha(0.5), 0.7);

    // 4. Run the non-clustered baseline and the clustered matcher on the same problem.
    let generator = BranchAndBoundGenerator::new();
    let element_config = ElementMatchConfig::default().with_min_similarity(0.45);

    let baseline = ClusteredMatcher::baseline()
        .with_element_config(element_config.clone())
        .run(&problem, &repository, &generator);
    let clustered = ClusteredMatcher::for_variant(ClusteringVariant::Medium)
        .with_element_config(element_config)
        .run(&problem, &repository, &generator);

    for report in [&baseline, &clustered] {
        println!(
            "\n[{}] search space: {} assignments, partial mappings expanded: {}, \
             mappings with Δ ≥ {}: {}",
            report.label,
            report.cluster_stats.total_search_space,
            report.generator_counters.partial_mappings,
            problem.threshold,
            report.mappings.len()
        );
    }

    // 5. Show the best mappings the clustered matcher found.
    println!("\ntop clustered mappings:");
    for mapping in clustered.mappings.iter().take(5) {
        let tree = repository.tree(mapping.repo_tree().unwrap()).unwrap();
        let images: Vec<String> = mapping
            .pairs()
            .iter()
            .map(|p| {
                format!(
                    "{} -> {}",
                    problem.personal.name_of(p.personal),
                    tree.absolute_path(p.repo.node)
                )
            })
            .collect();
        println!(
            "  Δ = {:.3} in schema '{}': {}",
            mapping.score,
            tree.name(),
            images.join(", ")
        );
    }
    if clustered.mappings.is_empty() {
        println!("  (no mapping reached the threshold — try lowering δ)");
    }
}
