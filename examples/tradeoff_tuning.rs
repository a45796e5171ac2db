//! The efficiency/effectiveness trade-off: sweep the clustering granularity (the join
//! distance threshold of the reclustering step) and report, for each setting, how much
//! of the search space remains and how many of the baseline's mappings are preserved.
//! This is the knob the paper's Sec. 2.3 describes: "the more clusters the more
//! efficient schema matching, but the higher the chances of losing some valuable
//! schema mappings."
//!
//! Run with:
//! ```text
//! cargo run --release --example tradeoff_tuning
//! ```

use bellflower::clustering::metrics::{preservation_curve, search_space_reduction};
use bellflower::clustering::{ClusteredMatcher, ClusteringConfig};
use bellflower::matcher::element::{match_elements, ElementMatchConfig};
use bellflower::matcher::{BranchAndBoundGenerator, MatchingProblem};
use bellflower::repo::{GeneratorConfig, RepositoryGenerator};

fn main() {
    let repository = RepositoryGenerator::new(
        GeneratorConfig::default()
            .with_seed(99)
            .with_target_elements(4_000),
    )
    .generate();
    let problem = MatchingProblem::paper_experiment();
    let candidates = match_elements(
        &problem.personal,
        &repository,
        &ElementMatchConfig::default().with_min_similarity(0.4),
    );
    println!(
        "repository: {} elements / {} trees, mapping elements: {}",
        repository.total_nodes(),
        repository.tree_count(),
        candidates.total_candidates()
    );

    let generator = BranchAndBoundGenerator::new();
    let baseline = ClusteredMatcher::baseline().run_on_candidates(
        &problem,
        &repository,
        &candidates,
        &generator,
    );
    println!(
        "\nbaseline (one cluster per tree): search space {}, {} mappings with Δ ≥ {}\n",
        baseline.cluster_stats.total_search_space,
        baseline.mappings.len(),
        problem.threshold
    );

    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "join distance", "#clusters", "space", "reduction", "preserved", "preserved@0.9"
    );
    for join_distance in [1u32, 2, 3, 4, 5, 6] {
        let config = ClusteringConfig::default().with_join_distance(join_distance);
        let report = ClusteredMatcher::clustered(config).run_on_candidates(
            &problem,
            &repository,
            &candidates,
            &generator,
        );
        let reduction = search_space_reduction(
            baseline.cluster_stats.total_search_space,
            report.cluster_stats.total_search_space,
        )
        .unwrap_or(f64::INFINITY);
        let curve = preservation_curve(
            &baseline.mappings,
            &report.mappings,
            &[problem.threshold, 0.9],
        );
        println!(
            "{:<14} {:>10} {:>12} {:>11.1}x {:>11.1}% {:>13.1}%",
            join_distance,
            report.cluster_stats.useful_clusters,
            report.cluster_stats.total_search_space,
            reduction,
            100.0 * curve[0].fraction,
            100.0 * curve[1].fraction,
        );
    }
    println!(
        "\nSmaller join distances give finer clusters: a smaller search space (more \
         efficiency) but fewer preserved mappings (less effectiveness). High-ranked \
         mappings (Δ ≥ 0.9) survive much longer than the overall average — the paper's \
         central observation."
    );
}
