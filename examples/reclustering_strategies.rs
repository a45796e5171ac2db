//! Compare the three reclustering strategies of the paper's Sec. 4 (none / join /
//! join & remove) on one workload and print the cluster-size distributions — a small,
//! fast version of the Fig. 4 experiment (the full one is `cargo run -p xsm-bench
//! --bin fig4 --release`).
//!
//! Run with:
//! ```text
//! cargo run --release --example reclustering_strategies
//! ```

use bellflower::clustering::config::ReclusterStrategy;
use bellflower::clustering::report::SizeHistogram;
use bellflower::clustering::{ClusteringConfig, KMeansClusterer};
use bellflower::matcher::element::{match_elements, ElementMatchConfig};
use bellflower::matcher::MatchingProblem;
use bellflower::repo::{GeneratorConfig, RepositoryGenerator};

fn main() {
    let repository = RepositoryGenerator::new(
        GeneratorConfig::default()
            .with_seed(5)
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
        "clustering {} mapping elements ({} distinct repository nodes)\n",
        candidates.total_candidates(),
        candidates.distinct_repo_nodes()
    );

    for (label, strategy) in [
        ("no reclustering", ReclusterStrategy::None),
        ("join", ReclusterStrategy::Join),
        ("join & remove", ReclusterStrategy::JoinAndRemove),
    ] {
        let config = ClusteringConfig::default().with_recluster(strategy);
        let clusterer = KMeansClusterer::new(config);
        let (clusters, stats) = clusterer.cluster(&repository, &candidates);
        let histogram = SizeHistogram::from_sizes(&clusters.sizes());
        println!(
            "{label}: {} clusters after {} iterations ({} elements left unassigned)",
            clusters.len(),
            stats.iterations,
            stats.unassigned_nodes
        );
        println!("{}\n", histogram.render());
    }
    println!(
        "The 'join' step merges competing nearby seed clusters (curing the tiny-cluster \
         problem); 'remove' then dissolves what is left below the minimum size, so the \
         surviving clusters are the ones worth sending to the mapping generator."
    );
}
