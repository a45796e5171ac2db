//! Serving queries with the `MatchEngine`: build the engine once over a repository
//! (name index, per-name features and clustering config are amortised up front), then
//! answer single and batched top-k queries concurrently and read the live metrics.
//!
//! Run with:
//! ```text
//! cargo run --release --example service_quickstart
//! ```

use bellflower::matcher::element::ElementMatchConfig;
use bellflower::repo::{GeneratorConfig, RepositoryGenerator};
use bellflower::schema::{SchemaNode, TreeBuilder};
use bellflower::service::{EngineConfig, MatchEngine, MatchQuery, MatchService, QueryStrategy};

fn main() {
    // 1. A repository of XML schemas (synthetic here; `load_real_schemas` shows how
    //    to parse DTD/XSD files into the same structure).
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

    // 2. Build the engine ONCE. This is the expensive step a long-lived service
    //    amortises: q-gram index construction, cache allocation, worker spawn.
    let engine = MatchEngine::new(
        repository,
        EngineConfig::default()
            .with_workers(4)
            .with_element_config(ElementMatchConfig::default().with_min_similarity(0.5)),
    );
    println!(
        "engine: {} workers, {} distinct indexed names",
        engine.workers(),
        engine.index().distinct_names()
    );

    // 3. One interactive query: a personal schema plus top-k.
    let personal = TreeBuilder::new("personal")
        .root(SchemaNode::element("book"))
        .child(SchemaNode::element("title"))
        .sibling(SchemaNode::element("author"))
        .build();
    let response = engine.query(
        MatchQuery::new(personal.clone())
            .with_top_k(3)
            .with_threshold(0.6),
    );
    println!(
        "\ntop-3 for book(title, author) [{} candidates, strategy {:?}]:",
        response.candidate_count, response.strategy
    );
    for mapping in &response.mappings {
        let repository = engine.repository();
        let tree = repository.tree(mapping.repo_tree().unwrap()).unwrap();
        let images: Vec<String> = mapping
            .pairs()
            .iter()
            .map(|p| {
                format!(
                    "{} -> {}",
                    personal.name_of(p.personal),
                    tree.absolute_path(p.repo.node)
                )
            })
            .collect();
        println!("  Δ = {:.3}  {}", mapping.score, images.join(", "));
    }

    // 4. A batch: many users' schemas served concurrently, responses in input order.
    //    Repeating the earlier query shows the result cache at work.
    let batch = vec![
        MatchQuery::new(personal.clone())
            .with_top_k(3)
            .with_threshold(0.6),
        MatchQuery::new(
            TreeBuilder::new("personal")
                .root(SchemaNode::element("person"))
                .child(SchemaNode::element("name"))
                .sibling(SchemaNode::element("email"))
                .build(),
        )
        .with_top_k(2),
        MatchQuery::new(
            TreeBuilder::new("personal")
                .root(SchemaNode::element("order"))
                .child(SchemaNode::element("date"))
                .sibling(SchemaNode::element("price"))
                .build(),
        )
        .with_strategy(QueryStrategy::IndexPruned),
    ];
    let responses = engine
        .submit_batch(batch)
        .expect("the in-process worker pool cannot reject a batch");
    println!("\nbatch of {}:", responses.len());
    for r in &responses {
        println!(
            "  {} mappings (of {} ≥ δ), strategy {:?}, cache_hit={}, {:?}",
            r.mappings.len(),
            r.total_matches,
            r.strategy,
            r.cache_hit,
            r.latency
        );
    }

    // 5. Live metrics: what a scraper would export for dashboards/alerts.
    let m = engine.metrics();
    println!(
        "\nmetrics: {} served | result-cache hit rate {:.0}% | {} coalesced | \
         {} index-pruned / {} exhaustive | p50 ≤ {} µs, p99 ≤ {} µs",
        m.queries_served,
        100.0 * m.result_cache_hit_rate,
        m.coalesced_queries,
        m.index_pruned_queries,
        m.exhaustive_queries,
        m.p50_latency_us,
        m.p99_latency_us
    );
}
