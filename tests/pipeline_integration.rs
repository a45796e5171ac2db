//! Cross-crate integration tests: parse schemas → build a repository → match → cluster
//! → generate mappings, exercising the whole public API the way the examples and the
//! experiment harness do.

use bellflower::clustering::metrics::preservation_curve;
use bellflower::clustering::{ClusteredMatcher, ClusteringConfig, ClusteringVariant};
use bellflower::matcher::element::{match_elements, ElementMatchConfig};
use bellflower::matcher::generator::exhaustive::ExhaustiveGenerator;
use bellflower::matcher::{
    BranchAndBoundGenerator, MappingGenerator, MatchingProblem, ObjectiveConfig,
};
use bellflower::repo::corpus::load_documents;
use bellflower::repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};
use bellflower::schema::{SchemaNode, TreeBuilder};

/// A mixed DTD/XSD corpus containing several plausible targets for a contact-style
/// personal schema.
fn parsed_corpus() -> SchemaRepository {
    let docs = [
        (
            "people.dtd",
            r#"<!ELEMENT person (name, email, address)>
               <!ELEMENT name (#PCDATA)> <!ELEMENT email (#PCDATA)> <!ELEMENT address (#PCDATA)>"#,
        ),
        (
            "orders.xsd",
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="order"><xs:complexType><xs:sequence>
                <xs:element name="customerName" type="xs:string"/>
                <xs:element name="shippingAddress" type="xs:string"/>
                <xs:element name="contactEmail" type="xs:string"/>
                <xs:element name="total" type="xs:decimal"/>
              </xs:sequence></xs:complexType></xs:element>
            </xs:schema>"#,
        ),
        (
            "library.dtd",
            r#"<!ELEMENT lib (book*, address)>
               <!ELEMENT book (data, shelf?)>
               <!ELEMENT data (title, authorName+)>
               <!ELEMENT title (#PCDATA)> <!ELEMENT authorName (#PCDATA)>
               <!ELEMENT shelf (#PCDATA)> <!ELEMENT address (#PCDATA)>"#,
        ),
    ];
    let (repo, report) = load_documents(docs);
    assert_eq!(report.skipped_files.len(), 0);
    repo
}

fn contact_problem(threshold: f64) -> MatchingProblem {
    let personal = TreeBuilder::new("personal")
        .root(SchemaNode::element("name"))
        .child(SchemaNode::element("address"))
        .sibling(SchemaNode::element("email"))
        .build();
    MatchingProblem::new(personal, ObjectiveConfig::default(), threshold)
}

#[test]
fn end_to_end_on_parsed_schemas_finds_the_person_schema() {
    let repo = parsed_corpus();
    let problem = contact_problem(0.7);
    let candidates = match_elements(
        &problem.personal,
        &repo,
        &ElementMatchConfig::default().with_min_similarity(0.3),
    );
    assert!(candidates.is_useful());
    let outcome = BranchAndBoundGenerator::new().generate(&problem, &repo, &candidates);
    assert!(!outcome.mappings.is_empty());
    // The best mapping should be the person schema (exact name/email/address matches,
    // tight structure).
    let best = &outcome.mappings[0];
    let tree = repo.tree(best.repo_tree().unwrap()).unwrap();
    assert_eq!(tree.name(), "people.dtd");
    // name/email/address all match exactly (Δ_sim = 1) and the images are the three
    // children of `person`, whose spanning subtree has one excess edge:
    // Δ = 0.5·1.0 + 0.5·(1 − 1/(2·4)) = 0.9375.
    assert!((best.score - 0.9375).abs() < 1e-9, "score {}", best.score);
}

#[test]
fn all_exact_generators_agree_end_to_end() {
    let repo = parsed_corpus();
    let problem = contact_problem(0.5);
    let candidates = match_elements(
        &problem.personal,
        &repo,
        &ElementMatchConfig::default().with_min_similarity(0.3),
    );
    let bb = BranchAndBoundGenerator::new().generate(&problem, &repo, &candidates);
    let ex = ExhaustiveGenerator::new().generate(&problem, &repo, &candidates);
    assert_eq!(bb.mappings.len(), ex.mappings.len());
    for (a, b) in bb.mappings.iter().zip(ex.mappings.iter()) {
        assert!((a.score - b.score).abs() < 1e-12);
    }
    // B&B does no more work than exhaustive enumeration.
    assert!(bb.counters.partial_mappings <= ex.counters.partial_mappings);
}

#[test]
fn clustered_pipeline_on_synthetic_repository_preserves_top_mappings() {
    let repo = RepositoryGenerator::new(
        GeneratorConfig::default()
            .with_seed(77)
            .with_target_elements(2_500),
    )
    .generate();
    let problem = contact_problem(0.7);
    let candidates = match_elements(
        &problem.personal,
        &repo,
        &ElementMatchConfig::default().with_min_similarity(0.45),
    );
    let generator = BranchAndBoundGenerator::new();
    let baseline =
        ClusteredMatcher::baseline().run_on_candidates(&problem, &repo, &candidates, &generator);
    let clustered = ClusteredMatcher::for_variant(ClusteringVariant::Medium).run_on_candidates(
        &problem,
        &repo,
        &candidates,
        &generator,
    );

    assert!(!baseline.mappings.is_empty(), "baseline found nothing");
    // Efficiency: clustering never enlarges the search space.
    assert!(
        clustered.cluster_stats.total_search_space <= baseline.cluster_stats.total_search_space
    );
    assert!(
        clustered.generator_counters.partial_mappings
            <= baseline.generator_counters.partial_mappings
    );
    // Effectiveness: the single best baseline mapping survives clustering (the paper's
    // "preserve highly ranked mappings" property), and preservation at the top of the
    // score range is at least as good as at the threshold.
    let curve = preservation_curve(
        &baseline.mappings,
        &clustered.mappings,
        &[problem.threshold, 0.95],
    );
    assert!(curve[1].fraction + 1e-9 >= curve[0].fraction);
    assert!(
        curve[1].fraction > 0.5,
        "top-ranked mappings poorly preserved: {:?}",
        curve[1]
    );
}

#[test]
fn clustered_mappings_are_a_subset_of_baseline_mappings() {
    let repo = RepositoryGenerator::new(
        GeneratorConfig::default()
            .with_seed(123)
            .with_target_elements(1_500),
    )
    .generate();
    let problem = contact_problem(0.72);
    let candidates = match_elements(
        &problem.personal,
        &repo,
        &ElementMatchConfig::default().with_min_similarity(0.45),
    );
    let generator = BranchAndBoundGenerator::new();
    let baseline =
        ClusteredMatcher::baseline().run_on_candidates(&problem, &repo, &candidates, &generator);
    for join in [2u32, 3, 4] {
        let clustered =
            ClusteredMatcher::clustered(ClusteringConfig::default().with_join_distance(join))
                .run_on_candidates(&problem, &repo, &candidates, &generator);
        let curve = preservation_curve(
            &clustered.mappings,
            &baseline.mappings,
            &[problem.threshold],
        );
        // Everything the clustered run produced is also found by the baseline.
        assert_eq!(
            curve[0].preserved_count, curve[0].reference_count,
            "join={join}"
        );
    }
}

#[test]
fn repository_roundtrip_through_parsing_and_statistics() {
    let repo = parsed_corpus();
    assert_eq!(repo.tree_count(), 3);
    let stats = repo.stats();
    assert_eq!(stats.tree_count, 3);
    assert!(stats.total_nodes >= 15);
    assert!(stats.distinct_names >= 12);
    // Every tree's labelling answers distance queries consistently with the tree.
    for (tid, tree) in repo.trees() {
        for a in tree.node_ids() {
            for b in tree.node_ids() {
                let via_repo = repo.distance(
                    bellflower::schema::GlobalNodeId::new(tid, a),
                    bellflower::schema::GlobalNodeId::new(tid, b),
                );
                assert_eq!(via_repo, tree.distance(a, b));
            }
        }
    }
}
