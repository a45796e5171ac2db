//! Build a repository from real schema documents (DTDs and XSDs), inspect it, and run
//! the clustered matcher against it. Demonstrates the parsing substrate: pass a
//! directory path as the first argument to load `.dtd` / `.xsd` files from disk, or run
//! without arguments to use the embedded sample corpus.
//!
//! Run with:
//! ```text
//! cargo run --release --example load_real_schemas [path/to/schema/dir]
//! ```

use bellflower::clustering::{ClusteredMatcher, ClusteringVariant};
use bellflower::matcher::element::ElementMatchConfig;
use bellflower::matcher::{BranchAndBoundGenerator, MatchingProblem, ObjectiveConfig};
use bellflower::repo::corpus::{load_directory, load_documents};
use bellflower::repo::{CandidateScratch, LengthWindow, MergePolicy, NameIndex};
use bellflower::schema::{SchemaNode, TreeBuilder};
use std::path::Path;

const SAMPLE_DOCS: &[(&str, &str)] = &[
    (
        "orders.xsd",
        r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="purchaseOrder"><xs:complexType><xs:sequence>
            <xs:element name="customer"><xs:complexType><xs:sequence>
              <xs:element name="customerName" type="xs:string"/>
              <xs:element name="shippingAddress" type="xs:string"/>
              <xs:element name="emailAddress" type="xs:string"/>
            </xs:sequence></xs:complexType></xs:element>
            <xs:element name="item" maxOccurs="unbounded"><xs:complexType><xs:sequence>
              <xs:element name="productName" type="xs:string"/>
              <xs:element name="quantity" type="xs:int"/>
              <xs:element name="unitPrice" type="xs:decimal"/>
            </xs:sequence><xs:attribute name="sku" type="xs:ID" use="required"/></xs:complexType></xs:element>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#,
    ),
    (
        "staff.dtd",
        r#"
        <!ELEMENT staffDirectory (employee+)>
        <!ELEMENT employee (fullName, workEmail, officeAddress, department)>
        <!ELEMENT fullName (#PCDATA)>
        <!ELEMENT workEmail (#PCDATA)>
        <!ELEMENT officeAddress (#PCDATA)>
        <!ELEMENT department (#PCDATA)>
        <!ATTLIST employee id ID #REQUIRED>
        "#,
    ),
    (
        "articles.xsd",
        r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="journal"><xs:complexType><xs:sequence>
            <xs:element name="article" maxOccurs="unbounded"><xs:complexType><xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="authorName" type="xs:string" maxOccurs="unbounded"/>
              <xs:element name="contactEmail" type="xs:string"/>
            </xs:sequence></xs:complexType></xs:element>
          </xs:sequence></xs:complexType></xs:element>
        </xs:schema>"#,
    ),
];

fn main() {
    // 1. Load the corpus — from a directory if given, otherwise the embedded samples.
    let (repository, report) = match std::env::args().nth(1) {
        Some(dir) => load_directory(Path::new(&dir)).expect("readable schema directory"),
        None => load_documents(SAMPLE_DOCS.iter().copied()),
    };
    println!(
        "loaded {} files ({} skipped) -> {} trees / {} nodes",
        report.loaded_files.len(),
        report.skipped_files.len(),
        repository.tree_count(),
        repository.total_nodes()
    );
    for (path, reason) in &report.skipped_files {
        println!("  skipped {}: {}", path.display(), reason);
    }
    let stats = repository.stats();
    println!(
        "forest statistics: avg tree size {:.1}, max {} nodes, {} distinct names\n",
        stats.avg_tree_size, stats.max_tree_size, stats.distinct_names
    );

    // 2. The name index gives exact and approximate lookups over the whole forest.
    let index = NameIndex::build(&repository);
    let mut scratch = CandidateScratch::default();
    for query in ["email", "address", "name"] {
        let (approx, _) = index.lookup_candidates_resolved(
            &index.resolve_query(query),
            0.4,
            LengthWindow::Infinite,
            MergePolicy::Auto,
            &mut scratch,
        );
        println!(
            "index lookup '{query}': {} exact, {} approximate candidates",
            index.lookup_exact(query).len(),
            approx.len()
        );
    }

    // 3. Match the paper's personal schema against the loaded corpus.
    let personal = TreeBuilder::new("personal")
        .root(SchemaNode::element("name"))
        .child(SchemaNode::element("address"))
        .sibling(SchemaNode::element("email"))
        .build();
    let problem = MatchingProblem::new(personal, ObjectiveConfig::default(), 0.6);
    let report = ClusteredMatcher::for_variant(ClusteringVariant::Medium)
        .with_element_config(ElementMatchConfig::default().with_min_similarity(0.3))
        .run(&problem, &repository, &BranchAndBoundGenerator::new());

    println!(
        "\nmappings with Δ ≥ {} (clustered matcher):",
        problem.threshold
    );
    for mapping in report.mappings.iter().take(8) {
        let tree = repository.tree(mapping.repo_tree().unwrap()).unwrap();
        let pairs: Vec<String> = mapping
            .pairs()
            .iter()
            .map(|p| {
                format!(
                    "{} ↦ {}",
                    problem.personal.name_of(p.personal),
                    tree.absolute_path(p.repo.node)
                )
            })
            .collect();
        println!(
            "  Δ = {:.3} [{}] {}",
            mapping.score,
            tree.name(),
            pairs.join(", ")
        );
    }
}
