//! Deterministic personal-schema workloads shared by the service suites.
//!
//! The suites need the *same* reproducible query mix: personal schemas assembled
//! from names the repository actually contains, with a fraction perturbed into
//! near-miss names to exercise fuzzy scoring.

use std::collections::BTreeSet;

use xsm_repo::SchemaRepository;
use xsm_schema::{SchemaNode, SchemaTree, TreeBuilder};

/// Build `n` deterministic three-node personal schemas from the repository's own
/// vocabulary. Names are drawn in a fixed stride pattern from the sorted distinct
/// name set; every fourth drawn name gets an `x` appended (a near-miss that only
/// fuzzy matching can relate back). The same repository and `n` always produce the
/// same schemas.
pub fn seeded_personal_schemas(repo: &SchemaRepository, n: usize) -> Vec<SchemaTree> {
    let names: Vec<String> = repo
        .nodes()
        .map(|(_, node)| node.name.clone())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(
        !names.is_empty(),
        "cannot build a workload over an empty repository"
    );
    let name = |i: usize| {
        let base = &names[i % names.len()];
        if i % 4 == 3 {
            format!("{base}x")
        } else {
            base.clone()
        }
    };
    (0..n)
        .map(|i| {
            TreeBuilder::new("personal")
                .root(SchemaNode::element(name(i * 3)))
                .child(SchemaNode::element(name(i * 5 + 1)))
                .sibling(SchemaNode::element(name(i * 7 + 2)))
                .build()
        })
        .collect()
}
