//! Kernel-swap replay: the engine (which scores through the precomputed feature
//! store and the bit-parallel kernels) must produce responses **byte-identical** to
//! the pre-refactor pipeline, reconstructed here with the original string-path
//! element matching (`match_elements` / `match_elements_with_index`, i.e.
//! `compare_string_fuzzy` per pair).
//!
//! This is the end-to-end counterpart of the per-kernel property suite in
//! `xsm-similarity/tests/feature_equivalence.rs`: scores, candidate counts, ranked
//! mappings and planner decisions all replay exactly, so the feature-store rewrite
//! is a pure optimisation.

mod support;

use support::seeded_personal_schemas;
use xsm_core::{ClusteredMatcher, ClusteringVariant};
use xsm_matcher::element::{match_elements, match_elements_with_index, ElementMatchConfig};
use xsm_matcher::generator::branch_and_bound::BranchAndBoundGenerator;
use xsm_matcher::{MatchingProblem, ObjectiveConfig};
use xsm_repo::{GeneratorConfig, NameIndex, RepositoryGenerator, SchemaRepository};
use xsm_service::{
    EngineConfig, MatchEngine, MatchQuery, MatchService, PlannedStrategy, PlannerConfig,
    QueryPlanner, QueryStrategy,
};

const MIN_SIMILARITY: f64 = 0.5;

fn repository() -> SchemaRepository {
    RepositoryGenerator::new(GeneratorConfig::small(23).with_target_elements(500)).generate()
}

/// The serving pipeline exactly as it existed before the feature-store rewrite:
/// planner decision, string-path candidate generation, clustered matching, top-k
/// cut — returning the same digest string the engine's responses produce.
fn string_path_digest(
    query: &MatchQuery,
    repo: &SchemaRepository,
    index: &NameIndex,
    matcher: &ClusteredMatcher,
) -> String {
    let planner = QueryPlanner::new(PlannerConfig::default());
    let plan = planner.plan(&query.personal, query.strategy, index, MIN_SIMILARITY);
    let threshold = if query.threshold.is_nan() {
        1.0
    } else {
        query.threshold.clamp(0.0, 1.0)
    };
    let problem = MatchingProblem::new(
        query.personal.clone(),
        ObjectiveConfig::default(),
        threshold,
    );
    let candidates = match plan.strategy {
        PlannedStrategy::IndexPruned => match_elements_with_index(
            &problem.personal,
            repo,
            index,
            matcher.element_config(),
            planner.config().min_overlap,
        ),
        PlannedStrategy::Exhaustive => {
            match_elements(&problem.personal, repo, matcher.element_config())
        }
    };
    let candidate_count = candidates.total_candidates();
    let generator = BranchAndBoundGenerator::new();
    let report = matcher.run_on_candidates(&problem, repo, &candidates, &generator);
    let total_matches = report.mappings.len();
    let mut mappings = report.mappings;
    mappings.truncate(query.top_k);

    // Rebuild the digest exactly as MatchResponse::result_digest does.
    let mut out = format!(
        "{}|me={candidate_count}|n={total_matches}",
        match plan.strategy {
            PlannedStrategy::IndexPruned => "index-pruned",
            PlannedStrategy::Exhaustive => "exhaustive",
        }
    );
    for m in &mappings {
        out.push_str(&format!("|{:016x}", m.score.to_bits()));
        for id in m.repo_nodes() {
            out.push_str(&format!(",{id}"));
        }
    }
    out
}

#[test]
fn engine_responses_replay_the_string_pipeline_byte_identically() {
    let repo = repository();
    let engine = MatchEngine::new(
        repo.clone(),
        EngineConfig::default()
            .with_workers(2)
            .with_element_config(ElementMatchConfig::default().with_min_similarity(MIN_SIMILARITY)),
    );
    let reference_index = NameIndex::build(&repo);
    let reference_matcher = ClusteredMatcher::for_variant(ClusteringVariant::Medium)
        .with_element_config(ElementMatchConfig::default().with_min_similarity(MIN_SIMILARITY));

    let queries: Vec<MatchQuery> = seeded_personal_schemas(&repo, 36)
        .into_iter()
        .enumerate()
        .map(|(i, personal)| {
            let strategy = match i % 3 {
                0 => QueryStrategy::Auto,
                1 => QueryStrategy::IndexPruned,
                _ => QueryStrategy::Exhaustive,
            };
            MatchQuery::new(personal)
                .with_top_k(1 + i % 5)
                .with_threshold(0.55 + 0.1 * (i % 3) as f64)
                .with_strategy(strategy)
        })
        .collect();

    let responses = engine.submit_batch(queries.clone()).unwrap();
    let mut non_trivial = 0usize;
    for (i, (query, response)) in queries.iter().zip(&responses).enumerate() {
        let expected = string_path_digest(query, &repo, &reference_index, &reference_matcher);
        assert_eq!(
            response.result_digest(),
            expected,
            "query {i} diverged from the pre-refactor string pipeline"
        );
        if !response.mappings.is_empty() {
            non_trivial += 1;
        }
    }
    assert!(
        non_trivial > 0,
        "replay proved nothing: no query produced mappings"
    );
}
