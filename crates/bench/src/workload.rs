//! The shared experimental workload (Sec. 5 of the paper).
//!
//! "The personal schema has nodes 'name', 'address', and 'email' … The personal schema
//! is matched against the repository with 9759 elements, distributed over 262 trees.
//! Bellflower is asked to discover all the schema mappings s ↦ t for which
//! Δ(s,t) ≥ 0.75. In this experiment, Bellflower's element matcher produces 4520
//! mapping elements."
//!
//! The crawled repository is replaced by the seeded synthetic corpus (DESIGN.md,
//! substitution 1); the scale and the personal schema are the paper's.

use serde::{Deserialize, Serialize};
use xsm_matcher::element::{match_elements, ElementMatchConfig};
use xsm_matcher::{CandidateSet, MatchingProblem, ObjectiveConfig};
use xsm_repo::{GeneratorConfig, RepositoryGenerator, SchemaRepository};

/// Parameters of one experiment run. All binaries accept `key=value` overrides for
/// these fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Seed of the synthetic repository.
    pub seed: u64,
    /// Target repository size in elements (the paper's default experiment: 9 759).
    pub elements: usize,
    /// Objective threshold δ.
    pub delta: f64,
    /// Objective weight α.
    pub alpha: f64,
    /// Element-matching similarity floor.
    pub min_similarity: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 2006,
            elements: 9_759,
            delta: 0.75,
            alpha: 0.5,
            min_similarity: 0.35,
        }
    }
}

impl ExperimentConfig {
    /// A scaled-down configuration for unit/integration tests and quick smoke runs.
    pub fn smoke() -> Self {
        ExperimentConfig {
            seed: 7,
            elements: 1_200,
            ..Self::default()
        }
    }

    /// Parse `key=value` command-line overrides (`seed`, `elements`, `delta`, `alpha`,
    /// `minsim`). Unknown keys are reported as errors so typos do not silently run the
    /// default experiment.
    pub fn apply_args<I: IntoIterator<Item = String>>(mut self, args: I) -> Result<Self, String> {
        for arg in args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got '{arg}'"));
            };
            match key {
                "seed" => self.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "elements" => {
                    self.elements = value.parse().map_err(|e| format!("elements: {e}"))?
                }
                "delta" => self.delta = value.parse().map_err(|e| format!("delta: {e}"))?,
                "alpha" => self.alpha = value.parse().map_err(|e| format!("alpha: {e}"))?,
                "minsim" => {
                    self.min_similarity = value.parse().map_err(|e| format!("minsim: {e}"))?
                }
                other => return Err(format!("unknown parameter '{other}'")),
            }
        }
        Ok(self)
    }
}

/// A fully prepared workload: problem, repository and the shared mapping elements.
pub struct Workload {
    /// The experiment parameters the workload was built from.
    pub config: ExperimentConfig,
    /// The matching problem (personal schema, objective, δ).
    pub problem: MatchingProblem,
    /// The synthetic repository.
    pub repository: SchemaRepository,
    /// The mapping elements produced by the element-matching step (shared by all
    /// variants, as in the paper).
    pub candidates: CandidateSet,
}

impl Workload {
    /// Build the workload for a configuration: generate the repository, build the
    /// personal schema, run element matching once.
    pub fn build(config: ExperimentConfig) -> Self {
        let repository = RepositoryGenerator::new(
            GeneratorConfig::paper_default()
                .with_seed(config.seed)
                .with_target_elements(config.elements),
        )
        .generate();
        let mut problem = MatchingProblem::paper_experiment();
        problem.threshold = config.delta;
        problem.objective = ObjectiveConfig::default().with_alpha(config.alpha);
        let candidates = match_elements(
            &problem.personal,
            &repository,
            &ElementMatchConfig::default().with_min_similarity(config.min_similarity),
        );
        Workload {
            config,
            problem,
            repository,
            candidates,
        }
    }

    /// A one-line description of the workload scale, analogous to the paper's
    /// experiment paragraph.
    pub fn describe(&self) -> String {
        format!(
            "repository: {} elements over {} trees; personal schema: {} nodes ({}); \
             mapping elements: {} ({} distinct repository nodes); δ={}, α={}",
            self.repository.total_nodes(),
            self.repository.tree_count(),
            self.problem.personal_size(),
            self.problem
                .personal_nodes()
                .iter()
                .map(|&n| self.problem.personal.name_of(n))
                .collect::<Vec<_>>()
                .join(", "),
            self.candidates.total_candidates(),
            self.candidates.distinct_repo_nodes(),
            self.config.delta,
            self.config.alpha,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_parameters() {
        let c = ExperimentConfig::default();
        assert_eq!(c.elements, 9_759);
        assert_eq!(c.delta, 0.75);
        assert_eq!(c.alpha, 0.5);
    }

    #[test]
    fn arg_parsing_applies_overrides_and_rejects_junk() {
        let c = ExperimentConfig::default()
            .apply_args(vec![
                "seed=9".into(),
                "delta=0.8".into(),
                "elements=500".into(),
            ])
            .unwrap();
        assert_eq!(c.seed, 9);
        assert_eq!(c.delta, 0.8);
        assert_eq!(c.elements, 500);
        assert!(ExperimentConfig::default()
            .apply_args(vec!["bogus=1".into()])
            .is_err());
        assert!(ExperimentConfig::default()
            .apply_args(vec!["seed".into()])
            .is_err());
        assert!(ExperimentConfig::default()
            .apply_args(vec!["delta=abc".into()])
            .is_err());
    }

    #[test]
    fn smoke_workload_builds_and_is_useful() {
        let w = Workload::build(ExperimentConfig::smoke());
        assert!(w.repository.total_nodes() >= 1_200);
        assert!(w.repository.tree_count() > 10);
        assert_eq!(w.problem.personal_size(), 3);
        assert!(w.candidates.total_candidates() > 60);
        assert!(w.candidates.is_useful());
        let description = w.describe();
        assert!(description.contains("name, address, email"));
    }
}
