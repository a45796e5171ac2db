//! The objective function `Δ(s,t)` (Eq. 1–3 of the paper).
//!
//! * `Δ_sim(s,t)` — mean element-name similarity over the personal nodes (Eq. 1),
//! * `Δ_path(s,t) = 1 − (|E_t| − |E_s|) / (|E_s|·K)` — path-length similarity (Eq. 2),
//!   where `|E_t|` is the edge count of the minimal repository subtree spanning the
//!   images and `K` is a normalisation constant,
//! * `Δ = α·Δ_sim + (1−α)·Δ_path` (Eq. 3).
//!
//! The same struct also provides the **admissible upper bound** the Branch & Bound
//! generator prunes with: for a partial mapping the remaining `Δ_sim` contribution is
//! bounded by each unassigned node's best available candidate, and `Δ_path` can only
//! decrease as the spanned subtree grows.
//!
//! # Two ways in, one computation
//!
//! A score is a function of two numbers: a **similarity sum** and the **edge count**
//! `|E_t|`. The mapping-taking entry points ([`Objective::delta`],
//! [`Objective::upper_bound`]) derive the two from a [`SchemaMapping`] — a fold over
//! its pairs, a [`steiner_edge_count`] over its images — and are what exhaustive
//! enumeration and the clone-and-recompute test oracle call. The
//! parts-taking entry points ([`Objective::delta_from_parts`],
//! [`Objective::upper_bound_from_parts`]) take the two numbers from a caller that
//! maintains them incrementally, as the Branch & Bound search does. The first kind
//! is written in terms of the second, so equal parts give equal *bits*: the division
//! by `|N_s|`, the `Δ_path` formula and the α-blend each exist once. What a caller
//! of the second kind owes is the summation order of the first: the assigned
//! similarities in pair order, then — for a bound — each unassigned node's best
//! similarity in [`CandidateSet::personal_nodes`] order.

use serde::{Deserialize, Serialize};
use xsm_schema::TreeLabeling;

use crate::candidates::CandidateSet;
use crate::mapping::{steiner_edge_count, SchemaMapping};

/// Parameters of the objective function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveConfig {
    /// Weight α of the name-similarity hint; `1−α` weights the path-length hint.
    pub alpha: f64,
    /// Normalisation constant `K` of Eq. 2. The paper sets it "using other constraints
    /// in the system (e.g. the maximum length of a path)"; 4.0 is our default — a
    /// mapping whose subtree has `4·|E_s|` excess edges scores `Δ_path = 0`.
    pub path_norm: f64,
}

impl Default for ObjectiveConfig {
    fn default() -> Self {
        ObjectiveConfig {
            alpha: 0.5,
            path_norm: 4.0,
        }
    }
}

impl ObjectiveConfig {
    /// Builder-style α override (clamped to `[0,1]`).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.clamp(0.0, 1.0);
        self
    }

    /// Builder-style K override (floored at a small positive value).
    pub fn with_path_norm(mut self, k: f64) -> Self {
        self.path_norm = k.max(1e-6);
        self
    }
}

/// Evaluates `Δ` for (partial) schema mappings against one personal schema.
#[derive(Debug, Clone)]
pub struct Objective {
    config: ObjectiveConfig,
    /// `|N_s|`.
    personal_node_count: usize,
    /// `|E_s|`.
    personal_edge_count: usize,
}

impl Objective {
    /// Create an objective for a personal schema of the given size.
    pub fn new(
        config: ObjectiveConfig,
        personal_node_count: usize,
        personal_edge_count: usize,
    ) -> Self {
        Objective {
            config,
            personal_node_count,
            personal_edge_count,
        }
    }

    /// Convenience constructor from a matching problem.
    pub fn for_problem(problem: &crate::problem::MatchingProblem) -> Self {
        Objective::new(
            problem.objective,
            problem.personal_size(),
            problem.personal_edges(),
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> ObjectiveConfig {
        self.config
    }

    /// `Δ_sim` (Eq. 1): sum of element similarities over *all* personal nodes divided
    /// by `|N_s|`; unassigned nodes contribute 0.
    pub fn delta_sim(&self, mapping: &SchemaMapping) -> f64 {
        self.delta_sim_from_sum(mapping.assigned_similarity_sum())
    }

    /// `Δ_sim` from a precomputed similarity sum (0 for an empty personal schema).
    fn delta_sim_from_sum(&self, similarity_sum: f64) -> f64 {
        if self.personal_node_count == 0 {
            return 0.0;
        }
        similarity_sum / self.personal_node_count as f64
    }

    /// `Δ_path` (Eq. 2) for a mapping whose images live in the tree labelled by
    /// `labeling`. For mappings spanning fewer than two nodes the subtree has no edges
    /// and the term evaluates to its maximum, 1.0.
    pub fn delta_path(&self, mapping: &SchemaMapping, labeling: &TreeLabeling) -> f64 {
        self.delta_path_from_edges(mapping_edge_count(mapping, labeling) as f64)
    }

    /// `Δ_path` from a precomputed `|E_t|`.
    pub fn delta_path_from_edges(&self, et: f64) -> f64 {
        let es = self.personal_edge_count as f64;
        if es == 0.0 {
            // A single-node personal schema has no structure to compare.
            return 1.0;
        }
        let excess = (et - es).max(0.0);
        (1.0 - excess / (es * self.config.path_norm)).clamp(0.0, 1.0)
    }

    /// `Δ` (Eq. 3) for a complete or partial mapping.
    pub fn delta(&self, mapping: &SchemaMapping, labeling: &TreeLabeling) -> f64 {
        self.delta_from_parts(
            mapping.assigned_similarity_sum(),
            mapping_edge_count(mapping, labeling),
        )
    }

    /// `Δ` from the two numbers it depends on: the sum of the assigned similarities
    /// and the edge count `|E_t|` of the subtree spanning the images.
    pub fn delta_from_parts(&self, similarity_sum: f64, edge_count: u32) -> f64 {
        self.combine(
            self.delta_sim_from_sum(similarity_sum),
            self.delta_path_from_edges(edge_count as f64),
        )
    }

    /// Combine precomputed `Δ_sim` and `Δ_path`.
    pub fn combine(&self, delta_sim: f64, delta_path: f64) -> f64 {
        (self.config.alpha * delta_sim + (1.0 - self.config.alpha) * delta_path).clamp(0.0, 1.0)
    }

    /// Admissible upper bound on the best complete extension of `partial`:
    ///
    /// * `Δ_sim` is bounded by adding, for every still-unassigned personal node, the
    ///   highest candidate similarity that `scope` offers for it;
    /// * `Δ_path` is bounded by the current partial subtree size (`|E_t|` can only
    ///   grow, so `Δ_path` can only shrink).
    ///
    /// The Branch & Bound generator prunes a branch when this bound falls below δ.
    pub fn upper_bound(
        &self,
        partial: &SchemaMapping,
        labeling: &TreeLabeling,
        scope: &CandidateSet,
    ) -> f64 {
        let mut sim_sum = partial.assigned_similarity_sum();
        for &pnode in scope.personal_nodes() {
            if partial.image_of(pnode).is_none() {
                let best = scope
                    .candidates_for(pnode)
                    .first()
                    .map(|m| m.similarity)
                    .unwrap_or(0.0);
                sim_sum += best;
            }
        }
        self.upper_bound_from_parts(sim_sum, mapping_edge_count(partial, labeling))
    }

    /// The bound of [`Objective::upper_bound`] from its two numbers:
    /// `bound_similarity_sum` is the assigned similarities summed in pair order plus,
    /// in [`CandidateSet::personal_nodes`] order, the best similarity on offer for
    /// every unassigned node; `edge_count` is `|E_t|` of the partial mapping. An empty
    /// personal schema bounds at 0.
    pub fn upper_bound_from_parts(&self, bound_similarity_sum: f64, edge_count: u32) -> f64 {
        if self.personal_node_count == 0 {
            return 0.0;
        }
        self.delta_from_parts(bound_similarity_sum, edge_count)
    }

    /// [`Objective::upper_bound_from_parts`] of a complete mapping whose
    /// [`Objective::delta_from_parts`] is `score`: with no list left open the bound
    /// *is* the score, save for an empty personal schema, which bounds at 0.
    pub(crate) fn complete_bound(&self, score: f64) -> f64 {
        if self.personal_node_count == 0 {
            return 0.0;
        }
        score
    }

    /// Does [`Objective::delta_from_parts`] never rise when the similarity sum
    /// falls or the edge count grows? So it is for every `α` in `[0, 1]` and
    /// `K > 0` — what the builders keep them to — because every step of the
    /// formula, float rounding included, is monotone then.
    pub(crate) fn is_monotone(&self) -> bool {
        (0.0..=1.0).contains(&self.config.alpha) && self.config.path_norm > 0.0
    }
}

/// `|E_t|` of a mapping: the edges of the minimal subtree spanning its images.
fn mapping_edge_count(mapping: &SchemaMapping, labeling: &TreeLabeling) -> u32 {
    let nodes: Vec<xsm_schema::NodeId> = mapping.pairs().iter().map(|p| p.repo.node).collect();
    steiner_edge_count(labeling, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{CandidateSet, MappingElement};
    use crate::mapping::SchemaMapping;
    use xsm_schema::tree::{paper_personal_schema, paper_repository_fragment};
    use xsm_schema::{GlobalNodeId, NodeId, TreeId, TreeLabeling};

    fn gid(node: NodeId) -> GlobalNodeId {
        GlobalNodeId::new(TreeId(0), node)
    }

    /// The Fig. 1 mapping: book→book, title→title, author→authorName.
    fn fig1_mapping() -> (SchemaMapping, TreeLabeling, Objective) {
        let personal = paper_personal_schema();
        let repo_tree = paper_repository_fragment();
        let lab = TreeLabeling::build(&repo_tree);
        let p_book = personal.find_by_name("book").unwrap();
        let p_title = personal.find_by_name("title").unwrap();
        let p_author = personal.find_by_name("author").unwrap();
        let r_book = repo_tree.find_by_name("book").unwrap();
        let r_title = repo_tree.find_by_name("title").unwrap();
        let r_author = repo_tree.find_by_name("authorName").unwrap();
        let sim_author = xsm_similarity::compare_string_fuzzy("author", "authorName");
        let mapping = SchemaMapping::new(vec![
            MappingElement::new(p_book, gid(r_book), 1.0),
            MappingElement::new(p_title, gid(r_title), 1.0),
            MappingElement::new(p_author, gid(r_author), sim_author),
        ]);
        let objective = Objective::new(
            ObjectiveConfig::default(),
            personal.len(),
            personal.edge_count(),
        );
        (mapping, lab, objective)
    }

    #[test]
    fn delta_sim_averages_over_all_personal_nodes() {
        let (mapping, _, obj) = fig1_mapping();
        let sim_author = xsm_similarity::compare_string_fuzzy("author", "authorName");
        let expected = (1.0 + 1.0 + sim_author) / 3.0;
        assert!((obj.delta_sim(&mapping) - expected).abs() < 1e-12);
    }

    #[test]
    fn delta_path_penalises_excess_edges() {
        let (mapping, lab, obj) = fig1_mapping();
        // Images {book, title, authorName} span 3 edges (data is a Steiner point);
        // |E_s| = 2, K = 4, so Δ_path = 1 - (3-2)/(2*4) = 0.875.
        assert!((obj.delta_path(&mapping, &lab) - 0.875).abs() < 1e-12);
    }

    #[test]
    fn delta_combines_with_alpha() {
        let (mapping, lab, obj) = fig1_mapping();
        let sim = obj.delta_sim(&mapping);
        let path = obj.delta_path(&mapping, &lab);
        let expected = 0.5 * sim + 0.5 * path;
        assert!((obj.delta(&mapping, &lab) - expected).abs() < 1e-12);

        let alpha_heavy = Objective::new(ObjectiveConfig::default().with_alpha(1.0), 3, 2);
        assert!((alpha_heavy.delta(&mapping, &lab) - sim).abs() < 1e-12);
        let path_heavy = Objective::new(ObjectiveConfig::default().with_alpha(0.0), 3, 2);
        assert!((path_heavy.delta(&mapping, &lab) - path).abs() < 1e-12);
    }

    #[test]
    fn delta_path_edge_cases() {
        let obj = Objective::new(ObjectiveConfig::default(), 1, 0);
        // Single-node personal schema: structure term is neutral 1.0.
        assert_eq!(obj.delta_path_from_edges(0.0), 1.0);
        assert_eq!(obj.delta_path_from_edges(10.0), 1.0);

        let obj = Objective::new(ObjectiveConfig::default(), 3, 2);
        // No excess.
        assert_eq!(obj.delta_path_from_edges(2.0), 1.0);
        // Excess beyond K·|E_s| clamps to zero.
        assert_eq!(obj.delta_path_from_edges(2.0 + 8.0), 0.0);
        assert_eq!(obj.delta_path_from_edges(100.0), 0.0);
        // |E_t| below |E_s| (partial mapping) must not exceed 1.
        assert_eq!(obj.delta_path_from_edges(0.0), 1.0);
    }

    #[test]
    fn upper_bound_dominates_true_score_of_any_extension() {
        let personal = paper_personal_schema();
        let repo_tree = paper_repository_fragment();
        let lab = TreeLabeling::build(&repo_tree);
        let p_nodes = personal.preorder();
        let obj = Objective::new(
            ObjectiveConfig::default(),
            personal.len(),
            personal.edge_count(),
        );

        // Candidate scope: every personal node may map to every repository node with
        // the fuzzy similarity.
        let mut scope = CandidateSet::new(p_nodes.clone());
        for &p in &p_nodes {
            for r in repo_tree.node_ids() {
                let sim =
                    xsm_similarity::compare_string_fuzzy(personal.name_of(p), repo_tree.name_of(r));
                scope.push(MappingElement::new(p, gid(r), sim));
            }
        }
        scope.sort();

        // Partial mapping assigning only the root.
        let r_book = repo_tree.find_by_name("book").unwrap();
        let partial = SchemaMapping::new(vec![MappingElement::new(p_nodes[0], gid(r_book), 1.0)]);
        let bound = obj.upper_bound(&partial, &lab, &scope);

        // Enumerate all complete extensions and verify none exceeds the bound.
        let mut best = 0.0f64;
        for r1 in repo_tree.node_ids() {
            for r2 in repo_tree.node_ids() {
                if r1 == r2 || r1 == r_book || r2 == r_book {
                    continue;
                }
                let m = SchemaMapping::new(vec![
                    MappingElement::new(p_nodes[0], gid(r_book), 1.0),
                    MappingElement::new(
                        p_nodes[1],
                        gid(r1),
                        xsm_similarity::compare_string_fuzzy(
                            personal.name_of(p_nodes[1]),
                            repo_tree.name_of(r1),
                        ),
                    ),
                    MappingElement::new(
                        p_nodes[2],
                        gid(r2),
                        xsm_similarity::compare_string_fuzzy(
                            personal.name_of(p_nodes[2]),
                            repo_tree.name_of(r2),
                        ),
                    ),
                ]);
                best = best.max(obj.delta(&m, &lab));
            }
        }
        assert!(
            bound + 1e-9 >= best,
            "bound {bound} does not dominate best completion {best}"
        );
    }

    #[test]
    fn config_builders_clamp() {
        let c = ObjectiveConfig::default().with_alpha(3.0);
        assert_eq!(c.alpha, 1.0);
        let c = ObjectiveConfig::default().with_alpha(-1.0);
        assert_eq!(c.alpha, 0.0);
        let c = ObjectiveConfig::default().with_path_norm(0.0);
        assert!(c.path_norm > 0.0);
    }

    #[test]
    fn empty_personal_schema_scores_zero() {
        let obj = Objective::new(ObjectiveConfig::default(), 0, 0);
        let m = SchemaMapping::new(vec![]);
        assert_eq!(obj.delta_sim(&m), 0.0);
        let lab = TreeLabeling::build(&paper_repository_fragment());
        let scope = CandidateSet::new(vec![]);
        assert_eq!(obj.upper_bound(&m, &lab, &scope), 0.0);
    }
}
