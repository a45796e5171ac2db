//! Distance measures between mapping elements and centroids.
//!
//! "In Bellflower, the distance measure distance(n′,m′) is the actual tree distance
//! (i.e., path length) between the centroid node n′ and the mapping element m′. …
//! Bellflower uses node labeling techniques to provide low-cost computation of path
//! lengths." The paper also notes the measure must match the objective function and
//! anticipates hybrid measures (future research item 3); [`HybridDistance`] implements
//! that extension.

use xsm_repo::SchemaRepository;
use xsm_schema::{GlobalNodeId, NodeId, TreeId, TreeLabeling};

/// A distance between two repository nodes for clustering purposes. Lower is closer;
/// `None` means "infinitely far" (different trees).
pub trait ClusterDistance: Send + Sync {
    /// Distance between `a` and `b`, or `None` when undefined (different trees).
    fn distance(&self, repo: &SchemaRepository, a: GlobalNodeId, b: GlobalNodeId) -> Option<f64>;

    /// [`ClusterDistance::distance`] between two nodes of one tree whose labelling
    /// the caller has already resolved. The k-means kernel clusters tree by tree and
    /// looks each tree's labelling up once, not once per pair. The default goes
    /// through `distance`; a measure that only needs the labelling overrides it, and
    /// must return exactly what `distance` would.
    fn distance_in_tree(
        &self,
        repo: &SchemaRepository,
        tree: TreeId,
        labeling: &TreeLabeling,
        a: NodeId,
        b: NodeId,
    ) -> Option<f64> {
        let _ = labeling;
        self.distance(repo, GlobalNodeId::new(tree, a), GlobalNodeId::new(tree, b))
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's measure: tree path length via the node labelling.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathLengthDistance;

impl ClusterDistance for PathLengthDistance {
    fn distance(&self, repo: &SchemaRepository, a: GlobalNodeId, b: GlobalNodeId) -> Option<f64> {
        repo.distance(a, b).map(|d| d as f64)
    }
    fn distance_in_tree(
        &self,
        _repo: &SchemaRepository,
        _tree: TreeId,
        labeling: &TreeLabeling,
        a: NodeId,
        b: NodeId,
    ) -> Option<f64> {
        labeling.distance(a, b).map(|d| d as f64)
    }
    fn name(&self) -> &'static str {
        "path-length"
    }
}

/// A hybrid measure: path length stretched by name dissimilarity, so that elements
/// that are structurally close *and* lexically close to the centroid gravitate
/// together. `distance = path · (1 + w·(1 − sim(name_a, name_b)))`.
#[derive(Debug, Clone, Copy)]
pub struct HybridDistance {
    /// Weight of the lexical stretch; 0 reduces to pure path length.
    pub name_weight: f64,
}

impl Default for HybridDistance {
    fn default() -> Self {
        HybridDistance { name_weight: 1.0 }
    }
}

impl ClusterDistance for HybridDistance {
    fn distance(&self, repo: &SchemaRepository, a: GlobalNodeId, b: GlobalNodeId) -> Option<f64> {
        let path = repo.distance(a, b)? as f64;
        let sim = xsm_similarity::compare_string_fuzzy(repo.name_of(a), repo.name_of(b));
        Some(path * (1.0 + self.name_weight * (1.0 - sim)))
    }
    fn name(&self) -> &'static str {
        "hybrid(path,name)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::{paper_personal_schema, paper_repository_fragment};

    fn repo() -> SchemaRepository {
        SchemaRepository::from_trees(vec![paper_repository_fragment(), paper_personal_schema()])
    }

    #[test]
    fn path_length_matches_repository_distance() {
        let r = repo();
        let t0 = r.tree(TreeId(0)).unwrap();
        let title = GlobalNodeId::new(TreeId(0), t0.find_by_name("title").unwrap());
        let shelf = GlobalNodeId::new(TreeId(0), t0.find_by_name("shelf").unwrap());
        let d = PathLengthDistance;
        assert_eq!(d.distance(&r, title, shelf), Some(3.0));
        assert_eq!(d.distance(&r, title, title), Some(0.0));
        assert_eq!(d.name(), "path-length");
    }

    #[test]
    fn in_tree_distance_agrees_with_the_global_form() {
        let r = repo();
        let labeling = r.labeling(TreeId(0)).unwrap();
        let hybrid = HybridDistance::default();
        let measures: [&dyn ClusterDistance; 2] = [&PathLengthDistance, &hybrid];
        for measure in measures {
            for a in 0..labeling.len() as u32 {
                for b in 0..labeling.len() as u32 {
                    let (ga, gb) = (
                        GlobalNodeId::new(TreeId(0), NodeId(a)),
                        GlobalNodeId::new(TreeId(0), NodeId(b)),
                    );
                    assert_eq!(
                        measure.distance_in_tree(&r, TreeId(0), labeling, NodeId(a), NodeId(b)),
                        measure.distance(&r, ga, gb),
                        "{} diverged on ({a}, {b})",
                        measure.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cross_tree_distance_is_none() {
        let r = repo();
        let a = GlobalNodeId::new(TreeId(0), NodeId(0));
        let b = GlobalNodeId::new(TreeId(1), NodeId(0));
        assert_eq!(PathLengthDistance.distance(&r, a, b), None);
        assert_eq!(HybridDistance::default().distance(&r, a, b), None);
    }

    #[test]
    fn hybrid_stretches_lexically_distant_pairs() {
        let r = repo();
        let t0 = r.tree(TreeId(0)).unwrap();
        let title = GlobalNodeId::new(TreeId(0), t0.find_by_name("title").unwrap());
        let author = GlobalNodeId::new(TreeId(0), t0.find_by_name("authorName").unwrap());
        let shelf = GlobalNodeId::new(TreeId(0), t0.find_by_name("shelf").unwrap());
        let h = HybridDistance::default();
        let p = PathLengthDistance;
        // Hybrid distance is never smaller than pure path length (names differ).
        assert!(h.distance(&r, title, author).unwrap() >= p.distance(&r, title, author).unwrap());
        assert!(h.distance(&r, title, shelf).unwrap() >= p.distance(&r, title, shelf).unwrap());
        // Zero weight reduces to path length.
        let h0 = HybridDistance { name_weight: 0.0 };
        assert_eq!(h0.distance(&r, title, shelf), p.distance(&r, title, shelf));
    }
}
