//! Clustering configuration and the paper's named variants.

use serde::{Deserialize, Serialize};

/// How reclustering modifies the clusters in each iteration (Sec. 4, "Reclustering").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReclusterStrategy {
    /// No reclustering — the plain k-means assignment (dark bars of Fig. 4).
    None,
    /// Join clusters whose centroids are within the join distance threshold.
    Join,
    /// Join, then remove clusters smaller than the minimum size (their members are
    /// freed and re-assigned in the next iteration).
    #[default]
    JoinAndRemove,
}

/// Configuration of the k-means clusterer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusteringConfig {
    /// Reclustering strategy applied each iteration.
    pub recluster: ReclusterStrategy,
    /// Join clusters whose centroids are at tree distance ≤ this value. The paper's
    /// experiment uses 2 ("small clusters"), 3 ("medium") and 4 ("large").
    pub join_distance: u32,
    /// Remove clusters with fewer members than this (only with
    /// [`ReclusterStrategy::JoinAndRemove`]).
    pub remove_min_size: usize,
    /// Hard cap on k-means iterations.
    pub max_iterations: usize,
    /// Convergence: stop when the fraction of elements that switched clusters in an
    /// iteration is at most this value…
    pub stability_fraction: f64,
    /// …and the relative change in the number of clusters is at most this value.
    pub cluster_change_fraction: f64,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            recluster: ReclusterStrategy::JoinAndRemove,
            join_distance: 3,
            remove_min_size: 2,
            max_iterations: 12,
            stability_fraction: 0.05,
            cluster_change_fraction: 0.05,
        }
    }
}

impl ClusteringConfig {
    /// Builder-style join-distance override.
    pub fn with_join_distance(mut self, d: u32) -> Self {
        self.join_distance = d;
        self
    }

    /// Builder-style recluster-strategy override.
    pub fn with_recluster(mut self, strategy: ReclusterStrategy) -> Self {
        self.recluster = strategy;
        self
    }

    /// Builder-style minimum-cluster-size override.
    pub fn with_remove_min_size(mut self, size: usize) -> Self {
        self.remove_min_size = size;
        self
    }

    /// Builder-style iteration-cap override.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n.max(1);
        self
    }
}

/// The four configurations of the paper's Sec. 5 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusteringVariant {
    /// Join distance 2 — the most aggressive search-space reduction.
    Small,
    /// Join distance 3 — the paper's headline configuration.
    Medium,
    /// Join distance 4 — the gentlest clustering.
    Large,
    /// No clustering: each repository tree is treated as one cluster (the baseline).
    TreeClusters,
}

impl ClusteringVariant {
    /// All four variants, in the order Tab. 1 lists them.
    pub fn all() -> [ClusteringVariant; 4] {
        [
            ClusteringVariant::Small,
            ClusteringVariant::Medium,
            ClusteringVariant::Large,
            ClusteringVariant::TreeClusters,
        ]
    }

    /// The clustering configuration for the variant; `None` for the non-clustered
    /// baseline.
    pub fn config(self) -> Option<ClusteringConfig> {
        match self {
            ClusteringVariant::Small => Some(ClusteringConfig::default().with_join_distance(2)),
            ClusteringVariant::Medium => Some(ClusteringConfig::default().with_join_distance(3)),
            ClusteringVariant::Large => Some(ClusteringConfig::default().with_join_distance(4)),
            ClusteringVariant::TreeClusters => None,
        }
    }

    /// The label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            ClusteringVariant::Small => "small",
            ClusteringVariant::Medium => "medium",
            ClusteringVariant::Large => "large",
            ClusteringVariant::TreeClusters => "tree",
        }
    }
}

impl std::fmt::Display for ClusteringVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ClusteringConfig::default();
        assert_eq!(c.recluster, ReclusterStrategy::JoinAndRemove);
        assert!(c.join_distance >= 1);
        assert!(c.max_iterations >= 1);
        assert!(c.stability_fraction > 0.0 && c.stability_fraction < 1.0);
    }

    #[test]
    fn builders_apply() {
        let c = ClusteringConfig::default()
            .with_join_distance(5)
            .with_recluster(ReclusterStrategy::Join)
            .with_remove_min_size(4)
            .with_max_iterations(0);
        assert_eq!(c.join_distance, 5);
        assert_eq!(c.recluster, ReclusterStrategy::Join);
        assert_eq!(c.remove_min_size, 4);
        assert_eq!(c.max_iterations, 1); // floored
    }

    #[test]
    fn variant_join_distances_match_the_paper() {
        assert_eq!(ClusteringVariant::Small.config().unwrap().join_distance, 2);
        assert_eq!(ClusteringVariant::Medium.config().unwrap().join_distance, 3);
        assert_eq!(ClusteringVariant::Large.config().unwrap().join_distance, 4);
        assert!(ClusteringVariant::TreeClusters.config().is_none());
    }

    #[test]
    fn variant_labels_and_order() {
        let labels: Vec<&str> = ClusteringVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels, vec!["small", "medium", "large", "tree"]);
        assert_eq!(ClusteringVariant::Medium.to_string(), "medium");
    }
}
