//! Convergence criteria for the k-means loop (Sec. 4, "Convergence criteria").
//!
//! "Bellflower monitors, in each iteration, the number of mapping elements which
//! switched from one cluster to another, and the change in the number of clusters.
//! When these numbers drop below a certain threshold, e.g. 5 percent of the total
//! number of mapping elements/clusters, the algorithm terminates."

use crate::config::ClusteringConfig;

/// Tracks per-iteration movement and cluster-count change and decides when to stop.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTracker {
    previous_cluster_count: Option<usize>,
    /// Elements moved in each observed iteration.
    pub moved_history: Vec<usize>,
    /// Cluster counts after each observed iteration.
    pub cluster_history: Vec<usize>,
}

impl ConvergenceTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every observation, keeping the histories' capacity (the k-means
    /// kernel reuses one tracker across the trees of a forest).
    pub fn reset(&mut self) {
        self.previous_cluster_count = None;
        self.moved_history.clear();
        self.cluster_history.clear();
    }

    /// Record one iteration and report whether the algorithm has converged.
    ///
    /// * `moved` — number of elements that switched clusters this iteration,
    /// * `total_elements` — total number of elements being clustered,
    /// * `cluster_count` — number of clusters after this iteration's reclustering.
    pub fn observe(
        &mut self,
        moved: usize,
        total_elements: usize,
        cluster_count: usize,
        config: &ClusteringConfig,
    ) -> bool {
        self.moved_history.push(moved);
        self.cluster_history.push(cluster_count);

        let stable_elements = if total_elements == 0 {
            true
        } else {
            (moved as f64 / total_elements as f64) <= config.stability_fraction
        };
        let stable_clusters = match self.previous_cluster_count {
            None => false, // need at least two observations to call the count stable
            Some(prev) if prev == 0 && cluster_count == 0 => true,
            Some(prev) => {
                let base = prev.max(1) as f64;
                ((cluster_count as f64 - prev as f64).abs() / base)
                    <= config.cluster_change_fraction
            }
        };
        self.previous_cluster_count = Some(cluster_count);
        stable_elements && stable_clusters
    }

    /// Number of iterations observed so far.
    pub fn iterations(&self) -> usize {
        self.moved_history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClusteringConfig {
        ClusteringConfig::default() // 5% / 5%
    }

    #[test]
    fn first_iteration_never_converges() {
        let mut t = ConvergenceTracker::new();
        assert!(!t.observe(0, 100, 10, &config()));
        assert_eq!(t.iterations(), 1);
    }

    #[test]
    fn converges_when_both_criteria_hold() {
        let mut t = ConvergenceTracker::new();
        assert!(!t.observe(40, 100, 12, &config()));
        // 3% moved, cluster count unchanged → converged.
        assert!(t.observe(3, 100, 12, &config()));
        assert_eq!(t.iterations(), 2);
    }

    #[test]
    fn does_not_converge_when_elements_still_move() {
        let mut t = ConvergenceTracker::new();
        t.observe(50, 100, 10, &config());
        assert!(!t.observe(20, 100, 10, &config()));
    }

    #[test]
    fn does_not_converge_when_cluster_count_still_changes() {
        let mut t = ConvergenceTracker::new();
        t.observe(2, 100, 20, &config());
        // Only 1% of elements moved, but the cluster count dropped by 50%.
        assert!(!t.observe(1, 100, 10, &config()));
        // Next iteration with a stable count converges.
        assert!(t.observe(1, 100, 10, &config()));
    }

    #[test]
    fn zero_elements_is_immediately_stable_after_two_looks() {
        let mut t = ConvergenceTracker::new();
        assert!(!t.observe(0, 0, 0, &config()));
        assert!(t.observe(0, 0, 0, &config()));
    }

    #[test]
    fn reset_tracker_behaves_like_a_fresh_one() {
        let mut t = ConvergenceTracker::new();
        t.observe(40, 100, 12, &config());
        t.reset();
        assert_eq!(t.iterations(), 0);
        // No previous cluster count survives: the first look never converges.
        assert!(!t.observe(0, 100, 12, &config()));
        assert!(t.observe(0, 100, 12, &config()));
        assert_eq!(t.moved_history, vec![0, 0]);
    }

    #[test]
    fn history_is_recorded() {
        let mut t = ConvergenceTracker::new();
        t.observe(10, 100, 9, &config());
        t.observe(5, 100, 8, &config());
        assert_eq!(t.moved_history, vec![10, 5]);
        assert_eq!(t.cluster_history, vec![9, 8]);
    }
}
