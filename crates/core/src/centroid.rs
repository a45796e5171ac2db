//! Centroid (medoid) computation.
//!
//! "In Bellflower, the centroid for a cluster is selected from the mapping elements
//! which belong to the cluster (such centroids are also known as medoids). More
//! specifically, the mapping element which is the center of weight for the cluster is
//! used as a centroid."

use crate::distance::ClusterDistance;
use xsm_repo::SchemaRepository;
use xsm_schema::GlobalNodeId;

/// Number of members above which the medoid is computed over a deterministic sample
/// rather than all pairs (keeps huge clusters from costing `O(m²)`).
const MEDOID_SAMPLE_LIMIT: usize = 256;

/// The medoid of `members` under `distance`: the member minimising the sum of
/// distances to a deterministic sample of the members ("center of weight"; every
/// `len / 256`-th member, so all of them up to 511). Unreachable pairs count as a
/// large penalty; ties break towards the smaller member so the result is
/// deterministic. Returns `None` for an empty slice.
///
/// Generic over what a member is — the k-means kernel passes its `u32` node slots,
/// [`tree_medoid`] global node ids — and allocation-free: the sample is walked in
/// place.
pub(crate) fn medoid_of<T: Copy + Ord>(
    members: &[T],
    distance: impl Fn(T, T) -> Option<f64>,
) -> Option<T> {
    if members.len() <= 1 {
        return members.first().copied();
    }
    let stride = (members.len() / MEDOID_SAMPLE_LIMIT).max(1);
    let unreachable = f64::MAX / members.len().div_ceil(stride) as f64;

    let mut best: Option<(f64, T)> = None;
    for &candidate in members {
        let mut sum = 0.0;
        for &other in members.iter().step_by(stride) {
            sum += distance(candidate, other).unwrap_or(unreachable);
        }
        let better = match best {
            None => true,
            Some((best_sum, best_member)) => {
                sum < best_sum - 1e-12 || (sum < best_sum + 1e-12 && candidate < best_member)
            }
        };
        if better {
            best = Some((sum, candidate));
        }
    }
    best.map(|(_, member)| member)
}

/// The medoid of one whole tree, over plain node ids (no cluster membership
/// required): the node minimising the summed [`ClusterDistance`] to a deterministic
/// sample of the tree's nodes — the sampling stride, tie-break and unreachable-pair
/// penalty of the k-means medoid, so the result is a stable per-tree summary.
/// Returns `None` for an empty tree.
pub fn tree_medoid(
    repo: &SchemaRepository,
    distance: &dyn ClusterDistance,
    nodes: &[GlobalNodeId],
) -> Option<GlobalNodeId> {
    medoid_of(nodes, |a, b| distance.distance(repo, a, b))
}

/// One [`tree_medoid`] per tree of the repository, in tree order — the
/// per-tree centroid table a snapshot persists. Deterministic given the
/// repository; empty trees get `None`.
pub fn tree_centroids(
    repo: &SchemaRepository,
    distance: &dyn ClusterDistance,
) -> Vec<Option<GlobalNodeId>> {
    repo.trees()
        .map(|(tid, _)| tree_medoid(repo, distance, &repo.tree_node_ids(tid)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::PathLengthDistance;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::{NodeId, TreeId};

    fn fig1_repo() -> SchemaRepository {
        SchemaRepository::from_trees(vec![paper_repository_fragment()])
    }

    #[test]
    fn medoid_of_empty_and_singleton() {
        let repo = fig1_repo();
        assert_eq!(tree_medoid(&repo, &PathLengthDistance, &[]), None);
        let only = GlobalNodeId::new(TreeId(0), NodeId(2));
        assert_eq!(tree_medoid(&repo, &PathLengthDistance, &[only]), Some(only));
    }

    #[test]
    fn medoid_is_the_central_member() {
        let repo = fig1_repo();
        let tree = repo.tree(TreeId(0)).unwrap();
        let gid = |name: &str| GlobalNodeId::new(TreeId(0), tree.find_by_name(name).unwrap());
        // Members: title, authorName, data, book. 'data' is adjacent to title and
        // authorName and one step from book — it minimises the distance sum.
        let members: Vec<GlobalNodeId> = ["title", "authorName", "data", "book"]
            .iter()
            .map(|n| gid(n))
            .collect();
        assert_eq!(
            tree_medoid(&repo, &PathLengthDistance, &members),
            Some(gid("data"))
        );
    }

    #[test]
    fn medoid_is_deterministic_under_member_order() {
        let repo = fig1_repo();
        let tree = repo.tree(TreeId(0)).unwrap();
        let gid = |name: &str| GlobalNodeId::new(TreeId(0), tree.find_by_name(name).unwrap());
        let mut members: Vec<GlobalNodeId> = ["shelf", "title", "authorName", "data", "book"]
            .iter()
            .map(|n| gid(n))
            .collect();
        let m1 = tree_medoid(&repo, &PathLengthDistance, &members);
        members.reverse();
        let m2 = tree_medoid(&repo, &PathLengthDistance, &members);
        assert_eq!(m1, m2);
    }

    #[test]
    fn two_member_tie_breaks_to_smaller_id() {
        let repo = fig1_repo();
        let a = GlobalNodeId::new(TreeId(0), NodeId(3));
        let b = GlobalNodeId::new(TreeId(0), NodeId(4));
        // Symmetric pair: both have the same distance sum; smaller id wins.
        assert_eq!(tree_medoid(&repo, &PathLengthDistance, &[b, a]), Some(a));
    }

    #[test]
    fn unreachable_pairs_are_penalised_not_fatal() {
        // Members of two trees: every cross-tree pair is undefined. The medoid is
        // still a member, and the penalty (f64::MAX spread over the sample) cannot
        // overflow the sum to infinity and erase the ordering.
        let repo = SchemaRepository::from_trees(vec![
            paper_repository_fragment(),
            paper_repository_fragment(),
        ]);
        let nodes = [
            GlobalNodeId::new(TreeId(0), NodeId(1)),
            GlobalNodeId::new(TreeId(0), NodeId(2)),
            GlobalNodeId::new(TreeId(1), NodeId(1)),
        ];
        let m = tree_medoid(&repo, &PathLengthDistance, &nodes).unwrap();
        assert_eq!(
            m.tree,
            TreeId(0),
            "the two same-tree members outweigh the stray"
        );
    }
}
