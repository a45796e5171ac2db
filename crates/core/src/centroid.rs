//! Centroid (medoid) computation.
//!
//! "In Bellflower, the centroid for a cluster is selected from the mapping elements
//! which belong to the cluster (such centroids are also known as medoids). More
//! specifically, the mapping element which is the center of weight for the cluster is
//! used as a centroid."

use xsm_repo::SchemaRepository;
use xsm_schema::GlobalNodeId;

/// Number of members above which the medoid is computed over a deterministic sample
/// rather than all pairs (keeps huge clusters from costing `O(m²)`).
const MEDOID_SAMPLE_LIMIT: usize = 256;

/// The sampling stride of [`medoid_of`] over `len` members: 1 — every member — up
/// to 511 members.
pub(crate) fn medoid_stride(len: usize) -> usize {
    (len / MEDOID_SAMPLE_LIMIT).max(1)
}

/// The medoid of `members` under the path length `distance`: the member minimising
/// the sum of distances to a deterministic sample of the members ("center of
/// weight"; every [`medoid_stride`]-th member, so all of them up to 511). Ties
/// break towards the smaller member so the result is deterministic. Returns `None`
/// for an empty slice.
///
/// An unreachable pair (`None`) is a penalty that outweighs every path length: a
/// member with fewer unreachable pairs always wins, and between members with the
/// same non-zero count path lengths decide nothing — the smaller member wins.
///
/// Generic over what a member is — the k-means kernel passes its `u32` node slots,
/// [`tree_medoid`] global node ids — and allocation-free: the sample is walked in
/// place.
pub(crate) fn medoid_of<T: Copy + Ord>(
    members: &[T],
    mut distance: impl FnMut(T, T) -> Option<u32>,
) -> Option<T> {
    if members.len() <= 1 {
        return members.first().copied();
    }
    let stride = medoid_stride(members.len());
    let mut best: Option<((usize, u64), T)> = None;
    for &candidate in members {
        let (mut unreachable, mut sum) = (0usize, 0u64);
        for &other in members.iter().step_by(stride) {
            match distance(candidate, other) {
                Some(d) => sum += u64::from(d),
                None => unreachable += 1,
            }
        }
        let cost = if unreachable > 0 {
            (unreachable, 0)
        } else {
            (0, sum)
        };
        if best.is_none_or(|best| (cost, candidate) < best) {
            best = Some((cost, candidate));
        }
    }
    best.map(|(_, member)| member)
}

/// The medoid of one whole tree, over plain node ids (no cluster membership
/// required): the node minimising the summed path length to a deterministic
/// sample of the tree's nodes — the sampling stride, tie-break and unreachable-pair
/// rule of the k-means medoid, so the result is a stable per-tree summary.
/// Returns `None` for an empty tree.
pub fn tree_medoid(repo: &SchemaRepository, nodes: &[GlobalNodeId]) -> Option<GlobalNodeId> {
    medoid_of(nodes, |a, b| repo.distance(a, b))
}

/// One [`tree_medoid`] per tree of the repository, in tree order — the
/// per-tree centroid table a snapshot persists. Deterministic given the
/// repository; empty trees get `None`.
pub fn tree_centroids(repo: &SchemaRepository) -> Vec<Option<GlobalNodeId>> {
    repo.trees()
        .map(|(tid, _)| tree_medoid(repo, &repo.tree_node_ids(tid)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsm_schema::tree::paper_repository_fragment;
    use xsm_schema::{NodeId, TreeId};

    fn fig1_repo() -> SchemaRepository {
        SchemaRepository::from_trees(vec![paper_repository_fragment()])
    }

    #[test]
    fn medoid_of_empty_and_singleton() {
        let repo = fig1_repo();
        assert_eq!(tree_medoid(&repo, &[]), None);
        let only = GlobalNodeId::new(TreeId(0), NodeId(2));
        assert_eq!(tree_medoid(&repo, &[only]), Some(only));
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
        assert_eq!(tree_medoid(&repo, &members), Some(gid("data")));
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
        let m1 = tree_medoid(&repo, &members);
        members.reverse();
        let m2 = tree_medoid(&repo, &members);
        assert_eq!(m1, m2);
    }

    #[test]
    fn two_member_tie_breaks_to_smaller_id() {
        let repo = fig1_repo();
        let a = GlobalNodeId::new(TreeId(0), NodeId(3));
        let b = GlobalNodeId::new(TreeId(0), NodeId(4));
        // Symmetric pair: both have the same distance sum; smaller id wins.
        assert_eq!(tree_medoid(&repo, &[b, a]), Some(a));
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
        let m = tree_medoid(&repo, &nodes).unwrap();
        assert_eq!(
            m.tree,
            TreeId(0),
            "the two same-tree members outweigh the stray"
        );
    }

    /// The medoid as it was computed in `f64`: unreachable pairs add
    /// `f64::MAX / sample`, comparisons allow `1e-12`.
    fn f64_medoid(members: &[u32], distance: impl Fn(u32, u32) -> Option<u32>) -> Option<u32> {
        if members.len() <= 1 {
            return members.first().copied();
        }
        let stride = (members.len() / MEDOID_SAMPLE_LIMIT).max(1);
        let unreachable = f64::MAX / members.len().div_ceil(stride) as f64;
        let mut best: Option<(f64, u32)> = None;
        for &candidate in members {
            let mut sum = 0.0;
            for &other in members.iter().step_by(stride) {
                sum += distance(candidate, other).map_or(unreachable, f64::from);
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

    #[test]
    fn integer_medoid_equals_the_f64_formula_with_unreachable_pairs() {
        // Seeded distance tables: some all reachable, some with a few or many
        // unreachable pairs, some past 511 members (sampled), some asymmetric.
        let mix = |seed: u64, a: u32, b: u32| {
            let mut z =
                seed ^ (u64::from(a) << 32 | u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut compared = [0usize; 2];
        for seed in 0..240u64 {
            let len = [2, 3, 5, 9, 40, 120][seed as usize % 6] + (seed as usize % 7);
            let len = if seed % 40 == 7 {
                600 + seed as usize
            } else {
                len
            };
            let none_percent = [0, 0, 2, 10, 40, 90][(seed / 6) as usize % 6];
            let symmetric = seed % 5 != 0;
            let distance = |a: u32, b: u32| {
                if a == b {
                    return Some(0);
                }
                let (x, y) = if symmetric {
                    (a.min(b), a.max(b))
                } else {
                    (a, b)
                };
                let h = mix(seed, x, y);
                (h % 100 >= none_percent).then_some((h >> 8) as u32 % 12)
            };
            // Ascending, as every caller passes them.
            let mut members: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
            let integer = medoid_of(&members, distance);
            assert_eq!(integer, f64_medoid(&members, distance), "seed {seed}");
            let unreachable = members
                .iter()
                .any(|&a| members.iter().any(|&b| distance(a, b).is_none()));
            compared[usize::from(unreachable)] += 1;
            // Shuffled, the integer form still ties to the smaller member. The
            // `f64` form did so only while every pair was reachable: past one
            // unreachable pair its `1e-12` slack vanished next to the penalty,
            // and a tie kept whichever member came first.
            members.sort_by_key(|&m| mix(seed + 1, m, 0));
            if !unreachable && members.len() < 2 * MEDOID_SAMPLE_LIMIT {
                assert_eq!(integer, f64_medoid(&members, distance), "seed {seed}");
            }
            if members.len() < 2 * MEDOID_SAMPLE_LIMIT {
                assert_eq!(medoid_of(&members, distance), integer, "seed {seed}");
            }
        }
        assert!(
            compared.iter().all(|&n| n > 20),
            "both regimes covered: {compared:?}"
        );
    }
}
