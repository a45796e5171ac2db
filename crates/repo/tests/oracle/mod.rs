//! The T-occurrence count filter by brute force, the reference every merge
//! policy of `NameIndex::lookup_names_resolved` is compared against.
//!
//! `count_filter` never reads the posting arena, the segment directory or the
//! dead-posting counters: it walks every **live name** of the name table, counts
//! the query's known grams present in that name's own gram signature, keeps the
//! names that reach `ceil(frac · distinct query grams)` (at least one) and fans
//! them out to their nodes. What it shares with production is the interner
//! resolution of the query (`resolve_query`) and the name table itself —
//! `name_table_equivalence.rs` checks those against strings cut from the
//! repository's nodes. Only the public API of the product crates is used.

// Each suite compiles this module into its own test binary and calls a subset.
#![allow(dead_code)]

use xsm_repo::{CandidateScratch, CandidateStats, LengthWindow, MergePolicy, NameIndex};
use xsm_schema::GlobalNodeId;

/// Every merge policy a lookup can be forced onto.
pub const POLICIES: [MergePolicy; 3] = [
    MergePolicy::Auto,
    MergePolicy::ScanCount,
    MergePolicy::ScanProbe,
];

/// The node-level production lookup of a query given as a string.
pub fn lookup(
    index: &NameIndex,
    name: &str,
    frac: f64,
    window: LengthWindow,
    policy: MergePolicy,
    scratch: &mut CandidateScratch,
) -> (Vec<GlobalNodeId>, CandidateStats) {
    index.lookup_candidates_resolved(&index.resolve_query(name), frac, window, policy, scratch)
}

/// The unwindowed count filter: the nodes, ascending, of every live name
/// sharing at least `ceil(frac · distinct)` (at least one) of the query's
/// distinct grams.
pub fn count_filter(index: &NameIndex, name: &str, frac: f64) -> Vec<GlobalNodeId> {
    let resolved = index.resolve_query(name);
    let distinct = resolved.distinct_grams();
    if distinct == 0 {
        return Vec::new();
    }
    let needed = ((frac * distinct as f64).ceil() as usize).max(1);
    let mut nodes: Vec<GlobalNodeId> = Vec::new();
    for (_, features, carriers) in index.features().live_names() {
        let signature = features.gram_sig();
        let shared = resolved
            .known_grams()
            .iter()
            .filter(|gram| signature.binary_search(gram).is_ok())
            .count();
        if shared >= needed {
            nodes.extend_from_slice(carriers);
        }
    }
    nodes.sort_unstable();
    nodes
}
