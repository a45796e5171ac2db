//! Property suite: the filter–verify candidate lookup is a pure optimisation.
//!
//! Under an **infinite** length window, `NameIndex::lookup_candidates_resolved`
//! must return exactly the classic merge-everything count filter's candidate set
//! (`oracle::count_filter`, a brute-force count over every live name): same ids,
//! same (ascending) order — for every merge policy, every q, and overlap
//! fractions across the whole range. Under a **finite** window the result is a
//! subset of the oracle's that never drops a node whose fuzzy similarity clears
//! the window's floor (the length-difference bound is conservative with respect
//! to the kernel's own normalization).
//!
//! Corpora are random forests over a small alphabet (maximising shared grams and
//! count-filter collisions) mixed with schema-ish names; queries include corpus
//! names, near-misses and corpus-unrelated strings.

mod oracle;

use oracle::{count_filter, lookup, POLICIES};
use proptest::prelude::*;
use xsm_repo::index::MergeAlgorithm;
use xsm_repo::{CandidateScratch, LengthWindow, MergePolicy, NameIndex, SchemaRepository};
use xsm_schema::tree::paper_repository_fragment;
use xsm_schema::{SchemaNode, TreeBuilder};
use xsm_similarity::compare_string_fuzzy;
use xsm_similarity::fuzzy::compare_string_fuzzy_bounded;

/// Build a forest from a flat name list, breaking it into trees of ~7 nodes.
fn forest_of(names: &[String]) -> SchemaRepository {
    let mut repo = SchemaRepository::new();
    for chunk in names.chunks(7) {
        let mut builder = TreeBuilder::new("t").root(SchemaNode::element(&chunk[0]));
        for name in &chunk[1..] {
            builder = builder.sibling(SchemaNode::element(name));
        }
        repo.add_tree(builder.build());
    }
    repo
}

const FRACTIONS: [f64; 3] = [0.0, 0.3, 0.99];
const FLOORS: [f64; 3] = [0.3, 0.6, 0.9];

proptest! {
    /// Infinite window ⇒ byte-identical candidate sets for both merge algorithms
    /// and the auto policy, across q ∈ {2, 3} and the overlap-fraction spread.
    #[test]
    fn infinite_window_replays_the_baseline(
        names in proptest::collection::vec("[a-d]{1,8}", 4..40),
        queries in proptest::collection::vec("[a-e]{0,10}", 1..6),
    ) {
        let repo = forest_of(&names);
        for q in [2usize, 3] {
            let index = NameIndex::build_with_q(&repo, q);
            let mut scratch = CandidateScratch::default();
            for query in &queries {
                for frac in FRACTIONS {
                    let baseline = count_filter(&index, query, frac);
                    for policy in POLICIES {
                        let (got, _) = lookup(
                            &index,
                            query,
                            frac,
                            LengthWindow::Infinite,
                            policy,
                            &mut scratch,
                        );
                        prop_assert!(
                            got == baseline,
                            "q={} query={:?} frac={} policy={:?}: {:?} vs {:?}",
                            q, query, frac, policy, got, baseline
                        );
                    }
                }
            }
        }
    }

    /// Finite windows only ever remove candidates, and never one whose fuzzy
    /// similarity clears the floor the window was derived from.
    #[test]
    fn finite_window_is_a_conservative_subset(
        names in proptest::collection::vec("[a-d]{1,9}", 4..40),
        queries in proptest::collection::vec("[a-d]{0,11}", 1..5),
    ) {
        let repo = forest_of(&names);
        let index = NameIndex::build(&repo);
        let mut scratch = CandidateScratch::default();
        for query in &queries {
            for frac in FRACTIONS {
                let baseline = count_filter(&index, query, frac);
                for floor in FLOORS {
                    let window = LengthWindow::fuzzy_floor(floor);
                    for policy in POLICIES {
                        let (windowed, _) =
                            lookup(&index, query, frac, window, policy, &mut scratch);
                        // Subset, order preserved: every windowed id appears in the
                        // baseline, and the sequence stays ascending.
                        prop_assert!(windowed.windows(2).all(|w| w[0] < w[1]));
                        let mut walk = baseline.iter();
                        for id in &windowed {
                            prop_assert!(
                                walk.any(|b| b == id),
                                "windowed produced {:?} outside the baseline (query {:?})",
                                id, query
                            );
                        }
                        // Nothing above the floor may be dropped.
                        for &id in &baseline {
                            if windowed.contains(&id) {
                                continue;
                            }
                            let sim = compare_string_fuzzy(query, repo.name_of(id));
                            prop_assert!(
                                sim < floor,
                                "query {:?}: dropped {:?} with sim {} >= floor {}",
                                query, repo.name_of(id), sim, floor
                            );
                        }
                    }
                }
            }
        }
    }

    /// Scratch reuse across queries of different shapes never leaks state between
    /// lookups (counters reset through the touched list, ScanProbe's segment
    /// tables rebuilt).
    #[test]
    fn dirty_scratch_equals_fresh_scratch(
        names in proptest::collection::vec("[a-c]{1,7}", 4..30),
        queries in proptest::collection::vec("[a-c]{0,9}", 2..8),
    ) {
        let repo = forest_of(&names);
        let index = NameIndex::build(&repo);
        let mut reused = CandidateScratch::default();
        for (i, query) in queries.iter().enumerate() {
            let frac = FRACTIONS[i % FRACTIONS.len()];
            let floor = FLOORS[i % FLOORS.len()];
            let window = LengthWindow::fuzzy_floor(floor);
            let policy = if i % 2 == 0 { MergePolicy::ScanCount } else { MergePolicy::ScanProbe };
            let (dirty, _) = lookup(&index, query, frac, window, policy, &mut reused);
            let (fresh, _) = lookup(
                &index,
                query,
                frac,
                window,
                policy,
                &mut CandidateScratch::default(),
            );
            prop_assert!(
                dirty == fresh,
                "query {:?} diverged on reused scratch",
                query
            );
        }
    }
}

proptest! {
    /// A `u8` counter saturates at 255, so a count filter over long names runs
    /// in two regimes: more than 255 known grams under a bound of at most 255
    /// (a saturated counter already clears it), and a bound past 255 (a
    /// saturated counter decides nothing). Names of 300–700 characters over a
    /// 36-letter alphabet carry hundreds of distinct 3-grams; twenty-odd
    /// one-substitution variants of one base name share one length segment
    /// per gram (runs long enough for the vectorized counter core) and almost
    /// every gram of the base, so their counters saturate. Every policy, both
    /// windows and overlap fractions 0.5, 0.9 and 1.0 must replay the
    /// brute-force count filter: exactly under the infinite window, as a
    /// conservative subset under a finite one. Every case reaches both regimes.
    #[test]
    fn long_names_past_the_u8_counters_replay_the_baseline(
        base in "[a-z0-9]{560,700}",
        edits in proptest::collection::vec((0usize..700, "[a-z0-9]{1}"), 16..24),
        cuts in proptest::collection::vec(300usize..500, 3..6),
        strangers in proptest::collection::vec("[a-z0-9]{300,700}", 2..4),
    ) {
        let mut names = vec![base.clone()];
        for (at, letter) in &edits {
            let at = at % base.len();
            names.push(format!("{}{}{}", &base[..at], letter, &base[at + 1..]));
        }
        names.extend(cuts.iter().map(|&cut| base[..cut].to_string()));
        names.extend(strangers.iter().cloned());
        let repo = forest_of(&names);
        let index = NameIndex::build(&repo);
        let mut scratch = CandidateScratch::default();
        let floor = 0.6;
        let window = LengthWindow::fuzzy_floor(floor);
        let mut reached_past_255 = false;
        let mut reached_saturated_counts = false;
        for query in [&base[..], &base[..cuts[0]]] {
            let resolved = index.resolve_query(query);
            for frac in [0.5, 0.9, 1.0] {
                let needed = ((frac * resolved.distinct_grams() as f64).ceil() as usize).max(1);
                reached_past_255 |= needed > 255;
                reached_saturated_counts |= resolved.known_grams().len() > 255 && needed <= 255;
                let baseline = count_filter(&index, query, frac);
                let mut windowed = None;
                for policy in POLICIES {
                    let (got, _) = index.lookup_candidates_resolved(
                        &resolved,
                        frac,
                        LengthWindow::Infinite,
                        policy,
                        &mut scratch,
                    );
                    prop_assert!(
                        got == baseline,
                        "query of {} chars frac={} policy={:?}: {:?} vs {:?}",
                        query.len(), frac, policy, got, baseline
                    );
                    let (got, _) =
                        index.lookup_candidates_resolved(&resolved, frac, window, policy, &mut scratch);
                    let first = windowed.get_or_insert_with(|| got.clone());
                    prop_assert!(got == *first, "policy {:?} diverged under the window", policy);
                }
                let windowed = windowed.expect("at least one policy");
                let mut walk = baseline.iter();
                prop_assert!(windowed.iter().all(|id| walk.any(|b| b == id)));
                for &id in &baseline {
                    if windowed.contains(&id) {
                        continue;
                    }
                    let sim = compare_string_fuzzy_bounded(query, repo.name_of(id), floor);
                    prop_assert!(
                        sim.is_none_or(|s| s < floor),
                        "dropped a {}-char name with sim {:?} >= floor {}",
                        repo.name_of(id).len(), sim, floor
                    );
                }
            }
        }
        prop_assert!(reached_past_255, "no lookup had a bound past 255");
        prop_assert!(
            reached_saturated_counts,
            "no lookup had > 255 known grams under a bound <= 255"
        );
    }
}

/// The positional q-gram filter must actually fire — rejecting count-filter
/// survivors whose shared grams are displaced beyond the edit bound — while
/// never rejecting a candidate that clears the floor. Rotated names share the
/// full gram multiset (maximal count-filter collision) but displace every
/// gram by the rotation distance.
#[test]
fn positional_filter_rejects_displaced_grams_and_nothing_else() {
    let names: Vec<String> = vec![
        "abcdefghijkl".into(), // the query itself
        "ghijklabcdef".into(), // rotation by 6: same grams, all displaced
        "abcdefghijkx".into(), // one substitution: genuinely close
        "unrelatedzzz".into(),
    ];
    let repo = forest_of(&names);
    let index = NameIndex::build(&repo);
    let mut scratch = CandidateScratch::default();
    let query = "abcdefghijkl";
    let mut fired = false;
    for floor in [0.6, 0.75, 0.9] {
        let baseline = count_filter(&index, query, 0.0);
        let (got, stats) = lookup(
            &index,
            query,
            0.0,
            LengthWindow::fuzzy_floor(floor),
            MergePolicy::ScanCount,
            &mut scratch,
        );
        fired |= stats.positional_rejections > 0;
        for &id in &baseline {
            let sim = compare_string_fuzzy(query, repo.name_of(id));
            if sim >= floor {
                assert!(
                    got.contains(&id),
                    "floor {floor}: dropped {:?} with sim {sim}",
                    repo.name_of(id)
                );
            }
        }
    }
    assert!(
        fired,
        "the rotated twin was never positionally rejected at any floor"
    );
}

/// Deterministic large-ish corpus crossing the ScanCount/ScanProbe auto boundary:
/// common grams produce posting volumes past the crossover so the Auto policy
/// takes the probing merge, and the result must still replay the oracle.
#[test]
fn auto_policy_crossover_replays_the_baseline() {
    // The crossover volume depends on the active kernel tier (the vectorized
    // ScanCount core raises it), so size the corpus off the live threshold.
    // Postings are per distinct name, so the volume has to come from distinct
    // names sharing grams: three fifths of the corpus are `recordNNNNN`
    // spellings (six grams in common each), while the repeated "shared"
    // collapses to a single posting per gram and stays far below it.
    let count = 5 * xsm_repo::simd::scan_count_max_volume() / 4;
    let names: Vec<String> = (0..count)
        .map(|i| match i % 5 {
            3 => "shared".to_string(),
            4 => format!("f{}x{}", i % 11, i % 7),
            _ => format!("record{i:05}"),
        })
        .collect();
    let repo = forest_of(&names);
    let index = NameIndex::build(&repo);
    let mut scratch = CandidateScratch::default();
    let mut saw_scan_probe = false;
    let mut saw_scan_count = false;
    for query in ["shared", "record00100", "recard00100", "f3x3", "zzz"] {
        for frac in [0.0, 0.4, 0.8] {
            let baseline = count_filter(&index, query, frac);
            let (got, stats) = lookup(
                &index,
                query,
                frac,
                LengthWindow::Infinite,
                MergePolicy::Auto,
                &mut scratch,
            );
            assert_eq!(got, baseline, "{query} frac={frac}");
            saw_scan_probe |= stats.algorithm == MergeAlgorithm::ScanProbe;
            saw_scan_count |=
                stats.algorithm == MergeAlgorithm::ScanCount && stats.volume_in_window > 0;
        }
    }
    assert!(saw_scan_probe, "no query crossed into ScanProbe");
    assert!(saw_scan_count, "no query stayed on ScanCount");
}

/// The paper's Fig. 1 fragment plus a contacts tree: every policy replays the
/// oracle, and a bound no candidate can reach (most of `emailxyzq`'s grams are
/// unknown to the corpus) is empty on both sides.
#[test]
fn filter_verify_matches_the_baseline_on_the_small_repo() {
    let contacts = TreeBuilder::new("contacts")
        .root(SchemaNode::element("person"))
        .child(SchemaNode::element("name"))
        .sibling(SchemaNode::element("emailAddress"))
        .sibling(SchemaNode::element("address"))
        .build();
    let repo = SchemaRepository::from_trees(vec![paper_repository_fragment(), contacts]);
    let index = NameIndex::build(&repo);
    let mut scratch = CandidateScratch::default();
    for name in [
        "address",
        "email",
        "person",
        "authorName",
        "x",
        "",
        "emailxyzq",
    ] {
        for frac in [0.0, 0.3, 0.5, 0.99] {
            let baseline = count_filter(&index, name, frac);
            for policy in POLICIES {
                let (got, _) = lookup(
                    &index,
                    name,
                    frac,
                    LengthWindow::Infinite,
                    policy,
                    &mut scratch,
                );
                assert_eq!(got, baseline, "{name} frac={frac} policy={policy:?}");
            }
        }
    }
    assert!(count_filter(&index, "emailxyzq", 0.99).is_empty());
}
