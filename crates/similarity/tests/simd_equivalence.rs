//! Property suite for the `simd` module: every vectorized / word-parallel
//! kernel is bit-identical to its scalar reference on arbitrary inputs,
//! regardless of which CPU tier the host dispatches to.
//!
//! Run with `XSM_FORCE_SCALAR=1` (the CI forced-scalar leg) and every
//! dispatching kernel pins itself to the scalar path, so this suite proves the
//! fallback and the fast path compute the same answers on any host.

use proptest::prelude::*;
use xsm_similarity::edit::damerau_levenshtein;
use xsm_similarity::simd::{
    accumulate_run, accumulate_run_scalar, hyyro_osa_blocked, lowercase, BlockPeq, BlockScratch,
};

fn blocked_osa(a: &str, b: &str) -> Option<usize> {
    let ac: Vec<char> = a.chars().collect();
    if ac.is_empty() {
        return None;
    }
    let peq = BlockPeq::build(&ac);
    let bc: Vec<char> = b.chars().collect();
    let mut scratch = BlockScratch::default();
    Some(hyyro_osa_blocked(&peq, ac.len(), &bc, &mut scratch))
}

// Mixed-case ASCII plus multi-byte letters, short enough for one block.
const NAMEISH: &str = "[a-zA-Z0-9_\\-äÖßλΣ中]{0,20}";
// Two to three blocks: past 64 and past 128 characters.
const MULTIBLOCK: &str = "[a-d ]{0,150}";
// Two-letter alphabet maximises edits and adjacent transpositions.
const TRANSPOSY: &str = "[ab]{0,140}";

proptest! {
    #[test]
    fn blocked_osa_equals_dp(a in NAMEISH, b in NAMEISH) {
        if let Some(got) = blocked_osa(&a, &b) {
            prop_assert_eq!(got, damerau_levenshtein(&a, &b));
        }
    }

    #[test]
    fn blocked_osa_equals_dp_multiblock(a in MULTIBLOCK, b in MULTIBLOCK) {
        if let Some(got) = blocked_osa(&a, &b) {
            prop_assert_eq!(got, damerau_levenshtein(&a, &b));
        }
    }

    #[test]
    fn blocked_osa_equals_dp_transposition_rich(a in TRANSPOSY, b in TRANSPOSY) {
        if let Some(got) = blocked_osa(&a, &b) {
            prop_assert_eq!(got, damerau_levenshtein(&a, &b));
        }
    }

    #[test]
    fn accumulate_run_equals_scalar(
        run in proptest::collection::vec(0u32..512, 0..600),
        size in 1usize..513,
    ) {
        // Only keep indices in bounds so both paths complete; the out-of-bounds
        // panic equivalence is covered by the dedicated test below.
        let mut run: Vec<u32> = run.into_iter().filter(|&d| (d as usize) < size).collect();
        let mut c1 = vec![0u8; size];
        let mut t1 = vec![7u32];
        accumulate_run_scalar(&run, &mut c1, &mut t1);
        let mut c2 = vec![0u8; size];
        let mut t2 = vec![7u32];
        accumulate_run(&run, &mut c2, &mut t2);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(t1, t2);
        // The same input in posting-arena form (strictly ascending, no
        // duplicates) — the shape the index actually hands the kernel.
        run.sort_unstable();
        run.dedup();
        let mut c1 = vec![0u8; size];
        let mut t1 = vec![7u32];
        accumulate_run_scalar(&run, &mut c1, &mut t1);
        let mut c2 = vec![0u8; size];
        let mut t2 = vec![7u32];
        accumulate_run(&run, &mut c2, &mut t2);
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(t1, t2);
    }

    /// The index's count filter relies on the counters **saturating**: a name
    /// seen in more than 255 runs must read exactly 255, never wrap. Feeds one
    /// ascending run of at least 16 ids (the length at which the x86 core
    /// engages instead of the scalar loop) 300 times or more, and a second run
    /// a number of times around 255; every counter must equal
    /// `min(hits, 255)` on both tiers, with each id touched once.
    #[test]
    fn accumulate_run_saturates_at_255(
        start in 0u32..64,
        stride in 1u32..4,
        len in 16u32..48,
        repeats in 300usize..400,
        near in 240usize..270,
    ) {
        let hot: Vec<u32> = (0..len).map(|i| start + i * stride).collect();
        let last = hot[hot.len() - 1];
        let edge: Vec<u32> = (last + 1..last + 17).collect();
        let size = last as usize + 20;
        let mut expected = vec![0u8; size];
        for &d in &hot {
            expected[d as usize] = repeats.min(255) as u8;
        }
        for &d in &edge {
            expected[d as usize] = near.min(255) as u8;
        }
        let first_touches: Vec<u32> = [7].into_iter().chain(hot.iter().chain(&edge).copied()).collect();
        type Accumulate = fn(&[u32], &mut [u8], &mut Vec<u32>);
        let tiers: [(&str, Accumulate); 2] =
            [("scalar", accumulate_run_scalar), ("dispatched", accumulate_run)];
        for (tier, accumulate) in tiers {
            let mut counts = vec![0u8; size];
            let mut touched = vec![7u32];
            for _ in 0..repeats {
                accumulate(&hot, &mut counts, &mut touched);
            }
            for _ in 0..near {
                accumulate(&edge, &mut counts, &mut touched);
            }
            prop_assert!(counts == expected, "{} counters diverged from min(hits, 255)", tier);
            prop_assert!(touched == first_touches, "{} touched list diverged", tier);
        }
    }

    #[test]
    fn lowercase_equals_std(s in "[a-zA-Z0-9_\\- äÖßλΣΊ中]{0,80}") {
        prop_assert_eq!(lowercase(&s), s.to_lowercase());
    }
}

#[test]
fn blocked_kernels_handle_degenerate_shapes() {
    // Empty text, all-identical-char names, and exact block-boundary lengths.
    for m in [1usize, 63, 64, 65, 127, 128, 129, 200] {
        let a = "x".repeat(m);
        for b in ["", "x", &"x".repeat(m), &"y".repeat(m), &"x".repeat(m + 64)] {
            assert_eq!(
                blocked_osa(&a, b).unwrap(),
                damerau_levenshtein(&a, b),
                "m={m}"
            );
        }
    }
}

#[test]
fn accumulate_run_panics_out_of_bounds_like_scalar() {
    let run: Vec<u32> = (0..40).chain([99u32]).collect();
    let mut counts = vec![0u8; 50];
    let mut touched = Vec::new();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        accumulate_run(&run, &mut counts, &mut touched);
    }));
    assert!(err.is_err(), "out-of-bounds id must still panic");
}
