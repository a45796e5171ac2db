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
