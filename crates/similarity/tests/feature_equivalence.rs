//! Property suite: the feature kernels (`damerau_features`, `fuzzy_features`) are
//! bit-identical to their string-path counterparts on arbitrary inputs — the
//! contract that makes the zero-allocation hot path a pure optimisation.
//!
//! Strategies mix ASCII schema-name characters with multi-byte Unicode (Greek,
//! umlauts, CJK) and lengths past the 64-character bit-parallel cutoff so the
//! Hyyrö fast path, the mixed short/long path and the blocked multi-word
//! kernel (including the three-block ≥ 128-char shapes) are all exercised.

use std::collections::BTreeSet;

use proptest::prelude::*;
use xsm_similarity::edit::damerau_levenshtein;
use xsm_similarity::features::{
    damerau_features, fuzzy_features, GramInterner, NameFeatures, SimScratch,
};
use xsm_similarity::fuzzy::compare_string_fuzzy;
use xsm_similarity::ngram::qgrams;

/// Corpus-side feature pair: both names interned into one shared interner.
fn features(a: &str, b: &str, q: usize) -> (NameFeatures, NameFeatures) {
    let mut interner = GramInterner::new(q);
    (
        NameFeatures::build(a, &mut interner),
        NameFeatures::build(b, &mut interner),
    )
}

// Mixed-case ASCII, separators, digits, and multi-byte letters (ä/Ö/ß, Greek
// λ/Σ, CJK 中) — short enough for the bit-parallel path.
const NAMEISH: &str = "[a-zA-Z0-9_\\-äÖßλΣ中]{0,14}";
// Long strings (possibly > 64 and > 128 chars) force the blocked Hyyrö kernel —
// across one-, two- and three-block pattern widths — on one or both sides, under
// `XSM_FORCE_SCALAR` too. Lowercase-only, multi-byte included, so the raw strings
// are the kernel's inputs.
const LONGISH: &str = "[a-cäλ中 ]{0,150}";

proptest! {
    #[test]
    fn edit_kernels_equal_classic_dp(a in NAMEISH, b in NAMEISH) {
        let (fa, fb) = features(&a, &b, 3);
        let (la, lb) = (a.to_lowercase(), b.to_lowercase());
        let mut scratch = SimScratch::default();
        prop_assert_eq!(
            damerau_features(&fa, &fb, &mut scratch),
            damerau_levenshtein(&la, &lb)
        );
    }

    #[test]
    fn edit_kernels_equal_classic_dp_beyond_64_chars(a in LONGISH, b in LONGISH) {
        let (fa, fb) = features(&a, &b, 3);
        let mut scratch = SimScratch::default();
        prop_assert_eq!(
            damerau_features(&fa, &fb, &mut scratch),
            damerau_levenshtein(&a, &b)
        );
    }

    #[test]
    fn myers_and_dp_agree_across_the_cutoff(a in "[ab]{0,70}", b in "[ab]{0,70}") {
        // A two-letter alphabet maximises edits and transposition opportunities;
        // lengths straddle 64 so the single-word, mixed and blocked paths all run.
        let (fa, fb) = features(&a, &b, 2);
        let mut scratch = SimScratch::default();
        prop_assert_eq!(
            damerau_features(&fa, &fb, &mut scratch),
            damerau_levenshtein(&a, &b)
        );
    }

    #[test]
    fn fuzzy_kernel_is_bit_identical(a in NAMEISH, b in NAMEISH) {
        let (fa, fb) = features(&a, &b, 3);
        let mut scratch = SimScratch::default();
        prop_assert_eq!(
            fuzzy_features(&fa, &fb, &mut scratch).to_bits(),
            compare_string_fuzzy(&a, &b).to_bits()
        );
    }

    #[test]
    fn query_side_features_score_exactly_like_corpus_features(
        corpus in NAMEISH, query in NAMEISH
    ) {
        // The corpus name is interned; the query is built read-only against the
        // frozen interner (unknown grams get private ids). The kernel must agree
        // with the string path exactly, as in the serving engine, and the private
        // ids must collide with no corpus gram: the two signatures share exactly
        // the distinct grams the two strings share.
        let mut interner = GramInterner::new(3);
        let fc = NameFeatures::build(&corpus, &mut interner);
        let fq = NameFeatures::build_query(&query, &interner);
        let mut scratch = SimScratch::default();
        prop_assert_eq!(
            fuzzy_features(&fq, &fc, &mut scratch).to_bits(),
            compare_string_fuzzy(&query, &corpus).to_bits()
        );
        let shared = fq
            .gram_sig()
            .iter()
            .filter(|id| fc.gram_sig().binary_search(id).is_ok())
            .count();
        let distinct = |name: &str| -> BTreeSet<String> {
            qgrams(&name.to_lowercase(), 3).into_iter().collect()
        };
        prop_assert_eq!(
            shared,
            distinct(&query).intersection(&distinct(&corpus)).count()
        );
    }
}
