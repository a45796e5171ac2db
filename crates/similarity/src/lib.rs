//! # xsm-similarity — string and token similarity kernels
//!
//! The Bellflower element matcher of the paper uses a single *localized* matcher:
//! `sim(n, n') → [0,1]` implemented with the commercial `CompareStringFuzzy` function,
//! "a normalized string similarity based on character substitution, insertion,
//! exclusion, and transposition". This crate provides an open implementation of that
//! kernel ([`fuzzy::compare_string_fuzzy`], normalized Damerau–Levenshtein) and the
//! broader family of similarity measures a COMA-style matcher library needs:
//!
//! * edit-distance family: [`edit::levenshtein`], [`edit::damerau_levenshtein`],
//! * [`jaro::jaro`] / [`jaro::jaro_winkler`],
//! * [`ngram::ngram_similarity`] (q-gram Dice coefficient),
//! * [`token`] — element-name tokenization (camelCase, snake_case, digits) and
//!   token-set similarity,
//! * [`synonym::SynonymTable`] — a small thesaurus matcher,
//! * [`combine`] — strategies for aggregating several similarity values,
//! * [`features`] — precomputed per-name features ([`features::NameFeatures`]:
//!   lowercased chars, interned q-gram signatures, bit-parallel match vectors)
//!   and the zero-allocation form of the paper's kernel over them
//!   ([`features::fuzzy_features`]), bit-identical to the string measure but built
//!   for the serving hot path where every repository name is scored millions of
//!   times.
//!
//! All functions return values in `[0,1]`, are symmetric in their arguments, and are
//! case-insensitive unless documented otherwise.

// `deny` rather than `forbid`: the `simd` module scopes an `allow` around its
// runtime-dispatched vectorized kernels; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod edit;
pub mod features;
pub mod fuzzy;
pub mod jaro;
pub mod ngram;
pub mod simd;
pub mod synonym;
pub mod token;

pub use combine::CombineStrategy;
pub use features::{GramInterner, NameFeatures, SimScratch};
pub use fuzzy::compare_string_fuzzy;
pub use synonym::SynonymTable;

/// A named similarity measure over strings, returning values in `[0,1]`.
///
/// The trait exists so the element matchers in `xsm-matcher` can be configured with
/// any kernel (and so ablation benches can swap kernels without code changes).
pub trait StringSimilarity: Send + Sync {
    /// Similarity of `a` and `b` in `[0,1]`; 1.0 means "identical for matching purposes".
    fn similarity(&self, a: &str, b: &str) -> f64;

    /// Short, stable name used in reports.
    fn name(&self) -> &'static str;
}

/// The paper's kernel: normalized Damerau–Levenshtein (CompareStringFuzzy equivalent).
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzyNameSimilarity;

impl StringSimilarity for FuzzyNameSimilarity {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        fuzzy::compare_string_fuzzy(a, b)
    }
    fn name(&self) -> &'static str {
        "fuzzy"
    }
}

/// Jaro-Winkler kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct JaroWinklerSimilarity;

impl StringSimilarity for JaroWinklerSimilarity {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        jaro::jaro_winkler(a, b)
    }
    fn name(&self) -> &'static str {
        "jaro-winkler"
    }
}

/// Trigram Dice-coefficient kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrigramSimilarity;

impl StringSimilarity for TrigramSimilarity {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        ngram::ngram_similarity(a, b, 3)
    }
    fn name(&self) -> &'static str {
        "trigram"
    }
}

/// Token-set kernel: tokenizes both names and compares token sets with a greedy
/// best-match average using the fuzzy kernel per token.
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenSetSimilarity;

impl StringSimilarity for TokenSetSimilarity {
    fn similarity(&self, a: &str, b: &str) -> f64 {
        token::token_set_similarity(a, b)
    }
    fn name(&self) -> &'static str {
        "token-set"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_work_for_all_kernels() {
        let kernels: Vec<Box<dyn StringSimilarity>> = vec![
            Box::new(FuzzyNameSimilarity),
            Box::new(JaroWinklerSimilarity),
            Box::new(TrigramSimilarity),
            Box::new(TokenSetSimilarity),
        ];
        for k in &kernels {
            assert_eq!(k.similarity("author", "author"), 1.0, "{}", k.name());
            assert_eq!(
                k.similarity("author", "author"),
                k.similarity("AUTHOR", "author")
            );
            let s = k.similarity("author", "authorName");
            assert!(s > 0.3 && s < 1.0, "{}: {s}", k.name());
        }
    }
}
