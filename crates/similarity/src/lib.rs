//! # xsm-similarity — string and token similarity kernels
//!
//! The Bellflower element matcher of the paper uses a single *localized* matcher:
//! `sim(n, n') → [0,1]` implemented with the commercial `CompareStringFuzzy` function,
//! "a normalized string similarity based on character substitution, insertion,
//! exclusion, and transposition". This crate provides an open implementation of that
//! kernel ([`fuzzy::compare_string_fuzzy`], normalized Damerau–Levenshtein) and what
//! serves it:
//!
//! * [`edit`] — the optimal-string-alignment dynamic program
//!   ([`edit::damerau_levenshtein`]), the reference every faster kernel is held to,
//! * [`ngram::qgrams`] — the padded q-gram extraction the repository index posts,
//! * [`features`] — precomputed per-name features ([`features::NameFeatures`]:
//!   lowercased chars, interned q-gram signatures, bit-parallel match vectors)
//!   and the zero-allocation form of the paper's kernel over them
//!   ([`features::fuzzy_features`]), bit-identical to the string measure but built
//!   for the serving hot path where every repository name is scored millions of
//!   times,
//! * [`simd`] — the blocked edit-distance kernel for names past 64 characters,
//!   the index's ScanCount accumulation and the vectorized ASCII helpers,
//! * [`token`] and [`synonym::builtin_groups`] — element-name tokenization,
//!   token-set similarity and synonym groups, which the synthetic repository
//!   generator uses to mutate names.
//!
//! All similarities lie in `[0,1]`, are symmetric in their arguments, and are
//! case-insensitive unless documented otherwise.

// `deny` rather than `forbid`: the `simd` module scopes an `allow` around its
// runtime-dispatched vectorized kernels; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod edit;
pub mod features;
pub mod fuzzy;
pub mod ngram;
pub mod simd;
pub mod synonym;
pub mod token;

pub use features::{GramInterner, NameFeatures, SimScratch};
pub use fuzzy::compare_string_fuzzy;
