//! # xsm-matcher — the Bellflower schema matcher (non-clustered baseline)
//!
//! This crate implements the classic schema-matching architecture of the paper's
//! Fig. 2, i.e. everything *except* the clusterer (which lives in `xsm-core`):
//!
//! 1. **Element matching** ([`element`]): every personal-schema element is compared to
//!    every repository element with the paper's fuzzy name kernel; pairs whose
//!    similarity reaches the configured floor become *mapping elements*
//!    ([`candidates::MappingElement`], grouped per personal node in
//!    [`candidates::CandidateSet`]).
//! 2. **Objective function** ([`objective`]): `Δ(s,t) = α·Δ_sim + (1−α)·Δ_path`
//!    (Eq. 1–3 of the paper), evaluated over complete and partial schema mappings.
//! 3. **Schema-mapping generation** ([`generator`]): enumerate combinations of mapping
//!    elements into [`mapping::SchemaMapping`]s and keep those with `Δ ≥ δ`. The
//!    paper's generator is Branch & Bound
//!    ([`generator::branch_and_bound::BranchAndBoundGenerator`]); exhaustive
//!    enumeration ([`generator::exhaustive::ExhaustiveGenerator`]) is the paper's
//!    yardstick for it.
//! 4. **Counters** ([`counters`]): the search-space size and partial-mapping counts
//!    that Tab. 1 of the paper reports.
//!
//! The crate is scope-agnostic: the same generator runs on a whole repository tree
//! (the paper's non-clustered "tree clusters" baseline) or on a cluster produced by
//! `xsm-core` — a scope is just a [`candidates::CandidateSet`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod counters;
pub mod element;
pub mod generator;
pub mod mapping;
pub mod objective;
pub mod problem;

pub use candidates::{CandidateSet, MappingElement};
pub use counters::GeneratorCounters;
pub use element::ElementMatchConfig;
pub use generator::branch_and_bound::BranchAndBoundGenerator;
pub use generator::{GenerationOutcome, MappingGenerator, TopMappings};
pub use mapping::SchemaMapping;
pub use objective::{Objective, ObjectiveConfig};
pub use problem::MatchingProblem;
