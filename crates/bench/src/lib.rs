//! # xsm-bench — the paper's experiments, and bellbench
//!
//! The library and four of the binaries reproduce every table and figure of the
//! paper's evaluation (Sec. 5); the fifth binary, `bellbench`
//! (`src/bin/bellbench/`, its README is the manual), is the repository's one
//! benchmark of the served match path and does not use this library.
//!
//! | Experiment | Binary | Library entry point |
//! |---|---|---|
//! | Tab. 1a + 1b (+ clustering-time paragraph) | `table1` | [`experiments::run_table1`] |
//! | Fig. 4 (cluster-size distribution per reclustering strategy) | `fig4` | [`experiments::run_fig4`] |
//! | Fig. 5 (preserved mappings vs δ per clustering variant) | `fig5` | [`experiments::run_fig5`] |
//! | Fig. 6 (preserved mappings vs δ per α) | `fig6` | [`experiments::run_fig6`] |
//!
//! All experiments share one [`workload::ExperimentConfig`]: a seeded synthetic
//! repository standing in for the paper's crawled corpus (see DESIGN.md) and the
//! paper's `name / address / email` personal schema. Binaries print both a
//! human-readable table and tab-separated values, and accept `key=value` overrides
//! (`seed=…`, `elements=…`, `delta=…`, `alpha=…`, `minsim=…`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod workload;

pub use workload::{ExperimentConfig, Workload};
