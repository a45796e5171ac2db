//! # xsm-bench — experiment harness
//!
//! Reproduces every table and figure of the paper's evaluation (Sec. 5):
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
