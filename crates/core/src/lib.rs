//! # xsm-core — clustered schema matching (the paper's contribution)
//!
//! This crate implements the *clustered schema matching* technique of Smiljanic, van
//! Keulen and Jonker (ICDE 2006): an intermediate clustering step inserted between the
//! element-matching and mapping-generation stages of a classic schema matcher
//! (Fig. 3 of the paper).
//!
//! The clusterer ([`kmeans::KMeansClusterer`]) partitions the repository's *mapping
//! elements* into [`cluster::Cluster`]s using an adapted k-means:
//!
//! * **distance measure** — the tree (path-length) distance between a mapping element
//!   and a centroid; the kernel reads it off one virtual tree per clustered tree,
//!   built from the node labelling, so every pass is a few linear sweeps,
//! * **centroid initialisation** — per tree, every element of `ME_min` (the personal
//!   node with the fewest mapping elements there) seeds one centroid,
//! * **medoid centroids** — the member that is the "center of weight" of its cluster
//!   ([`centroid`]),
//! * **reclustering** — join clusters whose centroids are near each other, remove tiny
//!   clusters ([`config::ReclusterStrategy`]),
//! * **convergence** — stop when the fraction of elements switching clusters and the
//!   change in cluster count drop below a threshold ([`convergence`]).
//!
//! Each [`cluster::Cluster`] carries its members and its *scope* — the candidate set
//! restricted to them — and the mapping generator then runs **per cluster** on those
//! scopes instead of per repository tree, shrinking the search space from
//! `O(|ME_n|^{|N_s|})` to `O(c·(|ME_n|/c)^{|N_s|})` at the price of losing some
//! (mostly low-ranked) mappings. [`pipeline::ClusteredMatcher`]
//! wires the whole thing together and produces the cluster/generator statistics that
//! Tab. 1 and Figs. 4–6 of the paper report; [`metrics`] computes the preserved-mapping
//! curves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centroid;
pub mod cluster;
pub mod config;
pub mod convergence;
mod distance;
mod kernel;
pub mod kmeans;
pub mod metrics;
pub mod ordering;
pub mod pipeline;
pub mod report;

pub use cluster::{Cluster, ClusterSet};
pub use config::{ClusteringConfig, ClusteringVariant};
pub use kmeans::{KMeansClusterer, KMeansStats};
pub use metrics::preservation_curve;
pub use pipeline::{ClusteredMatchReport, ClusteredMatcher};
pub use report::SizeHistogram;
