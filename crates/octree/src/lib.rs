//! Density-sorted octree partitioning of particle data — the paper's §2.3
//! preprocessing pipeline.
//!
//! The paper adds structure to unstructured particle dumps in two steps:
//!
//! 1. **Partitioning** (one-time, on the supercomputer): particles are
//!    inserted into an octree whose subdivision is limited by a maximal
//!    level. The result has two parts — a particle array in which
//!    particles of the same node are grouped and the groups are *sorted by
//!    increasing density*, and the nodes, each storing an offset into that
//!    array plus its group size. On disk both parts live in
//!    `accelviz-store`'s run file: per frame, a node blob and the sorted
//!    particles in checksummed chunks.
//! 2. **Extraction** (fast, repeatable): given a threshold density, the
//!    particles of all nodes below the threshold are exactly a contiguous
//!    prefix of the sorted particles, so extraction is a straight copy;
//!    [`extraction::kept_prefix`] sizes that prefix from the nodes
//!    alone, and the run store's `load_prefix` reads only it, so
//!    discarded particles are never read from disk.
//!
//! Modules:
//! - [`plots`] — the 6-coordinate → 3-D plot projections of Figure 2.
//! - [`builder`] — octree construction ([`partition`]).
//! - [`node`] — node storage ([`Node`], [`Octree`]).
//! - [`sorted_store`] — the density-sorted particle layout
//!   ([`PartitionedData`]).
//! - [`store_io`] — the node-blob codec the run store embeds.
//! - [`extraction`] — threshold extraction ([`HybridExtract`]).
//! - [`density`] — the low-resolution density grids fed to the volume
//!   renderer ([`DensityGrid`]).
//! - [`parallel`] — the multi-node (domain-decomposed) partitioning path
//!   the paper runs when a time step exceeds one node's memory.

#![forbid(unsafe_code)]

pub mod builder;
pub mod density;
pub mod extraction;
pub mod node;
pub mod parallel;
pub mod plots;
pub mod sorted_store;
pub mod store_io;

pub use builder::{partition, BuildParams};
pub use density::DensityGrid;
pub use extraction::HybridExtract;
pub use node::{Node, Octree};
pub use parallel::partition_parallel;
pub use plots::PlotType;
pub use sorted_store::PartitionedData;
