//! Density-sorted octree partitioning of particle data — the paper's §2.3
//! preprocessing pipeline.
//!
//! The paper adds structure to unstructured particle dumps in two steps:
//!
//! 1. **Partitioning** (one-time, on the supercomputer): particles are
//!    inserted into an octree whose subdivision is limited by a maximal
//!    level. The tree is written in two parts — a particle file in which
//!    particles of the same node are grouped and the groups are *sorted by
//!    increasing density*, and a node file in which each node stores an
//!    offset into the particle file plus its group size.
//! 2. **Extraction** (fast, repeatable): given a threshold density, the
//!    particles of all nodes below the threshold are exactly a contiguous
//!    prefix of the particle file, so extraction is a straight copy that
//!    never reads discarded particles.
//!
//! Modules:
//! - [`plots`] — the 6-coordinate → 3-D plot projections of Figure 2.
//! - [`builder`] — octree construction ([`partition`]).
//! - [`node`] — node storage ([`Node`], [`Octree`]).
//! - [`sorted_store`] — the density-sorted two-part layout
//!   ([`PartitionedData`]).
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
