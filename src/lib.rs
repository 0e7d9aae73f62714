//! # accelviz
//!
//! A full reproduction of *"Advanced Visualization Technology for Terascale
//! Particle Accelerator Simulations"* (Ma, Schussman, Wilson, Ko, Qiang,
//! Ryne — SC 2002) as a Rust workspace. This facade crate re-exports every
//! subsystem so applications can depend on a single crate:
//!
//! - [`math`] — vectors, matrices, colors, statistics.
//! - [`beam`] — particle beam dynamics simulator (FODO channel with a
//!   particle-core space-charge model producing beam halos).
//! - [`octree`] — density-sorted octree partitioning of particle data and
//!   threshold extraction into hybrid representations (paper §2.3).
//! - [`emsim`] — time-domain electromagnetic solver on hexahedral meshes of
//!   multi-cell linac structures (paper §3 substrate).
//! - [`render`] — deterministic software renderer: volume ray casting,
//!   point splatting, textured triangle strips (stand-in for the GeForce-
//!   class hardware the paper uses).
//! - [`fieldlines`] — streamline integration, field-magnitude-proportional
//!   incremental seeding, and self-orienting surfaces (paper §3).
//! - [`core`] — the hybrid rendering pipeline, transfer functions, viewer
//!   frame cache, and remote-visualization model (paper §2).
//! - [`serve`] — the multi-client TCP frame service (§2.1's remote
//!   transfer made real) over one frame origin ([`serve::Origin`]:
//!   partitions in memory or a run file), including the sharded
//!   scale-out layer: one router speaking the same protocol over N
//!   rendezvous-hashed shard servers ([`serve::router`]).
//! - [`store`] — compressed frame codecs (the wire's AVWF v2 encoding is
//!   built from them) and the out-of-core run store that lets a viewer
//!   or server work through a run larger than RAM.
//! - [`trace`] — spans, counters, and Chrome trace-event export; set
//!   `ACCELVIZ_TRACE=trace.json` before running any example or benchmark
//!   to capture a whole-pipeline trace, then call [`trace::flush`] (the
//!   examples already do).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.
//!
//! # Quickstart
//!
//! The whole §2 pipeline — simulate, partition, extract, render:
//!
//! ```
//! use accelviz::beam::simulation::{BeamConfig, BeamSimulation};
//! use accelviz::core::hybrid::HybridFrame;
//! use accelviz::core::scene::{render_hybrid_frame, RenderMode};
//! use accelviz::core::transfer::TransferFunctionPair;
//! use accelviz::octree::builder::{partition, BuildParams};
//! use accelviz::octree::extraction::threshold_for_budget;
//! use accelviz::octree::plots::PlotType;
//! use accelviz::render::camera::Camera;
//! use accelviz::render::framebuffer::Framebuffer;
//! use accelviz::render::points::PointStyle;
//! use accelviz::render::volume::VolumeStyle;
//!
//! // A small beam, a few FODO cells.
//! let mut sim = BeamSimulation::new(BeamConfig::zero_current(2_000, 42));
//! for _ in 0..64 {
//!     sim.step();
//! }
//! let snapshot = sim.snapshot(1);
//!
//! // Partition into the density-sorted octree, extract a hybrid frame.
//! let data = partition(&snapshot.particles, PlotType::XYZ, BuildParams::default());
//! let threshold = threshold_for_budget(&data, 500);
//! let frame = HybridFrame::from_partition(&data, 1, threshold, [16, 16, 16]);
//! assert!(frame.points.len() <= 500);
//!
//! // Render volume + halo points through the linked transfer functions.
//! let camera = Camera::orbit(
//!     frame.bounds.center(),
//!     frame.bounds.longest_edge() * 2.2,
//!     0.5,
//!     0.3,
//!     1.0,
//! );
//! let mut fb = Framebuffer::new(64, 64);
//! let stats = render_hybrid_frame(
//!     &mut fb,
//!     &camera,
//!     &frame,
//!     &TransferFunctionPair::linked_at(0.05, 0.02),
//!     RenderMode::Hybrid,
//!     &VolumeStyle { steps: 16, ..Default::default() },
//!     &PointStyle::default(),
//! );
//! assert!(stats.volume_samples > 0);
//! ```

#![forbid(unsafe_code)]

pub use accelviz_beam as beam;
pub use accelviz_core as core;
pub use accelviz_emsim as emsim;
pub use accelviz_fieldlines as fieldlines;
pub use accelviz_math as math;
pub use accelviz_octree as octree;
pub use accelviz_render as render;
pub use accelviz_serve as serve;
pub use accelviz_store as store;
pub use accelviz_trace as trace;
