//! Particle beam dynamics simulator — the substrate standing in for the
//! IMPACT parallel particle-in-cell code whose output the paper visualizes
//! (§2, refs [10, 11]).
//!
//! The paper's beam data comes from simulations of "an intense beam
//! propagating in a magnetic quadrupole channel", with focusing alternating
//! in the transverse x/y planes (a FODO lattice) and a tenuous *beam halo*
//! thousands of times less dense than the core — the region the hybrid
//! rendering technique exists to preserve. This crate reproduces that data
//! generator at laptop scale:
//!
//! - [`particle`] — 6-D phase-space particles `(x, px, y, py, z, pz)` in
//!   double precision, exactly the layout the paper stores (48 bytes each).
//! - [`distribution`] — initial particle distributions (Gaussian, KV,
//!   waterbag, semi-Gaussian) with explicit seeds.
//! - [`lattice`] — drift/quadrupole elements and FODO channel builders.
//! - [`transport`] — symplectic linear maps through lattice elements.
//! - [`spacecharge`] — the particle-core model of Qiang & Ryne (the paper's
//!   ref \[10\]): a breathing uniform-density core whose mismatch oscillations
//!   resonantly drive particles into a halo.
//! - [`simulation`] — the time-stepping loop (Rayon-parallel particle
//!   pushes) producing per-step snapshots.
//! - [`diagnostics`] — rms sizes, emittances, halo metrics, and the
//!   four-fold-symmetry measure visible in the paper's Figure 5.
//! - [`io`] — the fixed binary snapshot format whose byte counts back the
//!   paper's storage arithmetic (100 M particles ⇒ ~5 GB per step).

#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod distribution;
pub mod io;
pub mod lattice;
pub mod particle;
pub mod simulation;
pub mod spacecharge;
pub mod transport;
pub mod twiss;

pub use diagnostics::BeamDiagnostics;
pub use distribution::{Distribution, DistributionKind};
pub use io::{read_snapshot, snapshot_bytes, write_snapshot, BYTES_PER_PARTICLE};
pub use lattice::{Element, Lattice};
pub use particle::{Particle, PhaseCoord};
pub use simulation::{BeamConfig, BeamSimulation, Snapshot};
pub use spacecharge::{CoreEnvelope, SpaceChargeModel};
pub use twiss::{periodic_twiss, Twiss};
