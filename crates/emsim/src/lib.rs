//! Time-domain electromagnetic field solver on hexahedral meshes — the
//! substrate standing in for SLAC's Tau3P parallel field solver (§3,
//! ref \[16\]).
//!
//! The paper's field data comes from "a parallel time domain
//! electromagnetic field solver using unstructured hexahedral meshes"
//! modeling "the reflection and transmission properties of open structures
//! in an accelerator design": multi-cell linac cavities with input/output
//! ports. Simulations are Courant-limited ("simulating 100 nanoseconds in
//! the real world requires millions of time steps") and a single step of
//! E+B on a 1.6 M-element mesh costs ~80 MB.
//!
//! This crate implements:
//! - [`mesh`] — explicit hexahedral element meshes.
//! - [`cavity`] — generators for n-cell linac structures with ports
//!   (including the asymmetric-port geometry of Figure 9).
//! - [`fdtd`] — a Yee/FIT time-domain Maxwell solver with PEC staircase
//!   boundaries, port excitation, and sponge absorption, in normalized
//!   units (c = 1).
//! - [`courant`] — the Courant-condition arithmetic in physical units
//!   (used to verify the paper's 326 700-step claim).
//! - [`sample`] — point sampling of E/B for streamline integration.
//! - [`energy`] — total field energy and Poynting flux diagnostics.
//! - [`io`] — field snapshot size accounting (the 80 MB/step, 26 TB
//!   total storage arithmetic).

#![forbid(unsafe_code)]

pub mod cavity;
pub mod courant;
pub mod energy;
pub mod fdtd;
pub mod io;
pub mod mesh;
pub mod modes;
pub mod sample;

pub use cavity::{CavityGeometry, CavitySpec};
pub use courant::courant_dt;
pub use fdtd::{FdtdSim, FdtdSpec};
pub use mesh::{HexElement, HexMesh};
pub use sample::FieldSampler;
