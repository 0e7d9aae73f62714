//! Field-line visualization: magnitude-proportional incremental seeding
//! and the *self-orienting surfaces* representation (§3 of the paper;
//! Schussman & Ma, Pacific Graphics 2002).
//!
//! - [`mod@line`] — field-line polylines with tangents and local magnitudes.
//! - [`integrate`] — RK4 streamline tracing through a
//!   [`accelviz_emsim::sample::VectorField3`].
//! - [`seeding`] — the paper's seeding strategy: per-element desired line
//!   counts proportional to ⟨|F|⟩·volume, always extending from the
//!   neediest element, decrementing as lines pass through elements — so
//!   any prefix of the line list shows density ∝ field magnitude and each
//!   rendered set is a superset of the previous (incremental
//!   visualization, Figures 7 and 10).
//! - [`sos`] — self-orienting surfaces: view-aligned triangle strips with
//!   texture-based tube shading (2 triangles per segment).
//! - [`tube`] — the conventional streamtube baseline (2·m triangles per
//!   segment for an m-gon cross-section) the paper compares against.
//! - [`ribbon`] — the wide textured-ribbon variant of Figure 6(e).
//! - [`illuminated`] — the illuminated-field-lines baseline \[13\].
//! - [`compact`] — the compact pre-integrated line storage that buys the
//!   paper's ~25× reduction over raw field dumps.
//! - [`style`] — color/opacity mapping by field strength (Figure 10).
//! - [`uniform`] — the evenly-spaced placement baseline of the prior art
//!   the paper contrasts with (§3.2 refs [2, 7, 14]).
//! - [`roi`] — region-of-interest cutaway and focus+context (§3.3.3).
//! - [`temporal`] — time-varying line animation with parallel
//!   pre-integration (§3.4).

#![forbid(unsafe_code)]

pub mod compact;
pub mod illuminated;
pub mod integrate;
pub mod line;
pub mod ribbon;
pub mod roi;
pub mod seeding;
pub mod sos;
pub mod style;
pub mod temporal;
pub mod tube;
pub mod uniform;

pub use compact::{compact_bytes, deserialize_lines, serialize_lines};
pub use integrate::{trace, TraceParams};
pub use line::FieldLine;
pub use roi::{cutaway, focus_alphas, Region};
pub use seeding::{seed_lines, SeededLine, SeedingParams};
pub use sos::{sos_strip, SosParams};
pub use style::LineStyle;
pub use temporal::{precompute_animation, LineAnimation};
pub use tube::{tube_triangles, TubeParams};
pub use uniform::{seed_lines_uniform, UniformSeedingParams};
