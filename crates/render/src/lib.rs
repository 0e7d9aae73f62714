//! Deterministic software renderer — the stand-in for the "new generation
//! of commodity graphics cards like the nVidia GeForce series" the paper
//! exploits.
//!
//! Every hardware feature the paper relies on has a software equivalent
//! here, so both sides of each comparison (volume vs hybrid, streamtubes
//! vs self-orienting surfaces) run on the same substrate and their cost
//! *ratios* are meaningful:
//!
//! - [`framebuffer`] — RGBA + depth buffers, image-difference metrics.
//! - [`camera`] — perspective camera and the world → pixel pipeline.
//! - [`rasterizer`] — z-buffered, perspective-correct triangle-strip
//!   rasterization in parallel row bands (the fixed-function geometry
//!   path).
//! - [`volume`] — ray-cast volume rendering of a density grid through a
//!   transfer function (the 3-D-texture volume rendering path).
//! - [`points`] — point splatting with transfer-function-driven
//!   subsampling (the point-rendering path of the hybrid method).
//! - [`texture`] — 2-D textures incl. the tube bump-map and halo maps of
//!   the self-orienting surfaces.
//! - [`shading`] — Phong/headlight shading and the bump-mapped tube
//!   cross-section model.
//! - [`transparency`] — back-to-front sorted compositing for translucent
//!   geometry (§3.3.3).
//! - [`texmem`] — a texture-memory budget model (resident textures,
//!   upload costs) backing the viewer's "already in video memory" path.
//! - [`image`] — PPM output for the examples.

#![forbid(unsafe_code)]

pub mod camera;
pub mod displaylist;
pub mod framebuffer;
pub mod image;
pub mod points;
pub mod rasterizer;
pub mod shading;
pub mod texmem;
pub mod texture;
pub mod trackball;
pub mod transparency;
pub mod volume;

pub use camera::Camera;
pub use displaylist::DisplayList;
pub use framebuffer::Framebuffer;
pub use points::{splat_points, PointStyle};
pub use rasterizer::{draw_triangle, draw_triangle_strips, Vertex};
pub use texmem::TextureMemory;
pub use texture::Texture2;
pub use trackball::Trackball;
pub use transparency::TransparentQueue;
pub use volume::{render_volume, GridView, VolumeCost, VolumeStyle, VolumeTransfer};
