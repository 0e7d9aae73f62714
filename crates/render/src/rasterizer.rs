//! Z-buffered, perspective-correct triangle rasterization — the
//! fixed-function geometry path of the modeled hardware.
//!
//! One raster core draws everything. [`draw_triangle_strips`] builds the
//! view-projection once, transforms and projects each strip vertex once,
//! and gathers the triangles into batches of [`STRIP_BATCH`] vertices. A
//! batch is filled over bands of rows in parallel: every band walks the
//! batch's triangles in input order and writes only its own rows. A pixel
//! lies in one band and receives its fragments in input order, so images,
//! depths and fragment counts are bit-identical at every pool size to
//! drawing the triangles one at a time (DESIGN.md §18).

use crate::camera::Camera;
use crate::framebuffer::{Band, Framebuffer};
use accelviz_math::{Mat4, Rgba, Vec3, Vec4};

/// A vertex: world position, texture coordinates, and vertex color.
#[derive(Clone, Copy, Debug)]
pub struct Vertex {
    /// World-space position.
    pub pos: Vec3,
    /// Texture coordinate (u along the primitive, v across).
    pub uv: (f64, f64),
    /// Vertex color (interpolated across the triangle).
    pub color: Rgba,
}

impl Vertex {
    /// Vertex with color only.
    pub fn colored(pos: Vec3, color: Rgba) -> Vertex {
        Vertex {
            pos,
            uv: (0.0, 0.0),
            color,
        }
    }
}

/// Rasterization options.
#[derive(Clone, Copy, Debug)]
pub struct RasterOptions {
    /// Write the depth buffer (true for opaque geometry).
    pub write_depth: bool,
}

impl Default for RasterOptions {
    fn default() -> RasterOptions {
        RasterOptions { write_depth: true }
    }
}

/// The per-fragment shader: receives perspective-correct (u, v) and the
/// interpolated vertex color; returns the fragment color or `None` to
/// discard (texture-silhouette kill, as the bump-mapped strips do). Bands
/// of rows call it from several threads.
pub type FragmentShader<'a> = &'a (dyn Fn(f64, f64, Rgba) -> Option<Rgba> + Sync);

/// Vertices per strip batch. A batch's transformed vertices and triangle
/// set-ups take about 0.6 MB; a frame's strips are never held all at once.
pub const STRIP_BATCH: usize = 4096;

/// Projected vertex: pixel x/y, NDC depth, 1/w for perspective correction.
#[derive(Clone, Copy)]
struct Projected {
    x: f64,
    y: f64,
    z: f64,
    inv_w: f64,
}

/// A clip-space vertex carried through near-plane clipping.
#[derive(Clone, Copy)]
struct ClipVertex {
    clip: Vec4,
    uv: (f64, f64),
    color: Rgba,
}

impl ClipVertex {
    fn lerp(&self, o: &ClipVertex, t: f64) -> ClipVertex {
        ClipVertex {
            clip: self.clip + (o.clip - self.clip) * t,
            uv: (
                self.uv.0 + (o.uv.0 - self.uv.0) * t,
                self.uv.1 + (o.uv.1 - self.uv.1) * t,
            ),
            color: self.color.lerp(o.color, t as f32),
        }
    }
}

/// Minimum clip-space w: geometry closer than this is clipped away.
const W_CLIP: f64 = 1e-6;

/// Sutherland–Hodgman clip of a triangle against the plane `w > W_CLIP`.
/// Returns the polygon's vertices and their number: 0, 3, or 4.
fn clip_near(tri: [ClipVertex; 3]) -> ([ClipVertex; 4], usize) {
    let mut out = [tri[0]; 4];
    let mut n = 0;
    for i in 0..3 {
        let a = tri[i];
        let b = tri[(i + 1) % 3];
        let a_in = a.clip.w > W_CLIP;
        let b_in = b.clip.w > W_CLIP;
        if a_in {
            out[n] = a;
            n += 1;
        }
        if a_in != b_in {
            // Intersection at w = W_CLIP along the edge.
            let t = (W_CLIP - a.clip.w) / (b.clip.w - a.clip.w);
            out[n] = a.lerp(&b, t.clamp(0.0, 1.0));
            n += 1;
        }
    }
    (out, n)
}

fn to_screen(v: &ClipVertex, w: usize, h: usize) -> Projected {
    let inv_w = 1.0 / v.clip.w;
    Projected {
        x: (v.clip.x * inv_w * 0.5 + 0.5) * w as f64,
        y: (1.0 - (v.clip.y * inv_w * 0.5 + 0.5)) * h as f64,
        z: v.clip.z * inv_w,
        inv_w,
    }
}

/// A vertex transformed once: clip space, and its screen position (which
/// means something only in front of the near plane).
#[derive(Clone, Copy)]
struct Transformed {
    clip: ClipVertex,
    screen: Projected,
}

fn transform(vp: &Mat4, v: &Vertex, w: usize, h: usize) -> Transformed {
    let clip = ClipVertex {
        clip: vp.mul_vec4(Vec4::from_point(v.pos)),
        uv: v.uv,
        color: v.color,
    };
    Transformed {
        screen: to_screen(&clip, w, h),
        clip,
    }
}

/// A screen triangle ready to scan: its doubled signed area and the pixel
/// box it can cover, clamped to the framebuffer.
#[derive(Clone, Copy)]
struct Setup {
    area: f64,
    min_x: usize,
    max_x: usize,
    min_y: usize,
    max_y: usize,
}

/// `v.floor().max(0.0) as usize` without the floor, which the baseline
/// x86-64 target calls out of line: truncation is the floor at and above
/// 0, and the clamp to 0 comes first.
#[inline]
fn floor_to_usize(v: f64) -> usize {
    v.max(0.0) as usize
}

/// `v.ceil() as isize`, likewise: truncation is one short of the ceiling
/// exactly when it lands below `v`.
#[inline]
fn ceil_to_isize(v: f64) -> isize {
    let t = v as isize;
    if (t as f64) < v {
        t.saturating_add(1)
    } else {
        t
    }
}

/// `None` for a degenerate triangle or one that covers no pixel box.
fn setup(p: &[Projected; 3], w: usize, h: usize) -> Option<Setup> {
    let area = edge(&p[0], &p[1], p[2].x, p[2].y);
    if area.abs() < 1e-12 {
        return None; // degenerate
    }

    let min_x = floor_to_usize(p.iter().map(|q| q.x).fold(f64::INFINITY, f64::min));
    let max_x =
        ceil_to_isize(p.iter().map(|q| q.x).fold(f64::NEG_INFINITY, f64::max)).min(w as isize - 1);
    let min_y = floor_to_usize(p.iter().map(|q| q.y).fold(f64::INFINITY, f64::min));
    let max_y =
        ceil_to_isize(p.iter().map(|q| q.y).fold(f64::NEG_INFINITY, f64::max)).min(h as isize - 1);
    if max_x < min_x as isize || max_y < min_y as isize {
        return None;
    }
    Some(Setup {
        area,
        min_x,
        max_x: max_x as usize,
        min_y,
        max_y: max_y as usize,
    })
}

/// The raster core: scan-converts the rows of a set-up triangle that lie
/// in `band`. Returns the number of fragments written (the fill-rate
/// accounting used by the benchmarks).
fn raster(
    band: &mut Band<'_>,
    p: &[Projected; 3],
    verts: [&ClipVertex; 3],
    s: &Setup,
    shader: FragmentShader<'_>,
    opts: RasterOptions,
) -> usize {
    let rows = band.rows();
    let area = s.area;
    let mut written = 0usize;
    for y in s.min_y.max(rows.start)..=s.max_y.min(rows.end - 1) {
        for x in s.min_x..=s.max_x {
            let (px, py) = (x as f64 + 0.5, y as f64 + 0.5);
            let w0 = edge(&p[1], &p[2], px, py) / area;
            let w1 = edge(&p[2], &p[0], px, py) / area;
            let w2 = 1.0 - w0 - w1;
            if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                continue;
            }
            // Perspective-correct interpolation: attributes divided by w.
            let inv_w = w0 * p[0].inv_w + w1 * p[1].inv_w + w2 * p[2].inv_w;
            if inv_w <= 0.0 {
                continue;
            }
            let persp = |a0: f64, a1: f64, a2: f64| -> f64 {
                (w0 * a0 * p[0].inv_w + w1 * a1 * p[1].inv_w + w2 * a2 * p[2].inv_w) / inv_w
            };
            let u = persp(verts[0].uv.0, verts[1].uv.0, verts[2].uv.0);
            let v = persp(verts[0].uv.1, verts[1].uv.1, verts[2].uv.1);
            let color = Rgba::new(
                persp(
                    verts[0].color.r as f64,
                    verts[1].color.r as f64,
                    verts[2].color.r as f64,
                ) as f32,
                persp(
                    verts[0].color.g as f64,
                    verts[1].color.g as f64,
                    verts[2].color.g as f64,
                ) as f32,
                persp(
                    verts[0].color.b as f64,
                    verts[1].color.b as f64,
                    verts[2].color.b as f64,
                ) as f32,
                persp(
                    verts[0].color.a as f64,
                    verts[1].color.a as f64,
                    verts[2].color.a as f64,
                ) as f32,
            );
            let z = (w0 * p[0].z + w1 * p[1].z + w2 * p[2].z) as f32;
            if let Some(out) = shader(u, v, color) {
                band.blend_fragment(x, y, z, out, opts.write_depth);
                written += 1;
            }
        }
    }
    written
}

#[inline]
fn edge(a: &Projected, b: &Projected, px: f64, py: f64) -> f64 {
    (b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x)
}

/// The triangle of vertices `first`, `first + 1`, `first + 2` of a batch.
#[derive(Clone, Copy)]
enum Prim {
    /// In front of the near plane: set up once, scanned by each band it
    /// reaches.
    Front { first: usize, setup: Setup },
    /// Straddles the near plane: every band clips it and draws the visible
    /// part, as the hardware pipeline does.
    Straddling { first: usize },
}

impl Prim {
    /// `None` when nothing of the triangle can be drawn: behind the near
    /// plane, degenerate, or off screen.
    fn of(verts: &[Transformed], first: usize, w: usize, h: usize) -> Option<Prim> {
        let t = &verts[first..first + 3];
        match t.iter().filter(|v| v.clip.clip.w > W_CLIP).count() {
            0 => None,
            3 => setup(&[t[0].screen, t[1].screen, t[2].screen], w, h)
                .map(|setup| Prim::Front { first, setup }),
            _ => Some(Prim::Straddling { first }),
        }
    }

    /// Draws the part of the triangle that lies in `band`.
    fn draw(
        &self,
        band: &mut Band<'_>,
        verts: &[Transformed],
        shader: FragmentShader<'_>,
        opts: RasterOptions,
    ) -> usize {
        match *self {
            Prim::Front { first, setup } => {
                let rows = band.rows();
                if setup.max_y < rows.start || setup.min_y >= rows.end {
                    return 0;
                }
                let t = &verts[first..first + 3];
                let p = [t[0].screen, t[1].screen, t[2].screen];
                raster(
                    band,
                    &p,
                    [&t[0].clip, &t[1].clip, &t[2].clip],
                    &setup,
                    shader,
                    opts,
                )
            }
            Prim::Straddling { first } => {
                let t = &verts[first..first + 3];
                let (poly, n) = clip_near([t[0].clip, t[1].clip, t[2].clip]);
                let (w, h) = band.frame_size();
                let mut written = 0;
                // Fan-triangulate the clipped polygon (3 or 4 vertices).
                for i in 1..n.saturating_sub(1) {
                    let tri = [poly[0], poly[i], poly[i + 1]];
                    let p = tri.map(|v| to_screen(&v, w, h));
                    if let Some(s) = setup(&p, w, h) {
                        written += raster(band, &p, [&tri[0], &tri[1], &tri[2]], &s, shader, opts);
                    }
                }
                written
            }
        }
    }
}

/// Rasterizes one triangle with perspective-correct attribute
/// interpolation and near-plane clipping (triangles straddling the eye
/// plane render their visible part, as the hardware pipeline does): the
/// raster core over one band that covers every row. Returns the number of
/// fragments written.
pub fn draw_triangle(
    fb: &mut Framebuffer,
    camera: &Camera,
    verts: &[Vertex; 3],
    shader: FragmentShader<'_>,
    opts: RasterOptions,
) -> usize {
    let (w, h) = (fb.width(), fb.height());
    let vp = camera.view_projection();
    let t = verts.map(|v| transform(&vp, &v, w, h));
    Prim::of(&t, 0, w, h).map_or(0, |prim| {
        fb.par_bands(h, |mut band| prim.draw(&mut band, &t, shader, opts))
    })
}

/// Rasterizes triangle strips (vertices 0-1-2, 1-2-3, … of each strip; a
/// triangle list is a set of 3-vertex strips), in order, as if each
/// triangle were drawn by [`draw_triangle`]. Strips of fewer than three
/// vertices draw nothing. Returns `(triangles_drawn, fragments_written)`.
pub fn draw_triangle_strips<S: AsRef<[Vertex]>>(
    fb: &mut Framebuffer,
    camera: &Camera,
    strips: impl IntoIterator<Item = S>,
    shader: FragmentShader<'_>,
    opts: RasterOptions,
) -> (usize, usize) {
    let (w, h) = (fb.width(), fb.height());
    let vp = camera.view_projection();
    let mut verts: Vec<Transformed> = Vec::with_capacity(STRIP_BATCH);
    let mut prims: Vec<Prim> = Vec::with_capacity(STRIP_BATCH);
    let (mut tris, mut frags) = (0, 0);
    for strip in strips {
        let strip = strip.as_ref();
        if strip.len() < 3 {
            continue;
        }
        tris += strip.len() - 2;
        for (i, v) in strip.iter().enumerate() {
            if verts.len() == STRIP_BATCH {
                frags += fill(fb, &verts, &prims, shader, opts);
                prims.clear();
                // The strip's next triangle needs its last two vertices.
                verts.drain(..STRIP_BATCH - i.min(2));
            }
            verts.push(transform(&vp, v, w, h));
            if i >= 2 {
                prims.extend(Prim::of(&verts, verts.len() - 3, w, h));
            }
        }
    }
    (tris, frags + fill(fb, &verts, &prims, shader, opts))
}

/// Draws a batch's triangles in order over parallel bands of rows, one
/// band per pool thread: every band walks all of the batch's triangles, and
/// four bands a thread measured slower than one on a 2-vCPU host.
fn fill(
    fb: &mut Framebuffer,
    verts: &[Transformed],
    prims: &[Prim],
    shader: FragmentShader<'_>,
    opts: RasterOptions,
) -> usize {
    if prims.is_empty() {
        return 0;
    }
    let rows = fb.height().div_ceil(rayon::current_num_threads());
    fb.par_bands(rows, |mut band| {
        prims
            .iter()
            .map(|prim| prim.draw(&mut band, verts, shader, opts))
            .sum()
    })
}

/// The pass-through shader: vertex color only.
pub fn flat_shader(_u: f64, _v: f64, c: Rgba) -> Option<Rgba> {
    Some(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0)
    }

    fn tri_at(z: f64, color: Rgba) -> [Vertex; 3] {
        [
            Vertex::colored(Vec3::new(-1.0, -1.0, z), color),
            Vertex::colored(Vec3::new(1.0, -1.0, z), color),
            Vertex::colored(Vec3::new(0.0, 1.5, z), color),
        ]
    }

    #[test]
    fn triangle_covers_center_pixel() {
        let mut fb = Framebuffer::new(64, 64);
        let n = draw_triangle(
            &mut fb,
            &cam(),
            &tri_at(0.0, Rgba::rgb(1.0, 0.0, 0.0)),
            &flat_shader,
            RasterOptions::default(),
        );
        assert!(n > 0, "some fragments must be written");
        let c = fb.get(32, 32);
        assert!(c.r > 0.99, "center pixel must be red: {c:?}");
    }

    #[test]
    fn depth_occlusion_between_triangles() {
        let mut fb = Framebuffer::new(64, 64);
        let c = cam();
        // Near red triangle (z = 2, closer to the eye at z = 5).
        draw_triangle(
            &mut fb,
            &c,
            &tri_at(2.0, Rgba::rgb(1.0, 0.0, 0.0)),
            &flat_shader,
            RasterOptions::default(),
        );
        // Far green triangle.
        draw_triangle(
            &mut fb,
            &c,
            &tri_at(-2.0, Rgba::rgb(0.0, 1.0, 0.0)),
            &flat_shader,
            RasterOptions::default(),
        );
        assert!(fb.get(32, 32).r > 0.99, "near triangle must win");
        // Drawn in the other order the result is the same.
        let mut fb2 = Framebuffer::new(64, 64);
        draw_triangle(
            &mut fb2,
            &c,
            &tri_at(-2.0, Rgba::rgb(0.0, 1.0, 0.0)),
            &flat_shader,
            RasterOptions::default(),
        );
        draw_triangle(
            &mut fb2,
            &c,
            &tri_at(2.0, Rgba::rgb(1.0, 0.0, 0.0)),
            &flat_shader,
            RasterOptions::default(),
        );
        assert!(fb2.get(32, 32).r > 0.99);
    }

    #[test]
    fn degenerate_triangle_writes_nothing() {
        let mut fb = Framebuffer::new(32, 32);
        let v = Vertex::colored(Vec3::ZERO, Rgba::WHITE);
        let n = draw_triangle(
            &mut fb,
            &cam(),
            &[v, v, v],
            &flat_shader,
            RasterOptions::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn behind_camera_triangle_is_culled() {
        let mut fb = Framebuffer::new(32, 32);
        let n = draw_triangle(
            &mut fb,
            &cam(),
            &tri_at(10.0, Rgba::WHITE), // behind the eye at z = 5
            &flat_shader,
            RasterOptions::default(),
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn straddling_triangle_renders_its_visible_part() {
        // One vertex behind the eye (z = 6 > eye z = 5), two well in
        // front: near-plane clipping must keep the in-front portion
        // instead of dropping the whole triangle.
        let mut fb = Framebuffer::new(64, 64);
        let verts = [
            Vertex::colored(Vec3::new(0.0, 0.0, 6.0), Rgba::rgb(1.0, 0.0, 0.0)),
            Vertex::colored(Vec3::new(-1.0, -0.5, 0.0), Rgba::rgb(1.0, 0.0, 0.0)),
            Vertex::colored(Vec3::new(1.0, -0.5, 0.0), Rgba::rgb(1.0, 0.0, 0.0)),
        ];
        let n = draw_triangle(
            &mut fb,
            &cam(),
            &verts,
            &flat_shader,
            RasterOptions::default(),
        );
        assert!(n > 0, "visible part must rasterize");
        // The visible fragment region lies in the lower half (toward the
        // two in-front vertices at y = -0.5).
        let mut lit_lower = 0;
        for y in 33..64 {
            for x in 0..64 {
                if fb.get(x, y).r > 0.5 {
                    lit_lower += 1;
                }
            }
        }
        assert!(lit_lower > 0, "clipped geometry must appear below center");
    }

    #[test]
    fn clipping_does_not_change_fully_visible_triangles() {
        let mut with = Framebuffer::new(64, 64);
        let mut reference = Framebuffer::new(64, 64);
        let tri = tri_at(0.0, Rgba::rgb(0.1, 0.9, 0.4));
        draw_triangle(
            &mut with,
            &cam(),
            &tri,
            &flat_shader,
            RasterOptions::default(),
        );
        // A fully visible triangle never enters the clip path; render
        // twice and compare for determinism of the clipped pipeline.
        draw_triangle(
            &mut reference,
            &cam(),
            &tri,
            &flat_shader,
            RasterOptions::default(),
        );
        assert_eq!(with.mse(&reference), 0.0);
    }

    #[test]
    fn shader_discard_kills_fragments() {
        let mut fb = Framebuffer::new(32, 32);
        let kill = |_u: f64, _v: f64, _c: Rgba| -> Option<Rgba> { None };
        let n = draw_triangle(
            &mut fb,
            &cam(),
            &tri_at(0.0, Rgba::WHITE),
            &kill,
            RasterOptions::default(),
        );
        assert_eq!(n, 0);
        assert_eq!(fb.get(16, 16), Rgba::TRANSPARENT);
    }

    #[test]
    fn uv_interpolation_spans_triangle() {
        let mut fb = Framebuffer::new(64, 64);
        // Color from uv: red = u.
        let uv_shader = |u: f64, _v: f64, _c: Rgba| Some(Rgba::new(u as f32, 0.0, 0.0, 1.0));
        let verts = [
            Vertex {
                pos: Vec3::new(-2.0, -2.0, 0.0),
                uv: (0.0, 0.0),
                color: Rgba::WHITE,
            },
            Vertex {
                pos: Vec3::new(2.0, -2.0, 0.0),
                uv: (1.0, 0.0),
                color: Rgba::WHITE,
            },
            Vertex {
                pos: Vec3::new(0.0, 2.5, 0.0),
                uv: (0.5, 1.0),
                color: Rgba::WHITE,
            },
        ];
        draw_triangle(
            &mut fb,
            &cam(),
            &verts,
            &uv_shader,
            RasterOptions::default(),
        );
        // u increases left → right along the bottom edge.
        let left = fb.get(16, 50).r;
        let right = fb.get(48, 50).r;
        assert!(right > left, "u must grow to the right: {left} vs {right}");
    }

    #[test]
    fn truncating_bounds_equal_floor_and_ceil() {
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            383.999_999,
            384.0,
            -1.5,
            2f64.powi(52) + 0.5,
            2f64.powi(53),
            2f64.powi(63),
            -(2f64.powi(63)),
            1e19,
            -1e19,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            values.push(f64::from_bits(x));
            values.push((x >> 11) as f64 / (1u64 << 40) as f64 - 4096.0);
        }
        for v in values {
            assert_eq!(floor_to_usize(v), v.floor().max(0.0) as usize, "{v}");
            assert_eq!(ceil_to_isize(v), v.ceil() as isize, "{v}");
        }
    }

    #[test]
    fn strip_draws_n_minus_2_triangles() {
        let mut fb = Framebuffer::new(64, 64);
        let verts: Vec<Vertex> = (0..6)
            .map(|i| {
                let x = i as f64 * 0.5 - 1.25;
                let y = if i % 2 == 0 { -0.5 } else { 0.5 };
                Vertex::colored(Vec3::new(x, y, 0.0), Rgba::WHITE)
            })
            .collect();
        let (tris, frags) = draw_triangle_strips(
            &mut fb,
            &cam(),
            [&verts],
            &flat_shader,
            RasterOptions::default(),
        );
        assert_eq!(tris, 4);
        assert!(frags > 0);
        // Short strips are no-ops.
        let (t0, f0) = draw_triangle_strips(
            &mut fb,
            &cam(),
            [&verts[..2], &verts[..0]],
            &flat_shader,
            RasterOptions::default(),
        );
        assert_eq!((t0, f0), (0, 0));
    }
}
