//! Bit-identity oracle for the strip rasterizer: transforming each vertex
//! once, batching and filling rows in parallel bands must draw exactly the
//! colour and depth bits, triangles and fragments of drawing every strip's
//! triangles one at a time — directly, through the scene renderer's line
//! representations and through display-list replay.

use accelviz_core::scene::{render_line_set, LineRepresentation};
use accelviz_fieldlines::line::FieldLine;
use accelviz_fieldlines::style::LineStyle;
use accelviz_math::{Rgba, Vec3};
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::rasterizer::{draw_triangle_strips, RasterOptions, Vertex, STRIP_BATCH};
use accelviz_render::DisplayList;
use proptest::prelude::*;
use std::f64::consts::PI;

/// The reference: a verbatim copy of the rasterizer before batches and
/// bands (a view-projection per triangle, a `Vec` clipper, one
/// `draw_triangle_strip` per strip), and of its callers.
mod reference {
    use accelviz_core::scene::LineRepresentation;
    use accelviz_fieldlines::illuminated::illuminated_segments;
    use accelviz_fieldlines::line::FieldLine;
    use accelviz_fieldlines::sos::{sos_strip, SosParams};
    use accelviz_fieldlines::style::LineStyle;
    use accelviz_fieldlines::tube::{tube_triangles, TubeParams};
    use accelviz_math::{Rgba, Vec3};
    use accelviz_render::camera::Camera;
    use accelviz_render::framebuffer::Framebuffer;
    use accelviz_render::rasterizer::{RasterOptions, Vertex};
    use accelviz_render::shading::{shade_tube_fragment, Material};
    use accelviz_render::texture::tube_bump_map;

    pub type FragmentShader<'a> = &'a dyn Fn(f64, f64, Rgba) -> Option<Rgba>;

    #[derive(Clone, Copy)]
    struct Projected {
        x: f64,
        y: f64,
        z: f64,
        inv_w: f64,
    }

    #[derive(Clone, Copy)]
    struct ClipVertex {
        clip: accelviz_math::Vec4,
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

    const W_CLIP: f64 = 1e-6;

    fn clip_near(tri: [ClipVertex; 3]) -> Vec<ClipVertex> {
        let mut out = Vec::with_capacity(4);
        for i in 0..3 {
            let a = tri[i];
            let b = tri[(i + 1) % 3];
            let a_in = a.clip.w > W_CLIP;
            let b_in = b.clip.w > W_CLIP;
            if a_in {
                out.push(a);
            }
            if a_in != b_in {
                let t = (W_CLIP - a.clip.w) / (b.clip.w - a.clip.w);
                out.push(a.lerp(&b, t.clamp(0.0, 1.0)));
            }
        }
        out
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

    pub fn draw_triangle(
        fb: &mut Framebuffer,
        camera: &Camera,
        verts: &[Vertex; 3],
        shader: FragmentShader<'_>,
        opts: RasterOptions,
    ) -> usize {
        let vp = camera.view_projection();
        let clip_tri = [
            ClipVertex {
                clip: vp.mul_vec4(accelviz_math::Vec4::from_point(verts[0].pos)),
                uv: verts[0].uv,
                color: verts[0].color,
            },
            ClipVertex {
                clip: vp.mul_vec4(accelviz_math::Vec4::from_point(verts[1].pos)),
                uv: verts[1].uv,
                color: verts[1].color,
            },
            ClipVertex {
                clip: vp.mul_vec4(accelviz_math::Vec4::from_point(verts[2].pos)),
                uv: verts[2].uv,
                color: verts[2].color,
            },
        ];
        let poly = clip_near(clip_tri);
        if poly.len() < 3 {
            return 0;
        }
        let mut written = 0;
        for i in 1..poly.len() - 1 {
            written += raster_clipped(fb, [poly[0], poly[i], poly[i + 1]], shader, opts);
        }
        written
    }

    fn raster_clipped(
        fb: &mut Framebuffer,
        tri: [ClipVertex; 3],
        shader: FragmentShader<'_>,
        opts: RasterOptions,
    ) -> usize {
        let (w, h) = (fb.width(), fb.height());
        let p: Vec<Projected> = tri.iter().map(|v| to_screen(v, w, h)).collect();
        let verts = &tri;

        let area = edge(&p[0], &p[1], p[2].x, p[2].y);
        if area.abs() < 1e-12 {
            return 0;
        }

        let min_x = p
            .iter()
            .map(|q| q.x)
            .fold(f64::INFINITY, f64::min)
            .floor()
            .max(0.0) as usize;
        let max_x = (p
            .iter()
            .map(|q| q.x)
            .fold(f64::NEG_INFINITY, f64::max)
            .ceil() as isize)
            .min(w as isize - 1);
        let min_y = p
            .iter()
            .map(|q| q.y)
            .fold(f64::INFINITY, f64::min)
            .floor()
            .max(0.0) as usize;
        let max_y = (p
            .iter()
            .map(|q| q.y)
            .fold(f64::NEG_INFINITY, f64::max)
            .ceil() as isize)
            .min(h as isize - 1);
        if max_x < min_x as isize || max_y < min_y as isize {
            return 0;
        }

        let mut written = 0usize;
        for y in min_y..=(max_y as usize) {
            for x in min_x..=(max_x as usize) {
                let (px, py) = (x as f64 + 0.5, y as f64 + 0.5);
                let w0 = edge(&p[1], &p[2], px, py) / area;
                let w1 = edge(&p[2], &p[0], px, py) / area;
                let w2 = 1.0 - w0 - w1;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
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
                    fb.blend_fragment(x, y, z, out, opts.write_depth);
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

    pub fn draw_triangle_strip(
        fb: &mut Framebuffer,
        camera: &Camera,
        verts: &[Vertex],
        shader: FragmentShader<'_>,
        opts: RasterOptions,
    ) -> (usize, usize) {
        if verts.len() < 3 {
            return (0, 0);
        }
        let mut tris = 0;
        let mut frags = 0;
        for i in 0..verts.len() - 2 {
            let tri = [verts[i], verts[i + 1], verts[i + 2]];
            frags += draw_triangle(fb, camera, &tri, shader, opts);
            tris += 1;
        }
        (tris, frags)
    }

    /// `DisplayList::replay` as it was, over the strips and points pushed
    /// into the list.
    pub fn replay(
        strips: &[Vec<Vertex>],
        points: &[(Vec3, Rgba)],
        fb: &mut Framebuffer,
        camera: &Camera,
        shader: FragmentShader<'_>,
        opts: RasterOptions,
        point_size_px: f64,
    ) -> (usize, usize) {
        let mut tris = 0;
        let mut frags = 0;
        for strip in strips.iter().filter(|s| s.len() >= 3) {
            let (t, f) = draw_triangle_strip(fb, camera, strip, shader, opts);
            tris += t;
            frags += f;
        }
        let (w, h) = (fb.width(), fb.height());
        let projector = camera.projector(w, h);
        for &(pos, color) in points {
            if let Some((px, py, z)) = projector.to_pixel(pos) {
                if !(-1.0..=1.0).contains(&z) {
                    continue;
                }
                let r = point_size_px.max(0.5);
                let x0 = (px - r).floor().max(0.0) as isize;
                let y0 = (py - r).floor().max(0.0) as isize;
                let x1 = ((px + r).ceil() as isize).min(w as isize - 1);
                let y1 = ((py + r).ceil() as isize).min(h as isize - 1);
                for y in y0.max(0)..=y1.max(-1) {
                    for x in x0.max(0)..=x1.max(-1) {
                        let dx = x as f64 + 0.5 - px;
                        let dy = y as f64 + 0.5 - py;
                        if dx * dx + dy * dy <= r * r {
                            fb.blend_fragment(
                                x as usize,
                                y as usize,
                                z as f32,
                                color,
                                opts.write_depth,
                            );
                            frags += 1;
                        }
                    }
                }
            }
        }
        (tris, frags)
    }

    /// `core::scene::render_line_set` as it was; returns (triangles,
    /// fragments).
    pub fn render_line_set(
        fb: &mut Framebuffer,
        camera: &Camera,
        lines: &[FieldLine],
        representation: LineRepresentation,
        style: &LineStyle,
        half_width: f64,
    ) -> (usize, usize) {
        let (mut triangles, mut fragments) = (0, 0);
        let eye = camera.eye;
        let material = Material::default();
        let bump = tube_bump_map(64);
        let sos_params = SosParams {
            half_width,
            ..Default::default()
        };

        match representation {
            LineRepresentation::FlatLines | LineRepresentation::Illuminated => {
                for line in lines {
                    let dist = line.points.first().map(|p| p.distance(eye)).unwrap_or(1.0);
                    let px_world = 1.0 / camera.pixels_per_world_unit(dist, fb.height()).max(1e-9);
                    let thin = SosParams {
                        half_width: (half_width * 0.25).max(0.6 * px_world),
                        ..sos_params
                    };
                    let mut verts = sos_strip(line, eye, &thin);
                    match representation {
                        LineRepresentation::FlatLines => {
                            let c = style.color_for(line.mean_magnitude());
                            for v in &mut verts {
                                v.color = c;
                            }
                        }
                        _ => {
                            let segs = illuminated_segments(
                                line,
                                eye,
                                style.color_for(line.mean_magnitude()),
                            );
                            for (i, v) in verts.iter_mut().enumerate() {
                                let si = (i / 2).min(segs.len().saturating_sub(1));
                                if !segs.is_empty() {
                                    v.color = segs[si].color;
                                }
                            }
                        }
                    }
                    let shader = |_u: f64, _v: f64, c: Rgba| Some(c);
                    let (t, f) =
                        draw_triangle_strip(fb, camera, &verts, &shader, RasterOptions::default());
                    triangles += t;
                    fragments += f;
                }
            }
            LineRepresentation::Streamtubes => {
                for line in lines {
                    let params = TubeParams {
                        radius: half_width,
                        sides: 12,
                        color: style.color_for(line.mean_magnitude()),
                    };
                    let tris = tube_triangles(line, eye, &params);
                    let shader = |_u: f64, _v: f64, c: Rgba| Some(c);
                    for tri in &tris {
                        fragments +=
                            draw_triangle(fb, camera, tri, &shader, RasterOptions::default());
                    }
                    triangles += tris.len();
                }
            }
            LineRepresentation::SelfOrientingSurfaces => {
                for line in lines {
                    let verts = style.styled_strip(line, eye, &sos_params);
                    let shader =
                        |_u: f64, v: f64, c: Rgba| shade_tube_fragment(&bump, &material, c, v);
                    let (t, f) =
                        draw_triangle_strip(fb, camera, &verts, &shader, RasterOptions::default());
                    triangles += t;
                    fragments += f;
                }
            }
            LineRepresentation::EnhancedLighting => {
                for line in lines {
                    let verts = style.styled_strip(line, eye, &sos_params);
                    let shader = |_u: f64, v: f64, c: Rgba| {
                        accelviz_render::shading::shade_tube_fragment_enhanced(
                            &bump, &material, c, v,
                        )
                    };
                    let (t, f) =
                        draw_triangle_strip(fb, camera, &verts, &shader, RasterOptions::default());
                    triangles += t;
                    fragments += f;
                }
            }
            LineRepresentation::HaloedSos => {
                let halo = accelviz_render::texture::halo_map(64, 0.3);
                for line in lines {
                    let verts = style.styled_strip(line, eye, &sos_params);
                    let shader = |_u: f64, v: f64, c: Rgba| {
                        let lit = shade_tube_fragment(&bump, &material, c, v)?;
                        let rim = halo.sample(0.0, v);
                        if rim.a < 0.5 {
                            return None;
                        }
                        Some(Rgba::new(
                            lit.r * rim.r,
                            lit.g * rim.g,
                            lit.b * rim.b,
                            lit.a,
                        ))
                    };
                    let (t, f) =
                        draw_triangle_strip(fb, camera, &verts, &shader, RasterOptions::default());
                    triangles += t;
                    fragments += f;
                }
            }
            LineRepresentation::Ribbons => {
                let max_mag = lines
                    .iter()
                    .flat_map(|l| l.magnitudes.iter().copied())
                    .fold(0.0f64, f64::max)
                    .max(1e-300);
                let ribbon_params = accelviz_fieldlines::ribbon::RibbonParams {
                    strip: SosParams {
                        half_width: half_width * 5.0,
                        ..sos_params
                    },
                    max_strands: 8,
                    max_magnitude: max_mag,
                };
                for line in lines {
                    let (mut verts, strands) =
                        accelviz_fieldlines::ribbon::ribbon_strip(line, eye, &ribbon_params);
                    style.restyle_strip(line, &mut verts);
                    let maps: Vec<_> = (1..=8)
                        .map(|s| accelviz_render::texture::ribbon_density_map(64, s))
                        .collect();
                    for (v, &s) in verts.iter_mut().zip(&strands) {
                        v.uv.0 = s as f64;
                    }
                    let shader = |u: f64, v: f64, c: Rgba| {
                        let s = (u.round() as usize).clamp(1, 8);
                        let tex = maps[s - 1].sample(0.0, v);
                        if tex.a < 0.5 {
                            return None;
                        }
                        Some(c)
                    };
                    let (t, f) =
                        draw_triangle_strip(fb, camera, &verts, &shader, RasterOptions::default());
                    triangles += t;
                    fragments += f;
                }
            }
            LineRepresentation::TransparentSos => {
                // `TransparentQueue` as it was: sorted back to front by
                // centroid distance, one triangle at a time.
                let mut tris: Vec<(f64, [Vertex; 3])> = Vec::new();
                for line in lines {
                    let mut verts = style.styled_strip(line, eye, &sos_params);
                    for v in &mut verts {
                        v.color = v.color.with_alpha(v.color.a * 0.5);
                    }
                    triangles += verts.len().saturating_sub(2);
                    for i in 0..verts.len().saturating_sub(2) {
                        let tri = [verts[i], verts[i + 1], verts[i + 2]];
                        let centroid = (tri[0].pos + tri[1].pos + tri[2].pos) / 3.0;
                        tris.push((centroid.distance(camera.eye), tri));
                    }
                }
                tris.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                let opts = RasterOptions { write_depth: false };
                let shader = |_u: f64, _v: f64, c: Rgba| Some(c);
                for (_, tri) in tris {
                    fragments += draw_triangle(fb, camera, &tri, &shader, opts);
                }
            }
        }
        (triangles, fragments)
    }
}

/// SplitMix64: the cases' own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit_vec(&mut self) -> Vec3 {
        let z = self.range(-1.0, 1.0);
        let phi = self.range(0.0, 2.0 * PI);
        let r = (1.0 - z * z).sqrt();
        Vec3::new(r * phi.cos(), r * phi.sin(), z)
    }
}

/// A strip like a self-orienting surface's: pairs of vertices either side
/// of a wandering centre line, `half_width` apart from it, with colours of
/// alpha < 1 and the (along, across) texture coordinates; now and then a
/// repeated vertex (a degenerate triangle). `flat` keeps it in z = 0.
fn strip(rng: &mut Rng, len: usize, half_width: f64, flat: bool) -> Vec<Vertex> {
    let flatten = |v: Vec3| if flat { Vec3::new(v.x, v.y, 0.0) } else { v };
    let mut centre = flatten(Vec3::new(
        rng.range(-1.0, 1.0),
        rng.range(-1.0, 1.0),
        rng.range(-1.0, 1.0),
    ));
    let mut dir = flatten(rng.unit_vec()).normalized_or(Vec3::UNIT_X);
    let step = rng.range(0.005, 0.05);
    let mut out: Vec<Vertex> = Vec::with_capacity(len);
    for i in 0..len {
        if i > 0 && rng.below(40) == 0 {
            out.push(out[i - 1]);
            continue;
        }
        if i % 2 == 0 {
            dir = flatten(dir + rng.unit_vec() * 0.3).normalized_or(dir);
            centre += dir * step;
        }
        let across = flatten(dir.cross(Vec3::new(0.3, 0.9, 0.1)))
            .normalized()
            .unwrap_or(Vec3::UNIT_Y);
        let side = if i % 2 == 0 { 1.0 } else { -1.0 };
        out.push(Vertex {
            pos: centre + across * (side * half_width),
            uv: (i as f64 / len as f64, (i % 2) as f64),
            color: Rgba::new(
                rng.unit() as f32,
                rng.unit() as f32,
                rng.unit() as f32,
                rng.range(0.05, 1.0) as f32,
            ),
        });
    }
    out
}

/// Strip lengths: the short cases the rasterizer must skip or draw as one
/// triangle, and long ones.
fn strip_len(rng: &mut Rng) -> usize {
    match rng.below(16) {
        k @ 0..=3 => k,
        _ => 4 + rng.below(297),
    }
}

/// Where the eye is: outside the strips, inside them (vertices behind the
/// eye, triangles across the near plane), or in the plane of flat strips
/// (grazing).
fn camera(kind: u8, aspect: f64, a: f64, c: f64) -> Camera {
    match kind {
        0 | 1 => Camera::orbit(
            Vec3::ZERO,
            2.5 + 4.0 * a,
            2.0 * PI * c,
            2.4 * a - 1.2,
            aspect,
        ),
        2 => {
            let eye = Vec3::new(a - 0.5, c - 0.5, 0.3 * (a - c));
            Camera::look_at(eye, Vec3::new(c, a, -0.5), aspect)
        }
        _ => {
            let (s, c) = (2.0 * PI * c).sin_cos();
            let eye = Vec3::new(3.0 * c, 3.0 * s, 0.01 + 0.2 * a);
            Camera::look_at(eye, Vec3::ZERO, aspect)
        }
    }
}

/// The shaders of the cases: pass-through, texture-coordinate colour,
/// silhouette kill, and translucency.
fn shader(kind: u8) -> fn(f64, f64, Rgba) -> Option<Rgba> {
    match kind {
        0 => |_, _, c| Some(c),
        1 => |u, v, c| Some(Rgba::new(u as f32, v as f32, c.b, c.a)),
        2 => |_, v, c| ((v - 0.5).abs() > 0.2).then_some(c),
        _ => |_, _, c| Some(c.with_alpha(c.a * 0.5)),
    }
}

/// A framebuffer with a background, so blending reads something.
fn background(w: usize, h: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h);
    for y in 0..h {
        for x in 0..w {
            fb.set(
                x,
                y,
                Rgba::new(0.1, (x % 7) as f32 * 0.1, (y % 5) as f32 * 0.2, 0.5),
            );
        }
    }
    fb
}

/// Every pixel's colour and depth bits must be equal.
fn same_bits(got: &Framebuffer, want: &Framebuffer) -> Result<(), TestCaseError> {
    let w = got.width();
    for (i, (a, b)) in got.pixels().iter().zip(want.pixels()).enumerate() {
        let bits = |c: &Rgba| [c.r, c.g, c.b, c.a].map(f32::to_bits);
        let (x, y) = (i % w, i / w);
        prop_assert!(
            bits(a) == bits(b),
            "pixel ({}, {}): {:?}, the reference {:?}",
            x,
            y,
            a,
            b
        );
        let (da, db) = (got.get_depth(x, y), want.get_depth(x, y));
        prop_assert!(
            da.to_bits() == db.to_bits(),
            "depth ({}, {}): {}, the reference {}",
            x,
            y,
            da,
            db
        );
    }
    Ok(())
}

/// One pass of strips through both paths.
struct Pass {
    strips: Vec<Vec<Vertex>>,
    shader: u8,
    opts: RasterOptions,
}

/// Draws the passes in order both ways into copies of one framebuffer and
/// checks every bit and count; returns the fragments drawn.
fn check(camera: &Camera, fb: (usize, usize), passes: &[Pass]) -> Result<usize, TestCaseError> {
    let mut got = background(fb.0, fb.1);
    let mut want = got.clone();
    let mut drawn = 0;
    for pass in passes {
        let shader = shader(pass.shader);
        let new = draw_triangle_strips(&mut got, camera, &pass.strips, &shader, pass.opts);
        let mut old = (0, 0);
        for strip in &pass.strips {
            let (t, f) =
                reference::draw_triangle_strip(&mut want, camera, strip, &shader, pass.opts);
            old = (old.0 + t, old.1 + f);
        }
        prop_assert_eq!(new, old);
        drawn += new.1;
    }
    same_bits(&got, &want)?;
    Ok(drawn)
}

const FRAMEBUFFERS: [(usize, usize); 6] =
    [(1, 1), (37, 23), (16, 40), (48, 48), (64, 48), (384, 384)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn strips_are_bit_identical_to_one_triangle_at_a_time(
        (seed, n_strips, width_exp, flat) in (0u64..1 << 40, 0usize..12, -2.2..0.0f64, 0u8..2),
        (cam_kind, a, c, fb) in (0u8..4, 0.0..1.0f64, 0.0..1.0f64, 0usize..6),
        (shader_a, shader_b, depth_a, depth_b) in (0u8..4, 0u8..4, 0u8..2, 0u8..2),
    ) {
        let mut rng = Rng(seed);
        let flat = flat == 1 || cam_kind == 3;
        let strips = |rng: &mut Rng| -> Vec<Vec<Vertex>> {
            (0..n_strips)
                .map(|_| {
                    let len = strip_len(rng);
                    let half_width = 10f64.powf(width_exp + rng.range(-0.5, 0.5));
                    strip(rng, len, half_width, flat)
                })
                .collect()
        };
        let passes = [
            Pass { strips: strips(&mut rng), shader: shader_a, opts: RasterOptions { write_depth: depth_a == 1 } },
            Pass { strips: strips(&mut rng), shader: shader_b, opts: RasterOptions { write_depth: depth_b == 1 } },
        ];
        let fb = FRAMEBUFFERS[fb];
        check(&camera(cam_kind, fb.0 as f64 / fb.1 as f64, a, c), fb, &passes)?;
    }
}

#[test]
fn strips_across_batch_boundaries_are_bit_identical() {
    // A first strip `STRIP_BATCH - k` vertices long puts the batch
    // boundary k vertices into the next strip: before its first vertex,
    // after one, after two, and further on; then one strip that spans
    // three batches by itself.
    let mut rng = Rng(27);
    let cam = Camera::orbit(Vec3::ZERO, 3.0, 0.7, 0.3, 1.0);
    for k in [0, 1, 2, 3, 5] {
        let strips = vec![
            strip(&mut rng, STRIP_BATCH - k, 0.004, false),
            strip(&mut rng, 7, 0.01, false),
            strip(&mut rng, 2, 0.01, false),
            strip(&mut rng, 3, 0.01, false),
            strip(&mut rng, 2 * STRIP_BATCH + 5, 0.003, false),
        ];
        let passes = [Pass {
            strips,
            shader: 3,
            opts: RasterOptions {
                write_depth: k % 2 == 0,
            },
        }];
        assert!(check(&cam, (48, 48), &passes).unwrap() > 0);
    }
}

#[test]
fn a_384_square_frame_of_many_strips_is_bit_identical() {
    let mut rng = Rng(11);
    let strips: Vec<Vec<Vertex>> = (0..100)
        .map(|_| strip(&mut rng, 120, 0.012, false))
        .collect();
    let cam = Camera::orbit(Vec3::ZERO, 3.6, 0.9, 0.35, 1.0);
    let passes = [Pass {
        strips,
        shader: 1,
        opts: RasterOptions::default(),
    }];
    assert!(check(&cam, (384, 384), &passes).unwrap() > 1000);
}

/// Field lines like the seeder's: wandering polylines with unit tangents
/// and magnitudes that vary along them.
fn field_lines(rng: &mut Rng, n: usize) -> Vec<FieldLine> {
    (0..n)
        .map(|_| {
            let mut line = FieldLine::new();
            let mut p = Vec3::new(
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
                rng.range(-1.0, 1.0),
            );
            let mut dir = rng.unit_vec();
            for _ in 0..2 + rng.below(80) {
                dir = (dir + rng.unit_vec() * 0.2).normalized_or(dir);
                line.push(p, dir, rng.range(0.0, 2.0));
                p += dir * 0.04;
            }
            line
        })
        .collect()
}

const REPRESENTATIONS: [LineRepresentation; 8] = [
    LineRepresentation::FlatLines,
    LineRepresentation::Illuminated,
    LineRepresentation::Streamtubes,
    LineRepresentation::SelfOrientingSurfaces,
    LineRepresentation::Ribbons,
    LineRepresentation::EnhancedLighting,
    LineRepresentation::HaloedSos,
    LineRepresentation::TransparentSos,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_line_representation_is_bit_identical(
        (seed, rep, n_lines, half_width) in (0u64..1 << 40, 0usize..8, 0usize..24, 0.005..0.15f64),
        (cam_kind, a, c, fb) in (0u8..3, 0.0..1.0f64, 0.0..1.0f64, 1usize..6),
    ) {
        let mut rng = Rng(seed);
        let lines = field_lines(&mut rng, n_lines);
        let fb = FRAMEBUFFERS[fb];
        let cam = camera(cam_kind, fb.0 as f64 / fb.1 as f64, a, c);
        let style = LineStyle::electric(1.5);
        let rep = REPRESENTATIONS[rep];
        let mut got = background(fb.0, fb.1);
        let mut want = got.clone();
        let stats = render_line_set(&mut got, &cam, &lines, rep, &style, half_width);
        let old = reference::render_line_set(&mut want, &cam, &lines, rep, &style, half_width);
        prop_assert_eq!((stats.triangles, stats.fragments), old);
        same_bits(&got, &want)?;
    }

    #[test]
    fn display_list_replay_is_bit_identical(
        (seed, n_strips, n_points, point_size) in (0u64..1 << 40, 0usize..8, 0usize..40, 0.2..3.0f64),
        (cam_kind, a, c, fb) in (0u8..3, 0.0..1.0f64, 0.0..1.0f64, 0usize..5),
        (shader_kind, depth) in (0u8..4, 0u8..2),
    ) {
        let mut rng = Rng(seed);
        let strips: Vec<Vec<Vertex>> = (0..n_strips)
            .map(|_| {
                let len = strip_len(&mut rng);
                strip(&mut rng, len, 0.02, false)
            })
            .collect();
        let points: Vec<(Vec3, Rgba)> = (0..n_points)
            .map(|_| (rng.unit_vec(), Rgba::new(1.0, 0.5, 0.2, rng.range(0.1, 1.0) as f32)))
            .collect();
        let mut list = DisplayList::new();
        for s in &strips {
            list.push_strip(s.clone());
        }
        for &(p, color) in &points {
            list.push_point(p, color);
        }
        let fb = FRAMEBUFFERS[fb];
        let cam = camera(cam_kind, fb.0 as f64 / fb.1 as f64, a, c);
        let shader = shader(shader_kind);
        let opts = RasterOptions { write_depth: depth == 1 };
        let mut got = background(fb.0, fb.1);
        let mut want = got.clone();
        let new = list.replay(&mut got, &cam, &shader, opts, point_size);
        let old = reference::replay(&strips, &points, &mut want, &cam, &shader, opts, point_size);
        prop_assert_eq!(new, old);
        same_bits(&got, &want)?;
    }
}
