//! Scene assembly: rendering hybrid frames (Figure 4's decomposition) and
//! field-line sets (Figure 6's representations).

use crate::hybrid::HybridFrame;
use crate::transfer::TransferFunctionPair;
use accelviz_fieldlines::illuminated::illuminated_segments;
use accelviz_fieldlines::line::FieldLine;
use accelviz_fieldlines::sos::{sos_strip, SosParams};
use accelviz_fieldlines::style::LineStyle;
use accelviz_fieldlines::tube::{tube_triangles, TubeParams};
use accelviz_math::Rgba;
use accelviz_octree::density::DensityGrid;
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::points::{keep_point, splat, PointStyle};
use accelviz_render::rasterizer::{draw_triangle_strips, flat_shader, RasterOptions};
use accelviz_render::shading::{shade_tube_fragment, Material};
use accelviz_render::texture::tube_bump_map;
use accelviz_render::transparency::TransparentQueue;
use accelviz_render::volume::{render_volume, GridView, VolumeStyle};

/// Which part of the hybrid image to render (Figure 4 shows all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RenderMode {
    /// Volume-rendered portion only.
    VolumeOnly,
    /// Point-rendered portion only.
    PointsOnly,
    /// The combined hybrid rendering.
    Hybrid,
}

/// Cost counters of a rendered scene.
#[derive(Clone, Copy, Debug, Default)]
pub struct SceneStats {
    /// Ray steps the volume ray-caster took through the volume (the
    /// fill-rate proxy: what a texture-slicing GPU pays for the image).
    /// Steps it skipped as provably transparent still count.
    pub volume_samples: u64,
    /// Points actually splatted.
    pub points_drawn: usize,
    /// Triangles rasterized.
    pub triangles: usize,
    /// Fragments written by triangle rasterization.
    pub fragments: usize,
}

/// The volume pass's view of a density grid, with the grid's own slot for
/// the empty-space bound.
pub fn grid_view(g: &DensityGrid) -> GridView<'_> {
    GridView::new(
        g.data(),
        g.dims(),
        *g.bounds(),
        g.max_value(),
        g.volume_bound(),
    )
}

/// Renders a hybrid frame. The volume pass uses the pair's volume TF; the
/// point pass draws each particle with probability equal to the point
/// TF's fraction at its node density (the "three out of every four
/// points" rule), evaluated with [`keep_point`]'s deterministic hash, and
/// splats each kept point with the style's falloff through the one point
/// splatter, [`splat`].
pub fn render_hybrid_frame(
    fb: &mut Framebuffer,
    camera: &Camera,
    frame: &HybridFrame,
    tfs: &TransferFunctionPair,
    mode: RenderMode,
    volume_style: &VolumeStyle,
    point_style: &PointStyle,
) -> SceneStats {
    let mut stats = SceneStats::default();

    if mode != RenderMode::PointsOnly {
        let grid = grid_view(&frame.grid);
        stats.volume_samples = render_volume(fb, camera, &grid, &tfs.volume, volume_style).samples;
    }

    if mode != RenderMode::VolumeOnly {
        let mut span = accelviz_trace::span("render.points_pass");
        let positions = frame.point_positions();
        let projector = camera.projector(fb.width(), fb.height());
        let (size, depth) = (point_style.size_px, point_style.write_depth);
        for (i, &p) in positions.iter().enumerate() {
            let fraction = tfs.point.fraction(frame.point_densities[i]);
            // Also honor any global subsample in the style.
            let keep = fraction * point_style.fraction;
            if keep < 1.0 && !keep_point(i as u64, keep) {
                continue;
            }
            if splat(fb, &projector, p, size, depth, |d2| point_style.falloff(d2)).is_some() {
                stats.points_drawn += 1;
            }
        }
        if span.is_active() {
            span.arg("points_drawn", stats.points_drawn as f64);
            span.arg("points_available", positions.len() as f64);
        }
    }
    stats
}

/// A dynamically calculated per-particle property used to color the
/// point-rendered halo at draw time.
///
/// §2.5: "Because points are drawn dynamically, they could be drawn (in
/// terms of color or opacity) based on some dynamically calculated
/// property that the scientist is interested in, such as temperature or
/// emittance. Volume-based rendering, because it is limited to
/// pre-calculated data, cannot allow dynamic changes like these." This is
/// exactly why these attributes take the raw [`HybridFrame::points`] and
/// need no re-extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointAttribute {
    /// The octree-node density (the default, what the point TF uses).
    NodeDensity,
    /// Transverse momentum magnitude √(pₓ² + p_y²) — a "temperature".
    TransverseMomentum,
    /// Longitudinal momentum p_z.
    LongitudinalMomentum,
    /// Transverse radius √(x² + y²) — halo-ness.
    TransverseRadius,
    /// Single-particle emittance-like action x·p_y − y·pₓ.
    AngularMomentum,
}

impl PointAttribute {
    /// Evaluates the attribute for one particle (with its normalized node
    /// density available).
    pub fn eval(&self, p: &accelviz_beam::particle::Particle, node_density: f64) -> f64 {
        match self {
            PointAttribute::NodeDensity => node_density,
            PointAttribute::TransverseMomentum => {
                (p.momentum.x * p.momentum.x + p.momentum.y * p.momentum.y).sqrt()
            }
            PointAttribute::LongitudinalMomentum => p.momentum.z,
            PointAttribute::TransverseRadius => p.transverse_radius(),
            PointAttribute::AngularMomentum => {
                p.position.x * p.momentum.y - p.position.y * p.momentum.x
            }
        }
    }
}

/// Renders the point part of a hybrid frame with per-point colors computed
/// *at draw time* from `attribute` through `palette` (a map from the
/// attribute value, normalized to its observed [min, max], to a color).
/// Returns the points drawn, each splatted flat by the one point splatter
/// ([`splat`]). This is the dynamic-recoloring path that the precomputed
/// volume representation cannot offer.
pub fn render_points_by_attribute(
    fb: &mut Framebuffer,
    camera: &Camera,
    frame: &HybridFrame,
    attribute: PointAttribute,
    palette: &dyn Fn(f64) -> Rgba,
    size_px: f64,
) -> usize {
    let positions = frame.point_positions();
    // Normalize the attribute over the frame.
    let values: Vec<f64> = frame
        .points
        .iter()
        .zip(&frame.point_densities)
        .map(|(p, &d)| attribute.eval(p, d))
        .collect();
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let span = (hi - lo).max(1e-300);
    let projector = camera.projector(fb.width(), fb.height());
    let mut drawn = 0;
    for (&pos, &value) in positions.iter().zip(&values) {
        let color = palette((value - lo) / span);
        if splat(fb, &projector, pos, size_px, false, |_| color).is_some() {
            drawn += 1;
        }
    }
    drawn
}

/// The field-line representations of Figure 6 that the scene renderer can
/// draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineRepresentation {
    /// (a) conventional line drawing (flat color, 1-px strips).
    FlatLines,
    /// (b) illuminated streamlines.
    Illuminated,
    /// (c) conventional streamtubes.
    Streamtubes,
    /// (d) self-orienting surfaces with bump-mapped tube shading.
    SelfOrientingSurfaces,
    /// (e) wide textured ribbons with strand density by field strength.
    Ribbons,
    /// (f) self-orienting surfaces with the enhanced (two-light) shading.
    EnhancedLighting,
    /// (§3.3.2) self-orienting surfaces with dark halo rims for depth
    /// disambiguation.
    HaloedSos,
    /// (i) self-orienting surfaces drawn translucent (flat shading,
    /// back-to-front sorted — the paper's transparency trade-off).
    TransparentSos,
}

/// Renders a set of field lines in the chosen representation, styled by
/// field magnitude. Returns the cost counters (triangle counts are the
/// FIG6 comparison).
pub fn render_line_set(
    fb: &mut Framebuffer,
    camera: &Camera,
    lines: &[FieldLine],
    representation: LineRepresentation,
    style: &LineStyle,
    half_width: f64,
) -> SceneStats {
    let mut span = accelviz_trace::span("render.lines_pass");
    let mut stats = SceneStats::default();
    let eye = camera.eye;
    let material = Material::default();
    let bump = tube_bump_map(64);
    let sos_params = SosParams {
        half_width,
        ..Default::default()
    };

    let opaque = RasterOptions::default();
    // Each representation's strips are built one line at a time, as the
    // rasterizer pulls them.
    let styled = || {
        lines
            .iter()
            .map(|line| style.styled_strip(line, eye, &sos_params))
    };
    match representation {
        LineRepresentation::FlatLines | LineRepresentation::Illuminated => {
            // Line primitives: rendered as thin (sub-pixel-ish) strips so
            // the software pass has something to rasterize; geometry cost
            // recorded as segments → 2 triangles each (the hardware would
            // use GL_LINES; the *comparative* counts in FIG6 use the
            // analytic segment counts, not these).
            let height = fb.height();
            let strips = lines.iter().map(|line| {
                // GL_LINES rasterizes at a 1-pixel minimum; give the thin
                // strip at least ~1 px of world-space width at the line's
                // distance so it cannot vanish between pixel centers.
                let dist = line.points.first().map(|p| p.distance(eye)).unwrap_or(1.0);
                let px_world = 1.0 / camera.pixels_per_world_unit(dist, height).max(1e-9);
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
                        let segs =
                            illuminated_segments(line, eye, style.color_for(line.mean_magnitude()));
                        for (i, v) in verts.iter_mut().enumerate() {
                            let si = (i / 2).min(segs.len().saturating_sub(1));
                            if !segs.is_empty() {
                                v.color = segs[si].color;
                            }
                        }
                    }
                }
                verts
            });
            (stats.triangles, stats.fragments) =
                draw_triangle_strips(fb, camera, strips, &flat_shader, opaque);
        }
        LineRepresentation::Streamtubes => {
            let tris = lines.iter().flat_map(|line| {
                let params = TubeParams {
                    radius: half_width,
                    sides: 12,
                    color: style.color_for(line.mean_magnitude()),
                };
                tube_triangles(line, eye, &params)
            });
            (stats.triangles, stats.fragments) =
                draw_triangle_strips(fb, camera, tris, &flat_shader, opaque);
        }
        LineRepresentation::SelfOrientingSurfaces => {
            let shader = |_u: f64, v: f64, c: Rgba| shade_tube_fragment(&bump, &material, c, v);
            (stats.triangles, stats.fragments) =
                draw_triangle_strips(fb, camera, styled(), &shader, opaque);
        }
        LineRepresentation::EnhancedLighting => {
            // Figure 6(f): the offset second light varies thin strips
            // across their width; same geometry, pure texture math.
            let shader = |_u: f64, v: f64, c: Rgba| {
                accelviz_render::shading::shade_tube_fragment_enhanced(&bump, &material, c, v)
            };
            (stats.triangles, stats.fragments) =
                draw_triangle_strips(fb, camera, styled(), &shader, opaque);
        }
        LineRepresentation::HaloedSos => {
            // §3.3.2: a dark rim around the lit tube core clarifies the
            // ordering of overlapping lines. The halo map modulates the
            // bump-shaded fragment.
            let halo = accelviz_render::texture::halo_map(64, 0.3);
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
            (stats.triangles, stats.fragments) =
                draw_triangle_strips(fb, camera, styled(), &shader, opaque);
        }
        LineRepresentation::Ribbons => {
            // Figure 6(e): few, wide strips; strand count textured by the
            // local field strength stands in for many individual lines.
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
            // One density texture per strand count, sampled by v.
            let maps: Vec<_> = (1..=8)
                .map(|s| accelviz_render::texture::ribbon_density_map(64, s))
                .collect();
            let strips = lines.iter().map(|line| {
                let (mut verts, strands) =
                    accelviz_fieldlines::ribbon::ribbon_strip(line, eye, &ribbon_params);
                style.restyle_strip(line, &mut verts);
                // Encode the strand count into the u texture coordinate so
                // the shader can pick the right map (the hardware would
                // bind per-segment textures).
                for (v, &s) in verts.iter_mut().zip(&strands) {
                    v.uv.0 = s as f64;
                }
                verts
            });
            let shader = |u: f64, v: f64, c: Rgba| {
                let s = (u.round() as usize).clamp(1, 8);
                let tex = maps[s - 1].sample(0.0, v);
                if tex.a < 0.5 {
                    return None;
                }
                Some(c)
            };
            (stats.triangles, stats.fragments) =
                draw_triangle_strips(fb, camera, strips, &shader, opaque);
        }
        LineRepresentation::TransparentSos => {
            // §3.3.3: transparency disables bump mapping; triangles are
            // queued and composited back-to-front.
            let mut queue = TransparentQueue::new();
            for line in lines {
                let mut verts = style.styled_strip(line, eye, &sos_params);
                for v in &mut verts {
                    v.color = v.color.with_alpha(v.color.a * 0.5);
                }
                stats.triangles += verts.len().saturating_sub(2);
                queue.push_strip(camera, &verts);
            }
            stats.fragments += queue.flush(fb, camera);
        }
    }
    if span.is_active() {
        span.arg("lines", lines.len() as f64);
        span.arg("triangles", stats.triangles as f64);
        span.arg("fragments", stats.fragments as f64);
    }
    stats
}

/// Focus + context rendering (§3.3.3, Figure 6(i)): lines touching the
/// region of interest render fully opaque through the bump-shaded path;
/// everything else is de-emphasized with `context_alpha` transparency, so
/// "the interior structures can remain clear, and the global context is
/// not lost". Returns (focus stats, context stats).
pub fn render_focus_context(
    fb: &mut Framebuffer,
    camera: &Camera,
    lines: &[FieldLine],
    region: &accelviz_fieldlines::roi::Region,
    style: &LineStyle,
    half_width: f64,
    context_alpha: f32,
) -> (SceneStats, SceneStats) {
    let alphas = accelviz_fieldlines::roi::focus_alphas(lines, region, context_alpha);
    let mut focus = Vec::new();
    let mut context = Vec::new();
    for (line, &a) in lines.iter().zip(&alphas) {
        if a >= 1.0 {
            focus.push(line.clone());
        } else {
            context.push(line.clone());
        }
    }
    // Context first (translucent, sorted), focus on top (opaque, bump
    // shaded) — the opaque pass also writes depth so focus occludes
    // context correctly on overlap.
    let ctx_stats = render_line_set(
        fb,
        camera,
        &context,
        LineRepresentation::TransparentSos,
        style,
        half_width,
    );
    let focus_stats = render_line_set(
        fb,
        camera,
        &focus,
        LineRepresentation::SelfOrientingSurfaces,
        style,
        half_width,
    );
    (focus_stats, ctx_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_math::Vec3;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::threshold_for_budget;
    use accelviz_octree::plots::PlotType;

    fn test_frame() -> HybridFrame {
        let ps = Distribution::default_beam().sample(4_000, 3);
        let data = partition(
            &ps,
            PlotType::XYZ,
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        );
        let t = threshold_for_budget(&data, 1_500);
        HybridFrame::from_partition(&data, 0, t, [16, 16, 16])
    }

    fn camera_for(frame: &HybridFrame) -> Camera {
        let c = frame.bounds.center();
        let d = frame.bounds.longest_edge() * 2.5;
        Camera::orbit(c, d, 0.4, 0.3, 1.0)
    }

    #[test]
    fn hybrid_mode_draws_both_parts() {
        let frame = test_frame();
        let cam = camera_for(&frame);
        let tfs = TransferFunctionPair::linked_at(0.05, 0.02);
        let mut fb = Framebuffer::new(96, 96);
        let stats = render_hybrid_frame(
            &mut fb,
            &cam,
            &frame,
            &tfs,
            RenderMode::Hybrid,
            &VolumeStyle {
                steps: 32,
                ..Default::default()
            },
            &PointStyle::default(),
        );
        assert!(stats.volume_samples > 0);
        assert!(stats.points_drawn > 0);
        assert!(fb.lit_pixel_count(0.01) > 0, "something must be visible");
    }

    #[test]
    fn decomposition_modes_split_the_work() {
        let frame = test_frame();
        let cam = camera_for(&frame);
        let tfs = TransferFunctionPair::linked_at(0.05, 0.02);
        let vs = VolumeStyle {
            steps: 32,
            ..Default::default()
        };
        let ps = PointStyle::default();
        let mut fb = Framebuffer::new(64, 64);
        let vol = render_hybrid_frame(
            &mut fb,
            &cam,
            &frame,
            &tfs,
            RenderMode::VolumeOnly,
            &vs,
            &ps,
        );
        assert!(vol.volume_samples > 0);
        assert_eq!(vol.points_drawn, 0);
        fb.clear(Rgba::TRANSPARENT);
        let pts = render_hybrid_frame(
            &mut fb,
            &cam,
            &frame,
            &tfs,
            RenderMode::PointsOnly,
            &vs,
            &ps,
        );
        assert_eq!(pts.volume_samples, 0);
        assert!(pts.points_drawn > 0);
    }

    #[test]
    fn point_tf_controls_points_drawn() {
        let frame = test_frame();
        let cam = camera_for(&frame);
        let vs = VolumeStyle {
            steps: 8,
            ..Default::default()
        };
        let ps = PointStyle::default();
        let mut fb = Framebuffer::new(64, 64);
        // A pair whose point threshold is huge draws all kept points.
        let all = TransferFunctionPair::linked_at(2.0, 0.01);
        let many = render_hybrid_frame(
            &mut fb,
            &cam,
            &frame,
            &all,
            RenderMode::PointsOnly,
            &vs,
            &ps,
        );
        // A pair whose threshold is tiny draws almost none.
        let none = TransferFunctionPair::linked_at(1e-9, 1e-12);
        let few = render_hybrid_frame(
            &mut fb,
            &cam,
            &frame,
            &none,
            RenderMode::PointsOnly,
            &vs,
            &ps,
        );
        assert!(many.points_drawn > few.points_drawn);
        assert_eq!(few.points_drawn, 0);
    }

    #[test]
    fn attribute_coloring_changes_without_reextraction() {
        let frame = test_frame();
        let cam = camera_for(&frame);
        let heat = |t: f64| Rgba::new(t as f32, 0.0, (1.0 - t) as f32, 0.8);
        let mut fb_r = Framebuffer::new(96, 96);
        let mut fb_m = Framebuffer::new(96, 96);
        let n_r = render_points_by_attribute(
            &mut fb_r,
            &cam,
            &frame,
            PointAttribute::TransverseRadius,
            &heat,
            1.0,
        );
        let n_m = render_points_by_attribute(
            &mut fb_m,
            &cam,
            &frame,
            PointAttribute::TransverseMomentum,
            &heat,
            1.0,
        );
        // Same points drawn (same geometry), different colors (different
        // attribute) — the recoloring is purely dynamic.
        assert_eq!(n_r, n_m);
        assert!(n_r > 0);
        assert!(
            fb_r.mse(&fb_m) > 0.0,
            "different attributes must yield different images"
        );
    }

    #[test]
    fn point_attributes_evaluate_correctly() {
        use accelviz_beam::particle::Particle;
        let p = Particle::from_array([3.0, 0.5, 4.0, -0.5, 1.0, 2.0]);
        assert_eq!(PointAttribute::NodeDensity.eval(&p, 0.7), 0.7);
        assert!(
            (PointAttribute::TransverseMomentum.eval(&p, 0.0) - (0.5f64.powi(2) * 2.0).sqrt())
                .abs()
                < 1e-12
        );
        assert_eq!(PointAttribute::LongitudinalMomentum.eval(&p, 0.0), 2.0);
        assert_eq!(PointAttribute::TransverseRadius.eval(&p, 0.0), 5.0);
        // x·py − y·px = 3·(−0.5) − 4·0.5 = −3.5
        assert_eq!(PointAttribute::AngularMomentum.eval(&p, 0.0), -3.5);
    }

    fn sample_lines(n: usize) -> Vec<FieldLine> {
        (0..n)
            .map(|i| {
                let mut l = FieldLine::new();
                let y = i as f64 * 0.1 - 0.2;
                for j in 0..12 {
                    l.push(
                        Vec3::new(j as f64 * 0.1 - 0.6, y, 0.0),
                        Vec3::UNIT_X,
                        0.2 + 0.1 * j as f64,
                    );
                }
                l
            })
            .collect()
    }

    #[test]
    fn representations_have_expected_triangle_ratios() {
        let lines = sample_lines(5);
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        let mut fb = Framebuffer::new(96, 96);
        let sos = render_line_set(
            &mut fb,
            &cam,
            &lines,
            LineRepresentation::SelfOrientingSurfaces,
            &style,
            0.02,
        );
        fb.clear(Rgba::TRANSPARENT);
        let tubes = render_line_set(
            &mut fb,
            &cam,
            &lines,
            LineRepresentation::Streamtubes,
            &style,
            0.02,
        );
        assert!(sos.triangles > 0 && tubes.triangles > 0);
        let ratio = tubes.triangles as f64 / sos.triangles as f64;
        assert!(
            ratio > 5.0,
            "streamtubes must cost ≳5–6× the triangles (got {ratio:.1})"
        );
        assert!(sos.fragments > 0);
    }

    #[test]
    fn transparent_sos_draws_without_depth_writes() {
        let lines = sample_lines(4);
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        let mut fb = Framebuffer::new(64, 64);
        let stats = render_line_set(
            &mut fb,
            &cam,
            &lines,
            LineRepresentation::TransparentSos,
            &style,
            0.03,
        );
        assert!(stats.fragments > 0);
        // No depth writes: the buffer depth stays at infinity everywhere.
        let mut any_depth = false;
        for y in 0..64 {
            for x in 0..64 {
                if fb.get_depth(x, y).is_finite() {
                    any_depth = true;
                }
            }
        }
        assert!(!any_depth);
    }

    #[test]
    fn enhanced_and_haloed_and_ribbon_representations_render() {
        let lines = sample_lines(4);
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        for rep in [
            LineRepresentation::EnhancedLighting,
            LineRepresentation::HaloedSos,
            LineRepresentation::Ribbons,
        ] {
            let mut fb = Framebuffer::new(96, 96);
            let stats = render_line_set(&mut fb, &cam, &lines, rep, &style, 0.05);
            assert!(stats.triangles > 0, "{rep:?} drew no triangles");
            assert!(stats.fragments > 0, "{rep:?} wrote no fragments");
            assert!(fb.lit_pixel_count(0.005) > 0, "{rep:?} invisible");
        }
    }

    #[test]
    fn haloed_sos_has_dark_rims() {
        // Render one thick horizontal strip with and without halo; the
        // haloed version must contain near-black lit pixels at the rims.
        let lines = sample_lines(1);
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 2.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        let mut plain = Framebuffer::new(128, 128);
        let mut haloed = Framebuffer::new(128, 128);
        render_line_set(
            &mut plain,
            &cam,
            &lines,
            LineRepresentation::SelfOrientingSurfaces,
            &style,
            0.08,
        );
        render_line_set(
            &mut haloed,
            &cam,
            &lines,
            LineRepresentation::HaloedSos,
            &style,
            0.08,
        );
        let dark = |fb: &Framebuffer| {
            let mut n = 0;
            for y in 0..128 {
                for x in 0..128 {
                    let c = fb.get(x, y);
                    if c.a > 0.5 && c.luminance() < 0.02 {
                        n += 1;
                    }
                }
            }
            n
        };
        assert!(
            dark(&haloed) > dark(&plain) + 10,
            "halo must add dark rim pixels ({} vs {})",
            dark(&haloed),
            dark(&plain)
        );
    }

    #[test]
    fn ribbons_use_fewer_lines_for_similar_coverage() {
        // The Figure 6(e) economics: a handful of wide ribbons covers a
        // comparable screen area to many thin strips.
        let many = sample_lines(8);
        let few = sample_lines(2);
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        let mut fb_many = Framebuffer::new(96, 96);
        let mut fb_few = Framebuffer::new(96, 96);
        let s_many = render_line_set(
            &mut fb_many,
            &cam,
            &many,
            LineRepresentation::SelfOrientingSurfaces,
            &style,
            0.01,
        );
        let s_few = render_line_set(
            &mut fb_few,
            &cam,
            &few,
            LineRepresentation::Ribbons,
            &style,
            0.01,
        );
        assert!(s_few.triangles < s_many.triangles);
        assert!(
            fb_few.lit_pixel_count(0.005) * 2 > fb_many.lit_pixel_count(0.005),
            "ribbons must cover comparable area: {} vs {}",
            fb_few.lit_pixel_count(0.005),
            fb_many.lit_pixel_count(0.005)
        );
    }

    #[test]
    fn focus_context_splits_opacity_by_region() {
        use accelviz_fieldlines::roi::Region;
        let lines = sample_lines(6); // lines at y = -0.2 .. 0.3
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        // ROI covers only the lower lines (y < 0).
        let region = Region::Box(accelviz_math::Aabb::new(
            Vec3::new(-10.0, -10.0, -10.0),
            Vec3::new(10.0, 0.0, 10.0),
        ));
        let mut fb = Framebuffer::new(96, 96);
        let (focus, ctx) = render_focus_context(&mut fb, &cam, &lines, &region, &style, 0.03, 0.2);
        assert!(focus.triangles > 0, "some lines are in focus");
        assert!(ctx.triangles > 0, "some lines are context");
        // Context lines survive as translucent geometry (unlike cutaway).
        assert!(fb.lit_pixel_count(0.003) > 0);
        // Compare against a cutaway: the cutaway image has *fewer* lit
        // pixels because the context is gone entirely.
        let cut = accelviz_fieldlines::roi::cutaway(&lines, &region);
        let mut fb_cut = Framebuffer::new(96, 96);
        render_line_set(
            &mut fb_cut,
            &cam,
            &cut,
            LineRepresentation::SelfOrientingSurfaces,
            &style,
            0.03,
        );
        assert!(
            fb.lit_pixel_count(0.003) > fb_cut.lit_pixel_count(0.003),
            "focus+context must keep more of the picture than cutaway"
        );
    }

    #[test]
    fn flat_and_illuminated_lines_render() {
        let lines = sample_lines(3);
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 4.0), Vec3::ZERO, 1.0);
        let style = LineStyle::electric(1.5);
        let mut fb = Framebuffer::new(64, 64);
        let flat = render_line_set(
            &mut fb,
            &cam,
            &lines,
            LineRepresentation::FlatLines,
            &style,
            0.02,
        );
        fb.clear(Rgba::TRANSPARENT);
        let ill = render_line_set(
            &mut fb,
            &cam,
            &lines,
            LineRepresentation::Illuminated,
            &style,
            0.02,
        );
        assert!(flat.fragments > 0);
        assert!(ill.fragments > 0);
        assert_eq!(flat.triangles, ill.triangles, "same thin-strip geometry");
    }
}
