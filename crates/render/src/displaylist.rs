//! Display lists — compiled, replayable geometry (§2.5).
//!
//! "If a frame is already in memory, it can be displayed instantaneously:
//! the volume texture and *display lists* are already loaded into video
//! memory." A display list freezes a frame's strip/point geometry into
//! one object with a known video-memory footprint, so the viewer's
//! residency model can account for geometry as well as textures, and
//! replaying costs no geometry rebuild.

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use crate::rasterizer::{draw_triangle_strips, FragmentShader, RasterOptions, Vertex};
use accelviz_math::{Rgba, Vec3};

/// A compiled display list: triangle strips plus point sprites.
#[derive(Clone, Debug, Default)]
pub struct DisplayList {
    strips: Vec<Vec<Vertex>>,
    points: Vec<(Vec3, Rgba)>,
}

impl DisplayList {
    /// An empty list.
    pub fn new() -> DisplayList {
        DisplayList::default()
    }

    /// Appends a triangle strip.
    pub fn push_strip(&mut self, verts: Vec<Vertex>) {
        if verts.len() >= 3 {
            self.strips.push(verts);
        }
    }

    /// Appends a point sprite.
    pub fn push_point(&mut self, pos: Vec3, color: Rgba) {
        self.points.push((pos, color));
    }

    /// Number of strips.
    pub fn strip_count(&self) -> usize {
        self.strips.len()
    }

    /// Total triangles across all strips.
    pub fn triangle_count(&self) -> usize {
        self.strips.iter().map(|s| s.len() - 2).sum()
    }

    /// Number of point sprites.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Video-memory footprint of the compiled list, using the era's
    /// interleaved vertex layout: position (3×f32) + uv (2×f32) + color
    /// (RGBA8) = 24 B per strip vertex; points cost 12 B position +
    /// 4 B color.
    pub fn bytes(&self) -> u64 {
        let strip_verts: usize = self.strips.iter().map(Vec::len).sum();
        (strip_verts * 24 + self.points.len() * 16) as u64
    }

    /// Replays the list: rasterizes every strip through `shader` and
    /// splats every point. Returns (triangles, fragments) like the direct
    /// path — replay must produce the identical image.
    pub fn replay(
        &self,
        fb: &mut Framebuffer,
        camera: &Camera,
        shader: FragmentShader<'_>,
        opts: RasterOptions,
        point_size_px: f64,
    ) -> (usize, usize) {
        let (tris, mut frags) = draw_triangle_strips(fb, camera, &self.strips, shader, opts);
        let (w, h) = (fb.width(), fb.height());
        let projector = camera.projector(w, h);
        for &(pos, color) in &self.points {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rasterizer::flat_shader;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0)
    }

    fn strip() -> Vec<Vertex> {
        (0..6)
            .map(|i| {
                let x = i as f64 * 0.4 - 1.0;
                let y = if i % 2 == 0 { -0.4 } else { 0.4 };
                Vertex::colored(Vec3::new(x, y, 0.0), Rgba::rgb(0.2, 0.9, 0.4))
            })
            .collect()
    }

    #[test]
    fn replay_matches_direct_rendering() {
        let verts = strip();
        let mut direct = Framebuffer::new(64, 64);
        draw_triangle_strips(
            &mut direct,
            &cam(),
            [&verts],
            &flat_shader,
            RasterOptions::default(),
        );

        let mut list = DisplayList::new();
        list.push_strip(verts);
        let mut replayed = Framebuffer::new(64, 64);
        let (tris, frags) = list.replay(
            &mut replayed,
            &cam(),
            &flat_shader,
            RasterOptions::default(),
            1.0,
        );
        assert_eq!(tris, 4);
        assert!(frags > 0);
        assert_eq!(direct.mse(&replayed), 0.0, "replay must be bit-identical");
    }

    #[test]
    fn counts_and_bytes() {
        let mut list = DisplayList::new();
        list.push_strip(strip()); // 6 verts, 4 tris
        list.push_point(Vec3::ZERO, Rgba::WHITE);
        list.push_point(Vec3::UNIT_X, Rgba::WHITE);
        assert_eq!(list.strip_count(), 1);
        assert_eq!(list.triangle_count(), 4);
        assert_eq!(list.point_count(), 2);
        assert_eq!(list.bytes(), 6 * 24 + 2 * 16);
        // Degenerate strips are rejected.
        list.push_strip(vec![Vertex::colored(Vec3::ZERO, Rgba::WHITE); 2]);
        assert_eq!(list.strip_count(), 1);
    }

    #[test]
    fn points_replay_visibly() {
        let mut list = DisplayList::new();
        list.push_point(Vec3::ZERO, Rgba::WHITE);
        let mut fb = Framebuffer::new(65, 65);
        let (_, frags) = list.replay(&mut fb, &cam(), &flat_shader, RasterOptions::default(), 2.0);
        assert!(frags > 0);
        assert!(fb.get(32, 32).luminance() > 0.5);
    }
}
