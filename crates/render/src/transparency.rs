//! Back-to-front sorted compositing for translucent geometry (§3.3.3).
//!
//! "Transparency in complex scenes requires back-to-front compositing for
//! a correct image." The paper notes depth sorting is impractical for very
//! large data and that the GeForce 3's order-independent transparency
//! "would require disabling bump mapping and finer tessellation" — so the
//! transparent path here, like the paper's, draws *flat-shaded* (no bump
//! map) triangles sorted by view depth.

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use crate::rasterizer::{draw_triangle_strips, flat_shader, RasterOptions, Vertex};

/// A queue of translucent triangles, flushed in back-to-front order.
#[derive(Default)]
pub struct TransparentQueue {
    tris: Vec<(f64, [Vertex; 3])>,
}

impl TransparentQueue {
    /// Empty queue.
    pub fn new() -> TransparentQueue {
        TransparentQueue { tris: Vec::new() }
    }

    /// Number of queued triangles.
    pub fn len(&self) -> usize {
        self.tris.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.tris.is_empty()
    }

    /// Queues a triangle; its sort key is the view-space distance of its
    /// centroid from the camera eye.
    pub fn push(&mut self, camera: &Camera, tri: [Vertex; 3]) {
        let centroid = (tri[0].pos + tri[1].pos + tri[2].pos) / 3.0;
        let depth = centroid.distance(camera.eye);
        self.tris.push((depth, tri));
    }

    /// Queues every triangle of a triangle strip.
    pub fn push_strip(&mut self, camera: &Camera, verts: &[Vertex]) {
        if verts.len() < 3 {
            return;
        }
        for i in 0..verts.len() - 2 {
            self.push(camera, [verts[i], verts[i + 1], verts[i + 2]]);
        }
    }

    /// Sorts back-to-front and draws everything with blending, no depth
    /// writes (opaque geometry drawn earlier still occludes via the depth
    /// test). Returns the number of fragments blended. The queue is left
    /// empty.
    pub fn flush(&mut self, fb: &mut Framebuffer, camera: &Camera) -> usize {
        self.tris
            .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let opts = RasterOptions { write_depth: false };
        let tris = self.tris.drain(..).map(|(_, tri)| tri);
        draw_triangle_strips(fb, camera, tris, &flat_shader, opts).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_math::{Rgba, Vec3};

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
    fn flush_order_is_independent_of_push_order() {
        let c = cam();
        let near = tri_at(1.0, Rgba::new(1.0, 0.0, 0.0, 0.5));
        let far = tri_at(-1.0, Rgba::new(0.0, 0.0, 1.0, 0.5));

        let mut fb1 = Framebuffer::new(64, 64);
        let mut q = TransparentQueue::new();
        q.push(&c, near);
        q.push(&c, far);
        q.flush(&mut fb1, &c);

        let mut fb2 = Framebuffer::new(64, 64);
        let mut q = TransparentQueue::new();
        q.push(&c, far);
        q.push(&c, near);
        q.flush(&mut fb2, &c);

        assert_eq!(
            fb1.mse(&fb2),
            0.0,
            "sorted compositing must be order independent"
        );
        // And the result is the correct near-over-far blend: red over blue.
        let px = fb1.get(32, 32);
        assert!(px.r > px.b, "near red layer dominates: {px:?}");
    }

    #[test]
    fn flush_empties_the_queue() {
        let c = cam();
        let mut q = TransparentQueue::new();
        q.push(&c, tri_at(0.0, Rgba::new(1.0, 1.0, 1.0, 0.5)));
        assert_eq!(q.len(), 1);
        let mut fb = Framebuffer::new(32, 32);
        let frags = q.flush(&mut fb, &c);
        assert!(frags > 0);
        assert!(q.is_empty());
    }

    #[test]
    fn push_strip_enqueues_n_minus_2() {
        let c = cam();
        let verts: Vec<Vertex> = (0..5)
            .map(|i| Vertex::colored(Vec3::new(i as f64, 0.0, 0.0), Rgba::WHITE))
            .collect();
        let mut q = TransparentQueue::new();
        q.push_strip(&c, &verts);
        assert_eq!(q.len(), 3);
        q.push_strip(&c, &verts[..2]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn transparent_geometry_respects_opaque_depth() {
        let c = cam();
        let mut fb = Framebuffer::new(64, 64);
        // Opaque near triangle writes depth.
        let opaque = tri_at(2.0, Rgba::rgb(0.0, 1.0, 0.0));
        crate::rasterizer::draw_triangle(
            &mut fb,
            &c,
            &opaque,
            &crate::rasterizer::flat_shader,
            RasterOptions::default(),
        );
        // Translucent triangle *behind* it must be fully occluded.
        let mut q = TransparentQueue::new();
        q.push(&c, tri_at(-2.0, Rgba::new(1.0, 0.0, 0.0, 0.8)));
        q.flush(&mut fb, &c);
        let px = fb.get(32, 32);
        assert!(
            px.g > 0.9 && px.r < 0.05,
            "occluded translucent must not bleed: {px:?}"
        );
    }
}
