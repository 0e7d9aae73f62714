//! Perspective camera and the world → pixel transform pipeline.

use accelviz_math::{Mat4, Vec3, Vec4};

/// A right-handed perspective camera.
#[derive(Clone, Copy, Debug)]
pub struct Camera {
    /// Eye position.
    pub eye: Vec3,
    /// Look-at target.
    pub target: Vec3,
    /// Approximate up direction.
    pub up: Vec3,
    /// Vertical field of view, radians.
    pub fovy: f64,
    /// Aspect ratio width/height.
    pub aspect: f64,
    /// Near plane distance (> 0).
    pub near: f64,
    /// Far plane distance (> near).
    pub far: f64,
}

impl Camera {
    /// A camera looking at `target` from `eye`.
    pub fn look_at(eye: Vec3, target: Vec3, aspect: f64) -> Camera {
        Camera {
            eye,
            target,
            up: Vec3::UNIT_Y,
            fovy: std::f64::consts::FRAC_PI_3,
            aspect,
            near: 1e-3,
            far: 1e3,
        }
    }

    /// A camera orbiting `center` at `distance`, azimuth `theta` (radians,
    /// around +y) and elevation `phi` — the interactive trackball pose of
    /// the paper's viewer.
    pub fn orbit(center: Vec3, distance: f64, theta: f64, phi: f64, aspect: f64) -> Camera {
        let eye = center
            + Vec3::new(
                distance * phi.cos() * theta.sin(),
                distance * phi.sin(),
                distance * phi.cos() * theta.cos(),
            );
        let mut c = Camera::look_at(eye, center, aspect);
        c.near = distance * 1e-3;
        c.far = distance * 1e3;
        c
    }

    /// The view matrix.
    pub fn view(&self) -> Mat4 {
        Mat4::look_at(self.eye, self.target, self.up)
    }

    /// The projection matrix.
    pub fn projection(&self) -> Mat4 {
        Mat4::perspective(self.fovy, self.aspect, self.near, self.far)
    }

    /// The combined view-projection matrix.
    pub fn view_projection(&self) -> Mat4 {
        self.projection() * self.view()
    }

    /// Unit view direction (eye toward target).
    pub fn forward(&self) -> Vec3 {
        (self.target - self.eye).normalized_or(-Vec3::UNIT_Z)
    }

    /// The world → pixel transform for a `width`×`height` viewport, with
    /// the view-projection matrix built once for a whole pass.
    pub fn projector(&self, width: usize, height: usize) -> Projector {
        Projector {
            view_projection: self.view_projection(),
            width: width as f64,
            height: height as f64,
        }
    }

    /// The approximate projected size in pixels of a world-space length
    /// `world_len` at distance `dist` from the eye — used for perspective
    /// point sizes and strip widths ("perspective widening ... a
    /// significant depth cue", §3.3.2).
    pub fn pixels_per_world_unit(&self, dist: f64, height: usize) -> f64 {
        let view_height = 2.0 * dist.max(self.near) * (self.fovy / 2.0).tan();
        height as f64 / view_height
    }
}

/// A camera's world → pixel transform for one viewport
/// ([`Camera::projector`]).
#[derive(Clone, Copy, Debug)]
pub struct Projector {
    view_projection: Mat4,
    width: f64,
    height: f64,
}

impl Projector {
    /// Projects a world point to pixel coordinates + NDC depth. Returns
    /// `None` for points behind the near plane or at infinity.
    #[inline]
    pub fn to_pixel(&self, p: Vec3) -> Option<(f64, f64, f64)> {
        let clip = self.view_projection.mul_vec4(Vec4::from_point(p));
        if clip.w <= 0.0 {
            return None; // behind the eye
        }
        let ndc = clip.project()?;
        let x = (ndc.x * 0.5 + 0.5) * self.width;
        let y = (1.0 - (ndc.y * 0.5 + 0.5)) * self.height;
        Some((x, y, ndc.z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, 1.0)
    }

    #[test]
    fn target_projects_to_viewport_center() {
        let (x, y, z) = cam().projector(200, 100).to_pixel(Vec3::ZERO).unwrap();
        assert!((x - 100.0).abs() < 1e-9);
        assert!((y - 50.0).abs() < 1e-9);
        assert!(z > -1.0 && z < 1.0);
    }

    #[test]
    fn points_behind_eye_are_rejected() {
        let p = cam().projector(100, 100);
        assert!(p.to_pixel(Vec3::new(0.0, 0.0, 10.0)).is_none());
    }

    #[test]
    fn right_is_right_up_is_up() {
        let p = cam().projector(100, 100);
        let (xr, _, _) = p.to_pixel(Vec3::new(1.0, 0.0, 0.0)).unwrap();
        let (_, yu, _) = p.to_pixel(Vec3::new(0.0, 1.0, 0.0)).unwrap();
        assert!(xr > 50.0, "world +x must land right of center");
        assert!(yu < 50.0, "world +y must land above center (row 0 is top)");
    }

    #[test]
    fn nearer_points_have_smaller_depth() {
        let p = cam().projector(100, 100);
        let (_, _, z_near) = p.to_pixel(Vec3::new(0.0, 0.0, 2.0)).unwrap();
        let (_, _, z_far) = p.to_pixel(Vec3::new(0.0, 0.0, -2.0)).unwrap();
        assert!(z_near < z_far);
    }

    #[test]
    fn orbit_looks_at_center() {
        let c = Camera::orbit(Vec3::new(1.0, 2.0, 3.0), 10.0, 0.7, 0.3, 1.5);
        assert!((c.eye.distance(Vec3::new(1.0, 2.0, 3.0)) - 10.0).abs() < 1e-9);
        assert_eq!(c.target, Vec3::new(1.0, 2.0, 3.0));
        let (x, y, _) = c.projector(100, 100).to_pixel(c.target).unwrap();
        assert!((x - 50.0).abs() < 1e-6 && (y - 50.0).abs() < 1e-6);
    }

    #[test]
    fn perspective_widening() {
        let c = cam();
        // Twice as far → half as many pixels per world unit.
        let near = c.pixels_per_world_unit(2.0, 100);
        let far = c.pixels_per_world_unit(4.0, 100);
        assert!((near / far - 2.0).abs() < 1e-9);
    }
}
