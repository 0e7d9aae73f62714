//! Axis-aligned bounding boxes, including the octant subdivision used by the
//! particle octree.

use crate::ray::Ray;
use crate::vec3::Vec3;

/// An axis-aligned bounding box given by inclusive min/max corners.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Box from corners. Panics if any `min` component exceeds `max`.
    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "Aabb min must not exceed max: {min} vs {max}"
        );
        Aabb { min, max }
    }

    /// The empty box (inverted bounds); `union`-ing points into it grows it.
    pub fn empty() -> Aabb {
        Aabb {
            min: Vec3::splat(f64::INFINITY),
            max: Vec3::splat(f64::NEG_INFINITY),
        }
    }

    /// Cube centered at `center` with half-extent `half`.
    pub fn cube(center: Vec3, half: f64) -> Aabb {
        assert!(half >= 0.0);
        Aabb::new(center - Vec3::splat(half), center + Vec3::splat(half))
    }

    /// Smallest box containing every point in `points`. Returns
    /// [`Aabb::empty`] for an empty iterator.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Aabb {
        let mut b = Aabb::empty();
        for p in points {
            b.grow(p);
        }
        b
    }

    /// `true` when this is the empty box.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Expands the box to include `p`.
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// The union of two boxes.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Center point.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Edge lengths.
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Volume of the box (0 for empty/degenerate boxes).
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Longest edge length.
    pub fn longest_edge(&self) -> f64 {
        self.size().max_component()
    }

    /// Half-open containment test used by the octree: a point exactly on the
    /// max face belongs to the *neighboring* box, except that callers are
    /// expected to clamp the root. This keeps octant assignment unambiguous.
    pub fn contains_half_open(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x < self.max.x
            && p.y >= self.min.y
            && p.y < self.max.y
            && p.z >= self.min.z
            && p.z < self.max.z
    }

    /// Closed containment test (both faces inclusive).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// `true` when two boxes overlap (closed).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Index of the octant (0–7) that `p` falls into, with bit 0 = x-high,
    /// bit 1 = y-high, bit 2 = z-high relative to the box center.
    pub fn octant_index(&self, p: Vec3) -> usize {
        let c = self.center();
        (usize::from(p.x >= c.x)) | (usize::from(p.y >= c.y) << 1) | (usize::from(p.z >= c.z) << 2)
    }

    /// The `i`-th octant sub-box (same bit convention as
    /// [`Aabb::octant_index`]).
    pub fn octant(&self, i: usize) -> Aabb {
        assert!(i < 8, "octant index out of range: {i}");
        let c = self.center();
        let pick = |bit: bool, lo: f64, mid: f64, hi: f64| -> (f64, f64) {
            if bit {
                (mid, hi)
            } else {
                (lo, mid)
            }
        };
        let (x0, x1) = pick(i & 1 != 0, self.min.x, c.x, self.max.x);
        let (y0, y1) = pick(i & 2 != 0, self.min.y, c.y, self.max.y);
        let (z0, z1) = pick(i & 4 != 0, self.min.z, c.z, self.max.z);
        Aabb::new(Vec3::new(x0, y0, z0), Vec3::new(x1, y1, z1))
    }

    /// Slab-method ray intersection. Returns the `(t_near, t_far)` interval
    /// clipped to `t >= 0`, or `None` when the ray misses.
    pub fn intersect_ray(&self, ray: &Ray) -> Option<(f64, f64)> {
        let mut t0 = 0.0f64;
        let mut t1 = f64::INFINITY;
        for i in 0..3 {
            let origin = ray.origin[i];
            let dir = ray.dir[i];
            if dir.abs() < 1e-300 {
                if origin < self.min[i] || origin > self.max[i] {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / dir;
            let mut ta = (self.min[i] - origin) * inv;
            let mut tb = (self.max[i] - origin) * inv;
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }

    /// The eight corner points.
    pub fn corners(&self) -> [Vec3; 8] {
        let (mn, mx) = (self.min, self.max);
        [
            Vec3::new(mn.x, mn.y, mn.z),
            Vec3::new(mx.x, mn.y, mn.z),
            Vec3::new(mn.x, mx.y, mn.z),
            Vec3::new(mx.x, mx.y, mn.z),
            Vec3::new(mn.x, mn.y, mx.z),
            Vec3::new(mx.x, mn.y, mx.z),
            Vec3::new(mn.x, mx.y, mx.z),
            Vec3::new(mx.x, mx.y, mx.z),
        ]
    }

    /// Normalized coordinates of `p` inside the box, each in \[0,1\] when the
    /// point is inside. Degenerate axes map to 0.
    #[inline]
    pub fn normalized_coords(&self, p: Vec3) -> Vec3 {
        let s = self.size();
        let safe = |num: f64, den: f64| if den.abs() < 1e-300 { 0.0 } else { num / den };
        Vec3::new(
            safe(p.x - self.min.x, s.x),
            safe(p.y - self.min.y, s.y),
            safe(p.z - self.min.z, s.z),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn grow_and_from_points() {
        let b = Aabb::from_points([
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-1.0, 5.0, 0.0),
            Vec3::new(0.0, 0.0, 10.0),
        ]);
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(1.0, 5.0, 10.0));
        assert!(Aabb::from_points([]).is_empty());
    }

    #[test]
    fn union_covers_both() {
        let a = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        assert!(u.contains(Vec3::ZERO));
        assert!(u.contains(Vec3::splat(3.0)));
        // Union with empty is identity.
        assert_eq!(a.union(&Aabb::empty()), a);
    }

    #[test]
    fn volume_and_edges() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.longest_edge(), 4.0);
        assert_eq!(Aabb::empty().volume(), 0.0);
        assert_eq!(b.center(), Vec3::new(1.0, 1.5, 2.0));
    }

    #[test]
    fn octants_partition_the_box() {
        let b = unit_box();
        // The eight octants tile the box: volumes sum, and each point maps
        // to the octant that contains it.
        let total: f64 = (0..8).map(|i| b.octant(i).volume()).sum();
        assert!((total - b.volume()).abs() < 1e-12);
        for p in [
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.9, 0.1, 0.1),
            Vec3::new(0.1, 0.9, 0.1),
            Vec3::new(0.9, 0.9, 0.9),
            Vec3::new(0.5, 0.5, 0.5),
        ] {
            let i = b.octant_index(p);
            assert!(b.octant(i).contains(p), "octant {i} must contain {p}");
        }
    }

    #[test]
    fn octant_index_bit_convention() {
        let b = unit_box();
        assert_eq!(b.octant_index(Vec3::new(0.25, 0.25, 0.25)), 0);
        assert_eq!(b.octant_index(Vec3::new(0.75, 0.25, 0.25)), 1);
        assert_eq!(b.octant_index(Vec3::new(0.25, 0.75, 0.25)), 2);
        assert_eq!(b.octant_index(Vec3::new(0.25, 0.25, 0.75)), 4);
        assert_eq!(b.octant_index(Vec3::new(0.75, 0.75, 0.75)), 7);
    }

    #[test]
    fn half_open_containment() {
        let b = unit_box();
        assert!(b.contains_half_open(Vec3::ZERO));
        assert!(!b.contains_half_open(Vec3::ONE));
        assert!(b.contains(Vec3::ONE));
    }

    #[test]
    fn ray_hits_and_misses() {
        let b = unit_box();
        let hit = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::UNIT_X);
        let (t0, t1) = b.intersect_ray(&hit).unwrap();
        assert!((t0 - 1.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-12);
        let miss = Ray::new(Vec3::new(-1.0, 2.0, 0.5), Vec3::UNIT_X);
        assert!(b.intersect_ray(&miss).is_none());
        // Ray starting inside: interval starts at 0.
        let inside = Ray::new(Vec3::splat(0.5), Vec3::UNIT_Z);
        let (t0, t1) = b.intersect_ray(&inside).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-12);
        // Axis-parallel ray outside the slab.
        let parallel = Ray::new(Vec3::new(2.0, 0.5, 0.0), Vec3::UNIT_Z);
        assert!(b.intersect_ray(&parallel).is_none());
    }

    #[test]
    fn normalized_coords_span_unit_cube() {
        let b = Aabb::new(Vec3::new(-2.0, 0.0, 4.0), Vec3::new(2.0, 2.0, 8.0));
        assert_eq!(b.normalized_coords(b.min), Vec3::ZERO);
        assert_eq!(b.normalized_coords(b.max), Vec3::ONE);
        assert_eq!(b.normalized_coords(b.center()), Vec3::splat(0.5));
    }

    #[test]
    fn corners_are_all_contained() {
        let b = Aabb::new(Vec3::new(-1.0, -2.0, -3.0), Vec3::new(4.0, 5.0, 6.0));
        for c in b.corners() {
            assert!(b.contains(c));
        }
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        let _ = Aabb::new(Vec3::ONE, Vec3::ZERO);
    }
}
