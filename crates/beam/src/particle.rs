//! The 6-D phase-space particle and coordinate selectors.

use accelviz_math::Vec3;

/// One of the six phase-space coordinates stored per particle.
///
/// The paper's simulations store "spatial coordinates (x, y, z) and momenta
/// (px, py, pz) in double-precision" per particle; its Figure 2 plots four
/// different 3-D projections of these six coordinates, so plot types are
/// named by triples of `PhaseCoord`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseCoord {
    /// Horizontal position.
    X,
    /// Horizontal momentum (slope) pₓ.
    Px,
    /// Vertical position.
    Y,
    /// Vertical momentum p_y.
    Py,
    /// Longitudinal position.
    Z,
    /// Longitudinal momentum p_z.
    Pz,
}

impl PhaseCoord {
    /// All six coordinates in storage order.
    pub const ALL: [PhaseCoord; 6] = [
        PhaseCoord::X,
        PhaseCoord::Px,
        PhaseCoord::Y,
        PhaseCoord::Py,
        PhaseCoord::Z,
        PhaseCoord::Pz,
    ];

    /// Short name used in experiment output ("x", "px", ...).
    pub fn name(self) -> &'static str {
        match self {
            PhaseCoord::X => "x",
            PhaseCoord::Px => "px",
            PhaseCoord::Y => "y",
            PhaseCoord::Py => "py",
            PhaseCoord::Z => "z",
            PhaseCoord::Pz => "pz",
        }
    }

    /// `true` for the momentum coordinates.
    pub fn is_momentum(self) -> bool {
        matches!(self, PhaseCoord::Px | PhaseCoord::Py | PhaseCoord::Pz)
    }

    /// The one-byte code a plot type's coordinates are stored and shipped
    /// as (node files, wire frame headers): the index in
    /// [`PhaseCoord::ALL`].
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The coordinate a [`PhaseCoord::code`] names; `None` past the six.
    pub fn from_code(code: u8) -> Option<PhaseCoord> {
        PhaseCoord::ALL.get(usize::from(code)).copied()
    }
}

/// A single macro-particle in 6-D phase space.
///
/// Positions are in meters and momenta are dimensionless transverse slopes
/// (x′ = dx/ds), the conventional trace-space units of beam dynamics codes.
/// The struct is exactly six `f64`s (48 bytes), matching the paper's
/// storage accounting (100 M particles ⇒ ~5 GB per time step).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Particle {
    /// Spatial position (x, y, z).
    pub position: Vec3,
    /// Momentum / slope (px, py, pz).
    pub momentum: Vec3,
}

impl Particle {
    /// Particle from position and momentum.
    #[inline]
    pub fn new(position: Vec3, momentum: Vec3) -> Particle {
        Particle { position, momentum }
    }

    /// Particle at rest at a point.
    #[inline]
    pub fn at_rest(position: Vec3) -> Particle {
        Particle {
            position,
            momentum: Vec3::ZERO,
        }
    }

    /// Value of one phase-space coordinate.
    #[inline]
    pub fn coord(&self, c: PhaseCoord) -> f64 {
        match c {
            PhaseCoord::X => self.position.x,
            PhaseCoord::Px => self.momentum.x,
            PhaseCoord::Y => self.position.y,
            PhaseCoord::Py => self.momentum.y,
            PhaseCoord::Z => self.position.z,
            PhaseCoord::Pz => self.momentum.z,
        }
    }

    /// Mutable access to one phase-space coordinate.
    #[inline]
    pub fn coord_mut(&mut self, c: PhaseCoord) -> &mut f64 {
        match c {
            PhaseCoord::X => &mut self.position.x,
            PhaseCoord::Px => &mut self.momentum.x,
            PhaseCoord::Y => &mut self.position.y,
            PhaseCoord::Py => &mut self.momentum.y,
            PhaseCoord::Z => &mut self.position.z,
            PhaseCoord::Pz => &mut self.momentum.z,
        }
    }

    /// Transverse radius √(x² + y²).
    #[inline]
    pub fn transverse_radius(&self) -> f64 {
        (self.position.x * self.position.x + self.position.y * self.position.y).sqrt()
    }

    /// The six coordinates in storage order `[x, px, y, py, z, pz]`.
    #[inline]
    pub fn to_array(&self) -> [f64; 6] {
        [
            self.position.x,
            self.momentum.x,
            self.position.y,
            self.momentum.y,
            self.position.z,
            self.momentum.z,
        ]
    }

    /// Particle from the storage-order array.
    #[inline]
    pub fn from_array(a: [f64; 6]) -> Particle {
        Particle {
            position: Vec3::new(a[0], a[2], a[4]),
            momentum: Vec3::new(a[1], a[3], a[5]),
        }
    }

    /// The 48-byte storage record: the storage-order coordinates as
    /// little-endian `f64`s.
    #[inline]
    pub fn to_le_bytes(&self) -> [u8; 48] {
        let mut rec = [0u8; 48];
        for (field, c) in rec.as_chunks_mut::<8>().0.iter_mut().zip(self.to_array()) {
            *field = c.to_le_bytes();
        }
        rec
    }

    /// Particle from a 48-byte storage record.
    #[inline]
    pub fn from_le_bytes(rec: &[u8; 48]) -> Particle {
        let mut a = [0.0f64; 6];
        for (c, field) in a.iter_mut().zip(rec.as_chunks::<8>().0) {
            *c = f64::from_le_bytes(*field);
        }
        Particle::from_array(a)
    }

    /// `true` when every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.position.is_finite() && self.momentum.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_is_six_doubles() {
        // The paper's storage math (5 GB per 100 M-particle step) relies on
        // 48-byte particles; keep the layout honest.
        assert_eq!(std::mem::size_of::<Particle>(), 48);
    }

    #[test]
    fn coord_accessors_cover_all_six() {
        let p = Particle::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let vals: Vec<f64> = PhaseCoord::ALL.iter().map(|&c| p.coord(c)).collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn coord_mut_roundtrip() {
        let mut p = Particle::default();
        for (i, &c) in PhaseCoord::ALL.iter().enumerate() {
            *p.coord_mut(c) = i as f64 * 10.0;
        }
        assert_eq!(p.to_array(), [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn array_roundtrip() {
        let a = [0.1, -0.2, 0.3, -0.4, 0.5, -0.6];
        assert_eq!(Particle::from_array(a).to_array(), a);
    }

    #[test]
    fn record_roundtrip_is_six_little_endian_doubles() {
        let p = Particle::from_array([0.1, -0.2, f64::MAX, -0.0, 5e-324, f64::NAN]);
        let rec = p.to_le_bytes();
        for (k, c) in p.to_array().iter().enumerate() {
            assert_eq!(rec[k * 8..(k + 1) * 8], c.to_le_bytes(), "coordinate {k}");
        }
        let back = Particle::from_le_bytes(&rec);
        assert_eq!(
            back.to_array().map(f64::to_bits),
            p.to_array().map(f64::to_bits)
        );
    }

    #[test]
    fn coord_codes_are_storage_order_indices() {
        for (i, c) in PhaseCoord::ALL.into_iter().enumerate() {
            assert_eq!(c.code(), i as u8);
            assert_eq!(PhaseCoord::from_code(c.code()), Some(c));
        }
        assert_eq!(PhaseCoord::from_code(6), None);
        assert_eq!(PhaseCoord::from_code(u8::MAX), None);
    }

    #[test]
    fn transverse_radius_ignores_z() {
        let p = Particle::at_rest(Vec3::new(3.0, 4.0, 100.0));
        assert_eq!(p.transverse_radius(), 5.0);
    }

    #[test]
    fn names_and_momentum_flags() {
        assert_eq!(PhaseCoord::Px.name(), "px");
        assert!(PhaseCoord::Pz.is_momentum());
        assert!(!PhaseCoord::Z.is_momentum());
        assert_eq!(PhaseCoord::ALL.len(), 6);
    }

    #[test]
    fn finite_detection() {
        let mut p = Particle::default();
        assert!(p.is_finite());
        p.momentum.y = f64::NAN;
        assert!(!p.is_finite());
    }
}
