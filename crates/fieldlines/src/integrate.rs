//! RK4 streamline integration through a vector field.

use crate::line::FieldLine;
use accelviz_emsim::sample::VectorField3;
use accelviz_math::Vec3;

/// Streamline tracing parameters.
#[derive(Clone, Copy, Debug)]
pub struct TraceParams {
    /// Integration step length (world units).
    pub step: f64,
    /// Maximum vertices per direction.
    pub max_steps: usize,
    /// Stop when |F| falls below this (field lines of E "originate and
    /// terminate at the surface of the mesh", where the interpolated field
    /// decays to zero).
    pub min_magnitude: f64,
    /// Trace both directions from the seed and join (true for field
    /// lines; false traces downstream only).
    pub bidirectional: bool,
}

impl Default for TraceParams {
    fn default() -> TraceParams {
        TraceParams {
            step: 0.02,
            max_steps: 500,
            min_magnitude: 1e-9,
            bidirectional: true,
        }
    }
}

/// One RK4 step along the *normalized* field (arc-length parameterization,
/// so step size is geometric regardless of field strength), from `p`
/// whose normalized field `k1` the caller has already sampled.
fn rk4_step<F: VectorField3 + ?Sized>(field: &F, p: Vec3, k1: Vec3, h: f64) -> Option<Vec3> {
    let dir = |q: Vec3| -> Option<Vec3> { field.sample(q).normalized() };
    let k2 = dir(p + k1 * (h / 2.0))?;
    let k3 = dir(p + k2 * (h / 2.0))?;
    let k4 = dir(p + k3 * h)?;
    Some(p + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0))
}

/// Traces a single direction from `seed` (sign of `h` selects direction):
/// four field samples per vertex.
fn trace_direction<F: VectorField3 + ?Sized>(
    field: &F,
    seed: Vec3,
    h: f64,
    params: &TraceParams,
) -> FieldLine {
    let mut line = FieldLine::new();
    let bounds = field.bounds();
    let mut p = seed;
    for _ in 0..params.max_steps {
        let f = field.sample(p);
        let mag = f.length();
        if mag < params.min_magnitude || !bounds.contains(p) {
            break;
        }
        let t = f / mag * h.signum();
        line.push(p, t, mag);
        // `normalized` divides by the same length, so this is the first
        // RK4 stage at `p`.
        match f.normalized().and_then(|k1| rk4_step(field, p, k1, h)) {
            Some(next) => {
                if next.distance(p) < 1e-3 * h.abs() {
                    break; // stagnation point
                }
                p = next;
            }
            None => break,
        }
    }
    line
}

/// Traces a field line through `seed`. With `bidirectional`, the backward
/// trace is reversed and joined with the forward trace so the result runs
/// tail → head along the field direction.
pub fn trace<F: VectorField3 + ?Sized>(field: &F, seed: Vec3, params: &TraceParams) -> FieldLine {
    assert!(params.step > 0.0, "step must be positive");
    let forward = trace_direction(field, seed, params.step, params);
    if !params.bidirectional {
        return forward;
    }
    let mut backward = trace_direction(field, seed, -params.step, params);
    backward.reverse();
    // `backward` now ends at the seed; `forward` starts there.
    backward.extend_with(&forward);
    backward
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_emsim::sample::FieldSampler;
    use accelviz_math::Aabb;

    /// A uniform +x field on the unit cube.
    fn uniform_x() -> FieldSampler {
        FieldSampler::from_vectors(
            [8, 8, 8],
            Aabb::new(Vec3::ZERO, Vec3::ONE),
            vec![Vec3::UNIT_X; 512],
        )
    }

    /// A circular field about the z axis on [-1,1]³: F = (−y, x, 0).
    fn circular() -> FieldSampler {
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let n = 24;
        let mut vectors = Vec::with_capacity(n * n * n);
        for k in 0..n {
            let _ = k;
            for j in 0..n {
                for i in 0..n {
                    let x = -1.0 + (i as f64 + 0.5) * 2.0 / n as f64;
                    let y = -1.0 + (j as f64 + 0.5) * 2.0 / n as f64;
                    vectors.push(Vec3::new(-y, x, 0.0));
                }
            }
        }
        FieldSampler::from_vectors([n, n, n], bounds, vectors)
    }

    #[test]
    fn uniform_field_gives_straight_line() {
        let f = uniform_x();
        let params = TraceParams {
            step: 0.05,
            max_steps: 100,
            ..Default::default()
        };
        let line = trace(&f, Vec3::splat(0.5), &params);
        assert!(line.len() > 10);
        // All points share y = z = 0.5.
        for p in &line.points {
            assert!((p.y - 0.5).abs() < 1e-9 && (p.z - 0.5).abs() < 1e-9);
        }
        // Bidirectional trace spans (nearly) the whole cube in x.
        let x0 = line.points.first().unwrap().x;
        let x1 = line.points.last().unwrap().x;
        assert!(x0 < 0.15 && x1 > 0.85, "span [{x0}, {x1}]");
        // Points advance monotonically along +x with unit tangents.
        for w in line.points.windows(2) {
            assert!(w[1].x > w[0].x);
        }
        for t in &line.tangents {
            assert!(t.distance(Vec3::UNIT_X) < 1e-9);
        }
    }

    #[test]
    fn forward_only_traces_downstream() {
        let f = uniform_x();
        let params = TraceParams {
            step: 0.05,
            max_steps: 100,
            bidirectional: false,
            ..Default::default()
        };
        let line = trace(&f, Vec3::splat(0.5), &params);
        assert!((line.points[0].x - 0.5).abs() < 1e-12, "starts at the seed");
        assert!(line.points.last().unwrap().x > 0.85);
    }

    #[test]
    fn circular_field_closes_on_itself() {
        let f = circular();
        let params = TraceParams {
            step: 0.01,
            max_steps: 2000,
            bidirectional: false,
            ..Default::default()
        };
        let seed = Vec3::new(0.5, 0.0, 0.0);
        let line = trace(&f, seed, &params);
        // RK4 on a circle: radius is conserved to high accuracy.
        for p in line.points.iter().step_by(50) {
            let r = (p.x * p.x + p.y * p.y).sqrt();
            assert!((r - 0.5).abs() < 0.01, "radius drifted to {r}");
        }
        // The trace should complete at least one full revolution
        // (circumference π at radius 0.5, 2000 × 0.01 = 20 units).
        assert!(line.arc_length() > 2.0 * std::f64::consts::PI * 0.5);
    }

    #[test]
    fn magnitudes_are_recorded() {
        let f = circular(); // |F| = r
        let params = TraceParams {
            step: 0.01,
            max_steps: 50,
            bidirectional: false,
            ..Default::default()
        };
        let line = trace(&f, Vec3::new(0.5, 0.0, 0.0), &params);
        for (p, &m) in line.points.iter().zip(&line.magnitudes) {
            let r = (p.x * p.x + p.y * p.y).sqrt();
            assert!((m - r).abs() < 0.05, "magnitude {m} vs radius {r}");
        }
    }

    #[test]
    fn zero_field_seed_yields_empty_line() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let f = FieldSampler::from_vectors([4, 4, 4], bounds, vec![Vec3::ZERO; 64]);
        let line = trace(&f, Vec3::splat(0.5), &TraceParams::default());
        assert!(line.is_empty());
    }

    #[test]
    fn trace_stops_at_domain_boundary() {
        let f = uniform_x();
        let params = TraceParams {
            step: 0.05,
            max_steps: 10_000,
            ..Default::default()
        };
        let line = trace(&f, Vec3::splat(0.5), &params);
        for p in &line.points {
            assert!(f.bounds().contains(*p));
        }
        assert!(line.len() < 100, "must terminate well before max_steps");
    }

    #[test]
    #[should_panic]
    fn nonpositive_step_panics() {
        let f = uniform_x();
        let params = TraceParams {
            step: 0.0,
            ..Default::default()
        };
        let _ = trace(&f, Vec3::splat(0.5), &params);
    }
}
