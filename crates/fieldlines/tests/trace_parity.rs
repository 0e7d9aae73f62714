//! Bit-identity oracle for the field-line tracer: the sampler that reads
//! each corner vector once and floors by truncation, and the RK4 step that
//! reuses the direction already sampled at its vertex (four samples a
//! vertex instead of five), must trace exactly the points, tangents and
//! magnitudes of the old tracer, and seed exactly its lines.

use accelviz_emsim::cavity::{CavityGeometry, CavitySpec};
use accelviz_emsim::fdtd::{FdtdSim, FdtdSpec};
use accelviz_emsim::sample::{FieldKind, FieldSampler, VectorField3};
use accelviz_fieldlines::integrate::{trace, TraceParams};
use accelviz_fieldlines::line::FieldLine;
use accelviz_fieldlines::seeding::{seed_lines, SeedingParams};
use accelviz_math::{Aabb, Vec3};
use proptest::prelude::*;

/// The reference: verbatim copies of the sampler (24 `component` reads,
/// `floor`), the five-sample `&dyn` tracer and the seeder that calls it.
mod reference {
    use accelviz_emsim::sample::{FieldSampler, VectorField3};
    use accelviz_fieldlines::integrate::TraceParams;
    use accelviz_fieldlines::line::FieldLine;
    use accelviz_fieldlines::seeding::{desired_counts, SeededLine, SeedingParams};
    use accelviz_math::{trilinear, Aabb, Vec3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// `FieldSampler` as it was (the vacuum mask never reached `sample`).
    pub struct Sampler {
        dims: [usize; 3],
        bounds: Aabb,
        vectors: Vec<Vec3>,
    }

    impl Sampler {
        /// The same field as `field`.
        pub fn of(field: &FieldSampler) -> Sampler {
            let [nx, ny, nz] = field.dims();
            let mut vectors = Vec::with_capacity(nx * ny * nz);
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        vectors.push(field.at_cell(i, j, k));
                    }
                }
            }
            Sampler {
                dims: field.dims(),
                bounds: field.bounds(),
                vectors,
            }
        }

        fn component(&self, c: usize, i: usize, j: usize, k: usize) -> f64 {
            let [nx, ny, nz] = self.dims;
            let v = self.vectors[i.min(nx - 1) + nx * (j.min(ny - 1) + ny * k.min(nz - 1))];
            v[c]
        }
    }

    impl VectorField3 for Sampler {
        fn bounds(&self) -> Aabb {
            self.bounds
        }

        fn sample(&self, p: Vec3) -> Vec3 {
            let t = self.bounds.normalized_coords(p);
            if !(0.0..=1.0).contains(&t.x)
                || !(0.0..=1.0).contains(&t.y)
                || !(0.0..=1.0).contains(&t.z)
            {
                return Vec3::ZERO;
            }
            let [nx, ny, nz] = self.dims;
            let fx = (t.x * nx as f64 - 0.5).clamp(0.0, (nx - 1) as f64);
            let fy = (t.y * ny as f64 - 0.5).clamp(0.0, (ny - 1) as f64);
            let fz = (t.z * nz as f64 - 0.5).clamp(0.0, (nz - 1) as f64);
            let (x0, y0, z0) = (
                fx.floor() as usize,
                fy.floor() as usize,
                fz.floor() as usize,
            );
            let (x1, y1, z1) = (
                (x0 + 1).min(nx - 1),
                (y0 + 1).min(ny - 1),
                (z0 + 1).min(nz - 1),
            );
            let (u, v, w) = (fx - x0 as f64, fy - y0 as f64, fz - z0 as f64);
            let mut out = Vec3::ZERO;
            for c in 0..3 {
                let corners = [
                    self.component(c, x0, y0, z0),
                    self.component(c, x1, y0, z0),
                    self.component(c, x0, y1, z0),
                    self.component(c, x1, y1, z0),
                    self.component(c, x0, y0, z1),
                    self.component(c, x1, y0, z1),
                    self.component(c, x0, y1, z1),
                    self.component(c, x1, y1, z1),
                ];
                out[c] = trilinear(&corners, u, v, w);
            }
            out
        }
    }

    fn rk4_step(field: &dyn VectorField3, p: Vec3, h: f64) -> Option<Vec3> {
        let dir = |q: Vec3| -> Option<Vec3> { field.sample(q).normalized() };
        let k1 = dir(p)?;
        let k2 = dir(p + k1 * (h / 2.0))?;
        let k3 = dir(p + k2 * (h / 2.0))?;
        let k4 = dir(p + k3 * h)?;
        Some(p + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0))
    }

    fn trace_direction(
        field: &dyn VectorField3,
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
            match rk4_step(field, p, h) {
                Some(next) => {
                    if next.distance(p) < 1e-3 * h.abs() {
                        break;
                    }
                    p = next;
                }
                None => break,
            }
        }
        line
    }

    pub fn trace(field: &dyn VectorField3, seed: Vec3, params: &TraceParams) -> FieldLine {
        assert!(params.step > 0.0, "step must be positive");
        let forward = trace_direction(field, seed, params.step, params);
        if !params.bidirectional {
            return forward;
        }
        let mut backward = trace_direction(field, seed, -params.step, params);
        backward.reverse();
        backward.extend_with(&forward);
        backward
    }

    struct Entry {
        desire: f64,
        cell: usize,
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.desire == other.desire && self.cell == other.cell
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.desire
                .total_cmp(&other.desire)
                .then(self.cell.cmp(&other.cell))
        }
    }

    /// `seed_lines` as it was, tracing through the reference.
    pub fn seed_lines(field: &FieldSampler, params: &SeedingParams) -> Vec<SeededLine> {
        let reference = Sampler::of(field);
        let [nx, ny, nz] = field.dims();
        let bounds = field.bounds();
        let size = bounds.size();
        let cell_size = Vec3::new(size.x / nx as f64, size.y / ny as f64, size.z / nz as f64);
        let mut desire = desired_counts(field, params);
        let mut heap: BinaryHeap<Entry> = desire
            .iter()
            .enumerate()
            .filter(|(_, &d)| d > 0.0)
            .map(|(cell, &d)| Entry { desire: d, cell })
            .collect();
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut out = Vec::with_capacity(params.n_lines);

        let cell_of = |p: Vec3| -> Option<usize> {
            let t = bounds.normalized_coords(p);
            if !(0.0..=1.0).contains(&t.x)
                || !(0.0..=1.0).contains(&t.y)
                || !(0.0..=1.0).contains(&t.z)
            {
                return None;
            }
            let i = ((t.x * nx as f64) as usize).min(nx - 1);
            let j = ((t.y * ny as f64) as usize).min(ny - 1);
            let k = ((t.z * nz as f64) as usize).min(nz - 1);
            Some(i + nx * (j + ny * k))
        };

        while out.len() < params.n_lines {
            let cell = loop {
                match heap.pop() {
                    Some(e) => {
                        if (e.desire - desire[e.cell]).abs() < 1e-12 {
                            break Some(e.cell);
                        }
                        if desire[e.cell] > 0.0 {
                            heap.push(Entry {
                                desire: desire[e.cell],
                                cell: e.cell,
                            });
                        }
                    }
                    None => break None,
                }
            };
            let Some(cell) = cell else {
                break;
            };
            if desire[cell] <= 0.0 {
                break;
            }

            let (i, j, k) = (cell % nx, (cell / nx) % ny, cell / (nx * ny));
            let p = bounds.min
                + Vec3::new(
                    (i as f64 + rng.gen_range(0.0..1.0)) * cell_size.x,
                    (j as f64 + rng.gen_range(0.0..1.0)) * cell_size.y,
                    (k as f64 + rng.gen_range(0.0..1.0)) * cell_size.z,
                );
            let line = trace(&reference, p, &params.trace);

            let mut last_cell = usize::MAX;
            let mut visited_any = false;
            for q in &line.points {
                if let Some(c) = cell_of(*q) {
                    if c != last_cell {
                        desire[c] -= 1.0;
                        if desire[c] > 0.0 {
                            heap.push(Entry {
                                desire: desire[c],
                                cell: c,
                            });
                        }
                        last_cell = c;
                        visited_any = true;
                    }
                }
            }
            if !visited_any {
                desire[cell] = 0.0;
                continue;
            }
            out.push(SeededLine {
                order: out.len(),
                seed_element: cell,
                line,
            });
        }
        out
    }
}

/// Every point, tangent and magnitude must have the same bits.
fn same_line(got: &FieldLine, want: &FieldLine) -> Result<(), TestCaseError> {
    let bits = |v: &Vec3| [v.x, v.y, v.z].map(f64::to_bits);
    prop_assert_eq!(got.len(), want.len());
    for i in 0..got.len() {
        prop_assert!(
            bits(&got.points[i]) == bits(&want.points[i]),
            "point {}: {:?}, the reference {:?}",
            i,
            got.points[i],
            want.points[i]
        );
        prop_assert!(
            bits(&got.tangents[i]) == bits(&want.tangents[i]),
            "tangent {}",
            i
        );
        prop_assert!(
            got.magnitudes[i].to_bits() == want.magnitudes[i].to_bits(),
            "magnitude {}",
            i
        );
    }
    Ok(())
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

    /// Uniform in [lo, hi).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A seeded field: a smooth swirl plus noise, with boxes of cells set to
/// zero (pockets the tracer stops in).
fn field(rng: &mut Rng, dims: [usize; 3], bounds: Aabb) -> FieldSampler {
    let n = dims.iter().product();
    let swirl = Vec3::new(
        rng.range(-1.0, 1.0),
        rng.range(-1.0, 1.0),
        rng.range(-1.0, 1.0),
    );
    let mut vectors = Vec::with_capacity(n);
    for k in 0..dims[2] {
        for j in 0..dims[1] {
            for i in 0..dims[0] {
                let q = Vec3::new(i as f64, j as f64, k as f64);
                let noise = Vec3::new(
                    rng.range(-0.3, 0.3),
                    rng.range(-0.3, 0.3),
                    rng.range(-0.3, 0.3),
                );
                vectors.push(swirl.cross(q - Vec3::splat(2.0)) * 0.3 + swirl + noise);
            }
        }
    }
    for _ in 0..rng.below(3) {
        let lo = dims.map(|d| rng.below(d));
        let hi = [0, 1, 2].map(|a| (lo[a] + 1 + rng.below(3)).min(dims[a]));
        for k in lo[2]..hi[2] {
            for j in lo[1]..hi[1] {
                for i in lo[0]..hi[0] {
                    vectors[i + dims[0] * (j + dims[1] * k)] = Vec3::ZERO;
                }
            }
        }
    }
    FieldSampler::from_vectors(dims, bounds, vectors)
}

/// A seed inside the bounds, on a face, on an edge, at a corner, or
/// outside.
fn seed(rng: &mut Rng, kind: u8, b: &Aabb) -> Vec3 {
    let mut p = [0, 1, 2].map(|a| rng.range(b.min[a], b.max[a]));
    let face = |rng: &mut Rng, a: usize| {
        if rng.below(2) == 0 {
            b.min[a]
        } else {
            b.max[a]
        }
    };
    match kind {
        0 | 1 => {}
        2 => p[0] = face(rng, 0),
        3 => {
            p[1] = face(rng, 1);
            p[2] = face(rng, 2);
        }
        4 => p = [0, 1, 2].map(|a| face(rng, a)),
        _ => {
            let a = rng.below(3);
            p[a] = b.max[a] + b.size()[a] * rng.range(0.01, 0.5);
        }
    }
    Vec3::from_array(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn traces_are_bit_identical_to_the_five_sample_tracer(
        (field_seed, nx, ny, nz) in (0u64..1 << 40, 1usize..10, 1usize..10, 1usize..10),
        (origin, size) in ((-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64), (0.5..3.0f64, 0.5..3.0f64, 0.5..3.0f64)),
        (seed_kind, step, max_steps, floor_kind) in (0u8..6, 0.001..0.05f64, 1usize..300, 0u8..4),
    ) {
        let mut rng = Rng(field_seed);
        let min = Vec3::new(origin.0, origin.1, origin.2);
        let bounds = Aabb::new(min, min + Vec3::new(size.0, size.1, size.2));
        let field = field(&mut rng, [nx, ny, nz], bounds);
        let reference = reference::Sampler::of(&field);
        let p = seed(&mut rng, seed_kind, &bounds);
        for bidirectional in [false, true] {
            let params = TraceParams {
                step: step * size.0,
                max_steps,
                min_magnitude: [0.0, 1e-9, 0.3, 1.0][floor_kind as usize],
                bidirectional,
            };
            let got = trace(&field, p, &params);
            let via_dyn = trace(&field as &dyn VectorField3, p, &params);
            let want = reference::trace(&reference, p, &params);
            same_line(&got, &want)?;
            same_line(&via_dyn, &want)?;
        }
    }
}

#[test]
fn seeding_a_captured_cavity_field_is_bit_identical() {
    let geometry = CavityGeometry::new(CavitySpec::three_cell());
    let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, 10));
    sim.run(150);
    let field = FieldSampler::capture(&sim, FieldKind::Electric);
    let params = SeedingParams {
        n_lines: 60,
        trace: TraceParams {
            step: 0.04,
            max_steps: 250,
            min_magnitude: 1e-6 * field.max_magnitude(),
            bidirectional: true,
        },
        seed: 11,
        min_magnitude_frac: 1e-3,
    };
    let got = seed_lines(&field, &params);
    let want = reference::seed_lines(&field, &params);
    assert_eq!(got.len(), want.len());
    assert!(got.len() > 10, "the cavity must seed lines");
    for (a, b) in got.iter().zip(&want) {
        assert_eq!((a.order, a.seed_element), (b.order, b.seed_element));
        same_line(&a.line, &b.line).unwrap();
    }
}
