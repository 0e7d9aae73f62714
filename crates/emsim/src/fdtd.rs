//! Yee/FIT time-domain Maxwell solver with staircase PEC boundaries, port
//! excitation, and sponge absorption.
//!
//! Normalized units: c = 1, vacuum impedance 1, so the update equations
//! are `H ← H − dt·∇×E`, `E ← E + dt·∇×H`. On a rectilinear grid the
//! finite-integration formulation the paper's solver (Tau3P) uses reduces
//! exactly to this Yee scheme.

use crate::cavity::CavityGeometry;
use accelviz_math::Vec3;
use rayon::prelude::*;

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct FdtdSpec {
    /// The cavity geometry (PEC everywhere `inside` is false).
    pub geometry: CavityGeometry,
    /// Grid resolution (cells per axis).
    pub dims: [usize; 3],
    /// Courant safety factor in (0, 1].
    pub cfl: f64,
    /// Drive angular frequency (normalized units).
    pub drive_frequency: f64,
    /// Drive amplitude.
    pub drive_amplitude: f64,
    /// Sponge absorption strength per step at the port mouths (0 = none).
    pub sponge_strength: f64,
}

impl FdtdSpec {
    /// A ready-to-run configuration for a geometry: resolution `res` cells
    /// across the cavity diameter, driven near the fundamental mode.
    pub fn for_geometry(geometry: CavityGeometry, res: usize) -> FdtdSpec {
        let size = geometry.bounds.size();
        let dx = 2.0 * geometry.spec.cavity_radius / res as f64;
        let dims = [
            (size.x / dx).ceil() as usize,
            (size.y / dx).ceil() as usize,
            (size.z / dx).ceil() as usize,
        ];
        // TM010 frequency of a pillbox of radius R: ω = 2.405 c / R.
        let omega = 2.405 / geometry.spec.cavity_radius;
        FdtdSpec {
            geometry,
            dims,
            cfl: 0.9,
            drive_frequency: omega,
            drive_amplitude: 1.0,
            sponge_strength: 0.05,
        }
    }
}

/// The running solver state.
pub struct FdtdSim {
    spec: FdtdSpec,
    nx: usize,
    ny: usize,
    nz: usize,
    dx: f64,
    dy: f64,
    dz: f64,
    dt: f64,
    /// Field arrays on the Yee grid, each sized (nx+1)(ny+1)(nz+1).
    ex: Vec<f64>,
    ey: Vec<f64>,
    ez: Vec<f64>,
    hx: Vec<f64>,
    hy: Vec<f64>,
    hz: Vec<f64>,
    /// Per-cell vacuum flag (nx·ny·nz).
    cell_inside: Vec<bool>,
    /// Edge-activity masks for E components (same layout as fields).
    ex_mask: Vec<bool>,
    ey_mask: Vec<bool>,
    ez_mask: Vec<bool>,
    /// The port sponges: each absorbing node with its damping factor
    /// (< 1) per step, in node order.
    damped: Vec<(usize, f64)>,
    /// Node indices receiving the drive current (Ez component).
    drive_nodes: Vec<usize>,
    time: f64,
    steps: u64,
}

impl FdtdSim {
    /// Builds the solver: rasterizes the geometry, derives masks, the
    /// Courant step, the sponge profile, and the drive region.
    pub fn new(spec: FdtdSpec) -> FdtdSim {
        let [nx, ny, nz] = spec.dims;
        assert!(
            nx >= 4 && ny >= 4 && nz >= 4,
            "grid too small: {:?}",
            spec.dims
        );
        let b = spec.geometry.bounds;
        let size = b.size();
        let (dx, dy, dz) = (size.x / nx as f64, size.y / ny as f64, size.z / nz as f64);
        // Normalized Courant condition (c = 1).
        let dt = spec.cfl / (1.0 / (dx * dx) + 1.0 / (dy * dy) + 1.0 / (dz * dz)).sqrt();

        let n_nodes = (nx + 1) * (ny + 1) * (nz + 1);
        let cidx = |i: usize, j: usize, k: usize| i + nx * (j + ny * k);
        let mut cell_inside = vec![false; nx * ny * nz];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = b.min
                        + Vec3::new(
                            (i as f64 + 0.5) * dx,
                            (j as f64 + 0.5) * dy,
                            (k as f64 + 0.5) * dz,
                        );
                    cell_inside[cidx(i, j, k)] = spec.geometry.inside(c);
                }
            }
        }

        // E-edge masks: an edge is active only when all four adjacent
        // cells exist and are vacuum (staircase PEC).
        let nidx = |i: usize, j: usize, k: usize| i + (nx + 1) * (j + (ny + 1) * k);
        let cell_ok = |i: isize, j: isize, k: isize| -> bool {
            if i < 0 || j < 0 || k < 0 || i >= nx as isize || j >= ny as isize || k >= nz as isize {
                return false;
            }
            cell_inside[cidx(i as usize, j as usize, k as usize)]
        };
        let mut ex_mask = vec![false; n_nodes];
        let mut ey_mask = vec![false; n_nodes];
        let mut ez_mask = vec![false; n_nodes];
        for k in 0..=nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    let ni = nidx(i, j, k);
                    let (ii, jj, kk) = (i as isize, j as isize, k as isize);
                    if i < nx {
                        ex_mask[ni] = cell_ok(ii, jj - 1, kk - 1)
                            && cell_ok(ii, jj, kk - 1)
                            && cell_ok(ii, jj - 1, kk)
                            && cell_ok(ii, jj, kk);
                    }
                    if j < ny {
                        ey_mask[ni] = cell_ok(ii - 1, jj, kk - 1)
                            && cell_ok(ii, jj, kk - 1)
                            && cell_ok(ii - 1, jj, kk)
                            && cell_ok(ii, jj, kk);
                    }
                    if k < nz {
                        ez_mask[ni] = cell_ok(ii - 1, jj - 1, kk)
                            && cell_ok(ii, jj - 1, kk)
                            && cell_ok(ii - 1, jj, kk)
                            && cell_ok(ii, jj, kk);
                    }
                }
            }
        }

        // Sponge: absorb in the outer 35% of the port channels (top/bottom
        // of the domain in y), emulating matched waveguide terminations.
        let mut damped = Vec::new();
        if spec.geometry.spec.with_ports && spec.sponge_strength > 0.0 {
            let y_top = b.max.y;
            let y_bot = b.min.y;
            let depth = 0.35 * spec.geometry.spec.cavity_radius;
            for k in 0..=nz {
                for j in 0..=ny {
                    let y = b.min.y + j as f64 * dy;
                    let d_top = (y - (y_top - depth)).max(0.0) / depth;
                    let d_bot = ((y_bot + depth) - y).max(0.0) / depth;
                    let d = d_top.max(d_bot).min(1.0);
                    let f = (-spec.sponge_strength * d * d).exp();
                    if f < 1.0 {
                        damped.extend((0..=nx).map(|i| (nidx(i, j, k), f)));
                    }
                }
            }
        }

        // Drive: Ez current sheet across the input ports, just above/below
        // the cavity wall.
        let mut drive_nodes = Vec::new();
        if spec.geometry.spec.with_ports {
            let r = spec.geometry.spec.cavity_radius;
            for &(port, y_drive) in &[
                (&spec.geometry.input_port, r + 0.2 * r),
                (&spec.geometry.input_port_lower, -r - 0.2 * r),
            ] {
                let j = ((y_drive - b.min.y) / dy).round() as usize;
                for k in 0..nz {
                    for i in 0..=nx {
                        let x = b.min.x + i as f64 * dx;
                        let z = b.min.z + (k as f64 + 0.5) * dz;
                        let p = Vec3::new(x, y_drive, z);
                        if port.contains(p) {
                            let ni = nidx(i, j.min(ny), k);
                            if ez_mask[ni] {
                                drive_nodes.push(ni);
                            }
                        }
                    }
                }
            }
        }

        FdtdSim {
            spec,
            nx,
            ny,
            nz,
            dx,
            dy,
            dz,
            dt,
            ex: vec![0.0; n_nodes],
            ey: vec![0.0; n_nodes],
            ez: vec![0.0; n_nodes],
            hx: vec![0.0; n_nodes],
            hy: vec![0.0; n_nodes],
            hz: vec![0.0; n_nodes],
            cell_inside,
            ex_mask,
            ey_mask,
            ez_mask,
            damped,
            drive_nodes,
            time: 0.0,
            steps: 0,
        }
    }

    /// The time step (normalized units).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Elapsed simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Grid dimensions in cells.
    pub fn dims(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Cell edge lengths.
    pub fn spacing(&self) -> (f64, f64, f64) {
        (self.dx, self.dy, self.dz)
    }

    /// The configuration.
    pub fn spec(&self) -> &FdtdSpec {
        &self.spec
    }

    /// Number of vacuum cells (the "mesh elements" of the unstructured
    /// view).
    pub fn vacuum_cell_count(&self) -> usize {
        self.cell_inside.iter().filter(|&&c| c).count()
    }

    /// Per-cell vacuum flags (x-fastest layout).
    pub fn cell_inside(&self) -> &[bool] {
        &self.cell_inside
    }

    #[inline]
    fn nidx(&self, i: usize, j: usize, k: usize) -> usize {
        i + (self.nx + 1) * (j + (self.ny + 1) * k)
    }

    /// Seeds an initial Ez bump (Gaussian ball of radius `r` at `center`)
    /// for ring-down tests without port drive.
    pub fn seed_ez_bump(&mut self, center: Vec3, r: f64, amplitude: f64) {
        let b = self.spec.geometry.bounds;
        for k in 0..self.nz {
            for j in 0..=self.ny {
                for i in 0..=self.nx {
                    let p = b.min
                        + Vec3::new(
                            i as f64 * self.dx,
                            j as f64 * self.dy,
                            (k as f64 + 0.5) * self.dz,
                        );
                    let d2 = p.distance(center).powi(2) / (r * r);
                    if d2 < 9.0 {
                        let ni = self.nidx(i, j, k);
                        if self.ez_mask[ni] {
                            self.ez[ni] += amplitude * (-d2).exp();
                        }
                    }
                }
            }
        }
    }

    /// Advances one time step: H half-update from ∇×E, E update from ∇×H
    /// with PEC masks, sponge damping, and the port drive.
    pub fn step(&mut self) {
        self.update_curls();
        for &(n, s) in &self.damped {
            self.ex[n] *= s;
            self.ey[n] *= s;
            self.ez[n] *= s;
            self.hx[n] *= s;
            self.hy[n] *= s;
            self.hz[n] *= s;
        }
        self.drive_and_advance();
    }

    /// The leapfrog of a step: H from ∇×E, then E from ∇×H with the PEC
    /// masks.
    fn update_curls(&mut self) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let stride_j = nx + 1;
        let stride_k = (nx + 1) * (ny + 1);
        let (dx, dy, dz, dt) = (self.dx, self.dy, self.dz, self.dt);

        // --- H update: H ← H − dt ∇×E ---
        {
            let (ex, ey, ez) = (&self.ex, &self.ey, &self.ez);
            let hx = &mut self.hx;
            let hy = &mut self.hy;
            let hz = &mut self.hz;
            let plane = stride_k;
            hx.par_chunks_mut(plane)
                .zip(hy.par_chunks_mut(plane))
                .zip(hz.par_chunks_mut(plane))
                .enumerate()
                .for_each(|(k, ((hxp, hyp), hzp))| {
                    if k > nz {
                        return;
                    }
                    for j in 0..=ny {
                        for i in 0..=nx {
                            let n = i + stride_j * j;
                            let g = n + k * stride_k;
                            // Hx at (i, j+½, k+½): needs j<ny, k<nz.
                            if j < ny && k < nz {
                                let curl = (ez[g + stride_j] - ez[g]) / dy
                                    - (ey[g + stride_k] - ey[g]) / dz;
                                hxp[n] -= dt * curl;
                            }
                            // Hy at (i+½, j, k+½): needs i<nx, k<nz.
                            if i < nx && k < nz {
                                let curl =
                                    (ex[g + stride_k] - ex[g]) / dz - (ez[g + 1] - ez[g]) / dx;
                                hyp[n] -= dt * curl;
                            }
                            // Hz at (i+½, j+½, k): needs i<nx, j<ny.
                            if i < nx && j < ny {
                                let curl =
                                    (ey[g + 1] - ey[g]) / dx - (ex[g + stride_j] - ex[g]) / dy;
                                hzp[n] -= dt * curl;
                            }
                        }
                    }
                });
        }

        // --- E update: E ← E + dt ∇×H, masked ---
        {
            let (hx, hy, hz) = (&self.hx, &self.hy, &self.hz);
            let (ex_mask, ey_mask, ez_mask) = (&self.ex_mask, &self.ey_mask, &self.ez_mask);
            let ex = &mut self.ex;
            let ey = &mut self.ey;
            let ez = &mut self.ez;
            let plane = stride_k;
            ex.par_chunks_mut(plane)
                .zip(ey.par_chunks_mut(plane))
                .zip(ez.par_chunks_mut(plane))
                .enumerate()
                .for_each(|(k, ((exp, eyp), ezp))| {
                    if k > nz {
                        return;
                    }
                    for j in 0..=ny {
                        for i in 0..=nx {
                            let n = i + stride_j * j;
                            let g = n + k * stride_k;
                            // Ex at (i+½, j, k): interior j, k only.
                            if i < nx && j >= 1 && k >= 1 && j <= ny && k <= nz {
                                if ex_mask[g] {
                                    let curl = (hz[g] - hz[g - stride_j]) / dy
                                        - (hy[g] - hy[g - stride_k]) / dz;
                                    exp[n] += dt * curl;
                                } else {
                                    exp[n] = 0.0;
                                }
                            }
                            // Ey at (i, j+½, k).
                            if j < ny && i >= 1 && k >= 1 && i <= nx && k <= nz {
                                if ey_mask[g] {
                                    let curl =
                                        (hx[g] - hx[g - stride_k]) / dz - (hz[g] - hz[g - 1]) / dx;
                                    eyp[n] += dt * curl;
                                } else {
                                    eyp[n] = 0.0;
                                }
                            }
                            // Ez at (i, j, k+½).
                            if k < nz && i >= 1 && j >= 1 && i <= nx && j <= ny {
                                if ez_mask[g] {
                                    let curl =
                                        (hy[g] - hy[g - 1]) / dx - (hx[g] - hx[g - stride_j]) / dy;
                                    ezp[n] += dt * curl;
                                } else {
                                    ezp[n] = 0.0;
                                }
                            }
                        }
                    }
                });
        }
    }

    /// The end of a step: the port drive (a soft source on Ez), then the
    /// clock.
    fn drive_and_advance(&mut self) {
        if !self.drive_nodes.is_empty() && self.spec.drive_amplitude != 0.0 {
            let omega = self.spec.drive_frequency;
            let t = self.time + self.dt;
            // Smooth turn-on over ~3 RF periods.
            let ramp_t = 3.0 * std::f64::consts::TAU / omega;
            let envelope = (1.0 - (-t / ramp_t).exp()).powi(2);
            let drive = self.spec.drive_amplitude * envelope * (omega * t).sin() * self.dt;
            for &n in &self.drive_nodes {
                self.ez[n] += drive;
            }
        }

        self.time += self.dt;
        self.steps += 1;
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Extracts the unstructured hexahedral-mesh view of the vacuum
    /// region — the element list Tau3P-style postprocessing (seeding,
    /// storage accounting) operates on. Element order matches the
    /// x-fastest cell order used by [`crate::io::serialize_fields`].
    pub fn extract_mesh(&self) -> crate::mesh::HexMesh {
        let geometry = &self.spec.geometry;
        crate::mesh::HexMesh::from_grid_mask(geometry.bounds, [self.nx, self.ny, self.nz], |p| {
            geometry.inside(p)
        })
    }

    /// Maximum magnitude of the discrete divergence of H over all interior
    /// dual cells. The Yee update preserves div H = 0 exactly (the curl of
    /// E is discretely divergence-free), so this must stay at rounding
    /// level no matter how long the simulation runs — the solver's
    /// sharpest structural invariant.
    pub fn max_divergence_h(&self) -> f64 {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let sj = nx + 1;
        let sk = (nx + 1) * (ny + 1);
        let mut max_div: f64 = 0.0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let n = self.nidx(i, j, k);
                    // Hx faces at i and i+1, Hy at j and j+1, Hz at k, k+1.
                    let div = (self.hx[n + 1] - self.hx[n]) / self.dx
                        + (self.hy[n + sj] - self.hy[n]) / self.dy
                        + (self.hz[n + sk] - self.hz[n]) / self.dz;
                    max_div = max_div.max(div.abs());
                }
            }
        }
        max_div
    }

    /// Cell-centered E vector at cell (i, j, k) (averaging the staggered
    /// components).
    pub fn e_at_cell(&self, i: usize, j: usize, k: usize) -> Vec3 {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        let n = self.nidx(i, j, k);
        let sj = self.nx + 1;
        let sk = (self.nx + 1) * (self.ny + 1);
        Vec3::new(
            0.25 * (self.ex[n] + self.ex[n + sj] + self.ex[n + sk] + self.ex[n + sj + sk]),
            0.25 * (self.ey[n] + self.ey[n + 1] + self.ey[n + sk] + self.ey[n + 1 + sk]),
            0.25 * (self.ez[n] + self.ez[n + 1] + self.ez[n + sj] + self.ez[n + 1 + sj]),
        )
    }

    /// Cell-centered H (≡ B in normalized units) vector at cell (i, j, k).
    pub fn b_at_cell(&self, i: usize, j: usize, k: usize) -> Vec3 {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        let n = self.nidx(i, j, k);
        let sj = self.nx + 1;
        let sk = (self.nx + 1) * (self.ny + 1);
        Vec3::new(
            0.5 * (self.hx[n] + self.hx[n + 1]),
            0.5 * (self.hy[n] + self.hy[n + sj]),
            0.5 * (self.hz[n] + self.hz[n + sk]),
        )
    }

    /// World position of the center of cell (i, j, k).
    pub fn cell_center(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.spec.geometry.bounds.min
            + Vec3::new(
                (i as f64 + 0.5) * self.dx,
                (j as f64 + 0.5) * self.dy,
                (k as f64 + 0.5) * self.dz,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cavity::{CavityGeometry, CavitySpec};
    use crate::energy::{energy_in_z_range, total_energy};

    fn closed_cavity_sim(res: usize) -> FdtdSim {
        let spec = CavitySpec {
            with_ports: false,
            ..CavitySpec::three_cell()
        };
        let geometry = CavityGeometry::new(spec);
        let mut fspec = FdtdSpec::for_geometry(geometry, res);
        fspec.drive_amplitude = 0.0;
        fspec.sponge_strength = 0.0;
        FdtdSim::new(fspec)
    }

    #[test]
    fn fields_start_at_zero_with_zero_energy() {
        let sim = closed_cavity_sim(10);
        assert_eq!(total_energy(&sim), 0.0);
        assert!(sim.vacuum_cell_count() > 0);
    }

    #[test]
    fn closed_cavity_ringdown_conserves_energy() {
        let mut sim = closed_cavity_sim(12);
        sim.seed_ez_bump(Vec3::new(0.0, 0.0, 0.4), 0.3, 1.0);
        // The collocated energy measure oscillates (E and H live on
        // staggered half-steps), so compare window averages: no secular
        // drift is allowed over ~1000 further steps.
        let window_mean = |sim: &mut FdtdSim| -> f64 {
            let mut acc = 0.0;
            for _ in 0..10 {
                sim.run(10);
                acc += total_energy(sim);
            }
            acc / 10.0
        };
        sim.run(50);
        let e0 = window_mean(&mut sim);
        assert!(e0 > 0.0);
        sim.run(800);
        let e1 = window_mean(&mut sim);
        assert!((e1 / e0 - 1.0).abs() < 0.10, "energy drifted: {e0} → {e1}");
    }

    #[test]
    fn unstable_cfl_blows_up() {
        let spec = CavitySpec {
            with_ports: false,
            ..CavitySpec::three_cell()
        };
        let geometry = CavityGeometry::new(spec);
        let mut fspec = FdtdSpec::for_geometry(geometry, 10);
        fspec.cfl = 1.0;
        fspec.drive_amplitude = 0.0;
        fspec.sponge_strength = 0.0;
        // Manually break the Courant condition by scaling dt via cfl > 1:
        // the constructor clamps nothing, so emulate by taking legal dt
        // and stepping a sim whose cfl pushes past the 3-D limit.
        let mut sim = FdtdSim::new(FdtdSpec {
            cfl: 1.0,
            ..fspec.clone()
        });
        // cfl = 1.0 is exactly at the limit for isotropic cells and still
        // stable; emulate instability with a >1 factor through dt scaling.
        sim.dt *= 1.2;
        sim.seed_ez_bump(Vec3::new(0.0, 0.0, 0.4), 0.3, 1.0);
        sim.run(50);
        let e0 = total_energy(&sim);
        sim.run(300);
        let e1 = total_energy(&sim);
        assert!(
            e1 > 100.0 * e0,
            "super-Courant stepping must diverge: {e0} → {e1}"
        );
    }

    #[test]
    fn tangential_e_vanishes_on_metal() {
        let mut sim = closed_cavity_sim(12);
        sim.seed_ez_bump(Vec3::new(0.0, 0.0, 0.4), 0.4, 1.0);
        sim.run(200);
        // Sample E at cell centers in metal: must be identically zero.
        let [nx, ny, nz] = sim.dims();
        let mut metal_max: f64 = 0.0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    if !sim.cell_inside()[i + nx * (j + ny * k)] {
                        // Fully-metal cells: all surrounding masked edges
                        // are zero, so the averaged vector is zero.
                        let neighbors_metal = |di: isize, dj: isize, dk: isize| -> bool {
                            let (a, b_, c) = (i as isize + di, j as isize + dj, k as isize + dk);
                            if a < 0
                                || b_ < 0
                                || c < 0
                                || a >= nx as isize
                                || b_ >= ny as isize
                                || c >= nz as isize
                            {
                                return true;
                            }
                            !sim.cell_inside()[a as usize + nx * (b_ as usize + ny * c as usize)]
                        };
                        let deep_metal = (-1..=1).all(|di| {
                            (-1..=1).all(|dj| (-1..=1).all(|dk| neighbors_metal(di, dj, dk)))
                        });
                        if deep_metal {
                            metal_max = metal_max.max(sim.e_at_cell(i, j, k).length());
                        }
                    }
                }
            }
        }
        assert!(metal_max < 1e-12, "E leaked into metal: {metal_max}");
    }

    #[test]
    fn driven_structure_gains_energy_and_waves_reach_the_far_cell() {
        let geometry = CavityGeometry::new(CavitySpec::three_cell());
        let spec = FdtdSpec::for_geometry(geometry, 12);
        let mut sim = FdtdSim::new(spec);
        let len = sim.spec().geometry.spec.total_length();
        // Energy in the last cell starts at zero.
        let far0 = energy_in_z_range(&sim, 2.0 * len / 3.0, len);
        assert_eq!(far0, 0.0);
        // Run several hundred steps: the drive pumps the structure and the
        // wave propagates through the irises into the far cell.
        sim.run(600);
        let far1 = energy_in_z_range(&sim, 2.0 * len / 3.0, len);
        let total = total_energy(&sim);
        assert!(total > 0.0);
        assert!(
            far1 > 1e-9 * total.max(1e-30),
            "wave must reach the far cell: {far1} of {total}"
        );
    }

    #[test]
    fn port_sponges_absorb_energy_that_closed_walls_keep() {
        // Matched-termination behavior: the same initial bump decays in
        // the open (ported + sponged) structure and persists in the
        // closed one.
        let make = |with_ports: bool, sponge: f64| -> FdtdSim {
            let spec = CavitySpec {
                with_ports,
                ..CavitySpec::three_cell()
            };
            let geometry = CavityGeometry::new(spec);
            let mut fspec = FdtdSpec::for_geometry(geometry, 12);
            fspec.drive_amplitude = 0.0;
            fspec.sponge_strength = sponge;
            FdtdSim::new(fspec)
        };
        let mut open = make(true, 0.2);
        let mut closed = make(false, 0.0);
        for sim in [&mut open, &mut closed] {
            sim.seed_ez_bump(Vec3::new(0.0, 0.0, 0.4), 0.4, 1.0);
        }
        let e_open_0 = total_energy(&open);
        let e_closed_0 = total_energy(&closed);
        open.run(4000);
        closed.run(4000);
        let open_kept = total_energy(&open) / e_open_0;
        let closed_kept = total_energy(&closed) / e_closed_0;
        // The ports are narrow, so the cavity Q is high — but the leak
        // must be clearly visible against the closed structure's
        // conservation.
        assert!(
            open_kept < 0.8 * closed_kept,
            "ported structure must leak energy: kept {open_kept:.3} vs closed {closed_kept:.3}"
        );
        assert!(
            closed_kept > 0.85,
            "closed structure must conserve: {closed_kept:.3}"
        );
    }

    /// The reference sponge: a damping factor for every node (1 = none),
    /// built as the solver once built it.
    fn dense_sponge(sim: &FdtdSim) -> Vec<f64> {
        let spec = &sim.spec;
        let b = spec.geometry.bounds;
        let (nx, ny, nz, dy) = (sim.nx, sim.ny, sim.nz, sim.dy);
        let mut sponge = vec![1.0; (nx + 1) * (ny + 1) * (nz + 1)];
        if spec.geometry.spec.with_ports && spec.sponge_strength > 0.0 {
            let y_top = b.max.y;
            let y_bot = b.min.y;
            let depth = 0.35 * spec.geometry.spec.cavity_radius;
            for k in 0..=nz {
                for j in 0..=ny {
                    let y = b.min.y + j as f64 * dy;
                    let d_top = (y - (y_top - depth)).max(0.0) / depth;
                    let d_bot = ((y_bot + depth) - y).max(0.0) / depth;
                    let d = d_top.max(d_bot).min(1.0);
                    if d > 0.0 {
                        let f = (-spec.sponge_strength * d * d).exp();
                        for i in 0..=nx {
                            sponge[sim.nidx(i, j, k)] = f;
                        }
                    }
                }
            }
        }
        sponge
    }

    /// The reference step: the sponge applied by six parallel passes over
    /// whole fields.
    fn six_pass_step(sim: &mut FdtdSim, sponge: &[f64]) {
        sim.update_curls();
        if sim.spec.sponge_strength > 0.0 {
            for field in [
                &mut sim.ex,
                &mut sim.ey,
                &mut sim.ez,
                &mut sim.hx,
                &mut sim.hy,
                &mut sim.hz,
            ] {
                field
                    .par_iter_mut()
                    .zip(sponge.par_iter())
                    .for_each(|(f, &s)| {
                        if s < 1.0 {
                            *f *= s;
                        }
                    });
            }
        }
        sim.drive_and_advance();
    }

    #[test]
    fn damped_node_list_is_bit_identical_to_the_six_pass_sponge() {
        let geometry = CavityGeometry::new(CavitySpec::three_cell());
        let spec = FdtdSpec::for_geometry(geometry, 10);
        let mut sim = FdtdSim::new(spec.clone());
        let mut reference = FdtdSim::new(spec);
        let sponge = dense_sponge(&reference);
        let absorbing = sponge.iter().filter(|&&s| s < 1.0).count();
        assert_eq!(sim.damped.len(), absorbing);
        assert!(absorbing > 0);
        for _ in 0..200 {
            sim.step();
            six_pass_step(&mut reference, &sponge);
        }
        let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (got, want) in [
            (&sim.ex, &reference.ex),
            (&sim.ey, &reference.ey),
            (&sim.ez, &reference.ez),
            (&sim.hx, &reference.hx),
            (&sim.hy, &reference.hy),
            (&sim.hz, &reference.hz),
        ] {
            assert!(
                bits(got) == bits(want),
                "a field differs from the reference"
            );
        }
        assert_eq!(sim.time().to_bits(), reference.time().to_bits());
        // The comparison saw the sponge at work: the wave reached it.
        assert!(sim.damped.iter().any(|&(n, _)| sim.ez[n] != 0.0));
    }

    #[test]
    fn dt_respects_courant() {
        let sim = closed_cavity_sim(10);
        let (dx, dy, dz) = sim.spacing();
        let limit = 1.0 / (1.0 / (dx * dx) + 1.0 / (dy * dy) + 1.0 / (dz * dz)).sqrt();
        assert!(sim.dt() <= limit + 1e-15);
        assert!(sim.dt() > 0.5 * limit);
    }

    #[test]
    fn divergence_of_h_stays_at_rounding_level_without_absorption() {
        // The Yee scheme's structural invariant: ∇·H = 0 exactly for the
        // lossless update (the drive only touches Ez, and the curl of E is
        // discretely divergence-free). The sponge is an absorbing medium
        // whose spatially varying damping deliberately gives this up, so
        // the check applies to the sponge-free configuration.
        let mut sim = closed_cavity_sim(10);
        assert_eq!(sim.max_divergence_h(), 0.0);
        sim.seed_ez_bump(Vec3::new(0.0, 0.0, 0.4), 0.4, 1.0);
        sim.run(500);
        let field_scale = {
            let b = crate::sample::FieldSampler::capture(&sim, crate::sample::FieldKind::Magnetic);
            b.max_magnitude().max(1e-300)
        };
        let div = sim.max_divergence_h();
        assert!(
            div < 1e-10 * field_scale / sim.spacing().0,
            "div H must vanish: {div} vs field scale {field_scale}"
        );
    }

    #[test]
    fn sponge_is_the_only_divergence_source() {
        // With ports + sponge, div H is nonzero only in the absorbing
        // layers; the cavity interior stays divergence-free.
        let geometry = CavityGeometry::new(CavitySpec::three_cell());
        let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, 10));
        sim.run(400);
        // Recompute the divergence only over cells well inside the cavity
        // (|y| below the sponge onset).
        let [nx, ny, nz] = sim.dims();
        let sj = nx + 1;
        let sk = (nx + 1) * (ny + 1);
        let (dx, dy, dz) = sim.spacing();
        let sponge_onset = sim.spec().geometry.bounds.max.y - 0.35;
        let mut interior_max: f64 = 0.0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = sim.cell_center(i, j, k);
                    if c.y.abs() > sponge_onset - 2.0 * dy {
                        continue;
                    }
                    let n = i + sj * j + sk * k;
                    let div = (sim.hx[n + 1] - sim.hx[n]) / dx
                        + (sim.hy[n + sj] - sim.hy[n]) / dy
                        + (sim.hz[n + sk] - sim.hz[n]) / dz;
                    interior_max = interior_max.max(div.abs());
                }
            }
        }
        let total_max = sim.max_divergence_h();
        assert!(
            interior_max < 1e-6 * total_max.max(1e-300),
            "interior div {interior_max} vs sponge div {total_max}"
        );
    }

    #[test]
    fn extracted_mesh_matches_vacuum_cells() {
        let sim = closed_cavity_sim(10);
        let mesh = sim.extract_mesh();
        assert_eq!(mesh.element_count(), sim.vacuum_cell_count());
        // Every element center must be vacuum per the geometry predicate.
        for e in (0..mesh.element_count()).step_by(97) {
            assert!(sim.spec().geometry.inside(mesh.element_center(e)));
        }
    }

    #[test]
    fn mesh_element_count_scales_with_resolution() {
        let a = closed_cavity_sim(8).vacuum_cell_count();
        let b = closed_cavity_sim(16).vacuum_cell_count();
        // Doubling resolution multiplies vacuum cells by ~8.
        let ratio = b as f64 / a as f64;
        assert!(ratio > 5.0 && ratio < 11.0, "ratio {ratio}");
    }
}
