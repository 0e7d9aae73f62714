//! One function per paper artifact. Each prints a section of
//! paper-vs-measured rows; `run_all` regenerates everything recorded in
//! `EXPERIMENTS.md`.

use crate::workloads;
use accelviz_beam::diagnostics::{four_fold_symmetry, BeamDiagnostics};
use accelviz_beam::io::snapshot_bytes;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::remote::TransferReport;
use accelviz_core::scene::{
    grid_view, render_hybrid_frame, render_line_set, LineRepresentation, RenderMode,
};
use accelviz_core::transfer::TransferFunctionPair;
use accelviz_core::viewer::FrameCache;
use accelviz_emsim::cavity::{CavityGeometry, CavitySpec};
use accelviz_emsim::courant::{cell_size_for_steps, courant_dt, steps_for_duration};
use accelviz_emsim::energy::{energy_in_z_range, poynting_flux_z, total_energy};
use accelviz_emsim::fdtd::{FdtdSim, FdtdSpec};
use accelviz_emsim::sample::{FieldKind, FieldSampler, VectorField3};
use accelviz_fieldlines::compact::{compact_bytes, saving_factor, serialize_lines};
use accelviz_fieldlines::illuminated::segment_count;
use accelviz_fieldlines::line::FieldLine;
use accelviz_fieldlines::seeding::density_correlation;
use accelviz_fieldlines::sos::{sos_strip, sos_triangle_count, SosParams};
use accelviz_fieldlines::style::LineStyle;
use accelviz_fieldlines::tube::tube_triangle_count;
use accelviz_math::stats::LinearFit;
use accelviz_math::{Rgba, Vec3};
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::extraction::{extract, threshold_for_budget};
use accelviz_octree::parallel::partition_parallel;
use accelviz_octree::plots::PlotType;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::points::PointStyle;
use accelviz_render::volume::{render_volume, VolumeStyle};
use std::time::Instant;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn header(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("paper: {claim}");
}

/// FIG1 — volume-only 256³ vs hybrid 64³+points: detail and frame cost.
pub fn fig1(n_particles: usize) {
    header(
        "FIG1",
        "mixed 64³+2M-point rendering shows more low-density detail than a \
         256³ volume rendering, at much higher frame rates",
    );
    let snap = workloads::halo_snapshot(n_particles, 40, 11);
    let data = workloads::partitioned(&snap, PlotType::X_PX_Y);

    // Brute-force: high-resolution volume, everything volume-rendered.
    let t0 = Instant::now();
    let hires = HybridFrame::from_partition(&data, 0, 0.0, [256, 256, 256]);
    let hires_prep_ms = ms(t0);

    // Hybrid: low-res volume + point budget covering the halo.
    let budget = n_particles / 25;
    let t0 = Instant::now();
    let hybrid = workloads::hybrid_frame(&data, 0, budget, [64, 64, 64]);
    let hybrid_prep_ms = ms(t0);

    let cam = workloads::frame_camera(&hybrid, 1.0);
    let tfs = TransferFunctionPair::linked_at(0.03, 0.01);
    let vs = VolumeStyle {
        steps: 192,
        ..Default::default()
    };
    let ps = PointStyle::default();

    let mut fb_vol = Framebuffer::new(512, 512);
    let t0 = Instant::now();
    let stats_vol = render_hybrid_frame(
        &mut fb_vol,
        &cam,
        &hires,
        &tfs,
        RenderMode::VolumeOnly,
        &vs,
        &ps,
    );
    let vol_ms = ms(t0);

    let mut fb_hyb = Framebuffer::new(512, 512);
    let vs_low = VolumeStyle {
        steps: 48,
        ..Default::default()
    };
    let t0 = Instant::now();
    let stats_hyb = render_hybrid_frame(
        &mut fb_hyb,
        &cam,
        &hybrid,
        &tfs,
        RenderMode::Hybrid,
        &vs_low,
        &ps,
    );
    let hyb_ms = ms(t0);

    // Detail metric: luminance variance (structure) over the whole image
    // and count of lit pixels outside the dense core.
    let var_vol = fb_vol.region_luminance_variance(0, 0, 512, 512);
    let var_hyb = fb_hyb.region_luminance_variance(0, 0, 512, 512);
    println!(
        "volume-only 256³ : prep {hires_prep_ms:.0} ms, render {vol_ms:.1} ms \
         ({} samples), lum-variance {var_vol:.5}, texture {} MB",
        stats_vol.volume_samples,
        hires.volume_bytes() / (1 << 20),
    );
    println!(
        "hybrid 64³+{}pts : prep {hybrid_prep_ms:.0} ms, render {hyb_ms:.1} ms \
         ({} samples, {} pts), lum-variance {var_hyb:.5}, size {:.1} MB",
        hybrid.points.len(),
        stats_hyb.volume_samples,
        stats_hyb.points_drawn,
        hybrid.total_bytes() as f64 / 1e6,
    );
    println!(
        "measured: hybrid renders {:.1}x faster; detail (variance) ratio {:.2}; \
         fill-cost ratio {:.1}x",
        vol_ms / hyb_ms.max(1e-9),
        var_hyb / var_vol.max(1e-12),
        stats_vol.volume_samples as f64 / stats_hyb.volume_samples.max(1) as f64,
    );
}

/// FIG2 — the four phase-space distributions of time step 180.
pub fn fig2(n_particles: usize) {
    header(
        "FIG2",
        "four 3-D distributions — (x,y,z), (x,px,y), (x,px,z), (px,py,pz) — \
         of one time step, each through the same pipeline",
    );
    let snap = workloads::halo_snapshot(n_particles, 40, 11);
    for plot in PlotType::FIGURE2 {
        let t0 = Instant::now();
        let data = workloads::partitioned(&snap, plot);
        let part_ms = ms(t0);
        let frame = workloads::hybrid_frame(&data, 0, n_particles / 20, [64, 64, 64]);
        let cam = workloads::frame_camera(&frame, 1.0);
        let tfs = TransferFunctionPair::linked_at(0.03, 0.01);
        let mut fb = Framebuffer::new(256, 256);
        let t0 = Instant::now();
        let stats = render_hybrid_frame(
            &mut fb,
            &cam,
            &frame,
            &tfs,
            RenderMode::Hybrid,
            &VolumeStyle {
                steps: 48,
                ..Default::default()
            },
            &PointStyle::default(),
        );
        println!(
            "{:10}: partition {part_ms:6.0} ms, render {:6.1} ms, {} pts drawn, \
             {} leaves, lit px {}",
            plot.name(),
            ms(t0),
            stats.points_drawn,
            data.tree().leaf_count(),
            fb.lit_pixel_count(0.01),
        );
    }
}

/// FIG3 — the dual transfer functions and their inverse linking.
pub fn fig3() {
    header(
        "FIG3",
        "volume TF (density → color/opacity) and point TF (density → \
         fraction of points drawn) are inverses; the user drags their \
         shared boundary",
    );
    let mut pair = TransferFunctionPair::linked_at(0.10, 0.04);
    println!("density   vol-weight  pt-fraction  sum");
    for i in 0..=8 {
        let d = i as f64 / 8.0 * 0.25;
        println!(
            "{d:7.3}   {:10.4}  {:11.4}  {:.4}",
            pair.volume.weight(d),
            pair.point.fraction(d),
            pair.coverage(d)
        );
    }
    pair.edit_volume_threshold(0.18);
    let max_dev = (0..=100)
        .map(|i| (pair.coverage(i as f64 / 100.0) - 1.0).abs())
        .fold(0.0, f64::max);
    println!("after dragging the boundary to 0.18: max |coverage − 1| = {max_dev:.2e}");
}

/// FIG4 — decomposition of a hybrid rendering of a sphere-like (x,y,z)
/// distribution into volume part, combined, and point part.
pub fn fig4(n_particles: usize) {
    header(
        "FIG4",
        "a hybrid rendering decomposes into the volume-rendered portion, \
         the combined image, and the point-rendered portion",
    );
    use accelviz_beam::distribution::{Distribution, DistributionKind};
    let dist = Distribution::new(
        DistributionKind::UniformSphere,
        Vec3::splat(1.0e-3),
        Vec3::ZERO,
    );
    let particles = dist.sample(n_particles, 21);
    let snap = accelviz_beam::simulation::Snapshot {
        step: 0,
        s: 0.0,
        particles,
    };
    let data = workloads::partitioned(&snap, PlotType::XYZ);
    let frame = workloads::hybrid_frame(&data, 0, n_particles / 10, [32, 32, 32]);
    let cam = workloads::frame_camera(&frame, 1.0);
    let tfs = TransferFunctionPair::linked_at(0.2, 0.05);
    let vs = VolumeStyle {
        steps: 64,
        ..Default::default()
    };
    let ps = PointStyle {
        color: Rgba::WHITE,
        ..Default::default()
    };
    for (label, mode) in [
        ("volume part ", RenderMode::VolumeOnly),
        ("combined    ", RenderMode::Hybrid),
        ("points part ", RenderMode::PointsOnly),
    ] {
        let mut fb = Framebuffer::new(256, 256);
        let stats = render_hybrid_frame(&mut fb, &cam, &frame, &tfs, mode, &vs, &ps);
        println!(
            "{label}: lit px {:6}, volume samples {:9}, points {:6}",
            fb.lit_pixel_count(0.005),
            stats.volume_samples,
            stats.points_drawn
        );
    }
}

/// FIG5 — the 350-step time series: four-fold symmetry, frame sizes, and
/// the viewer's cached/uncached stepping behavior.
pub fn fig5(n_particles: usize, recorded_steps: usize) {
    header(
        "FIG5",
        "350 recorded steps of the (x,y,z) distribution; four-fold FODO \
         symmetry; ~10 frames of ≤100 MB fit in memory; cached frames \
         display instantaneously, misses take ~10 s per 100 MB",
    );
    let t0 = Instant::now();
    let series = workloads::halo_series(n_particles, recorded_steps, 11);
    println!(
        "simulated {} recorded steps in {:.1} s",
        series.len(),
        t0.elapsed().as_secs_f64()
    );

    let params = accelviz_core::pipeline::PipelineParams {
        plot: PlotType::XYZ,
        build: BuildParams {
            max_depth: 5,
            leaf_capacity: 256,
            gradient_refinement: None,
        },
        point_budget: n_particles / 20,
        volume_dims: [32, 32, 32],
    };
    let t0 = Instant::now();
    let frames = accelviz_core::pipeline::process_run(&series, &params);
    println!(
        "partition+extract of {} frames: {:.1} s total",
        frames.len(),
        t0.elapsed().as_secs_f64()
    );

    let d0 = BeamDiagnostics::of(&series[0].particles);
    let r0 = (d0.rms_x * d0.rms_x + d0.rms_y * d0.rms_y).sqrt();
    for idx in [0, recorded_steps / 2, recorded_steps] {
        let d = BeamDiagnostics::of(&series[idx].particles);
        println!(
            "step {idx:4}: rms ({:.2}, {:.2}) mm, halo(4·r₀) {:.4}, 4-fold symmetry \
             {:.3}, hybrid size {:.2} MB",
            d.rms_x * 1e3,
            d.rms_y * 1e3,
            accelviz_beam::diagnostics::halo_fraction_beyond(&series[idx].particles, 4.0 * r0),
            four_fold_symmetry(&series[idx].particles),
            frames[idx].total_bytes() as f64 / 1e6
        );
    }

    // Viewer model at paper scale: pretend each frame is the paper's
    // ~100 MB (size model), keep our measured texture sizes.
    let sizes: Vec<(u64, u64)> = frames
        .iter()
        .map(|f| (100 << 20, f.volume_bytes()))
        .collect();
    let cache = FrameCache::paper_desktop(sizes);
    let first_pass: f64 = (0..frames.len().min(10))
        .map(|f| cache.step_to(f).seconds)
        .sum();
    let second_pass: f64 = (0..frames.len().min(10))
        .map(|f| cache.step_to(f).seconds)
        .sum();
    println!(
        "viewer: first pass over 10 frames {first_pass:.1} s (cold), second pass \
         {second_pass:.3} s (cached); resident {}",
        cache.resident_count()
    );
}

/// PREP — partitioning scales linearly; extraction reads only the prefix.
pub fn prep() {
    header(
        "PREP",
        "partitioning is I/O-bound and scales linearly (~7 min per 100 M \
         particles); extraction copies a contiguous prefix and never reads \
         discarded particles; multi-node build matches single-node",
    );
    let mut sizes = Vec::new();
    let mut times = Vec::new();
    for &n in &[20_000usize, 40_000, 80_000, 160_000, 320_000] {
        let snap = workloads::halo_snapshot(n, 5, 3);
        let t0 = Instant::now();
        let data = workloads::partitioned(&snap, PlotType::XYZ);
        let dt = t0.elapsed().as_secs_f64();
        sizes.push(n as f64);
        times.push(dt);
        let t1 = Instant::now();
        let ex = extract(&data, threshold_for_budget(&data, n / 10));
        let ex_us = t1.elapsed().as_secs_f64() * 1e6;
        println!(
            "N = {n:7}: partition {:8.1} ms ({:.1} Mpts/s), extract {:6.1} µs \
             (kept {:6}, discarded {} never touched)",
            dt * 1e3,
            n as f64 / dt / 1e6,
            ex_us,
            ex.particles.len(),
            ex.discarded
        );
    }
    if let Some(fit) = LinearFit::scaling_exponent(&sizes, &times) {
        println!(
            "measured scaling exponent {:.2} (paper claims linear, i.e. 1.0); R² = {:.3}",
            fit.slope, fit.r_squared
        );
    }
    // Parallel (multi-node model) build agreement.
    let snap = workloads::halo_snapshot(100_000, 5, 3);
    let params = BuildParams {
        max_depth: 6,
        leaf_capacity: 256,
        gradient_refinement: None,
    };
    let t0 = Instant::now();
    let serial = partition(&snap.particles, PlotType::XYZ, params);
    let t_serial = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let par = partition_parallel(&snap.particles, PlotType::XYZ, params);
    let t_par = t0.elapsed().as_secs_f64();
    println!(
        "multi-node build: {:.1} ms vs serial {:.1} ms ({:.2}x); particle counts agree: {}",
        t_par * 1e3,
        t_serial * 1e3,
        t_serial / t_par.max(1e-12),
        serial.particles().len() == par.particles().len()
    );
}

/// SIZE — the storage arithmetic of §2 and the remote-transfer picture.
pub fn size(n_particles: usize) {
    header(
        "SIZE",
        "100 M particles ⇒ 5 GB/step; 1 B ⇒ 48 GB; hybrid frames ≤100 MB \
         make remote transfer practical; ~10 s disk load per 100 MB",
    );
    println!(
        "raw snapshot arithmetic: 100 M → {:.2} GB, 1 B → {:.1} GB (48 B/particle)",
        snapshot_bytes(100_000_000) as f64 / 1e9,
        snapshot_bytes(1_000_000_000) as f64 / 1e9
    );
    let snap = workloads::halo_snapshot(n_particles, 20, 7);
    let bytes = accelviz_beam::io::snapshot_to_vec(0, &snap.particles).len();
    println!(
        "measured serialized {} particles: {} bytes ({} B/particle incl. header)",
        n_particles,
        bytes,
        bytes / n_particles
    );
    let data = workloads::partitioned(&snap, PlotType::XYZ);
    println!(
        "partitioned form: particle file {} B + node file {} B (adds {:.2}%)",
        data.particle_file_bytes(),
        data.node_file_bytes(),
        100.0 * data.node_file_bytes() as f64 / data.particle_file_bytes() as f64
    );
    for budget_frac in [2usize, 10, 50] {
        let frame = workloads::hybrid_frame(&data, 0, n_particles / budget_frac, [64, 64, 64]);
        println!(
            "hybrid (1/{budget_frac} points): {:8.3} MB, compression {:6.1}x",
            frame.total_bytes() as f64 / 1e6,
            frame.compression_factor()
        );
    }
    for report in [
        TransferReport::new("raw 5 GB step", 5_000_000_000),
        TransferReport::new("hybrid 100 MB", 100_000_000),
        TransferReport::new("hybrid 10 MB", 10_000_000),
    ] {
        println!(
            "transfer {:16}: WAN {:8.1} s, LAN {:7.2} s",
            report.label, report.wan_seconds, report.lan_seconds
        );
    }
}

/// FIG6 — representation comparison: triangle counts and render cost.
pub fn fig6(res: usize, n_lines: usize) {
    header(
        "FIG6",
        "self-orienting surfaces give streamtube-like images from ~5–6x \
         fewer triangles; enhancements: lighting, halos, cutaway, \
         transparency",
    );
    let field = workloads::three_cell_e_field(res, 600);
    let lines: Vec<FieldLine> = workloads::cavity_lines(&field, n_lines, 5)
        .into_iter()
        .map(|sl| sl.line)
        .collect();
    let total_points: usize = lines.iter().map(|l| l.len()).sum();
    println!("{} lines, {total_points} vertices traced", lines.len());

    let cam = workloads::cavity_camera(&field, 1.0);
    let style = LineStyle::electric(field.max_magnitude());
    let analytic_sos: usize = lines.iter().map(|l| sos_triangle_count(l.len())).sum();
    let analytic_tube: usize = lines.iter().map(|l| tube_triangle_count(l.len(), 12)).sum();
    let analytic_segs: usize = lines.iter().map(segment_count).sum();
    println!(
        "analytic geometry: lines {analytic_segs} segments; SOS {analytic_sos} tris; \
         streamtubes(12-gon) {analytic_tube} tris; ratio {:.1}x",
        analytic_tube as f64 / analytic_sos.max(1) as f64
    );

    for (label, rep) in [
        ("(a) flat lines     ", LineRepresentation::FlatLines),
        ("(b) illuminated    ", LineRepresentation::Illuminated),
        ("(c) streamtubes    ", LineRepresentation::Streamtubes),
        (
            "(d) self-orienting ",
            LineRepresentation::SelfOrientingSurfaces,
        ),
        ("(e) ribbons        ", LineRepresentation::Ribbons),
        ("(f) enhanced light ", LineRepresentation::EnhancedLighting),
        ("    haloed SOS     ", LineRepresentation::HaloedSos),
        ("(i) transparent SOS", LineRepresentation::TransparentSos),
    ] {
        let mut fb = Framebuffer::new(384, 384);
        let t0 = Instant::now();
        let stats = render_line_set(&mut fb, &cam, &lines, rep, &style, 0.012);
        println!(
            "{label}: {:6} tris, {:8} frags, {:7.1} ms, lit px {:6}",
            stats.triangles,
            stats.fragments,
            ms(t0),
            fb.lit_pixel_count(0.01)
        );
    }

    // (h) cutaway: drop lines whose mean x is in the front half.
    let cut: Vec<FieldLine> = lines
        .iter()
        .filter(|l| {
            let mean_x: f64 = l.points.iter().map(|p| p.x).sum::<f64>() / l.len().max(1) as f64;
            mean_x < 0.0
        })
        .cloned()
        .collect();
    let mut fb = Framebuffer::new(384, 384);
    let stats = render_line_set(
        &mut fb,
        &cam,
        &cut,
        LineRepresentation::SelfOrientingSurfaces,
        &style,
        0.012,
    );
    println!(
        "(h) cutaway (front half removed): {} of {} lines, {} tris",
        cut.len(),
        lines.len(),
        stats.triangles
    );
}

/// FIG7 — incremental loading: density ∝ magnitude at every prefix.
pub fn fig7(res: usize, n_lines: usize) {
    header(
        "FIG7",
        "incremental loading: strong-field regions fill first; every \
         prefix shows line density proportional to field magnitude; each \
         image's line set is a superset of the previous",
    );
    let field = workloads::three_cell_e_field(res, 600);
    let lines = workloads::cavity_lines(&field, n_lines, 5);
    println!("seeded {} lines", lines.len());
    for frac in [0.1, 0.25, 0.5, 1.0] {
        let prefix = ((lines.len() as f64 * frac) as usize).max(1);
        let r = density_correlation(&field, &lines, prefix);
        let mean_mag: f64 = lines[..prefix]
            .iter()
            .map(|sl| sl.line.mean_magnitude())
            .sum::<f64>()
            / prefix as f64;
        println!(
            "first {prefix:5} lines: density-magnitude correlation r = {r:.3}, \
             mean |E| of prefix {mean_mag:.3e}"
        );
    }
    // Strong regions load first: mean magnitude of the first decile beats
    // the last decile.
    let decile = (lines.len() / 10).max(1);
    let first: f64 = lines[..decile]
        .iter()
        .map(|l| l.line.mean_magnitude())
        .sum::<f64>()
        / decile as f64;
    let last: f64 = lines[lines.len() - decile..]
        .iter()
        .map(|l| l.line.mean_magnitude())
        .sum::<f64>()
        / decile as f64;
    println!(
        "mean |E|: first decile {first:.3e} vs last decile {last:.3e} \
         (ratio {:.1}x — sparse lines appear in strong regions first)",
        first / last.max(1e-300)
    );

    // The prior-art baseline the paper contrasts with (§3.2 refs
    // [2, 7, 14]): evenly-spaced placement aims at *visually uniform*
    // density, so its density-magnitude correlation should be near zero.
    use accelviz_fieldlines::seeding::SeededLine;
    use accelviz_fieldlines::uniform::{seed_lines_uniform, UniformSeedingParams};
    let uniform = seed_lines_uniform(
        &field,
        &UniformSeedingParams {
            n_lines,
            separation: 0.12,
            trace: accelviz_fieldlines::integrate::TraceParams {
                step: 0.04,
                max_steps: 250,
                min_magnitude: 1e-6 * field.max_magnitude().max(1e-300),
                bidirectional: true,
            },
            seed: 5,
            max_candidates: 50_000,
        },
    );
    let wrapped: Vec<SeededLine> = uniform
        .into_iter()
        .enumerate()
        .map(|(i, line)| SeededLine {
            order: i,
            seed_element: 0,
            line,
        })
        .collect();
    let r_uniform = density_correlation(&field, &wrapped, wrapped.len());
    println!(
        "baseline (evenly-spaced, {} lines): density-magnitude correlation r = \
         {r_uniform:.3} — uniform placement decouples density from |E|, which is \
         exactly what the paper's physicists do not want",
        wrapped.len()
    );
}

/// FIG8 — RF waves propagate in through the input ports and downstream.
pub fn fig8(res: usize) {
    header(
        "FIG8",
        "selected time steps show RF waves propagating in through the \
         input ports (first cell) and out through the output ports (last)",
    );
    let geometry = CavityGeometry::new(CavitySpec::three_cell());
    let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, res));
    let len = sim.spec().geometry.spec.total_length();
    let checkpoints = [200usize, 400, 800, 1600];
    let mut last = 0;
    for &cp in &checkpoints {
        sim.run(cp - last);
        last = cp;
        let e1 = energy_in_z_range(&sim, 0.0, len / 3.0);
        let e2 = energy_in_z_range(&sim, len / 3.0, 2.0 * len / 3.0);
        let e3 = energy_in_z_range(&sim, 2.0 * len / 3.0, len);
        let flux = poynting_flux_z(&sim, len / 2.0);
        println!(
            "step {cp:5} (t = {:6.2}): cell energies [{e1:.3e}, {e2:.3e}, {e3:.3e}], \
             mid-plane flux {flux:+.2e}",
            sim.time()
        );
    }
    let e = FieldSampler::capture(&sim, FieldKind::Electric);
    let lines = workloads::cavity_lines(&e, 150, 9);
    println!(
        "field lines at final step: {} traced, total energy {:.3e}",
        lines.len(),
        total_energy(&sim)
    );
}

/// FIG9 — the 12-cell structure: element counts, Courant arithmetic,
/// storage arithmetic, and port-induced field asymmetry.
pub fn fig9(compute_res: usize) {
    header(
        "FIG9",
        "12-cell structure with 1.6 M mesh elements; steady state at 40 ns \
         = 326,700 steps; 80 MB/step ⇒ 26 TB; asymmetric ports break the \
         E-field's radial symmetry",
    );
    // Metadata scale: pick the resolution whose vacuum-cell count matches
    // the paper's 1.6 M elements (~32% of grid cells are vacuum).
    let geometry = CavityGeometry::new(CavitySpec::twelve_cell());
    let spec = FdtdSpec::for_geometry(geometry.clone(), 79);
    let dims = spec.dims;
    let total_cells: usize = dims.iter().product();
    // Estimate vacuum fraction from a coarse rasterization.
    let coarse = FdtdSim::new(FdtdSpec::for_geometry(geometry.clone(), 12));
    let vac_frac =
        coarse.vacuum_cell_count() as f64 / coarse.dims().iter().product::<usize>() as f64;
    println!(
        "mesh scale: grid {:?} = {} cells x vacuum fraction {:.2} ≈ {:.2} M elements \
         (paper: 1.6 M)",
        dims,
        total_cells,
        vac_frac,
        total_cells as f64 * vac_frac / 1e6
    );

    // Courant arithmetic in physical units.
    let dx = cell_size_for_steps(40e-9, 326_700, 0.99);
    let dt = courant_dt(dx, dx, dx, 0.99);
    println!(
        "Courant: implied min edge {:.1} µm → dt {:.3e} s → {} steps for 40 ns \
         (paper: 326,700)",
        dx * 1e6,
        dt,
        steps_for_duration(40e-9, dt)
    );
    println!(
        "storage: {:.1} MB/step x 326,700 steps = {:.1} TB (paper: ~80 MB, 26 TB)",
        accelviz_emsim::io::snapshot_bytes(1_600_000) as f64 / 1e6,
        accelviz_emsim::io::run_bytes(1_600_000, 326_700) as f64 / 1e12
    );

    // Compute scale: measure E-field radial asymmetry induced by ports.
    let t0 = Instant::now();
    let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, compute_res));
    sim.run(1200);
    let e = FieldSampler::capture(&sim, FieldKind::Electric);
    // Probe |E| on a ring inside the first cell vs the same ring rotated
    // 90° about the beam axis.
    let mut num = 0.0;
    let mut den = 0.0;
    let spec3 = CavitySpec::twelve_cell();
    for i in 0..64 {
        let a = i as f64 / 64.0 * std::f64::consts::TAU;
        let r = 0.6 * spec3.cavity_radius;
        let p = Vec3::new(r * a.cos(), r * a.sin(), 0.5 * spec3.cell_length);
        let q = Vec3::new(-p.y, p.x, p.z);
        let mp = e.sample(p).length();
        let mq = e.sample(q).length();
        num += (mp - mq).abs();
        den += mp.max(mq);
    }
    let geom_asym = sim.spec().geometry.radial_asymmetry(24);
    println!(
        "asymmetry: geometry {geom_asym:.3}; |E| 90°-rotation mismatch {:.1}% \
         ({} steps, {:.1} s)",
        100.0 * num / den.max(1e-300),
        sim.steps(),
        t0.elapsed().as_secs_f64()
    );
}

/// COMPR — pre-integrated field lines vs raw field dumps: ~25× saving.
pub fn compr(res: usize, n_lines: usize) {
    header(
        "COMPR",
        "storing pre-integrated field lines instead of raw fields saves \
         about a factor of 25",
    );
    let field = workloads::three_cell_e_field(res, 600);
    let lines: Vec<FieldLine> = workloads::cavity_lines(&field, n_lines, 5)
        .into_iter()
        .map(|sl| sl.line)
        .collect();
    let mut buf = Vec::new();
    serialize_lines(&mut buf, &lines).unwrap();
    let [nx, ny, nz] = field.dims();
    let elements = (0..nz)
        .flat_map(|k| (0..ny).flat_map(move |j| (0..nx).map(move |i| (i, j, k))))
        .filter(|&(i, j, k)| field.cell_is_vacuum(i, j, k))
        .count() as u64;
    let raw = accelviz_emsim::io::snapshot_bytes(elements);
    println!(
        "our scale: {} lines = {} B vs raw E+B over {} elements = {} B → {:.1}x",
        lines.len(),
        buf.len(),
        elements,
        raw,
        raw as f64 / buf.len() as f64
    );
    // Paper scale: same line budget against a 1.6 M-element mesh.
    println!(
        "paper scale (1.6 M elements, same lines): saving factor {:.1}x \
         (paper: ~25x); compact set {:.2} MB",
        saving_factor(&lines, 1_600_000),
        compact_bytes(&lines) as f64 / 1e6
    );
}

/// FIG10 — styled incremental loading; restyling is interactive.
pub fn fig10(res: usize, n_lines: usize) {
    header(
        "FIG10",
        "incremental loading with opacity/color mapped to field strength; \
         the scientist changes these parameters interactively and sees the \
         result immediately (no re-integration)",
    );
    let field = workloads::three_cell_e_field(res, 600);
    let t0 = Instant::now();
    let seeded = workloads::cavity_lines(&field, n_lines, 5);
    let integrate_ms = ms(t0);
    let cam = workloads::cavity_camera(&field, 1.0);
    let style = LineStyle::electric(field.max_magnitude());
    let params = SosParams {
        half_width: 0.012,
        ..Default::default()
    };

    // Build strips once; restyle in place (the interactive path).
    let mut strips: Vec<(FieldLine, Vec<accelviz_render::rasterizer::Vertex>)> = seeded
        .iter()
        .map(|sl| (sl.line.clone(), sos_strip(&sl.line, cam.eye, &params)))
        .collect();
    let t0 = Instant::now();
    for (line, verts) in &mut strips {
        style.restyle_strip(line, verts);
    }
    let restyle_ms = ms(t0);
    let magnetic = LineStyle::magnetic(field.max_magnitude());
    let t0 = Instant::now();
    for (line, verts) in &mut strips {
        magnetic.restyle_strip(line, verts);
    }
    let restyle2_ms = ms(t0);
    println!(
        "integrate {} lines: {integrate_ms:.1} ms; restyle (opacity/color by \
         |E|): {restyle_ms:.2} ms; palette swap: {restyle2_ms:.2} ms — restyle is \
         {:.0}x cheaper than re-integration",
        seeded.len(),
        integrate_ms / restyle_ms.max(1e-6)
    );
    // Opacity tracks magnitude.
    let (line, verts) = &strips[0];
    let hi = line.magnitudes.iter().cloned().fold(0.0f64, f64::max);
    let lo = line
        .magnitudes
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    println!(
        "first line: |E| range [{lo:.2e}, {hi:.2e}], vertex alpha range \
         [{:.2}, {:.2}] (monotone in |E|)",
        verts.iter().map(|v| v.color.a).fold(1.0f32, f32::min),
        verts.iter().map(|v| v.color.a).fold(0.0f32, f32::max)
    );
}

/// FIG1-adjacent: volume-only rendering cost across texture resolutions.
pub fn volume_resolution_sweep(n_particles: usize) {
    header(
        "VOLSWEEP",
        "the fill-rate/texture-memory wall that motivates the hybrid \
         method: volume rendering cost across 3-D texture resolutions",
    );
    let snap = workloads::halo_snapshot(n_particles, 20, 11);
    let data = workloads::partitioned(&snap, PlotType::XYZ);
    for res in [32usize, 64, 128, 256] {
        let frame = HybridFrame::from_partition(&data, 0, 0.0, [res, res, res]);
        let cam = workloads::frame_camera(&frame, 1.0);
        let tfs = TransferFunctionPair::linked_at(0.03, 0.01);
        let mut fb = Framebuffer::new(256, 256);
        let t0 = Instant::now();
        let cost = render_volume(
            &mut fb,
            &cam,
            &grid_view(&frame.grid),
            &tfs.volume,
            &VolumeStyle {
                steps: res.max(48),
                ..Default::default()
            },
        );
        println!(
            "{res:3}³ texture ({:6.2} MB): {:7.1} ms, {} samples, {} evaluated",
            frame.volume_bytes() as f64 / 1e6,
            ms(t0),
            cost.samples,
            cost.evaluated
        );
    }
}

/// ABLATE — the octree design-choice ablation: depth, capacity, and the
/// §2.5 gradient refinement (space saved vs boundary quality).
pub fn ablate(n_particles: usize) {
    header(
        "ABLATE",
        "§2.5: high-gradient regions need deeper subdivision or 'the \
         outline of the lowest level octree nodes will be visible at the \
         boundary of the halo region'; for low gradients a shallower depth \
         'saves valuable space'",
    );
    use accelviz_octree::builder::GradientRefinement;
    let snap = workloads::halo_snapshot(n_particles, 20, 3);
    let boundary_edge = |data: &accelviz_octree::sorted_store::PartitionedData| -> f64 {
        let t = threshold_for_budget(data, n_particles / 10);
        let leaves = data.sorted_leaves();
        let cut = leaves.partition_point(|&li| data.tree().nodes[li as usize].density < t);
        let w = 8.min(leaves.len() / 2);
        let lo = cut.saturating_sub(w);
        let hi = (cut + w).min(leaves.len());
        let mut sum = 0.0;
        let mut n = 0;
        for &li in &leaves[lo..hi] {
            sum += data.tree().nodes[li as usize].bounds.longest_edge();
            n += 1;
        }
        sum / n.max(1) as f64
    };
    for (label, params) in [
        (
            "depth 4, no refinement    ",
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        ),
        (
            "depth 4 + selective (+2)  ",
            BuildParams {
                max_depth: 4,
                leaf_capacity: 64,
                gradient_refinement: Some(GradientRefinement {
                    extra_depth: 2,
                    contrast_threshold: 6.0,
                }),
            },
        ),
        (
            "depth 6 global            ",
            BuildParams {
                max_depth: 6,
                leaf_capacity: 64,
                gradient_refinement: None,
            },
        ),
    ] {
        let t0 = Instant::now();
        let data = partition(&snap.particles, PlotType::XYZ, params);
        println!(
            "{label}: build {:6.1} ms, {:6} nodes ({:7} B node file), halo-boundary \
             leaf edge {:.4} (smaller = less blocky)",
            ms(t0),
            data.tree().nodes.len(),
            data.node_file_bytes(),
            boundary_edge(&data) / data.tree().bounds.longest_edge()
        );
    }
}

/// ANIM — temporal field-line animation (§3.4): parallel pre-integration
/// across time steps and the storage economics of the animated set.
pub fn anim(res: usize, n_steps: usize, n_lines: usize) {
    header(
        "ANIM",
        "§3.4: animating field lines in the temporal domain; pre-computed \
         lines per step keep many steps in memory; line calculations are \
         parallelized across steps",
    );
    use accelviz_fieldlines::seeding::SeedingParams;
    use accelviz_fieldlines::temporal::{precompute_animation, precompute_animation_serial};
    let geometry = CavityGeometry::new(CavitySpec::three_cell());
    let mut sim = FdtdSim::new(FdtdSpec::for_geometry(geometry, res));
    sim.run(300);
    let mut fields = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        sim.run(120);
        fields.push(FieldSampler::capture(&sim, FieldKind::Electric));
    }
    let max_mag = fields.iter().map(|f| f.max_magnitude()).fold(0.0, f64::max);
    let params = SeedingParams {
        n_lines,
        trace: accelviz_fieldlines::integrate::TraceParams {
            step: 0.04,
            max_steps: 250,
            min_magnitude: 1e-6 * max_mag.max(1e-300),
            bidirectional: true,
        },
        seed: 5,
        min_magnitude_frac: 1e-3,
    };
    let t0 = Instant::now();
    let animation = precompute_animation(&fields, &params);
    let par_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let _serial = precompute_animation_serial(&fields, &params);
    let ser_s = t0.elapsed().as_secs_f64();
    let total_lines: usize = animation.steps.iter().map(Vec::len).sum();
    println!(
        "{n_steps} captured steps, {total_lines} lines total: parallel pre-integration \
         {par_s:.2} s vs serial {ser_s:.2} s ({:.1}x)",
        ser_s / par_s.max(1e-9)
    );
    println!(
        "animation storage: {:.3} MB compact; at the paper's 1.6 M-element mesh the \
         same animation saves {:.0}x over raw per-step fields",
        animation.total_bytes() as f64 / 1e6,
        animation.saving_factor(1_600_000)
    );
}

/// Runs every experiment at the default scales.
pub fn run_all() {
    fig1(100_000);
    fig2(50_000);
    fig3();
    fig4(30_000);
    fig5(20_000, 60);
    prep();
    size(100_000);
    fig6(14, 250);
    fig7(14, 300);
    fig8(12);
    fig9(14);
    compr(14, 250);
    fig10(14, 250);
    volume_resolution_sweep(50_000);
    ablate(100_000);
    anim(14, 8, 400);
}
