//! `prep_series` — the paper's supercomputer side (§2.2–2.3): one thread
//! advances a halo beam and turns each snapshot into what gets shipped
//! and archived. Beam, octree, wire encode and store **write** do all the
//! work; there is no socket and no render.

use super::{probe_ms, Layers, Traced, Workload};
use crate::data::{build_params, developed_beam, Scale};
use crate::run::{closed_loop, RunCtl, Sample};
use crate::stats::median;
use accelviz_beam::simulation::BeamSimulation;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::builder::partition;
use accelviz_octree::extraction::threshold_for_budget;
use accelviz_octree::parallel::partition_parallel;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::wire::{decode_frame_v2, encode_frame_v2};
use accelviz_store::codec::{decode_f32s, encode_f32s};
use accelviz_store::progressive::{decode_record, encode_record, Record, RECORD_DELTA};
use accelviz_store::run::{fnv1a64, write_run_file};
use accelviz_store::RunStore;
use std::path::{Path, PathBuf};

/// Beam steps between two recorded snapshots.
const STEPS_PER_OP: usize = 8;
/// Chunk size of the run files written (1 MiB, rounded to whole records
/// by the store).
const CHUNK_BYTES: u64 = 1 << 20;
/// One op in this many has its outputs read back and compared.
const VERIFY_EVERY: usize = 16;

pub struct PrepSeries {
    scale: Scale,
    sim: BeamSimulation,
    run_path: PathBuf,
    /// The last op's products, kept for the layer probes.
    last: Option<(PartitionedData, HybridFrame)>,
}

/// Order-sensitive digest of a partitioned store: particle bits, the
/// sorted leaves' (density, length) sequence, and the node count.
fn store_digest(data: &PartitionedData) -> u64 {
    let mut bytes = Vec::with_capacity(data.particles().len() * 48);
    for p in data.particles() {
        for v in p.to_array() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for &li in data.sorted_leaves() {
        let n = &data.tree().nodes[li as usize];
        bytes.extend_from_slice(&n.density.to_bits().to_le_bytes());
        bytes.extend_from_slice(&n.len.to_le_bytes());
    }
    bytes.extend_from_slice(&(data.tree().nodes.len() as u64).to_le_bytes());
    fnv1a64(&bytes)
}

/// Reads an op's outputs back: the v2 frame must decode to the frame it
/// encoded, the volume must account for every particle, and the run file
/// must reopen to the partitioned particles.
fn outputs_verify(
    run_path: &Path,
    data: &PartitionedData,
    frame: &HybridFrame,
    wire: &[u8],
) -> bool {
    let decoded = decode_frame_v2(wire).is_ok_and(|f| &f == frame);
    let counted = (frame.grid.total() - data.particles().len() as f64).abs() < 0.5;
    let reopened = RunStore::open(run_path)
        .and_then(|store| store.load_particles(0))
        .is_ok_and(|ps| ps == data.particles());
    decoded && counted && reopened
}

impl Workload for PrepSeries {
    const OP_SPAN: &'static str = "bench.prep_series.op";

    fn setup(seed: u64, scale: &Scale, scratch: &Path) -> PrepSeries {
        PrepSeries {
            scale: *scale,
            sim: developed_beam(scale.beam_particles, scale.develop_cells, seed),
            run_path: scratch.join("prep_series.run"),
            last: None,
        }
    }

    fn run(&mut self, ctl: &RunCtl<'_>) -> Vec<Vec<Sample>> {
        let budget = self.scale.point_budget();
        let dims = self.scale.grid_dims();
        let samples = closed_loop(ctl, |op| {
            {
                let _s = op.span("beam.step");
                for _ in 0..STEPS_PER_OP {
                    self.sim.step();
                }
            }
            let snapshot = self.sim.snapshot(op.k);
            let data = {
                let _s = op.span("octree.partition");
                partition(&snapshot.particles, PlotType::X_PX_Y, build_params())
            };
            let frame = {
                let _s = op.span("octree.extract");
                let threshold = threshold_for_budget(&data, budget);
                HybridFrame::from_partition(&data, op.k, threshold, dims)
            };
            let (wire, _raw_len) = {
                let _s = op.span("wire.encode_v2");
                encode_frame_v2(&frame)
            };
            let written = {
                let _s = op.span("store.write_run");
                write_run_file(&self.run_path, std::slice::from_ref(&data), CHUNK_BYTES)
            };
            let Ok(run_bytes) = written else {
                return false;
            };
            op.done(run_bytes + wire.len() as u64);

            let ok = if op.k.is_multiple_of(VERIFY_EVERY) {
                op.verified();
                outputs_verify(&self.run_path, &data, &frame, &wire)
            } else {
                true
            };
            self.last = Some((data, frame));
            ok
        });
        vec![samples]
    }

    fn layers(&mut self, traced: &Traced<'_>, out: &mut Layers) {
        let n = self.scale.beam_particles as f64;
        let samples = self.scale.probe_samples;
        let per_step: Vec<f64> = traced
            .span_ms("beam.step")
            .iter()
            .map(|ms| ms / STEPS_PER_OP as f64)
            .collect();
        out.set_median("beam.step_ms_p50", &per_step);
        if let Some(ms) = out.get("beam.step_ms_p50") {
            out.set("beam.particles_per_s", n / (ms / 1e3));
        }
        out.set_median(
            "octree.partition_ms_p50",
            &traced.span_ms("octree.partition"),
        );
        if let Some(ms) = out.get("octree.partition_ms_p50") {
            out.set("octree.partition_particles_per_s", n / (ms / 1e3));
        }
        out.set_median("octree.extract_ms_p50", &traced.span_ms("octree.extract"));
        out.set_median("wire.v2_encode_ms_p50", &traced.span_ms("wire.encode_v2"));
        out.set_median("store.run_write_ms_p50", &traced.span_ms("store.write_run"));

        let Some((data, frame)) = self.last.take() else {
            return;
        };
        out.set("octree.nodes", data.tree().nodes.len() as f64);
        out.set("octree.extract_points", frame.points.len() as f64);
        let run_bytes = std::fs::metadata(&self.run_path).map_or(0, |m| m.len());
        out.set("store.run_bytes_per_frame", run_bytes as f64);
        if let Some(ms) = out.get("store.run_write_ms_p50") {
            out.set(
                "store.run_write_mib_per_s",
                run_bytes as f64 / (1024.0 * 1024.0) / (ms / 1e3),
            );
        }

        // The multi-node partition is on no workload's path; it is probed
        // to referee BENCH_parallel_partition.json. It must build the
        // serial build's store.
        let mut built = None;
        let parallel = probe_ms(samples, || {
            built = Some(partition_parallel(
                data.particles(),
                PlotType::X_PX_Y,
                build_params(),
            ));
        });
        assert!(
            built.is_some_and(|p| store_digest(&p) == store_digest(&data)),
            "partition_parallel diverged from partition"
        );
        out.set_median("octree.partition_parallel_ms_p50", &parallel);

        // The f32 codec on the frame's own density volume.
        let grid = frame.grid.data();
        let mib = (grid.len() * 4) as f64 / (1024.0 * 1024.0);
        let encode = probe_ms(samples, || {
            std::hint::black_box(encode_f32s(std::hint::black_box(grid)));
        });
        let block = encode_f32s(grid);
        let decode = probe_ms(samples, || {
            let mut pos = 0;
            std::hint::black_box(decode_f32s(&block, &mut pos, grid.len()).expect("own block"));
        });
        let per_s = |ms: &[f64]| mib / (median(ms) / 1e3);
        out.set("store.codec_f32_encode_mib_per_s", per_s(&encode));
        out.set("store.codec_f32_decode_mib_per_s", per_s(&decode));

        // One 64 KiB progressive record through its framing and checksum.
        let record = Record {
            kind: RECORD_DELTA,
            seq: 1,
            total: 3,
            payload: block[..block.len().min(64 * 1024)].to_vec(),
        };
        let roundtrip = probe_ms(samples.max(1) * 4, || {
            let bytes = encode_record(std::hint::black_box(&record));
            std::hint::black_box(decode_record(&bytes).expect("own record"));
        });
        out.set("store.record_roundtrip_us_p50", median(&roundtrip) * 1e3);

        // What the program's own instrumentation costs per call: one
        // counter increment on a registry (a mutex and a string-keyed
        // map), and one recorded span.
        let reg = accelviz_trace::registry::Registry::with_spans();
        const CALLS: usize = 20_000;
        let add = probe_ms(5, || {
            for _ in 0..CALLS {
                reg.add("bench.probe_counter", 1);
            }
        });
        let span = probe_ms(5, || {
            for _ in 0..CALLS {
                drop(reg.span("bench.probe_span"));
            }
            reg.clear();
        });
        let ns_per_call = |ms: &[f64]| median(ms) * 1e6 / CALLS as f64;
        out.set("trace.registry_add_ns", ns_per_call(&add));
        out.set("trace.span_ns", ns_per_call(&span));
    }
}
