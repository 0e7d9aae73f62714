//! The names this benchmark defines: workloads, end-to-end metrics with
//! their bounds, per-layer metrics with their layer. `BENCHMARK.json` at
//! the root of the repository states the same tables; a unit test keeps
//! the two from drifting apart.

/// A named workload and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// baseline median by which it may worsen before that is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `BENCHMARK.json`'s bound, for runs under ten different seeds. The
    /// benchmark itself is refused when the spread of such runs exceeds
    /// it, so it is no tighter than this machine and the seeds are steady.
    pub bound: f64,
    /// `check`'s bound, for two sets of runs under one seed. It can be
    /// tighter: where a set's spread exceeds it the verdict is
    /// *unresolved*.
    pub check_bound: f64,
}

/// A metric of one layer, from the traced run. No bound. The layer is
/// the name's first dotted component.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "prep_series",
        why: "supercomputer side, 1 thread: beam step, octree partition, extract, v2 encode, run-file write; no socket, no render",
    },
    WorkloadSpec {
        name: "view_remote",
        why: "1 remote viewer stepping a 12-frame stored run: every op is a store page-in, extraction miss, v2 encode, socket, decode, 256x256 render",
    },
    WorkloadSpec {
        name: "view_progressive",
        why: "same server and data over the chunked progressive stream: first coarse image, then full refinement; guards chunked streaming against plain-fetch gains",
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "2 clients, whole sessions (connect, hello, cached fetch, close): accept, admission and counter path with negligible payload; codec and render gains must not move it",
    },
    WorkloadSpec {
        name: "serve_failover",
        why: "2 clients through router + 3 shards, replication 2, shipping defaults; one shard killed at 1/3 and reinstated at 2/3 of the run: retry, breaker, prober, replica fall-through",
    },
    WorkloadSpec {
        name: "render_local",
        why: "1 thread, in-memory frames, orbit + 512x512 hybrid render: render does all the work, serving none",
    },
    WorkloadSpec {
        name: "field_lines",
        why: "1 thread, paper section 3: FDTD steps, field capture, line seeding, self-orienting-surface render; the render crate through triangles instead of rays",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        check_bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        check_bound: 0.1,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        check_bound: 0.1,
    },
    EndToEnd {
        name: "op_ms_p95",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        check_bound: 0.15,
    },
    EndToEnd {
        name: "first_image_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        check_bound: 0.1,
    },
    EndToEnd {
        name: "bytes_per_op",
        unit: "B",
        better: Lower,
        bound: 0.05,
        check_bound: 0.005,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        check_bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        check_bound: 0.1,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 89] = [
    layer("beam.step_ms_p50", "ms", Lower),
    layer("beam.particles_per_s", "1/s", Higher),
    layer("octree.partition_ms_p50", "ms", Lower),
    layer("octree.partition_particles_per_s", "1/s", Higher),
    layer("octree.nodes", "count", Lower),
    layer("octree.partition_parallel_ms_p50", "ms", Lower),
    layer("octree.extract_ms_p50", "ms", Lower),
    layer("octree.extract_points", "count", Lower),
    layer("store.run_write_ms_p50", "ms", Lower),
    layer("store.run_write_mib_per_s", "MiB/s", Higher),
    layer("store.run_bytes_per_frame", "B", Lower),
    layer("store.resident_fetch_cold_ms_p50", "ms", Lower),
    layer("store.resident_fetch_warm_us_p50", "us", Lower),
    layer("store.resident_loads", "count", Lower),
    layer("store.resident_evictions", "count", Lower),
    layer("store.codec_f32_encode_mib_per_s", "MiB/s", Higher),
    layer("store.codec_f32_decode_mib_per_s", "MiB/s", Higher),
    layer("store.record_roundtrip_us_p50", "us", Lower),
    layer("wire.v1_encode_ms_p50", "ms", Lower),
    layer("wire.v1_decode_ms_p50", "ms", Lower),
    layer("wire.v2_encode_ms_p50", "ms", Lower),
    layer("wire.v2_decode_ms_p50", "ms", Lower),
    layer("wire.v1_frame_bytes", "B", Lower),
    layer("wire.v2_frame_bytes", "B", Lower),
    layer("wire.v2_ratio", "ratio", Higher),
    layer("wire.envelope_roundtrip_us_p50", "us", Lower),
    layer("lod.plan_ms_p50", "ms", Lower),
    layer("lod.records", "count", Lower),
    layer("lod.first_chunk_bytes", "B", Lower),
    layer("lod.first_chunk_fraction", "ratio", Lower),
    layer("lod.assemble_ms_p50", "ms", Lower),
    layer("serve.connect_hello_ms_p50", "ms", Lower),
    layer("serve.stats_roundtrip_us_p50", "us", Lower),
    layer("serve.fetch_hit_ms_p50", "ms", Lower),
    layer("serve.fetch_miss_ms_p50", "ms", Lower),
    layer("serve.fetch_residual_ms", "ms", Lower),
    layer("serve.session_ms_p50", "ms", Lower),
    layer("serve.alt_backend_session_ms_p50", "ms", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.request_latency_p95_upper_ms", "ms", Lower),
    layer("serve.shed_connections", "count", Lower),
    layer("serve.shed_extractions", "count", Lower),
    layer("serve.accept_errors", "count", Lower),
    layer("serve.handler_panics", "count", Lower),
    layer("router.hop_ms_p50", "ms", Lower),
    layer("router.healthy_ops_per_s", "1/s", Higher),
    layer("router.killed_ops_per_s", "1/s", Higher),
    layer("router.reinstated_ops_per_s", "1/s", Higher),
    layer("router.time_to_eject_ms", "ms", Lower),
    layer("router.time_to_reinstate_ms", "ms", Lower),
    layer("router.cache_hit_ratio", "ratio", Higher),
    layer("router.upstream_fetches", "count", Lower),
    layer("router.coalesced_fetches", "count", Higher),
    layer("router.upstream_errors", "count", Lower),
    layer("router.upstream_retries", "count", Lower),
    layer("router.replica_failovers", "count", Lower),
    layer("router.breaker_fast_fails", "count", Lower),
    layer("router.probe_fail", "count", Lower),
    layer("client.retries", "count", Lower),
    layer("client.reconnects", "count", Lower),
    layer("client.degraded_frames", "count", Lower),
    layer("core.session_step_ms_p50", "ms", Lower),
    layer("core.session_render_ms_p50", "ms", Lower),
    layer("core.local_step_us_p50", "us", Lower),
    layer("render.hybrid_ms_p50", "ms", Lower),
    layer("render.volume_ms_p50", "ms", Lower),
    layer("render.points_ms_p50", "ms", Lower),
    layer("render.volume_samples", "count", Lower),
    layer("render.volume_msamples_per_s", "1/s", Higher),
    layer("render.points_drawn", "count", Lower),
    layer("render.lines_sos_ms_p50", "ms", Lower),
    layer("render.triangles", "count", Lower),
    layer("render.fragments", "count", Lower),
    layer("render.mtris_per_s", "1/s", Higher),
    layer("emsim.step_ms_p50", "ms", Lower),
    layer("emsim.cells", "count", Lower),
    layer("emsim.capture_ms_p50", "ms", Lower),
    layer("fieldlines.seed_ms_p50", "ms", Lower),
    layer("fieldlines.vertices", "count", Lower),
    layer("fieldlines.sos_build_ms_p50", "ms", Lower),
    layer("fieldlines.compact_bytes", "B", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.registry_add_ns", "ns", Lower),
    layer("trace.span_ns", "ns", Lower),
    layer("bench.op_self_ms_p50", "ms", Lower),
    layer("bench.ops", "count", Higher),
    layer("bench.failed_share", "ratio", Lower),
    layer("bench.worst_op_ms", "ms", Lower),
    layer("bench.verified_ops", "count", Higher),
];

/// The end-to-end metric called `name`.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, generated from the tables above: the command that
/// runs this package, the directory that holds it, and the names.
pub fn benchmark_json(run_seconds: u64) -> String {
    use crate::json::{number, string};
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                string(w.name),
                string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.as_str()),
                number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                string(m.name),
                string(m.unit),
                string(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"{PACKAGE_DIR}/Cargo.toml\", \"--\"],\n  \"paths\": [\"{PACKAGE_DIR}\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Where this package lives in the repository.
const PACKAGE_DIR: &str = "crates/bench/src/bin/pipeline";

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_trace::chrome::{parse_json, Json};
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` at the root of the repository, five directories
    /// up from this file.
    fn benchmark_json() -> Json {
        parse_json(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON")
    }

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "unit {unit} too long");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(
                m.check_bound > 0.0 && m.check_bound <= m.bound,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc = benchmark_json();
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
        let field = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }
}
