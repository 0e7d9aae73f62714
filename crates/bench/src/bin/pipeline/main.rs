//! `pipeline` — the repository's benchmark: seven named workloads over
//! the whole system (beam → octree → store → wire → serve/router →
//! viewer/renderer, and the EM field-line half), end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one. See `README.md`
//! beside this file for the tables and `BENCHMARK.json` at the root of
//! the repository for the contract.
//!
//! ```text
//! pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! pipeline --all [--seed N] [--seconds S] [--reps R] [--trace 0|1] [--out FILE]
//! pipeline --smoke
//! pipeline check A.json B.json
//! pipeline spec
//! ```
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions and reading their public counters.

mod check;
mod data;
mod exec;
mod json;
mod run;
mod spec;
mod stats;
mod sys;
mod tracer;
mod workloads;

use accelviz_trace::chrome::{parse_json, Json};
use exec::{run_workload, Outcome, RunOpts};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 11;
/// Seconds one run measures for; `run_seconds` of `BENCHMARK.json`. Long
/// enough that the slowest op (`prep_series`, 35–45 ms as the machine's
/// speed wanders) completes the 200 ops `p95` needs with half to spare,
/// and as long as the acceptance protocol's time limit for all its runs
/// together (158 runs and two builds in 3420 s) allows with a tenth left.
const DEFAULT_SECONDS: u64 = 14;
const SMOKE_SECONDS: f64 = 0.6;
const DEFAULT_REPS: usize = 3;

const USAGE: &str = "usage:
  pipeline --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  pipeline --all [--seed N] [--seconds S] [--reps R] [--trace 0|1] [--out FILE]
  pipeline --smoke
  pipeline check A.json B.json
  pipeline spec                      (prints BENCHMARK.json)";

struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    seed: u64,
    seconds: Option<f64>,
    reps: usize,
    traced: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        smoke: false,
        seed: DEFAULT_SEED,
        seconds: None,
        reps: DEFAULT_REPS,
        traced: false,
        trace_out: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |what: &str, v: &str| format!("{flag}: {v:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad("a whole number", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600", &v));
                }
                args.seconds = Some(s);
            }
            "--reps" => {
                let v = value()?;
                args.reps = v.parse().map_err(|_| bad("a whole number", &v))?;
                if args.reps == 0 {
                    return Err(bad("at least 1", &v));
                }
            }
            "--trace" => {
                let v = value()?;
                args.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", &v)),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = usize::from(args.workload.is_some()) + usize::from(args.all);
    if modes > 1 || (modes == 0 && !args.smoke) || (args.all && args.smoke) {
        return Err("give one of --workload NAME, --all, --smoke, check".to_string());
    }
    Ok(args)
}

/// The last line of a single run's standard output: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(outcome: &Outcome, traced: bool) -> String {
    // The contract wants every metric of the table with a number: one
    // this run did not measure reads 0 here and is named in the report
    // line above.
    let rows: Vec<(&str, f64, &str)> = if traced {
        let layers = outcome.per_layer.iter();
        layers.map(|&(n, v, u)| (n, v.unwrap_or(0.0), u)).collect()
    } else {
        outcome.end_to_end.clone()
    };
    let metrics: Vec<String> = rows
        .iter()
        .map(|&(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(value),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// What the result line has no key for, as the line before it: the
/// longest single op, and the per-layer metrics this run did not measure.
fn report_line(outcome: &Outcome) -> String {
    let unmeasured: Vec<String> = outcome
        .per_layer
        .iter()
        .filter(|(_, value, _)| value.is_none())
        .map(|(name, _, _)| json::string(name))
        .collect();
    format!(
        "{{\"worst_op_ms\": {}, \"unmeasured\": [{}]}}",
        json::number(outcome.worst_op_ms),
        unmeasured.join(", ")
    )
}

/// One line per metric: workload, name, value, unit.
fn print_rows(workload: &str, outcome: &Outcome) {
    for &(name, value, unit) in &outcome.end_to_end {
        let note = if name == "op_ms_p95" {
            let (n, chunks, beyond) = outcome.p95_samples;
            format!("  ({n} samples in {chunks} chunks, {beyond} beyond in each)")
        } else {
            String::new()
        };
        println!("{workload:<17} {name:<36} {value:>16.4} {unit}{note}");
    }
    println!(
        "{workload:<17} {:<36} {:>16.4} ms",
        "worst_op_ms", outcome.worst_op_ms
    );
    for &(name, value, unit) in &outcome.per_layer {
        match value {
            Some(v) => println!("{workload:<17} {name:<36} {v:>16.4} {unit}"),
            None => println!("{workload:<17} {name:<36} {:>16} {unit}", "null"),
        }
    }
    for problem in &outcome.problems {
        println!("{workload:<17} PROBLEM: {problem}");
    }
}

/// How the arguments ask a run to be made.
fn run_opts(args: &Args) -> RunOpts {
    let default_seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS as f64
    };
    RunOpts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        traced: args.traced,
        smoke: args.smoke,
        trace_out: args.trace_out.clone(),
    }
}

/// One run of workload `name` in this process.
fn single(name: &str, opts: &RunOpts) -> ExitCode {
    if cfg!(debug_assertions) && !opts.smoke {
        eprintln!("pipeline: this is a debug build; measure optimized builds only (--release)");
        return ExitCode::from(3);
    }
    let Some(outcome) = run_workload(name, opts) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "pipeline: no workload {name:?}; there are {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    print_rows(name, &outcome);
    if !opts.smoke {
        println!("{}", report_line(&outcome));
        println!("{}", result_line(&outcome, opts.traced));
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--smoke`: every workload at about a twentieth of its size, traced so
/// the spans and probes run too; no JSON.
fn smoke(args: &Args) -> ExitCode {
    let opts = RunOpts {
        traced: true,
        trace_out: None,
        ..run_opts(args)
    };
    let mut code = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        if single(w.name, &opts) != ExitCode::SUCCESS {
            code = ExitCode::from(1);
        }
    }
    println!("smoke: small sizes, no results recorded");
    code
}

/// One workload's runs in an `--all` set.
#[derive(Default)]
struct Runs {
    /// The values of each metric across the runs, by metric name.
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: Vec<f64>,
    failed: Vec<f64>,
    worst_op_ms: Vec<f64>,
}

impl Runs {
    /// Runs `workload` once in a process of its own and keeps what it
    /// printed; returns whether the run was correct.
    fn run_once(&mut self, exe: &Path, workload: &str, args: &Args, seconds: f64) -> bool {
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        let out = cmd.output().expect("run own executable");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The last two lines: the report, then the result.
        let mut tail = stdout.lines().rev().map(|l| parse_json(l).ok());
        let (Some(Some(doc)), Some(Some(report))) = (tail.next(), tail.next()) else {
            eprintln!(
                "pipeline: {workload} printed no result ({}):\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            return false;
        };
        if !out.status.success() {
            eprintln!("pipeline: {workload} was not correct:\n{stdout}");
        }
        let number = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
        self.attempted.extend(number(&doc, "attempted"));
        self.failed.extend(number(&doc, "failed"));
        self.worst_op_ms.extend(number(&report, "worst_op_ms"));
        let unmeasured: Vec<&str> = report
            .get("unmeasured")
            .and_then(Json::as_array)
            .map_or(Vec::new(), |v| v.iter().filter_map(Json::as_str).collect());
        if let Some(Json::Object(ms)) = doc.get("metrics") {
            for (name, m) in ms {
                if !unmeasured.contains(&name.as_str()) {
                    let values = self.metrics.entry(name.clone()).or_default();
                    values.extend(number(m, "value"));
                }
            }
        }
        out.status.success()
    }

    /// Prints median, min and max of every metric, in the tables' order,
    /// and returns the workload's member of the result file.
    fn summary(&self, workload: &str) -> String {
        let order = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        let mut rows = Vec::new();
        for (name, unit) in order {
            let Some(values) = self.metrics.get(name).filter(|v| !v.is_empty()) else {
                continue;
            };
            let sorted = stats::sorted(values.clone());
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let mid = stats::median(&sorted);
            println!(
                "{workload:<17} {name:<36} {mid:>16.4} {unit:<6} min {min:.4} max {max:.4} ({} runs)",
                sorted.len()
            );
            rows.push(format!(
                "{}: {{\"unit\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"values\": {}}}",
                json::string(name),
                json::string(unit),
                json::number(mid),
                json::number(min),
                json::number(max),
                json::numbers(values)
            ));
        }
        format!(
            "    {}: {{\n      \"attempted\": {}, \"failed\": {}, \"worst_op_ms\": {},\n      \"metrics\": {{\n        {}\n      }}\n    }}",
            json::string(workload),
            json::numbers(&self.attempted),
            json::numbers(&self.failed),
            json::numbers(&self.worst_op_ms),
            rows.join(",\n        ")
        )
    }
}

/// `--all`: runs every workload `reps` times under one seed, each run in
/// a process of its own so CPU time and peak memory are per workload and
/// per run. The order is repetition by repetition, not workload by
/// workload: a workload's runs are then spread over the whole set, so a
/// slow few minutes of the machine widen the set's spread (and `check`
/// says *unresolved*) instead of shifting one workload's median (and
/// `check` saying *regressed*).
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS as f64);
    let mut runs: Vec<Runs> = WORKLOADS.iter().map(|_| Runs::default()).collect();
    let mut code = ExitCode::SUCCESS;
    for _ in 0..args.reps {
        for (w, runs) in WORKLOADS.iter().zip(&mut runs) {
            if !runs.run_once(&exe, w.name, args, seconds) {
                code = ExitCode::from(1);
            }
        }
    }
    let members: Vec<String> = WORKLOADS
        .iter()
        .zip(&runs)
        .map(|(w, runs)| runs.summary(w.name))
        .collect();

    if let Some(path) = &args.out {
        let doc = format!(
            "{{\n  \"fingerprint\": {{{}}},\n  \"traced\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            sys::fingerprint_json(args.seed, args.reps, seconds),
            args.traced,
            members.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("pipeline: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("check") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match check::check(a, b) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(n) => {
                eprintln!("pipeline check: {n} regressed");
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("pipeline check: {e}");
                ExitCode::from(2)
            }
        };
    }
    if argv == ["spec"] {
        print!("{}", spec::benchmark_json(DEFAULT_SECONDS));
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Before any thread exists: the program under test must see the
    // shipping defaults, not this shell's knobs.
    let cleared = sys::clear_env_knobs();
    eprintln!(
        "pipeline: cleared {} ({} had been set); {} threads available",
        sys::ENV_KNOBS.join(", "),
        if cleared.is_empty() {
            "none".to_string()
        } else {
            cleared.join(", ")
        },
        sys::nproc()
    );

    if let Some(name) = &args.workload {
        single(name, &run_opts(&args))
    } else if args.all {
        all(&args)
    } else {
        smoke(&args)
    }
}
