//! The repository's benchmark. `perfbench/run.py` builds this program and
//! runs it twice per invocation:
//!
//! ```text
//! perfbench gen     --workload W --out DIR
//! perfbench measure --workload W --seed N --seconds S --trace 0|1
//!                   --inputs DIR --out DIR [--revision REV]
//! ```
//!
//! `gen` writes the workload's circuits as BLIF; `measure` reads only
//! that BLIF, times the program through its public API, checks every
//! output, and prints one JSON result line last on stdout.

mod batch;
mod gate;
mod layers;
mod serve;
mod stats;
mod workload;

use batch::{Input, LoopResult};
use layers::Layers;
use powder_obs as obs;
use stats::{fnv64, geomean, host_probe_ms, jstr, median, num, peak_rss_mb, quantile, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: perfbench <gen|measure> --workload W [--out DIR] \
                     [--seed N --seconds S --trace 0|1 --inputs DIR --revision REV]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    let mut opts = BTreeMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => opts.insert(k[2..].to_string(), v.clone()),
            _ => return Err(USAGE.to_string()),
        };
    }
    let opt = |k: &str| {
        opts.get(k)
            .map(String::as_str)
            .ok_or(format!("missing --{k}; {USAGE}"))
    };
    let num_opt = |k: &str| opt(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"));
    let w = workload::find(opt("workload")?).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload (expected one of {})", names.join(", "))
    })?;
    let out = PathBuf::from(opt("out")?);
    match cmd.as_str() {
        "gen" => {
            std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
            for input in batch::generate(w.circuits)? {
                let path = out.join(format!("{}.blif", input.name));
                std::fs::write(&path, input.blif)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            Ok(())
        }
        "measure" => {
            let seed = opt("seed")?
                .parse::<u64>()
                .map_err(|e| format!("--seed: {e}"))?;
            let seconds = num_opt("seconds")?;
            let trace = match opt("trace")? {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace must be 0 or 1, not {t}")),
            };
            let inputs = load_inputs(w, Path::new(opt("inputs")?))?;
            let revision = opts
                .get("revision")
                .cloned()
                .unwrap_or_else(|| "unknown".into());
            measure(w, &inputs, seed, seconds, trace, &out, &revision)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn load_inputs(w: &Workload, dir: &Path) -> Result<Vec<Input>, String> {
    w.circuits
        .iter()
        .map(|&name| {
            let path = dir.join(format!("{name}.blif"));
            let blif =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Input {
                name: name.to_string(),
                blif,
            })
        })
        .collect()
}

/// Each circuit's fastest job, in circuit order. Every job of a circuit
/// does the same work (one pattern seed per run), so the fastest repeat
/// is the one the host disturbed least.
fn per_circuit(r: &LoopResult, n: usize) -> Vec<f64> {
    (0..n)
        .map(|c| {
            r.jobs
                .iter()
                .filter(|j| j.circuit == c)
                .map(|j| j.seconds)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn optimize_s(r: &LoopResult, n: usize) -> f64 {
    per_circuit(r, n).iter().sum()
}

/// Output hash per circuit.
fn hashes(first: &[Option<String>]) -> Vec<Option<u64>> {
    first
        .iter()
        .map(|o| o.as_ref().map(|t| fnv64(t.as_bytes())))
        .collect()
}

/// The end-to-end metrics of one untraced loop.
fn end_to_end(r: &LoopResult, n: usize, success_pct: f64) -> Metrics {
    let per_circuit = per_circuit(r, n);
    let (before, after) = r.power;
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        r.setup.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    m.put("optimize_s", per_circuit.iter().sum(), "s");
    m.put("circuit_geomean_ms", geomean(&per_circuit) * 1e3, "ms");
    m.put(
        "power_reduction_pct",
        100.0 * (before - after) / before,
        "%",
    );
    m.put("success_pct", success_pct, "%");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// Job latency and throughput: medians and rates over every job, so
/// they move with the host's drift more than the fastest-repeat figures
/// and are reported as diagnostics of the traced run.
fn latency(r: &LoopResult) -> [(&'static str, f64); 3] {
    let all: Vec<f64> = r.jobs.iter().map(|j| j.seconds).collect();
    [
        ("latency_p50_s", median(&all)),
        ("latency_p90_s", quantile(&all, 0.9)),
        (
            "jobs_per_min",
            60.0 * all.len() as f64 / all.iter().sum::<f64>(),
        ),
    ]
}

fn measure(
    w: &Workload,
    inputs: &[Input],
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
    revision: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let probe_start = host_probe_ms();
    let n = inputs.len();
    let mut identical = true;
    let mut layers = Layers::default();
    let mut served_failed = 0;
    let (timed, untraced_optimize_s) = if trace {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead, and the outputs must not differ.
        let untraced = batch::run_loop(inputs, w.passes, seed, seconds / 2.0)?;
        obs::set_tracing_enabled(true);
        let snap0 = obs::snapshot();
        let traced = batch::run_loop(inputs, w.passes, seed, seconds / 2.0)?;
        // The serve layer: each tenant submits every circuit once to an
        // in-process daemon, with the daemon's default settings.
        let served = serve::run(inputs, seed, &out.join("serve-state"))?;
        let served_gate = gate::verify(inputs, &served.first);
        served_failed = served.failed_jobs + served_gate.failed.iter().filter(|&&f| f).count();
        let delta = obs::snapshot().delta(&snap0);
        layers.set("serve.shed", delta.counter(obs::names::SERVE_SHED) as f64);
        layers.set(
            "serve.retries",
            delta.counter(obs::names::SERVE_RETRIES) as f64,
        );
        for (name, v) in served.layer() {
            layers.set(name, v);
        }
        for (c, (a, b)) in hashes(&untraced.first)
            .iter()
            .zip(hashes(&traced.first))
            .enumerate()
        {
            if *a != b {
                eprintln!(
                    "perfbench: {}: traced output differs from untraced output",
                    inputs[c].name
                );
                identical = false;
            }
        }
        for (name, v) in latency(&untraced) {
            layers.set(name, v);
        }
        let base = optimize_s(&untraced, n);
        (traced, Some(base))
    } else {
        (batch::run_loop(inputs, w.passes, seed, seconds)?, None)
    };

    // One pattern seed per run: every repeat of a circuit must give the
    // same netlist as its first run, and that netlist must pass the gate.
    let g = gate::verify(inputs, &timed.first);
    let first = hashes(&timed.first);
    let failed_jobs = served_failed
        + timed
            .jobs
            .iter()
            .filter(|j| g.failed[j.circuit] || first[j.circuit] != Some(j.hash))
            .count();
    let attempted = timed.jobs.len();
    let success_pct = 100.0 * (attempted - failed_jobs) as f64 / attempted as f64;

    let metrics = if let Some(base) = untraced_optimize_s {
        let cfg = workload::batch_config(workload::pattern_seed(seed));
        for (input, output) in inputs.iter().zip(&timed.first) {
            let output = output
                .as_deref()
                .ok_or(format!("{}: no job ran", input.name))?;
            let nl = powder_netlist::blif::read_blif(&input.blif, batch::library())
                .map_err(|e| e.to_string())?;
            let resize_required = batch::resize_required(&nl, &cfg);
            if layers.probe(input, output, w.passes, &cfg, resize_required)? != output {
                eprintln!(
                    "perfbench: {}: single-pass pipelines differ from the timed run",
                    input.name
                );
                identical = false;
            }
        }
        layers.set("atpg.equiv_ms", g.equiv_seconds * 1e3);
        layers.set("atpg.equiv.undecided", g.undecided as f64);
        layers.set("host.probe_ms", (probe_start + host_probe_ms()) / 2.0);
        layers.set(
            "trace.overhead_pct",
            100.0 * (optimize_s(&timed, n) / base - 1.0),
        );
        let trace_path = out.join("trace.json");
        let json = obs::export::chrome_trace_json(&obs::drain());
        std::fs::write(&trace_path, json).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        layers.metrics()
    } else {
        end_to_end(&timed, n, success_pct)
    };
    let probe_end = host_probe_ms();

    let correct = identical && failed_jobs == 0;
    let stamp = format!(
        "\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \
         \"revision\": {}, \"nproc\": {}, \"profile\": {}, \
         \"host_probe_ms\": {{\"start\": {}, \"end\": {}}}",
        jstr(w.name),
        num(seconds),
        jstr(revision),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        jstr(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        num(probe_start),
        num(probe_end),
    );
    eprintln!("perfbench: {{{stamp}}}");
    let jobs: Vec<String> = timed
        .jobs
        .iter()
        .map(|j| {
            format!(
                "[{}, {}, \"{:016x}\"]",
                jstr(&inputs[j.circuit].name),
                num(j.seconds),
                j.hash
            )
        })
        .collect();
    let setups: Vec<String> = timed.setup.iter().map(|&s| num(s)).collect();
    let report = format!(
        "{{{stamp}, \"jobs\": [{}], \"setups\": [{}], \"metrics\": {}}}\n",
        jobs.join(", "),
        setups.join(", "),
        metrics.to_json(),
    );
    std::fs::write(out.join("report.json"), report).map_err(|e| e.to_string())?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed_jobs}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(())
}
