//! Batch workloads: the calls `powder optimize` makes, timed per circuit.

use crate::stats::fnv64;
use crate::workload;
use powder::{DelayLimit, OptimizeConfig};
use powder_library::Library;
use powder_netlist::blif::{read_blif, write_blif};
use powder_netlist::Netlist;
use powder_obs as obs;
use powder_passes::{
    build_pipeline_with, AnalysisSession, Pipeline, PipelineReport, SessionConfig,
};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::sync::Arc;
use std::time::Instant;

/// One generated input: a circuit name and its BLIF text.
pub struct Input {
    pub name: String,
    pub blif: String,
}

/// A circuit ready to optimize: its session and its pipeline.
struct Prepared {
    sess: AnalysisSession,
    pipeline: Pipeline,
}

/// One completed job: a circuit optimized once.
pub struct Job {
    pub circuit: usize,
    /// Seconds of `Pipeline::run` + `write_blif`.
    pub seconds: f64,
    /// Hash of the optimized BLIF.
    pub hash: u64,
}

/// Complete passes every run makes, whatever `--seconds` says; the
/// power figure is taken over exactly these passes, so it is fixed by
/// the seed.
const MIN_PASSES: usize = 2;

/// Set-ups timed before each pass (the last one is optimized) and after
/// the last pass, so that long passes still sample the host at several
/// moments.
const SETUPS_PER_PASS: usize = 3;

/// Everything one timed loop observed.
pub struct LoopResult {
    /// Seconds per full set-up (library, every `read_blif` + `validate`,
    /// resize anchor, pipeline and `AnalysisSession::new`).
    pub setup: Vec<f64>,
    pub jobs: Vec<Job>,
    /// The first output of each circuit (BLIF).
    pub first: Vec<Option<String>>,
    /// Σ C·E before and after, over the first [`MIN_PASSES`] passes.
    pub power: (f64, f64),
}

/// Reads every input, anchors resize to the input delay as the CLI does,
/// and builds each pipeline and session. Returns the prepared circuits.
fn set_up(inputs: &[Input], passes: &str, cfg: &OptimizeConfig) -> Result<Vec<Prepared>, String> {
    let lib = library();
    inputs
        .iter()
        .map(|input| {
            let nl = read_blif(&input.blif, Arc::clone(&lib))
                .map_err(|e| format!("{}: {e}", input.name))?;
            nl.validate().map_err(|e| format!("{}: {e}", input.name))?;
            let resize_required = resize_required(&nl, cfg);
            let pipeline = build_pipeline_with(
                passes,
                cfg,
                resize_required,
                &powder_egraph::EgraphConfig::default(),
            )?;
            let sess = AnalysisSession::new(nl, SessionConfig::from_optimize(cfg));
            Ok(Prepared { sess, pipeline })
        })
        .collect()
}

/// The resize pass's required time, anchored to the delay of the
/// *input* circuit as `powder optimize` does.
pub fn resize_required(nl: &Netlist, cfg: &OptimizeConfig) -> Option<f64> {
    match cfg.delay_limit? {
        DelayLimit::Factor(f) => {
            let probe = TimingConfig {
                output_load: cfg.power.output_load,
                required_time: None,
            };
            Some(f * TimingAnalysis::new(nl, &probe).circuit_delay())
        }
        DelayLimit::Absolute(t) => Some(t),
    }
}

/// Optimizes one prepared circuit; returns the output BLIF and report.
fn optimize(p: &mut Prepared) -> (String, PipelineReport) {
    let report = p.pipeline.run(&mut p.sess);
    (write_blif(p.sess.netlist()), report)
}

/// Times [`SETUPS_PER_PASS`] set-ups into `times`; returns the last.
fn timed_set_ups(
    times: &mut Vec<f64>,
    inputs: &[Input],
    passes: &str,
    cfg: &OptimizeConfig,
) -> Result<Vec<Prepared>, String> {
    let mut prepared = Vec::new();
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        prepared = {
            let _span = obs::span!("perfbench.setup");
            set_up(inputs, passes, cfg)?
        };
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(prepared)
}

/// Runs complete passes over the circuits until `seconds` have passed
/// (and at least [`MIN_PASSES`]). Every pass repeats the same jobs.
pub fn run_loop(
    inputs: &[Input],
    passes: &str,
    seed: u64,
    seconds: f64,
) -> Result<LoopResult, String> {
    let mut res = LoopResult {
        setup: Vec::new(),
        jobs: Vec::new(),
        first: inputs.iter().map(|_| None).collect(),
        power: (0.0, 0.0),
    };
    let cfg = workload::batch_config(workload::pattern_seed(seed));
    let start = Instant::now();
    for pass in 0.. {
        if pass >= MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let prepared = timed_set_ups(&mut res.setup, inputs, passes, &cfg)?;
        for (i, mut p) in prepared.into_iter().enumerate() {
            let t = Instant::now();
            let (output, report) = {
                let _span = obs::span!(format!("perfbench.optimize.{}", inputs[i].name));
                optimize(&mut p)
            };
            let seconds = t.elapsed().as_secs_f64();
            if pass < MIN_PASSES {
                res.power.0 += report.initial_power;
                res.power.1 += report.final_power;
            }
            res.jobs.push(Job {
                circuit: i,
                seconds,
                hash: fnv64(output.as_bytes()),
            });
            res.first[i].get_or_insert(output);
        }
    }
    timed_set_ups(&mut res.setup, inputs, passes, &cfg)?;
    Ok(res)
}

/// The Table-1 library, shared by the correctness gate and the probes.
pub fn library() -> Arc<Library> {
    Arc::new(powder_library::lib2())
}

/// Generates every circuit of the workload as BLIF text.
pub fn generate(names: &[&str]) -> Result<Vec<Input>, String> {
    let lib = library();
    names
        .iter()
        .map(|&name| {
            let nl = powder_benchmarks::build(name, Arc::clone(&lib))
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Input {
                name: name.to_string(),
                blif: write_blif(&nl),
            })
        })
        .collect()
}
