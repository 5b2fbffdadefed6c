//! Per-layer numbers for the traced run. Times come from spans the
//! benchmark opens around calls into each layer's public functions;
//! counts come from the reports those calls return and from the
//! existing `powder_obs` counters.

use crate::batch::{library, Input};
use crate::stats::{median, Metrics};
use powder::apply::apply_substitution;
use powder::{OptimizeConfig, OptimizeReport};
use powder_atpg::{check_substitution, generate_candidates, CheckOutcome};
use powder_netlist::blif::{read_blif, write_blif};
use powder_obs as obs;
use powder_passes::{build_pipeline_with, AnalysisSession, PipelineReport, SessionConfig};
use powder_power::PowerEstimator;
use powder_sim::{simulate, stem_observability_all, CellCovers, Patterns};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in reporting order. The unit follows from
/// the name's suffix (see [`unit`]). A layer a workload does not run
/// reports 0.
const METRICS: &[&str] = &[
    "atpg.candidates_ms",
    "atpg.candidates",
    "sim.observability_ms",
    "passes.sweep_ms",
    "passes.sweep.edits",
    "passes.egraph_ms",
    "passes.egraph.edits",
    "passes.powder_ms",
    "passes.powder.edits",
    "passes.resize_ms",
    "passes.resize.edits",
    "passes.redundancy_ms",
    "passes.redundancy.edits",
    "passes.redundancy.atpg_checks",
    "passes.redundancy.commit_ratio",
    "passes.session_new_ms",
    "session.full_resims",
    "session.incremental_resims",
    "egraph.cones",
    "egraph.nodes",
    "egraph.applied",
    "egraph.rejected",
    "egraph.accept_ratio",
    "atpg.proof_ms",
    "atpg.proofs",
    "core.atpg_checks",
    "core.atpg_rejections",
    "core.atpg_accept_ratio",
    "core.rounds",
    "core.commits",
    "core.delay_rejections",
    "core.guard.rollbacks",
    "core.apply_ms",
    "core.phase.simulation_s",
    "core.phase.candidates_s",
    "core.phase.gain_s",
    "core.phase.timing_s",
    "core.phase.atpg_s",
    "core.phase.apply_s",
    "engine.evaluated",
    "engine.filtered",
    "engine.proved",
    "core.windowed_ms",
    "core.windows",
    "core.window.scope_gates_max",
    "netlist.read_blif_ms",
    "netlist.write_blif_ms",
    "netlist.input_gates",
    "sim.simulate_ms",
    "power.estimate_ms",
    "timing.sta_ms",
    "latency_p50_s",
    "latency_p90_s",
    "jobs_per_min",
    "serve.submit_ms",
    "serve.queue_wait_s",
    "serve.run_s",
    "serve.result_ms",
    "serve.checkpoints",
    "serve.shed",
    "serve.retries",
    "atpg.equiv_ms",
    "atpg.equiv.undecided",
    "host.probe_ms",
    "trace.overhead_pct",
];

fn unit(name: &str) -> &'static str {
    [
        ("_ms", "ms"),
        ("_s", "s"),
        ("_ratio", "ratio"),
        ("_pct", "%"),
        ("_per_min", "1/min"),
    ]
    .iter()
    .find(|(suffix, _)| name.ends_with(suffix))
    .map_or("count", |&(_, u)| u)
}

/// Window size of the windowed-driver probe, in gates.
const WINDOW_GATES: usize = 64;

/// Repeats of each cheap analysis call; the median is kept.
const REPS: usize = 5;

/// Milliseconds of `f`, inside a span named `name`; median of `reps`.
fn timed_ms<T>(name: &str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let _span = obs::span!(format!("perfbench.{name}"));
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&samples), last.expect("at least one repeat"))
}

fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Per-layer numbers, summed over a workload's circuits.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn add(&mut self, name: impl Into<String>, v: f64) {
        *self.0.entry(name.into()).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Adds the counts of an optimizer report (one POWDER pass).
    fn add_optimize(&mut self, r: &OptimizeReport) {
        self.add("core.rounds", r.rounds as f64);
        self.add("core.commits", r.applied.len() as f64);
        self.add("core.atpg_checks", r.atpg_checks as f64);
        self.add("core.atpg_rejections", r.atpg_rejections as f64);
        self.add("core.delay_rejections", r.delay_rejections as f64);
        self.add("core.guard.rollbacks", r.guard.rollbacks as f64);
        self.add("core.phase.simulation_s", r.phase.simulation);
        self.add("core.phase.candidates_s", r.phase.candidates);
        self.add("core.phase.gain_s", r.phase.gain);
        self.add("core.phase.timing_s", r.phase.timing);
        self.add("core.phase.atpg_s", r.phase.atpg);
        self.add("core.phase.apply_s", r.phase.apply);
        self.add("engine.evaluated", r.engine.evaluated as f64);
        self.add("engine.filtered", r.engine.filtered as f64);
        self.add("engine.proved", r.engine.proved as f64);
    }

    /// Adds the counts a pipeline run reports.
    fn add_pipeline(&mut self, r: &PipelineReport) {
        for pass in &r.passes {
            if let Some(opt) = &pass.optimize {
                self.add_optimize(opt);
            }
            if let Some(eg) = &pass.egraph {
                self.add("egraph.cones", eg.cones as f64);
                self.add("egraph.nodes", eg.nodes as f64);
                self.add("egraph.applied", eg.applied as f64);
                self.add("egraph.rejected", eg.rejected as f64);
                self.add("egraph.rollbacks", eg.rollbacks as f64);
            }
        }
        self.add("session.full_resims", r.session.full_resims as f64);
        self.add(
            "session.incremental_resims",
            r.session.incremental_resims as f64,
        );
    }

    /// Runs every layer probe on one circuit: the analyses on its input,
    /// its passes as single-pass pipelines on one session, and a replay
    /// of POWDER's committed substitutions through the proof and apply
    /// calls. `output` is the circuit's optimized BLIF from the timed run.
    /// Returns the BLIF the single-pass pipelines produced.
    pub fn probe(
        &mut self,
        input: &Input,
        output: &str,
        passes: &str,
        cfg: &OptimizeConfig,
        resize_required: Option<f64>,
    ) -> Result<String, String> {
        let lib = library();
        let (ms, nl) = timed_ms("netlist.read_blif", REPS, || {
            read_blif(&input.blif, Arc::clone(&lib))
        });
        let nl = nl.map_err(|e| e.to_string())?;
        self.add("netlist.read_blif_ms", ms);
        self.add("netlist.input_gates", nl.cell_count() as f64);
        let out = read_blif(output, Arc::clone(&lib)).map_err(|e| e.to_string())?;
        let (ms, _) = timed_ms("netlist.write_blif", REPS, || write_blif(&out));
        self.add("netlist.write_blif_ms", ms);

        let covers = CellCovers::new(&lib);
        let patterns = Patterns::random(nl.inputs().len(), cfg.sim_words, cfg.seed);
        let (ms, values) = timed_ms("sim.simulate", REPS, || simulate(&nl, &covers, &patterns));
        self.add("sim.simulate_ms", ms);
        let (ms, _) = timed_ms("sim.observability", 1, || {
            stem_observability_all(&nl, &covers, &values)
        });
        self.add("sim.observability_ms", ms);
        let (ms, cands) = timed_ms("atpg.candidates", 1, || {
            generate_candidates(&nl, &covers, &values, &cfg.candidates)
        });
        self.add("atpg.candidates_ms", ms);
        self.add("atpg.candidates", cands.len() as f64);
        let (ms, _) = timed_ms("power.estimate", REPS, || {
            PowerEstimator::new(&nl, &cfg.power)
        });
        self.add("power.estimate_ms", ms);
        let (ms, _) = timed_ms("timing.sta", REPS, || {
            TimingAnalysis::new(&nl, &TimingConfig::default())
        });
        self.add("timing.sta_ms", ms);

        // Each pass as its own pipeline on one session, so every pass
        // gets its own outside span.
        let (ms, mut sess) = timed_ms("passes.session_new", 1, || {
            AnalysisSession::new(nl.clone(), SessionConfig::from_optimize(cfg))
        });
        self.add("passes.session_new_ms", ms);
        let egraph_cfg = powder_egraph::EgraphConfig::default();
        let mut replay = None;
        for name in passes.split(',') {
            let mut pipeline = build_pipeline_with(name, cfg, resize_required, &egraph_cfg)?;
            let before = sess.netlist().clone();
            let checks0 = obs::snapshot().counter(obs::names::PASSES_ATPG_CHECKS);
            let (ms, report) = timed_ms(&format!("passes.{name}"), 1, || pipeline.run(&mut sess));
            let checks = obs::snapshot().counter(obs::names::PASSES_ATPG_CHECKS) - checks0;
            self.add(format!("passes.{name}_ms"), ms);
            let edits: usize = report.passes.iter().map(|p| p.edits).sum();
            self.add(format!("passes.{name}.edits"), edits as f64);
            self.add(format!("passes.{name}.atpg_checks"), checks as f64);
            self.add_pipeline(&report);
            if let Some(opt) = report.passes.iter().find_map(|p| p.optimize.clone()) {
                replay = Some((before, opt));
            }
        }

        // The windowed driver (window cuts, scoped proofs) on the same
        // input, with windows forced small enough to cut these circuits.
        if passes.split(',').any(|p| p == "powder") {
            let wcfg = OptimizeConfig {
                window_size: Some(WINDOW_GATES),
                window_overlap: Some(WINDOW_GATES / 8),
                ..cfg.clone()
            };
            let mut pipeline = build_pipeline_with("powder", &wcfg, None, &egraph_cfg)?;
            let mut wsess = AnalysisSession::new(nl.clone(), SessionConfig::from_optimize(&wcfg));
            let (ms, report) = timed_ms("core.windowed", 1, || pipeline.run(&mut wsess));
            self.add("core.windowed_ms", ms);
            for opt in report.passes.iter().filter_map(|p| p.optimize.as_ref()) {
                self.add("core.windows", opt.windows.len() as f64);
                let widest = opt.windows.iter().map(|w| w.scope_gates).max().unwrap_or(0);
                let max = self.get("core.window.scope_gates_max").max(widest as f64);
                self.set("core.window.scope_gates_max", max);
            }
        }

        // Replay POWDER's commits in order: prove each, then apply it.
        if let Some((mut nl, report)) = replay {
            for a in &report.applied {
                let sub = &a.substitution;
                if !sub.is_structurally_valid(&nl) {
                    eprintln!(
                        "perfbench: {}: replay stopped at invalid {sub:?}",
                        input.name
                    );
                    break;
                }
                let (ms, outcome) = timed_ms("atpg.proof", 1, || {
                    check_substitution(&nl, sub, cfg.backtrack_limit)
                });
                self.add("atpg.proof_ms", ms);
                self.add("atpg.proofs", 1.0);
                if !matches!(outcome, CheckOutcome::Permissible) {
                    eprintln!(
                        "perfbench: {}: replayed commit {sub:?} gave {outcome:?}",
                        input.name
                    );
                }
                let (ms, _) = timed_ms("core.apply", 1, || apply_substitution(&mut nl, sub));
                self.add("core.apply_ms", ms);
            }
        }
        Ok(write_blif(sess.netlist()))
    }

    /// Every per-layer metric, in a fixed order, with its unit.
    pub fn metrics(&self) -> Metrics {
        let mut all = Layers(self.0.clone());
        all.set(
            "passes.redundancy.commit_ratio",
            ratio(
                self.get("passes.redundancy.edits"),
                self.get("passes.redundancy.atpg_checks"),
            ),
        );
        let tried =
            self.get("egraph.applied") + self.get("egraph.rejected") + self.get("egraph.rollbacks");
        all.set(
            "egraph.accept_ratio",
            ratio(self.get("egraph.applied"), tried),
        );
        let checks = self.get("core.atpg_checks");
        all.set(
            "core.atpg_accept_ratio",
            ratio(checks - self.get("core.atpg_rejections"), checks),
        );
        let mut m = Metrics::default();
        for &name in METRICS {
            m.put(name, all.get(name), unit(name));
        }
        m
    }
}
