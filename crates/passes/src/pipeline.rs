//! Scripted pass sequences with optional fixpoint iteration.

use crate::checkpoint::{ResumePoint, RunCheckpoint};
use crate::egraph::EgraphPass;
use crate::passes::{PowderPass, RedundancyPass, ResizePass, SweepPass};
use crate::transform::{PassBudget, PassReport, Transform};
use powder::AnalysisSession;
use powder::{OptimizeConfig, RoundHook};
use powder_engine::{EngineStats, SessionStats};
use powder_obs as obs;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A destination for [`RunCheckpoint`]s the pipeline emits at committed
/// boundaries (the serving layer points this at a state directory).
pub type CheckpointSink = Arc<dyn Fn(RunCheckpoint) + Send + Sync>;

/// An ordered sequence of passes run against one shared
/// [`AnalysisSession`].
pub struct Pipeline {
    passes: Vec<Box<dyn Transform>>,
    /// Budget handed to every pass.
    pub budget: PassBudget,
    /// How many times to repeat the whole sequence (the driver stops
    /// early once an iteration commits no edits).
    pub fixpoint: usize,
    /// Optional wall-clock deadline: no further pass starts once it has
    /// passed, and the report flags the early stop. (Passes that honour
    /// a deadline internally — POWDER via `OptimizeConfig::deadline` —
    /// also stop mid-pass; the pipeline check bounds the rest.)
    pub deadline: Option<Instant>,
    /// Cooperative stop flag (SIGINT, daemon drain, job cancellation):
    /// checked before each pass and threaded into every pass's budget
    /// so POWDER stops between rounds. The report flags the interrupt
    /// and describes the best-so-far state.
    pub stop: Option<Arc<AtomicBool>>,
    /// Checkpoint destination. When set, the pipeline emits a
    /// [`RunCheckpoint`] after every completed POWDER round and after
    /// every completed pass.
    pub checkpoint_sink: Option<CheckpointSink>,
    /// Where to resume an interrupted run (from
    /// [`RunCheckpoint::position`]). The session handed to
    /// [`Pipeline::run`] must hold the checkpointed netlist and
    /// patterns (see [`RunCheckpoint::restore_session`]); completed
    /// iterations and passes are skipped, and an in-progress POWDER
    /// pass re-runs only its remaining rounds.
    pub resume: Option<ResumePoint>,
}

impl Pipeline {
    /// A pipeline over the given passes, run once with default budget.
    #[must_use]
    pub fn new(passes: Vec<Box<dyn Transform>>) -> Self {
        Pipeline {
            passes,
            budget: PassBudget::default(),
            fixpoint: 1,
            deadline: None,
            stop: None,
            checkpoint_sink: None,
            resume: None,
        }
    }

    /// Replaces the per-pass budget.
    #[must_use]
    pub fn with_budget(mut self, budget: PassBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Repeats the sequence up to `n` times (at least once), stopping
    /// early at a fixpoint.
    #[must_use]
    pub fn with_fixpoint(mut self, n: usize) -> Self {
        self.fixpoint = n.max(1);
        self
    }

    /// Sets the wall-clock deadline after which no further pass starts.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Installs the cooperative stop flag.
    #[must_use]
    pub fn with_stop(mut self, stop: Option<Arc<AtomicBool>>) -> Self {
        self.stop = stop;
        self
    }

    /// Installs the checkpoint sink.
    #[must_use]
    pub fn with_checkpoint_sink(mut self, sink: Option<CheckpointSink>) -> Self {
        self.checkpoint_sink = sink;
        self
    }

    /// Resumes from the given position instead of starting fresh.
    #[must_use]
    pub fn with_resume(mut self, resume: Option<ResumePoint>) -> Self {
        self.resume = resume;
        self
    }

    /// Names of the scheduled passes, in order.
    pub fn pass_names(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every scheduled pass (repeating per `fixpoint`) against the
    /// session and reports the accumulated effect.
    ///
    /// With a [`CheckpointSink`] installed, a [`RunCheckpoint`] is
    /// emitted at every committed boundary; with a [`ResumePoint`], the
    /// run continues an interrupted one from exactly that boundary (the
    /// session must hold the checkpointed netlist and patterns). A
    /// resumed run is bit-identical to the uninterrupted one at any
    /// `jobs` setting.
    pub fn run(&mut self, sess: &mut AnalysisSession) -> PipelineReport {
        let t0 = Instant::now();
        let _pipeline_span = obs::span!(obs::names::span::PIPELINE);
        let stats_before = sess.stats();
        let initial_power = sess.power();
        let initial_area = sess.netlist().area();
        let initial_delay = sess.delay();
        let mut passes = Vec::new();
        let mut engine = EngineStats::default();
        let mut iterations = 0usize;
        let mut deadline_hit = false;
        let mut interrupted = false;
        let past_deadline = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        let stop_set =
            |s: &Option<Arc<AtomicBool>>| s.as_ref().is_some_and(|s| s.load(Ordering::Relaxed));
        let resume = self.resume.unwrap_or_default();
        'iterations: for iter_idx in resume.iteration..self.fixpoint {
            iterations += 1;
            obs::counter!(obs::names::PIPELINE_ITERATIONS).inc();
            // A resumed run re-enters its first iteration mid-flight:
            // completed passes are skipped and their edit count seeds
            // the fixpoint termination test.
            let first_iter = iter_idx == resume.iteration;
            let skip = if first_iter { resume.passes_done } else { 0 };
            let mut iteration_edits = if first_iter {
                resume.iteration_edits
            } else {
                0
            };
            for (pass_idx, pass) in self.passes.iter_mut().enumerate().skip(skip) {
                if past_deadline(self.deadline) {
                    deadline_hit = true;
                    break 'iterations;
                }
                if stop_set(&self.stop) {
                    interrupted = true;
                    break 'iterations;
                }
                let mut budget = self.budget.clone();
                budget.stop = self.stop.clone();
                // The first resumed pass is the one the checkpoint
                // interrupted mid-POWDER: run only its remaining rounds
                // against the required time it originally resolved, and
                // count its pre-interrupt commits as this iteration's.
                let resumed_here = first_iter && pass_idx == skip && resume.mid_powder();
                let (rounds_off, commits_off) = if resumed_here {
                    budget.rounds_offset = resume.powder_rounds_done;
                    budget.required_time = resume.required_time;
                    (resume.powder_rounds_done, resume.powder_commits)
                } else {
                    (0, 0)
                };
                if let Some(sink) = &self.checkpoint_sink {
                    if pass.name() == "powder" {
                        let sink = sink.clone();
                        let position = ResumePoint {
                            iteration: iter_idx,
                            passes_done: pass_idx,
                            iteration_edits,
                            powder_rounds_done: 0,
                            powder_commits: 0,
                            required_time: None,
                        };
                        budget.round_hook = Some(RoundHook::new(move |snap| {
                            sink(RunCheckpoint {
                                position: ResumePoint {
                                    powder_rounds_done: rounds_off + snap.rounds_done,
                                    powder_commits: commits_off + snap.commits,
                                    required_time: snap.required_time,
                                    ..position
                                },
                                netlist: powder_netlist::write_snapshot(snap.nl),
                                pattern_bits: (0..snap.patterns.inputs())
                                    .map(|i| snap.patterns.input_bits(i).to_vec())
                                    .collect(),
                                pattern_tail: snap.patterns.tail_used(),
                            });
                        }));
                    }
                }
                let report = {
                    let _span =
                        obs::span!(format!("{}{}", obs::names::span::PASS_PREFIX, pass.name()));
                    obs::counter!(obs::names::PIPELINE_PASSES_RUN).inc();
                    pass.run(sess, &budget)
                };
                iteration_edits += report.edits + commits_off;
                obs::counter!(obs::names::PIPELINE_EDITS).add(report.edits as u64);
                let mut pass_stopped = false;
                let mut pass_deadline = false;
                if let Some(opt) = &report.optimize {
                    engine.merge(&opt.engine);
                    pass_stopped = opt.interrupted;
                    pass_deadline = opt.deadline_hit;
                }
                passes.push(report);
                if pass_stopped {
                    // Stopped between rounds: the state equals the last
                    // round checkpoint, so no boundary checkpoint (the
                    // pass did not complete).
                    interrupted = true;
                    break 'iterations;
                }
                if pass_deadline {
                    deadline_hit = true;
                    break 'iterations;
                }
                if let Some(sink) = &self.checkpoint_sink {
                    sess.refresh();
                    sink(RunCheckpoint {
                        position: ResumePoint {
                            iteration: iter_idx,
                            passes_done: pass_idx + 1,
                            iteration_edits,
                            powder_rounds_done: 0,
                            powder_commits: 0,
                            required_time: None,
                        },
                        netlist: powder_netlist::write_snapshot(sess.netlist()),
                        pattern_bits: (0..sess.patterns().inputs())
                            .map(|i| sess.patterns().input_bits(i).to_vec())
                            .collect(),
                        pattern_tail: sess.patterns().tail_used(),
                    });
                }
            }
            if iteration_edits == 0 {
                break;
            }
        }
        let final_power = sess.power();
        let final_area = sess.netlist().area();
        let final_delay = sess.delay();
        PipelineReport {
            passes,
            iterations,
            initial_power,
            final_power,
            initial_area,
            final_area,
            initial_delay,
            final_delay,
            seconds: t0.elapsed().as_secs_f64(),
            session: sess.stats().delta(&stats_before),
            engine,
            deadline_hit,
            interrupted,
        }
    }
}

/// The accumulated result of a [`Pipeline::run`].
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// One report per executed pass, in execution order (a fixpoint
    /// iteration contributes one entry per scheduled pass).
    pub passes: Vec<PassReport>,
    /// Fixpoint iterations actually executed.
    pub iterations: usize,
    /// `Σ C·E` before the first pass.
    pub initial_power: f64,
    /// `Σ C·E` after the last pass.
    pub final_power: f64,
    /// Gate area before.
    pub initial_area: f64,
    /// Gate area after.
    pub final_area: f64,
    /// Circuit delay before.
    pub initial_delay: f64,
    /// Circuit delay after.
    pub final_delay: f64,
    /// Wall-clock seconds for the whole pipeline.
    pub seconds: f64,
    /// Session refresh counters accumulated across every pass.
    pub session: SessionStats,
    /// Candidate-evaluation engine counters merged over every POWDER
    /// pass in the pipeline.
    pub engine: EngineStats,
    /// Whether the pipeline stopped early on its wall-clock deadline.
    pub deadline_hit: bool,
    /// Whether the pipeline stopped early on its cooperative stop flag
    /// (SIGINT, daemon drain, job cancellation). The report still
    /// describes the best-so-far state at a committed boundary.
    pub interrupted: bool,
}

impl PipelineReport {
    /// Total edits committed across all passes.
    #[must_use]
    pub fn total_edits(&self) -> usize {
        self.passes.iter().map(|p| p.edits).sum()
    }

    /// Power reduction as a percentage of the initial power.
    #[must_use]
    pub fn power_reduction_percent(&self) -> f64 {
        if self.initial_power <= 0.0 {
            0.0
        } else {
            100.0 * (self.initial_power - self.final_power) / self.initial_power
        }
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline: power {:.3} -> {:.3} ({:+.1}%), area {:.0} -> {:.0}, \
             delay {:.2} -> {:.2}, {} edits, {} iteration(s), {:.1}s",
            self.initial_power,
            self.final_power,
            -self.power_reduction_percent(),
            self.initial_area,
            self.final_area,
            self.initial_delay,
            self.final_delay,
            self.total_edits(),
            self.iterations,
            self.seconds,
        )?;
        for pass in &self.passes {
            writeln!(f, "  {pass}")?;
        }
        write!(
            f,
            "  session: resim {}i/{}f, power {}i/{}f, sta {}i/{}f, {} refreshes",
            self.session.incremental_resims,
            self.session.full_resims,
            self.session.incremental_power_updates,
            self.session.full_power_builds,
            self.session.incremental_sta_updates,
            self.session.full_sta_builds,
            self.session.refreshes,
        )?;
        if self.deadline_hit {
            write!(f, "\n  deadline hit: pipeline stopped early")?;
        }
        if self.interrupted {
            write!(f, "\n  interrupted: best-so-far result emitted")?;
        }
        Ok(())
    }
}

/// Pass names the pipeline language recognises, in canonical order.
pub const KNOWN_PASSES: &[&str] = &["sweep", "powder", "resize", "redundancy", "egraph"];

/// Checks a `--passes` spec without building anything: every name must
/// be one of [`KNOWN_PASSES`] and the list must be non-empty. Callers
/// (the CLI, the daemon's submit validation) use this to fail fast at
/// parse time.
///
/// # Errors
///
/// Returns a message naming the offending pass and listing the valid
/// ones.
pub fn validate_passes(spec: &str) -> Result<(), String> {
    let mut any = false;
    for name in spec.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        if !KNOWN_PASSES.contains(&name) {
            return Err(format!(
                "unknown pass '{name}' (expected {})",
                KNOWN_PASSES.join(", ")
            ));
        }
        any = true;
    }
    if !any {
        return Err("empty pass list".to_string());
    }
    Ok(())
}

/// Builds a pipeline from the comma-separated pass language used by
/// `powder optimize --passes`, with default egraph tuning. See
/// [`build_pipeline_with`].
pub fn build_pipeline(
    spec: &str,
    powder_config: &OptimizeConfig,
    resize_required: Option<f64>,
) -> Result<Pipeline, String> {
    build_pipeline_with(
        spec,
        powder_config,
        resize_required,
        &powder_egraph::EgraphConfig::default(),
    )
}

/// Builds a pipeline from the comma-separated pass language used by
/// `powder optimize --passes`.
///
/// Recognised passes: [`KNOWN_PASSES`]. A pass may appear any number of
/// times. `powder_config` parameterizes every `powder` pass (and
/// supplies the ATPG budget for the others); `resize_required` pins the
/// resize slack computation to an absolute required time (`None` = the
/// circuit delay when the pass starts); `egraph_config` parameterizes
/// every `egraph` pass.
pub fn build_pipeline_with(
    spec: &str,
    powder_config: &OptimizeConfig,
    resize_required: Option<f64>,
    egraph_config: &powder_egraph::EgraphConfig,
) -> Result<Pipeline, String> {
    validate_passes(spec)?;
    let mut passes: Vec<Box<dyn Transform>> = Vec::new();
    for name in spec.split(',') {
        let name = name.trim();
        match name {
            "sweep" => passes.push(Box::new(SweepPass)),
            "powder" => passes.push(Box::new(PowderPass::new(powder_config.clone()))),
            "resize" => passes.push(Box::new(ResizePass::new(resize_required))),
            "redundancy" => passes.push(Box::new(RedundancyPass)),
            "egraph" => passes.push(Box::new(EgraphPass::new(*egraph_config))),
            _ => {}
        }
    }
    let budget = PassBudget {
        backtrack_limit: powder_config.backtrack_limit,
        ..PassBudget::default()
    };
    Ok(Pipeline::new(passes).with_budget(budget))
}
