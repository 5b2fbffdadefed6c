//! Scripted pass sequences with optional fixpoint iteration: the closed
//! set of passes, the [`Pipeline`] that runs them under one
//! [`OptimizeConfig`], and their reports.

use crate::checkpoint::{ResumePoint, RunCheckpoint};
use crate::egraph::egraph;
use crate::passes::{redundancy, resize, sweep};
use powder::{AnalysisSession, DelayLimit, OptimizeConfig, OptimizeReport, RoundHook};
use powder_egraph::EgraphConfig;
use powder_engine::{EngineStats, SessionStats};
use powder_obs as obs;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A destination for [`RunCheckpoint`]s the pipeline emits at committed
/// boundaries (the serving layer points this at a state directory).
pub type CheckpointSink = Arc<dyn Fn(RunCheckpoint) + Send + Sync>;

/// Pass names the pipeline language recognises, in canonical order.
pub const KNOWN_PASSES: &[&str] = &["sweep", "powder", "resize", "redundancy", "egraph"];

/// The closed set of passes, declared in [`KNOWN_PASSES`] order so a
/// pass's discriminant indexes its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pass {
    /// Constant propagation and duplicate merging keyed on simulation
    /// signatures.
    Sweep,
    /// The paper's Fig. 5 permissible-substitution loop.
    Powder,
    /// Slack-constrained cell downsizing.
    Resize,
    /// ATPG redundancy removal.
    Redundancy,
    /// Equality-saturation cone rewriting (DESIGN.md §9).
    Egraph,
}

impl Pass {
    /// Every pass, in [`KNOWN_PASSES`] order.
    const ALL: [Pass; 5] = [
        Pass::Sweep,
        Pass::Powder,
        Pass::Resize,
        Pass::Redundancy,
        Pass::Egraph,
    ];

    /// Pipeline-language name.
    fn name(self) -> &'static str {
        KNOWN_PASSES[self as usize]
    }
}

/// Parses a `--passes` list: every name must be one of [`KNOWN_PASSES`]
/// and the list must be non-empty (blank entries are skipped).
fn parse_passes(spec: &str) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let i = KNOWN_PASSES
            .iter()
            .position(|&known| known == name)
            .ok_or_else(|| {
                format!(
                    "unknown pass '{name}' (expected {})",
                    KNOWN_PASSES.join(", ")
                )
            })?;
        passes.push(Pass::ALL[i]);
    }
    if passes.is_empty() {
        return Err("empty pass list".to_string());
    }
    Ok(passes)
}

/// An ordered sequence of passes run against one shared
/// [`AnalysisSession`] under one [`OptimizeConfig`].
///
/// The config parameterizes every `powder` pass and supplies every
/// pass's ATPG backtrack limit. Its `deadline` and `stop` flag end the
/// run early: the pipeline checks both before each pass, POWDER between
/// rounds, and `egraph` checks `stop` between cones. The report flags
/// the early stop and describes the best-so-far state.
pub struct Pipeline {
    passes: Vec<Pass>,
    config: OptimizeConfig,
    egraph: EgraphConfig,
    /// Absolute required time of every `resize` pass (`None` = the
    /// circuit delay when the pass starts).
    resize_required: Option<f64>,
    /// How many times to repeat the whole sequence (the driver stops
    /// early once an iteration commits no edits).
    pub fixpoint: usize,
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
    /// Repeats the sequence up to `n` times (at least once), stopping
    /// early at a fixpoint.
    #[must_use]
    pub fn with_fixpoint(mut self, n: usize) -> Self {
        self.fixpoint = n.max(1);
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

    /// The run's configuration (its session is built from the same
    /// one, [`SessionConfig::from_optimize`](powder::SessionConfig::from_optimize)).
    #[must_use]
    pub fn config(&self) -> &OptimizeConfig {
        &self.config
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
            for (pass_idx, &pass) in self.passes.iter().enumerate().skip(skip) {
                if self.config.deadline.is_some_and(|d| Instant::now() >= d) {
                    deadline_hit = true;
                    break 'iterations;
                }
                if self
                    .config
                    .stop
                    .as_ref()
                    .is_some_and(|s| s.load(Ordering::Relaxed))
                {
                    interrupted = true;
                    break 'iterations;
                }
                // The first resumed pass is the one the checkpoint
                // interrupted mid-POWDER.
                let resumed =
                    (first_iter && pass_idx == skip && resume.mid_powder()).then_some(resume);
                let position = ResumePoint {
                    iteration: iter_idx,
                    passes_done: pass_idx,
                    iteration_edits,
                    ..ResumePoint::default()
                };
                let report = {
                    let _span =
                        obs::span!(format!("{}{}", obs::names::span::PASS_PREFIX, pass.name()));
                    obs::counter!(obs::names::PIPELINE_PASSES_RUN).inc();
                    self.run_pass(pass, sess, position, resumed)
                };
                iteration_edits += report.edits + resumed.map_or(0, |r| r.powder_commits);
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
                    let position = ResumePoint {
                        passes_done: pass_idx + 1,
                        iteration_edits,
                        ..position
                    };
                    sink(RunCheckpoint::capture(
                        position,
                        sess.netlist(),
                        sess.patterns(),
                    ));
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

    /// Runs one pass at `position` and measures it: power and area from
    /// the refreshed session on both sides, wall time, and the
    /// session-stat delta attributable to the pass. `resumed` is the
    /// checkpoint an interrupted POWDER pass resumes from: the pass runs
    /// only its remaining rounds, against the required time it
    /// originally resolved (re-resolving a `Factor` mid-run would move
    /// the goal).
    fn run_pass(
        &self,
        pass: Pass,
        sess: &mut AnalysisSession,
        position: ResumePoint,
        resumed: Option<ResumePoint>,
    ) -> PassReport {
        let t0 = Instant::now();
        // Refresh (via `power()`) before snapshotting the counters so
        // that repairs owed to a previous pass's trailing edits are not
        // billed to this one.
        let power_before = sess.power();
        let area_before = sess.netlist().area();
        let stats_before = sess.stats();
        let limit = self.config.backtrack_limit;
        let (mut optimize, mut egraph_report) = (None, None);
        let edits = match pass {
            Pass::Sweep => sweep(sess, limit),
            Pass::Redundancy => redundancy(sess, limit),
            Pass::Resize => resize(sess, self.resize_required),
            Pass::Egraph => {
                let er = egraph(sess, &self.egraph, limit, self.config.stop.as_deref());
                egraph_report = Some(er);
                er.applied
            }
            Pass::Powder => {
                let mut config = self.config.clone();
                let (rounds_off, commits_off) =
                    resumed.map_or((0, 0), |r| (r.powder_rounds_done, r.powder_commits));
                config.rounds_offset = rounds_off;
                if let Some(t) = resumed.and_then(|r| r.required_time) {
                    config.delay_limit = Some(DelayLimit::Absolute(t));
                }
                if let Some(sink) = &self.checkpoint_sink {
                    let sink = Arc::clone(sink);
                    config.round_hook = Some(RoundHook::new(move |snap| {
                        let position = ResumePoint {
                            powder_rounds_done: rounds_off + snap.rounds_done,
                            powder_commits: commits_off + snap.commits,
                            required_time: snap.required_time,
                            ..position
                        };
                        sink(RunCheckpoint::capture(position, snap.nl, snap.patterns));
                    }));
                }
                let report = sess.run_powder(&config);
                let edits = report.applied.len();
                optimize = Some(report);
                edits
            }
        };
        let power_after = sess.power();
        let area_after = sess.netlist().area();
        PassReport {
            name: pass.name().to_string(),
            power_before,
            power_after,
            area_before,
            area_after,
            edits,
            seconds: t0.elapsed().as_secs_f64(),
            session: sess.stats().delta(&stats_before),
            optimize,
            egraph: egraph_report,
        }
    }
}

/// What one pass did to the circuit, measured against the shared
/// session's analyses before and after.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Pass name (as accepted by the pipeline language).
    pub name: String,
    /// `Σ C·E` when the pass started.
    pub power_before: f64,
    /// `Σ C·E` when the pass finished.
    pub power_after: f64,
    /// Gate area before.
    pub area_before: f64,
    /// Gate area after.
    pub area_after: f64,
    /// Netlist edits the pass committed (substitutions, cell swaps, or
    /// gates removed).
    pub edits: usize,
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
    /// Analysis refreshes this pass caused: the session counter delta
    /// over the pass. A well-behaved pass performs zero
    /// `full_resims`/`full_power_builds` after the session's initial
    /// materialization — everything rides the edit journal.
    pub session: SessionStats,
    /// The full optimizer report, for passes that wrap the POWDER loop.
    pub optimize: Option<OptimizeReport>,
    /// Equality-saturation statistics, for the `egraph` pass.
    pub egraph: Option<powder_egraph::EgraphReport>,
}

impl PassReport {
    /// Power saved by this pass (positive = reduced).
    #[must_use]
    pub fn power_saved(&self) -> f64 {
        self.power_before - self.power_after
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} power {:.3} -> {:.3}, {} edits, {:.2}s \
             (resim {}i/{}f, power {}i/{}f, sta {}i/{}f)",
            self.name,
            self.power_before,
            self.power_after,
            self.edits,
            self.seconds,
            self.session.incremental_resims,
            self.session.full_resims,
            self.session.incremental_power_updates,
            self.session.full_power_builds,
            self.session.incremental_sta_updates,
            self.session.full_sta_builds,
        )
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
    parse_passes(spec).map(drop)
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
        &EgraphConfig::default(),
    )
}

/// Builds a pipeline from the comma-separated pass language used by
/// `powder optimize --passes`, run once (see [`Pipeline::with_fixpoint`]).
///
/// Recognised passes: [`KNOWN_PASSES`]. A pass may appear any number of
/// times. `powder_config` is the run's one configuration (see
/// [`Pipeline`]); `resize_required` pins the resize slack computation to
/// an absolute required time (`None` = the circuit delay when the pass
/// starts); `egraph_config` parameterizes every `egraph` pass.
pub fn build_pipeline_with(
    spec: &str,
    powder_config: &OptimizeConfig,
    resize_required: Option<f64>,
    egraph_config: &EgraphConfig,
) -> Result<Pipeline, String> {
    Ok(Pipeline {
        passes: parse_passes(spec)?,
        config: powder_config.clone(),
        egraph: *egraph_config,
        resize_required,
        fixpoint: 1,
        checkpoint_sink: None,
        resume: None,
    })
}
