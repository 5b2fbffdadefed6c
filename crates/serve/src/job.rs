//! Job model: submission parameters (with their one codec, validator
//! and run builder), the job state machine, and the shared per-job
//! record the daemon's threads coordinate through.

use crate::protocol::JsonObj;
use powder::{DelayLimit, OptimizeConfig};
use powder_egraph::EgraphConfig;
use powder_faults::FaultState;
use powder_netlist::{Netlist, WindowConfig};
use powder_obs::json::Value;
use powder_passes::{build_pipeline_with, validate_passes, Pipeline};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a client chooses about an optimization job: the
/// `powder optimize` run flags plus the submit-only `tenant`,
/// `priority` and `job_key`. `powder optimize` and the daemon both run
/// [`JobSpec::pipeline`], so a serve job runs the exact pipeline a
/// standalone CLI run with the same flags would.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Fair-scheduling bucket; the scheduler round-robins across
    /// tenants so one chatty client cannot starve the rest.
    pub tenant: String,
    /// Higher runs first (across all tenants); ties fall back to the
    /// tenant round-robin.
    pub priority: i64,
    /// Comma-separated pass pipeline (`sweep,powder,resize,redundancy`).
    pub passes: String,
    /// Fixpoint iterations of the pass sequence.
    pub fixpoint: usize,
    /// POWDER `repeat` knob (rounds per candidate generation).
    pub repeat: usize,
    /// Simulation patterns (rounded up to whole 64-bit words).
    pub patterns: usize,
    /// Pattern-generator seed.
    pub seed: u64,
    /// Requested evaluation workers; 0 = auto. The daemon may grant
    /// fewer under load (results are bit-identical at any count).
    pub jobs: usize,
    /// Delay degradation budget in percent (`--delay-limit`).
    pub delay_limit_percent: Option<f64>,
    /// Wall-clock budget in seconds, measured from each (re)start of
    /// execution.
    pub deadline_secs: Option<f64>,
    /// Windowed-optimization region size in gates (`--window-size`);
    /// `None` leaves the automatic policy in charge.
    pub window_size: Option<usize>,
    /// Read-only halo around each window (`--window-overlap`); must be
    /// smaller than the window size.
    pub window_overlap: Option<usize>,
    /// `egraph` pass: per-cone e-node budget (`--egraph-node-limit`);
    /// `None` uses the pass default.
    pub egraph_node_limit: Option<usize>,
    /// `egraph` pass: saturation iteration bound (`--egraph-iters`);
    /// `None` uses the pass default.
    pub egraph_iters: Option<usize>,
    /// Client-supplied idempotency key. Two submits carrying the same
    /// key deduplicate to one job at the daemon, so a client may
    /// safely retry a submit whose response it never saw.
    pub job_key: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            tenant: "default".to_string(),
            priority: 0,
            passes: "powder".to_string(),
            fixpoint: 1,
            repeat: 10,
            patterns: 1024,
            seed: 0xB0D1E5,
            jobs: 0,
            delay_limit_percent: None,
            deadline_secs: None,
            window_size: None,
            window_overlap: None,
            egraph_node_limit: None,
            egraph_iters: None,
            job_key: None,
        }
    }
}

/// Why a [`JobSpec`] was refused: the offending field and what is wrong
/// with its value. Displays as the wire reports it; the CLI names the
/// flag instead (`--` and the field with `-` for `_`).
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError {
    /// Wire name of the field.
    pub field: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field {:?}: {}", self.field, self.reason)
    }
}

/// The instant `secs` seconds from now. A span that is not a positive
/// number, or that no [`Instant`] can hold, is refused (naming `field`)
/// instead of panicking in `Duration::from_secs_f64` or `Instant + _`.
pub fn deadline_after(field: &'static str, secs: f64) -> Result<Instant, SpecError> {
    (secs > 0.0)
        .then(|| Duration::try_from_secs_f64(secs).ok())
        .flatten()
        .and_then(|span| Instant::now().checked_add(span))
        .ok_or_else(|| SpecError {
            field,
            reason: "must be a positive number of seconds that fits a deadline".to_string(),
        })
}

/// Reads the optional field `name` with `read`: absent or `null` gives
/// `None`, and a value `read` refuses is an error saying it must be
/// `expected` — never a rounded, saturated or skipped value.
fn field<T>(
    v: &Value,
    name: &'static str,
    expected: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Option<T>, SpecError> {
    match v.get(name) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => read(f).map(Some).ok_or_else(|| SpecError {
            field: name,
            reason: format!("must be {expected}"),
        }),
    }
}

impl JobSpec {
    /// Appends the spec's fields to `obj`: the one encoding of a spec,
    /// in submit requests and in persisted job records alike.
    #[must_use]
    pub fn encode(&self, obj: JsonObj) -> JsonObj {
        let opt = |n: Option<usize>| n.map(|n| n as u64);
        obj.str("tenant", &self.tenant)
            .i64("priority", self.priority)
            .str("passes", &self.passes)
            .u64("fixpoint", self.fixpoint as u64)
            .u64("repeat", self.repeat as u64)
            .u64("patterns", self.patterns as u64)
            .u64("seed", self.seed)
            .u64("jobs", self.jobs as u64)
            .opt_f64("delay_limit_percent", self.delay_limit_percent)
            .opt_f64("deadline_secs", self.deadline_secs)
            .opt_u64("window_size", opt(self.window_size))
            .opt_u64("window_overlap", opt(self.window_overlap))
            .opt_u64("egraph_node_limit", opt(self.egraph_node_limit))
            .opt_u64("egraph_iters", opt(self.egraph_iters))
            .opt_str("job_key", self.job_key.as_deref())
    }

    /// Decodes the spec fields of `v` (a submit request or a persisted
    /// job record; other keys are ignored), filling defaults for absent
    /// ones, and [validates](JobSpec::validate) the result.
    ///
    /// # Errors
    ///
    /// The first field with the wrong type or a refused value.
    pub fn decode(v: &Value) -> Result<JobSpec, SpecError> {
        let text = |name| field(v, name, "a string", |f| f.as_str().map(str::to_string));
        let uint = |name| {
            field(v, name, "a non-negative integer in range", |f| {
                f.as_u64().and_then(|n| usize::try_from(n).ok())
            })
        };
        let num = |name| field(v, name, "a number", Value::as_f64);
        let d = JobSpec::default();
        let spec = JobSpec {
            tenant: text("tenant")?.unwrap_or(d.tenant),
            priority: field(v, "priority", "an integer in range", Value::as_i64)?
                .unwrap_or(d.priority),
            passes: text("passes")?.unwrap_or(d.passes),
            fixpoint: uint("fixpoint")?.unwrap_or(d.fixpoint),
            repeat: uint("repeat")?.unwrap_or(d.repeat),
            patterns: uint("patterns")?.unwrap_or(d.patterns),
            seed: field(v, "seed", "a non-negative integer in range", Value::as_u64)?
                .unwrap_or(d.seed),
            jobs: uint("jobs")?.unwrap_or(d.jobs),
            delay_limit_percent: num("delay_limit_percent")?,
            deadline_secs: num("deadline_secs")?,
            window_size: uint("window_size")?,
            window_overlap: uint("window_overlap")?,
            egraph_node_limit: uint("egraph_node_limit")?,
            egraph_iters: uint("egraph_iters")?,
            job_key: text("job_key")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every value a run cannot take: an unknown or empty pass
    /// list, a deadline [`deadline_after`] refuses, a zero window size or
    /// e-graph bound, a window overlap not below the window size (the
    /// automatic policy's when none is given), and an empty job key.
    ///
    /// # Errors
    ///
    /// The first refused field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let refuse = |field, reason: &str| {
            Err(SpecError {
                field,
                reason: reason.to_string(),
            })
        };
        if let Err(e) = validate_passes(&self.passes) {
            return refuse("passes", &e);
        }
        if let Some(secs) = self.deadline_secs {
            deadline_after("deadline_secs", secs)?;
        }
        for (field, bound) in [
            ("window_size", self.window_size),
            ("egraph_node_limit", self.egraph_node_limit),
            ("egraph_iters", self.egraph_iters),
        ] {
            if bound == Some(0) {
                return refuse(field, "must be at least 1");
            }
        }
        if let Some(overlap) = self.window_overlap {
            let size = self.window_size.unwrap_or(WindowConfig::AUTO_SIZE);
            if overlap >= size {
                return refuse(
                    "window_overlap",
                    &format!("{overlap} must be smaller than the window size ({size})"),
                );
            }
        }
        if self.job_key.as_deref() == Some("") {
            return refuse("job_key", "must not be empty");
        }
        Ok(())
    }

    /// Builds the run this spec describes over `input`, the one builder
    /// `powder optimize` and the daemon's runner share. `jobs` is the
    /// worker count (the spec's own, or the daemon's grant), `stop` the
    /// cooperative stop flag, and `faults` the fault plan; the deadline
    /// starts now. The session to run it on is built from
    /// [`Pipeline::config`].
    ///
    /// # Errors
    ///
    /// A field [`JobSpec::validate`] refuses.
    pub fn pipeline(
        &self,
        input: &Netlist,
        jobs: usize,
        stop: Arc<AtomicBool>,
        faults: Option<Arc<FaultState>>,
    ) -> Result<Pipeline, SpecError> {
        self.validate()?;
        let factor = self.delay_limit_percent.map(|pct| 1.0 + pct / 100.0);
        let config = OptimizeConfig {
            repeat: self.repeat,
            sim_words: self.patterns.div_ceil(64).max(1),
            seed: self.seed,
            delay_limit: factor.map(DelayLimit::Factor),
            jobs,
            deadline: self
                .deadline_secs
                .map(|secs| deadline_after("deadline_secs", secs))
                .transpose()?,
            faults,
            stop: Some(stop),
            window_size: self.window_size,
            window_overlap: self.window_overlap,
            ..OptimizeConfig::default()
        };
        // The resize pass's slack budget is anchored to the delay of the
        // *input* circuit, so a resumed run keeps it.
        let resize_required = factor.map(|f| {
            let probe = TimingConfig {
                output_load: config.power.output_load,
                required_time: None,
            };
            f * TimingAnalysis::new(input, &probe).circuit_delay()
        });
        let defaults = EgraphConfig::default();
        let egraph = EgraphConfig {
            node_limit: self.egraph_node_limit.unwrap_or(defaults.node_limit),
            iter_limit: self.egraph_iters.unwrap_or(defaults.iter_limit),
        };
        let pipeline = build_pipeline_with(&self.passes, &config, resize_required, &egraph)
            .expect("validate checked the pass list");
        Ok(pipeline.with_fixpoint(self.fixpoint))
    }
}

/// The job state machine:
///
/// ```text
/// queued ──> running ──> checkpointed ──┬──> done
///    │          │  └────────────────────┼──> failed
///    │          └───────────────────────┼──> cancelled
///    └──────────────────────────────────┘
/// ```
///
/// `checkpointed` is `running` with at least one durable checkpoint on
/// disk: a daemon killed in that state resumes the job from its last
/// committed round on restart. A drained daemon parks in-flight jobs
/// back in `checkpointed` (or `queued` if no checkpoint was taken yet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the scheduler.
    Queued,
    /// Executing, no checkpoint persisted yet.
    Running,
    /// Executing (or parked by a drain) with a durable checkpoint.
    Checkpointed,
    /// Finished; result available.
    Done,
    /// Aborted with an error (available via status).
    Failed,
    /// Cancelled by the client; best-so-far state kept on disk.
    Cancelled,
}

impl JobPhase {
    /// Wire / persistence name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Checkpointed => "checkpointed",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Parses a persistence name.
    pub fn parse(s: &str) -> Result<JobPhase, String> {
        Ok(match s {
            "queued" => JobPhase::Queued,
            "running" => JobPhase::Running,
            "checkpointed" => JobPhase::Checkpointed,
            "done" => JobPhase::Done,
            "failed" => JobPhase::Failed,
            "cancelled" => JobPhase::Cancelled,
            other => return Err(format!("unknown job phase {other:?}")),
        })
    }

    /// Whether the job will make no further progress.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled
        )
    }
}

/// Mid-run progress counters, updated at committed boundaries.
#[derive(Clone, Debug, Default)]
pub struct Progress {
    /// Checkpoints persisted so far.
    pub checkpoints: u64,
    /// Fixpoint iteration of the last checkpoint.
    pub iteration: usize,
    /// Passes completed in that iteration.
    pub passes_done: usize,
    /// Rounds completed inside the in-progress POWDER pass.
    pub rounds_done: usize,
    /// Substitutions committed by that pass.
    pub commits: usize,
}

/// Mutable job state behind the record's lock.
#[derive(Debug)]
pub struct JobInner {
    /// Current phase.
    pub phase: JobPhase,
    /// Last reported progress.
    pub progress: Progress,
    /// Failure message when `phase == Failed`.
    pub error: Option<String>,
}

/// One job as shared between the acceptor, scheduler, runners, and
/// watchers. Cheap to clone via `Arc`.
#[derive(Debug)]
pub struct JobRecord {
    /// Daemon-unique job id (`j000042`).
    pub id: String,
    /// Submission parameters.
    pub spec: JobSpec,
    inner: Mutex<JobInner>,
    /// Cooperative stop flag for this job (cancel / drain).
    pub stop: Arc<AtomicBool>,
    /// Set when a client asked to cancel (distinguishes a cancel stop
    /// from a drain stop, which parks the job for resume instead).
    pub cancel_requested: AtomicBool,
    /// Bumped on every visible change; watchers poll it.
    revision: AtomicU64,
}

impl JobRecord {
    /// A fresh record in the given phase.
    #[must_use]
    pub fn new(id: String, spec: JobSpec, phase: JobPhase) -> Arc<JobRecord> {
        Arc::new(JobRecord {
            id,
            spec,
            inner: Mutex::new(JobInner {
                phase,
                progress: Progress::default(),
                error: None,
            }),
            stop: Arc::new(AtomicBool::new(false)),
            cancel_requested: AtomicBool::new(false),
            revision: AtomicU64::new(0),
        })
    }

    /// Runs `f` under the state lock and bumps the revision.
    pub fn update<R>(&self, f: impl FnOnce(&mut JobInner) -> R) -> R {
        let r = f(&mut self.inner.lock().expect("job lock"));
        self.revision.fetch_add(1, Ordering::Release);
        r
    }

    /// A consistent copy of the mutable state.
    pub fn read(&self) -> (JobPhase, Progress, Option<String>) {
        let g = self.inner.lock().expect("job lock");
        (g.phase, g.progress.clone(), g.error.clone())
    }

    /// Current phase only.
    pub fn phase(&self) -> JobPhase {
        self.inner.lock().expect("job lock").phase
    }

    /// Monotonic change counter for watchers.
    pub fn revision(&self) -> u64 {
        self.revision.load(Ordering::Acquire)
    }

    /// Requests cancellation: marks the intent and trips the stop flag.
    /// A queued job is reaped by the runner that dequeues it; a running
    /// job stops at its next committed boundary.
    pub fn request_cancel(&self) {
        self.cancel_requested.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        self.revision.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;

    /// A spec with every field away from its default.
    fn custom() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            priority: -3,
            passes: "sweep,egraph,powder".into(),
            fixpoint: 2,
            repeat: 4,
            patterns: 130,
            seed: u64::MAX,
            jobs: 3,
            delay_limit_percent: Some(12.5),
            deadline_secs: Some(60.0),
            window_size: Some(40),
            window_overlap: Some(5),
            egraph_node_limit: Some(64),
            egraph_iters: Some(2),
            job_key: Some("order-7".into()),
        }
    }

    #[test]
    fn validate_names_the_refused_field() {
        let base = JobSpec::default;
        let cases = [
            (
                "passes",
                JobSpec {
                    passes: "powder,frobnicate".into(),
                    ..base()
                },
            ),
            (
                "window_size",
                JobSpec {
                    window_size: Some(0),
                    ..base()
                },
            ),
            (
                "window_overlap",
                JobSpec {
                    window_size: Some(64),
                    window_overlap: Some(64),
                    ..base()
                },
            ),
            (
                "egraph_node_limit",
                JobSpec {
                    egraph_node_limit: Some(0),
                    ..base()
                },
            ),
            (
                "egraph_iters",
                JobSpec {
                    egraph_iters: Some(0),
                    ..base()
                },
            ),
            (
                "job_key",
                JobSpec {
                    job_key: Some(String::new()),
                    ..base()
                },
            ),
        ];
        for (field, spec) in cases {
            assert_eq!(spec.validate().unwrap_err().field, field);
        }
        for secs in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300] {
            let spec = JobSpec {
                deadline_secs: Some(secs),
                ..base()
            };
            assert_eq!(
                spec.validate().unwrap_err().field,
                "deadline_secs",
                "{secs}"
            );
        }
        assert!(custom().validate().is_ok());
    }

    /// The builder carries every run field into the pipeline's config.
    #[test]
    fn pipeline_carries_the_spec() {
        let nl = powder_benchmarks::build("c8", Arc::new(lib2())).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let spec = custom();
        let pipeline = spec.pipeline(&nl, 2, Arc::clone(&stop), None).unwrap();
        let cfg = pipeline.config();
        assert_eq!(pipeline.fixpoint, 2);
        assert_eq!(cfg.repeat, 4);
        assert_eq!(cfg.sim_words, 3, "130 patterns round up to 3 words");
        assert_eq!(cfg.seed, u64::MAX);
        assert_eq!(cfg.jobs, 2, "the granted worker count, not the spec's");
        assert_eq!(cfg.delay_limit, Some(DelayLimit::Factor(1.125)));
        assert!(cfg.deadline.is_some_and(|d| d > Instant::now()));
        assert!(Arc::ptr_eq(cfg.stop.as_ref().unwrap(), &stop));
        assert_eq!((cfg.window_size, cfg.window_overlap), (Some(40), Some(5)));
        let bad = JobSpec {
            passes: "egrap".into(),
            ..JobSpec::default()
        };
        assert!(bad.pipeline(&nl, 1, stop, None).is_err());
    }

    /// `egraph_node_limit` and `egraph_iters` reach the `egraph` pass:
    /// the built run saturates exactly as a pipeline given those bounds
    /// directly does, and unlike one at the default bounds.
    #[test]
    fn egraph_bounds_reach_the_pass() {
        let nl = powder_benchmarks::build("c8", Arc::new(lib2())).unwrap();
        let saturate = |mut pipeline: Pipeline| {
            let session = powder_passes::SessionConfig::from_optimize(pipeline.config());
            let mut sess = powder_passes::AnalysisSession::new(nl.clone(), session);
            pipeline.run(&mut sess).passes[0]
                .egraph
                .expect("egraph report")
        };
        let spec = JobSpec {
            passes: "egraph".into(),
            egraph_node_limit: Some(64),
            egraph_iters: Some(2),
            ..JobSpec::default()
        };
        let built = spec
            .pipeline(&nl, 1, Arc::new(AtomicBool::new(false)), None)
            .unwrap();
        let cfg = built.config().clone();
        let direct = |egraph: EgraphConfig| build_pipeline_with("egraph", &cfg, None, &egraph);
        let bounded = EgraphConfig {
            node_limit: 64,
            iter_limit: 2,
        };
        let served = saturate(built);
        assert_eq!(served, saturate(direct(bounded).unwrap()));
        assert_ne!(served, saturate(direct(EgraphConfig::default()).unwrap()));
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in [
            JobPhase::Queued,
            JobPhase::Running,
            JobPhase::Checkpointed,
            JobPhase::Done,
            JobPhase::Failed,
            JobPhase::Cancelled,
        ] {
            assert_eq!(JobPhase::parse(phase.as_str()).unwrap(), phase);
        }
        assert!(JobPhase::parse("zombie").is_err());
    }

    #[test]
    fn terminal_phases() {
        assert!(!JobPhase::Queued.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
        assert!(!JobPhase::Checkpointed.is_terminal());
        assert!(JobPhase::Done.is_terminal());
        assert!(JobPhase::Failed.is_terminal());
        assert!(JobPhase::Cancelled.is_terminal());
    }

    #[test]
    fn cancel_trips_stop_and_revision() {
        let job = JobRecord::new("j1".into(), JobSpec::default(), JobPhase::Queued);
        let r0 = job.revision();
        job.request_cancel();
        assert!(job.stop.load(Ordering::Acquire));
        assert!(job.cancel_requested.load(Ordering::Acquire));
        assert!(job.revision() > r0);
    }
}
