//! The serve daemon: TCP accept loop, runner pool, job execution,
//! durable checkpointing, and graceful drain.
//!
//! # Execution model
//!
//! - One acceptor (the calling thread) plus one handler thread per
//!   connection for the line-JSON protocol.
//! - `max_active` runner threads pull jobs from the fair
//!   [`Scheduler`]; each runner leases evaluation threads from a
//!   shared [`ThreadBudget`] so concurrent jobs shrink their worker
//!   pools instead of oversubscribing the machine. Shrinking is safe:
//!   POWDER's results are bit-identical at any worker count.
//! - A job runs the pipeline [`JobSpec::pipeline`] builds, the one
//!   `powder optimize` runs for the same flags, so a serve result is
//!   bit-identical to a standalone CLI run with the same spec (and
//!   faults off).
//!
//! # Durability
//!
//! Every committed POWDER round and pass boundary emits a
//! [`RunCheckpoint`] which is persisted atomically before the run
//! proceeds. A daemon killed at any instant — including via the
//! `serve-crash` fault site, which exits the process from *inside*
//! the checkpoint sink — restarts, re-discovers non-terminal jobs
//! from the state directory, and resumes each from its last
//! checkpoint. Resumed runs complete bit-identically to uninterrupted
//! ones.
//!
//! # Shutdown
//!
//! SIGTERM/SIGINT or the `shutdown` op trigger a drain: the listener
//! stops accepting, every running job's stop flag is tripped, jobs
//! park at their next committed boundary with a durable checkpoint,
//! and queued jobs simply stay `queued` on disk. A watchdog bounds the
//! drain to [`ServeConfig::drain_deadline_secs`]; past it the process
//! exits anyway — the durable state is checkpoint-complete at every
//! instant, so a forced exit is just a controlled crash the resume
//! path already handles. `shutdown` with mode `"now"` skips the drain
//! entirely.
//!
//! # Overload
//!
//! Every network edge is bounded: connections carry read/write
//! timeouts and an idle reaper, request lines are size-capped, and
//! the submit path sheds load with a structured `overloaded` error
//! (plus a `retry_after_ms` hint) once the queue reaches
//! [`ServeConfig::max_queued`]. Shed work is the client's to retry —
//! nothing is buffered past the bound, so memory stays flat no matter
//! the offered load.

use crate::error::ErrorCode;
use crate::job::{JobPhase, JobRecord, JobSpec, Progress};
use crate::protocol::{self, JsonObj, Request};
use crate::scheduler::Scheduler;
use crate::signal;
use crate::store::JobStore;
use powder_engine::{resolve_jobs, ThreadBudget};
use powder_faults::{fires, FaultState, SITE_SERVE_CRASH, SITE_SERVE_HOLD};
use powder_library::Library;
use powder_netlist::blif::{read_blif, write_blif};
use powder_obs as obs;
use powder_passes::{AnalysisSession, PipelineReport, RunCheckpoint, SessionConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration (the `powder serve` flags).
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks a free port; the bound
    /// address is printed and written to `<state>/addr`).
    pub listen: String,
    /// State directory for durable job state.
    pub state_dir: PathBuf,
    /// Concurrent jobs (runner threads).
    pub max_active: usize,
    /// Gate library jobs are optimized against.
    pub library: Arc<Library>,
    /// Total evaluation threads shared by all running jobs; 0 = the
    /// machine's hardware parallelism.
    pub threads: usize,
    /// Daemon-level fault plan (`POWDER_FAULTS`): drives the
    /// `serve-crash` and `serve-hold` sites, the store's post-write
    /// corruption sites, and — when the plan names optimizer sites —
    /// the job pipelines themselves (the chaos leg). A plan naming
    /// only serve/store sites never perturbs a job's optimizer
    /// decisions, so bit-identity to standalone runs holds for those
    /// plans.
    pub faults: Option<Arc<FaultState>>,
    /// Admission-control bound: submits arriving while this many jobs
    /// are already queued are shed with an `overloaded` error.
    pub max_queued: usize,
    /// Largest accepted request line in bytes; longer requests get a
    /// `too-large` error and the connection closes.
    pub max_request_bytes: usize,
    /// Per-connection read deadline in seconds: a connection idle
    /// (sending nothing) past this is reaped with a `timeout` error.
    pub read_timeout_secs: f64,
    /// Per-connection write deadline in seconds: a client not
    /// consuming responses past this loses the connection instead of
    /// wedging a handler thread.
    pub write_timeout_secs: f64,
    /// Drain watchdog: seconds a graceful drain may take before the
    /// process exits with whatever durable state the checkpoint sinks
    /// have already committed.
    pub drain_deadline_secs: f64,
}

impl ServeConfig {
    /// Config with defaults for everything but the state directory.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>, library: Arc<Library>) -> ServeConfig {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            max_active: 2,
            library,
            threads: 0,
            faults: None,
            max_queued: 64,
            max_request_bytes: 16 << 20,
            read_timeout_secs: 30.0,
            write_timeout_secs: 30.0,
            drain_deadline_secs: 60.0,
        }
    }
}

/// Retry-after hint handed to shed clients, scaled by how far past
/// capacity the queue is (deterministic, so tests can assert on it).
fn retry_after_ms(queued: usize, max_queued: usize) -> u64 {
    let over = queued.saturating_sub(max_queued) as u64;
    (200 + 50 * over).min(2_000)
}

/// Daemon-wide counters exposed by the `metrics` op.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    resumed: AtomicU64,
    shed: AtomicU64,
    corrupt_recovered: AtomicU64,
}

struct Shared {
    store: JobStore,
    scheduler: Arc<Scheduler>,
    jobs: Mutex<BTreeMap<String, Arc<JobRecord>>>,
    /// Idempotency map: client-supplied `job_key` → job id. Populated
    /// on submit and from persisted specs at recovery, so retrying a
    /// submit across a daemon restart still deduplicates.
    job_keys: Mutex<BTreeMap<String, String>>,
    next_id: AtomicU64,
    budget: Arc<ThreadBudget>,
    library: Arc<Library>,
    faults: Option<Arc<FaultState>>,
    counters: Counters,
    max_queued: usize,
    /// Set by `shutdown`, SIGTERM, or SIGINT; the accept loop drains.
    draining: Arc<AtomicBool>,
}

impl Shared {
    fn job(&self, id: &str) -> Option<Arc<JobRecord>> {
        self.jobs.lock().expect("jobs lock").get(id).cloned()
    }

    fn register(&self, job: Arc<JobRecord>) {
        if let Some(key) = &job.spec.job_key {
            self.job_keys
                .lock()
                .expect("job_keys lock")
                .insert(key.clone(), job.id.clone());
        }
        self.jobs
            .lock()
            .expect("jobs lock")
            .insert(job.id.clone(), job);
    }
}

/// Runs the daemon until shutdown. Returns the error that stopped it,
/// if any; a clean drain returns `Ok(())`.
pub fn run(config: ServeConfig) -> Result<(), String> {
    let store = JobStore::open(&config.state_dir)
        .map_err(|e| format!("state dir {}: {e}", config.state_dir.display()))?
        .with_faults(config.faults.clone());
    let scheduler = Scheduler::new();
    let threads = if config.threads == 0 {
        powder_engine::hardware_threads()
    } else {
        config.threads
    };
    let shared = Arc::new(Shared {
        next_id: AtomicU64::new(store.next_id().map_err(|e| e.to_string())?),
        store,
        scheduler: Arc::clone(&scheduler),
        jobs: Mutex::new(BTreeMap::new()),
        job_keys: Mutex::new(BTreeMap::new()),
        budget: ThreadBudget::new(threads),
        library: Arc::clone(&config.library),
        faults: config.faults.clone(),
        counters: Counters::default(),
        max_queued: config.max_queued.max(1),
        // Register the SIGINT/SIGTERM handlers, but give each daemon
        // its own drain flag: `signal::stop_requested` mirrors the
        // process-global signal flag in, while a `shutdown` request
        // against *this* daemon must not pre-drain a daemon started
        // later in the same process (in-process tests do this).
        draining: {
            let _ = signal::install_stop_flag();
            Arc::new(AtomicBool::new(false))
        },
    });

    recover_jobs(&shared)?;

    let listener =
        TcpListener::bind(&config.listen).map_err(|e| format!("bind {}: {e}", config.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    shared
        .store
        .write_addr(&addr)
        .map_err(|e| format!("write addr file: {e}"))?;
    // The e2e harness and shell scripts scrape this line.
    println!("listening on {addr}");

    let runners: Vec<_> = (0..config.max_active.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-runner-{i}"))
                .spawn(move || runner_loop(&shared))
                .expect("spawn runner")
        })
        .collect();

    let read_timeout = Duration::from_secs_f64(config.read_timeout_secs.max(0.01));
    let write_timeout = Duration::from_secs_f64(config.write_timeout_secs.max(0.01));
    let max_request = config.max_request_bytes.max(1024);
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    loop {
        if signal::stop_requested(&shared.draining) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // Time-bound both directions before the handler ever
                // touches the stream: an idle client is reaped by the
                // read deadline, a non-consuming one by the write
                // deadline. Neither can wedge a handler thread.
                let _ = stream.set_read_timeout(Some(read_timeout));
                let _ = stream.set_write_timeout(Some(write_timeout));
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || handle_conn(stream, &shared, max_request))
                    .expect("spawn connection handler");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }

    // Drain: runners see the shutdown scheduler and the per-job stop
    // flags; running jobs park at their next committed boundary. A
    // watchdog bounds the whole phase — durable state is
    // checkpoint-complete at every instant, so exiting past the
    // deadline is a controlled crash the resume path handles.
    eprintln!("serve: draining ({} queued)", scheduler.queued());
    obs::counter!(obs::names::SERVE_DRAIN).inc();
    let drained = Arc::new(AtomicBool::new(false));
    {
        let drained = Arc::clone(&drained);
        let deadline =
            Instant::now() + Duration::from_secs_f64(config.drain_deadline_secs.max(0.1));
        std::thread::Builder::new()
            .name("serve-drain-watchdog".to_string())
            .spawn(move || {
                while Instant::now() < deadline {
                    if drained.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                eprintln!("serve: drain deadline exceeded; exiting with durable state");
                std::process::exit(0);
            })
            .expect("spawn drain watchdog");
    }
    scheduler.shutdown();
    for job in shared.jobs.lock().expect("jobs lock").values() {
        if !job.phase().is_terminal() {
            job.stop.store(true, Ordering::Release);
        }
    }
    for r in runners {
        let _ = r.join();
    }
    drained.store(true, Ordering::Release);
    eprintln!("serve: drained");
    Ok(())
}

/// Re-discovers jobs from the state directory at startup. Every
/// record is integrity-verified on the way in; a job whose current
/// artifacts failed verification but recovered from a last-good copy
/// (or re-runs cleanly) counts one `serve.corrupt_recovered`.
fn recover_jobs(shared: &Shared) -> Result<(), String> {
    for rec in shared.store.recover().map_err(|e| e.to_string())? {
        let phase = if rec.phase.is_terminal() {
            rec.phase
        } else if rec.checkpoint.is_some() {
            JobPhase::Checkpointed
        } else {
            JobPhase::Queued
        };
        if rec.quarantined > 0 {
            shared
                .counters
                .corrupt_recovered
                .fetch_add(1, Ordering::Relaxed);
            obs::counter!(obs::names::SERVE_CORRUPT_RECOVERED).inc();
            eprintln!(
                "serve: {} recovered past {} corrupt artifact(s)",
                rec.id, rec.quarantined
            );
        }
        let job = JobRecord::new(rec.id.clone(), rec.spec, phase);
        if !phase.is_terminal() {
            eprintln!(
                "serve: recovering {} ({}{})",
                rec.id,
                phase.as_str(),
                if rec.checkpoint.is_some() {
                    ", has checkpoint"
                } else {
                    ""
                }
            );
            shared.counters.resumed.fetch_add(1, Ordering::Relaxed);
            shared.scheduler.enqueue(Arc::clone(&job));
        }
        shared.register(job);
    }
    Ok(())
}

// ---------------------------------------------------------------- runners

fn runner_loop(shared: &Shared) {
    while let Some(job) = shared.scheduler.next() {
        if job.cancel_requested.load(Ordering::Acquire) {
            finish_cancelled(shared, &job);
            continue;
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, &job)));
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => fail_job(shared, &job, &e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                fail_job(shared, &job, &format!("panic: {msg}"));
            }
        }
    }
}

fn fail_job(shared: &Shared, job: &JobRecord, error: &str) {
    shared.counters.failed.fetch_add(1, Ordering::Relaxed);
    job.update(|s| {
        s.phase = JobPhase::Failed;
        s.error = Some(error.to_string());
    });
    let _ = shared
        .store
        .write_state(&job.id, &job.spec, JobPhase::Failed, Some(error));
    eprintln!("serve: {} failed: {error}", job.id);
}

fn finish_cancelled(shared: &Shared, job: &JobRecord) {
    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    job.update(|s| s.phase = JobPhase::Cancelled);
    let _ = shared
        .store
        .write_state(&job.id, &job.spec, JobPhase::Cancelled, None);
}

/// Serializes a pipeline report as the job's `report.json`.
fn report_json(report: &PipelineReport) -> String {
    let reduction = if report.initial_power > 0.0 {
        (1.0 - report.final_power / report.initial_power) * 100.0
    } else {
        0.0
    };
    JsonObj::new()
        .u64("iterations", report.iterations as u64)
        .u64("total_edits", report.total_edits() as u64)
        .f64("initial_power", report.initial_power)
        .f64("final_power", report.final_power)
        .f64("power_reduction_percent", reduction)
        .f64("initial_area", report.initial_area)
        .f64("final_area", report.final_area)
        .f64("initial_delay", report.initial_delay)
        .f64("final_delay", report.final_delay)
        .f64("seconds", report.seconds)
        .bool("deadline_hit", report.deadline_hit)
        .bool("interrupted", report.interrupted)
        .finish()
}

/// Executes one job end to end: build the exact `powder optimize`
/// pipeline for its spec, resume from the latest checkpoint if one is
/// on disk, persist every checkpoint, and write terminal artifacts.
fn run_job(shared: &Shared, job: &Arc<JobRecord>) -> Result<(), String> {
    let id = job.id.clone();
    let spec = job.spec.clone();
    // Verified read: a checkpoint that fails its CRC is quarantined
    // and the previous good one takes over; if the whole chain is
    // corrupt the job re-runs from its input. Either way the result
    // stays bit-identical to an uninterrupted run.
    let (resuming, quarantined) = shared.store.read_checkpoint_verified(&id);
    if quarantined > 0 {
        shared
            .counters
            .corrupt_recovered
            .fetch_add(1, Ordering::Relaxed);
        obs::counter!(obs::names::SERVE_CORRUPT_RECOVERED).inc();
        eprintln!(
            "serve: {id} checkpoint chain had {quarantined} corrupt file(s); {}",
            if resuming.is_some() {
                "resuming from last good"
            } else {
                "re-running cleanly"
            }
        );
    }
    job.update(|s| {
        s.phase = if resuming.is_some() {
            JobPhase::Checkpointed
        } else {
            JobPhase::Running
        };
    });
    shared
        .store
        .write_state(&id, &spec, JobPhase::Running, None)
        .map_err(|e| format!("persist state: {e}"))?;

    let input = shared
        .store
        .read_input(&id)
        .map_err(|e| format!("read input: {e}"))?;
    let nl = read_blif(&input, Arc::clone(&shared.library)).map_err(|e| e.to_string())?;
    nl.validate().map_err(|e| e.to_string())?;

    // Shrink rather than queue when the machine is busy: a smaller
    // worker count changes nothing about the result. The daemon's plan
    // reaches the pipeline too, so the chaos leg can combine storage
    // faults with optimizer-site faults. Plans naming only serve/store
    // sites (the common case) never fire in there, preserving
    // bit-identity to standalone runs.
    let lease = shared.budget.lease(resolve_jobs(spec.jobs));
    let mut pipeline = spec
        .pipeline(
            &nl,
            lease.granted(),
            Arc::clone(&job.stop),
            shared.faults.clone(),
        )
        .map_err(|e| format!("bad spec: {e}"))?;

    let sink_job = Arc::clone(job);
    let faults = shared.faults.clone();
    let sink_store = shared.store.clone();
    let sink_spec = spec.clone();
    let sink = Arc::new(move |cp: RunCheckpoint| {
        // Persist *before* updating in-memory state: a crash after the
        // rename still resumes from this checkpoint.
        if let Err(e) = sink_store.write_checkpoint(&sink_job.id, &cp.to_text()) {
            eprintln!("serve: {}: checkpoint write failed: {e}", sink_job.id);
        }
        let first = {
            let (phase, progress, _) = sink_job.read();
            phase != JobPhase::Checkpointed && progress.checkpoints == 0
        };
        if first {
            let _ = sink_store.write_state(&sink_job.id, &sink_spec, JobPhase::Checkpointed, None);
        }
        sink_job.update(|s| {
            s.phase = JobPhase::Checkpointed;
            s.progress.checkpoints += 1;
            s.progress.iteration = cp.position.iteration;
            s.progress.passes_done = cp.position.passes_done;
            s.progress.rounds_done = cp.position.powder_rounds_done;
            s.progress.commits = cp.position.powder_commits;
        });
        // Deterministic crash site: die *after* the checkpoint is
        // durable, from inside the sink, so the resume path is
        // exercised at a real boundary.
        if fires(faults.as_ref(), SITE_SERVE_CRASH) {
            eprintln!("serve: injected crash (serve-crash) after checkpoint");
            std::process::exit(42);
        }
    });

    pipeline.checkpoint_sink = Some(sink);

    let session_cfg = SessionConfig::from_optimize(pipeline.config());
    let mut sess = match &resuming {
        Some(text) => {
            let cp =
                RunCheckpoint::from_text(text).map_err(|e| format!("corrupt checkpoint: {e}"))?;
            pipeline.resume = Some(cp.position);
            job.update(|s| {
                s.progress.iteration = cp.position.iteration;
                s.progress.passes_done = cp.position.passes_done;
                s.progress.rounds_done = cp.position.powder_rounds_done;
                s.progress.commits = cp.position.powder_commits;
            });
            eprintln!(
                "serve: {} resuming at iteration {} pass {} round {}",
                id, cp.position.iteration, cp.position.passes_done, cp.position.powder_rounds_done
            );
            cp.restore_session(session_cfg, Arc::clone(&shared.library))
                .map_err(|e| format!("restore checkpoint: {e}"))?
        }
        None => AnalysisSession::new(nl, session_cfg),
    };

    // Deterministic hold site: park until the job is stopped (cancel
    // or drain) or its deadline passes.
    if fires(shared.faults.as_ref(), SITE_SERVE_HOLD) {
        let deadline = pipeline.config().deadline;
        while !job.stop.load(Ordering::Acquire) && deadline.is_none_or(|d| Instant::now() < d) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // Per-job metric attribution: delta of this thread's shard (plus
    // shards retired by the job's own worker pool). Under concurrent
    // jobs the retired portion can include a co-scheduled job's
    // workers — an approximation; exact per-job progress comes from
    // the checkpoint stream and the final report.
    let obs_before = powder_obs::snapshot();
    let report = pipeline.run(&mut sess);
    let obs_delta = powder_obs::snapshot().delta(&obs_before);
    let _ = shared.store.write_job_metrics(
        &id,
        &obs_delta
            .without_durations()
            .to_json_namespaced(&format!("job.{id}")),
    );
    drop(lease);

    let was_cancelled = job.cancel_requested.load(Ordering::Acquire);
    if report.interrupted && !was_cancelled {
        // Drain: park with durable state; the next daemon resumes it.
        let (_, progress, _) = job.read();
        let parked = if progress.checkpoints > 0 || resuming.is_some() {
            JobPhase::Checkpointed
        } else {
            JobPhase::Queued
        };
        job.update(|s| s.phase = parked);
        shared
            .store
            .write_state(&id, &spec, parked, None)
            .map_err(|e| format!("persist parked state: {e}"))?;
        eprintln!("serve: {} parked ({})", id, parked.as_str());
        return Ok(());
    }

    let out = sess.into_netlist();
    out.validate().map_err(|e| e.to_string())?;
    let out_blif = write_blif(&out);
    shared
        .store
        .write_result(&id, &out_blif, &report_json(&report), &format!("{report}"))
        .map_err(|e| format!("persist result: {e}"))?;

    let terminal = if was_cancelled {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        JobPhase::Cancelled
    } else {
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        JobPhase::Done
    };
    job.update(|s| s.phase = terminal);
    shared
        .store
        .write_state(&id, &spec, terminal, None)
        .map_err(|e| format!("persist terminal state: {e}"))?;
    eprintln!("serve: {} {}", id, terminal.as_str());
    Ok(())
}

// ------------------------------------------------------------ connections

/// The status line of `job` in the state `snapshot` (from
/// [`JobRecord::read`]).
fn status_obj(job: &JobRecord, snapshot: (JobPhase, Progress, Option<String>)) -> JsonObj {
    let (phase, progress, error) = snapshot;
    let obj = JsonObj::new()
        .bool("ok", true)
        .str("id", &job.id)
        .str("state", phase.as_str())
        .str("tenant", &job.spec.tenant)
        .i64("priority", job.spec.priority)
        .u64("checkpoints", progress.checkpoints)
        .u64("iteration", progress.iteration as u64)
        .u64("passes_done", progress.passes_done as u64)
        .u64("rounds_done", progress.rounds_done as u64)
        .u64("commits", progress.commits as u64);
    match error {
        Some(e) => obj.str("error", &e),
        None => obj.null("error"),
    }
}

/// One bounded read of a request line.
enum LineRead {
    /// A complete line (without the trailing newline).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the request-size bound.
    TooLarge,
    /// No bytes arrived within the read deadline (idle connection).
    Idle,
    /// Hard I/O error.
    Broken,
}

/// Reads one `\n`-terminated line of at most `max` bytes. Unlike
/// `BufRead::read_line`, this cannot be made to buffer an unbounded
/// request, and the socket's read timeout surfaces as [`LineRead::Idle`]
/// instead of looking like a broken stream.
fn read_bounded_line(reader: &mut BufReader<TcpStream>, max: usize) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (consumed, complete) = {
            let available = match reader.fill_buf() {
                Ok(b) => b,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return LineRead::Idle
                }
                Err(_) => return LineRead::Broken,
            };
            if available.is_empty() {
                return LineRead::Eof;
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&available[..pos]);
                    (pos + 1, true)
                }
                None => {
                    buf.extend_from_slice(available);
                    (available.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if buf.len() > max {
            return LineRead::TooLarge;
        }
        if complete {
            return LineRead::Line(String::from_utf8_lossy(&buf).into_owned());
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Shared, max_request: usize) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("serve: {peer}: clone stream: {e}");
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_bounded_line(&mut reader, max_request) {
            LineRead::Line(line) => line,
            LineRead::Eof | LineRead::Broken => return,
            LineRead::TooLarge => {
                let reply = protocol::error_line(
                    ErrorCode::TooLarge,
                    &format!("request exceeds {max_request} bytes"),
                );
                let _ = writer.write_all(format!("{reply}\n").as_bytes());
                let _ = writer.flush();
                return;
            }
            LineRead::Idle => {
                // Idle reap: tell the client why before hanging up.
                let reply = protocol::error_line(ErrorCode::Timeout, "idle connection reaped");
                let _ = writer.write_all(format!("{reply}\n").as_bytes());
                let _ = writer.flush();
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match protocol::parse_request(&line) {
            Ok(req) => dispatch(req, shared, &mut writer),
            Err(e) => Some(protocol::error_line(ErrorCode::BadRequest, &e)),
        };
        let Some(reply) = reply else { return };
        if writer
            .write_all(format!("{reply}\n").as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
    }
}

/// Handles one request. Returns the response line, or `None` when the
/// op already wrote its output (streaming `watch`) and the connection
/// should close.
fn dispatch(req: Request, shared: &Shared, writer: &mut TcpStream) -> Option<String> {
    Some(match req {
        Request::Submit { spec, netlist } => match submit(shared, spec, &netlist) {
            Ok((id, deduped)) => JsonObj::new()
                .bool("ok", true)
                .str("id", &id)
                .bool("deduped", deduped)
                .finish(),
            Err(SubmitError::Overloaded { queued }) => protocol::overloaded_line(
                &format!(
                    "queue full ({queued} jobs queued, bound {})",
                    shared.max_queued
                ),
                retry_after_ms(queued, shared.max_queued),
            ),
            Err(SubmitError::Rejected(code, msg)) => protocol::error_line(code, &msg),
        },
        Request::Status { job } => match shared.job(&job) {
            Some(j) => status_obj(&j, j.read()).finish(),
            None => protocol::error_line(ErrorCode::NotFound, &format!("unknown job {job:?}")),
        },
        Request::List => {
            let jobs = shared.jobs.lock().expect("jobs lock");
            let items: Vec<String> = jobs
                .values()
                .map(|j| status_obj(j, j.read()).finish())
                .collect();
            JsonObj::new()
                .bool("ok", true)
                .raw("jobs", &format!("[{}]", items.join(",")))
                .finish()
        }
        Request::Cancel { job } => match shared.job(&job) {
            Some(j) if j.phase().is_terminal() => protocol::error_line(
                ErrorCode::BadRequest,
                &format!("job {job} is already {}", j.phase().as_str()),
            ),
            Some(j) => {
                j.request_cancel();
                if shared.scheduler.remove(&j.id) {
                    // Never started; cancel immediately.
                    finish_cancelled(shared, &j);
                }
                JsonObj::new().bool("ok", true).str("id", &j.id).finish()
            }
            None => protocol::error_line(ErrorCode::NotFound, &format!("unknown job {job:?}")),
        },
        Request::Result { job } => match shared.job(&job) {
            None => protocol::error_line(ErrorCode::NotFound, &format!("unknown job {job:?}")),
            Some(j) => match (j.phase(), shared.store.read_result(&j.id)) {
                (JobPhase::Done | JobPhase::Cancelled, Some((blif, report))) => JsonObj::new()
                    .bool("ok", true)
                    .str("id", &j.id)
                    .str("state", j.phase().as_str())
                    .str("netlist", &blif)
                    .raw("report", &report)
                    .finish(),
                (phase, _) => protocol::error_line(
                    ErrorCode::NotFound,
                    &format!("job {job} has no result (state: {})", phase.as_str()),
                ),
            },
        },
        Request::Watch { job } => {
            let Some(j) = shared.job(&job) else {
                return Some(protocol::error_line(
                    ErrorCode::NotFound,
                    &format!("unknown job {job:?}"),
                ));
            };
            watch(&j, writer);
            return None;
        }
        Request::Metrics => {
            let c = &shared.counters;
            JsonObj::new()
                .bool("ok", true)
                .u64("submitted", c.submitted.load(Ordering::Relaxed))
                .u64("completed", c.completed.load(Ordering::Relaxed))
                .u64("failed", c.failed.load(Ordering::Relaxed))
                .u64("cancelled", c.cancelled.load(Ordering::Relaxed))
                .u64("recovered", c.resumed.load(Ordering::Relaxed))
                .u64("shed", c.shed.load(Ordering::Relaxed))
                .u64(
                    "corrupt_recovered",
                    c.corrupt_recovered.load(Ordering::Relaxed),
                )
                .u64("queued", shared.scheduler.queued() as u64)
                .u64("threads_total", shared.budget.total() as u64)
                .u64("threads_free", shared.budget.available() as u64)
                .finish()
        }
        Request::Shutdown { drain } => {
            let reply = JsonObj::new()
                .bool("ok", true)
                .str("mode", if drain { "drain" } else { "now" })
                .finish();
            if drain {
                shared.draining.store(true, Ordering::Release);
            } else {
                // Immediate exit; durable state is checkpoint-complete
                // by construction, so this is just a controlled crash.
                let _ = writer.write_all(format!("{reply}\n").as_bytes());
                let _ = writer.flush();
                std::process::exit(0);
            }
            reply
        }
    })
}

/// Why a submit was refused.
enum SubmitError {
    /// Admission control shed the request (queue at capacity).
    Overloaded {
        /// Queue depth at shed time (feeds the retry-after hint).
        queued: usize,
    },
    /// Anything else: a code plus the human-readable reason.
    Rejected(ErrorCode, String),
}

fn submit(shared: &Shared, spec: JobSpec, netlist: &str) -> Result<(String, bool), SubmitError> {
    let reject = |code, msg: String| Err(SubmitError::Rejected(code, msg));
    if shared.draining.load(Ordering::Acquire) {
        return reject(
            ErrorCode::Draining,
            "daemon is draining; retry against the restarted daemon".to_string(),
        );
    }
    // Idempotent retry: a submit carrying a job_key the daemon has
    // already accepted returns the existing job instead of enqueueing
    // a duplicate — a client may blindly retry a submit whose response
    // it never saw. Checked before admission control: a dedup hit
    // costs no queue slot, so it must not be shed.
    if let Some(key) = &spec.job_key {
        if let Some(id) = shared.job_keys.lock().expect("job_keys lock").get(key) {
            return Ok((id.clone(), true));
        }
    }
    let queued = shared.scheduler.queued();
    if queued >= shared.max_queued {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        obs::counter!(obs::names::SERVE_SHED).inc();
        return Err(SubmitError::Overloaded { queued });
    }
    // Validate up front so a bad circuit fails the submit, not the job.
    let nl = match read_blif(netlist, Arc::clone(&shared.library)) {
        Ok(nl) => nl,
        Err(e) => return reject(ErrorCode::BadRequest, e.to_string()),
    };
    if let Err(e) = nl.validate() {
        return reject(ErrorCode::BadRequest, e.to_string());
    }

    let id = format!("j{:06}", shared.next_id.fetch_add(1, Ordering::SeqCst));
    if let Err(e) = shared.store.persist_new(&id, &spec, netlist) {
        return reject(ErrorCode::Internal, format!("persist job: {e}"));
    }
    let job = JobRecord::new(id.clone(), spec, JobPhase::Queued);
    shared.register(Arc::clone(&job));
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    shared.scheduler.enqueue(job);
    Ok((id, false))
}

/// Streams status lines until the job reaches a terminal phase. Each
/// line and the decision to stop after it come from one snapshot of the
/// job, so the stream always ends with the terminal line.
fn watch(job: &JobRecord, writer: &mut impl Write) {
    let mut last_rev = u64::MAX;
    loop {
        let rev = job.revision();
        if rev != last_rev {
            last_rev = rev;
            let snapshot = job.read();
            let terminal = snapshot.0.is_terminal();
            let line = status_obj(job, snapshot).finish();
            if writer
                .write_all(format!("{line}\n").as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                return;
            }
            if terminal {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A watch sink that finishes the job while a `running` line is
    /// being written: the job turns terminal between the snapshot a
    /// line was rendered from and the decision whether to stop.
    struct FinishingWriter<'a> {
        job: &'a JobRecord,
        out: Vec<u8>,
    }

    impl Write for FinishingWriter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if String::from_utf8_lossy(buf).contains(r#""state":"running""#) {
                self.job.update(|s| s.phase = JobPhase::Done);
            }
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn watch_stream_ends_with_the_terminal_line() {
        let job = JobRecord::new("j1".into(), JobSpec::default(), JobPhase::Running);
        let mut sink = FinishingWriter {
            job: &job,
            out: Vec::new(),
        };
        watch(&job, &mut sink);
        let text = String::from_utf8(sink.out).expect("utf-8 status lines");
        let states: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.contains(r#""state":"done""#) {
                    "done"
                } else {
                    "other"
                }
            })
            .collect();
        assert_eq!(states, ["other", "done"], "{text}");
    }
}
