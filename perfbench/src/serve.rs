//! The serve probe of the traced run: an in-process `powder_serve`
//! daemon under a closed loop of one client thread per tenant. Each
//! client submits every circuit once, the next only after the previous
//! result came back.

use crate::batch::{library, Input};
use crate::stats::median;
use crate::workload::pattern_seed;
use powder_obs::json::{self, Value};
use powder_serve::{client, JobSpec, JobStore, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenants, one client thread each: no more than the host's 2 cores.
const TENANTS: usize = 2;

/// One job as the client saw it.
pub struct JobSample {
    pub submit_ms: f64,
    /// Submit → first `running` watch line.
    pub queue_wait: f64,
    /// First `running` → terminal watch line.
    pub run: f64,
    pub result_ms: f64,
    pub checkpoints: u64,
}

pub struct ServeResult {
    pub jobs: Vec<JobSample>,
    /// The first served output of each circuit (BLIF).
    pub first: Vec<Option<String>>,
    /// Jobs that ended other than `done`, or whose calls failed.
    pub failed_jobs: usize,
    /// Checkpoints the daemon persisted over all jobs.
    pub checkpoints: u64,
}

struct Daemon {
    addr: String,
    handle: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Starts a daemon on a fresh state directory and waits until it
    /// has written its address file.
    fn start(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        let store = JobStore::open(dir).map_err(|e| e.to_string())?;
        let mut cfg = ServeConfig::new(dir, library());
        cfg.listen = "127.0.0.1:0".to_string();
        cfg.max_active = 2;
        cfg.threads = 2;
        cfg.drain_deadline_secs = 120.0;
        let handle = std::thread::spawn(move || powder_serve::run(cfg));
        loop {
            if let Some(addr) = store.read_addr() {
                return Ok(Daemon { addr, handle });
            }
            if handle.is_finished() {
                let err = handle.join().map_err(|_| "daemon panicked".to_string())?;
                return Err(format!("daemon exited before binding: {err:?}"));
            }
            std::thread::yield_now();
        }
    }

    /// Drains the daemon (no job is running) and waits for it to exit.
    fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr, true).map_err(|e| e.to_string())?;
        self.handle
            .join()
            .map_err(|_| "daemon panicked".to_string())?
    }
}

/// A small deterministic generator for job order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which `tenant` walks the circuits: a seeded shuffle.
fn job_order(n: usize, seed: u64, tenant: usize) -> Vec<usize> {
    let mut state = seed ^ (tenant as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

/// Streams `watch` for `job`; returns (first `running` instant, final
/// state, terminal instant, checkpoints).
fn watch(addr: &str, job: &str) -> Result<(Option<Instant>, String, Instant, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let line = powder_serve::JsonObj::new()
        .str("op", "watch")
        .str("job", job)
        .finish();
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send watch: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut running = None;
    loop {
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("watch: {e}"))?
            == 0
        {
            // The daemon can end a watch right after its job turns
            // terminal without sending that last state; `client::wait`
            // covers this with a status poll, and so does this.
            let st = client::status(addr, job).map_err(|e| e.to_string())?;
            if !matches!(st.state.as_str(), "done" | "failed" | "cancelled") {
                return Err(format!("watch closed while {job} was {}", st.state));
            }
            return Ok((running, st.state, Instant::now(), st.checkpoints));
        }
        let now = Instant::now();
        let v = json::parse(line.trim()).map_err(|e| format!("watch line: {e}"))?;
        let state = v
            .get("state")
            .and_then(Value::as_str)
            .ok_or("watch line without state")?;
        if running.is_none() && state != "queued" {
            running = Some(now);
        }
        if matches!(state, "done" | "failed" | "cancelled") {
            let checkpoints = v.get("checkpoints").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            return Ok((running, state.to_string(), now, checkpoints));
        }
    }
}

/// Submits one job and follows it to its result; returns the sample and
/// the served BLIF.
fn one_job(addr: &str, spec: &JobSpec, blif: &str) -> Result<(JobSample, String), String> {
    let t0 = Instant::now();
    let id = client::submit(addr, spec, blif).map_err(|e| e.to_string())?;
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (running, state, done, checkpoints) = watch(addr, &id)?;
    if state != "done" {
        return Err(format!("{id} ended {state}"));
    }
    let t = Instant::now();
    let (output, _report) = client::result(addr, &id).map_err(|e| e.to_string())?;
    let result_ms = t.elapsed().as_secs_f64() * 1e3;
    let running = running.unwrap_or(done);
    let sample = JobSample {
        submit_ms,
        queue_wait: running.duration_since(t0).as_secs_f64(),
        run: done.duration_since(running).as_secs_f64(),
        result_ms,
        checkpoints,
    };
    Ok((sample, output))
}

/// Serves every circuit once per tenant from a daemon in `state_dir`.
pub fn run(inputs: &[Input], seed: u64, state_dir: &Path) -> Result<ServeResult, String> {
    let dir = state_dir.join("live");
    let daemon = Daemon::start(&dir)?;
    let shared = Mutex::new(ServeResult {
        jobs: Vec::new(),
        first: inputs.iter().map(|_| None).collect(),
        failed_jobs: 0,
        checkpoints: 0,
    });
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let (shared, addr) = (&shared, &daemon.addr);
            scope.spawn(move || {
                for c in job_order(inputs.len(), seed, tenant) {
                    let spec = JobSpec {
                        tenant: format!("tenant{tenant}"),
                        seed: pattern_seed(seed),
                        ..JobSpec::default()
                    };
                    let outcome = one_job(addr, &spec, &inputs[c].blif);
                    let mut s = shared.lock().expect("serve results lock");
                    match outcome {
                        Ok((sample, output)) => {
                            s.first[c].get_or_insert(output);
                            s.checkpoints += sample.checkpoints;
                            s.jobs.push(sample);
                        }
                        Err(e) => {
                            eprintln!("perfbench: {}: serve job failed: {e}", inputs[c].name);
                            s.failed_jobs += 1;
                        }
                    }
                }
            });
        }
    });
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(shared.into_inner().expect("serve results lock"))
}

impl ServeResult {
    /// The serve layer's numbers: medians over jobs, and the
    /// checkpoints all jobs persisted.
    pub fn layer(&self) -> Vec<(&'static str, f64)> {
        let col = |f: fn(&JobSample) -> f64| median(&self.jobs.iter().map(f).collect::<Vec<_>>());
        vec![
            ("serve.submit_ms", col(|j| j.submit_ms)),
            ("serve.queue_wait_s", col(|j| j.queue_wait)),
            ("serve.run_s", col(|j| j.run)),
            ("serve.result_ms", col(|j| j.result_ms)),
            ("serve.checkpoints", self.checkpoints as f64),
        ]
    }
}
