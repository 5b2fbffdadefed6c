//! End-to-end tests for `powder serve` / `powder submit`: real daemon
//! processes, real TCP, real kill-and-restart.
//!
//! The three acceptance properties of the serving layer:
//! 1. concurrent serve jobs produce netlists bit-identical to
//!    standalone `powder optimize` runs with the same flags;
//! 2. a job with a tight deadline still terminates with a valid,
//!    function-preserving result;
//! 3. a daemon killed mid-job (via the `serve-crash` fault site)
//!    resumes the job from its last checkpoint after restart and
//!    completes bit-identically to an uninterrupted run.

use powder_serve::client;
use powder_serve::JobSpec;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_powder");

/// Flags shared by every job in this file (kept small so debug-build
/// optimization rounds finish quickly, but large enough to produce
/// several checkpoints).
const REPEAT: &str = "2";
const PATTERNS: &str = "128";
const JOBS: &str = "2";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("powder-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn bench_blif(dir: &Path, circuit: &str) -> PathBuf {
    let out = dir.join(format!("{circuit}.blif"));
    let ok = Command::new(BIN)
        .args(["bench", circuit, "-o"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run powder bench")
        .success();
    assert!(ok, "powder bench {circuit} failed");
    out
}

fn optimize_standalone(input: &Path, out: &Path) {
    let ok = Command::new(BIN)
        .arg("optimize")
        .arg(input)
        .args([
            "--repeat",
            REPEAT,
            "--patterns",
            PATTERNS,
            "--jobs",
            JOBS,
            "-o",
        ])
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run powder optimize")
        .success();
    assert!(ok, "standalone optimize failed");
}

fn assert_equivalent(a: &Path, b: &Path) {
    let output = Command::new(BIN)
        .arg("equiv")
        .arg(a)
        .arg(b)
        .output()
        .expect("run powder equiv");
    assert!(
        output.status.success(),
        "equiv failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// A daemon process that is killed when the guard drops, so a failing
/// assertion never leaks a background process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(state_dir: &Path, faults: Option<&str>) -> Daemon {
        // A restarted daemon binds a fresh port; drop the previous
        // daemon's addr file so we never read a stale address.
        let _ = std::fs::remove_file(state_dir.join("addr"));
        let mut cmd = Command::new(BIN);
        cmd.args(["serve", "--state-dir"])
            .arg(state_dir)
            .args(["--max-active", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        match faults {
            Some(plan) => cmd.env("POWDER_FAULTS", plan),
            None => cmd.env_remove("POWDER_FAULTS"),
        };
        let child = cmd.spawn().expect("spawn powder serve");
        // The daemon writes `<state>/addr` once bound.
        let addr_file = state_dir.join("addr");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                let a = a.trim().to_string();
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its addr file"
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        Daemon { child, addr }
    }

    /// Blocks until the process exits on its own (crash tests).
    fn wait_for_exit(mut self) -> i32 {
        let status = self.child.wait().expect("wait for daemon");
        let code = status.code().unwrap_or(-1);
        // Skip the kill in Drop (already exited).
        self.child = Command::new("true").spawn().expect("spawn no-op");
        code
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spec(tenant: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        repeat: REPEAT.parse().unwrap(),
        patterns: PATTERNS.parse().unwrap(),
        jobs: JOBS.parse().unwrap(),
        ..JobSpec::default()
    }
}

fn wait_done(addr: &str, id: &str) -> client::JobStatus {
    let st = client::wait(addr, id, Duration::from_millis(100)).expect("wait for job");
    assert_eq!(
        st.state, "done",
        "job {id} ended {} ({:?})",
        st.state, st.error
    );
    st
}

#[test]
fn concurrent_jobs_are_bit_identical_to_standalone_runs() {
    let dir = temp_dir("concurrent");
    let input = bench_blif(&dir, "c8");
    let reference = dir.join("standalone.blif");
    optimize_standalone(&input, &reference);

    let daemon = Daemon::start(&dir.join("state"), None);
    let netlist = std::fs::read_to_string(&input).unwrap();

    // Two tenants, two jobs, running concurrently (max-active 2).
    let id_a = client::submit(&daemon.addr, &spec("alice"), &netlist).expect("submit a");
    let id_b = client::submit(&daemon.addr, &spec("bob"), &netlist).expect("submit b");
    let st_a = wait_done(&daemon.addr, &id_a);
    let st_b = wait_done(&daemon.addr, &id_b);
    assert!(st_a.checkpoints > 0, "job a never checkpointed");
    assert!(st_b.checkpoints > 0, "job b never checkpointed");

    let expected = std::fs::read_to_string(&reference).unwrap();
    for id in [&id_a, &id_b] {
        let (blif, report) = client::result(&daemon.addr, id).expect("fetch result");
        assert_eq!(
            blif, expected,
            "served result for {id} differs from standalone optimize"
        );
        assert!(
            report.contains("\"interrupted\":false"),
            "unexpected report: {report}"
        );
    }

    client::shutdown(&daemon.addr, true).expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every run flag `submit` forwards reaches the served pipeline exactly
/// as `optimize` applies it: the full pass list with a fixpoint, a delay
/// limit (which anchors `resize`), forced windows, e-graph bounds, and a
/// seed.
#[test]
fn every_run_flag_serves_bit_identically() {
    let dir = temp_dir("all-flags");
    let input = bench_blif(&dir, "c8");
    let reference = dir.join("standalone.blif");
    let flags = [
        "--passes",
        "sweep,egraph,powder,resize,redundancy",
        "--fixpoint",
        "2",
        "--delay-limit",
        "10",
        "--window-size",
        "32",
        "--window-overlap",
        "4",
        "--egraph-node-limit",
        "256",
        "--egraph-iters",
        "4",
        "--seed",
        "7",
        "--repeat",
        REPEAT,
        "--patterns",
        PATTERNS,
        "--jobs",
        JOBS,
    ];
    let ok = Command::new(BIN)
        .arg("optimize")
        .arg(&input)
        .args(flags)
        .arg("-o")
        .arg(&reference)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run powder optimize")
        .success();
    assert!(ok, "standalone optimize failed");

    let daemon = Daemon::start(&dir.join("state"), None);
    let served = dir.join("served.blif");
    let ok = Command::new(BIN)
        .arg("submit")
        .arg(&input)
        .args(["--addr", &daemon.addr, "--wait", "-o"])
        .arg(&served)
        .args(flags)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run powder submit")
        .success();
    assert!(ok, "submit failed");
    assert_eq!(
        std::fs::read(&served).unwrap(),
        std::fs::read(&reference).unwrap(),
        "served result differs from standalone optimize with the same flags"
    );

    client::shutdown(&daemon.addr, true).expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tight_deadline_job_still_terminates_with_valid_result() {
    let dir = temp_dir("deadline");
    let input = bench_blif(&dir, "c8");
    // The hold parks the runner until the job's deadline has passed,
    // so the deadline cuts the run short however fast it would be.
    let daemon = Daemon::start(&dir.join("state"), Some("serve-hold=once:1"));
    let netlist = std::fs::read_to_string(&input).unwrap();

    let tight = JobSpec {
        deadline_secs: Some(0.05),
        ..spec("hurried")
    };
    let id = client::submit(&daemon.addr, &tight, &netlist).expect("submit");
    wait_done(&daemon.addr, &id);
    let (blif, report) = client::result(&daemon.addr, &id).expect("fetch result");
    assert!(
        report.contains("\"deadline_hit\":true"),
        "expected a deadline-cut report, got: {report}"
    );

    // Best-so-far output must still be a valid, equivalent netlist.
    let out = dir.join("deadline-out.blif");
    std::fs::write(&out, blif).unwrap();
    assert_equivalent(&input, &out);

    client::shutdown(&daemon.addr, true).expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_resumes_from_checkpoint_bit_identically() {
    let dir = temp_dir("crash");
    let input = bench_blif(&dir, "c8");
    let reference = dir.join("standalone.blif");
    optimize_standalone(&input, &reference);
    let state = dir.join("state");

    // Fault plan: die right after the second persisted checkpoint.
    let daemon = Daemon::start(&state, Some("serve-crash=once:2"));
    let netlist = std::fs::read_to_string(&input).unwrap();
    let id = client::submit(&daemon.addr, &spec("crashy"), &netlist).expect("submit");
    let code = daemon.wait_for_exit();
    assert_eq!(code, 42, "daemon should die at the injected crash site");
    assert!(
        state.join(&id).join("checkpoint.txt").is_file(),
        "crash must leave a durable checkpoint behind"
    );

    // Restart without faults: the job must be re-discovered, resumed
    // from the checkpoint, and completed bit-identically.
    let daemon = Daemon::start(&state, None);
    let st = wait_done(&daemon.addr, &id);
    assert!(st.checkpoints > 0);

    let (blif, _) = client::result(&daemon.addr, &id).expect("fetch result");
    let expected = std::fs::read_to_string(&reference).unwrap();
    assert_eq!(
        blif, expected,
        "resumed result differs from an uninterrupted standalone run"
    );
    let out = dir.join("resumed-out.blif");
    std::fs::write(&out, blif).unwrap();
    assert_equivalent(&input, &out);

    client::shutdown(&daemon.addr, true).expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability acceptance test for torn writes: the daemon dies at
/// its second checkpoint with fault sites tearing BOTH the current job
/// record and the current checkpoint as they land on disk. On restart
/// the store must quarantine the torn copies, fall back to the
/// last-good `.prev` record and checkpoint, and resume to a result
/// bit-identical to an uninterrupted standalone run — the resume
/// invariant holds from *any* committed checkpoint.
#[test]
fn torn_writes_recover_from_last_good_copies_bit_identically() {
    let dir = temp_dir("torn");
    let input = bench_blif(&dir, "c8");
    let reference = dir.join("standalone.blif");
    optimize_standalone(&input, &reference);
    let state = dir.join("state");

    // Occurrence 2 of the job-record write is the Running transition
    // (occurrence 1, the submit, must land intact); occurrence 2 of
    // the checkpoint write is the one the crash site fires on.
    let daemon = Daemon::start(
        &state,
        Some("serve-crash=once:2,store-torn-write=once:2,checkpoint-truncate=once:2"),
    );
    let netlist = std::fs::read_to_string(&input).unwrap();
    let id = client::submit(&daemon.addr, &spec("torn"), &netlist).expect("submit");
    let code = daemon.wait_for_exit();
    assert_eq!(code, 42, "daemon should die at the injected crash site");

    // Restart without faults: recovery must quarantine the torn
    // copies (never delete them) and resume from the last-good ones.
    let daemon = Daemon::start(&state, None);
    let st = wait_done(&daemon.addr, &id);
    assert!(st.checkpoints > 0, "resumed job never checkpointed again");
    let corrupt: Vec<_> = std::fs::read_dir(state.join("corrupt"))
        .expect("quarantine directory exists after torn-write recovery")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !corrupt.is_empty(),
        "torn artifacts must be quarantined, not dropped"
    );

    let (blif, _) = client::result(&daemon.addr, &id).expect("fetch result");
    let expected = std::fs::read_to_string(&reference).unwrap();
    assert_eq!(
        blif, expected,
        "recovery from last-good copies must stay bit-identical to an \
         uninterrupted standalone run"
    );
    let out = dir.join("torn-out.blif");
    std::fs::write(&out, blif).unwrap();
    assert_equivalent(&input, &out);

    client::shutdown(&daemon.addr, true).expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_and_list_round_trip() {
    let dir = temp_dir("cancel");
    let input = bench_blif(&dir, "c8");
    // The third job to start parks its runner until it is cancelled,
    // so it cannot finish first even if both runners free up early.
    let daemon = Daemon::start(&dir.join("state"), Some("serve-hold=once:3"));
    let netlist = std::fs::read_to_string(&input).unwrap();

    // The job behind two runners' worth of work gets cancelled, while
    // still queued or while held.
    let ids: Vec<String> = (0..3)
        .map(|i| client::submit(&daemon.addr, &spec(&format!("t{i}")), &netlist).expect("submit"))
        .collect();
    client::cancel(&daemon.addr, &ids[2]).expect("cancel");
    let st = client::wait(&daemon.addr, &ids[2], Duration::from_millis(100)).expect("wait");
    assert_eq!(st.state, "cancelled");
    // The others still finish.
    wait_done(&daemon.addr, &ids[0]);
    wait_done(&daemon.addr, &ids[1]);

    client::shutdown(&daemon.addr, true).expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}
