//! Overload and abuse behavior of the daemon, exercised against an
//! in-process instance: admission-control shedding with a structured
//! `overloaded` + retry-after error, idempotent `job_key` dedup even
//! while saturated, client backoff that eventually lands a shed
//! submit, oversized-request rejection, and idle-connection reaping.

use powder_obs::json::Value;
use powder_serve::{client, JobSpec, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("powder-overload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Boots a daemon on a free port inside this process and returns its
/// address plus the thread handle (joined after `shutdown`).
fn start_daemon(
    state: &Path,
    cfg_tweak: impl FnOnce(&mut ServeConfig),
) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let lib = Arc::new(powder_library::lib2());
    let mut cfg = ServeConfig::new(state, lib);
    cfg.max_active = 1;
    cfg_tweak(&mut cfg);
    let handle = std::thread::spawn(move || powder_serve::run(cfg));
    let addr_file = state.join("addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(a) = std::fs::read_to_string(&addr_file) {
            let a = a.trim().to_string();
            if !a.is_empty() {
                break a;
            }
        }
        assert!(Instant::now() < deadline, "daemon never wrote its addr");
        std::thread::sleep(Duration::from_millis(10));
    };
    (addr, handle)
}

fn bench_netlist() -> String {
    let lib = Arc::new(powder_library::lib2());
    let nl = powder_benchmarks::build("c8", lib).expect("build c8");
    powder_netlist::blif::write_blif(&nl)
}

fn spec(tenant: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        jobs: 1,
        ..JobSpec::default()
    }
}

fn wait_for_state(addr: &str, id: &str, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = client::status(addr, id).expect("status");
        if st.state == state {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {} waiting for {state}",
            st.state
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn shedding_dedup_and_backoff_recovery() {
    let dir = temp_dir("shed");
    // The first job to start parks its runner until it is cancelled,
    // so the runner stays busy however fast the job would run.
    let hold = powder_faults::FaultPlan::parse("serve-hold=once:1").expect("valid plan");
    let (addr, daemon) = start_daemon(&dir.join("state"), |cfg| {
        cfg.max_queued = 1;
        cfg.faults = Some(hold.into_state());
    });
    let netlist = bench_netlist();

    // Fill the runner, then the one queue slot.
    let id_a = client::submit(&addr, &spec("a"), &netlist).expect("submit a");
    wait_for_state(&addr, &id_a, "running");
    let spec_b = JobSpec {
        job_key: Some("order-9".to_string()),
        ..spec("b")
    };
    let id_b = client::submit(&addr, &spec_b, &netlist).expect("submit b");

    // A third submit must be shed with the structured error and a
    // deterministic retry-after hint — not queued, not dropped on the
    // floor, not a closed connection.
    let line_c = client::submit_line(&spec("c"), &netlist);
    let shed = client::request(&addr, &line_c).expect_err("queue is full");
    assert_eq!(shed.code, powder_serve::ErrorCode::Overloaded);
    assert!(shed.retryable());
    let hint = shed.retry_after_ms.expect("overloaded carries retry-after");
    assert!((200..=2_000).contains(&hint), "hint {hint} out of range");

    // Idempotent resubmission is recognized *before* admission
    // control: the daemon is saturated, yet replaying b's job_key
    // returns b's id instead of shedding or duplicating.
    let id_b2 = client::submit(&addr, &spec_b, &netlist).expect("idempotent resubmit");
    assert_eq!(id_b2, id_b, "job_key resubmit must dedup to the same job");

    // Shedding is visible in the daemon's own metrics.
    let metrics = client::request(&addr, "{\"op\":\"metrics\"}").expect("metrics");
    let shed_count = metrics.get("shed").and_then(Value::as_f64).unwrap_or(0.0);
    assert!(shed_count >= 1.0, "metrics should count the shed submit");

    // A client retrying with backoff eventually gets in once capacity
    // frees up. The submit retries in a thread while the main thread
    // cancels the jobs hogging the queue.
    let retry_addr = addr.clone();
    let retry_netlist = netlist.clone();
    let retrier = std::thread::spawn(move || {
        let spec = JobSpec {
            job_key: Some("late-1".to_string()),
            ..spec("late")
        };
        client::submit_with_retries(&retry_addr, &spec, &retry_netlist, 12)
    });
    std::thread::sleep(Duration::from_millis(250));
    // Cancelling a releases the runner; b may start before its own
    // cancel lands. Either way the queue drains and the retrier must
    // get in.
    client::cancel(&addr, &id_a).ok();
    client::cancel(&addr, &id_b).ok();
    let id_late = retrier
        .join()
        .expect("retrier thread")
        .expect("backoff retry should land once the queue drains");
    client::cancel(&addr, &id_late).ok();

    client::shutdown(&addr, true).expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_requests_are_rejected_with_too_large() {
    let dir = temp_dir("toolarge");
    let (addr, daemon) = start_daemon(&dir.join("state"), |cfg| {
        cfg.max_request_bytes = 4_096;
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // 8 KiB without a newline: the bounded reader must refuse it
    // instead of buffering forever.
    stream.write_all(&[b'x'; 8_192]).expect("send blob");
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read reply");
    assert!(
        resp.contains("\"code\":\"too-large\""),
        "expected a too-large error, got: {resp}"
    );

    client::shutdown(&addr, true).expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_reaped_with_timeout() {
    let dir = temp_dir("idle");
    let (addr, daemon) = start_daemon(&dir.join("state"), |cfg| {
        cfg.read_timeout_secs = 0.3;
    });

    let started = Instant::now();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Send nothing: the daemon must reap us, with a structured error,
    // well before our own 10 s guard.
    let mut resp = String::new();
    stream.read_to_string(&mut resp).expect("read reply");
    assert!(
        resp.contains("\"code\":\"timeout\""),
        "expected an idle-reap timeout error, got: {resp}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "reap took too long: {:?}",
        started.elapsed()
    );

    client::shutdown(&addr, true).expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}
