//! Blocking client for the serve protocol, used by `powder submit`
//! and the end-to-end tests. Each call opens a fresh connection,
//! writes one request line, and reads one (or, for `wait`, many)
//! response lines.
//!
//! # Resilience
//!
//! Errors are structured ([`ClientError`] carries the daemon's
//! [`ErrorCode`] and `retry_after_ms` hint), and the retrying entry
//! points back off exponentially with *deterministic* jitter — the
//! delay is a pure function of the attempt number and a salt string,
//! so tests reproduce schedules exactly while concurrent clients
//! still decorrelate. A submit is only retried when it is provably
//! safe: the request never reached the daemon, the daemon refused it
//! before enqueueing (`overloaded`/`draining`), or the spec carries a
//! `job_key` making the retry idempotent at the daemon.

use crate::error::ErrorCode;
use crate::job::JobSpec;
use crate::protocol::JsonObj;
use powder_obs as obs;
use powder_obs::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One status response as seen by a client.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Job id.
    pub id: String,
    /// Phase name (`queued`, `running`, ... see `JobPhase`).
    pub state: String,
    /// Checkpoints persisted so far.
    pub checkpoints: u64,
    /// Failure message, when failed.
    pub error: Option<String>,
}

/// A structured client-side failure: the daemon's error code (or
/// [`ErrorCode::Internal`] for local transport failures), the
/// retry-after hint when the daemon sent one, and enough context to
/// decide whether a retry is safe.
#[derive(Clone, Debug)]
pub struct ClientError {
    /// Machine-readable classification (daemon-reported, or
    /// `Internal` for transport failures).
    pub code: ErrorCode,
    /// Backoff hint from an `overloaded` response, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// Human-readable message.
    pub message: String,
    /// `true` when this is a local I/O failure rather than a daemon
    /// verdict (connect refused, torn read, timeout on our side).
    pub transport: bool,
    /// Whether the request line had already been written when the
    /// failure happened. A transport failure *before* the send is
    /// always safe to retry; after it, only idempotent requests are.
    pub request_sent: bool,
}

impl ClientError {
    fn transport(message: String, request_sent: bool) -> ClientError {
        ClientError {
            code: ErrorCode::Internal,
            retry_after_ms: None,
            message,
            transport: true,
            request_sent,
        }
    }

    /// Whether a retry (with backoff) can plausibly succeed for an
    /// idempotent request.
    #[must_use]
    pub fn retryable(&self) -> bool {
        self.transport || self.code.retryable()
    }

    /// Whether retrying a *submit* is safe: the daemon provably did
    /// not enqueue the job (never sent, refused by admission control,
    /// or refused while draining).
    #[must_use]
    pub fn submit_retry_safe(&self) -> bool {
        (self.transport && !self.request_sent)
            || matches!(self.code, ErrorCode::Overloaded | ErrorCode::Draining)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.transport {
            write!(f, "{}", self.message)
        } else {
            write!(f, "[{}] {}", self.code, self.message)
        }
    }
}

impl From<ClientError> for String {
    fn from(e: ClientError) -> String {
        e.to_string()
    }
}

/// Deterministic backoff schedule: exponential base doubling from
/// 100 ms, capped at 2 s, plus a jitter in `[0, 50)` ms that is a pure
/// function of `(salt, attempt)` — reproducible in tests, decorrelated
/// across clients using distinct salts. A daemon `retry_after_ms` hint
/// overrides the exponential base for that attempt.
#[must_use]
pub fn backoff_delay(attempt: u32, hint_ms: Option<u64>, salt: &str) -> Duration {
    let base = match hint_ms {
        Some(ms) => ms,
        None => (100u64 << attempt.min(5)).min(2_000),
    };
    // FNV-1a over the salt and attempt: deterministic jitter.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in salt.bytes().chain(attempt.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Duration::from_millis(base + h % 50)
}

fn parse_status(v: &Value) -> Result<JobStatus, String> {
    Ok(JobStatus {
        id: v
            .get("id")
            .and_then(Value::as_str)
            .ok_or("status response missing \"id\"")?
            .to_string(),
        state: v
            .get("state")
            .and_then(Value::as_str)
            .ok_or("status response missing \"state\"")?
            .to_string(),
        checkpoints: v.get("checkpoints").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        error: v.get("error").and_then(Value::as_str).map(str::to_string),
    })
}

/// Turns a daemon error response into a [`ClientError`].
fn server_error(v: &Value) -> ClientError {
    ClientError {
        code: v
            .get("code")
            .and_then(Value::as_str)
            .map_or(ErrorCode::Internal, ErrorCode::parse),
        retry_after_ms: v
            .get("retry_after_ms")
            .and_then(Value::as_f64)
            .map(|n| n as u64),
        message: v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown server error")
            .to_string(),
        transport: false,
        request_sent: true,
    }
}

/// Sends one request line and returns the parsed first response.
/// Checks the `ok` field and surfaces the daemon's structured error
/// otherwise. No retries — see [`request_with_retry`].
pub fn request(addr: &str, line: &str) -> Result<Value, ClientError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ClientError::transport(format!("connect {addr}: {e}"), false))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| ClientError::transport(format!("send: {e}"), false))?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .map_err(|e| ClientError::transport(format!("recv: {e}"), true))?;
    if resp.trim().is_empty() {
        return Err(ClientError::transport(
            "daemon closed the connection without a response".to_string(),
            true,
        ));
    }
    let v = json::parse(resp.trim()).map_err(|e| {
        ClientError::transport(format!("bad response JSON (torn read?): {e}"), true)
    })?;
    if v.get("ok") == Some(&Value::Bool(false)) {
        return Err(server_error(&v));
    }
    Ok(v)
}

/// [`request`] with up to `attempts` tries for *idempotent* requests:
/// retries transport failures (connect refused, torn reads) and
/// retryable daemon verdicts (`overloaded`, `draining`, `timeout`)
/// with [`backoff_delay`], honoring the daemon's retry-after hint.
pub fn request_with_retry(addr: &str, line: &str, attempts: u32) -> Result<Value, ClientError> {
    let mut last;
    let mut attempt = 0;
    loop {
        match request(addr, line) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if !e.retryable() || attempt + 1 >= attempts.max(1) {
                    return Err(e);
                }
                obs::counter!(obs::names::SERVE_RETRIES).inc();
                last = e;
                std::thread::sleep(backoff_delay(attempt, last.retry_after_ms, addr));
                attempt += 1;
            }
        }
    }
}

/// Builds the submit request line for a spec + netlist.
#[must_use]
pub fn submit_line(spec: &JobSpec, netlist: &str) -> String {
    spec.encode(JsonObj::new().str("op", "submit").str("netlist", netlist))
        .finish()
}

/// Submits a job; returns its id. Retries with backoff only when
/// safe: the request provably never enqueued (connect failure,
/// `overloaded`, `draining`), or the spec carries a `job_key` so the
/// daemon deduplicates a double-delivery.
pub fn submit(addr: &str, spec: &JobSpec, netlist: &str) -> Result<String, ClientError> {
    submit_with_retries(addr, spec, netlist, 6)
}

/// [`submit`] with an explicit attempt bound (tests use small ones).
pub fn submit_with_retries(
    addr: &str,
    spec: &JobSpec,
    netlist: &str,
    attempts: u32,
) -> Result<String, ClientError> {
    let line = submit_line(spec, netlist);
    let mut attempt = 0;
    loop {
        match request(addr, &line) {
            Ok(v) => {
                return v
                    .get("id")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| {
                        ClientError::transport("submit response missing \"id\"".to_string(), true)
                    })
            }
            Err(e) => {
                let safe = e.submit_retry_safe() || (spec.job_key.is_some() && e.retryable());
                if !safe || attempt + 1 >= attempts.max(1) {
                    return Err(e);
                }
                obs::counter!(obs::names::SERVE_RETRIES).inc();
                std::thread::sleep(backoff_delay(attempt, e.retry_after_ms, addr));
                attempt += 1;
            }
        }
    }
}

/// One status poll.
pub fn status(addr: &str, job: &str) -> Result<JobStatus, ClientError> {
    let v = request(
        addr,
        &JsonObj::new().str("op", "status").str("job", job).finish(),
    )?;
    parse_status(&v).map_err(|m| ClientError::transport(m, true))
}

/// Requests cancellation.
pub fn cancel(addr: &str, job: &str) -> Result<(), ClientError> {
    request(
        addr,
        &JsonObj::new().str("op", "cancel").str("job", job).finish(),
    )
    .map(|_| ())
}

/// Fetches the optimized BLIF and report JSON of a finished job.
pub fn result(addr: &str, job: &str) -> Result<(String, String), ClientError> {
    let v = request(
        addr,
        &JsonObj::new().str("op", "result").str("job", job).finish(),
    )?;
    let blif = v
        .get("netlist")
        .and_then(Value::as_str)
        .ok_or_else(|| {
            ClientError::transport("result response missing \"netlist\"".to_string(), true)
        })?
        .to_string();
    let report = v
        .get("report")
        .map(crate::protocol::write_value)
        .unwrap_or_default();
    Ok((blif, report))
}

/// Streams `watch` status lines until the job is terminal; returns
/// the final status. Robust against daemon restarts: a torn watch
/// stream falls back to bounded status polls with [`backoff_delay`]
/// and reconnects — each connection carries a *bounded* read timeout
/// (a small multiple of `poll`) instead of one giant deadline, so a
/// wedged daemon is detected in seconds, not minutes. Gives up only
/// on a non-retryable daemon verdict (e.g. the job does not exist).
pub fn wait(addr: &str, job: &str, poll: Duration) -> Result<JobStatus, ClientError> {
    let mut attempt: u32 = 0;
    loop {
        match watch_once(addr, job, poll) {
            Ok(st) => return Ok(st),
            Err(e) if !e.retryable() => return Err(e),
            Err(e) => {
                // Daemon may have restarted (e.g. crash/resume test):
                // back off, then poll status until it answers again.
                obs::counter!(obs::names::SERVE_RETRIES).inc();
                std::thread::sleep(backoff_delay(attempt, e.retry_after_ms, addr));
                attempt = (attempt + 1).min(5);
                match status(addr, job) {
                    Ok(st) => {
                        attempt = 0; // daemon is back; reset the schedule
                        if is_terminal(&st.state) {
                            return Ok(st);
                        }
                    }
                    Err(e) if !e.retryable() => return Err(e),
                    Err(_) => {}
                }
            }
        }
    }
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

fn watch_once(addr: &str, job: &str, poll: Duration) -> Result<JobStatus, ClientError> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| ClientError::transport(format!("connect {addr}: {e}"), false))?;
    // Bounded per-read deadline: long enough to ride out normal
    // checkpoint gaps, short enough that a dead daemon is noticed
    // quickly. The wait() loop above handles the reconnect.
    stream
        .set_read_timeout(Some(
            (poll.max(Duration::from_millis(100)) * 4).min(Duration::from_secs(10)),
        ))
        .map_err(|e| ClientError::transport(e.to_string(), false))?;
    stream
        .write_all(
            format!(
                "{}\n",
                JsonObj::new().str("op", "watch").str("job", job).finish()
            )
            .as_bytes(),
        )
        .map_err(|e| ClientError::transport(format!("send: {e}"), false))?;
    let mut reader = BufReader::new(stream);
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| ClientError::transport(format!("recv: {e}"), true))?;
        if n == 0 {
            return Err(ClientError::transport(
                "watch stream closed before a terminal state".to_string(),
                true,
            ));
        }
        let v = json::parse(line.trim())
            .map_err(|e| ClientError::transport(format!("bad watch line: {e}"), true))?;
        if v.get("ok") == Some(&Value::Bool(false)) {
            return Err(server_error(&v));
        }
        let st = parse_status(&v).map_err(|m| ClientError::transport(m, true))?;
        if is_terminal(&st.state) {
            return Ok(st);
        }
    }
}

/// Asks the daemon to shut down (`drain` = park at checkpoints).
pub fn shutdown(addr: &str, drain: bool) -> Result<(), ClientError> {
    request(
        addr,
        &JsonObj::new()
            .str("op", "shutdown")
            .str("mode", if drain { "drain" } else { "now" })
            .finish(),
    )
    .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 0..10 {
            let a = backoff_delay(attempt, None, "127.0.0.1:4217");
            let b = backoff_delay(attempt, None, "127.0.0.1:4217");
            assert_eq!(a, b, "same inputs must give the same delay");
            assert!(a >= Duration::from_millis(100));
            assert!(a < Duration::from_millis(2_050), "attempt {attempt}: {a:?}");
        }
        // Exponential growth up to the cap.
        assert!(backoff_delay(3, None, "x") > backoff_delay(0, None, "x"));
        // Distinct salts decorrelate.
        assert_ne!(
            backoff_delay(2, None, "client-a"),
            backoff_delay(2, None, "client-b")
        );
        // The daemon's hint overrides the exponential base.
        let hinted = backoff_delay(0, Some(700), "x");
        assert!(hinted >= Duration::from_millis(700) && hinted < Duration::from_millis(750));
    }

    #[test]
    fn submit_retry_safety() {
        let refused = ClientError::transport("connect: refused".into(), false);
        assert!(refused.submit_retry_safe());
        let torn = ClientError::transport("recv: torn".into(), true);
        assert!(!torn.submit_retry_safe(), "may have enqueued — not safe");
        let overloaded = ClientError {
            code: ErrorCode::Overloaded,
            retry_after_ms: Some(200),
            message: "queue full".into(),
            transport: false,
            request_sent: true,
        };
        assert!(overloaded.submit_retry_safe());
        let bad = ClientError {
            code: ErrorCode::BadRequest,
            retry_after_ms: None,
            message: "bad".into(),
            transport: false,
            request_sent: true,
        };
        assert!(!bad.submit_retry_safe());
        assert!(!bad.retryable());
    }
}
