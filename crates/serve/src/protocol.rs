//! The line-JSON wire protocol.
//!
//! One request per line, one response per line (NDJSON): the client
//! writes a single JSON object terminated by `\n`, the daemon answers
//! with one JSON object per line. All responses carry an `"ok"` bool;
//! errors carry a machine-readable `"code"` (see
//! [`ErrorCode`](crate::ErrorCode)) next to the human-readable
//! `"error"` message, and `overloaded` errors add a `"retry_after_ms"`
//! backoff hint. `watch` is the only streaming op — it emits a status
//! object per change and closes after a terminal one.
//!
//! Requests (`"op"` selects the operation):
//!
//! | op | fields |
//! |----|--------|
//! | `submit`   | `netlist` (BLIF text), optional `tenant`, `priority`, `passes`, `fixpoint`, `repeat`, `patterns`, `seed`, `jobs`, `delay_limit_percent`, `deadline_secs`, `window_size`, `window_overlap`, `egraph_node_limit`, `egraph_iters`, `job_key` (idempotency) |
//! | `status`   | `job` |
//! | `list`     | — |
//! | `cancel`   | `job` |
//! | `result`   | `job` |
//! | `watch`    | `job` |
//! | `metrics`  | — |
//! | `shutdown` | optional `mode`: `"drain"` (default) or `"now"` |
//!
//! Parsing reuses the `powder_obs::json` reader; writing uses the
//! [`JsonObj`] builder below, which always emits a single line.

use crate::job::JobSpec;
use powder_obs::json::{self, Value};

/// A parsed client request.
// One short-lived value per request line; the Submit variant's size
// (a full JobSpec) costs nothing compared to boxing every parse.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Enqueue a new job over the given BLIF netlist.
    Submit {
        /// Job parameters (defaults applied for absent fields), validated.
        spec: JobSpec,
        /// BLIF source of the circuit to optimize.
        netlist: String,
    },
    /// One status object for a job.
    Status {
        /// Job id.
        job: String,
    },
    /// Status of every job the daemon knows about.
    List,
    /// Cancel a queued or running job.
    Cancel {
        /// Job id.
        job: String,
    },
    /// The optimized BLIF and final report of a finished job.
    Result {
        /// Job id.
        job: String,
    },
    /// Stream status objects until the job reaches a terminal phase.
    Watch {
        /// Job id.
        job: String,
    },
    /// Daemon-wide metrics snapshot (obs registry, JSON).
    Metrics,
    /// Stop the daemon.
    Shutdown {
        /// `true`: park running jobs at their next checkpoint and keep
        /// the queue durable. `false`: exit as soon as possible.
        drain: bool,
    },
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing string field \"op\"")?;

    let job_field = |v: &Value| -> Result<String, String> {
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("op {op:?} needs a string field \"job\""))
    };

    Ok(match op {
        "submit" => Request::Submit {
            spec: JobSpec::decode(&v).map_err(|e| e.to_string())?,
            netlist: v
                .get("netlist")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or("submit needs a string field \"netlist\"")?,
        },
        "status" => Request::Status {
            job: job_field(&v)?,
        },
        "list" => Request::List,
        "cancel" => Request::Cancel {
            job: job_field(&v)?,
        },
        "result" => Request::Result {
            job: job_field(&v)?,
        },
        "watch" => Request::Watch {
            job: job_field(&v)?,
        },
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown {
            drain: match v.get("mode").and_then(Value::as_str) {
                None | Some("drain") => true,
                Some("now") => false,
                Some(other) => {
                    return Err(format!(
                        "unknown shutdown mode {other:?} (expected \"drain\" or \"now\")"
                    ))
                }
            },
        },
        other => return Err(format!("unknown op {other:?}")),
    })
}

/// Escapes a string for embedding in JSON output.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A compact single-line JSON object writer.
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> JsonObj {
        JsonObj { buf: String::new() }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, k: &str, v: &str) -> JsonObj {
        let escaped = escape(v);
        let buf = self.key(k);
        buf.push('"');
        buf.push_str(&escaped);
        buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, k: &str, v: u64) -> JsonObj {
        use std::fmt::Write;
        write!(self.key(k), "{v}").expect("write to String");
        self
    }

    /// Adds a signed integer field.
    #[must_use]
    pub fn i64(mut self, k: &str, v: i64) -> JsonObj {
        use std::fmt::Write;
        write!(self.key(k), "{v}").expect("write to String");
        self
    }

    /// Adds a float field (`null` for non-finite values).
    #[must_use]
    pub fn f64(mut self, k: &str, v: f64) -> JsonObj {
        use std::fmt::Write;
        if v.is_finite() {
            write!(self.key(k), "{v}").expect("write to String");
        } else {
            self.key(k).push_str("null");
        }
        self
    }

    /// Adds a bool field.
    #[must_use]
    pub fn bool(mut self, k: &str, v: bool) -> JsonObj {
        self.key(k).push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds an optional float (`null` when absent).
    #[must_use]
    pub fn opt_f64(self, k: &str, v: Option<f64>) -> JsonObj {
        match v {
            Some(v) => self.f64(k, v),
            None => self.null(k),
        }
    }

    /// Adds an optional unsigned integer (`null` when absent).
    #[must_use]
    pub fn opt_u64(self, k: &str, v: Option<u64>) -> JsonObj {
        match v {
            Some(v) => self.u64(k, v),
            None => self.null(k),
        }
    }

    /// Adds an optional string (`null` when absent).
    #[must_use]
    pub fn opt_str(self, k: &str, v: Option<&str>) -> JsonObj {
        match v {
            Some(v) => self.str(k, v),
            None => self.null(k),
        }
    }

    /// Adds an explicit `null` field.
    #[must_use]
    pub fn null(mut self, k: &str) -> JsonObj {
        self.key(k).push_str("null");
        self
    }

    /// Adds a pre-serialized JSON value verbatim.
    #[must_use]
    pub fn raw(mut self, k: &str, v: &str) -> JsonObj {
        self.key(k).push_str(v);
        self
    }

    /// Finishes the object as one line (no trailing newline).
    #[must_use]
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Standard error response line: `ok:false`, the machine-readable
/// `code`, and the human-readable message.
#[must_use]
pub fn error_line(code: crate::ErrorCode, msg: &str) -> String {
    JsonObj::new()
        .bool("ok", false)
        .str("code", code.as_str())
        .str("error", msg)
        .finish()
}

/// Error line for a shed request, carrying the backoff hint admission
/// control computed.
#[must_use]
pub fn overloaded_line(msg: &str, retry_after_ms: u64) -> String {
    JsonObj::new()
        .bool("ok", false)
        .str("code", crate::ErrorCode::Overloaded.as_str())
        .str("error", msg)
        .u64("retry_after_ms", retry_after_ms)
        .finish()
}

/// Re-serializes a parsed [`Value`] as compact JSON (used by clients
/// to print nested response fields).
#[must_use]
pub fn write_value(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Num(n) if n.is_finite() => n.to_string(),
        Value::Num(_) => "null".to_string(),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Arr(items) => format!(
            "[{}]",
            items.iter().map(write_value).collect::<Vec<_>>().join(",")
        ),
        Value::Obj(map) => format!(
            "{{{}}}",
            map.iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), write_value(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let line = JsonObj::new()
            .bool("ok", true)
            .str("id", "j1\n\"x\"")
            .u64("n", 42)
            .i64("p", -3)
            .f64("t", 1.5)
            .opt_f64("d", None)
            .raw("arr", "[1,2]")
            .finish();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j1\n\"x\""));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(42.0));
        assert_eq!(v.get("p").and_then(Value::as_f64), Some(-3.0));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(
            v.get("arr").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
    }

    #[test]
    fn submit_parses_defaults_and_overrides() {
        let r = parse_request(
            r#"{"op":"submit","netlist":".model m\n.end","tenant":"acme","priority":2,"jobs":4,"delay_limit_percent":10,"deadline_secs":1.5,"patterns":128,"seed":7,"window_size":512,"window_overlap":64,"egraph_node_limit":256,"egraph_iters":4}"#,
        )
        .expect("valid");
        match r {
            Request::Submit { spec, netlist } => {
                assert_eq!(netlist, ".model m\n.end");
                assert_eq!(spec.tenant, "acme");
                assert_eq!(spec.priority, 2);
                assert_eq!(spec.jobs, 4);
                assert_eq!(spec.patterns, 128);
                assert_eq!(spec.seed, 7);
                assert_eq!(spec.delay_limit_percent, Some(10.0));
                assert_eq!(spec.deadline_secs, Some(1.5));
                assert_eq!(spec.window_size, Some(512));
                assert_eq!(spec.window_overlap, Some(64));
                assert_eq!(spec.egraph_node_limit, Some(256));
                assert_eq!(spec.egraph_iters, Some(4));
                // Untouched fields keep CLI defaults.
                assert_eq!(spec.passes, "powder");
                assert_eq!(spec.repeat, 10);
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_requests_naming_the_problem() {
        assert!(parse_request("not json").unwrap_err().contains("bad JSON"));
        assert!(parse_request(r#"{"x":1}"#).unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse_request(r#"{"op":"status"}"#)
            .unwrap_err()
            .contains("job"));
        assert!(
            parse_request(r#"{"op":"submit","netlist":"x","priority":1.5}"#)
                .unwrap_err()
                .contains("priority")
        );
        assert!(parse_request(r#"{"op":"shutdown","mode":"later"}"#)
            .unwrap_err()
            .contains("later"));
        for bad in ["-1", "1.5", "2.0", "18446744073709551616", "\"7\""] {
            let line = format!(r#"{{"op":"submit","netlist":"x","seed":{bad}}}"#);
            assert!(
                parse_request(&line).unwrap_err().contains("seed"),
                "seed {bad} must be rejected"
            );
        }
        assert!(
            parse_request(r#"{"op":"submit","netlist":"x","egraph_node_limit":0}"#)
                .unwrap_err()
                .contains("egraph_node_limit")
        );
        assert!(
            parse_request(r#"{"op":"submit","netlist":"x","egraph_iters":0}"#)
                .unwrap_err()
                .contains("egraph_iters")
        );
    }

    /// A deadline no `Instant` can hold is refused at submit, not left
    /// to panic in the runner.
    #[test]
    fn unrepresentable_deadlines_are_refused() {
        for bad in ["-1", "0", "1e300"] {
            let line = format!(r#"{{"op":"submit","netlist":"x","deadline_secs":{bad}}}"#);
            assert!(
                parse_request(&line).unwrap_err().contains("deadline_secs"),
                "deadline_secs {bad} must be rejected"
            );
        }
    }

    #[test]
    fn large_seeds_parse_exactly() {
        for seed in [9_007_199_254_740_993u64, u64::MAX] {
            let line = format!(r#"{{"op":"submit","netlist":"x","seed":{seed}}}"#);
            match parse_request(&line).unwrap() {
                Request::Submit { spec, .. } => assert_eq!(spec.seed, seed),
                other => panic!("expected submit, got {other:?}"),
            }
        }
    }

    #[test]
    fn job_key_parses_and_rejects_bad_types() {
        let r = parse_request(r#"{"op":"submit","netlist":"x","job_key":"order-9"}"#).unwrap();
        match r {
            Request::Submit { spec, .. } => assert_eq!(spec.job_key.as_deref(), Some("order-9")),
            other => panic!("expected submit, got {other:?}"),
        }
        assert!(
            parse_request(r#"{"op":"submit","netlist":"x","job_key":7}"#)
                .unwrap_err()
                .contains("job_key")
        );
        assert!(
            parse_request(r#"{"op":"submit","netlist":"x","job_key":""}"#)
                .unwrap_err()
                .contains("job_key")
        );
    }

    #[test]
    fn error_lines_carry_codes() {
        use crate::ErrorCode;
        let line = error_line(ErrorCode::NotFound, "no such job \"j9\"");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("not-found"));

        let line = overloaded_line("queue full (8 jobs)", 250);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("code").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_f64), Some(250.0));
    }

    #[test]
    fn shutdown_modes() {
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown { drain: true }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown","mode":"now"}"#).unwrap(),
            Request::Shutdown { drain: false }
        );
    }
}
