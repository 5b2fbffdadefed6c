//! `powder serve` — a multi-tenant optimization daemon.
//!
//! This crate turns the POWDER optimizer into a long-running service:
//! clients submit netlist-optimization jobs over a newline-delimited
//! JSON protocol on plain TCP, a fair scheduler spreads a bounded
//! worker pool across tenants, and every job checkpoints its state at
//! committed round boundaries so a killed or drained daemon resumes
//! in-flight work bit-identically on restart.
//!
//! | module | provides |
//! |--------|----------|
//! | [`job`] | [`JobSpec`] with its one codec, validator and run builder, the [`JobPhase`] state machine, shared [`JobRecord`] |
//! | [`protocol`] | line-JSON request parsing and the compact response writer |
//! | [`error`] | the [`ErrorCode`] taxonomy shared by daemon, client, and CLI |
//! | [`scheduler`] | priority + per-tenant round-robin blocking queue |
//! | [`store`] | durable CRC-verified state directory (specs, checkpoints, results) |
//! | [`daemon`] | accept loop, admission control, runner pool, drain, crash site |
//! | [`client`] | blocking client with backoff/retry used by `powder submit` |
//! | [`signal`] | SIGINT/SIGTERM → cooperative stop flag (no libc crate) |
//!
//! # Fidelity invariant
//!
//! A serve job and `powder optimize` build their run with the same
//! [`JobSpec::pipeline`] from the same flags, so its output netlist
//! is bit-identical to a standalone CLI run — including when the job
//! was checkpointed, killed, and resumed, and regardless of how many
//! evaluation threads the daemon granted. The checkpoint layer's
//! bit-identity is proven end to end in `tests/checkpoint_resume.rs`
//! (repo root) and `crates/cli/tests/serve_e2e.rs`.

// `deny`, not `forbid`: the `signal` module needs one `extern "C"`
// declaration (std already links libc) and opts back in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod error;
pub mod job;
pub mod protocol;
pub mod scheduler;
pub mod store;

#[allow(unsafe_code)]
pub mod signal;

pub use daemon::{run, ServeConfig};
pub use error::ErrorCode;
pub use job::{JobPhase, JobRecord, JobSpec, Progress};
pub use protocol::{parse_request, JsonObj, Request};
pub use scheduler::Scheduler;
pub use store::{JobStore, RecoveredJob};
