//! Unified observability for the POWDER stack.
//!
//! PR 1–3 grew ad-hoc, mutually inconsistent counters (`EngineStats`,
//! `SessionStats`, per-phase `Instant` timers). This crate replaces
//! the *plumbing* underneath them with one subsystem every crate
//! reports into:
//!
//! | module | provides |
//! |--------|----------|
//! | [`metrics`] | lock-free registry: counters, gauges, fixed-bucket histograms; per-thread shards merged deterministically at scrape |
//! | [`span`](mod@span) | RAII [`Span`] guards: ns timestamps, parent/child links, per-worker tracks, bounded ring buffers (overflow drops + counts) |
//! | [`export`] | Chrome/Perfetto `trace_event` JSON for span dumps |
//! | [`names`] | the `<crate>.<subsystem>.<metric>` naming scheme |
//! | [`json`] | a minimal JSON reader for validating exporter output |
//!
//! # Recording
//!
//! ```
//! use powder_obs as obs;
//! obs::counter!(obs::names::OPTIMIZER_COMMITS).inc();
//! obs::histogram!(obs::names::ANALYSIS_CONE_GATES, obs::names::CONE_GATES_BOUNDS).observe(17);
//! let _guard = obs::span!(obs::names::span::PHASE_ATPG); // traced if enabled
//! ```
//!
//! Metric recording is on by default and costs one thread-local add;
//! span recording is off by default and costs one relaxed load until
//! enabled. [`set_enabled`] flips both at once — `set_enabled(false)`
//! is the no-op sink the overhead guard test compares against.
//!
//! # Determinism
//!
//! Scrapes merge per-thread shards with commutative, associative
//! integer operations only, so a fixed `--jobs N` workload produces a
//! bit-identical [`metrics::Snapshot`] on every run — up to the
//! wall-clock metrics (`*_ns`, `*_seconds`), which
//! [`metrics::Snapshot::without_durations`] strips for comparisons.
//! Observability is strictly write-only from the optimizer's point of
//! view: nothing in this crate feeds back into decisions, so enabling
//! or disabling it cannot change gate-level results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod span;

pub use metrics::{
    metrics_enabled, set_metrics_enabled, snapshot, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricValue, Snapshot,
};
pub use span::{
    drain, set_tracing_enabled, set_track_name, tracing_enabled, Span, TraceDump, TraceEvent,
};

/// Master switch: enables/disables both metric and span recording.
/// `set_enabled(false)` is the no-op sink — every observability call
/// becomes a relaxed load and an early return.
pub fn set_enabled(on: bool) {
    metrics::set_metrics_enabled(on);
    span::set_tracing_enabled(on);
}

/// Folds the calling thread's metric shard and trace buffer into the
/// globals immediately. Worker threads must call this as their last
/// act before finishing: `thread::scope` can return before a finished
/// thread's TLS destructors run, so without an explicit flush a scrape
/// right after a join could miss that worker's contribution.
pub fn flush_thread() {
    metrics::flush_thread();
    span::flush_thread();
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_register_and_record() {
        let c = crate::counter!("obs.test.macro_counter");
        c.add(2);
        crate::gauge!("obs.test.macro_gauge").set(1.5);
        crate::histogram!("obs.test.macro_hist", &[1, 2, 4]).observe(3);
        let snap = crate::snapshot();
        assert!(snap.counter("obs.test.macro_counter") >= 2);
        assert!(snap.get("obs.test.macro_hist").is_some());
    }
}
