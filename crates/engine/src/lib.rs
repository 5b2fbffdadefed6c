//! Parallel candidate-evaluation engine.
//!
//! POWDER's inner loop evaluates many independent substitution
//! candidates per accepted move: full power-gain analysis and ATPG
//! permissibility proofs are pure functions of the netlist until a
//! commit mutates it. This crate provides the generic machinery that
//! runs those evaluations on a worker pool whose *decisions* are the
//! same at every worker count:
//!
//! | module | provides |
//! |--------|----------|
//! | [`pool`] | [`WorkerPool`]: scoped thread pool, one task per item from a shared cursor, with caller-owned per-worker contexts |
//! | [`budget`] | [`ThreadBudget`]: worker threads shared between concurrent runs |
//! | [`stats`] | [`EngineStats`]: per-stage counters and wall times for reports |
//!
//! The engine itself is policy-free: it knows nothing about gains,
//! SAT, or the POWDER arbiter. The loop that wires these pieces to the
//! optimizer lives in `powder::arbiter` (the `core` crate).
//!
//! # Snapshot model
//!
//! Workers only ever observe an immutable netlist (`&Netlist`); all
//! mutation happens on the arbiter thread between parallel phases. The
//! arbiter memoizes results for the current netlist only: a commit
//! clears them, and a guard rollback, which restores the netlist bit
//! for bit, keeps them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod pool;
pub mod stats;

pub use budget::{ThreadBudget, ThreadLease};
pub use pool::{PoolResilience, WorkerPool, MAX_WORKER_LOSSES};
pub use stats::{EngineStats, SessionStats};

/// Resolves the worker count for an optimizer run.
///
/// Precedence: an explicit non-zero `requested` value wins; otherwise
/// the `POWDER_JOBS` environment variable (if set to a positive
/// integer); otherwise [`std::thread::available_parallelism`]. Always
/// returns at least 1.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("POWDER_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of hardware threads actually available to this process.
///
/// Speculation depth should track this rather than the requested
/// worker count: speculative work is free only while it fills
/// otherwise-idle hardware threads, so an oversubscribed pool
/// (`jobs` > hardware) should speculate as if it had `hardware`
/// workers or it executes proofs that a commit then discards.
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::resolve_jobs;

    #[test]
    fn explicit_jobs_override_everything() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
    }

    #[test]
    fn auto_jobs_is_positive() {
        // May read POWDER_JOBS or machine parallelism; either way the
        // contract is "at least one worker".
        assert!(resolve_jobs(0) >= 1);
    }
}
