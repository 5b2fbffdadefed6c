//! Per-stage counters and wall times for the evaluation pipeline.
//!
//! These structs are per-run *views*: the pipeline accumulates them
//! locally for each report, while the same increment sites also feed
//! the process-wide `powder-obs` metric registry under the
//! `engine.*` / `core.analysis.*` names.

/// Counters describing one optimizer run's trip through the engine.
///
/// Wall times are measured on the arbiter thread around each parallel
/// phase, so they nest inside the run's total CPU time even when many
/// workers are active.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Resolved worker count the run used.
    pub jobs: usize,
    /// Candidates fast-scored: signature/ODC-filtered survivors that
    /// received a PG_A+PG_B estimate. The arbiter's ranking scores only
    /// the targets it had to scan to certify the ranks it read.
    pub evaluated: usize,
    /// Candidates dropped by the arbiter's liveness/validity scan
    /// before any expensive evaluation (dead stem, stale structure).
    pub filtered: usize,
    /// Full what-if gain evaluations (PG_C) computed, including
    /// speculative ones.
    pub full_gains: usize,
    /// ATPG permissibility proofs executed, including speculative ones.
    pub proved: usize,
    /// Proof results consumed from the memo without recomputation:
    /// proved ahead of arbiter demand, or asked for again at an
    /// unchanged netlist (a round that only learned counterexamples).
    pub speculative_hits: usize,
    /// Worker tasks that panicked and were contained by the pool's
    /// isolation boundary instead of aborting the run.
    pub worker_panics: usize,
    /// Tasks quarantined after a panic (their items report no result).
    pub quarantined_batches: usize,
    /// Parallel phases that degraded to a sequential drain after
    /// repeated worker losses.
    pub degraded_phases: usize,
    /// Wall seconds in the parallel full-gain stage.
    pub gain_seconds: f64,
    /// Wall seconds in the parallel ATPG proof stage.
    pub proof_seconds: f64,
    /// Wall seconds in the sequential commit arbiter (decision replay,
    /// commits).
    pub arbiter_seconds: f64,
}

impl EngineStats {
    /// Folds another run's counters into this one (for pipeline-level
    /// aggregation across several optimizer invocations). Counters and
    /// wall times add; `jobs` keeps the maximum resolved worker count.
    pub fn merge(&mut self, other: &EngineStats) {
        self.jobs = self.jobs.max(other.jobs);
        self.evaluated += other.evaluated;
        self.filtered += other.filtered;
        self.full_gains += other.full_gains;
        self.proved += other.proved;
        self.speculative_hits += other.speculative_hits;
        self.worker_panics += other.worker_panics;
        self.quarantined_batches += other.quarantined_batches;
        self.degraded_phases += other.degraded_phases;
        self.gain_seconds += other.gain_seconds;
        self.proof_seconds += other.proof_seconds;
        self.arbiter_seconds += other.arbiter_seconds;
    }
}

/// Analysis-refresh counters of a shared [`AnalysisSession`]: how often
/// each analysis was rebuilt from scratch versus repaired over a dirty
/// cone. The pass pipeline reports a per-pass delta of these, which is
/// how the "no full re-simulation between passes" guarantee is
/// asserted. The optimizer reports the delta over its run in the same
/// type (`OptimizeReport::incremental`): its commits' refreshes, their
/// repairs, and any full build the run needed (its timing view, or a
/// re-simulation under a grown pattern set).
///
/// [`AnalysisSession`]: https://docs.rs/powder
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Whole-netlist simulations (initial materialization or a stale
    /// pattern set).
    pub full_resims: usize,
    /// Cone-local simulation refreshes after journaled edits.
    pub incremental_resims: usize,
    /// Power estimators built by a full topological propagation.
    pub full_power_builds: usize,
    /// Cone-local probability/contribution refreshes.
    pub incremental_power_updates: usize,
    /// Timing analyses built by a full forward/backward pass.
    pub full_sta_builds: usize,
    /// Incremental arrival/required repairs over dirty regions.
    pub incremental_sta_updates: usize,
    /// Journal drains that triggered any refresh work.
    pub refreshes: usize,
}

impl SessionStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &SessionStats) {
        self.full_resims += other.full_resims;
        self.incremental_resims += other.incremental_resims;
        self.full_power_builds += other.full_power_builds;
        self.incremental_power_updates += other.incremental_power_updates;
        self.full_sta_builds += other.full_sta_builds;
        self.incremental_sta_updates += other.incremental_sta_updates;
        self.refreshes += other.refreshes;
    }

    /// The counters accumulated since `since` was captured (field-wise
    /// saturating difference).
    #[must_use]
    pub fn delta(&self, since: &SessionStats) -> SessionStats {
        SessionStats {
            full_resims: self.full_resims.saturating_sub(since.full_resims),
            incremental_resims: self
                .incremental_resims
                .saturating_sub(since.incremental_resims),
            full_power_builds: self
                .full_power_builds
                .saturating_sub(since.full_power_builds),
            incremental_power_updates: self
                .incremental_power_updates
                .saturating_sub(since.incremental_power_updates),
            full_sta_builds: self.full_sta_builds.saturating_sub(since.full_sta_builds),
            incremental_sta_updates: self
                .incremental_sta_updates
                .saturating_sub(since.incremental_sta_updates),
            refreshes: self.refreshes.saturating_sub(since.refreshes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{EngineStats, SessionStats};

    #[test]
    fn session_stats_delta_inverts_merge() {
        let mut total = SessionStats {
            full_resims: 2,
            incremental_resims: 10,
            ..SessionStats::default()
        };
        let snapshot = total;
        let extra = SessionStats {
            incremental_resims: 3,
            incremental_sta_updates: 4,
            refreshes: 5,
            ..SessionStats::default()
        };
        total.merge(&extra);
        assert_eq!(total.delta(&snapshot), extra);
    }

    #[test]
    fn engine_stats_merge_adds_counters_and_keeps_max_jobs() {
        let mut a = EngineStats {
            jobs: 1,
            evaluated: 5,
            proved: 2,
            gain_seconds: 0.5,
            ..EngineStats::default()
        };
        let b = EngineStats {
            jobs: 4,
            evaluated: 7,
            proved: 1,
            gain_seconds: 0.25,
            ..EngineStats::default()
        };
        a.merge(&b);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.evaluated, 12);
        assert_eq!(a.proved, 3);
        assert!((a.gain_seconds - 0.75).abs() < 1e-12);
    }
}
