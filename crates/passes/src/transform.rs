//! The pass interface: [`Transform`], its budget, and per-pass reports.

use powder::AnalysisSession;
use powder::{OptimizeReport, RoundHook};
use powder_engine::SessionStats;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Resource limits and run-control hooks a pass must respect.
#[derive(Clone, Debug)]
pub struct PassBudget {
    /// ATPG backtrack limit per permissibility proof.
    pub backtrack_limit: usize,
    /// Cooperative stop flag: a pass that can stop at a committed
    /// boundary (POWDER stops between rounds) checks it and returns
    /// its best-so-far state.
    pub stop: Option<Arc<AtomicBool>>,
    /// Committed-round observer threaded into POWDER passes (the
    /// pipeline's checkpoint sink rides on it).
    pub round_hook: Option<RoundHook>,
    /// Rounds already completed by an interrupted POWDER pass: a
    /// resumed pass runs `max_rounds - rounds_offset` further rounds.
    /// Zero for a normal run.
    pub rounds_offset: usize,
    /// Pinned absolute required time for a resumed POWDER pass,
    /// overriding the config's delay limit (a `Factor` re-resolved
    /// against the mid-run netlist would move the constraint).
    pub required_time: Option<f64>,
}

impl Default for PassBudget {
    fn default() -> Self {
        PassBudget {
            backtrack_limit: 3_000,
            stop: None,
            round_hook: None,
            rounds_offset: 0,
            required_time: None,
        }
    }
}

/// What one pass did to the circuit, measured against the shared
/// session's analyses before and after.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Pass name (as accepted by the pipeline language).
    pub name: String,
    /// `Σ C·E` when the pass started.
    pub power_before: f64,
    /// `Σ C·E` when the pass finished.
    pub power_after: f64,
    /// Gate area before.
    pub area_before: f64,
    /// Gate area after.
    pub area_after: f64,
    /// Netlist edits the pass committed (substitutions, cell swaps, or
    /// gates removed).
    pub edits: usize,
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
    /// Analysis refreshes this pass caused: the session counter delta
    /// over the pass. A well-behaved pass performs zero
    /// `full_resims`/`full_power_builds` after the session's initial
    /// materialization — everything rides the edit journal.
    pub session: SessionStats,
    /// The full optimizer report, for passes that wrap the POWDER loop.
    pub optimize: Option<OptimizeReport>,
    /// Equality-saturation statistics, for the `egraph` pass.
    pub egraph: Option<powder_egraph::EgraphReport>,
}

impl PassReport {
    /// Power saved by this pass (positive = reduced).
    #[must_use]
    pub fn power_saved(&self) -> f64 {
        self.power_before - self.power_after
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} power {:.3} -> {:.3}, {} edits, {:.2}s \
             (resim {}i/{}f, power {}i/{}f, sta {}i/{}f)",
            self.name,
            self.power_before,
            self.power_after,
            self.edits,
            self.seconds,
            self.session.incremental_resims,
            self.session.full_resims,
            self.session.incremental_power_updates,
            self.session.full_power_builds,
            self.session.incremental_sta_updates,
            self.session.full_sta_builds,
        )
    }
}

/// A structural transformation that runs against the shared
/// [`AnalysisSession`].
///
/// Implementations read the netlist and its analyses through the
/// session's accessors and commit edits through its mutators (or
/// directly on [`AnalysisSession::netlist_mut`]); the session keeps
/// every analysis consistent across edits, so consecutive passes never
/// pay for a from-scratch rebuild of state the previous pass already
/// maintained.
pub trait Transform {
    /// Pipeline-language name of the pass.
    fn name(&self) -> &str;

    /// Runs the pass to completion (or until the budget is exhausted)
    /// and reports what changed.
    fn run(&mut self, sess: &mut AnalysisSession, budget: &PassBudget) -> PassReport;
}

/// Wraps a pass body with the standard before/after measurement:
/// power and area from the refreshed session on both sides, wall time,
/// and the session-stat delta attributable to the body.
pub(crate) fn instrumented(
    name: &str,
    sess: &mut AnalysisSession,
    body: impl FnOnce(&mut AnalysisSession) -> (usize, Option<OptimizeReport>),
) -> PassReport {
    let t0 = Instant::now();
    // Refresh (via `power()`) before snapshotting the counters so that
    // repairs owed to a previous pass's trailing edits are not billed
    // to this one.
    let power_before = sess.power();
    let area_before = sess.netlist().area();
    let stats_before = sess.stats();
    let (edits, optimize) = body(sess);
    let power_after = sess.power();
    let area_after = sess.netlist().area();
    PassReport {
        name: name.to_string(),
        power_before,
        power_after,
        area_before,
        area_after,
        edits,
        seconds: t0.elapsed().as_secs_f64(),
        session: sess.stats().delta(&stats_before),
        optimize,
        egraph: None,
    }
}
