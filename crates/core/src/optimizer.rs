//! Configuration and entry points of the paper's Figure 5
//! `power_optimize` loop (the loop itself is `crate::arbiter`), and the
//! per-candidate helpers the loop calls.

use crate::report::OptimizeReport;
use crate::session::{AnalysisSession, SessionConfig};
use powder_atpg::{CandidateConfig, Substitution};
use powder_faults::FaultState;
use powder_netlist::Netlist;
use powder_obs as obs;
use powder_power::PowerConfig;
use powder_sim::Patterns;
use powder_timing::{SubstitutionTiming, TimingAnalysis};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Substitutions with total gain (`PG_A + PG_B + PG_C`) at or below
/// this are not applied.
pub const MIN_GAIN: f64 = 1e-9;

/// How the delay constraint of Section 3.4 is specified.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelayLimit {
    /// An absolute required time at the primary outputs.
    Absolute(f64),
    /// A multiple of the *initial* circuit delay; `Factor(1.0)` forbids any
    /// delay increase (the paper's "0 % delay constraint"), `Factor(1.2)`
    /// allows 20 %, and so on.
    Factor(f64),
}

/// Configuration of the optimizer (the parameters of Fig. 5 plus the
/// engineering knobs of the surrounding machinery).
#[derive(Clone, Debug)]
pub struct OptimizeConfig {
    /// The paper's `repeat`: substitutions committed per candidate
    /// generation round.
    pub repeat: usize,
    /// Optional delay constraint; `None` runs the unconstrained mode.
    pub delay_limit: Option<DelayLimit>,
    /// Random simulation volume: `sim_words × 64` patterns.
    pub sim_words: usize,
    /// Seed for the random pattern generator.
    pub seed: u64,
    /// PODEM backtrack budget per permissibility check.
    pub backtrack_limit: usize,
    /// Candidates pre-selected by `PG_A + PG_B` for full `PG_C` analysis.
    pub preselect: usize,
    /// Upper bound on candidate-generation rounds.
    pub max_rounds: usize,
    /// Candidates rejected (by delay or ATPG) per round before the round
    /// is cut short and fresh candidates are generated.
    pub max_rejections_per_round: usize,
    /// Worker threads for the candidate-evaluation pipeline. `0` means
    /// auto: the `POWDER_JOBS` environment variable if set, else the
    /// machine's available parallelism. `1` evaluates inline on the
    /// calling thread; any value yields bit-identical substitution
    /// sequences.
    pub jobs: usize,
    /// Candidate-generation knobs.
    pub candidates: CandidateConfig,
    /// Power model (output load, input probabilities).
    pub power: PowerConfig,
    /// Optional wall-clock deadline. When set, the run stops cleanly at
    /// the next check point after the deadline passes and reports the
    /// best-so-far netlist (commits are monotone power improvements, so
    /// the in-place netlist *is* the best seen). Per-proof ATPG budgets
    /// also shrink as the deadline approaches; see
    /// `guard::adaptive_backtrack`. `None` (the default) imposes no
    /// limit and leaves every decision bit-identical.
    pub deadline: Option<Instant>,
    /// Deterministic fault-injection plan (see `powder-faults`). `None`
    /// (the default) disables injection; every injection site is then a
    /// no-op.
    pub faults: Option<Arc<FaultState>>,
    /// Cooperative stop request (SIGINT, daemon drain, job cancellation).
    /// Checked at the same safe points as `deadline`: the run stops
    /// cleanly between commits and reports the best-so-far netlist with
    /// [`OptimizeReport::interrupted`] set. `None` never stops early.
    pub stop: Option<Arc<AtomicBool>>,
    /// Observer fired after every *fully completed* candidate round, at
    /// a committed boundary (journal drained, analyses consistent). This
    /// is the checkpoint hook: it fires at the same boundaries at any
    /// `jobs`, so checkpoints are bit-identical across worker counts.
    /// Rounds cut short by the deadline or a stop request do not fire
    /// it. `None` (the default) observes nothing.
    pub round_hook: Option<RoundHook>,
    /// Core size (gates) for the windowed large-netlist driver. `None`
    /// (the default) selects the automatic policy of
    /// `powder_netlist::WindowConfig::auto`: whole-netlist optimization
    /// below the auto threshold, windowed beyond it. `Some(n)` forces
    /// `n`-gate windows regardless of circuit size.
    pub window_size: Option<usize>,
    /// Halo budget (gates borrowed from neighbouring windows) for the
    /// windowed driver. `None` derives it from the window size
    /// (`size / 8`); must be strictly smaller than the window size.
    pub window_overlap: Option<usize>,
    /// Units of work already completed by an interrupted invocation
    /// this one resumes: candidate rounds for whole-netlist runs,
    /// completed windows for windowed runs. The run executes only the
    /// remaining units. `0` (the default) runs from the start.
    pub rounds_offset: usize,
}

/// Borrowed view of optimizer state at a committed round boundary,
/// handed to [`RoundHook`] observers.
pub struct RoundSnapshot<'a> {
    /// Completed rounds so far in this `optimize` call (1-based).
    pub rounds_done: usize,
    /// The netlist after the round's commits (journal drained).
    pub nl: &'a Netlist,
    /// The simulation pattern set, including counterexamples learned up
    /// to and including this round.
    pub patterns: &'a Patterns,
    /// Total substitutions committed so far in this call.
    pub commits: usize,
    /// The absolute required time this call resolved from
    /// [`OptimizeConfig::delay_limit`] (`None` when unconstrained). A
    /// resumed run must pin [`DelayLimit::Absolute`] to this value:
    /// re-resolving a [`DelayLimit::Factor`] against the mid-run netlist
    /// would move the constraint.
    pub required_time: Option<f64>,
}

/// A shareable end-of-round observer (see
/// [`OptimizeConfig::round_hook`]). Wraps the closure in an `Arc` so the
/// config stays `Clone`.
#[derive(Clone)]
pub struct RoundHook(Arc<dyn Fn(RoundSnapshot<'_>) + Send + Sync>);

impl RoundHook {
    /// Wraps `f` as a round observer.
    pub fn new(f: impl Fn(RoundSnapshot<'_>) + Send + Sync + 'static) -> Self {
        RoundHook(Arc::new(f))
    }

    /// Invokes the observer.
    pub fn call(&self, snapshot: RoundSnapshot<'_>) {
        (self.0)(snapshot);
    }
}

impl std::fmt::Debug for RoundHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RoundHook(..)")
    }
}

/// Whether a cooperative stop has been requested.
pub(crate) fn stop_requested(stop: Option<&Arc<AtomicBool>>) -> bool {
    stop.is_some_and(|s| s.load(Ordering::Relaxed))
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            repeat: 10,
            delay_limit: None,
            sim_words: 8,
            seed: 0xB0D1E5,
            backtrack_limit: 3_000,
            preselect: 8,
            max_rounds: 60,
            max_rejections_per_round: 250,
            jobs: 0,
            candidates: CandidateConfig::default(),
            power: PowerConfig::default(),
            deadline: None,
            faults: None,
            stop: None,
            round_hook: None,
            window_size: None,
            window_overlap: None,
            rounds_offset: 0,
        }
    }
}

/// Runs POWDER on `nl` in place and reports what happened.
///
/// This is the paper's `power_optimize(netlist, repeat, delay_limit)`:
/// estimate power, then repeatedly generate candidate substitutions by
/// fault simulation, select the best by `PG_A + PG_B` pre-selection and
/// full `PG_C` analysis, discard candidates violating the delay constraint,
/// prove the survivor permissible by ATPG, commit it, and incrementally
/// re-estimate — until no power-reducing substitution remains.
///
/// The run is [`AnalysisSession::run_powder`] on a fresh session that
/// takes `nl` over for its duration.
pub fn optimize(nl: &mut Netlist, config: &OptimizeConfig) -> OptimizeReport {
    let owned = std::mem::replace(nl, Netlist::new("", Arc::clone(nl.library())));
    let mut sess = AnalysisSession::new(owned, SessionConfig::from_optimize(config));
    let report = sess.run_powder(config);
    *nl = sess.into_netlist();
    report
}

/// Publishes the `netlist.arena.*` occupancy gauges for the current
/// arena state. Len-based byte counts, so deterministic for a given
/// netlist regardless of allocation history.
pub(crate) fn record_arena_gauges(nl: &Netlist) {
    let s = nl.arena_stats();
    obs::gauge!(obs::names::ARENA_SLOTS).set(s.slots as f64);
    obs::gauge!(obs::names::ARENA_LIVE).set(s.live as f64);
    obs::gauge!(obs::names::ARENA_DEAD).set(s.dead as f64);
    obs::gauge!(obs::names::ARENA_FANIN_POOL).set(s.fanin_pool as f64);
    obs::gauge!(obs::names::ARENA_FANOUT_BRANCHES).set(s.fanout_branches as f64);
    obs::gauge!(obs::names::ARENA_COLUMN_BYTES).set(s.column_bytes as f64);
}

/// All gates referenced by a candidate are still live.
pub(crate) fn candidate_alive(nl: &Netlist, sub: &Substitution) -> bool {
    let (b, c) = sub.sources();
    if !nl.is_live(b) || c.is_some_and(|c| !nl.is_live(c)) {
        return false;
    }
    match *sub {
        Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => nl.is_live(a),
        Substitution::Is2 { sink, pin, .. } | Substitution::Is3 { sink, pin, .. } => {
            nl.is_live(sink) && (pin as usize) < nl.fanins(sink).len()
        }
    }
}

/// Compares every piece of incrementally maintained session state
/// against a from-scratch recomputation, panicking on divergence. The
/// unit tests of this crate run it after every commit. The retained
/// values are checked only when `values_fresh`: a counterexample learned
/// earlier in the round grew the pattern set past them.
#[cfg(test)]
pub(crate) fn cross_check_state(sess: &AnalysisSession, values_fresh: bool) {
    let (nl, est) = (&sess.nl, &sess.est);
    let close = |x: f64, y: f64| (x == y) || (x - y).abs() <= 1e-9;

    let scan = est.circuit_power(nl);
    let total = est.total_power();
    let tol = 1e-6 * scan.abs().max(1.0);
    assert!(
        (total - scan).abs() <= tol,
        "running power total {total} diverged from scan {scan}"
    );
    let fresh = powder_power::PowerEstimator::new(nl, est.config());
    for g in nl.iter_live() {
        assert!(
            close(est.probability(g), fresh.probability(g)),
            "probability of {} drifted: {} vs fresh {}",
            nl.gate_name(g),
            est.probability(g),
            fresh.probability(g)
        );
    }

    if let Some(values) = sess.values.as_ref().filter(|_| values_fresh) {
        let full = powder_sim::simulate(nl, &sess.covers, &sess.patterns);
        for g in nl.iter_live() {
            assert_eq!(
                values.get(g),
                full.get(g),
                "retained simulation of {} is stale",
                nl.gate_name(g)
            );
        }
    }

    if let Some(sta) = &sess.sta {
        let fresh = TimingAnalysis::new(nl, &sta.config());
        for g in nl.iter_live() {
            assert!(
                close(sta.arrival(g), fresh.arrival(g)),
                "arrival of {} drifted: {} vs fresh {}",
                nl.gate_name(g),
                sta.arrival(g),
                fresh.arrival(g)
            );
            assert!(
                close(sta.required(g), fresh.required(g)),
                "required of {} drifted: {} vs fresh {}",
                nl.gate_name(g),
                sta.required(g),
                fresh.required(g)
            );
        }
        assert!(
            close(sta.circuit_delay(), fresh.circuit_delay()),
            "circuit delay drifted: {} vs fresh {}",
            sta.circuit_delay(),
            fresh.circuit_delay()
        );
    }
}

/// Prepares the what-if timing description of a substitution (Section 3.4).
pub(crate) fn substitution_timing(
    nl: &Netlist,
    sta: &TimingAnalysis,
    sub: &Substitution,
    output_load: f64,
) -> SubstitutionTiming {
    let lib = nl.library();
    let (b, c) = sub.sources();
    let required_at_a = match *sub {
        Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => sta.required(a),
        Substitution::Is2 { sink, .. } | Substitution::Is3 { sink, .. } => {
            sta.branch_required(nl, sink)
        }
    };
    let moved_cap = match *sub {
        Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => nl.load_cap(a, output_load),
        Substitution::Is2 { sink, pin, .. } | Substitution::Is3 { sink, pin, .. } => {
            nl.branch_cap(&powder_netlist::Conn { gate: sink, pin }, output_load)
        }
    };
    match *sub {
        Substitution::Os2 { invert, .. } | Substitution::Is2 { invert, .. } => {
            if invert {
                let inv = lib.cell_ref(lib.inverter());
                SubstitutionTiming {
                    required_at_a,
                    b,
                    extra_cap_on_b: inv.pin_cap(0),
                    new_gate_delay: inv.delay(moved_cap),
                    c: None,
                }
            } else {
                SubstitutionTiming {
                    required_at_a,
                    b,
                    extra_cap_on_b: moved_cap,
                    new_gate_delay: 0.0,
                    c: None,
                }
            }
        }
        Substitution::Os3 { cell, .. } | Substitution::Is3 { cell, .. } => {
            let cl = lib.cell_ref(cell);
            SubstitutionTiming {
                required_at_a,
                b,
                extra_cap_on_b: cl.pin_cap(0),
                new_gate_delay: cl.delay(moved_cap),
                c: Some((c.expect("3-sub"), cl.pin_cap(1))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_atpg::{check_substitution, CheckOutcome};
    use powder_library::lib2;
    use powder_power::PowerEstimator;
    use powder_sim::{simulate as sim, CellCovers, Patterns as Pats};
    use powder_timing::TimingConfig;
    use std::sync::Arc;

    /// Output signatures under exhaustive patterns, for equivalence checks.
    fn po_sigs(nl: &Netlist) -> Vec<Vec<u64>> {
        let covers = CellCovers::new(nl.library());
        let pats = Pats::exhaustive(nl.inputs().len());
        let vals = sim(nl, &covers, &pats);
        nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
    }

    fn redundant_circuit() -> Netlist {
        // Two copies of (a&b) feeding an OR plus an unrelated XOR consumer:
        // plenty of substitution opportunities.
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let xor2 = lib.find_by_name("xor2").unwrap();
        let mut nl = Netlist::new("redundant", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", and2, &[b, a]); // duplicate of g1
        let g3 = nl.add_cell("g3", or2, &[g1, g2]); // == g1
        let g4 = nl.add_cell("g4", xor2, &[g3, c]);
        nl.add_output("f", g4);
        nl
    }

    #[test]
    fn optimizer_reduces_power_and_preserves_function() {
        let mut nl = redundant_circuit();
        let before_sigs = po_sigs(&nl);
        let report = optimize(&mut nl, &OptimizeConfig::default());
        nl.validate().unwrap();
        assert_eq!(po_sigs(&nl), before_sigs, "I/O behaviour must not change");
        assert!(
            report.final_power < report.initial_power,
            "redundancy must be exploited: {report}"
        );
        assert!(!report.applied.is_empty());
        // The duplicate AND pair must have been merged away.
        assert!(nl.cell_count() < 4);
    }

    #[test]
    fn delay_constrained_mode_never_exceeds_limit() {
        let mut nl = redundant_circuit();
        let cfg = OptimizeConfig {
            delay_limit: Some(DelayLimit::Factor(1.0)),
            ..OptimizeConfig::default()
        };
        let report = optimize(&mut nl, &cfg);
        nl.validate().unwrap();
        assert!(
            report.final_delay <= report.initial_delay + 1e-9,
            "delay grew: {} -> {}",
            report.initial_delay,
            report.final_delay
        );
    }

    #[test]
    fn absolute_delay_limit_is_respected() {
        let mut nl = redundant_circuit();
        let initial = TimingAnalysis::new(
            &nl,
            &TimingConfig {
                output_load: 1.0,
                required_time: None,
            },
        )
        .circuit_delay();
        let cfg = OptimizeConfig {
            delay_limit: Some(DelayLimit::Absolute(initial * 2.0)),
            ..OptimizeConfig::default()
        };
        let report = optimize(&mut nl, &cfg);
        assert!(report.final_delay <= initial * 2.0 + 1e-9);
    }

    #[test]
    fn report_bookkeeping_is_consistent() {
        let mut nl = redundant_circuit();
        let report = optimize(&mut nl, &OptimizeConfig::default());
        let total_saved: f64 = report.applied.iter().map(|a| a.power_saved).sum();
        assert!(
            (total_saved - (report.initial_power - report.final_power)).abs() < 1e-6,
            "per-substitution savings must add up: {total_saved} vs {}",
            report.initial_power - report.final_power
        );
        let total_area: f64 = report.applied.iter().map(|a| a.area_delta).sum();
        assert!((total_area - (report.final_area - report.initial_area)).abs() < 1e-6);
    }

    /// The paper's Figure 2 rewiring end-to-end: starting from circuit A
    /// (d = a ⊕ c branches into f = d·b, plus e = a·b driving its own
    /// output), POWDER finds a power-reducing permissible rewiring of the
    /// XOR's `a` branch onto e, producing circuit B.
    #[test]
    fn paper_figure2_example() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("fig2", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let e = nl.add_cell("e", and2, &[a, b]);
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        nl.add_output("fe", e);
        nl.add_output("ff", f);
        let before_sigs = po_sigs(&nl);

        // The candidate the paper performs: IS2 of branch a→d by e.
        let sub = Substitution::Is2 {
            sink: d,
            pin: 0,
            b: e,
            invert: false,
        };
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let gain = crate::gain::analyze_full(&nl, &est, &sub);
        assert!(
            gain.total() > 0.0,
            "the Figure 2 rewiring must reduce power: {gain:?}"
        );
        assert_eq!(
            check_substitution(&nl, &sub, 1000),
            CheckOutcome::Permissible
        );

        // And the optimizer, left alone, must reduce power without
        // changing the outputs.
        let report = optimize(&mut nl, &OptimizeConfig::default());
        nl.validate().unwrap();
        assert_eq!(po_sigs(&nl), before_sigs);
        assert!(report.final_power < report.initial_power, "{report}");
    }

    /// Commits refresh STA, power and simulation incrementally over the
    /// dirty cone; the loop has no full-rebuild path for STA or power.
    #[test]
    fn steady_state_commits_use_only_incremental_refreshes() {
        let mut nl = redundant_circuit();
        let cfg = OptimizeConfig {
            delay_limit: Some(DelayLimit::Factor(2.0)),
            ..OptimizeConfig::default()
        };
        let report = optimize(&mut nl, &cfg);
        assert!(
            !report.applied.is_empty(),
            "test needs at least one commit to be meaningful"
        );
        assert!(report.incremental.incremental_sta_updates > 0);
        assert!(report.incremental.incremental_power_updates > 0);
        assert!(report.incremental.incremental_resims > 0);
    }

    /// The per-phase breakdown accounts for (most of) the wall clock and
    /// every tracked phase is non-negative.
    #[test]
    fn phase_times_are_sane() {
        let mut nl = redundant_circuit();
        let report = optimize(&mut nl, &OptimizeConfig::default());
        let p = report.phase;
        for t in [
            p.simulation,
            p.candidates,
            p.gain,
            p.timing,
            p.atpg,
            p.apply,
        ] {
            assert!(t >= 0.0);
        }
        assert!(
            p.total() <= report.cpu_seconds + 1e-6,
            "phases {} exceed wall clock {}",
            p.total(),
            report.cpu_seconds
        );
    }
}
