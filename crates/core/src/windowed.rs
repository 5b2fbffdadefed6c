//! The windowed driver for large netlists.
//!
//! Whole-netlist POWDER walks every stem/branch pair per round; on a
//! 100k-gate circuit that is hopeless. This module runs the same
//! optimizer window-locally instead: the netlist is carved into
//! MFFC-seeded overlapping regions (`powder_netlist::window`), and each
//! window gets its own inner run of the Fig. 5 loop
//! (`arbiter::power_optimize`) under a [`CandidateScope`] — rewrite
//! targets are the window core, substitution sources its full scope
//! (core, halo, boundary). The scope bounds candidate generation, whose
//! observability masks count any edge leaving the window as observed,
//! and the ATPG permissibility miter, which is cut at the window: signals
//! entering it are free variables, differences leaving it count as
//! observed, and a counterexample is "not proven" rather than learned.
//! Gain analysis, delay checks and the commit guard are cone-local and
//! need no window awareness.
//!
//! # Repartition per step
//!
//! The plan is recomputed from the *current* netlist before every
//! window, and step `k` processes window `k` of that fresh plan.
//! Partitioning is a deterministic function of the arena state, so a
//! run resumed from the checkpoint taken after window `k-1` (restored
//! netlist + `rounds_offset = k`) recomputes exactly the plan the
//! uninterrupted run saw at step `k` — checkpoint/resume round-trips
//! bit-identically, the same property the whole-netlist rounds have.
//!
//! # Cross-window conflicts
//!
//! Windows are processed strictly in plan order against the shared
//! netlist, and cores are disjoint, so two windows never race for the
//! same rewrite target; halo gates are read-only substitution sources.
//! A commit in window `k` that sweeps logic reaching into a later
//! window's territory is simply reflected in the repartitioned plan of
//! step `k+1` — there is no stale-plan reconciliation to do.

use crate::optimizer::{stop_requested, DelayLimit, OptimizeConfig, RoundSnapshot};
use crate::report::{GuardStats, OptimizeReport, PhaseTimes, WindowReport};
use crate::session::AnalysisSession;
use powder_atpg::CandidateScope;
use powder_engine::{EngineStats, SessionStats};
use powder_netlist::{partition_windows, Window, WindowConfig};
use powder_obs as obs;
use std::time::Instant;

/// Resolves the window configuration a top-level run should use:
/// explicit `window_size` wins, otherwise the automatic policy of
/// [`WindowConfig::auto`] decides by live gate count. An unset overlap
/// defaults to an eighth of the window size. `None` means run the
/// whole-netlist loop.
pub(crate) fn resolve_window_config(
    config: &OptimizeConfig,
    live_gates: usize,
) -> Option<WindowConfig> {
    match config.window_size {
        Some(size) => Some(WindowConfig {
            size,
            overlap: config
                .window_overlap
                .unwrap_or_else(|| (size / 8).min(size.saturating_sub(1))),
        }),
        None => WindowConfig::auto(live_gates).map(|auto| WindowConfig {
            overlap: config.window_overlap.unwrap_or(auto.overlap),
            ..auto
        }),
    }
}

/// Dense scope masks for one window: targets are the core, sources the
/// full scope. Returns the scope cardinality alongside for reporting.
pub(crate) fn window_scope(bound: usize, w: &Window) -> (CandidateScope, usize) {
    let mut targets = vec![false; bound];
    for &g in &w.core {
        targets[g.0 as usize] = true;
    }
    let scope_ids = w.scope();
    let scope_gates = scope_ids.len();
    let mut sources = vec![false; bound];
    for &g in &scope_ids {
        sources[g.0 as usize] = true;
    }
    (CandidateScope { targets, sources }, scope_gates)
}

/// Runs POWDER window by window (see the module docs) on the session,
/// whose timing view every window shares. `wcfg` comes from
/// [`resolve_window_config`]; panics if it is degenerate (`size == 0`
/// or `overlap >= size`) — the CLI validates user input before it gets
/// here.
pub(crate) fn optimize_windowed(
    sess: &mut AnalysisSession,
    config: &OptimizeConfig,
    wcfg: WindowConfig,
) -> OptimizeReport {
    let t0 = Instant::now();
    let stats_before = sess.stats;
    let jobs = powder_engine::resolve_jobs(config.jobs);
    let initial_power = sess.est.circuit_power(&sess.nl);
    let initial_area = sess.nl.area();
    let initial_delay = sess.delay();
    // Resolve a Factor constraint once, against the initial circuit:
    // per-window inner runs get an Absolute limit, so later windows
    // never re-anchor the constraint to an already-optimized delay.
    let required_time = config.delay_limit.map(|dl| match dl {
        DelayLimit::Absolute(t) => t,
        DelayLimit::Factor(f) => f * initial_delay,
    });

    let mut report = OptimizeReport {
        initial_power,
        final_power: initial_power,
        initial_area,
        final_area: initial_area,
        initial_delay,
        final_delay: initial_delay,
        applied: Vec::new(),
        rounds: 0,
        atpg_checks: 0,
        atpg_rejections: 0,
        delay_rejections: 0,
        cpu_seconds: 0.0,
        phase: PhaseTimes::default(),
        incremental: SessionStats::default(),
        jobs,
        engine: EngineStats {
            jobs,
            ..EngineStats::default()
        },
        guard: GuardStats::default(),
        quarantined: Vec::new(),
        windows: Vec::new(),
        deadline_hit: false,
        interrupted: false,
    };
    let mut windows_done = 0usize;

    let mut k = config.rounds_offset;
    loop {
        if crate::guard::deadline_exceeded(config.deadline) {
            report.deadline_hit = true;
            obs::counter!(obs::names::OPTIMIZER_DEADLINE_HITS).inc();
            break;
        }
        if stop_requested(config.stop.as_ref()) {
            report.interrupted = true;
            break;
        }
        let plan = partition_windows(&sess.nl, wcfg);
        obs::gauge!(obs::names::WINDOW_PLAN_SIZE).set(plan.len() as f64);
        if k >= plan.len() {
            break;
        }
        let w = &plan.windows[k];
        let t_window = Instant::now();
        let _span = obs::span!(obs::names::span::WINDOW);
        let (scope, scope_gates) = window_scope(sess.nl.id_bound(), w);

        let mut inner = config.clone();
        inner.rounds_offset = 0;
        inner.round_hook = None;
        inner.delay_limit = required_time.map(DelayLimit::Absolute);

        let rep = crate::arbiter::power_optimize(sess, &inner, Some(&scope));

        report.atpg_checks += rep.atpg_checks;
        report.atpg_rejections += rep.atpg_rejections;
        report.delay_rejections += rep.delay_rejections;
        report.phase.accumulate(&rep.phase);
        report.engine.merge(&rep.engine);
        accumulate_guard(&mut report.guard, &rep.guard);
        let commits = rep.applied.len();
        let power_saved: f64 = rep.applied.iter().map(|a| a.power_saved).sum();
        obs::counter!(obs::names::WINDOW_PROCESSED).inc();
        obs::counter!(obs::names::WINDOW_COMMITS).add(commits as u64);
        report.windows.push(WindowReport {
            index: k,
            core_gates: w.core.len(),
            scope_gates,
            commits,
            power_saved,
            phase: rep.phase,
            seconds: t_window.elapsed().as_secs_f64(),
        });
        report.applied.extend(rep.applied);
        report.quarantined.extend(rep.quarantined);
        report.deadline_hit |= rep.deadline_hit;
        report.interrupted |= rep.interrupted;
        if report.deadline_hit || report.interrupted {
            // The window was cut short mid-round; like a cut-short
            // whole-netlist round it fires no hook, so a resume replays
            // it from the last completed-window checkpoint.
            break;
        }
        windows_done += 1;
        if let Some(hook) = &config.round_hook {
            hook.call(RoundSnapshot {
                rounds_done: windows_done,
                nl: &sess.nl,
                patterns: &sess.patterns,
                commits: report.applied.len(),
                required_time,
            });
        }
        k += 1;
    }

    report.rounds = report.windows.len();
    report.final_delay = sess.delay();
    report.incremental = sess.stats.delta(&stats_before);
    report.final_power = sess.est.circuit_power(&sess.nl);
    report.final_area = sess.nl.area();
    report.cpu_seconds = t0.elapsed().as_secs_f64();
    report
}

fn accumulate_guard(into: &mut GuardStats, from: &GuardStats) {
    into.verified += from.verified;
    into.skipped += from.skipped;
    into.mismatches += from.mismatches;
    into.rollbacks += from.rollbacks;
    into.escalations += from.escalations;
    into.quarantined += from.quarantined;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::session::SessionConfig;
    use powder_library::lib2;
    use powder_netlist::{GateId, Netlist};
    use powder_sim::{simulate, CellCovers, Patterns};
    use std::sync::Arc;

    /// Deterministic layered DAG with plenty of redundancy: each layer
    /// duplicates half its gates, so OS2 merges abound in every region.
    fn layered(layers: usize, width: usize) -> Netlist {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("layered", lib);
        let mut prev: Vec<GateId> = (0..width).map(|i| nl.add_input(format!("i{i}"))).collect();
        for l in 0..layers {
            let mut next = Vec::with_capacity(width);
            for w in 0..width {
                // Columns pair up: each odd column duplicates the even
                // column to its left (same symmetric cell, operands
                // swapped) — a guaranteed OS2 opportunity per pair.
                let cell = if (l + w / 2) % 2 == 0 { and2 } else { or2 };
                let (a, b) = if w % 2 == 1 {
                    (prev[w], prev[w - 1])
                } else {
                    (prev[w], prev[(w + 1) % width])
                };
                next.push(nl.add_cell(format!("g{l}_{w}"), cell, &[a, b]));
            }
            prev = next;
        }
        for (w, &g) in prev.iter().enumerate() {
            nl.add_output(format!("o{w}"), g);
        }
        let _ = nl.drain_dirty();
        nl.validate().unwrap();
        nl
    }

    fn po_sigs(nl: &Netlist) -> Vec<Vec<u64>> {
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(nl.inputs().len().min(10));
        let vals = simulate(nl, &covers, &pats);
        nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
    }

    #[test]
    fn windowed_run_reduces_power_and_preserves_function() {
        let mut nl = layered(6, 6);
        let before = po_sigs(&nl);
        let cfg = OptimizeConfig {
            window_size: Some(8),
            window_overlap: Some(2),
            ..OptimizeConfig::default()
        };
        let report = optimize(&mut nl, &cfg);
        nl.validate().unwrap();
        assert_eq!(po_sigs(&nl), before, "I/O behaviour must not change");
        assert!(!report.windows.is_empty(), "windowed driver must have run");
        assert!(report.final_power < report.initial_power, "{report}");
        assert_eq!(report.rounds, report.windows.len());
        let commits: usize = report.windows.iter().map(|w| w.commits).sum();
        assert_eq!(commits, report.applied.len());
    }

    #[test]
    fn window_rows_account_for_savings() {
        let mut nl = layered(5, 4);
        let cfg = OptimizeConfig {
            window_size: Some(6),
            ..OptimizeConfig::default()
        };
        let report = optimize(&mut nl, &cfg);
        let per_window: f64 = report.windows.iter().map(|w| w.power_saved).sum();
        let total = report.initial_power - report.final_power;
        assert!(
            (per_window - total).abs() < 1e-6,
            "window savings {per_window} must add up to {total}"
        );
    }

    #[test]
    fn small_circuits_stay_on_the_classic_path_by_default() {
        let mut nl = layered(4, 4);
        let report = optimize(&mut nl, &OptimizeConfig::default());
        assert!(
            report.windows.is_empty(),
            "auto policy must not window below the threshold"
        );
    }

    #[test]
    fn windowed_resume_is_bit_identical() {
        // Reference: run all windows in one call, recording the commit
        // sequence per completed window.
        let cfg = OptimizeConfig {
            window_size: Some(8),
            window_overlap: Some(2),
            ..OptimizeConfig::default()
        };
        let mut nl_ref = layered(6, 6);
        let ref_report = optimize(&mut nl_ref, &cfg);
        assert!(
            ref_report.windows.len() >= 2,
            "test needs at least two windows"
        );

        // Interrupted run: process exactly one window, then resume a
        // second invocation with rounds_offset = 1 on the same session
        // (the checkpoint protocol restores the pattern set, which
        // learned counterexamples may have grown).
        let mut sess = AnalysisSession::new(layered(6, 6), SessionConfig::from_optimize(&cfg));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_in_hook = stop.clone();
        let first = OptimizeConfig {
            stop: Some(stop.clone()),
            round_hook: Some(crate::optimizer::RoundHook::new(move |_snap| {
                stop_in_hook.store(true, std::sync::atomic::Ordering::Relaxed);
            })),
            ..cfg.clone()
        };
        let r1 = sess.run_powder(&first);
        assert_eq!(r1.windows.len(), 1, "stop after the first window");
        let resumed = OptimizeConfig {
            rounds_offset: 1,
            ..cfg.clone()
        };
        let r2 = sess.run_powder(&resumed);

        let seq_ref: Vec<_> = ref_report.applied.iter().map(|a| a.substitution).collect();
        let seq_split: Vec<_> = r1
            .applied
            .iter()
            .chain(r2.applied.iter())
            .map(|a| a.substitution)
            .collect();
        assert_eq!(seq_ref, seq_split, "resume diverged from one-shot run");
        assert!((nl_ref.area() - sess.netlist().area()).abs() < 1e-9);
    }
}
