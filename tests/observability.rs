//! Cross-cutting guarantees of the `powder-obs` subsystem:
//!
//! * observability is write-only — gate-level optimizer results are
//!   bit-identical with recording enabled or disabled, at any job count;
//! * metric snapshots are deterministic — two `--jobs 4` runs of the
//!   `powder` pass produce identical registry deltas once wall-clock
//!   (`*_ns` / `*_seconds`) metrics are stripped;
//! * the optimizer report and the registry count the same events —
//!   each report count equals the registry delta under its name, and
//!   ATPG aborts are the typed subset of ATPG rejections;
//! * the ranking's lazy target scans are traced under the phases they
//!   are timed in;
//! * histogram shard merging is order- and partition-independent
//!   (property-tested, since that is what snapshot determinism under
//!   parallel workers rests on);
//! * (release builds only) the enabled registry costs < 5% wall clock
//!   over the no-op sink on an optimizer workload.
//!
//! The registry and the enable switches are process-global, so every
//! test that touches them serializes on one mutex; the proptest works
//! on stand-alone [`HistogramSnapshot`] values and needs no lock.

use powder::{optimize, DelayLimit, OptimizeConfig, OptimizeReport};
use powder_faults::FaultPlan;
use powder_library::lib2;
use powder_netlist::blif::write_blif;
use powder_netlist::{GateId, Netlist};
use powder_obs as obs;
use powder_obs::HistogramSnapshot;
use powder_passes::{build_pipeline, AnalysisSession, SessionConfig};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serializes tests that read or toggle the process-global registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Holds [`OBS_LOCK`]. Dropping it folds this thread's metric shard
/// into the registry before the lock is released, so no count of one
/// test can land in another test's snapshot delta when the test thread
/// exits.
struct ObsGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        obs::flush_thread();
    }
}

fn obs_lock() -> ObsGuard {
    ObsGuard {
        _lock: OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// A deterministic ~60-gate mapped netlist (xorshift-driven recipe,
/// same construction scheme as `tests/incremental.rs`).
fn test_netlist() -> Netlist {
    let lib = Arc::new(lib2());
    let cells: Vec<_> = ["and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1"]
        .iter()
        .map(|n| lib.find_by_name(n).expect("lib2 cell"))
        .collect();
    let mut nl = Netlist::new("obs-test", lib);
    let mut signals: Vec<GateId> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for k in 0..60 {
        let cell = cells[rng() as usize % cells.len()];
        let a = signals[rng() as usize % signals.len()];
        let b = signals[rng() as usize % signals.len()];
        let lib = nl.library().clone();
        let g = if lib.cell_ref(cell).inputs() == 1 {
            nl.add_cell(format!("g{k}"), cell, &[a])
        } else {
            nl.add_cell(format!("g{k}"), cell, &[a, b])
        };
        signals.push(g);
    }
    let n = signals.len();
    for (i, &s) in signals[n - 3..].iter().enumerate() {
        nl.add_output(format!("f{i}"), s);
    }
    nl.validate().expect("valid test netlist");
    nl
}

fn config(jobs: usize) -> OptimizeConfig {
    OptimizeConfig {
        repeat: 3,
        sim_words: 4,
        seed: 0xC0FFEE,
        jobs,
        ..OptimizeConfig::default()
    }
}

/// Runs the optimizer and returns the final BLIF text plus the report.
fn run_once(jobs: usize) -> (String, OptimizeReport) {
    let mut nl = test_netlist();
    let report = optimize(&mut nl, &config(jobs));
    (write_blif(&nl), report)
}

/// Restores the default switch state (metrics on, tracing off).
fn restore_defaults() {
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(false);
}

#[test]
fn results_bit_identical_with_obs_on_and_off() {
    let _guard = obs_lock();
    for jobs in [1, 4] {
        obs::set_enabled(true);
        let (blif_on, report_on) = run_once(jobs);
        obs::set_enabled(false);
        let (blif_off, report_off) = run_once(jobs);
        restore_defaults();
        assert_eq!(
            blif_on, blif_off,
            "jobs={jobs}: gate-level result changed with observability off"
        );
        assert_eq!(report_on.applied.len(), report_off.applied.len());
        assert_eq!(report_on.final_power, report_off.final_power);
    }
    // Sanity: the instrumented run actually recorded something.
    assert!(obs::snapshot().counter(obs::names::OPTIMIZER_ROUNDS) > 0);
}

#[test]
fn jobs4_powder_snapshots_are_identical_across_runs() {
    let _guard = obs_lock();
    restore_defaults();
    let run = || {
        let cfg = config(4);
        let before = obs::snapshot();
        let mut sess = AnalysisSession::new(test_netlist(), SessionConfig::from_optimize(&cfg));
        let mut pipeline = build_pipeline("powder", &cfg, None).expect("valid spec");
        let _ = pipeline.run(&mut sess);
        obs::snapshot().delta(&before).without_durations()
    };
    let first = run();
    let second = run();
    assert!(
        first.counter(obs::names::ANALYSIS_SIM_FULL) > 0,
        "run recorded nothing: {first:?}"
    );
    assert_eq!(
        first, second,
        "two --jobs 4 powder runs diverged in non-duration metrics"
    );
}

/// Every cone the egraph pass rejects is counted under exactly one of
/// the six typed reasons, and the total counter matches the report.
#[test]
fn egraph_reject_reasons_sum_to_total() {
    let _guard = obs_lock();
    restore_defaults();
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build("bw", lib).expect("bw builds");
    let cfg = config(1);
    let before = obs::snapshot();
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
    let mut pipeline = build_pipeline("egraph", &cfg, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    let delta = obs::snapshot().delta(&before);
    let er = report.passes[0].egraph.expect("egraph stats attached");
    let total = delta.counter(obs::names::EGRAPH_REJECTED);
    let reasons: u64 = obs::names::EGRAPH_REJECT_REASONS
        .iter()
        .map(|name| delta.counter(name))
        .sum();
    assert!(er.rejected > 0, "bw rejects some cones");
    assert_eq!(
        total, er.rejected as u64,
        "total counter matches the report"
    );
    assert_eq!(reasons, total, "typed reasons sum to the total");
}

/// Every count the optimizer report carries equals the registry delta
/// under its name: the engine counts (`engine.*`), the analysis
/// refreshes (`core.analysis.*`), and the commits, ATPG checks and
/// rejections, and delay rejections (`core.optimizer.*`). Covers a
/// delay-limited run at one worker, a four-worker run, and a windowed
/// run.
#[test]
fn report_counts_match_registry_deltas() {
    use obs::names;
    let _guard = obs_lock();
    restore_defaults();
    let lib = Arc::new(lib2());
    let runs = [
        (
            "bw",
            OptimizeConfig {
                delay_limit: Some(DelayLimit::Factor(1.0)),
                ..config(1)
            },
        ),
        ("apex6", config(4)),
        (
            "frg2",
            OptimizeConfig {
                window_size: Some(64),
                ..config(1)
            },
        ),
    ];
    for (name, cfg) in runs {
        let mut nl = powder_benchmarks::build(name, Arc::clone(&lib)).expect("suite circuit");
        let before = obs::snapshot();
        let report = optimize(&mut nl, &cfg);
        let delta = obs::snapshot().delta(&before);
        let (e, i) = (&report.engine, &report.incremental);
        for (metric, count) in [
            (names::ENGINE_EVALUATED, e.evaluated),
            (names::ENGINE_FILTERED, e.filtered),
            (names::ENGINE_FULL_GAINS, e.full_gains),
            (names::ENGINE_PROVED, e.proved),
            (names::ENGINE_SPECULATIVE_HITS, e.speculative_hits),
            (names::RESILIENCE_WORKER_PANICS, e.worker_panics),
            (names::RESILIENCE_QUARANTINED_BATCHES, e.quarantined_batches),
            (names::RESILIENCE_DEGRADED_PHASES, e.degraded_phases),
            (names::ANALYSIS_STA_INCREMENTAL, i.incremental_sta_updates),
            (names::ANALYSIS_SIM_FULL, i.full_resims),
            (names::ANALYSIS_SIM_INCREMENTAL, i.incremental_resims),
            (
                names::ANALYSIS_POWER_INCREMENTAL,
                i.incremental_power_updates,
            ),
            (names::OPTIMIZER_COMMITS, report.applied.len()),
            (names::OPTIMIZER_ATPG_CHECKS, report.atpg_checks),
            (names::OPTIMIZER_ATPG_REJECTIONS, report.atpg_rejections),
            (names::OPTIMIZER_DELAY_REJECTIONS, report.delay_rejections),
        ] {
            assert_eq!(delta.counter(metric), count as u64, "{name}: {metric}");
        }
        assert!(!report.applied.is_empty(), "{name} commits something");
    }
}

/// The lazy ranking's target scans and their scoring are traced under
/// the phases they are timed in: besides each round's start (one
/// `core.phase.candidates` span for the scan build, one
/// `core.phase.gain` for the bounds), every scanned target records a
/// `core.phase.candidates` span.
#[test]
fn ranking_scans_are_traced() {
    use obs::names::span;
    let _guard = obs_lock();
    restore_defaults();
    let _ = obs::drain();
    obs::set_tracing_enabled(true);
    let (_, report) = run_once(1);
    let dump = obs::drain();
    restore_defaults();
    assert_eq!(dump.dropped, 0);
    let count = |name: &str| dump.events.iter().filter(|e| e.name == name).count();
    assert_eq!(count(span::ROUND), report.rounds);
    assert!(
        count(span::PHASE_CANDIDATES) > report.rounds,
        "{} candidate spans over {} rounds",
        count(span::PHASE_CANDIDATES),
        report.rounds
    );
}

/// `core.optimizer.atpg_aborts` counts the aborted proofs among the
/// ATPG rejections: all of them when a fault plan aborts every proof,
/// at most all of them on a clean run.
#[test]
fn atpg_aborts_are_a_subset_of_rejections() {
    use obs::names;
    let _guard = obs_lock();
    restore_defaults();
    let lib = Arc::new(lib2());
    let every_proof_aborts = FaultPlan::parse("atpg-abort=every:1")
        .expect("plan parses")
        .into_state();
    for (faults, all_abort) in [(Some(every_proof_aborts), true), (None, false)] {
        let mut nl = powder_benchmarks::build("bw", Arc::clone(&lib)).expect("suite circuit");
        let before = obs::snapshot();
        let report = optimize(
            &mut nl,
            &OptimizeConfig {
                faults,
                ..config(1)
            },
        );
        let delta = obs::snapshot().delta(&before);
        let rejections = delta.counter(names::OPTIMIZER_ATPG_REJECTIONS);
        let aborts = delta.counter(names::OPTIMIZER_ATPG_ABORTS);
        assert_eq!(rejections, report.atpg_rejections as u64);
        if all_abort {
            assert!(rejections > 0, "the faulted run proves something");
            assert_eq!(aborts, rejections);
        } else {
            assert!(aborts <= rejections);
        }
    }
}

/// Release-only: recording must stay under 5% wall-clock overhead
/// versus the no-op sink. Debug builds skip this — unoptimized hot
/// paths make the ratio meaningless.
#[cfg(not(debug_assertions))]
#[test]
fn overhead_under_five_percent_in_release() {
    let _guard = obs_lock();
    let timed = |on: bool| -> f64 {
        obs::set_enabled(on);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            let _ = run_once(4);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let enabled = timed(true);
    let disabled = timed(false);
    restore_defaults();
    // 5% relative plus a small absolute floor so sub-millisecond
    // workloads don't turn scheduler jitter into failures.
    assert!(
        enabled <= disabled * 1.05 + 0.03,
        "observability overhead too high: enabled {enabled:.4}s vs no-op sink {disabled:.4}s"
    );
}

proptest! {
    /// Any partition of the observations into shards, merged in any
    /// order, equals observing them sequentially — the property that
    /// makes scrapes deterministic however the pool's workers split
    /// the work.
    #[test]
    fn histogram_merge_is_order_and_partition_independent(
        values in proptest::collection::vec(0u64..100, 0..64),
        shard_of in proptest::collection::vec(0usize..4, 64..65),
        merge_order in Just([3usize, 1, 0, 2]),
    ) {
        let bounds: &[u64] = &[1, 4, 16, 64];
        let mut sequential = HistogramSnapshot::empty(bounds);
        let mut shards = vec![HistogramSnapshot::empty(bounds); 4];
        for (i, &v) in values.iter().enumerate() {
            sequential.observe(v);
            shards[shard_of[i]].observe(v);
        }
        let mut merged = HistogramSnapshot::empty(bounds);
        for &s in &merge_order {
            merged.merge(&shards[s]);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.count, values.len() as u64);
    }
}
