//! Resilience integration tests: deterministic fault injection and
//! deadline-bounded execution driven end to end through `optimize`.
//!
//! Every scenario must end with a valid, function-preserving netlist —
//! the resilient runtime's whole contract is that faults and deadlines
//! degrade *throughput*, never *correctness*.

use powder::{optimize, OptimizeConfig};
use powder_faults::{FaultPlan, SITE_ATPG_ABORT, SITE_VERIFY_MISMATCH, SITE_WORKER_PANIC};
use powder_library::lib2;
use powder_netlist::blif::write_blif;
use powder_netlist::Netlist;
use powder_sim::{simulate, CellCovers, Patterns};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn build(name: &str) -> Netlist {
    powder_benchmarks::build(name, Arc::new(lib2())).expect("suite circuit builds")
}

fn po_signatures(nl: &Netlist, pats: &Patterns) -> Vec<Vec<u64>> {
    let covers = CellCovers::new(nl.library());
    let vals = simulate(nl, &covers, pats);
    nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
}

fn fast_config() -> OptimizeConfig {
    OptimizeConfig {
        sim_words: 4,
        max_rounds: 6,
        ..OptimizeConfig::default()
    }
}

/// A run with all three fault sites armed must complete, keep the
/// netlist valid and function-preserving, and report the injected
/// verify mismatch as a quarantined candidate — at both worker counts.
#[test]
fn faulted_run_completes_and_preserves_function() {
    for jobs in [1usize, 4] {
        let original = build("rd84");
        let pats = Patterns::random(original.inputs().len(), 8, 7);
        let before = po_signatures(&original, &pats);
        let state = FaultPlan::parse(
            "seed=1,worker-panic=every:3,atpg-abort=every:4,verify-mismatch=once:1",
        )
        .expect("plan parses")
        .into_state();
        let mut nl = original.clone();
        let cfg = OptimizeConfig {
            jobs,
            faults: Some(state.clone()),
            ..fast_config()
        };
        let report = optimize(&mut nl, &cfg);
        nl.validate().unwrap_or_else(|e| panic!("jobs {jobs}: {e}"));
        assert_eq!(
            po_signatures(&nl, &pats),
            before,
            "jobs {jobs}: faulted run changed the circuit function"
        );
        assert!(
            report.final_power <= report.initial_power + 1e-9,
            "jobs {jobs}: power increased"
        );
        // The guard must have caught the injected mismatch: rolled the
        // netlist back and quarantined the candidate.
        let mismatches = state.fired(SITE_VERIFY_MISMATCH) as usize;
        assert!(mismatches > 0, "jobs {jobs}: mismatch site never fired");
        assert_eq!(report.guard.mismatches, mismatches, "jobs {jobs}");
        assert_eq!(report.guard.rollbacks, mismatches, "jobs {jobs}");
        assert_eq!(report.quarantined.len(), mismatches, "jobs {jobs}");
        assert!(state.fired(SITE_ATPG_ABORT) > 0, "jobs {jobs}");
        assert!(
            state.fired(SITE_WORKER_PANIC) > 0,
            "jobs {jobs}: run never exercised the worker-panic site"
        );
        assert!(report.engine.worker_panics > 0, "jobs {jobs}");
    }
}

/// When every ATPG proof aborts, the optimizer must treat each verdict
/// conservatively: zero commits, netlist bit-identical to the input.
#[test]
fn aborted_proofs_never_commit() {
    for jobs in [1usize, 4] {
        let original = build("bw");
        let state = FaultPlan::parse("atpg-abort=every:1")
            .expect("plan parses")
            .into_state();
        let mut nl = original.clone();
        let cfg = OptimizeConfig {
            jobs,
            faults: Some(state),
            ..fast_config()
        };
        let report = optimize(&mut nl, &cfg);
        assert!(
            report.applied.is_empty(),
            "jobs {jobs}: committed through aborted proofs"
        );
        assert_eq!(
            write_blif(&nl),
            write_blif(&original),
            "jobs {jobs}: netlist changed without any commits"
        );
    }
}

/// An already-expired deadline stops the run before the first round but
/// still yields a valid best-so-far (= input) netlist.
#[test]
fn expired_deadline_yields_valid_best_so_far() {
    for jobs in [1usize, 4] {
        let original = build("bw");
        let mut nl = original.clone();
        let cfg = OptimizeConfig {
            jobs,
            deadline: Some(Instant::now()),
            ..fast_config()
        };
        let report = optimize(&mut nl, &cfg);
        assert!(report.deadline_hit, "jobs {jobs}: deadline not reported");
        assert_eq!(
            report.rounds, 0,
            "jobs {jobs}: a round ran past the deadline"
        );
        nl.validate().unwrap_or_else(|e| panic!("jobs {jobs}: {e}"));
        assert_eq!(write_blif(&nl), write_blif(&original), "jobs {jobs}");
    }
}

/// A deadline the run cannot possibly hit must not perturb the result:
/// the committed sequence stays bit-identical to an unbounded run.
#[test]
fn generous_deadline_is_bit_identical_to_unbounded() {
    let original = build("rd84");
    let mut unbounded = original.clone();
    let baseline = optimize(&mut unbounded, &fast_config());
    let mut bounded = original;
    let cfg = OptimizeConfig {
        deadline: Some(Instant::now() + Duration::from_secs(3600)),
        ..fast_config()
    };
    let report = optimize(&mut bounded, &cfg);
    assert!(!report.deadline_hit);
    assert_eq!(report.rounds, baseline.rounds);
    assert_eq!(report.applied.len(), baseline.applied.len());
    assert_eq!(write_blif(&bounded), write_blif(&unbounded));
}

/// With no fault plan installed the guard is pure verification: every
/// commit verifies, nothing mismatches, nothing is quarantined.
#[test]
fn healthy_runs_never_quarantine() {
    let mut nl = build("rd84");
    let report = optimize(&mut nl, &fast_config());
    assert!(
        !report.applied.is_empty(),
        "fixture should commit something"
    );
    assert_eq!(
        report.guard.verified + report.guard.skipped,
        report.applied.len()
    );
    assert!(report.guard.verified > 0, "incremental runs verify commits");
    assert_eq!(report.guard.mismatches, 0);
    assert_eq!(report.guard.rollbacks, 0);
    assert!(report.quarantined.is_empty());
    assert!(!report.deadline_hit);
}
