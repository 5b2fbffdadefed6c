//! Property tests of the incremental analysis engine and the parallel
//! candidate-evaluation pipeline: after a randomized sequence of netlist
//! edits, the incrementally maintained power totals, signal
//! probabilities, retained simulation values, and STA
//! arrivals/requireds/slacks must match a from-scratch recomputation
//! within 1e-9 — and a full optimizer run must commit bit-identical
//! substitution sequences at any worker count.

use powder::{optimize, DelayLimit, OptimizeConfig, Substitution};
use powder_library::lib2;
use powder_netlist::{GateId, GateKind, Netlist};
use powder_power::{PowerConfig, PowerEstimator};
use powder_sim::{resimulate_cone, simulate, CellCovers, Patterns, SimValues};
use powder_timing::{TimingAnalysis, TimingConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// Builds a random mapped netlist from a recipe of bytes (same scheme as
/// `tests/properties.rs`): `ops[i]` selects a cell and fanins among
/// earlier signals, so construction order is a topological order.
fn random_netlist(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let cells: Vec<_> = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "andn2",
    ]
    .iter()
    .map(|n| lib.find_by_name(n).expect("lib2 cell"))
    .collect();
    let mut nl = Netlist::new("inc-prop", lib);
    let mut signals: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, (op, a, b)) in ops.iter().enumerate() {
        let cell = cells[*op as usize % cells.len()];
        let ca = signals[*a as usize % signals.len()];
        let cb = signals[*b as usize % signals.len()];
        let lib = nl.library().clone();
        let g = if lib.cell_ref(cell).inputs() == 1 {
            nl.add_cell(format!("g{k}"), cell, &[ca])
        } else {
            nl.add_cell(format!("g{k}"), cell, &[ca, cb])
        };
        signals.push(g);
    }
    let n = signals.len();
    for (i, &s) in signals[n.saturating_sub(3)..].iter().enumerate() {
        nl.add_output(format!("f{i}"), s);
    }
    nl
}

/// `x ≈ y`, treating two infinities of the same sign as equal.
fn close(x: f64, y: f64) -> bool {
    x == y || (x - y).abs() <= 1e-9
}

/// Asserts every piece of incremental state against fresh analyses.
fn check_against_scratch(
    nl: &Netlist,
    covers: &CellCovers,
    pats: &Patterns,
    est: &PowerEstimator,
    values: &SimValues,
    sta: &TimingAnalysis,
) -> Result<(), TestCaseError> {
    let scan = est.circuit_power(nl);
    prop_assert!(
        (est.total_power() - scan).abs() <= 1e-9 * scan.abs().max(1.0),
        "running total {} vs scan {}",
        est.total_power(),
        scan
    );
    let fresh_est = PowerEstimator::new(nl, est.config());
    let fresh_sta = TimingAnalysis::new(nl, &sta.config());
    let fresh_vals = simulate(nl, covers, pats);
    for g in nl.iter_live() {
        let name = nl.gate_name(g);
        prop_assert!(
            close(est.probability(g), fresh_est.probability(g)),
            "prob({name}): {} vs {}",
            est.probability(g),
            fresh_est.probability(g)
        );
        prop_assert_eq!(
            values.get(g),
            fresh_vals.get(g),
            "sim values of {} stale",
            name
        );
        prop_assert!(
            close(sta.arrival(g), fresh_sta.arrival(g)),
            "arrival({name}): {} vs {}",
            sta.arrival(g),
            fresh_sta.arrival(g)
        );
        prop_assert!(
            close(sta.required(g), fresh_sta.required(g)),
            "required({name}): {} vs {}",
            sta.required(g),
            fresh_sta.required(g)
        );
        prop_assert!(
            close(sta.slack(g), fresh_sta.slack(g)),
            "slack({name}): {} vs {}",
            sta.slack(g),
            fresh_sta.slack(g)
        );
    }
    prop_assert!(close(sta.circuit_delay(), fresh_sta.circuit_delay()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized edit sequences: rewire random cell fanins to random
    /// earlier signals (construction order keeps the DAG acyclic) or tie
    /// them to a freshly added constant of either value, sweep dangling
    /// logic, and after every edit refresh all analyses over the drained
    /// dirty region. Every intermediate state must agree with
    /// from-scratch recomputation.
    #[test]
    fn incremental_refreshes_match_from_scratch(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 6..28),
        edits in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<bool>(), 0u8..4),
            1..12,
        ),
        inputs in 2usize..5,
    ) {
        let nl = &mut random_netlist(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(nl.inputs().len(), 4, 0x1C4);
        let pcfg = PowerConfig::default();
        let tcfg = TimingConfig { output_load: 1.0, required_time: Some(200.0) };

        let mut est = PowerEstimator::new(nl, &pcfg);
        let mut sta = TimingAnalysis::new(nl, &tcfg);
        let mut values = simulate(nl, &covers, &pats);
        nl.drain_dirty(); // analyses reflect the current state

        for (i, &(pick_sink, pick_src, do_sweep, kind)) in edits.iter().enumerate() {
            // Choose a live cell sink and a live source constructed
            // earlier than it (ids grow in construction order).
            let cells: Vec<GateId> = nl
                .iter_live()
                .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
                .collect();
            if cells.is_empty() {
                break;
            }
            let sink = cells[pick_sink as usize % cells.len()];
            let candidates: Vec<GateId> = nl
                .iter_live()
                .filter(|&g| g.0 < sink.0 && !matches!(nl.kind(g), GateKind::Output))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            // Kinds 0 and 1 rewire; 2 and 3 tie to a new constant 0 / 1.
            let src = if kind < 2 {
                candidates[pick_src as usize % candidates.len()]
            } else {
                nl.add_const(format!("k{i}"), kind == 3)
            };
            let pin = pick_src as u32 % nl.fanins(sink).len() as u32;
            let old = nl.replace_fanin(sink, pin, src);
            if do_sweep {
                nl.sweep_from(old);
            }
            prop_assume!(nl.validate().is_ok());

            // The shared refresh protocol: one drained region drives
            // every analysis.
            let region = nl.drain_dirty();
            let cone = nl.dirty_cone(&region);
            est.retire_gates(region.removed());
            est.update_cone(nl, &cone);
            resimulate_cone(nl, &covers, &mut values, &cone);
            sta.update(nl, &region, &cone);

            check_against_scratch(nl, &covers, &pats, &est, &values, &sta)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine determinism: the commit arbiter's decisions must not
    /// depend on the worker count, so
    /// `jobs = 1` and `jobs = 4` runs on the same circuit commit the
    /// same substitutions in the same order and land on identical
    /// final power and delay — bit-for-bit, not just within epsilon.
    #[test]
    fn parallel_jobs_commit_identical_substitution_sequences(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 8..32),
        inputs in 2usize..5,
        constrain_delay in any::<bool>(),
    ) {
        let seed_nl = random_netlist(inputs, &ops);
        prop_assume!(seed_nl.validate().is_ok());
        let base = OptimizeConfig {
            jobs: 1,
            sim_words: 2,
            max_rounds: 8,
            delay_limit: constrain_delay.then_some(DelayLimit::Factor(1.2)),
            ..OptimizeConfig::default()
        };

        let mut nl_seq = seed_nl.clone();
        let r_seq = optimize(&mut nl_seq, &base);
        let mut nl_par = seed_nl.clone();
        let r_par = optimize(&mut nl_par, &OptimizeConfig { jobs: 4, ..base.clone() });

        prop_assert_eq!(r_seq.jobs, 1);
        prop_assert_eq!(r_par.jobs, 4);
        let subs_seq: Vec<Substitution> =
            r_seq.applied.iter().map(|a| a.substitution).collect();
        let subs_par: Vec<Substitution> =
            r_par.applied.iter().map(|a| a.substitution).collect();
        prop_assert_eq!(subs_seq, subs_par, "committed sequences diverged");
        prop_assert_eq!(r_seq.final_power, r_par.final_power, "final power diverged");
        prop_assert_eq!(r_seq.final_delay, r_par.final_delay, "final delay diverged");
        prop_assert_eq!(r_seq.final_area, r_par.final_area, "final area diverged");
        prop_assert_eq!(r_seq.atpg_checks, r_par.atpg_checks);
        prop_assert_eq!(r_seq.delay_rejections, r_par.delay_rejections);
        nl_par.validate().unwrap();
    }
}
