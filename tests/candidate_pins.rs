//! Pins the exact candidate lists of the fault-simulation filter.
//!
//! The optimizer's commit arbiter identifies candidates by their position
//! in `generate_candidates`' output, so any change to the observability
//! masks or to the scan order shows up as a different list. The hashes
//! below were recorded before the observability computation was rewritten
//! as a single reverse-topological sweep; the rewrite must reproduce them
//! exactly, for the whole-netlist path and for a windowed scope.

use powder::CandidateScope;
use powder_atpg::{generate_candidates, generate_candidates_scoped, Substitution};
use powder_netlist::{partition_windows, Netlist, WindowConfig};
use powder_sim::{simulate, CellCovers, Patterns, SimValues};

/// 64-bit FNV-1a over the debug rendering of every candidate, in order.
fn fnv1a(cands: &[Substitution]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in cands {
        for b in format!("{c:?};").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A suite circuit simulated under the Table-1 experiment patterns.
fn setup(name: &str) -> (Netlist, CellCovers, SimValues) {
    let nl = powder_benchmarks::build(name, powder_bench::library()).expect("suite circuit");
    let cfg = powder_bench::experiment_config(None);
    let covers = CellCovers::new(nl.library());
    let pats = Patterns::random(nl.inputs().len(), cfg.sim_words, cfg.seed);
    let values = simulate(&nl, &covers, &pats);
    (nl, covers, values)
}

#[test]
fn whole_netlist_candidate_lists_are_pinned() {
    let cfg = powder_bench::experiment_config(None);
    for (name, len, hash) in [
        ("bw", 7424usize, 0x8070_3bdd_f4c2_cbc7u64),
        ("apex6", 5926, 0x3e60_c185_ee98_0e36),
        ("frg2", 4954, 0x10d8_be9e_58e8_f07e),
    ] {
        let (nl, covers, values) = setup(name);
        let cands = generate_candidates(&nl, &covers, &values, &cfg.candidates);
        assert_eq!((cands.len(), fnv1a(&cands)), (len, hash), "{name}");
    }
}

#[test]
fn windowed_candidate_list_is_pinned() {
    let cfg = powder_bench::experiment_config(None);
    let (nl, covers, values) = setup("apex6");
    let plan = partition_windows(
        &nl,
        WindowConfig {
            size: 64,
            overlap: 8,
        },
    );
    let w = &plan.windows[0];
    let bound = nl.id_bound();
    let mut targets = vec![false; bound];
    for g in &w.core {
        targets[g.0 as usize] = true;
    }
    let mut sources = vec![false; bound];
    for g in w.scope() {
        sources[g.0 as usize] = true;
    }
    let scope = CandidateScope { targets, sources };
    let cands = generate_candidates_scoped(&nl, &covers, &values, &cfg.candidates, Some(&scope));
    assert_eq!((cands.len(), fnv1a(&cands)), (2815, 0xc8c0_106f_d12e_0fee));
}
