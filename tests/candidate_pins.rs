//! Pins the exact candidate lists of the fault-simulation filter.
//!
//! The optimizer's commit arbiter identifies candidates by their position
//! in `generate_candidates`' output, so any change to the observability
//! masks or to the scan order shows up as a different list. The first
//! four hashes were recorded before the observability computation was
//! rewritten as a single reverse-topological sweep, the rest before the
//! candidate scans became word-major; each rewrite must reproduce them
//! exactly, for the whole-netlist path and for a windowed scope. Every
//! pinned list must also be free of duplicates: the generator emits each
//! candidate once by construction and no longer deduplicates its output.

use powder::CandidateScope;
use powder_atpg::{generate_candidates, generate_candidates_scoped, CandidateConfig, Substitution};
use powder_netlist::{partition_windows, Netlist, WindowConfig};
use powder_sim::{simulate, CellCovers, Patterns, SimValues};
use std::collections::BTreeSet;

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

/// The pinned `(length, hash)` of `cands`, after checking that no
/// candidate appears twice.
fn pin(cands: &[Substitution]) -> (usize, u64) {
    let distinct: BTreeSet<&Substitution> = cands.iter().collect();
    assert_eq!(distinct.len(), cands.len(), "duplicate candidates");
    (cands.len(), fnv1a(cands))
}

/// A configuration tight enough to reach every early cut-off: the
/// per-signal limit, the pair-pool cap, and the family guards of the
/// 3-input scans.
fn tight_config() -> CandidateConfig {
    CandidateConfig {
        max_per_signal: 2,
        pair_pool_cap: 3,
        enable_inverted: false,
        ..powder_bench::experiment_config(None).candidates
    }
}

/// The scope of the first 64-gate window of `nl`.
fn first_window_scope(nl: &Netlist) -> CandidateScope {
    let plan = partition_windows(
        nl,
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
    CandidateScope { targets, sources }
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
        assert_eq!(pin(&cands), (len, hash), "{name}");
    }
}

#[test]
fn remaining_workload_candidate_lists_are_pinned() {
    let cfg = powder_bench::experiment_config(None);
    for (name, len, hash) in [
        ("x1", 2578usize, 0x792d_be5f_49b8_ed85u64),
        ("example2", 4062, 0xf56a_5475_2f5e_be20),
        ("x4", 5628, 0xa1b3_b609_e713_d470),
        ("apex7", 1900, 0x2913_44ba_0d01_61b6),
        ("x3", 5665, 0x8aa0_15de_4a0a_ae9d),
        ("ex4", 6543, 0x5d48_1c3d_10ad_396d),
    ] {
        let (nl, covers, values) = setup(name);
        let cands = generate_candidates(&nl, &covers, &values, &cfg.candidates);
        assert_eq!(pin(&cands), (len, hash), "{name}");
    }
}

#[test]
fn tight_config_candidate_lists_are_pinned() {
    let (nl, covers, values) = setup("apex6");
    let cfg = tight_config();
    let whole = generate_candidates(&nl, &covers, &values, &cfg);
    assert_eq!(pin(&whole), (1064, 0x2d36_b7bc_34ec_5ba2), "whole netlist");
    let scope = first_window_scope(&nl);
    let windowed = generate_candidates_scoped(&nl, &covers, &values, &cfg, Some(&scope));
    assert_eq!(pin(&windowed), (489, 0x75c4_73a5_c3e2_ca83), "windowed");
}

#[test]
fn windowed_candidate_list_is_pinned() {
    let cfg = powder_bench::experiment_config(None);
    let (nl, covers, values) = setup("apex6");
    let scope = first_window_scope(&nl);
    let cands = generate_candidates_scoped(&nl, &covers, &values, &cfg.candidates, Some(&scope));
    assert_eq!(pin(&cands), (2815, 0xc8c0_106f_d12e_0fee));
}
