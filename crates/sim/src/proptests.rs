//! Property-based tests: the bit-parallel simulator against a naive
//! per-pattern reference evaluator, and observability against brute-force
//! output flipping.

use crate::{
    branch_observability, observability_sweep, simulate, stem_observability, CellCovers,
    ObservabilityMasks, Patterns,
};
use powder_library::lib2;
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn build(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let names = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "aoi21",
    ];
    let cells: Vec<_> = names
        .iter()
        .map(|n| lib.find_by_name(n).expect("cell"))
        .collect();
    let mut nl = Netlist::new("p", lib);
    let mut sigs: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, (op, a, b)) in ops.iter().enumerate() {
        let cell = cells[*op as usize % cells.len()];
        let lib = nl.library().clone();
        let need = lib.cell_ref(cell).inputs();
        let mut fanins = Vec::with_capacity(need);
        for j in 0..need {
            let pick = match j {
                0 => *a as usize,
                1 => *b as usize,
                _ => (*a as usize) ^ (*b as usize).rotate_left(3),
            };
            fanins.push(sigs[pick % sigs.len()]);
        }
        sigs.push(nl.add_cell(format!("g{k}"), cell, &fanins));
    }
    let n = sigs.len();
    for (i, &s) in sigs[n.saturating_sub(2)..].iter().enumerate() {
        nl.add_output(format!("f{i}"), s);
    }
    nl
}

/// Naive single-pattern evaluation of the whole netlist.
fn reference_eval(nl: &Netlist, assignment: &[bool]) -> HashMap<GateId, bool> {
    let mut val = HashMap::new();
    for (i, &pi) in nl.inputs().iter().enumerate() {
        val.insert(pi, assignment[i]);
    }
    for g in nl.topo_order() {
        let v = match nl.kind(g) {
            GateKind::Input => val[&g],
            GateKind::Const(k) => k,
            GateKind::Output => val[&nl.fanins(g)[0]],
            GateKind::Cell(c) => {
                let mut m = 0u64;
                for (i, f) in nl.fanins(g).iter().enumerate() {
                    if val[f] {
                        m |= 1 << i;
                    }
                }
                nl.library().cell_ref(c).function.eval(m)
            }
        };
        val.insert(g, v);
    }
    val
}

/// One random word of patterns plus `extra` learned ones appended the way
/// ATPG counterexamples are, so the count is not a multiple of 64 and the
/// last word carries the replicated padding.
fn learned_patterns(inputs: usize, extra: usize, seed: u64) -> Patterns {
    let mut pats = Patterns::random(inputs, 1, seed);
    for k in 0..extra {
        let bits = seed
            .rotate_left(k as u32)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let assignment: Vec<bool> = (0..inputs)
            .map(|i| (bits >> (i + k % 7)) & 1 == 1)
            .collect();
        pats.push_pattern(&assignment);
    }
    pats
}

/// Input assignment of packed pattern bit `t` — every bit of every word,
/// the padding included, because candidate filtering reads whole words.
fn assignment_at(pats: &Patterns, t: usize) -> Vec<bool> {
    (0..pats.inputs())
        .map(|i| (pats.input_bits(i)[t / 64] >> (t % 64)) & 1 == 1)
        .collect()
}

/// Brute-force oracle: on the pattern evaluated in `reference`, is a flip
/// of `stem` — or, given `branch`, of only the value that sink pin sees —
/// observed? Without a scope that means some primary output changes. With
/// one, the flip propagates only through in-scope gates, and it counts as
/// observed once it reaches an in-scope primary output or an in-scope gate
/// with an out-of-scope fanout (the stem itself included).
fn flip_observed(
    nl: &Netlist,
    topo: &[GateId],
    reference: &HashMap<GateId, bool>,
    stem: GateId,
    branch: Option<Conn>,
    scope: Option<&[bool]>,
) -> bool {
    let inside = |g: GateId| scope.is_none_or(|m| m.get(g.0 as usize).copied().unwrap_or(false));
    let mut val = reference.clone();
    let mut changed: HashSet<GateId> = HashSet::new();
    let escapes = |g: GateId| nl.fanouts(g).iter().any(|c| !inside(c.gate));
    match branch {
        Some(conn) if !inside(conn.gate) => return true,
        Some(_) => {}
        None => {
            if escapes(stem) {
                return true;
            }
            val.insert(stem, !reference[&stem]);
            changed.insert(stem);
        }
    }
    for &h in topo {
        let flipped_pin = branch.filter(|b| b.gate == h).map(|b| b.pin as usize);
        if flipped_pin.is_none() && !nl.fanins(h).iter().any(|f| changed.contains(f)) {
            continue;
        }
        if !inside(h) {
            // Only gates fed by a changed in-scope gate get here, and
            // those fanouts were already counted as escapes.
            continue;
        }
        let v = match nl.kind(h) {
            GateKind::Output => return true,
            GateKind::Cell(c) => {
                let mut m = 0u64;
                for (i, f) in nl.fanins(h).iter().enumerate() {
                    if val[f] != (flipped_pin == Some(i)) {
                        m |= 1 << i;
                    }
                }
                nl.library().cell_ref(c).function.eval(m)
            }
            GateKind::Input | GateKind::Const(_) => continue,
        };
        if v != reference[&h] {
            if escapes(h) {
                return true;
            }
            val.insert(h, v);
            changed.insert(h);
        }
    }
    false
}

/// Checks every stem and branch mask of `masks` against [`flip_observed`]
/// on every packed pattern bit; gates outside `scope` must have no masks.
fn check_sweep(
    nl: &Netlist,
    pats: &Patterns,
    masks: &ObservabilityMasks,
    scope: Option<&[bool]>,
) -> Result<(), TestCaseError> {
    let topo = nl.topo_order();
    let inside = |g: GateId| scope.is_none_or(|m| m.get(g.0 as usize).copied().unwrap_or(false));
    let stems: Vec<GateId> = nl
        .iter_live()
        .filter(|&g| !matches!(nl.kind(g), GateKind::Output))
        .collect();
    for &g in &stems {
        prop_assert_eq!(
            masks.stem(g).is_some(),
            inside(g),
            "gate {} mask presence",
            g
        );
    }
    for t in 0..pats.words() * 64 {
        let reference = reference_eval(nl, &assignment_at(pats, t));
        let bit = |m: &[u64]| (m[t / 64] >> (t % 64)) & 1 == 1;
        for &g in stems.iter().filter(|&&g| inside(g)) {
            let stem = masks.stem(g).expect("in-scope stem");
            let expect = flip_observed(nl, &topo, &reference, g, None, scope);
            prop_assert_eq!(bit(stem), expect, "stem {} pattern bit {}", g, t);
            for (k, &conn) in nl.fanouts(g).iter().enumerate() {
                let branch = masks.branch(g, k).expect("in-scope branch");
                let expect = flip_observed(nl, &topo, &reference, g, Some(conn), scope);
                prop_assert_eq!(
                    bit(branch),
                    expect,
                    "branch {} -> {:?} pattern bit {}",
                    g,
                    conn,
                    t
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every bit of the packed simulation equals the per-pattern reference.
    #[test]
    fn packed_simulation_matches_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..20),
        inputs in 2usize..5,
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(inputs);
        let vals = simulate(&nl, &covers, &pats);
        for m in 0..(1usize << inputs) {
            let assignment: Vec<bool> = (0..inputs).map(|i| (m >> i) & 1 == 1).collect();
            let reference = reference_eval(&nl, &assignment);
            for g in nl.iter_live() {
                let bit = (vals.get(g)[m / 64] >> (m % 64)) & 1 == 1;
                prop_assert_eq!(bit, reference[&g], "gate {} pattern {:#b}", g, m);
            }
        }
    }

    /// Stem observability equals brute force: flip the stem in the
    /// reference model and compare primary outputs.
    #[test]
    fn observability_matches_brute_force(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..14),
        inputs in 2usize..5,
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(inputs);
        let vals = simulate(&nl, &covers, &pats);
        for g in nl.iter_live().collect::<Vec<_>>() {
            if matches!(nl.kind(g), GateKind::Output) {
                continue;
            }
            let obs = stem_observability(&nl, &covers, &vals, g);
            for m in 0..(1usize << inputs) {
                let assignment: Vec<bool> = (0..inputs).map(|i| (m >> i) & 1 == 1).collect();
                let reference = reference_eval(&nl, &assignment);
                // Brute force: force g to the complement and re-evaluate
                // downstream.
                let mut forced = reference.clone();
                forced.insert(g, !reference[&g]);
                for h in nl.topo_order() {
                    if h == g || !nl.reaches(g, h) {
                        continue;
                    }
                    let v = match nl.kind(h) {
                        GateKind::Output => forced[&nl.fanins(h)[0]],
                        GateKind::Cell(c) => {
                            let mut mm = 0u64;
                            for (i, f) in nl.fanins(h).iter().enumerate() {
                                if forced[f] {
                                    mm |= 1 << i;
                                }
                            }
                            nl.library().cell_ref(c).function.eval(mm)
                        }
                        _ => continue,
                    };
                    forced.insert(h, v);
                }
                let differs = nl
                    .outputs()
                    .iter()
                    .any(|o| forced[o] != reference[o]);
                let bit = (obs[m / 64] >> (m % 64)) & 1 == 1;
                prop_assert_eq!(bit, differs, "gate {} pattern {:#b}", g, m);
            }
        }
    }

    /// A single-fanout stem's branch observability equals its stem
    /// observability.
    #[test]
    fn single_branch_equals_stem(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..14),
        inputs in 2usize..5,
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(inputs);
        let vals = simulate(&nl, &covers, &pats);
        for g in nl.iter_live().collect::<Vec<_>>() {
            if matches!(nl.kind(g), GateKind::Output) || nl.fanouts(g).len() != 1 {
                continue;
            }
            let conn = nl.fanouts(g)[0];
            if matches!(nl.kind(conn.gate), GateKind::Output) {
                continue;
            }
            let stem = stem_observability(&nl, &covers, &vals, g);
            let branch = branch_observability(&nl, &covers, &vals, g, conn);
            prop_assert_eq!(stem, branch, "gate {}", g);
        }
    }

    /// Every stem and branch mask of the whole-netlist sweep equals the
    /// brute-force flip oracle, on a pattern count that is not a multiple
    /// of 64 (learned counterexamples appended to a random word).
    #[test]
    fn sweep_matches_brute_force(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..16),
        inputs in 2usize..6,
        extra in 1usize..64,
        seed in any::<u64>(),
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = learned_patterns(inputs, extra, seed);
        prop_assert!((1..64).contains(&pats.tail_used()), "last word partly learned");
        let vals = simulate(&nl, &covers, &pats);
        let masks = observability_sweep(&nl, &covers, &vals, None);
        check_sweep(&nl, &pats, &masks, None)?;
    }

    /// The scoped sweep equals the scoped oracle on a random scope: flips
    /// stay inside it and count as observed at an in-scope primary output
    /// or an in-scope gate with an out-of-scope fanout.
    #[test]
    fn scoped_sweep_matches_brute_force(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..16),
        inputs in 2usize..6,
        extra in 1usize..64,
        seed in any::<u64>(),
        scope_bits in any::<u64>(),
    ) {
        let nl = build(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = learned_patterns(inputs, extra, seed);
        let vals = simulate(&nl, &covers, &pats);
        // Ids at or beyond the mask's length are out of scope, too.
        let len = nl.id_bound() - (scope_bits >> 62) as usize % 2;
        let scope: Vec<bool> = (0..len).map(|i| (scope_bits >> (i % 62)) & 1 == 1).collect();
        let masks = observability_sweep(&nl, &covers, &vals, Some(&scope));
        check_sweep(&nl, &pats, &masks, Some(&scope))?;
    }
}
