//! Property-based tests: the bit-parallel simulator against a naive
//! per-pattern reference evaluator, the cell evaluator against truth
//! tables, and observability against brute-force output flipping.

use crate::{
    branch_observability, observability_sweep, simulate, stem_observability, CellCovers,
    ObservabilityMasks, Patterns,
};
use powder_library::genlib::parse_genlib;
use powder_library::{lib2, CellId, Library};
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A netlist over eight classic cells of at most 3 pins.
fn build(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let names = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "aoi21",
    ];
    let cells: Vec<_> = names
        .iter()
        .map(|n| lib.find_by_name(n).expect("cell"))
        .collect();
    build_from(lib, &cells, inputs, ops)
}

/// A netlist over every lib2 cell, up to `nand4`, `aoi22`, `oai22` and
/// `mux21`.
fn build_lib2(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let cells: Vec<CellId> = lib.iter().map(|(id, _)| id).collect();
    build_from(lib, &cells, inputs, ops)
}

/// One gate per op, its cell drawn from `cells` and its fanins from the
/// inputs and earlier gates; the last two signals drive outputs.
fn build_from(lib: Arc<Library>, cells: &[CellId], inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
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
                _ => (*a as usize) ^ (*b as usize).rotate_left(3 * (j as u32 - 1)),
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

/// `words` random words of patterns plus `extra` learned ones appended the
/// way ATPG counterexamples are, so the count is not a multiple of 64 and
/// the last word carries the replicated padding.
fn learned_patterns(inputs: usize, words: usize, extra: usize, seed: u64) -> Patterns {
    let mut pats = Patterns::random(inputs, words, seed);
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

/// The pattern words [`check_sweep`] checks bit by bit: all of a short
/// set; of a long one the first two, the three around the evaluator's
/// 64-word block boundary and the last two, the partly learned tail
/// among them.
fn checked_words(words: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = [0, 1, 63, 64, 65, words.saturating_sub(2), words - 1]
        .into_iter()
        .filter(|&w| w < words)
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// Checks every stem and branch mask of `masks` against [`flip_observed`]
/// on every bit of the [`checked_words`]; gates outside `scope` must
/// have no masks.
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
    for t in checked_words(pats.words())
        .into_iter()
        .flat_map(|w| w * 64..w * 64 + 64)
    {
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
    /// brute-force flip oracle, over every lib2 cell and 1–70 random
    /// words, on a pattern count that is not a multiple of 64 (learned
    /// counterexamples appended in a partial tail word).
    #[test]
    fn sweep_matches_brute_force(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..16),
        inputs in 2usize..6,
        words in 1usize..=70,
        extra in 1usize..64,
        seed in any::<u64>(),
    ) {
        let nl = build_lib2(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = learned_patterns(inputs, words, extra, seed);
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
        words in 1usize..=70,
        extra in 1usize..64,
        seed in any::<u64>(),
        scope_bits in any::<u64>(),
    ) {
        let nl = build_lib2(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = learned_patterns(inputs, words, extra, seed);
        let vals = simulate(&nl, &covers, &pats);
        // Ids at or beyond the mask's length are out of scope, too.
        let len = nl.id_bound() - (scope_bits >> 62) as usize % 2;
        let scope: Vec<bool> = (0..len).map(|i| (scope_bits >> (i % 62)) & 1 == 1).collect();
        let masks = observability_sweep(&nl, &covers, &vals, Some(&scope));
        check_sweep(&nl, &pats, &masks, Some(&scope))?;
    }

    /// The evaluator equals each cell's truth table bit for bit, for
    /// every lib2 cell and for genlib cells of 0, 5 and 6 pins (the
    /// constants have an empty cover and a cover of one empty cube), over
    /// 1–130 words read at a fanin stride longer than the word count,
    /// with pins complemented by `flip`.
    #[test]
    fn evaluator_matches_truth_tables(
        words in 1usize..=130,
        pad in 1usize..4,
        flip in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stride = words + pad;
        for lib in [lib2(), wide_cells()] {
            let covers = CellCovers::new(&lib);
            for (id, cell) in lib.iter() {
                let k = cell.inputs();
                let fanins: Vec<u64> = (0..k * stride).map(|_| rng.gen()).collect();
                let mut out = vec![0; words];
                covers.eval(id, |p| &fanins[p * stride..][..words], flip, &mut out);
                for t in 0..words * 64 {
                    let (w, b) = (t / 64, t % 64);
                    let m = (0..k).fold(0u64, |m, p| {
                        m | ((((fanins[p * stride + w] >> b) ^ (flip >> p)) & 1) << p)
                    });
                    prop_assert_eq!(
                        (out[w] >> b) & 1 == 1,
                        cell.function.eval(m),
                        "cell {} bit {}",
                        &cell.name,
                        t
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The sweep equals the brute-force flip oracle on netlists of more
    /// than 64 gates, whose propagation queue spans several bitset
    /// blocks.
    #[test]
    fn sweep_matches_brute_force_past_one_queue_block(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 70..90),
        extra in 1usize..64,
        seed in any::<u64>(),
    ) {
        let nl = build_lib2(5, &ops);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let pats = learned_patterns(5, 1, extra, seed);
        let vals = simulate(&nl, &covers, &pats);
        let masks = observability_sweep(&nl, &covers, &vals, None);
        check_sweep(&nl, &pats, &masks, None)?;
    }
}

/// Genlib cells beyond lib2's: both constants and wide covers of 5 and 6
/// pins, mixing literal phases.
fn wide_cells() -> Library {
    parse_genlib(
        "wide",
        "GATE zero 0 O=CONST0;
         GATE one 0 O=CONST1;
         GATE f5 1 O=a*b*!c + !a*d*e + b*!d*!e + c*e;
             PIN * UNKNOWN 1 999 1 0.2 1 0.2
         GATE f6 1 O=a*!b*c + !a*d + b*e*!f + !c*!d*f + a*b*c*d*e*f;
             PIN * UNKNOWN 1 999 1 0.2 1 0.2",
    )
    .expect("genlib parses")
}
