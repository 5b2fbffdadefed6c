//! Power-gain analysis of a candidate substitution (paper Section 3.3).
//!
//! The power gain of a transformation decomposes into three contributions:
//!
//! * `PG_A` (Eq. 3) — always ≥ 0: the switched capacitance of the removed
//!   dominated region (the MFFC that dangles once the substituted signal
//!   loses its fanouts) plus the load relief on the region's inputs;
//! * `PG_B` (Eq. 4) — always ≤ 0: the new load placed on the substituting
//!   signal(s), and for 3-input substitutions the new gate itself;
//! * `PG_C` (Eq. 5) — either sign: the change in transition probabilities
//!   throughout the transitive fanout of the substituted signal.
//!
//! `PG_A` and `PG_B` need **no** re-estimation and drive the paper's fast
//! pre-selection; `PG_C` requires a what-if probability propagation over
//! the TFO and is only computed for pre-selected candidates.

#[cfg(test)]
mod reference;

use powder_atpg::Substitution;
use powder_netlist::{GateId, GateKind, Netlist};
use powder_power::{PowerEstimator, WhatIfEdit, WhatIfScratch, WhatIfSource};

/// The decomposed power gain of a substitution. Positive totals reduce
/// circuit power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerGain {
    /// Eq. (3): removed region + load relief. Never negative.
    pub pg_a: f64,
    /// Eq. (4): new fanout load (and new gate). Never positive.
    pub pg_b: f64,
    /// Eq. (5): transition-probability changes in the TFO; `None` until
    /// [`analyze_full`] fills it in.
    pub pg_c: Option<f64>,
}

impl PowerGain {
    /// The pre-selection figure of merit, `PG_A + PG_B`.
    #[must_use]
    pub fn fast(&self) -> f64 {
        self.pg_a + self.pg_b
    }

    /// The total gain; requires `pg_c` to be filled in.
    ///
    /// # Panics
    ///
    /// Panics if `PG_C` has not been computed.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.pg_a + self.pg_b + self.pg_c.expect("PG_C not computed")
    }
}

/// Reusable per-worker buffers for the gain analyses, making fast
/// scoring allocation-free in the steady state. Per-gate slots are
/// dense, indexed by `GateId.0`, and belong to one query: a slot left by
/// an earlier query reads as fresh, so no query clears them. Results
/// never depend on the scratch's prior contents, so callers on any
/// worker agree bit for bit.
#[derive(Clone, Debug, Default)]
pub struct GainScratch {
    slots: Vec<Slot>,
    /// Number of the current query.
    query: u32,
    /// The current query's removal set, in discovery order.
    removed: Vec<GateId>,
    /// Gates given load relief by the current query.
    relieved: Vec<GateId>,
    stack: Vec<GateId>,
    whatif: WhatIfScratch,
}

/// One gate's state in a [`GainScratch`] query.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// The query this state belongs to.
    query: u32,
    /// Fanout references left once the substitution is applied.
    refs: isize,
    /// In the removal set.
    removed: bool,
    /// Listed in [`GainScratch::relieved`].
    relieved: bool,
    /// Pin capacitance the gate no longer drives.
    relief: f64,
}

impl GainScratch {
    /// `g`'s state in the current query, fresh on first use: its
    /// reference count starts at its fanout count.
    fn slot(&mut self, nl: &Netlist, g: GateId) -> &mut Slot {
        let s = &mut self.slots[g.0 as usize];
        if s.query != self.query {
            *s = Slot {
                query: self.query,
                refs: nl.fanouts(g).len() as isize,
                ..Slot::default()
            };
        }
        s
    }

    /// Starts a query: computes the removal set of `sub` (see
    /// [`removal_set`]) into `self.removed` and marks it in the slots.
    fn removal(&mut self, nl: &Netlist, sub: &Substitution) {
        if self.slots.len() < nl.id_bound() {
            self.slots.resize(nl.id_bound(), Slot::default());
        }
        if self.query == u32::MAX {
            self.slots.fill(Slot::default());
            self.query = 0;
        }
        self.query += 1;
        self.removed.clear();
        self.relieved.clear();

        // Extra references from the substitution itself: the sources feed
        // the moved branches / the new gate / the new inverter.
        let stem = sub.substituted_stem(nl);
        let (b, c) = sub.sources();
        self.slot(nl, b).refs += 1;
        if let Some(c) = c {
            self.slot(nl, c).refs += 1;
        }
        // The substituted stem loses branches.
        match *sub {
            Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => self.slot(nl, a).refs = 0,
            Substitution::Is2 { .. } | Substitution::Is3 { .. } => self.slot(nl, stem).refs -= 1,
        }

        self.stack.clear();
        self.stack.push(stem);
        while let Some(g) = self.stack.pop() {
            let s = self.slot(nl, g);
            if s.refs > 0 || s.removed || !matches!(nl.kind(g), GateKind::Cell(_)) {
                continue;
            }
            s.removed = true;
            self.removed.push(g);
            for &f in nl.fanins(g) {
                let s = self.slot(nl, f);
                s.refs -= 1;
                if s.refs <= 0 {
                    self.stack.push(f);
                }
            }
        }
    }

    /// Is `g` in the current query's removal set?
    fn is_removed(&self, g: GateId) -> bool {
        let s = &self.slots[g.0 as usize];
        s.query == self.query && s.removed
    }

    /// Adds `cap` to `g`'s load relief in the current query.
    fn relieve(&mut self, nl: &Netlist, g: GateId, cap: f64) {
        let s = self.slot(nl, g);
        s.relief += cap;
        if !s.relieved {
            s.relieved = true;
            self.relieved.push(g);
        }
    }
}

/// The set of gates that become dangling (and would be swept) if `sub` were
/// applied — the paper's `Dom(a)` for the power-gain analysis. Accounts for
/// the extra fanout the substitution adds to its sources (a source inside
/// the cone keeps the cone from collapsing past it).
#[must_use]
pub fn removal_set(nl: &Netlist, sub: &Substitution) -> Vec<GateId> {
    let mut scratch = GainScratch::default();
    scratch.removal(nl, sub);
    scratch.removed
}

/// Computes `PG_A` and `PG_B` (no re-estimation); `pg_c` is left unset.
///
/// Convenience over `analyze_fast_with` with a throwaway scratch.
#[must_use]
pub fn analyze_fast(nl: &Netlist, est: &PowerEstimator, sub: &Substitution) -> PowerGain {
    analyze_fast_with(nl, est, sub, &mut GainScratch::default())
}

/// [`analyze_fast`] with a caller-owned scratch: allocation-free in the
/// steady state.
#[must_use]
pub(crate) fn analyze_fast_with(
    nl: &Netlist,
    est: &PowerEstimator,
    sub: &Substitution,
    scratch: &mut GainScratch,
) -> PowerGain {
    let output_load = est.config().output_load;
    let stem = sub.substituted_stem(nl);
    scratch.removal(nl, sub);
    let removed = std::mem::take(&mut scratch.removed);

    // --- PG_A: removed stems' full switched capacitance + load relief. ---
    let mut pg_a = 0.0;
    for &g in &removed {
        pg_a += nl.load_cap(g, output_load) * est.transition(g);
    }
    // Load relief on inputs of the removed region.
    for &g in &removed {
        for (pin, &f) in nl.fanins(g).iter().enumerate() {
            if !scratch.is_removed(f) {
                let cap = nl
                    .library()
                    .cell_ref(nl.cell_id(g).expect("removed gates are cells"))
                    .pin_cap(pin);
                scratch.relieve(nl, f, cap);
            }
        }
    }
    scratch.removed = removed;
    // For input substitutions where the stem itself survives, the moved
    // branch relieves the stem's load.
    let moved_cap = match *sub {
        Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => nl.load_cap(a, output_load),
        Substitution::Is2 { sink, pin, .. } | Substitution::Is3 { sink, pin, .. } => {
            let conn = powder_netlist::Conn { gate: sink, pin };
            let cap = nl.branch_cap(&conn, output_load);
            if !scratch.is_removed(stem) {
                scratch.relieve(nl, stem, cap);
            }
            cap
        }
    };
    // Relief terms are summed in `GateId` order: float summation order
    // must not depend on discovery order, and the arbiter sorts on these
    // totals bit for bit.
    scratch.relieved.sort_unstable();
    for &g in &scratch.relieved {
        pg_a += scratch.slots[g.0 as usize].relief * est.transition(g);
    }

    // --- PG_B: new load on the substituting signal(s). ---
    let lib = nl.library();
    let (b, c) = sub.sources();
    let pg_b = match *sub {
        Substitution::Os2 { invert, .. } | Substitution::Is2 { invert, .. } => {
            if invert {
                let inv = lib.cell_ref(lib.inverter());
                // b drives the new inverter; the inverter output carries the
                // moved load with E(!b) = E(b).
                -(inv.pin_cap(0) * est.transition(b) + moved_cap * est.transition(b))
            } else {
                -moved_cap * est.transition(b)
            }
        }
        Substitution::Os3 { cell, .. } | Substitution::Is3 { cell, .. } => {
            let cl = lib.cell_ref(cell);
            let c = c.expect("3-substitution has two sources");
            let p_new = powder_power::cell_output_prob(
                &cl.function,
                &[est.probability(b), est.probability(c)],
            );
            let e_new = 2.0 * p_new * (1.0 - p_new);
            -(cl.pin_cap(0) * est.transition(b)
                + cl.pin_cap(1) * est.transition(c)
                + moved_cap * e_new)
        }
    };

    PowerGain {
        pg_a,
        pg_b,
        pg_c: None,
    }
}

/// Computes the complete power gain, including `PG_C` via a what-if
/// re-estimation of the substituted signal's transitive fanout.
///
/// Convenience over [`analyze_full_with`] with a throwaway scratch;
/// hot paths (the optimizer loop, parallel evaluation workers) hold a
/// [`GainScratch`] per evaluation context instead.
#[must_use]
pub fn analyze_full(nl: &Netlist, est: &PowerEstimator, sub: &Substitution) -> PowerGain {
    analyze_full_with(nl, est, sub, &mut GainScratch::default())
}

/// [`analyze_full`] with a caller-owned scratch. The result is a pure
/// function of `(nl, est, sub)` — the scratch's prior contents never
/// influence it — so callers on any worker agree bit-for-bit.
#[must_use]
pub fn analyze_full_with(
    nl: &Netlist,
    est: &PowerEstimator,
    sub: &Substitution,
    scratch: &mut GainScratch,
) -> PowerGain {
    let mut gain = analyze_fast_with(nl, est, sub, scratch);
    let output_load = est.config().output_load;

    // Describe the rewiring as what-if edits.
    let lib = nl.library();
    let (b, c) = sub.sources();
    let source = match *sub {
        Substitution::Os2 { invert, .. } | Substitution::Is2 { invert, .. } => {
            if invert {
                WhatIfSource::Prob(1.0 - est.probability(b))
            } else {
                WhatIfSource::Gate(b)
            }
        }
        Substitution::Os3 { cell, .. } | Substitution::Is3 { cell, .. } => {
            let cl = lib.cell_ref(cell);
            let c = c.expect("3-substitution has two sources");
            WhatIfSource::Prob(powder_power::cell_output_prob(
                &cl.function,
                &[est.probability(b), est.probability(c)],
            ))
        }
    };
    let edits: Vec<WhatIfEdit> = sub
        .rewired_branches(nl)
        .into_iter()
        .map(|(sink, pin)| WhatIfEdit { sink, pin, source })
        .collect();

    // The removal set of the fast stage above is still marked.
    let mut pg_c = 0.0;
    let mut whatif = std::mem::take(&mut scratch.whatif);
    est.whatif_foreach_with(nl, &edits, &mut whatif, |g, p_new| {
        if matches!(nl.kind(g), GateKind::Output) || scratch.is_removed(g) {
            return;
        }
        let e_old = est.transition(g);
        let e_new = 2.0 * p_new * (1.0 - p_new);
        pg_c += nl.load_cap(g, output_load) * (e_old - e_new);
    });
    scratch.whatif = whatif;
    gain.pg_c = Some(pg_c);
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_atpg::{generate_candidates, CandidateConfig};
    use powder_library::lib2;
    use powder_power::PowerConfig;
    use powder_sim::{simulate, CellCovers, Patterns};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The scratch-based scorer reproduces the map-based reference bit
        /// for bit on random candidates of two suite circuits, with one
        /// scratch reused across every query of both; a full analysis
        /// through the reused scratch equals one through a fresh scratch.
        #[test]
        fn scratch_scoring_matches_map_reference(
            first in 0usize..6,
            second in 0usize..6,
            seed in any::<u64>(),
        ) {
            const CIRCUITS: [&str; 6] = ["c8", "x1", "bw", "rd84", "apex7", "example2"];
            let lib = Arc::new(lib2());
            let mut scratch = GainScratch::default();
            let mut pick = seed;
            for name in [CIRCUITS[first], CIRCUITS[second]] {
                let nl = powder_benchmarks::build(name, lib.clone()).expect("suite circuit");
                let est = PowerEstimator::new(&nl, &PowerConfig::default());
                let covers = CellCovers::new(nl.library());
                let values = simulate(&nl, &covers, &Patterns::random(nl.inputs().len(), 1, seed));
                let cands = generate_candidates(&nl, &covers, &values, &CandidateConfig::default());
                prop_assume!(!cands.is_empty());
                for k in 0..400 {
                    pick = pick.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    let sub = &cands[(pick >> 33) as usize % cands.len()];
                    let got = analyze_fast_with(&nl, &est, sub, &mut scratch);
                    let expect = reference::analyze_fast(&nl, &est, sub);
                    prop_assert_eq!(got.pg_a.to_bits(), expect.pg_a.to_bits(), "{}: {:?}", name, sub);
                    prop_assert_eq!(got.pg_b.to_bits(), expect.pg_b.to_bits(), "{}: {:?}", name, sub);
                    prop_assert_eq!(removal_set(&nl, sub), reference::removal_set(&nl, sub));
                    if k % 8 == 0 {
                        let full = analyze_full_with(&nl, &est, sub, &mut scratch);
                        let fresh = analyze_full(&nl, &est, sub);
                        prop_assert_eq!(full.total().to_bits(), fresh.total().to_bits());
                    }
                }
            }
        }
    }

    /// f = (a&b) | (a&!b): OS2(g3 ← a) removes g1, g2, g3.
    fn redundant_or() -> (Netlist, Vec<GateId>) {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let andn2 = lib.find_by_name("andn2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", andn2, &[a, b]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        nl.add_output("f", g3);
        (nl, vec![a, b, g1, g2, g3])
    }

    #[test]
    fn removal_set_of_os2_is_whole_cone() {
        let (nl, ids) = redundant_or();
        let sub = Substitution::Os2 {
            a: ids[4],
            b: ids[0],
            invert: false,
        };
        let mut removed = removal_set(&nl, &sub);
        removed.sort();
        assert_eq!(removed, vec![ids[2], ids[3], ids[4]]);
    }

    #[test]
    fn removal_set_keeps_source_alive() {
        // chain: x -> inv g1 -> inv g2 -> PO. OS2(g2 ← g1, inverted) would
        // normally delete g2's MFFC {g2}; g1 survives because it feeds the
        // new inverter... here the source IS g1 so only g2 goes.
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let mut nl = Netlist::new("t", lib);
        let x = nl.add_input("x");
        let g1 = nl.add_cell("g1", inv, &[x]);
        let g2 = nl.add_cell("g2", inv, &[g1]);
        nl.add_output("f", g2);
        let sub = Substitution::Os2 {
            a: g2,
            b: x,
            invert: true,
        };
        let removed = removal_set(&nl, &sub);
        // g2 dangles; then g1 dangles too (its only fanout was g2); x is a
        // PI and is never removed.
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&g1) && removed.contains(&g2));
    }

    #[test]
    fn removal_set_is2_single_fanout_cascade() {
        let (nl, ids) = redundant_or();
        // IS2 rewiring g3's pin0 (driven by g1) to b: g1 dangles.
        let sub = Substitution::Is2 {
            sink: ids[4],
            pin: 0,
            b: ids[1],
            invert: false,
        };
        assert_eq!(removal_set(&nl, &sub), vec![ids[2]]);
    }

    #[test]
    fn pg_a_matches_hand_computation() {
        let (nl, ids) = redundant_or();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let sub = Substitution::Os2 {
            a: ids[4],
            b: ids[0],
            invert: false,
        };
        let g = analyze_fast(&nl, &est, &sub);
        // removed stems: g1 (C=1, p=.25 → E=.375), g2 (C=1, p=.25 → .375),
        // g3 (C=PO load 1; the estimator treats g1,g2 as independent, so
        // p=.25+.25−.0625=.4375 → E=2·.4375·.5625=.4921875).
        // relief: a loses 2 pins (E=.5 → 1.0), b loses 2 pins (E=.5 → 1.0).
        let expect_a = 0.375 + 0.375 + 0.4921875 + 1.0 + 1.0;
        assert!((g.pg_a - expect_a).abs() < 1e-9, "pg_a = {}", g.pg_a);
        // PG_B: a picks up the PO load (1) at E(a)=0.5.
        assert!((g.pg_b + 0.5).abs() < 1e-9, "pg_b = {}", g.pg_b);
    }

    #[test]
    fn pg_total_matches_actual_power_delta() {
        // The decomposition must equal the true before/after difference.
        let (nl, ids) = redundant_or();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let before = est.circuit_power(&nl);
        let sub = Substitution::Os2 {
            a: ids[4],
            b: ids[0],
            invert: false,
        };
        let gain = analyze_full(&nl, &est, &sub);

        let mut after_nl = nl.clone();
        crate::apply::apply_substitution(&mut after_nl, &sub);
        let est2 = PowerEstimator::new(&after_nl, &PowerConfig::default());
        let after = est2.circuit_power(&after_nl);
        assert!(
            (gain.total() - (before - after)).abs() < 1e-9,
            "decomposed {} vs actual {}",
            gain.total(),
            before - after
        );
    }

    #[test]
    fn pg_total_matches_for_is3_with_new_gate() {
        // Figure 2 shape: f = (a ^ c) & b, rewire branch a→xor to AND(a,b).
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("fig2", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        nl.add_output("fo", f);
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let before = est.circuit_power(&nl);
        let sub = Substitution::Is3 {
            sink: d,
            pin: 0,
            cell: and2,
            b: a,
            c: b,
        };
        let gain = analyze_full(&nl, &est, &sub);
        let mut after_nl = nl.clone();
        crate::apply::apply_substitution(&mut after_nl, &sub);
        after_nl.validate().unwrap();
        let est2 = PowerEstimator::new(&after_nl, &PowerConfig::default());
        let after = est2.circuit_power(&after_nl);
        assert!(
            (gain.total() - (before - after)).abs() < 1e-9,
            "decomposed {} vs actual {}",
            gain.total(),
            before - after
        );
    }

    #[test]
    fn pg_total_matches_for_inverted_is2() {
        // f1 = !(a&b) (nand), f2 = a&b (and): rewiring an AND-sink branch
        // to the inverted NAND output.
        let lib = Arc::new(lib2());
        let nand2 = lib.find_by_name("nand2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_input("x");
        let g1 = nl.add_cell("g1", nand2, &[a, b]);
        let g2 = nl.add_cell("g2", and2, &[a, b]);
        let g3 = nl.add_cell("g3", or2, &[g2, x]);
        nl.add_output("f1", g1);
        nl.add_output("f2", g3);
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let before = est.circuit_power(&nl);
        let sub = Substitution::Is2 {
            sink: g3,
            pin: 0,
            b: g1,
            invert: true,
        };
        let gain = analyze_full(&nl, &est, &sub);
        let mut after_nl = nl.clone();
        crate::apply::apply_substitution(&mut after_nl, &sub);
        after_nl.validate().unwrap();
        let est2 = PowerEstimator::new(&after_nl, &PowerConfig::default());
        let after = est2.circuit_power(&after_nl);
        assert!(
            (gain.total() - (before - after)).abs() < 1e-9,
            "decomposed {} vs actual {}",
            gain.total(),
            before - after
        );
    }
}
