//! Glitch-aware power estimation — an *extension* beyond the paper.
//!
//! The paper uses a zero-delay model and notes (Section 2) that glitches
//! contribute roughly 20 % of total power but are hard to model at the
//! logic level. This module quantifies that contribution for our circuits:
//! an event-driven **unit-delay** simulation counts every transition each
//! gate makes while a new input vector settles — including hazards that the
//! zero-delay model ignores — giving
//!
//! ```text
//! P_glitch ∝ Σ_i C(i) · (T_total(i) − T_functional(i)) / vectors
//! ```
//!
//! where `T_functional` counts only the transitions between settled states
//! (what `E(i)` models) and `T_total` counts every event.

use crate::PowerConfig;
use powder_netlist::{GateId, GateKind, Netlist};
use powder_sim::{CellCovers, Patterns};
use std::collections::VecDeque;

/// Result of a glitch-aware activity measurement.
#[derive(Clone, Debug)]
pub struct GlitchReport {
    /// Zero-delay (functional) switched capacitance per vector pair.
    pub functional_power: f64,
    /// Total switched capacitance per vector pair, including hazards.
    pub total_power: f64,
}

impl GlitchReport {
    /// The glitch share of total power, in `[0, 1)`.
    #[must_use]
    pub fn glitch_fraction(&self) -> f64 {
        if self.total_power <= 0.0 {
            0.0
        } else {
            (self.total_power - self.functional_power) / self.total_power
        }
    }
}

/// Measures functional and glitch activity by unit-delay event simulation
/// of consecutive random vector pairs.
///
/// Each gate has delay 1; when an input vector changes, events ripple level
/// by level and every output change is charged `C(i)`. The functional
/// charge uses only initial-vs-settled values.
///
/// # Panics
///
/// Panics if `patterns` does not cover the netlist's inputs.
#[must_use]
pub fn glitch_power(
    nl: &Netlist,
    covers: &CellCovers,
    patterns: &Patterns,
    config: &PowerConfig,
) -> GlitchReport {
    assert_eq!(patterns.inputs(), nl.inputs().len(), "pattern arity");
    let order = nl.topo_order();
    let bound = nl.id_bound();
    let mut value = vec![false; bound];
    let mut functional_toggles = vec![0u64; bound];
    let mut total_toggles = vec![0u64; bound];

    let vector_of = |t: usize, i: usize| -> bool {
        let w = patterns.input_bits(i);
        (w[t / 64] >> (t % 64)) & 1 == 1
    };
    let eval_gate = |nl: &Netlist, value: &[bool], g: GateId| -> bool {
        match nl.kind(g) {
            GateKind::Input | GateKind::Const(_) | GateKind::Output => {
                unreachable!("only cells are evaluated")
            }
            GateKind::Cell(c) => {
                let fanins = nl.fanins(g);
                let mut out = [0u64];
                let pin = |p: usize| -> &[u64] {
                    if value[fanins[p].0 as usize] {
                        &[u64::MAX]
                    } else {
                        &[0]
                    }
                };
                covers.eval(c, pin, 0, &mut out);
                out[0] & 1 == 1
            }
        }
    };

    // Settle vector 0.
    for (i, &pi) in nl.inputs().iter().enumerate() {
        value[pi.0 as usize] = vector_of(0, i);
    }
    for &g in &order {
        match nl.kind(g) {
            GateKind::Cell(_) => value[g.0 as usize] = eval_gate(nl, &value, g),
            GateKind::Const(v) => value[g.0 as usize] = v,
            GateKind::Output => value[g.0 as usize] = value[nl.fanins(g)[0].0 as usize],
            GateKind::Input => {}
        }
    }

    let total_vectors = patterns.count();
    for t in 1..total_vectors {
        let settled_before = value.clone();
        // Event queue keyed by unit-delay time: (time, gate).
        let mut queue: VecDeque<(u32, GateId)> = VecDeque::new();
        for (i, &pi) in nl.inputs().iter().enumerate() {
            let nv = vector_of(t, i);
            if nv != value[pi.0 as usize] {
                value[pi.0 as usize] = nv;
                total_toggles[pi.0 as usize] += 1;
                for conn in nl.fanouts(pi) {
                    queue.push_back((1, conn.gate));
                }
            }
        }
        // Process events time-ordered; a gate scheduled multiple times at
        // the same tick evaluates once per tick.
        while let Some((time, g)) = queue.pop_front() {
            if matches!(nl.kind(g), GateKind::Output) {
                continue;
            }
            let nv = eval_gate(nl, &value, g);
            if nv != value[g.0 as usize] {
                value[g.0 as usize] = nv;
                total_toggles[g.0 as usize] += 1;
                for conn in nl.fanouts(g) {
                    // De-duplicate same-tick evaluations lazily: a second
                    // event just re-evaluates, which is idempotent. Acyclic
                    // logic under unit delays always settles, so the queue
                    // drains within `depth` ticks.
                    queue.push_back((time + 1, conn.gate));
                }
            }
        }
        // Functional toggles: settled-state difference.
        for &g in &order {
            if value[g.0 as usize] != settled_before[g.0 as usize] {
                functional_toggles[g.0 as usize] += 1;
            }
        }
    }

    let pairs = (total_vectors - 1) as f64;
    let mut functional_power = 0.0;
    let mut total_power = 0.0;
    for g in nl.iter_live() {
        if matches!(nl.kind(g), GateKind::Output) {
            continue;
        }
        let cap = nl.load_cap(g, config.output_load);
        functional_power += cap * functional_toggles[g.0 as usize] as f64 / pairs;
        total_power += cap * total_toggles[g.0 as usize] as f64 / pairs;
    }
    GlitchReport {
        functional_power,
        total_power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    /// A balanced XOR has no hazards under unit delays; an unbalanced
    /// AND-path reconvergence does.
    #[test]
    fn balanced_tree_has_no_glitches() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let mut nl = Netlist::new("bal", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell("g", xor2, &[a, b]);
        nl.add_output("f", g);
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(2, 8, 5);
        let rep = glitch_power(&nl, &covers, &pats, &PowerConfig::default());
        assert!(
            rep.glitch_fraction() < 1e-9,
            "single gate cannot glitch: {rep:?}"
        );
        assert!(rep.functional_power > 0.0);
    }

    /// The classic static-hazard circuit: f = (a·s) + (b·!s) with unequal
    /// path lengths to the OR — unit-delay simulation must observe more
    /// transitions than the zero-delay model.
    #[test]
    fn unbalanced_paths_glitch() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let inv = lib.find_by_name("inv1").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let xor2 = lib.find_by_name("xor2").unwrap();
        let mut nl = Netlist::new("hz", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_input("s");
        // lengthen one path with a pair of inverters-as-xor chain
        let s1 = nl.add_cell("s1", inv, &[s]);
        let s2 = nl.add_cell("s2", inv, &[s1]);
        let s3 = nl.add_cell("s3", xor2, &[s2, a]);
        let t1 = nl.add_cell("t1", and2, &[s3, b]);
        let t2 = nl.add_cell("t2", and2, &[s, a]);
        let f = nl.add_cell("f", or2, &[t1, t2]);
        nl.add_output("o", f);
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(3, 32, 11);
        let rep = glitch_power(&nl, &covers, &pats, &PowerConfig::default());
        assert!(
            rep.total_power > rep.functional_power,
            "unbalanced reconvergence must produce hazards: {rep:?}"
        );
        assert!(rep.glitch_fraction() > 0.0 && rep.glitch_fraction() < 1.0);
    }

    /// Functional activity from event simulation must agree with the
    /// zero-delay transition probabilities within sampling error.
    #[test]
    fn functional_activity_matches_estimator() {
        use crate::{PowerConfig, PowerEstimator};
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", or2, &[g1, c]);
        nl.add_output("f", g2);
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(3, 256, 23);
        let rep = glitch_power(&nl, &covers, &pats, &PowerConfig::default());
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let analytic = est.circuit_power(&nl);
        let ratio = rep.functional_power / analytic;
        assert!(
            (0.9..1.1).contains(&ratio),
            "event-based functional power {} vs analytic {}",
            rep.functional_power,
            analytic
        );
    }
}
