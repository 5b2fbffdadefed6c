//! Zero-delay power estimation for mapped netlists (paper Section 2).
//!
//! The power dissipated by a mapped CMOS circuit under the zero-delay model
//! is
//!
//! ```text
//! P = ½ · Vdd² · f · Σ_i C(i) · E(i)
//! ```
//!
//! where `C(i)` is the capacitive load driven by stem `i` and
//! `E(i) = 2·p(i)·(1 − p(i))` its transition probability under temporal
//! independence of the primary inputs. At the logic level `Vdd` and `f` are
//! fixed, so the optimizer minimises the *switched capacitance*
//! `Σ C(i)·E(i)` — exactly the "power" column of the paper's Table 1.
//!
//! Signal probabilities are propagated in topological order assuming the
//! fanins of each gate are independent (the assumption of refs \[6,12\] the
//! paper adopts); a Monte-Carlo cross-check lives in this crate's tests.
//!
//! [`PowerEstimator::whatif_probabilities`] answers "what would the
//! probabilities in `TFO(a)` become under this substitution?" without
//! touching the netlist — the workhorse behind the paper's `PG_C` term
//! (Eq. 5) — and [`PowerEstimator::update_cone`] performs the committed
//! incremental re-estimation of `power_estimate_update` (Fig. 5).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use powder_library::lib2;
//! use powder_netlist::Netlist;
//! use powder_power::{PowerConfig, PowerEstimator};
//!
//! let lib = Arc::new(lib2());
//! let and2 = lib.find_by_name("and2").unwrap();
//! let mut nl = Netlist::new("demo", lib);
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_cell("g", and2, &[a, b]);
//! nl.add_output("f", g);
//! let est = PowerEstimator::new(&nl, &PowerConfig::default());
//! assert!((est.probability(g) - 0.25).abs() < 1e-12);
//! assert!(est.circuit_power(&nl) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod glitch;

use powder_netlist::{ConeScratch, GateId, GateKind, Netlist};
use std::collections::HashMap;

/// Configuration of the power model.
#[derive(Clone, Debug)]
pub struct PowerConfig {
    /// Capacitive load presented by each primary output.
    pub output_load: f64,
    /// Signal probability of each primary input, in input order; inputs
    /// beyond the vector's length default to 0.5.
    pub input_probs: Vec<f64>,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            output_load: 1.0,
            input_probs: Vec::new(),
        }
    }
}

impl PowerConfig {
    /// Probability of primary input `index`.
    #[must_use]
    pub fn input_prob(&self, index: usize) -> f64 {
        self.input_probs.get(index).copied().unwrap_or(0.5)
    }
}

/// The source feeding a rewired pin in a what-if query.
#[derive(Clone, Copy, Debug)]
pub enum WhatIfSource {
    /// An existing gate's stem.
    Gate(GateId),
    /// A hypothetical new signal with the given probability (e.g. the
    /// output of the gate an OS3/IS3 substitution would insert).
    Prob(f64),
}

/// One rewired pin in a what-if query: `sink`'s input `pin` is fed by
/// `source` instead of its current driver.
#[derive(Clone, Copy, Debug)]
pub struct WhatIfEdit {
    /// The sink gate whose pin is rewired.
    pub sink: GateId,
    /// The rewired input pin.
    pub pin: u32,
    /// The hypothetical new driver.
    pub source: WhatIfSource,
}

/// Reusable buffers for [`PowerEstimator::whatif_foreach_with`], making
/// the per-candidate what-if query allocation-free in the steady state.
/// Overlay probabilities are tracked with a stamp array so no per-query
/// clearing is needed.
///
/// The scratch is owned by the caller (one per evaluation context —
/// each optimizer worker holds its own), which keeps
/// [`PowerEstimator`] free of interior mutability
/// and therefore `Sync`: an immutable estimator can serve what-if
/// queries from many threads concurrently.
#[derive(Clone, Debug, Default)]
pub struct WhatIfScratch {
    cone: ConeScratch,
    region: Vec<GateId>,
    overlay: Vec<f64>,
    stamp: Vec<u32>,
    round: u32,
    fanin_probs: Vec<f64>,
}

/// Signal-probability and switched-capacitance estimator.
///
/// Probabilities and per-stem switched-capacitance contributions are
/// stored per raw gate id and kept consistent with the netlist through
/// [`PowerEstimator::update_cone`] / [`PowerEstimator::retire_gates`]
/// after each committed edit; the circuit total is maintained as a
/// running sum readable in O(1) via [`PowerEstimator::total_power`].
#[derive(Clone, Debug)]
pub struct PowerEstimator {
    config: PowerConfig,
    probs: Vec<f64>,
    /// Cached per-gate `C(i)·E(i)` as last folded into `total`; zero for
    /// primary outputs and dead gates.
    contrib: Vec<f64>,
    /// Running `Σ C(i)·E(i)` over live non-output gates.
    total: f64,
}

impl PowerEstimator {
    /// Computes probabilities for the whole netlist (the paper's initial
    /// `power_estimate`).
    #[must_use]
    pub fn new(nl: &Netlist, config: &PowerConfig) -> Self {
        let mut est = PowerEstimator {
            config: config.clone(),
            probs: vec![0.0; nl.id_bound()],
            contrib: vec![0.0; nl.id_bound()],
            total: 0.0,
        };
        for (i, &pi) in nl.inputs().iter().enumerate() {
            est.probs[pi.0 as usize] = config.input_prob(i);
        }
        let order = nl.topo_order();
        est.update_cone(nl, &order);
        est
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &PowerConfig {
        &self.config
    }

    /// Signal probability of gate `id`.
    #[must_use]
    pub fn probability(&self, id: GateId) -> f64 {
        self.probs[id.0 as usize]
    }

    /// Transition probability `E(id) = 2·p·(1−p)`.
    #[must_use]
    pub fn transition(&self, id: GateId) -> f64 {
        let p = self.probability(id);
        2.0 * p * (1.0 - p)
    }

    /// Switched capacitance of one stem: `C(id)·E(id)`.
    #[must_use]
    pub fn switched_cap(&self, nl: &Netlist, id: GateId) -> f64 {
        nl.load_cap(id, self.config.output_load) * self.transition(id)
    }

    /// The circuit's total switched capacitance `Σ_i C(i)·E(i)` — the
    /// "power" the paper reports and POWDER minimises — recomputed from
    /// scratch by scanning every live gate. Serves as the reference for
    /// the running total kept by [`PowerEstimator::total_power`].
    #[must_use]
    pub fn circuit_power(&self, nl: &Netlist) -> f64 {
        nl.iter_live()
            .filter(|&id| !matches!(nl.kind(id), GateKind::Output))
            .map(|id| self.switched_cap(nl, id))
            .sum()
    }

    /// The running `Σ C(i)·E(i)` total, maintained incrementally by
    /// [`PowerEstimator::update_cone`] and
    /// [`PowerEstimator::retire_gates`]. O(1); agrees with
    /// [`PowerEstimator::circuit_power`] up to floating-point
    /// accumulation order.
    #[must_use]
    pub fn total_power(&self) -> f64 {
        self.total
    }

    /// Recomputes the probabilities *and* switched-capacitance
    /// contributions of `cone` (must be topologically ordered) from the
    /// current netlist state, adjusting the running total — the
    /// incremental `power_estimate_update` of Fig. 5. The cone must
    /// include every gate whose load changed (drivers that gained or
    /// lost fanout branches), which [`Netlist::dirty_cone`] guarantees.
    /// Newly added gates (ids beyond the estimator's previous bound) are
    /// accommodated automatically.
    pub fn update_cone(&mut self, nl: &Netlist, cone: &[GateId]) {
        if self.probs.len() < nl.id_bound() {
            self.probs.resize(nl.id_bound(), 0.5);
            self.contrib.resize(nl.id_bound(), 0.0);
        }
        for &id in cone {
            let i = id.0 as usize;
            match nl.kind(id) {
                GateKind::Input => {}
                GateKind::Const(v) => self.probs[i] = f64::from(u8::from(v)),
                GateKind::Output => {
                    self.probs[i] = self.probs[nl.fanins(id)[0].0 as usize];
                }
                GateKind::Cell(c) => {
                    let cell = nl.library().cell_ref(c);
                    let fanin_probs: Vec<f64> = nl
                        .fanins(id)
                        .iter()
                        .map(|f| self.probs[f.0 as usize])
                        .collect();
                    self.probs[i] = cell_output_prob(&cell.function, &fanin_probs);
                }
            }
            let c_new = if matches!(nl.kind(id), GateKind::Output) {
                0.0
            } else {
                self.switched_cap(nl, id)
            };
            self.total += c_new - self.contrib[i];
            self.contrib[i] = c_new;
        }
    }

    /// Drops the contributions of removed gates from the running total.
    /// Call with [`powder_netlist::DirtyRegion::removed`] after a sweep.
    pub fn retire_gates(&mut self, removed: &[GateId]) {
        for &id in removed {
            if let Some(slot) = self.contrib.get_mut(id.0 as usize) {
                self.total -= *slot;
                *slot = 0.0;
            }
        }
    }

    /// Visits every gate whose probability would change if the given
    /// pins were rewired — the edit sinks plus their joint transitive
    /// fanout, in topological order — calling `visit(gate, new_prob)`
    /// for each, without modifying the netlist.
    ///
    /// This is the per-candidate hot path behind the paper's `PG_C`
    /// term: all bookkeeping lives in the caller-owned
    /// [`WhatIfScratch`], so repeated queries perform no allocation in
    /// the steady state and touch only the affected region (no global
    /// topological sort). Results do not depend on the scratch's prior
    /// contents, so any scratch — fresh or reused, shared or
    /// per-worker — yields bit-identical visits.
    pub fn whatif_foreach_with(
        &self,
        nl: &Netlist,
        edits: &[WhatIfEdit],
        s: &mut WhatIfScratch,
        mut visit: impl FnMut(GateId, f64),
    ) {
        if edits.is_empty() {
            return;
        }
        let bound = nl.id_bound();
        if s.overlay.len() < bound {
            s.overlay.resize(bound, 0.0);
            s.stamp.resize(bound, 0);
        }
        if s.round == u32::MAX {
            s.stamp.iter_mut().for_each(|t| *t = 0);
            s.round = 0;
        }
        s.round += 1;
        let r = s.round;

        s.region.clear();
        s.cone
            .cone_topo(nl, edits.iter().map(|e| e.sink), &mut s.region);

        for &g in &s.region {
            // Hypothetical probability of a fanin: the overlay value if
            // this query already recomputed it, the committed one
            // otherwise.
            let lookup = |src: GateId, stamp: &[u32], overlay: &[f64]| {
                let i = src.0 as usize;
                if stamp[i] == r {
                    overlay[i]
                } else {
                    self.probs[i]
                }
            };
            let p = match nl.kind(g) {
                GateKind::Input | GateKind::Const(_) => self.probs[g.0 as usize],
                GateKind::Output => {
                    let src = nl.fanins(g)[0];
                    lookup(src, &s.stamp, &s.overlay)
                }
                GateKind::Cell(c) => {
                    let cell = nl.library().cell_ref(c);
                    s.fanin_probs.clear();
                    for (pin, &f) in nl.fanins(g).iter().enumerate() {
                        let edit = edits.iter().find(|e| e.sink == g && e.pin == pin as u32);
                        let p = match edit {
                            Some(e) => match e.source {
                                WhatIfSource::Gate(src) => lookup(src, &s.stamp, &s.overlay),
                                WhatIfSource::Prob(p) => p,
                            },
                            None => lookup(f, &s.stamp, &s.overlay),
                        };
                        s.fanin_probs.push(p);
                    }
                    cell_output_prob(&cell.function, &s.fanin_probs)
                }
            };
            s.overlay[g.0 as usize] = p;
            s.stamp[g.0 as usize] = r;
            visit(g, p);
        }
    }

    /// [`PowerEstimator::whatif_foreach_with`] with a throwaway scratch.
    /// Convenience for one-off queries and tests; hot paths should hold
    /// a [`WhatIfScratch`] and use the `_with` form.
    pub fn whatif_foreach(
        &self,
        nl: &Netlist,
        edits: &[WhatIfEdit],
        visit: impl FnMut(GateId, f64),
    ) {
        self.whatif_foreach_with(nl, edits, &mut WhatIfScratch::default(), visit);
    }

    /// Probabilities the gates in the transitive fanout of the edits would
    /// take if the given pins were rewired — without modifying the netlist.
    ///
    /// Returns the changed gates and their hypothetical probabilities
    /// (gates whose probability is unchanged may be omitted). Convenience
    /// wrapper over [`PowerEstimator::whatif_foreach`]; hot paths should
    /// use the latter to avoid the map allocation.
    #[must_use]
    pub fn whatif_probabilities(&self, nl: &Netlist, edits: &[WhatIfEdit]) -> HashMap<GateId, f64> {
        let mut changed: HashMap<GateId, f64> = HashMap::new();
        self.whatif_foreach(nl, edits, |g, p| {
            changed.insert(g, p);
        });
        changed
    }
}

/// Output probability of a cell under fanin independence:
/// `Σ_{m: f(m)=1} Π_i (m_i ? p_i : 1−p_i)`.
#[must_use]
pub fn cell_output_prob(function: &powder_logic::TruthTable, fanin_probs: &[f64]) -> f64 {
    debug_assert_eq!(function.vars(), fanin_probs.len());
    let mut total = 0.0;
    for m in function.minterms() {
        let mut term = 1.0;
        for (i, &p) in fanin_probs.iter().enumerate() {
            term *= if (m >> i) & 1 == 1 { p } else { 1.0 - p };
        }
        total += term;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    fn fig2_circuit_a() -> (Netlist, Vec<GateId>) {
        // Paper Figure 2 circuit A: d = a XOR c, f = d AND b.
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("fig2a", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        let po = nl.add_output("fo", f);
        (nl, vec![a, b, c, d, f, po])
    }

    #[test]
    fn probabilities_propagate() {
        let (nl, ids) = fig2_circuit_a();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        assert!((est.probability(ids[3]) - 0.5).abs() < 1e-12); // xor
        assert!((est.probability(ids[4]) - 0.25).abs() < 1e-12); // and
        assert!((est.probability(ids[5]) - 0.25).abs() < 1e-12); // po follows
        assert!((est.transition(ids[3]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn biased_input_probabilities() {
        let (nl, ids) = fig2_circuit_a();
        let cfg = PowerConfig {
            output_load: 1.0,
            input_probs: vec![0.9, 0.5, 0.9],
        };
        let est = PowerEstimator::new(&nl, &cfg);
        // p(xor) = p(a)(1-p(c)) + (1-p(a))p(c) = .09 + .09 = .18
        assert!((est.probability(ids[3]) - 0.18).abs() < 1e-12);
    }

    #[test]
    fn circuit_power_counts_loads() {
        let (nl, _ids) = fig2_circuit_a();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        // C(a)=C(c)= xor pin = 2; C(b) = and pin = 1; C(d) = and pin = 1;
        // C(f) = PO load = 1.
        // E(a)=E(b)=E(c)=0.5, E(d)=0.5, E(f)=2*.25*.75=.375
        let expect = 2.0 * 0.5 + 1.0 * 0.5 + 2.0 * 0.5 + 1.0 * 0.5 + 1.0 * 0.375;
        assert!(
            (est.circuit_power(&nl) - expect).abs() < 1e-12,
            "{} vs {expect}",
            est.circuit_power(&nl)
        );
    }

    /// The paper's Figure 2 numbers: circuit A's ΣC·E = 1.555 with the
    /// stated loads (AND pin 1, XOR pin 2) *excluding* primary-input stems
    /// and output load. We reproduce the 1.555 by summing the same signals
    /// the paper sums: d and f... Actually the paper's sum includes input
    /// stems a,b,c; with E=0.5 each and C(a)=C(c)=2, C(b)=1 that alone is
    /// 2.5. The 1.555 figure arises with input probabilities (0.5, 0.5,
    /// 0.1): see `paper_figure2_example` in the `powder` crate for the full
    /// derivation; here we check internal consistency instead.
    #[test]
    fn whatif_matches_committed_edit() {
        let (mut nl, ids) = fig2_circuit_a();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        // What if f's pin0 read a instead of d?
        let what = est.whatif_probabilities(
            &nl,
            &[WhatIfEdit {
                sink: ids[4],
                pin: 0,
                source: WhatIfSource::Gate(ids[0]),
            }],
        );
        // Commit and compare.
        nl.replace_fanin(ids[4], 0, ids[0]);
        let est2 = PowerEstimator::new(&nl, &PowerConfig::default());
        for (&g, &p) in &what {
            assert!(
                (est2.probability(g) - p).abs() < 1e-12,
                "gate {g}: whatif {p} vs committed {}",
                est2.probability(g)
            );
        }
        assert!(what.contains_key(&ids[4]) && what.contains_key(&ids[5]));
    }

    #[test]
    fn whatif_with_virtual_probability() {
        let (nl, ids) = fig2_circuit_a();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let what = est.whatif_probabilities(
            &nl,
            &[WhatIfEdit {
                sink: ids[4],
                pin: 0,
                source: WhatIfSource::Prob(1.0),
            }],
        );
        // f = 1 AND b = b -> p = 0.5
        assert!((what[&ids[4]] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_cone_after_edit() {
        let (mut nl, ids) = fig2_circuit_a();
        let mut est = PowerEstimator::new(&nl, &PowerConfig::default());
        nl.replace_fanin(ids[4], 0, ids[0]);
        // cone: f, po
        est.update_cone(&nl, &[ids[4], ids[5]]);
        let fresh = PowerEstimator::new(&nl, &PowerConfig::default());
        for id in nl.iter_live() {
            assert!((est.probability(id) - fresh.probability(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn running_total_matches_scan() {
        let (nl, _ids) = fig2_circuit_a();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        assert!((est.total_power() - est.circuit_power(&nl)).abs() < 1e-12);
    }

    #[test]
    fn running_total_tracks_edits_and_retirement() {
        let (mut nl, ids) = fig2_circuit_a();
        let mut est = PowerEstimator::new(&nl, &PowerConfig::default());
        nl.drain_dirty();
        // Rewire f's pin0 from d to a; d becomes dangling and is swept.
        nl.replace_fanin(ids[4], 0, ids[0]);
        nl.sweep_from(ids[3]);
        let region = nl.drain_dirty();
        est.retire_gates(region.removed());
        let cone = nl.dirty_cone(&region);
        est.update_cone(&nl, &cone);
        assert!(
            (est.total_power() - est.circuit_power(&nl)).abs() < 1e-12,
            "running {} vs scan {}",
            est.total_power(),
            est.circuit_power(&nl)
        );
        let fresh = PowerEstimator::new(&nl, &PowerConfig::default());
        for id in nl.iter_live() {
            assert!((est.probability(id) - fresh.probability(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn whatif_foreach_is_repeatable() {
        let (nl, ids) = fig2_circuit_a();
        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let edits = [WhatIfEdit {
            sink: ids[4],
            pin: 0,
            source: WhatIfSource::Gate(ids[0]),
        }];
        let mut first = Vec::new();
        est.whatif_foreach(&nl, &edits, |g, p| first.push((g, p)));
        // A second query reuses the scratch and must see no residue.
        let mut second = Vec::new();
        est.whatif_foreach(&nl, &edits, |g, p| second.push((g, p)));
        assert_eq!(first, second);
        assert!(first.iter().any(|&(g, _)| g == ids[4]));
        assert!(first.iter().any(|&(g, _)| g == ids[5]));
    }

    /// The parallel evaluation engine shares one immutable estimator
    /// across workers; this must stay a compile-time guarantee.
    #[test]
    fn estimator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PowerEstimator>();
        assert_send_sync::<PowerConfig>();
    }

    #[test]
    fn monte_carlo_cross_check() {
        use powder_sim::{ones_fraction, simulate, CellCovers, Patterns};
        // A deeper circuit with reconvergence-free structure so the
        // independence assumption is exact: a balanced AND tree.
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("tree", lib);
        let pis: Vec<GateId> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
        let l1: Vec<GateId> = (0..4)
            .map(|i| nl.add_cell(format!("a{i}"), and2, &[pis[2 * i], pis[2 * i + 1]]))
            .collect();
        let l2: Vec<GateId> = (0..2)
            .map(|i| nl.add_cell(format!("b{i}"), and2, &[l1[2 * i], l1[2 * i + 1]]))
            .collect();
        let root = nl.add_cell("r", and2, &[l2[0], l2[1]]);
        nl.add_output("f", root);

        let est = PowerEstimator::new(&nl, &PowerConfig::default());
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(8, 256, 17);
        let vals = simulate(&nl, &covers, &pats);
        let mc = ones_fraction(&nl, &vals);
        for id in nl.iter_live() {
            let diff = (est.probability(id) - mc[id.0 as usize]).abs();
            assert!(diff < 0.02, "gate {id}: analytic vs MC diff {diff}");
        }
    }
}
