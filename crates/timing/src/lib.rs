//! Static timing analysis with the paper's linear gate delay model
//! (Section 2): the delay of gate `s` is `D(s) = τ(s) + C(s)·R(s)` where
//! `C(s)` is the capacitive load at the output of `s` and `R(s)` the drive
//! resistance. Arrival and required times follow, and the circuit delay is
//! the maximum primary-output arrival time.
//!
//! [`TimingAnalysis::check_substitution`] implements the two delay checks of
//! Section 3.4 used by POWDER's delay-constraint mode:
//!
//! 1. the (possibly gate-augmented) substituting signal's arrival, after
//!    accounting for the extra load it must drive, must not exceed the
//!    required time of the substituted signal;
//! 2. the extra load on the substituting signal must not push any existing
//!    path through it beyond its required time.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use powder_library::lib2;
//! use powder_netlist::Netlist;
//! use powder_timing::{TimingAnalysis, TimingConfig};
//!
//! let lib = Arc::new(lib2());
//! let inv = lib.find_by_name("inv1").unwrap();
//! let mut nl = Netlist::new("chain", lib);
//! let a = nl.add_input("a");
//! let g1 = nl.add_cell("g1", inv, &[a]);
//! let g2 = nl.add_cell("g2", inv, &[g1]);
//! nl.add_output("f", g2);
//! let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
//! assert!(sta.circuit_delay() > 0.0);
//! assert!(sta.arrival(g2) > sta.arrival(g1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use powder_netlist::{DirtyRegion, GateId, GateKind, Netlist};

/// Configuration of the timing model.
#[derive(Clone, Debug)]
pub struct TimingConfig {
    /// Capacitive load presented by each primary output.
    pub output_load: f64,
    /// Required time at the primary outputs; `None` uses the computed
    /// circuit delay (zero-slack on the critical path).
    pub required_time: Option<f64>,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            output_load: 1.0,
            required_time: None,
        }
    }
}

/// A proposed rewiring, for the what-if delay check.
#[derive(Clone, Copy, Debug)]
pub struct SubstitutionTiming {
    /// Required time of the substituted signal (stem `a` for OS2/OS3, the
    /// branch's sink view for IS2/IS3) — computed by the caller via
    /// [`TimingAnalysis::required`] or
    /// [`TimingAnalysis::branch_required`].
    pub required_at_a: f64,
    /// The substituting signal `b`.
    pub b: GateId,
    /// Extra capacitance the substitution adds to `b`'s stem.
    pub extra_cap_on_b: f64,
    /// Delay of a newly inserted gate (OS3/IS3), with its output load
    /// already folded in; 0 for OS2/IS2.
    pub new_gate_delay: f64,
    /// Second driving signal of a new gate, if any (OS3/IS3).
    pub c: Option<(GateId, f64)>,
}

/// Arrival/required times for a netlist snapshot.
#[derive(Clone, Debug)]
pub struct TimingAnalysis {
    arrivals: Vec<f64>,
    requireds: Vec<f64>,
    gate_delay: Vec<f64>,
    drive_res: Vec<f64>,
    circuit_delay: f64,
    required_time: f64,
    output_load: f64,
    /// Whether the required time was fixed by the caller (`Some` in the
    /// config). Only a fixed required time survives incremental updates:
    /// a floating one tracks the circuit delay and would rescale every
    /// required time on each edit.
    fixed_required: bool,
}

impl TimingAnalysis {
    /// Runs a full STA pass over `nl`.
    #[must_use]
    pub fn new(nl: &Netlist, config: &TimingConfig) -> Self {
        let bound = nl.id_bound();
        let mut arrivals = vec![0.0; bound];
        let mut gate_delay = vec![0.0; bound];
        let mut drive_res = vec![0.0; bound];
        let order = nl.topo_order();
        for &id in &order {
            match nl.kind(id) {
                GateKind::Input | GateKind::Const(_) => {
                    arrivals[id.0 as usize] = 0.0;
                }
                GateKind::Output => {
                    arrivals[id.0 as usize] = arrivals[nl.fanins(id)[0].0 as usize];
                }
                GateKind::Cell(c) => {
                    let cell = nl.library().cell_ref(c);
                    let load = nl.load_cap(id, config.output_load);
                    let d = cell.delay(load);
                    gate_delay[id.0 as usize] = d;
                    drive_res[id.0 as usize] = cell.drive_res;
                    let arr_in = nl
                        .fanins(id)
                        .iter()
                        .map(|f| arrivals[f.0 as usize])
                        .fold(0.0, f64::max);
                    arrivals[id.0 as usize] = arr_in + d;
                }
            }
        }
        let circuit_delay = nl
            .outputs()
            .iter()
            .map(|o| arrivals[o.0 as usize])
            .fold(0.0, f64::max);
        let required_time = config.required_time.unwrap_or(circuit_delay);

        let mut requireds = vec![f64::INFINITY; bound];
        for &o in nl.outputs() {
            requireds[o.0 as usize] = required_time;
        }
        for &id in order.iter().rev() {
            match nl.kind(id) {
                GateKind::Output => {
                    let src = nl.fanins(id)[0];
                    let r = requireds[id.0 as usize];
                    let slot = &mut requireds[src.0 as usize];
                    *slot = slot.min(r);
                }
                GateKind::Input | GateKind::Const(_) | GateKind::Cell(_) => {
                    // Required time of each fanin: required(id) − delay(id).
                    let r = requireds[id.0 as usize];
                    let d = gate_delay[id.0 as usize];
                    for &f in nl.fanins(id) {
                        let slot = &mut requireds[f.0 as usize];
                        *slot = slot.min(r - d);
                    }
                }
            }
        }
        TimingAnalysis {
            arrivals,
            requireds,
            gate_delay,
            drive_res,
            circuit_delay,
            required_time,
            output_load: config.output_load,
            fixed_required: config.required_time.is_some(),
        }
    }

    /// The configuration this analysis was built with.
    #[must_use]
    pub fn config(&self) -> TimingConfig {
        TimingConfig {
            output_load: self.output_load,
            required_time: self.fixed_required.then_some(self.required_time),
        }
    }

    /// Incrementally refreshes the analysis after the journaled edits in
    /// `region`: arrivals (and gate delays) are recomputed over `cone`,
    /// the region's dirty cone ([`Netlist::dirty_cone`]: the touched
    /// gates plus their transitive fanout, in topological order), and
    /// required times over the cone plus its transitive fanin, reusing
    /// the stored values at the unaffected frontier. Runs in time
    /// proportional to the affected region, not the netlist.
    ///
    /// Only valid when the required time is fixed
    /// (`TimingConfig::required_time` was `Some`); with a floating
    /// required time every slack depends on the global circuit delay, so
    /// this falls back to a full rebuild.
    pub fn update(&mut self, nl: &Netlist, region: &DirtyRegion, cone: &[GateId]) {
        if !self.fixed_required {
            *self = Self::new(nl, &self.config());
            return;
        }
        let bound = nl.id_bound();
        if self.arrivals.len() < bound {
            self.arrivals.resize(bound, 0.0);
            self.requireds.resize(bound, f64::INFINITY);
            self.gate_delay.resize(bound, 0.0);
            self.drive_res.resize(bound, 0.0);
        }
        for &id in region.removed() {
            let i = id.0 as usize;
            self.arrivals[i] = 0.0;
            self.requireds[i] = f64::INFINITY;
            self.gate_delay[i] = 0.0;
            self.drive_res[i] = 0.0;
        }

        // Forward: arrivals over the dirty cone, in topological order.
        // Fanins outside the cone have valid stored arrivals.
        for &id in cone {
            match nl.kind(id) {
                GateKind::Input | GateKind::Const(_) => {
                    self.arrivals[id.0 as usize] = 0.0;
                }
                GateKind::Output => {
                    self.arrivals[id.0 as usize] = self.arrivals[nl.fanins(id)[0].0 as usize];
                }
                GateKind::Cell(c) => {
                    let cell = nl.library().cell_ref(c);
                    let load = nl.load_cap(id, self.output_load);
                    let d = cell.delay(load);
                    self.gate_delay[id.0 as usize] = d;
                    self.drive_res[id.0 as usize] = cell.drive_res;
                    let arr_in = nl
                        .fanins(id)
                        .iter()
                        .map(|f| self.arrivals[f.0 as usize])
                        .fold(0.0, f64::max);
                    self.arrivals[id.0 as usize] = arr_in + d;
                }
            }
        }
        self.circuit_delay = nl
            .outputs()
            .iter()
            .map(|o| self.arrivals[o.0 as usize])
            .fold(0.0, f64::max);

        // Backward: required times change only inside the cone and its
        // transitive fanin. Collect that closure (it is closed under
        // fanins), seed each member from its unaffected sinks, and
        // propagate in reverse topological order via Kahn's algorithm on
        // the member-internal fanout counts.
        let mut in_region = vec![false; bound];
        let mut members = cone.to_vec();
        for &id in &members {
            in_region[id.0 as usize] = true;
        }
        let mut head = 0;
        while head < members.len() {
            let g = members[head];
            head += 1;
            for &f in nl.fanins(g) {
                if !in_region[f.0 as usize] {
                    in_region[f.0 as usize] = true;
                    members.push(f);
                }
            }
        }
        let mut outdeg = vec![0u32; bound];
        for &g in &members {
            let i = g.0 as usize;
            outdeg[i] = nl
                .fanouts(g)
                .iter()
                .filter(|c| in_region[c.gate.0 as usize])
                .count() as u32;
            self.requireds[i] = if matches!(nl.kind(g), GateKind::Output) {
                self.required_time
            } else {
                nl.fanouts(g)
                    .iter()
                    .filter(|c| !in_region[c.gate.0 as usize])
                    .map(|c| {
                        let s = c.gate.0 as usize;
                        self.requireds[s] - self.gate_delay[s]
                    })
                    .fold(f64::INFINITY, f64::min)
            };
        }
        let mut stack: Vec<GateId> = members
            .iter()
            .copied()
            .filter(|g| outdeg[g.0 as usize] == 0)
            .collect();
        let mut processed = 0usize;
        while let Some(g) = stack.pop() {
            processed += 1;
            let r = self.requireds[g.0 as usize];
            let d = self.gate_delay[g.0 as usize];
            for &f in nl.fanins(g) {
                let i = f.0 as usize;
                let slot = &mut self.requireds[i];
                *slot = slot.min(r - d);
                outdeg[i] -= 1;
                if outdeg[i] == 0 {
                    stack.push(f);
                }
            }
        }
        debug_assert_eq!(processed, members.len(), "cycle in required-time region");
    }

    /// Arrival time at the output of `id`.
    #[must_use]
    pub fn arrival(&self, id: GateId) -> f64 {
        self.arrivals[id.0 as usize]
    }

    /// Required time at the output of `id` (`+∞` for dangling gates).
    #[must_use]
    pub fn required(&self, id: GateId) -> f64 {
        self.requireds[id.0 as usize]
    }

    /// Slack at `id`.
    #[must_use]
    pub fn slack(&self, id: GateId) -> f64 {
        self.required(id) - self.arrival(id)
    }

    /// Required time seen by one branch `(sink, its own required − delay)`:
    /// looser than the stem's required time when other branches are more
    /// critical.
    #[must_use]
    pub fn branch_required(&self, nl: &Netlist, sink: GateId) -> f64 {
        match nl.kind(sink) {
            GateKind::Output => self.requireds[sink.0 as usize],
            _ => self.requireds[sink.0 as usize] - self.gate_delay[sink.0 as usize],
        }
    }

    /// Delay of gate `id` under its current load.
    #[must_use]
    pub fn gate_delay(&self, id: GateId) -> f64 {
        self.gate_delay[id.0 as usize]
    }

    /// The circuit delay (max primary-output arrival).
    #[must_use]
    pub fn circuit_delay(&self) -> f64 {
        self.circuit_delay
    }

    /// The required time applied at the primary outputs.
    #[must_use]
    pub fn required_time(&self) -> f64 {
        self.required_time
    }

    /// The two delay checks of Section 3.4. Returns `true` if the
    /// substitution *cannot* violate the timing constraint (conservative:
    /// load relief on the substituted signal is ignored).
    #[must_use]
    pub fn check_substitution(&self, sub: &SubstitutionTiming) -> bool {
        let eps = 1e-9;
        // Extra delay each loaded driver suffers. When both `b` and `c` are
        // loaded, one may lie in the other's transitive fanout, in which
        // case its arrival inherits the other's penalty too — so the
        // conservative bound applies the *combined* penalty to every path.
        let b_penalty = self.drive_res[sub.b.0 as usize] * sub.extra_cap_on_b;
        let c_penalty = sub
            .c
            .map_or(0.0, |(c, cap)| self.drive_res[c.0 as usize] * cap);
        let penalty = b_penalty + c_penalty;
        // Check 2: existing paths through b still meet their required times.
        if self.arrival(sub.b) + penalty > self.required(sub.b) + eps {
            return false;
        }
        // Check 1: the new path into the substituted signal's sinks.
        let new_arrival = self.arrival(sub.b) + penalty + sub.new_gate_delay;
        if new_arrival > sub.required_at_a + eps {
            return false;
        }
        // Checks for the second driver of a new gate.
        if let Some((c, _)) = sub.c {
            if self.arrival(c) + penalty > self.required(c) + eps {
                return false;
            }
            let new_arrival_c = self.arrival(c) + penalty + sub.new_gate_delay;
            if new_arrival_c > sub.required_at_a + eps {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    /// The parallel evaluation engine may consult timing analysis from
    /// worker threads by shared reference; these bounds are part of
    /// the API.
    #[test]
    fn timing_analysis_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimingAnalysis>();
        assert_send_sync::<TimingConfig>();
    }

    fn chain() -> (Netlist, Vec<GateId>) {
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("c", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", inv, &[a]);
        let g2 = nl.add_cell("g2", inv, &[g1]);
        let g3 = nl.add_cell("g3", and2, &[g2, b]);
        let po = nl.add_output("f", g3);
        (nl, vec![a, b, g1, g2, g3, po])
    }

    #[test]
    fn arrivals_accumulate_along_paths() {
        let (nl, ids) = chain();
        let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        // g1 drives one inv pin (cap 1): d1 = 0.9 + 0.3*1 = 1.2
        assert!((sta.arrival(ids[2]) - 1.2).abs() < 1e-9);
        // g2 drives one and2 pin (cap 1): d2 = 1.2; arrival = 2.4
        assert!((sta.arrival(ids[3]) - 2.4).abs() < 1e-9);
        // g3 drives PO (load 1): d3 = 1.6 + 0.25 = 1.85; arrival 4.25
        assert!((sta.arrival(ids[4]) - 4.25).abs() < 1e-9);
        assert!((sta.circuit_delay() - 4.25).abs() < 1e-9);
    }

    #[test]
    fn critical_path_has_zero_slack() {
        let (nl, ids) = chain();
        let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        for id in [ids[0], ids[2], ids[3], ids[4]] {
            assert!(
                sta.slack(id).abs() < 1e-9,
                "gate {id} slack {}",
                sta.slack(id)
            );
        }
        // b is off-critical: slack = required(b) − 0 = (4.25−1.85)
        assert!(sta.slack(ids[1]) > 1.0);
    }

    #[test]
    fn relaxed_required_time_gives_slack() {
        let (nl, ids) = chain();
        let cfg = TimingConfig {
            output_load: 1.0,
            required_time: Some(10.0),
        };
        let sta = TimingAnalysis::new(&nl, &cfg);
        assert!((sta.slack(ids[4]) - 5.75).abs() < 1e-9);
        assert!((sta.required_time() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn check_substitution_accepts_slack_and_rejects_critical() {
        let (nl, ids) = chain();
        let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        // Substitute something required at the very end by b (huge slack):
        let ok = sta.check_substitution(&SubstitutionTiming {
            required_at_a: sta.required(ids[3]),
            b: ids[1],
            extra_cap_on_b: 1.0,
            new_gate_delay: 0.0,
            c: None,
        });
        assert!(ok);
        // Substitute a signal required very early by the critical g2:
        let bad = sta.check_substitution(&SubstitutionTiming {
            required_at_a: 0.5,
            b: ids[3],
            extra_cap_on_b: 1.0,
            new_gate_delay: 0.0,
            c: None,
        });
        assert!(!bad);
    }

    #[test]
    fn check_substitution_load_penalty_on_critical_b() {
        let (nl, ids) = chain();
        let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        // g2 is on the critical path with zero slack: any extra load on it
        // violates check 2 even if the substituted signal is uncritical.
        let bad = sta.check_substitution(&SubstitutionTiming {
            required_at_a: f64::INFINITY,
            b: ids[3],
            extra_cap_on_b: 2.0,
            new_gate_delay: 0.0,
            c: None,
        });
        assert!(!bad);
    }

    #[test]
    fn new_gate_delay_counts() {
        let (nl, ids) = chain();
        let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        let ok = sta.check_substitution(&SubstitutionTiming {
            required_at_a: sta.arrival(ids[1]) + 2.0,
            b: ids[1],
            extra_cap_on_b: 1.0,
            new_gate_delay: 1.9,
            c: None,
        });
        assert!(ok);
        let bad = sta.check_substitution(&SubstitutionTiming {
            required_at_a: sta.arrival(ids[1]) + 2.0,
            b: ids[1],
            extra_cap_on_b: 1.0,
            new_gate_delay: 2.1,
            c: None,
        });
        assert!(!bad);
    }

    fn assert_matches_full(nl: &Netlist, sta: &TimingAnalysis) {
        let full = TimingAnalysis::new(nl, &sta.config());
        assert!(
            (sta.circuit_delay() - full.circuit_delay()).abs() < 1e-9,
            "circuit delay {} vs {}",
            sta.circuit_delay(),
            full.circuit_delay()
        );
        for id in nl.iter_live() {
            assert!(
                (sta.arrival(id) - full.arrival(id)).abs() < 1e-9,
                "arrival mismatch at {id}: {} vs {}",
                sta.arrival(id),
                full.arrival(id)
            );
            let (ri, rf) = (sta.required(id), full.required(id));
            assert!(
                (ri - rf).abs() < 1e-9 || (ri.is_infinite() && rf.is_infinite()),
                "required mismatch at {id}: {ri} vs {rf}"
            );
        }
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        let (mut nl, ids) = chain();
        let cfg = TimingConfig {
            output_load: 1.0,
            required_time: Some(10.0),
        };
        let mut sta = TimingAnalysis::new(&nl, &cfg);
        nl.drain_dirty();
        // Rewire g3's first pin from g2 to g1, sweep the dangling g2.
        nl.replace_fanin(ids[4], 0, ids[2]);
        nl.sweep_from(ids[3]);
        let region = nl.drain_dirty();
        sta.update(&nl, &region, &nl.dirty_cone(&region));
        assert_matches_full(&nl, &sta);
    }

    #[test]
    fn incremental_update_covers_new_gates() {
        let (mut nl, ids) = chain();
        let cfg = TimingConfig {
            output_load: 1.0,
            required_time: Some(20.0),
        };
        let mut sta = TimingAnalysis::new(&nl, &cfg);
        nl.drain_dirty();
        // Insert a fresh inverter between g1 and g2 (new id past the
        // original bound).
        let lib = nl.library().clone();
        let inv = lib.find_by_name("inv1").unwrap();
        let g = nl.add_cell("late", inv, &[ids[2]]);
        nl.replace_fanin(ids[3], 0, g);
        let region = nl.drain_dirty();
        sta.update(&nl, &region, &nl.dirty_cone(&region));
        assert_matches_full(&nl, &sta);
        assert!(sta.arrival(g) > sta.arrival(ids[2]));
    }

    #[test]
    fn update_with_floating_required_falls_back_to_full() {
        let (mut nl, ids) = chain();
        let mut sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        nl.drain_dirty();
        nl.replace_fanin(ids[4], 0, ids[2]);
        nl.sweep_from(ids[3]);
        let region = nl.drain_dirty();
        sta.update(&nl, &region, &nl.dirty_cone(&region));
        // Floating required time tracks the (now shorter) circuit delay.
        let full = TimingAnalysis::new(&nl, &TimingConfig::default());
        assert!((sta.required_time() - full.required_time()).abs() < 1e-9);
        assert_matches_full(&nl, &sta);
    }

    #[test]
    fn branch_required_looser_than_stem() {
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        // a fans out to a long chain (critical) and to a single AND (loose).
        let g1 = nl.add_cell("g1", inv, &[a]);
        let g2 = nl.add_cell("g2", inv, &[g1]);
        let g3 = nl.add_cell("g3", inv, &[g2]);
        let g4 = nl.add_cell("g4", and2, &[a, b]);
        nl.add_output("f1", g3);
        nl.add_output("f2", g4);
        let sta = TimingAnalysis::new(&nl, &TimingConfig::default());
        let stem_req = sta.required(a);
        let loose_req = sta.branch_required(&nl, g4);
        assert!(loose_req > stem_req + 0.5, "{loose_req} vs {stem_req}");
    }
}
