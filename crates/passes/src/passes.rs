//! The bodies of the `sweep`, `redundancy` and `resize` passes.
//!
//! Each reads the shared [`AnalysisSession`]'s maintained analyses
//! (power estimator, simulation signatures, timing) and commits edits
//! through the session, which repairs those analyses over the dirty
//! cone. None of them rebuilds one of them from scratch — the pipeline
//! asserts as much through the per-pass [`SessionStats`] deltas. Only
//! the observability masks `redundancy` reads are rebuilt after each
//! edit. Each returns the number of edits it committed.
//!
//! [`SessionStats`]: powder_engine::SessionStats

use powder::gain::analyze_full;
use powder::resize::best_swap;
use powder::AnalysisSession;
use powder::Substitution;
use powder_atpg::{check_substitution, CheckOutcome};
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use powder_obs as obs;
use std::collections::{BTreeMap, HashSet};

/// Lazily-created constant drivers shared by the constant-tying passes.
#[derive(Default)]
struct TieConsts {
    gates: [Option<GateId>; 2],
}

impl TieConsts {
    /// The live constant-`value` driver, creating one on first use.
    fn get(&mut self, sess: &mut AnalysisSession, value: bool) -> GateId {
        match self.gates[usize::from(value)] {
            Some(k) if sess.netlist().is_live(k) => k,
            _ => {
                let name = format!("tie{}", u8::from(value));
                let k = sess.netlist_mut().add_const(name, value);
                self.gates[usize::from(value)] = Some(k);
                k
            }
        }
    }

    /// Sweeps whichever constants ended up with no fanout.
    fn sweep_unused(self, sess: &mut AnalysisSession) {
        for k in self.gates.into_iter().flatten() {
            if sess.netlist().is_live(k) && sess.netlist().fanouts(k).is_empty() {
                sess.sweep_dangling(k);
            }
        }
    }
}

/// Proves `sub` power-saving and permissible against the session's
/// analyses, applying it if so. Returns whether it was committed.
fn try_commit(sess: &mut AnalysisSession, sub: &Substitution, backtrack_limit: usize) -> bool {
    let (nl, est) = sess.analyses();
    if !sub.is_structurally_valid(nl) {
        return false;
    }
    // Monotonicity gate: passes in a pipeline never increase Σ C·E.
    if analyze_full(nl, est, sub).total() < -1e-12 {
        return false;
    }
    obs::counter!(obs::names::PASSES_ATPG_CHECKS).inc();
    let outcome = {
        let _span = obs::span!(obs::names::span::PASSES_ATPG_CHECK);
        check_substitution(nl, sub, backtrack_limit)
    };
    if outcome != CheckOutcome::Permissible {
        return false;
    }
    sess.apply(sub);
    true
}

/// What a signature class suggests doing with one victim gate.
#[derive(Clone, Copy)]
enum SweepAction {
    /// The victim's signature is constant: tie its fanout to `value`.
    TieConst(GateId, bool),
    /// The victim's signature equals an earlier gate's: merge into it.
    Merge(GateId, GateId),
}

/// Live cell/const gates with no fanout (dangling roots). The tie
/// constants are exempt while the pass runs: sweeping one after a
/// failed tie attempt would register as progress and re-arm the same
/// doomed suspicion, so the fixpoint loop would never exit.
fn dangling(nl: &Netlist, keep: &TieConsts) -> Vec<GateId> {
    nl.iter_live()
        .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_) | GateKind::Const(_)))
        .filter(|&g| nl.fanouts(g).is_empty() && !keep.gates.contains(&Some(g)))
        .collect()
}

/// Groups live non-output gates by simulation signature and plans one
/// action per provable-looking victim. Deterministic: classes iterate
/// in signature order, members in gate-id order.
fn plan_sweep(nl: &Netlist, values: &powder_sim::SimValues, words: usize) -> Vec<SweepAction> {
    let mut classes: BTreeMap<&[u64], Vec<GateId>> = BTreeMap::new();
    for g in nl.iter_live() {
        if matches!(nl.kind(g), GateKind::Output) {
            continue;
        }
        classes.entry(values.get(g)).or_default().push(g);
    }
    let zeros = vec![0u64; words];
    let ones = vec![!0u64; words];
    let mut plan = Vec::new();
    for (sig, members) in &classes {
        let constant = if *sig == zeros.as_slice() {
            Some(false)
        } else if *sig == ones.as_slice() {
            Some(true)
        } else {
            None
        };
        if let Some(value) = constant {
            for &g in members {
                if matches!(nl.kind(g), GateKind::Cell(_)) {
                    plan.push(SweepAction::TieConst(g, value));
                }
            }
        } else if members.len() > 1 {
            let canon = members[0];
            for &g in &members[1..] {
                if matches!(nl.kind(g), GateKind::Cell(_)) {
                    plan.push(SweepAction::Merge(g, canon));
                }
            }
        }
    }
    plan
}

/// The `sweep` pass, netlist cleanup: removes dangling logic, then uses
/// the session's simulation signatures to find constant and duplicate
/// gates, proving each suspicion exactly (ATPG) before rewiring.
/// Iterates to a fixpoint — merging duplicates can strand more logic.
pub(crate) fn sweep(sess: &mut AnalysisSession, backtrack_limit: usize) -> usize {
    let mut edits = 0usize;
    let mut consts = TieConsts::default();
    // Suspicions that failed their exact proof. A signature match that
    // ATPG refuted will be suggested again verbatim on the next
    // iteration (the patterns don't change), so re-checking it is pure
    // waste — and re-arming a failed constant tie is what used to keep
    // the loop alive forever.
    let mut failed_const: HashSet<(GateId, bool)> = HashSet::new();
    let mut failed_merge: HashSet<(GateId, GateId)> = HashSet::new();
    loop {
        let mut changed = false;
        for g in dangling(sess.netlist(), &consts) {
            if sess.netlist().is_live(g) {
                let removed = sess.sweep_dangling(g).len();
                if removed > 0 {
                    edits += removed;
                    changed = true;
                }
            }
        }
        let (nl, values) = sess.signatures();
        let words = values.words();
        let plan = plan_sweep(nl, values, words);
        for action in plan {
            let sub = match action {
                SweepAction::TieConst(victim, value) => {
                    if !sess.netlist().is_live(victim) || failed_const.contains(&(victim, value)) {
                        continue;
                    }
                    let b = consts.get(sess, value);
                    Substitution::Os2 {
                        a: victim,
                        b,
                        invert: false,
                    }
                }
                SweepAction::Merge(victim, canon) => {
                    if !sess.netlist().is_live(victim)
                        || !sess.netlist().is_live(canon)
                        || failed_merge.contains(&(victim, canon))
                    {
                        continue;
                    }
                    Substitution::Os2 {
                        a: victim,
                        b: canon,
                        invert: false,
                    }
                }
            };
            if try_commit(sess, &sub, backtrack_limit) {
                edits += 1;
                changed = true;
            } else {
                match action {
                    SweepAction::TieConst(victim, value) => {
                        failed_const.insert((victim, value));
                    }
                    SweepAction::Merge(victim, canon) => {
                        failed_merge.insert((victim, canon));
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    consts.sweep_unused(sess);
    edits
}

/// Whether a retained simulation pattern refutes tying pin `pin` of `g`
/// to `value`: the refs \[2,5\] filter `(sig(a) ^ sig(b)) & obs(a) != 0`
/// with `a` the branch into the pin and `b` the constant. On such a
/// pattern the driver differs from `value` and the branch is observable,
/// so the tie flips a primary output. Every retained pattern is a real
/// input vector, so ATPG could never prove the tie.
fn refuted_by_simulation(sess: &mut AnalysisSession, g: GateId, pin: u32, value: bool) -> bool {
    let (nl, values, masks) = sess.observability();
    let driver = nl.fanins(g)[pin as usize];
    let k = nl
        .fanouts(driver)
        .iter()
        .position(|&c| c == Conn { gate: g, pin })
        .expect("a pin is a branch of its driver");
    let branch = masks
        .branch(driver, k)
        .expect("a cell's fanin has branch masks");
    let tie = if value { u64::MAX } else { 0 };
    values
        .get(driver)
        .iter()
        .zip(branch)
        .any(|(&sig, &obs)| (sig ^ tie) & obs != 0)
}

/// The `redundancy` pass, ATPG redundancy removal through the shared
/// session: ties provably redundant gate-input pins to constants (each
/// tie is an IS2 whose source is a constant driver, proven by the same
/// cone-local miter as POWDER's substitutions) and sweeps the logic
/// that dangles.
///
/// A tie goes to ATPG only if no retained simulation pattern refutes it
/// under the session's observability masks
/// ([`AnalysisSession::observability`]); the filter is exact, so it
/// changes no decision. Each tie must also be non-increasing in
/// `Σ C·E`, keeping any pipeline ordering monotone in power.
pub(crate) fn redundancy(sess: &mut AnalysisSession, backtrack_limit: usize) -> usize {
    let mut edits = 0usize;
    let mut consts = TieConsts::default();
    // Pins whose tie was refuted. Later edits could in principle make
    // such a pin redundant, but re-paying the ATPG budget for every
    // refuted pin on every re-scan is what the cache avoids; skipping
    // only forgoes an optional tie, never correctness.
    let mut failed: HashSet<(GateId, u32, bool)> = HashSet::new();
    loop {
        let mut changed = false;
        let gates: Vec<GateId> = sess
            .netlist()
            .iter_live()
            .filter(|&g| matches!(sess.netlist().kind(g), GateKind::Cell(_)))
            .collect();
        'gates: for g in gates {
            if !sess.netlist().is_live(g) {
                continue;
            }
            for pin in 0..sess.netlist().fanins(g).len() as u32 {
                let driver = sess.netlist().fanins(g)[pin as usize];
                if matches!(sess.netlist().kind(driver), GateKind::Const(_)) {
                    continue;
                }
                for value in [false, true] {
                    if failed.contains(&(g, pin, value)) {
                        continue;
                    }
                    let b = consts.get(sess, value);
                    if refuted_by_simulation(sess, g, pin, value) {
                        obs::counter!(obs::names::PASSES_SIM_REFUTED).inc();
                        failed.insert((g, pin, value));
                        continue;
                    }
                    let sub = Substitution::Is2 {
                        sink: g,
                        pin,
                        b,
                        invert: false,
                    };
                    if try_commit(sess, &sub, backtrack_limit) {
                        edits += 1;
                        changed = true;
                        continue 'gates;
                    }
                    failed.insert((g, pin, value));
                }
            }
        }
        if !changed {
            break;
        }
    }
    consts.sweep_unused(sess);
    edits
}

/// The `resize` pass, gate resizing for power through the shared
/// session: for each cell gate, picks the functionally identical
/// library cell with the lowest input-pin switched capacitance whose
/// extra delay fits the slack at a fixed required time
/// ([`powder::resize::best_swap`]). `required_time` pins that time;
/// `None` pins it to the circuit delay when the pass starts (resizing
/// then never degrades the critical path).
///
/// Timing and power come from the session: timing is built once
/// (pinned to the required time) and repaired incrementally after each
/// swap.
pub(crate) fn resize(sess: &mut AnalysisSession, required_time: Option<f64>) -> usize {
    let required = match required_time {
        Some(t) => t,
        None => sess.delay(),
    };
    let gates: Vec<GateId> = sess
        .netlist()
        .iter_live()
        .filter(|&g| matches!(sess.netlist().kind(g), GateKind::Cell(_)))
        .collect();
    let mut edits = 0usize;
    for g in gates {
        if !sess.netlist().is_live(g) {
            continue;
        }
        let (nl, est, sta) = sess.timed_analyses(required);
        if let Some(cell) = best_swap(nl, est, sta, g) {
            sess.swap_gate_cell(g, cell);
            edits += 1;
        }
    }
    edits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_pipeline_with, PassReport};
    use powder::{OptimizeConfig, SessionConfig};
    use powder_egraph::EgraphConfig;
    use powder_library::lib2;
    use powder_sim::{simulate, CellCovers, Patterns};
    use std::sync::Arc;

    fn po_sigs(nl: &Netlist) -> Vec<Vec<u64>> {
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(nl.inputs().len());
        let vals = simulate(nl, &covers, &pats);
        nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
    }

    /// Runs the one-pass pipeline `pass` (with `resize` anchored to
    /// `required_time`) on a fresh session over `nl`.
    fn run(pass: &str, required_time: Option<f64>, nl: Netlist) -> (PassReport, Netlist) {
        let mut sess = AnalysisSession::new(nl, SessionConfig::default());
        let config = OptimizeConfig {
            backtrack_limit: 10_000,
            ..OptimizeConfig::default()
        };
        let mut pipeline =
            build_pipeline_with(pass, &config, required_time, &EgraphConfig::default())
                .expect("valid spec");
        let report = pipeline.run(&mut sess).passes.remove(0);
        let nl = sess.into_netlist();
        nl.validate().expect("valid after the pass");
        (report, nl)
    }

    /// f = (a & b) | a == a: ties remove the AND.
    #[test]
    fn redundancy_removes_classic_redundant_pin() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", or2, &[g1, a]);
        nl.add_output("f", g2);
        let before = po_sigs(&nl);
        let (report, nl) = run("redundancy", None, nl);
        assert_eq!(po_sigs(&nl), before, "function preserved");
        assert!(report.edits >= 1, "{report}");
        assert!(report.area_after < report.area_before, "{report}");
    }

    #[test]
    fn redundancy_leaves_irredundant_circuit_untouched() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell("g", xor2, &[a, b]);
        nl.add_output("f", g);
        let (report, nl) = run("redundancy", None, nl);
        assert_eq!(report.edits, 0, "{report}");
        assert_eq!(nl.cell_count(), 1);
    }

    /// g2 = (a & b) & !b == 0 and g3 = g2 | g1 == g1: one tie strands
    /// more logic, and the pass iterates to its fixpoint.
    #[test]
    fn redundancy_cascades_to_fixpoint() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let andn2 = lib.find_by_name("andn2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", andn2, &[g1, b]);
        let g3 = nl.add_cell("g3", or2, &[g2, g1]);
        nl.add_output("f", g3);
        let before = po_sigs(&nl);
        let (report, nl) = run("redundancy", None, nl);
        assert_eq!(po_sigs(&nl), before);
        assert!(report.edits >= 1, "{report}");
    }

    /// An oversized inverter off the critical path is downsized.
    #[test]
    fn resize_downsizes_off_critical_inverter() {
        let lib = Arc::new(lib2());
        let inv2 = lib.find_by_name("inv2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let inv1 = lib.find_by_name("inv1").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        // Critical path: long inverter chain on b.
        let mut chain = b;
        for i in 0..6 {
            chain = nl.add_cell(format!("c{i}"), inv1, &[chain]);
        }
        // Off-critical: strong inverter on a.
        let big = nl.add_cell("big", inv2, &[a]);
        let g = nl.add_cell("g", and2, &[big, chain]);
        nl.add_output("f", g);

        let (report, nl) = run("resize", None, nl);
        assert_eq!(report.edits, 1, "{report}");
        assert!(report.power_saved() > 0.0, "{report}");
        let remaining: Vec<&str> = nl
            .iter_live()
            .filter_map(|id| nl.cell_id(id))
            .map(|c| nl.library().cell_ref(c).name.as_str())
            .collect();
        assert!(!remaining.contains(&"inv2"), "{remaining:?}");
    }

    /// inv1 is slower into the same load: with zero slack the strong
    /// inverter stays, with a relaxed required time it goes.
    #[test]
    fn resize_respects_slack_on_critical_gate() {
        let build = || {
            let lib = Arc::new(lib2());
            let inv2 = lib.find_by_name("inv2").unwrap();
            let mut nl = Netlist::new("t", lib);
            let a = nl.add_input("a");
            let big = nl.add_cell("big", inv2, &[a]);
            nl.add_output("f", big);
            nl
        };
        let (report, _) = run("resize", None, build());
        assert_eq!(report.edits, 0, "{report}");
        let (report, _) = run("resize", Some(100.0), build());
        assert_eq!(report.edits, 1, "{report}");
    }
}
