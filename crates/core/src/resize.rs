//! Slack-aware gate re-sizing for power — the adjacent optimisation the
//! paper cites as related work (ref \[14\], Bahar et al.) and the synthesis
//! flow of Figure 1 lists after netlist optimisation.
//!
//! For a cell instance, [`best_swap`] considers the library cells with the
//! *same function* (up to pin permutation) and picks the variant with the
//! lowest switched input capacitance whose slower/faster drive still meets
//! the timing constraint; [`swap_cell`] makes the exchange. With the
//! built-in library this trades the strong `inv2` against the small `inv1`
//! and vice versa; richer libraries benefit more. The `resize` pass of
//! `powder-passes` drives both over a shared analysis session.

use powder_netlist::{GateId, GateKind, Netlist};
use powder_power::PowerEstimator;
use powder_timing::TimingAnalysis;

/// The lowest-switched-capacitance legal replacement cell for `g`, if
/// any improves on the current one: same function and pin order, the
/// gate's own delay change fits its slack, and each driver's delay
/// change (from the pin-capacitance delta) fits that driver's slack.
///
/// `est` and `sta` must reflect the current netlist; the estimator's
/// output-load convention (`est.config().output_load`) is used for the
/// gate's load.
#[must_use]
pub fn best_swap(
    nl: &Netlist,
    est: &PowerEstimator,
    sta: &TimingAnalysis,
    g: GateId,
) -> Option<powder_library::CellId> {
    let lib = nl.library();
    let current = nl.cell_id(g).expect("cell gate");
    let cell = lib.cell_ref(current);
    let load = nl.load_cap(g, est.config().output_load);
    // Cost: switched cap on the gate's input pins.
    let pin_cost = |cid: powder_library::CellId| -> f64 {
        let c = lib.cell_ref(cid);
        nl.fanins(g)
            .iter()
            .enumerate()
            .map(|(pin, &f)| c.pin_cap(pin) * est.transition(f))
            .sum()
    };
    let mut best: Option<(powder_library::CellId, f64)> = None;
    for (cid, cand) in lib.iter() {
        if cid == current || cand.inputs() != cell.inputs() || cand.function != cell.function {
            continue;
        }
        let delay_delta = cand.delay(load) - cell.delay(load);
        if delay_delta > sta.slack(g) + 1e-9 {
            continue;
        }
        let drivers_ok = nl.fanins(g).iter().enumerate().all(|(pin, &f)| {
            let cap_delta = cand.pin_cap(pin) - cell.pin_cap(pin);
            match nl.kind(f) {
                GateKind::Cell(fc) => {
                    let extra = lib.cell_ref(fc).drive_res * cap_delta;
                    extra <= sta.slack(f) + 1e-9
                }
                _ => true,
            }
        });
        if !drivers_ok {
            continue;
        }
        let cost = pin_cost(cid);
        if cost < pin_cost(current) - 1e-12 && best.as_ref().is_none_or(|&(_, c)| cost < c) {
            best = Some((cid, cost));
        }
    }
    best.map(|(cid, _)| cid)
}

/// Replaces the cell of `g` in place (same function, same pin order).
pub fn swap_cell(nl: &mut Netlist, g: GateId, new_cell: powder_library::CellId) {
    // The netlist has no direct "swap cell" primitive; rebuild the gate and
    // move the fanouts over.
    let fanins = nl.fanins(g).to_vec();
    let name = format!("{}_rs", nl.gate_name(g));
    let replacement = nl.add_cell(name, new_cell, &fanins);
    nl.replace_all_fanouts(g, replacement);
    nl.sweep_from(g);
    debug_assert!(nl.validate().is_ok());
}
