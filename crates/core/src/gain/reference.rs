//! The map-based `PG_A`/`PG_B` scorer as it was before it moved to a
//! dense scratch: a `HashMap` of reference counts and a `HashSet` per
//! removal set, and a `BTreeMap` of load relief per candidate. Kept as
//! the oracle the scratch-based scorer must match bit for bit.

use super::PowerGain;
use powder_atpg::Substitution;
use powder_netlist::{GateId, GateKind, Netlist};
use powder_power::PowerEstimator;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The set of gates that become dangling (and would be swept) if `sub` were
/// applied — the paper's `Dom(a)` for the power-gain analysis. Accounts for
/// the extra fanout the substitution adds to its sources (a source inside
/// the cone keeps the cone from collapsing past it).
pub(crate) fn removal_set(nl: &Netlist, sub: &Substitution) -> Vec<GateId> {
    let stem = sub.substituted_stem(nl);
    let mut refs: HashMap<GateId, isize> = HashMap::new();
    let count = |nl: &Netlist, g: GateId| nl.fanouts(g).len() as isize;

    // Extra references from the substitution itself: the sources feed the
    // moved branches / the new gate / the new inverter.
    let (b, c) = sub.sources();
    *refs.entry(b).or_insert_with(|| count(nl, b)) += 1;
    if let Some(c) = c {
        *refs.entry(c).or_insert_with(|| count(nl, c)) += 1;
    }

    // The substituted stem loses branches.
    match *sub {
        Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => {
            refs.insert(a, 0);
        }
        Substitution::Is2 { .. } | Substitution::Is3 { .. } => {
            *refs.entry(stem).or_insert_with(|| count(nl, stem)) -= 1;
        }
    }

    let mut removed = Vec::new();
    let mut removed_set: HashSet<GateId> = HashSet::new();
    let mut stack = vec![stem];
    while let Some(g) = stack.pop() {
        let r = *refs.entry(g).or_insert_with(|| count(nl, g));
        if r > 0 || removed_set.contains(&g) || !matches!(nl.kind(g), GateKind::Cell(_)) {
            continue;
        }
        removed.push(g);
        removed_set.insert(g);
        for &f in nl.fanins(g) {
            let e = refs.entry(f).or_insert_with(|| count(nl, f));
            *e -= 1;
            if *e <= 0 {
                stack.push(f);
            }
        }
    }
    removed
}

/// Computes `PG_A` and `PG_B` (no re-estimation); `pg_c` is left unset.
pub(crate) fn analyze_fast(nl: &Netlist, est: &PowerEstimator, sub: &Substitution) -> PowerGain {
    let output_load = est.config().output_load;
    let stem = sub.substituted_stem(nl);
    let removed = removal_set(nl, sub);
    let removed_set: HashSet<GateId> = removed.iter().copied().collect();

    // --- PG_A: removed stems' full switched capacitance + load relief. ---
    let mut pg_a = 0.0;
    for &g in &removed {
        pg_a += nl.load_cap(g, output_load) * est.transition(g);
    }
    // Load relief on inputs of the removed region. Ordered map: the
    // relief terms are summed in iteration order below, and float
    // summation order must not depend on hash-map layout — the parallel
    // engine's arbiter compares these totals bit-for-bit.
    let mut relief: BTreeMap<GateId, f64> = BTreeMap::new();
    for &g in &removed {
        for (pin, &f) in nl.fanins(g).iter().enumerate() {
            if !removed_set.contains(&f) {
                let cap = nl
                    .library()
                    .cell_ref(nl.cell_id(g).expect("removed gates are cells"))
                    .pin_cap(pin);
                *relief.entry(f).or_insert(0.0) += cap;
            }
        }
    }
    // For input substitutions where the stem itself survives, the moved
    // branch relieves the stem's load.
    let moved_cap = match *sub {
        Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => nl.load_cap(a, output_load),
        Substitution::Is2 { sink, pin, .. } | Substitution::Is3 { sink, pin, .. } => {
            let conn = powder_netlist::Conn { gate: sink, pin };
            let cap = nl.branch_cap(&conn, output_load);
            if !removed_set.contains(&stem) {
                *relief.entry(stem).or_insert(0.0) += cap;
            }
            cap
        }
    };
    for (&g, &cap) in &relief {
        pg_a += cap * est.transition(g);
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
