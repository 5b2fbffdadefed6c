//! Whole-netlist bit-parallel simulation.

use crate::{CellCovers, Patterns};
use powder_netlist::{GateId, GateKind, Netlist};

/// Packed simulation values for every live gate: the per-signal
/// *signatures* of the paper's candidate-generation machinery.
#[derive(Clone, Debug)]
pub struct SimValues {
    words: usize,
    /// Flattened `[gate id][word]`, dead gates zero-filled.
    data: Vec<u64>,
}

impl SimValues {
    /// Number of 64-pattern words per signal.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// The signature of gate `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: GateId) -> &[u64] {
        let s = id.0 as usize * self.words;
        &self.data[s..s + self.words]
    }

    fn get_mut(&mut self, id: GateId) -> &mut [u64] {
        let s = id.0 as usize * self.words;
        &mut self.data[s..s + self.words]
    }

    /// Number of gate ids the store currently covers.
    #[must_use]
    pub fn id_bound(&self) -> usize {
        self.data.len().checked_div(self.words).unwrap_or(0)
    }

    /// Extends the store to cover ids up to `id_bound` (exclusive),
    /// zero-filling the signatures of newly covered ids. Lets a value
    /// buffer be retained across netlist edits that allocate new gates.
    pub fn grow(&mut self, id_bound: usize) {
        if id_bound * self.words > self.data.len() {
            self.data.resize(id_bound * self.words, 0);
        }
    }

    /// True if two signals have identical signatures.
    #[must_use]
    pub fn identical(&self, a: GateId, b: GateId) -> bool {
        self.get(a) == self.get(b)
    }
}

/// Simulates `patterns` through `nl`, producing a signature per gate.
///
/// Primary outputs take their driver's signature; constants are all-0/all-1.
///
/// # Panics
///
/// Panics if `patterns` does not cover all primary inputs of `nl`.
#[must_use]
pub fn simulate(nl: &Netlist, covers: &CellCovers, patterns: &Patterns) -> SimValues {
    assert_eq!(
        patterns.inputs(),
        nl.inputs().len(),
        "pattern set does not match the netlist's primary inputs"
    );
    let words = patterns.words();
    let mut values = SimValues {
        words,
        data: vec![0u64; nl.id_bound() * words],
    };
    for (i, &pi) in nl.inputs().iter().enumerate() {
        values.get_mut(pi).copy_from_slice(patterns.input_bits(i));
    }
    resimulate_cone(nl, covers, &mut values, &nl.topo_order());
    values
}

/// Re-simulates only the gates in `cone` (which must be in topological
/// order), updating `values` in place, and reports whether a primary
/// output's signature changed. Used after a netlist edit to refresh the
/// transitive fanout of the substituted signal, and by [`simulate`] over
/// the whole netlist. A constant in the cone gets its words written: one
/// added after `values` was materialized starts out zero-filled by
/// [`SimValues::grow`].
pub fn resimulate_cone(
    nl: &Netlist,
    covers: &CellCovers,
    values: &mut SimValues,
    cone: &[GateId],
) -> bool {
    values.grow(nl.id_bound());
    let words = values.words();
    let data = &mut values.data;
    let mut po_changed = false;
    let mut out = vec![0u64; words];
    for &id in cone {
        let at = id.0 as usize * words;
        match nl.kind(id) {
            GateKind::Input => {}
            GateKind::Const(v) => {
                let fill = if v { u64::MAX } else { 0 };
                data[at..at + words].fill(fill);
            }
            GateKind::Output => {
                let src = nl.fanins(id)[0].0 as usize * words;
                po_changed |= data[src..src + words] != data[at..at + words];
                data.copy_within(src..src + words, at);
            }
            GateKind::Cell(c) => {
                let fanins = nl.fanins(id);
                let pin = |p: usize| &data[fanins[p].0 as usize * words..][..words];
                covers.eval(c, pin, 0, &mut out);
                data[at..at + words].copy_from_slice(&out);
            }
        }
    }
    po_changed
}

/// Fraction of simulated patterns on which each gate is 1, indexed by raw
/// gate id — the Monte-Carlo estimate of the signal probability.
#[must_use]
pub fn ones_fraction(nl: &Netlist, values: &SimValues) -> Vec<f64> {
    let total = (values.words() * 64) as f64;
    (0..nl.id_bound())
        .map(|raw| {
            let id = GateId(raw as u32);
            if nl.is_live(id) {
                values
                    .get(id)
                    .iter()
                    .map(|w| f64::from(w.count_ones()))
                    .sum::<f64>()
                    / total
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    /// The parallel evaluation engine shares simulation state across
    /// worker threads by reference; these bounds are part of the API.
    #[test]
    fn simulation_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimValues>();
        assert_send_sync::<CellCovers>();
        assert_send_sync::<Patterns>();
    }

    fn xor_and_netlist() -> (Netlist, Vec<GateId>) {
        // Figure 2, circuit A: d = a XOR c; f = d AND b
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
    fn exhaustive_simulation_matches_semantics() {
        let (nl, ids) = xor_and_netlist();
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(3);
        let v = simulate(&nl, &covers, &p);
        for m in 0..8usize {
            let bit = |id: GateId| (v.get(id)[m / 64] >> (m % 64)) & 1 == 1;
            let (a, b, c) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            assert_eq!(bit(ids[3]), a ^ c, "d at {m}");
            assert_eq!(bit(ids[4]), (a ^ c) && b, "f at {m}");
            assert_eq!(bit(ids[5]), (a ^ c) && b, "po at {m}");
        }
    }

    #[test]
    fn ones_fraction_uniform_inputs() {
        let (nl, ids) = xor_and_netlist();
        let covers = CellCovers::new(nl.library());
        let p = Patterns::random(3, 64, 3);
        let v = simulate(&nl, &covers, &p);
        let probs = ones_fraction(&nl, &v);
        // p(d) = p(a xor c) = 0.5; p(f) = 0.25
        assert!((probs[ids[3].0 as usize] - 0.5).abs() < 0.03);
        assert!((probs[ids[4].0 as usize] - 0.25).abs() < 0.03);
    }

    #[test]
    fn resimulate_cone_refreshes_after_edit() {
        let (mut nl, ids) = xor_and_netlist();
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(3);
        let mut v = simulate(&nl, &covers, &p);
        // Rewire f's first pin from d to a; re-simulate f and the PO,
        // which changes. A second pass finds nothing left to change.
        nl.replace_fanin(ids[4], 0, ids[0]);
        assert!(resimulate_cone(&nl, &covers, &mut v, &[ids[4], ids[5]]));
        assert!(!resimulate_cone(&nl, &covers, &mut v, &[ids[4], ids[5]]));
        for m in 0..8usize {
            let bit = |id: GateId| (v.get(id)[m / 64] >> (m % 64)) & 1 == 1;
            let (a, b) = (m & 1 != 0, m & 2 != 0);
            assert_eq!(bit(ids[4]), a && b);
            assert_eq!(bit(ids[5]), a && b);
        }
    }

    #[test]
    fn resimulate_cone_grows_over_new_gates() {
        let (mut nl, ids) = xor_and_netlist();
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(3);
        let mut v = simulate(&nl, &covers, &p);
        // Add a new gate (id beyond the original bound) and rewire the
        // PO through it; the retained buffer must grow transparently.
        let lib = nl.library().clone();
        let inv = lib.find_by_name("inv1").unwrap();
        let g = nl.add_cell("late", inv, &[ids[4]]);
        nl.replace_fanin(ids[5], 0, g);
        assert!(g.0 as usize >= v.id_bound());
        resimulate_cone(&nl, &covers, &mut v, &[g, ids[5]]);
        for m in 0..8usize {
            let bit = |id: GateId| (v.get(id)[m / 64] >> (m % 64)) & 1 == 1;
            let (a, b, c) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            assert_eq!(bit(g), !((a ^ c) && b));
            assert_eq!(bit(ids[5]), !((a ^ c) && b));
        }
    }

    #[test]
    fn identical_signature_detection() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let nand2 = lib.find_by_name("nand2").unwrap();
        let inv = lib.find_by_name("inv1").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", nand2, &[a, b]);
        let g3 = nl.add_cell("g3", inv, &[g2]);
        nl.add_output("o1", g1);
        nl.add_output("o2", g3);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(2);
        let v = simulate(&nl, &covers, &p);
        assert!(v.identical(g1, g3), "and == inv(nand)");
        assert!(!v.identical(g1, g2));
    }
}
