//! Structural analyses: topological order, levels, transitive fanin/fanout.

use crate::netlist::{GateId, Netlist};

/// A reusable dense gate-id set, sized to a netlist's id bound.
#[derive(Clone, Debug)]
pub(crate) struct GateSet {
    bits: Vec<u64>,
}

impl GateSet {
    pub(crate) fn new(bound: usize) -> Self {
        GateSet {
            bits: vec![0; bound.div_ceil(64)],
        }
    }
    pub(crate) fn insert(&mut self, id: GateId) -> bool {
        let (w, b) = (id.0 as usize / 64, id.0 as usize % 64);
        let had = (self.bits[w] >> b) & 1 == 1;
        self.bits[w] |= 1 << b;
        !had
    }
}

impl Netlist {
    /// Live gates in topological order (fanins before fanouts), or `None`
    /// if the netlist contains a cycle.
    #[must_use]
    pub fn topo_order_checked(&self) -> Option<Vec<GateId>> {
        let mut order = Vec::new();
        self.kahn_order(&mut order).then_some(order)
    }

    /// Fills `order` with the live gates in topological order; `false` if
    /// the netlist contains a cycle.
    fn kahn_order(&self, order: &mut Vec<GateId>) -> bool {
        let bound = self.id_bound();
        let mut indeg = vec![0u32; bound];
        order.clear();
        order.reserve(bound);
        let mut stack = Vec::new();
        let mut live = 0usize;
        for id in self.iter_live() {
            live += 1;
            let d = self.fanins(id).len() as u32;
            indeg[id.0 as usize] = d;
            if d == 0 {
                stack.push(id);
            }
        }
        while let Some(id) = stack.pop() {
            order.push(id);
            for c in self.fanouts(id) {
                let d = &mut indeg[c.gate.0 as usize];
                // A gate may receive several branches from the same stem;
                // each fanout record decrements once, matching the fanin
                // count exactly.
                *d -= 1;
                if *d == 0 {
                    stack.push(c.gate);
                }
            }
        }
        order.len() == live
    }

    /// Live gates in topological order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle; use
    /// [`Netlist::topo_order_checked`] to probe.
    #[must_use]
    pub fn topo_order(&self) -> Vec<GateId> {
        let mut order = Vec::new();
        self.topo_order_into(&mut order);
        order
    }

    /// [`Netlist::topo_order`] into a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle.
    pub fn topo_order_into(&self, order: &mut Vec<GateId>) {
        assert!(
            self.kahn_order(order),
            "netlist contains a combinational cycle"
        );
    }

    /// Logic level of every gate (inputs/constants at level 0), indexed by
    /// raw gate id; dead gates hold 0.
    #[must_use]
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.id_bound()];
        for id in self.topo_order() {
            let l = self
                .fanins(id)
                .iter()
                .map(|f| level[f.0 as usize] + 1)
                .max()
                .unwrap_or(0);
            level[id.0 as usize] = l;
        }
        level
    }

    /// Depth of the netlist in logic levels (max over outputs).
    #[must_use]
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs()
            .iter()
            .map(|o| levels[o.0 as usize])
            .max()
            .unwrap_or(0)
    }

    /// The transitive fanout of `root` — every gate reachable through
    /// fanout edges, **excluding** `root` itself, including primary outputs.
    #[must_use]
    pub fn tfo(&self, root: GateId) -> Vec<GateId> {
        let mut seen = GateSet::new(self.id_bound());
        seen.insert(root);
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for c in self.fanouts(id) {
                if seen.insert(c.gate) {
                    out.push(c.gate);
                    stack.push(c.gate);
                }
            }
        }
        out
    }

    /// The transitive fanin of `root`, excluding `root`, including primary
    /// inputs.
    #[must_use]
    pub fn tfi(&self, root: GateId) -> Vec<GateId> {
        let mut seen = GateSet::new(self.id_bound());
        seen.insert(root);
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            for &f in self.fanins(id) {
                if seen.insert(f) {
                    out.push(f);
                    stack.push(f);
                }
            }
        }
        out
    }

    /// True if `b` lies in the transitive fanout of `a` (i.e. wiring an
    /// input of `a`'s sinks from `b` could create a cycle).
    #[must_use]
    pub fn reaches(&self, a: GateId, b: GateId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = GateSet::new(self.id_bound());
        seen.insert(a);
        let mut stack = vec![a];
        while let Some(id) = stack.pop() {
            for c in self.fanouts(id) {
                if c.gate == b {
                    return true;
                }
                if seen.insert(c.gate) {
                    stack.push(c.gate);
                }
            }
        }
        false
    }

    /// Renders the netlist as GraphViz DOT, for debugging and docs.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use crate::netlist::GateKind;
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name());
        let _ = writeln!(s, "  rankdir=LR;");
        for id in self.iter_live() {
            let label = match self.kind(id) {
                GateKind::Input => format!("{} [PI]", self.gate_name(id)),
                GateKind::Output => format!("{} [PO]", self.gate_name(id)),
                GateKind::Const(v) => format!("const {}", u8::from(v)),
                GateKind::Cell(c) => format!(
                    "{}\\n{}",
                    self.gate_name(id),
                    self.library().cell_ref(c).name
                ),
            };
            let _ = writeln!(s, "  n{} [label=\"{}\"];", id.0, label);
        }
        for id in self.iter_live() {
            for c in self.fanouts(id) {
                let _ = writeln!(s, "  n{} -> n{} [label=\"{}\"];", id.0, c.gate.0, c.pin);
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::netlist::Netlist;
    use powder_library::lib2;
    use std::sync::Arc;

    fn diamond() -> (Netlist, Vec<crate::GateId>) {
        // a -> g1 -> g3 -> f ;  a -> g2 -> g3
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("d", lib);
        let a = nl.add_input("a");
        let g1 = nl.add_cell("g1", inv, &[a]);
        let g2 = nl.add_cell("g2", inv, &[a]);
        let g3 = nl.add_cell("g3", and2, &[g1, g2]);
        let f = nl.add_output("f", g3);
        (nl, vec![a, g1, g2, g3, f])
    }

    #[test]
    fn topo_order_respects_edges() {
        let (nl, ids) = diamond();
        let order = nl.topo_order();
        let pos = |id| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(ids[0]) < pos(ids[1]));
        assert!(pos(ids[1]) < pos(ids[3]));
        assert!(pos(ids[2]) < pos(ids[3]));
        assert!(pos(ids[3]) < pos(ids[4]));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn levels_and_depth() {
        let (nl, ids) = diamond();
        let lv = nl.levels();
        assert_eq!(lv[ids[0].0 as usize], 0);
        assert_eq!(lv[ids[3].0 as usize], 2);
        assert_eq!(nl.depth(), 3); // output pseudo-gate adds one level
    }

    #[test]
    fn tfo_tfi() {
        let (nl, ids) = diamond();
        let (a, g1, _g2, g3, f) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let tfo = nl.tfo(g1);
        assert!(tfo.contains(&g3) && tfo.contains(&f) && !tfo.contains(&g1));
        let tfi = nl.tfi(g3);
        assert!(tfi.contains(&a) && tfi.contains(&g1) && !tfi.contains(&g3));
    }

    #[test]
    fn reaches_detects_paths() {
        let (nl, ids) = diamond();
        let (a, g1, g2, g3, _f) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        assert!(nl.reaches(a, g3));
        assert!(!nl.reaches(g1, g2));
        assert!(nl.reaches(g3, g3), "reflexive by convention");
    }

    #[test]
    fn dot_output_mentions_all_gates() {
        let (nl, _) = diamond();
        let dot = nl.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.matches("->").count() >= 5);
    }

    #[test]
    fn multi_branch_to_same_sink_topo() {
        // g = and2(a, a): two branches from one stem to one sink.
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let g = nl.add_cell("g", and2, &[a, a]);
        nl.add_output("f", g);
        nl.validate().unwrap();
        assert_eq!(nl.topo_order().len(), 3);
        assert_eq!(nl.fanouts(a).len(), 2);
    }
}
