//! Read footprints and commit dirty sets as gate-id bitsets.
//!
//! A [`Footprint`] records every gate a speculative computation read:
//! the forward cone (TFO) of the gates a candidate rewires, plus the
//! backward cone (TFI) of everything collected, plus any explicitly
//! named extras (the substituted stem and the replacement sources).
//! This over-approximates the read set of both the what-if power
//! analysis (which walks the fanout cone of the rewired sinks) and
//! the ATPG miter (which walks the fanin cone of the affected region).
//!
//! A [`DirtyBits`] records every gate a commit wrote: the journal's
//! touched and removed gates plus the downstream dirty cone that the
//! incremental analyses refresh. A cached result survives a commit
//! iff `footprint.intersects(&dirty)` is false — gates outside the
//! dirty set keep their probabilities, arrival times, fanin/fanout
//! lists, and simulation values bit-for-bit, so a recomputation would
//! reproduce the cached value exactly.
//!
//! Gate ids created *after* a footprint was captured may exceed its
//! bitset length; they are safely ignored because a new gate can only
//! become relevant to an old footprint by rewiring some existing gate
//! in it, and that rewiring marks the existing gate dirty.

use powder_netlist::{GateId, Netlist};

/// Set of gate ids read by one speculative computation.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    words: Vec<u64>,
}

impl Footprint {
    /// True if `g` is in the footprint.
    pub fn contains(&self, g: GateId) -> bool {
        let (w, b) = (g.0 as usize / 64, g.0 as usize % 64);
        self.words.get(w).is_some_and(|&word| word & (1 << b) != 0)
    }

    /// True if any gate is in both `self` and `dirty`.
    pub fn intersects(&self, dirty: &DirtyBits) -> bool {
        self.words
            .iter()
            .zip(&dirty.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Number of gates in the footprint.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the footprint is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn insert(&mut self, g: GateId) {
        let (w, b) = (g.0 as usize / 64, g.0 as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }
}

/// Set of gate ids written by one or more commits.
#[derive(Clone, Debug, Default)]
pub struct DirtyBits {
    words: Vec<u64>,
}

impl DirtyBits {
    /// Builds the write set of one commit from the gates it touched,
    /// the gates it removed, and the downstream cone the analyses
    /// refreshed.
    pub fn from_commit<I>(touched: I, removed: &[GateId], cone: &[GateId]) -> Self
    where
        I: IntoIterator<Item = GateId>,
    {
        let mut bits = DirtyBits::default();
        for g in touched {
            bits.insert(g);
        }
        for &g in removed {
            bits.insert(g);
        }
        for &g in cone {
            bits.insert(g);
        }
        bits
    }

    /// Adds a gate to the set.
    pub fn insert(&mut self, g: GateId) {
        let (w, b) = (g.0 as usize / 64, g.0 as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    /// Number of gates in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no gate is marked dirty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Reusable scratch for footprint construction (one per worker).
#[derive(Clone, Debug, Default)]
pub struct FootprintScratch {
    stack: Vec<GateId>,
}

impl FootprintScratch {
    /// Computes the read footprint of a candidate: the inclusive TFO
    /// of `fwd_roots` (the gates whose fanins the candidate would
    /// rewire), united with `extras` (stem and replacement sources),
    /// then closed under TFI.
    pub fn candidate_footprint<I, J>(&mut self, nl: &Netlist, fwd_roots: I, extras: J) -> Footprint
    where
        I: IntoIterator<Item = GateId>,
        J: IntoIterator<Item = GateId>,
    {
        let mut fp = Footprint::default();
        // Forward closure: TFO of the rewired sinks, roots inclusive.
        self.stack.clear();
        for g in fwd_roots {
            if !fp.contains(g) {
                fp.insert(g);
                self.stack.push(g);
            }
        }
        while let Some(g) = self.stack.pop() {
            for conn in nl.fanouts(g) {
                if !fp.contains(conn.gate) {
                    fp.insert(conn.gate);
                    self.stack.push(conn.gate);
                }
            }
        }
        // Backward closure: TFI of everything collected so far plus
        // the extras (which seed their own TFI too).
        self.stack.clear();
        for w in 0..fp.words.len() {
            let mut word = fp.words[w];
            while word != 0 {
                let b = word.trailing_zeros();
                word &= word - 1;
                self.stack.push(GateId((w * 64) as u32 + b));
            }
        }
        for g in extras {
            if !fp.contains(g) {
                fp.insert(g);
            }
            self.stack.push(g);
        }
        while let Some(g) = self.stack.pop() {
            for &src in nl.fanins(g) {
                if !fp.contains(src) {
                    fp.insert(src);
                    self.stack.push(src);
                }
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    /// x0,x1 → a=and2 → inv → out ; x2 → buf-ish separate cone.
    fn chain() -> (Netlist, Vec<GateId>) {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let inv = lib.find_by_name("inv1").unwrap();
        let mut nl = Netlist::new("fp", lib);
        let x0 = nl.add_input("x0");
        let x1 = nl.add_input("x1");
        let x2 = nl.add_input("x2");
        let a = nl.add_cell("a", and2, &[x0, x1]);
        let n = nl.add_cell("n", inv, &[a]);
        let m = nl.add_cell("m", inv, &[x2]);
        nl.add_output("f", n);
        nl.add_output("g", m);
        (nl, vec![x0, x1, x2, a, n, m])
    }

    #[test]
    fn footprint_covers_tfo_and_tfi() {
        let (nl, ids) = chain();
        let (x0, x1, x2, a, n, m) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let mut scratch = FootprintScratch::default();
        let fp = scratch.candidate_footprint(&nl, [n], [a]);
        // TFO of n: n and the output "f"; TFI closure pulls a, x0, x1.
        assert!(fp.contains(n) && fp.contains(a) && fp.contains(x0) && fp.contains(x1));
        // The disjoint cone through m stays out.
        assert!(!fp.contains(m) && !fp.contains(x2));
    }

    #[test]
    fn intersection_matches_membership() {
        let (nl, ids) = chain();
        let (m, n) = (ids[5], ids[4]);
        let mut scratch = FootprintScratch::default();
        let fp = scratch.candidate_footprint(&nl, [n], []);
        let hit = DirtyBits::from_commit([n], &[], &[]);
        let miss = DirtyBits::from_commit([m], &[], &[]);
        assert!(fp.intersects(&hit));
        assert!(!fp.intersects(&miss));
    }

    /// A committed edit inside one cone dirties the footprints that read
    /// that cone and spares a disjoint one.
    #[test]
    fn commit_dirties_only_the_footprints_it_touches() {
        let (mut nl, ids) = chain();
        let (x0, x2, a, n, m) = (ids[0], ids[2], ids[3], ids[4], ids[5]);
        nl.drain_dirty();
        let mut scratch = FootprintScratch::default();
        let inside = scratch.candidate_footprint(&nl, [n], [a]);
        let disjoint = scratch.candidate_footprint(&nl, [m], [x2]);
        // Rewire n's fanin (a → x0) and sweep the dangling AND gate.
        nl.replace_fanin(n, 0, x0);
        nl.sweep_from(a);
        let region = nl.drain_dirty();
        let cone = nl.dirty_cone(&region);
        let dirty =
            DirtyBits::from_commit(region.touched().iter().copied(), region.removed(), &cone);
        assert!(inside.intersects(&dirty));
        assert!(!disjoint.intersects(&dirty));
    }

    #[test]
    fn out_of_range_ids_do_not_panic() {
        let fp = Footprint::default();
        assert!(!fp.contains(GateId(1_000_000)));
        let mut dirty = DirtyBits::default();
        dirty.insert(GateId(1_000_000));
        assert!(!fp.intersects(&dirty));
        assert_eq!(dirty.len(), 1);
    }
}
