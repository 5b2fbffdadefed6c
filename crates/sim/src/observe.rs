//! Exact per-pattern observability masks.
//!
//! The observability mask of a signal has bit `t` set iff flipping the
//! signal's value on pattern `t` flips at least one primary output — the
//! bit-parallel analogue of fault-simulating the stuck-at fault pair at the
//! signal, as used by the candidate-generation machinery of refs \[2,5\].
//!
//! # One sweep for every stem and branch
//!
//! [`observability_sweep`] computes the mask of every stem and every
//! branch in one reverse-topological pass, by critical path tracing
//! (Abramovici, Menon & Miller, DAC 1983):
//!
//! * **Chain rule.** Flipping branch `a → g.p` changes only what pin `p`
//!   of `g` sees, so
//!   `obs(a→g.p) = obs(g) & (eval_g(fanins) ^ eval_g(fanins with pin p flipped))`.
//!   This is exact bit by bit, not an approximation: patterns are
//!   independent, and on a pattern where `g` flips, everything downstream
//!   sees exactly a flip of `g`, whose mask the sweep already holds. A
//!   branch into a primary output is observable on every pattern, and a
//!   stem with a single fanout is its one branch.
//! * **Reconvergent stems.** A stem with several fanouts flips all its
//!   branches at once; the flips can meet again and cancel, so the OR of
//!   its branch masks may overstate it. Only these stems are propagated
//!   forward, event-driven in topological position over flat scratch
//!   buffers shared by all stems. Propagation stops as soon as the whole
//!   difference funnels through one pending gate `h`: from there on it is
//!   exactly a flip of `h` on the changed patterns, so the rest is
//!   `diff(h) & obs(h)`.
//!
//! # Scoped sweeps
//!
//! Given a scope mask (a window of the netlist), the sweep measures
//! window-local observability: a difference counts as observed the moment
//! it reaches a primary output inside the scope *or any edge leaving it*.
//! This over-approximates true observability — logic outside the window
//! might mask the difference — which is exactly the convention of the
//! window-local permissibility proof (`powder_atpg::CheckArena::check`
//! with a scope): the filter never rejects a candidate the scoped proof
//! could accept. The
//! sweep's word buffers are sized to the scope, so a windowed call does
//! work independent of the netlist size.
//!
//! The single-signal [`stem_observability`] and [`branch_observability`]
//! run the sweep scoped to the signal's transitive fanout. That cone is
//! closed under fanout edges, so nothing escapes it but at primary outputs
//! and the masks are exact.

use crate::{CellCovers, SimValues};
use powder_netlist::{Conn, GateId, GateKind, Netlist};

/// Sentinel of [`ObservabilityMasks`]' position map: no mask.
const NONE: u32 = u32::MAX;

/// Observability masks of every stem and every branch of a netlist, or of
/// one scope of it, computed by [`observability_sweep`].
#[derive(Clone, Debug)]
pub struct ObservabilityMasks {
    words: usize,
    /// `GateId.0` → position in the sweep's topological order; [`NONE`]
    /// for primary outputs and dead or out-of-scope gates.
    pos: Vec<u32>,
    /// Stem masks, `words` per position.
    stems: Vec<u64>,
    /// First branch slot per position, plus one end marker; a gate's
    /// branches follow its [`Netlist::fanouts`] order.
    first_branch: Vec<u32>,
    /// Branch masks, `words` per slot.
    branches: Vec<u64>,
}

impl ObservabilityMasks {
    fn position(&self, g: GateId) -> Option<usize> {
        match self.pos.get(g.0 as usize) {
            Some(&p) if p != NONE => Some(p as usize),
            _ => None,
        }
    }

    /// Mask of stem `g`: flipping `g` on all its branches at once. `None`
    /// for primary outputs and for dead or out-of-scope gates.
    #[must_use]
    pub fn stem(&self, g: GateId) -> Option<&[u64]> {
        let p = self.position(g)?;
        Some(&self.stems[p * self.words..][..self.words])
    }

    /// Mask of branch `k` of stem `g` — the `k`-th entry of
    /// `nl.fanouts(g)` — flipping the value that one sink pin sees.
    /// `None` where [`ObservabilityMasks::stem`] is, or if `g` has no
    /// branch `k`.
    #[must_use]
    pub fn branch(&self, g: GateId, k: usize) -> Option<&[u64]> {
        let p = self.position(g)?;
        let slot = self.first_branch[p] as usize + k;
        (slot < self.first_branch[p + 1] as usize)
            .then(|| &self.branches[slot * self.words..][..self.words])
    }
}

/// Computes the observability masks of every stem and every branch in one
/// reverse-topological sweep (see the module docs).
///
/// With `scope: Some(mask)` (dense, indexed by `GateId.0`; ids beyond its
/// length are out of scope) only in-scope gates get masks, and a
/// difference reaching any edge that leaves the scope counts as observed.
#[must_use]
pub fn observability_sweep(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    scope: Option<&[bool]>,
) -> ObservabilityMasks {
    let words = values.words();
    let (order, pos) = sweep_order(nl, scope);
    let n = order.len();
    let mut first_branch = Vec::with_capacity(n + 1);
    let mut slots = 0u32;
    for &g in &order {
        first_branch.push(slots);
        slots += nl.fanouts(g).len() as u32;
    }
    first_branch.push(slots);
    let mut stems = vec![0u64; n * words];
    let mut branches = vec![0u64; slots as usize * words];
    let mut prop = Propagator::new(n, words);

    for i in (0..n).rev() {
        let g = order[i];
        let fanouts = nl.fanouts(g);
        let b0 = first_branch[i] as usize;
        // Some branch feeds a primary output or leaves the scope: the
        // stem's flip is observed right there on every pattern.
        let mut escapes = false;
        for (k, conn) in fanouts.iter().enumerate() {
            let dst = &mut branches[(b0 + k) * words..][..words];
            let j = pos[conn.gate.0 as usize];
            if j == NONE {
                dst.fill(u64::MAX);
                escapes = true;
                continue;
            }
            let GateKind::Cell(cell) = nl.kind(conn.gate) else {
                unreachable!("only cells have fanins")
            };
            let sink_obs = &stems[j as usize * words..][..words];
            if sink_obs.iter().all(|&m| m == 0) {
                dst.fill(0);
                continue;
            }
            let fanins = nl.fanins(conn.gate);
            covers.eval(cell, |p| values.get(fanins[p]), 1 << conn.pin, dst);
            for ((d, &m), &v) in dst.iter_mut().zip(sink_obs).zip(values.get(conn.gate)) {
                *d = m & (*d ^ v);
            }
        }
        let mask: &[u64] = match fanouts.len() {
            0 => continue,
            1 => &branches[b0 * words..][..words],
            _ if escapes => {
                stems[i * words..][..words].fill(u64::MAX);
                continue;
            }
            _ => prop.stem(nl, covers, values, &order, &pos, &stems, i),
        };
        stems[i * words..][..words].copy_from_slice(mask);
    }
    ObservabilityMasks {
        words,
        pos,
        stems,
        first_branch,
        branches,
    }
}

/// The sweep's gates — live, not primary outputs, in scope — in a
/// topological order of the edges among them, plus the dense
/// `GateId.0` → position map ([`NONE`] for every other gate).
fn sweep_order(nl: &Netlist, scope: Option<&[bool]>) -> (Vec<GateId>, Vec<u32>) {
    let member = |g: GateId| nl.is_live(g) && !matches!(nl.kind(g), GateKind::Output);
    let members: Vec<GateId> = match scope {
        None => nl.iter_live().filter(|&g| member(g)).collect(),
        Some(mask) => (0..mask.len().min(nl.id_bound()))
            .filter(|&i| mask[i])
            .map(|i| GateId(i as u32))
            .filter(|&g| member(g))
            .collect(),
    };
    let mut pos = vec![NONE; nl.id_bound()];
    for (i, g) in members.iter().enumerate() {
        pos[g.0 as usize] = i as u32;
    }
    // Kahn's algorithm over member-to-member edges; a sink fed twice by
    // the same stem counts (and releases) both pins.
    let mut indeg: Vec<u32> = members
        .iter()
        .map(|&g| {
            nl.fanins(g)
                .iter()
                .filter(|f| pos[f.0 as usize] != NONE)
                .count() as u32
        })
        .collect();
    let mut ready: Vec<u32> = (0..members.len() as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(members.len());
    while let Some(i) = ready.pop() {
        let g = members[i as usize];
        order.push(g);
        for c in nl.fanouts(g) {
            let j = pos[c.gate.0 as usize];
            if j != NONE {
                indeg[j as usize] -= 1;
                if indeg[j as usize] == 0 {
                    ready.push(j);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), members.len(), "netlist contains a cycle");
    for (i, g) in order.iter().enumerate() {
        pos[g.0 as usize] = i as u32;
    }
    (order, pos)
}

/// Scratch for forward difference propagation from reconvergent stems,
/// reused across all stems of one sweep. Gates are addressed by sweep
/// position; per-gate stamps equal to `epoch` mark the current stem's
/// changed gates, so nothing is cleared between stems.
struct Propagator {
    words: usize,
    epoch: u32,
    /// Value of each changed gate under the difference, `words` each.
    vals: Vec<u64>,
    changed: Vec<u32>,
    pending: EventQueue,
    obs: Vec<u64>,
}

/// The pending gates of one stem's propagation: a bitset over sweep
/// positions plus the number of bits set. Every event lies after the
/// gate that raised it, so a cursor that only moves back on a push pops
/// them in topological order; the set is empty again whenever a stem's
/// propagation ends, so it is never cleared.
struct EventQueue {
    bits: Vec<u64>,
    len: usize,
    /// No bit is set in a block before this one.
    cursor: usize,
}

impl EventQueue {
    fn push(&mut self, j: usize) {
        let (block, bit) = (j / 64, 1u64 << (j % 64));
        if self.bits[block] & bit == 0 {
            self.bits[block] |= bit;
            self.len += 1;
            self.cursor = self.cursor.min(block);
        }
    }

    /// Removes and returns the lowest pending position.
    fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        while self.bits[self.cursor] == 0 {
            self.cursor += 1;
        }
        let block = &mut self.bits[self.cursor];
        let j = self.cursor * 64 + block.trailing_zeros() as usize;
        *block &= *block - 1;
        self.len -= 1;
        Some(j)
    }
}

impl Propagator {
    fn new(n: usize, words: usize) -> Self {
        Propagator {
            words,
            epoch: 0,
            vals: vec![0; n * words],
            changed: vec![0; n],
            pending: EventQueue {
                bits: vec![0; n.div_ceil(64)],
                len: 0,
                cursor: 0,
            },
            obs: vec![0; words],
        }
    }

    /// Mask of the reconvergent stem at position `i`, none of whose
    /// branches escapes. `stems` must hold the masks of every later
    /// position.
    #[allow(clippy::too_many_arguments)]
    fn stem(
        &mut self,
        nl: &Netlist,
        covers: &CellCovers,
        values: &SimValues,
        order: &[GateId],
        pos: &[u32],
        stems: &[u64],
        i: usize,
    ) -> &[u64] {
        let words = self.words;
        self.epoch += 1;
        self.obs.fill(0);
        let g = order[i];
        for (v, &o) in self.vals[i * words..][..words]
            .iter_mut()
            .zip(values.get(g))
        {
            *v = !o;
        }
        self.changed[i] = self.epoch;
        for c in nl.fanouts(g) {
            self.pending.push(pos[c.gate.0 as usize] as usize);
        }
        while let Some(j) = self.pending.pop() {
            let h = order[j];
            let GateKind::Cell(cell) = nl.kind(h) else {
                unreachable!("only cells have fanins")
            };
            let fanins = nl.fanins(h);
            // Fanins precede `h` in the order, so their changed values
            // all lie before `h`'s own slot, which takes its new value.
            let (before, from_h) = self.vals.split_at_mut(j * words);
            let new = &mut from_h[..words];
            let (changed, epoch) = (&self.changed, self.epoch);
            let pin = |p: usize| {
                let f = fanins[p];
                match pos[f.0 as usize] {
                    q if q != NONE && changed[q as usize] == epoch => {
                        &before[q as usize * words..][..words]
                    }
                    _ => values.get(f),
                }
            };
            covers.eval(cell, pin, 0, new);
            let old = values.get(h);
            if new == old {
                continue;
            }
            if self.pending.len == 0 {
                // Every remaining difference flows through `h`: from here
                // on it is a flip of `h` on the changed patterns.
                let h_obs = &stems[j * words..][..words];
                for (((acc, &n), &o), &m) in self.obs.iter_mut().zip(&*new).zip(old).zip(h_obs) {
                    *acc |= (n ^ o) & m;
                }
                break;
            }
            self.changed[j] = self.epoch;
            let mut escapes = false;
            for c in nl.fanouts(h) {
                match pos[c.gate.0 as usize] {
                    // A primary output or an edge leaving the scope.
                    NONE => escapes = true,
                    k => self.pending.push(k as usize),
                }
            }
            if escapes {
                for ((acc, &n), &o) in self.obs.iter_mut().zip(&*new).zip(old) {
                    *acc |= n ^ o;
                }
            }
        }
        &self.obs
    }
}

/// Observability mask of stem `stem`: for each pattern, whether flipping the
/// stem (all its branches at once) is visible at any primary output. A
/// primary output's own mask is all-zero.
#[must_use]
pub fn stem_observability(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    stem: GateId,
) -> Vec<u64> {
    cone_sweep(nl, covers, values, stem)
        .stem(stem)
        .map_or_else(|| vec![0; values.words()], <[u64]>::to_vec)
}

/// Observability mask of one branch `conn` of stem `stem`: flipping the
/// value *as seen by that sink pin only*.
///
/// Branch observability is never smaller than what IS2 filtering needs: an
/// input substitution only alters the value entering that one pin.
///
/// # Panics
///
/// Panics if `conn` is not a fanout branch of `stem`.
#[must_use]
pub fn branch_observability(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    stem: GateId,
    conn: Conn,
) -> Vec<u64> {
    let k = nl
        .fanouts(stem)
        .iter()
        .position(|&c| c == conn)
        .expect("conn is a fanout branch of stem");
    cone_sweep(nl, covers, values, stem)
        .branch(stem, k)
        .expect("stem has branch masks")
        .to_vec()
}

/// A sweep scoped to `root` and its transitive fanout. That set is closed
/// under fanout edges, so nothing escapes it but at primary outputs: its
/// masks for `root` are exact, and its word work is `O(|TFO| · words)`.
fn cone_sweep(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    root: GateId,
) -> ObservabilityMasks {
    let mut cone = vec![false; nl.id_bound()];
    cone[root.0 as usize] = true;
    for g in nl.tfo(root) {
        cone[g.0 as usize] = true;
    }
    observability_sweep(nl, covers, values, Some(&cone))
}

/// Observability masks for every live stem, indexed by raw gate id (dead
/// gates and primary outputs get empty vectors): the stem masks of one
/// [`observability_sweep`] over the whole netlist.
#[must_use]
pub fn stem_observability_all(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
) -> Vec<Vec<u64>> {
    let masks = observability_sweep(nl, covers, values, None);
    (0..nl.id_bound())
        .map(|i| {
            masks
                .stem(GateId(i as u32))
                .map_or_else(Vec::new, <[u64]>::to_vec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Patterns};
    use powder_library::lib2;
    use std::sync::Arc;

    /// f = (a ^ c) & b — flipping d=(a^c) is observable exactly when b=1.
    #[test]
    fn xor_and_observability() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        nl.add_output("fo", f);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(3);
        let v = simulate(&nl, &covers, &p);
        let obs_d = stem_observability(&nl, &covers, &v, d);
        for m in 0..8usize {
            let expect = m & 2 != 0; // b = input index 1
            assert_eq!((obs_d[m / 64] >> (m % 64)) & 1 == 1, expect, "pattern {m}");
        }
        // The output stem itself is always observable.
        let obs_f = stem_observability(&nl, &covers, &v, f);
        for m in 0..8usize {
            assert_eq!((obs_f[m / 64] >> (m % 64)) & 1, 1);
        }
    }

    /// With reconvergence, naive chain-rule observability would be wrong;
    /// difference propagation is exact. f = a ^ a via two paths is constant,
    /// so the internal signals are never observable... use g = (a&b) | (a&!b)
    /// = a: flipping branch a→(a&b) is observable iff b=1.
    #[test]
    fn branch_vs_stem_observability_reconvergent() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let andn2 = lib.find_by_name("andn2").unwrap(); // a*!b
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", andn2, &[a, b]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        nl.add_output("f", g3);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::exhaustive(2);
        let v = simulate(&nl, &covers, &p);

        // Stem a: flipping a flips f = a always. Observable on all patterns.
        let obs_a = stem_observability(&nl, &covers, &v, a);
        for m in 0..4usize {
            assert_eq!((obs_a[0] >> m) & 1, 1, "stem a pattern {m}");
        }
        // Branch a→g1 (pin 0 of g1): flip changes g1 = a&b only when b=1;
        // then f = (!a&b) | (a&!b)... compare exactly:
        let conn = nl
            .fanouts(a)
            .iter()
            .copied()
            .find(|c| c.gate == g1)
            .unwrap();
        let obs_branch = branch_observability(&nl, &covers, &v, a, conn);
        for m in 0..4usize {
            let (av, bv) = (m & 1 != 0, m & 2 != 0);
            let f_orig = av;
            let f_flip = (!av && bv) || (av && !bv);
            assert_eq!(
                (obs_branch[0] >> m) & 1 == 1,
                f_orig != f_flip,
                "branch pattern {m}"
            );
        }
        // The sweep agrees on the reconvergent stem and on the branch.
        let masks = observability_sweep(&nl, &covers, &v, None);
        assert_eq!(masks.stem(a).unwrap(), obs_a.as_slice());
        let k = nl.fanouts(a).iter().position(|&c| c == conn).unwrap();
        assert_eq!(masks.branch(a, k).unwrap(), obs_branch.as_slice());
    }

    #[test]
    fn all_stems_bulk_matches_single() {
        let lib = Arc::new(lib2());
        let nand2 = lib.find_by_name("nand2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", nand2, &[a, b]);
        let g2 = nl.add_cell("g2", nand2, &[g1, b]);
        let f = nl.add_output("f", g2);
        let covers = CellCovers::new(nl.library());
        let p = Patterns::random(2, 4, 9);
        let v = simulate(&nl, &covers, &p);
        let all = stem_observability_all(&nl, &covers, &v);
        for id in [a, b, g1, g2] {
            assert_eq!(all[id.0 as usize], stem_observability(&nl, &covers, &v, id));
        }
        assert!(all[f.0 as usize].is_empty());
    }

    /// A branch into a primary output is observable on every pattern, in
    /// the sweep and in the single-signal reference alike.
    #[test]
    fn output_branch_is_always_observable() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell("g", and2, &[a, b]);
        nl.add_output("f", g);
        nl.add_output("h", a);
        let covers = CellCovers::new(nl.library());
        let v = simulate(&nl, &covers, &Patterns::random(2, 2, 5));
        let masks = observability_sweep(&nl, &covers, &v, None);
        for (k, &conn) in nl.fanouts(a).iter().enumerate() {
            let single = branch_observability(&nl, &covers, &v, a, conn);
            assert_eq!(masks.branch(a, k).unwrap(), single.as_slice());
            if matches!(nl.kind(conn.gate), GateKind::Output) {
                assert!(single.iter().all(|&w| w == u64::MAX));
            }
        }
        assert!(masks.branch(a, nl.fanouts(a).len()).is_none());
    }
}
