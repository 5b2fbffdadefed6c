//! Substitution descriptions and the exact ATPG permissibility check.

use crate::sat::{FuncId, NodeId, SatBuilder, SatOutcome};
use powder_library::CellId;
use powder_netlist::{GateId, GateKind, Netlist};

/// A structural signal substitution, as defined in the paper's
/// Definitions 1 and 2.
///
/// * `OS2(a, b)` — the stem `a` is substituted by signal `b` everywhere;
///   gate `a` (and its MFFC) subsequently disappears.
/// * `IS2(ã, b)` — a single branch of `a` (identified by its sink pin) is
///   substituted by `b`.
/// * `OS3(a, g(b,c))` / `IS3(ã, g(b,c))` — the substituting signal is the
///   output of a **new** two-input library gate `g` driven by `b` and `c`.
///
/// Output/input substitutions *with inverted `b`* (the paper's analogous
/// definitions) are expressed with `invert: true`, which inserts an
/// inverter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Substitution {
    /// Substitute stem `a` by `b` (or `!b`).
    Os2 {
        /// The substituted stem.
        a: GateId,
        /// The substituting signal.
        b: GateId,
        /// Use the complement of `b`.
        invert: bool,
    },
    /// Substitute the branch feeding `sink`'s input `pin` by `b` (or `!b`).
    Is2 {
        /// The branch's sink gate.
        sink: GateId,
        /// The branch's sink pin.
        pin: u32,
        /// The substituting signal.
        b: GateId,
        /// Use the complement of `b`.
        invert: bool,
    },
    /// Substitute stem `a` by the output of a new gate `cell(b, c)`.
    Os3 {
        /// The substituted stem.
        a: GateId,
        /// The new gate's library cell (must have exactly two inputs).
        cell: CellId,
        /// First input of the new gate.
        b: GateId,
        /// Second input of the new gate.
        c: GateId,
    },
    /// Substitute the branch feeding `sink`'s input `pin` by `cell(b, c)`.
    Is3 {
        /// The branch's sink gate.
        sink: GateId,
        /// The branch's sink pin.
        pin: u32,
        /// The new gate's library cell (must have exactly two inputs).
        cell: CellId,
        /// First input of the new gate.
        b: GateId,
        /// Second input of the new gate.
        c: GateId,
    },
}

impl Substitution {
    /// The substituted stem: `a` itself for output substitutions, the
    /// branch's current driver for input substitutions.
    #[must_use]
    pub fn substituted_stem(&self, nl: &Netlist) -> GateId {
        match *self {
            Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => a,
            Substitution::Is2 { sink, pin, .. } | Substitution::Is3 { sink, pin, .. } => {
                nl.fanins(sink)[pin as usize]
            }
        }
    }

    /// The signals the substitution newly loads (`b`, and `c` for 3-input
    /// substitutions).
    #[must_use]
    pub fn sources(&self) -> (GateId, Option<GateId>) {
        match *self {
            Substitution::Os2 { b, .. } | Substitution::Is2 { b, .. } => (b, None),
            Substitution::Os3 { b, c, .. } | Substitution::Is3 { b, c, .. } => (b, Some(c)),
        }
    }

    /// The rewired branches: `(sink, pin)` pairs whose driver changes.
    #[must_use]
    pub fn rewired_branches(&self, nl: &Netlist) -> Vec<(GateId, u32)> {
        match *self {
            Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => nl
                .fanouts(a)
                .iter()
                .map(|conn| (conn.gate, conn.pin))
                .collect(),
            Substitution::Is2 { sink, pin, .. } | Substitution::Is3 { sink, pin, .. } => {
                vec![(sink, pin)]
            }
        }
    }

    /// Structural sanity: sources must be live, distinct from the
    /// substituted stem, and must not lie in the transitive fanout of any
    /// rewired sink (which would create a combinational cycle). For
    /// output substitutions the substituted stem must be a cell gate.
    #[must_use]
    pub fn is_structurally_valid(&self, nl: &Netlist) -> bool {
        let (b, c) = self.sources();
        if !nl.is_live(b) || c.is_some_and(|c| !nl.is_live(c)) {
            return false;
        }
        if matches!(nl.kind(b), GateKind::Output)
            || c.is_some_and(|c| matches!(nl.kind(c), GateKind::Output))
        {
            return false;
        }
        match *self {
            Substitution::Os2 { a, .. } | Substitution::Os3 { a, .. } => {
                if !matches!(nl.kind(a), GateKind::Cell(_)) {
                    return false;
                }
                if nl.fanouts(a).is_empty() {
                    return false;
                }
                // b (and c) must not depend on a (this also rejects b == a:
                // OS3 with the stem as an operand would need fanout
                // bookkeeping the apply path does not support).
                if nl.reaches(a, b) || c.is_some_and(|c| nl.reaches(a, c)) {
                    return false;
                }
            }
            Substitution::Is2 { sink, pin, b, .. } => {
                let driver = nl.fanins(sink)[pin as usize];
                if b == driver {
                    return false; // no-op
                }
                if nl.reaches(sink, b) {
                    return false;
                }
            }
            Substitution::Is3 { sink, b, c, .. } => {
                if nl.reaches(sink, b) || nl.reaches(sink, c) {
                    return false;
                }
            }
        }
        if let Substitution::Os3 { cell, .. } | Substitution::Is3 { cell, .. } = *self {
            match nl.library().cell(cell) {
                Some(cl) if cl.inputs() == 2 => {}
                _ => return false,
            }
        }
        true
    }
}

/// Outcome of the exact permissibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Proven permissible: no input vector distinguishes the circuits.
    Permissible,
    /// Not permissible; the witness is a distinguishing input assignment
    /// (indexed like the netlist's primary inputs).
    NotPermissible(Vec<bool>),
    /// Not proven: the ATPG backtrack limit was hit, or a scoped check
    /// found an assignment of its cut variables that may be spurious.
    /// Treated as not permissible, as in the paper's `check_candidate`.
    Aborted,
}

/// Reusable solver arena for permissibility checks.
///
/// Building the miter's "original circuit" half — one SAT node per
/// gate of the netlist, or of the window a scoped check is cut at — is
/// `O(netlist)` work that is identical for every candidate checked
/// against the same netlist state. The arena caches that base node
/// table keyed on the netlist's edit-journal generation and the scope;
/// per-candidate nodes (the rewired duplicate region, difference XORs,
/// activation conjunct) are appended on top and rolled back with a
/// truncate after each query. Since the builder performs no
/// hash-consing, truncate-and-rebuild produces a node table identical
/// to a from-scratch construction, so arena-backed checks return
/// bit-identical outcomes to [`check_substitution`]. Every table the
/// arena keeps is dense (indexed by `GateId`) and reused: by the next
/// check, and by the next base when the netlist changes.
///
/// An arena is tied to one netlist instance; the parallel evaluation
/// engine keeps one per worker, which is what makes ATPG state
/// effectively `Send`: workers own their arenas, and only `&Netlist`
/// is shared.
#[derive(Debug, Default)]
pub struct CheckArena {
    builder: SatBuilder,
    base_len: usize,
    orig: Encoding,
    topo: Vec<GateId>,
    /// `(journal generation, id bound, scope fingerprint)` the base table
    /// was built for; `None` in the last slot means the whole netlist.
    key: Option<(u64, usize, Option<u64>)>,
    /// Number of solver variables: real primary inputs for a whole-netlist
    /// base, cut pseudo-inputs for a scoped one.
    num_vars: usize,
    /// Position of each primary input in the netlist's input list.
    pi_index: Vec<u32>,
    /// Per-gate state of the check in progress; default between checks.
    marks: Vec<Mark>,
    /// The gates whose mark the check in progress has set.
    touched: Vec<GateId>,
    frontier: Vec<GateId>,
    diffs: Vec<(GateId, NodeId)>,
    fanins: Vec<NodeId>,
}

/// What one check knows about one gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Mark {
    /// The gate lies in the affected region.
    region: bool,
    /// Its rewired input pins, one bit per pin.
    rewired: u32,
    /// Its node in the rewired duplicate, once built.
    dup: NodeId,
}

impl Default for Mark {
    fn default() -> Self {
        Mark {
            region: false,
            rewired: 0,
            dup: NONE,
        }
    }
}

/// The mark of `g`, recorded in `touched` on its first change.
fn touch<'a>(marks: &'a mut [Mark], touched: &mut Vec<GateId>, g: GateId) -> &'a mut Mark {
    let mark = &mut marks[g.0 as usize];
    if *mark == Mark::default() {
        touched.push(g);
    }
    mark
}

/// Order-sensitive fingerprint of a scope mask, used to key the cached
/// scoped base table. It scans the whole mask, so its cost per check is
/// proportional to the netlist's id bound; only set bits contribute.
fn scope_fingerprint(scope: &[bool]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= scope.len() as u64;
    h = h.wrapping_mul(0x0000_0100_0000_01B3);
    for (i, &bit) in scope.iter().enumerate() {
        if bit {
            h ^= i as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Whether `g` lies in `scope` (a dense mask indexed by `GateId.0`; ids
/// beyond its length are outside). Without a scope every gate does.
fn in_scope(scope: Option<&[bool]>, g: GateId) -> bool {
    scope.is_none_or(|s| s.get(g.0 as usize).copied().unwrap_or(false))
}

/// Entry of a dense table for a gate without a node, or a cell not yet
/// interned.
const NONE: u32 = u32::MAX;

/// One netlist's encoding into a [`SatBuilder`]: the node of each gate
/// (dense, indexed by `GateId.0`), and the interned function of each
/// library cell met so far. Reused across encodings.
#[derive(Debug, Default)]
pub(crate) struct Encoding {
    nodes: Vec<NodeId>,
    cells: Vec<FuncId>,
    fanins: Vec<NodeId>,
}

impl Encoding {
    /// The node of `g`, if it was encoded or entered as a leaf.
    pub(crate) fn node(&self, g: GateId) -> Option<NodeId> {
        self.nodes.get(g.0 as usize).copied().filter(|&n| n != NONE)
    }

    /// The node of `g`, which must have one.
    pub(crate) fn at(&self, g: GateId) -> NodeId {
        self.node(g).expect("signal is encoded")
    }

    /// The interned function of `nl`'s library cell `cell`.
    fn func(&mut self, builder: &mut SatBuilder, nl: &Netlist, cell: CellId) -> FuncId {
        let func = &mut self.cells[cell.0 as usize];
        if *func == NONE {
            *func = builder.intern(&nl.library().cell_ref(cell).function);
        }
        *func
    }
}

/// Encodes the gates of `topo` that lie in `scope` into `builder`, in
/// that (topological) order, and records each gate's node in `map`. A
/// primary output aliases its driver's node. `leaf` supplies the node of
/// each signal entering the encoded region — every in-scope primary
/// input and, under a scope, every fanin from outside it — once per
/// signal, in first-use order.
pub(crate) fn encode(
    builder: &mut SatBuilder,
    nl: &Netlist,
    topo: &[GateId],
    scope: Option<&[bool]>,
    map: &mut Encoding,
    mut leaf: impl FnMut(&mut SatBuilder, GateId) -> NodeId,
) {
    map.nodes.clear();
    map.nodes.resize(nl.id_bound(), NONE);
    map.cells.clear();
    map.cells.resize(nl.library().len(), NONE);
    let mut signal = |nodes: &mut [NodeId], builder: &mut SatBuilder, f: GateId| {
        let node = &mut nodes[f.0 as usize];
        if *node == NONE {
            *node = leaf(builder, f);
        }
        *node
    };
    for &g in topo {
        if !in_scope(scope, g) {
            continue;
        }
        let node = match nl.kind(g) {
            GateKind::Input => signal(&mut map.nodes, builder, g),
            GateKind::Const(v) => builder.constant(v),
            GateKind::Output => signal(&mut map.nodes, builder, nl.fanins(g)[0]),
            GateKind::Cell(c) => {
                let func = map.func(builder, nl, c);
                map.fanins.clear();
                for &f in nl.fanins(g) {
                    let node = signal(&mut map.nodes, builder, f);
                    map.fanins.push(node);
                }
                builder.gate(func, &map.fanins)
            }
        };
        map.nodes[g.0 as usize] = node;
    }
}

impl CheckArena {
    /// A fresh arena with no cached base.
    #[must_use]
    pub fn new() -> Self {
        CheckArena::default()
    }

    /// Rebuilds the base node table if the netlist or the scope changed
    /// since the last check; otherwise just rolls back the previous
    /// query's appended nodes. Without a scope every live gate gets a
    /// node and primary input `i` is solver variable `i`, so witnesses
    /// are input patterns. Under a scope only in-scope gates get one,
    /// and every signal crossing into the scope (an in-scope primary
    /// input, or a fanin from outside) becomes a free cut variable. The
    /// solver's cone extraction prunes whatever a query never reads.
    fn refresh(&mut self, nl: &Netlist, scope: Option<&[bool]>) {
        let key = (nl.generation(), nl.id_bound(), scope.map(scope_fingerprint));
        if self.key == Some(key) {
            self.builder.truncate(self.base_len);
            return;
        }
        self.builder.truncate(0);
        nl.topo_order_into(&mut self.topo);
        self.marks.clear();
        self.marks.resize(nl.id_bound(), Mark::default());
        let pi_index = &mut self.pi_index;
        pi_index.resize(nl.id_bound(), 0);
        for (i, &g) in nl.inputs().iter().enumerate() {
            pi_index[g.0 as usize] = i as u32;
        }
        let mut cuts = 0usize;
        encode(
            &mut self.builder,
            nl,
            &self.topo,
            scope,
            &mut self.orig,
            |builder, g| match scope {
                None => builder.pi(pi_index[g.0 as usize] as usize),
                Some(_) => {
                    cuts += 1;
                    builder.pi(cuts - 1)
                }
            },
        );
        self.base_len = self.builder.len();
        self.num_vars = scope.map_or(nl.inputs().len(), |_| cuts);
        self.key = Some(key);
    }

    /// Exact permissibility check for `sub` on `nl` (the paper's
    /// `check_candidate`), reusing the cached base circuit while the
    /// netlist and scope are unchanged.
    ///
    /// With `scope: None` the miter duplicates the rewired sinks' whole
    /// transitive fanout and observes differences at the primary
    /// outputs; a counterexample is a primary-input vector, reported as
    /// [`CheckOutcome::NotPermissible`].
    ///
    /// With `scope: Some(mask)` (dense, indexed by `GateId.0`; typically
    /// a window's core + halo + boundary from `powder_netlist::window`)
    /// the miter is cut at the scope. Signals crossing *into* it are free
    /// cut variables, and a difference escaping *out of* it counts as
    /// observed: at the stem when a rewired sink lies outside, and at
    /// every duplicated gate feeding logic outside. Both cuts
    /// over-approximate — the input side admits value combinations no
    /// real primary-input vector produces, the output side assumes
    /// downstream logic never masks a difference — so `Permissible` is
    /// sound, while a satisfying assignment may be spurious. It lives in
    /// cut-variable space and must not be learned as a simulation
    /// pattern, so it is reported as [`CheckOutcome::Aborted`] ("not
    /// proven"). The payoff is solver work bounded by the window, not
    /// the netlist.
    #[must_use]
    pub fn check(
        &mut self,
        nl: &Netlist,
        sub: &Substitution,
        backtrack_limit: usize,
        scope: Option<&[bool]>,
    ) -> CheckOutcome {
        if !sub.is_structurally_valid(nl) {
            return CheckOutcome::NotPermissible(vec![false; nl.inputs().len()]);
        }
        self.refresh(nl, scope);
        let outcome = self.decide(nl, sub, backtrack_limit, scope);
        for g in self.touched.drain(..) {
            self.marks[g.0 as usize] = Mark::default();
        }
        outcome
    }

    /// Builds the miter of `sub` on the refreshed base and decides it.
    fn decide(
        &mut self,
        nl: &Netlist,
        sub: &Substitution,
        backtrack_limit: usize,
        scope: Option<&[bool]>,
    ) -> CheckOutcome {
        let stem = sub.substituted_stem(nl);
        let (b, c) = sub.sources();
        let orig = &mut self.orig;
        // The generator only proposes in-scope stems and sources; anything
        // else cannot be expressed in a scoped base, so refuse to judge.
        if orig.node(stem).is_none()
            || orig.node(b).is_none()
            || c.is_some_and(|c| orig.node(c).is_none())
        {
            return CheckOutcome::Aborted;
        }
        let builder = &mut self.builder;
        let marks = &mut self.marks;
        let touched = &mut self.touched;

        // The substituting node.
        let new_src = match *sub {
            Substitution::Os2 { invert, .. } | Substitution::Is2 { invert, .. } => {
                if invert {
                    builder.not(orig.at(b))
                } else {
                    orig.at(b)
                }
            }
            Substitution::Os3 { cell, .. } | Substitution::Is3 { cell, .. } => {
                let func = orig.func(builder, nl, cell);
                builder.gate(func, &[orig.at(b), orig.at(c.expect("3-sub has c"))])
            }
        };

        // The affected region, duplicated with the rewiring applied: the
        // rewired sinks' fanout closure inside the scope.
        let mut sink_outside = false;
        for (sink, pin) in sub.rewired_branches(nl) {
            touch(marks, touched, sink).rewired |= 1 << pin;
            sink_outside |= !in_scope(scope, sink);
        }
        let frontier = &mut self.frontier;
        frontier.clear();
        frontier.extend(touched.iter().copied().filter(|&g| in_scope(scope, g)));
        for &g in frontier.iter() {
            marks[g.0 as usize].region = true;
        }
        while let Some(g) = frontier.pop() {
            for conn in nl.fanouts(g) {
                if in_scope(scope, conn.gate) && !marks[conn.gate.0 as usize].region {
                    touch(marks, touched, conn.gate).region = true;
                    frontier.push(conn.gate);
                }
            }
        }
        // Differences tagged with the gate that observes them; folded in
        // sorted gate-id order so the miter's shape does not depend on
        // the netlist's current (edit-history-sensitive) topological
        // ordering.
        let diffs = &mut self.diffs;
        diffs.clear();
        // A rewired branch whose sink lies outside the scope cannot be
        // duplicated; it is only safe if old and new stem values agree.
        if sink_outside {
            diffs.push((stem, builder.xor2(orig.at(stem), new_src)));
        }
        // A fanin's node in the rewired circuit.
        let current = |marks: &[Mark], orig: &Encoding, f: GateId| match marks[f.0 as usize].dup {
            NONE => orig.at(f),
            dup => dup,
        };
        for &g in &self.topo {
            let mark = marks[g.0 as usize];
            if !mark.region {
                continue;
            }
            match nl.kind(g) {
                GateKind::Input | GateKind::Const(_) => {}
                GateKind::Output => {
                    let src = nl.fanins(g)[0];
                    let new_node = if mark.rewired & 1 == 1 {
                        new_src
                    } else {
                        current(marks, orig, src)
                    };
                    let old_node = orig.at(src);
                    if new_node != old_node {
                        diffs.push((g, builder.xor2(old_node, new_node)));
                    }
                }
                GateKind::Cell(cid) => {
                    let func = orig.func(builder, nl, cid);
                    self.fanins.clear();
                    for (pin, &f) in nl.fanins(g).iter().enumerate() {
                        self.fanins.push(if (mark.rewired >> pin) & 1 == 1 {
                            new_src
                        } else {
                            current(marks, orig, f)
                        });
                    }
                    let node = builder.gate(func, &self.fanins);
                    marks[g.0 as usize].dup = node;
                    if scope.is_some() && nl.fanouts(g).iter().any(|c| !in_scope(scope, c.gate)) {
                        // This changed signal feeds logic outside the
                        // scope: observe the difference right here.
                        diffs.push((g, builder.xor2(orig.at(g), node)));
                    }
                }
            }
        }

        if diffs.is_empty() {
            // No observation point can see the change.
            return CheckOutcome::Permissible;
        }
        diffs.sort_unstable_by_key(|&(g, _)| g);
        let mut acc = diffs[0].1;
        for &(_, d) in &diffs[1..] {
            acc = builder.or2(acc, d);
        }
        // Fault-activation conjunct: an observation point can only differ
        // when the substituted signal and its replacement differ.
        let activation = builder.xor2(orig.at(stem), new_src);
        // First try to refute the activation alone: if the substituting
        // signal is functionally *equivalent* to the substituted one, the
        // substitution is permissible outright, and the activation cone is
        // typically far smaller than the full miter (it skips the
        // transitive fanout entirely). This is the workhorse for
        // redundancy-removal merges of duplicated logic.
        if builder.solve(self.num_vars, activation, backtrack_limit) == SatOutcome::Unsat {
            return CheckOutcome::Permissible;
        }
        // Otherwise decide the real question: can a difference reach an
        // observation point? The activation conjunct stays as an early
        // conflict detector and backtrace guide.
        let top = builder.and2(activation, acc);
        match builder.solve(self.num_vars, top, backtrack_limit) {
            SatOutcome::Unsat => CheckOutcome::Permissible,
            SatOutcome::Sat(witness) if scope.is_none() => CheckOutcome::NotPermissible(witness),
            // Spurious under the cut over-approximation: not a real
            // counterexample, so never learned — just "not proven".
            SatOutcome::Sat(_) | SatOutcome::Aborted => CheckOutcome::Aborted,
        }
    }
}

/// Exact permissibility check for `sub` on `nl` (the paper's
/// `check_candidate`): builds a cone-local miter between the original and
/// rewired transitive fanout and runs the PODEM solver with the given
/// backtrack budget. One-shot convenience over [`CheckArena::check`]
/// without a scope; callers checking many candidates against the same
/// netlist should hold an arena to amortize the base-circuit
/// construction.
#[must_use]
pub fn check_substitution(
    nl: &Netlist,
    sub: &Substitution,
    backtrack_limit: usize,
) -> CheckOutcome {
    CheckArena::new().check(nl, sub, backtrack_limit, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    /// f = (a&b) | (a&!b) == a. OS2(g3, a) is permissible.
    fn redundant_or() -> (Netlist, GateId, GateId, GateId, GateId, GateId) {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let andn2 = lib.find_by_name("andn2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", andn2, &[a, b]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        nl.add_output("f", g3);
        (nl, a, b, g1, g2, g3)
    }

    #[test]
    fn os2_permissible_on_redundant_logic() {
        let (nl, a, _b, _g1, _g2, g3) = redundant_or();
        let sub = Substitution::Os2 {
            a: g3,
            b: a,
            invert: false,
        };
        assert_eq!(
            check_substitution(&nl, &sub, 1000),
            CheckOutcome::Permissible
        );
    }

    #[test]
    fn os2_not_permissible_when_functions_differ() {
        let (nl, _a, b, _g1, _g2, g3) = redundant_or();
        let sub = Substitution::Os2 {
            a: g3,
            b,
            invert: false,
        };
        match check_substitution(&nl, &sub, 1000) {
            CheckOutcome::NotPermissible(w) => {
                // witness: f = a but substituted by b: differ when a != b.
                assert_ne!(w[0], w[1], "witness must distinguish: {w:?}");
            }
            other => panic!("expected NotPermissible, got {other:?}"),
        }
    }

    #[test]
    fn os2_inverted_permissible() {
        // f = !a via inv; substituting the inverter's stem by a with
        // invert=true is permissible.
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let nand2 = lib.find_by_name("nand2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", nand2, &[a, b]);
        let g2 = nl.add_cell("g2", inv, &[g1]); // g2 = a & b
        nl.add_output("f", g2);
        // build equivalent and2 elsewhere? Instead substitute g1 (nand) by
        // inverted g2? That's cyclic. Use: substitute g2's stem by !g1:
        let sub = Substitution::Os2 {
            a: g2,
            b: g1,
            invert: true,
        };
        assert_eq!(
            check_substitution(&nl, &sub, 1000),
            CheckOutcome::Permissible
        );
    }

    /// The paper's Figure 2: f = (a ^ c) & b; rewiring the XOR's `a` input
    /// branch to e = a&b is permissible (the difference is masked by b=0).
    #[test]
    fn figure2_is3_style_rewiring_permissible() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("fig2", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        nl.add_output("fo", f);
        // IS3: branch a→d.pin0 substituted by new AND(a, b).
        let sub = Substitution::Is3 {
            sink: d,
            pin: 0,
            cell: and2,
            b: a,
            c: b,
        };
        assert_eq!(
            check_substitution(&nl, &sub, 1000),
            CheckOutcome::Permissible
        );
        // Rewiring branch c→d.pin1 to a·b is NOT permissible: with b=1,
        // a=0, c=1 the original f is 1 but the rewired circuit gives 0.
        let sub_bad = Substitution::Is3 {
            sink: d,
            pin: 1,
            cell: and2,
            b: a,
            c: b,
        };
        assert!(matches!(
            check_substitution(&nl, &sub_bad, 1000),
            CheckOutcome::NotPermissible(_)
        ));
    }

    #[test]
    fn is2_not_permissible_flags_witness() {
        let (nl, a, b, g1, _g2, _g3) = redundant_or();
        // g1 = a&b; rewire its pin0 (a) to b: g1 becomes b&b = b; then
        // f = b | (a&!b) = a|b != a.
        let sub = Substitution::Is2 {
            sink: g1,
            pin: 0,
            b,
            invert: false,
        };
        match check_substitution(&nl, &sub, 1000) {
            CheckOutcome::NotPermissible(w) => {
                // a|b differs from a iff a=0, b=1.
                assert!(!w[0] && w[1], "{w:?}");
            }
            other => panic!("expected NotPermissible, got {other:?}"),
        }
        let _ = (a, g1);
    }

    #[test]
    fn structural_validity_rejects_cycles() {
        let (nl, _a, _b, g1, _g2, g3) = redundant_or();
        // substituting g1 by g3 would make g3 its own ancestor.
        let sub = Substitution::Os2 {
            a: g1,
            b: g3,
            invert: false,
        };
        assert!(!sub.is_structurally_valid(&nl));
        assert!(matches!(
            check_substitution(&nl, &sub, 1000),
            CheckOutcome::NotPermissible(_)
        ));
    }

    #[test]
    fn os3_permissible_rebuild_of_stem() {
        // f = a & b. OS3(f_gate, and2(a, b)) — replacing the gate by an
        // identical new gate — is trivially permissible.
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_cell("g", and2, &[a, b]);
        nl.add_output("f", g);
        let sub = Substitution::Os3 {
            a: g,
            cell: and2,
            b: a,
            c: b,
        };
        assert_eq!(
            check_substitution(&nl, &sub, 1000),
            CheckOutcome::Permissible
        );
    }

    #[test]
    fn substituted_stem_resolution() {
        let (nl, a, _b, g1, _g2, g3) = redundant_or();
        let os2 = Substitution::Os2 {
            a: g3,
            b: a,
            invert: false,
        };
        assert_eq!(os2.substituted_stem(&nl), g3);
        let is2 = Substitution::Is2 {
            sink: g3,
            pin: 0,
            b: a,
            invert: false,
        };
        assert_eq!(is2.substituted_stem(&nl), g1);
    }
}
