//! PODEM-style branch-and-bound circuit satisfiability over a miter.
//!
//! The solver decides whether any assignment of the miter's variables
//! (primary inputs, or a scoped miter's cut variables) drives its output
//! to 1. Cones of at most [`EXHAUSTIVE_SUPPORT_LIMIT`] variables are
//! decided by chunked bit-parallel enumeration; larger ones branch only
//! on those variables (the classic PODEM search space) with three-valued
//! forward implication after every decision. [`SatBuilder::solve`] is
//! its only entry point.
//!
//! The node table is packed: a node is `Copy`, a gate names an interned
//! function and a range of one flat fanin array, and each distinct
//! function is interned once per builder, keyed by its content. An
//! interned function carries both what the exhaustive path evaluates (a
//! cube cover, or a direct operation for the two-input glue) and what
//! PODEM reads (its packed truth table and the inputs through which a
//! backtrace objective flips). The solver's buffers live in the builder
//! and are reused across solves.

use powder_logic::{Cube, TruthTable};
use std::collections::HashMap;

#[cfg(test)]
pub(crate) mod reference;

/// Index of a node within a [`SatBuilder`]'s node table.
pub(crate) type NodeId = u32;

/// Index of an interned function within a [`SatBuilder`].
pub(crate) type FuncId = u32;

/// A node of the satisfiability circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Node {
    /// Solver variable `index`: a primary input's position in the
    /// netlist's input list, or a cut variable of a scoped miter.
    Pi(u32),
    /// Constant.
    Const(bool),
    /// A combinational node: interned function `func` over the fanins
    /// `fanins[start..start + len]`, in function-variable order.
    Gate {
        /// The interned function.
        func: FuncId,
        /// First fanin in the builder's flat fanin array.
        start: u32,
        /// Number of fanins (the function's input count).
        len: u32,
    },
}

/// Result of a satisfiability run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SatOutcome {
    /// A variable assignment driving the miter output to 1 (indexed by
    /// variable; variables outside the cone are `false`).
    Sat(Vec<bool>),
    /// Proven: no assignment sets the output.
    Unsat,
    /// The backtrack limit was exhausted before a proof was found.
    Aborted,
}

/// Three-valued signal value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Val {
    Zero,
    One,
    X,
}

/// Minterms of a 6-variable word where variable `i` is 1.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// The minterms of a `vars`-input function (≤ 6) within one word.
fn used_mask(vars: usize) -> u64 {
    if vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << vars)) - 1
    }
}

/// Word-parallel evaluator of an interned function.
#[derive(Clone, Copy, Debug)]
enum Eval {
    Xor2,
    Or2,
    And2,
    Not,
    /// OR of the cubes `cubes[start..start + len]`.
    Cover {
        start: u32,
        len: u32,
    },
}

/// An interned function.
#[derive(Clone, Debug)]
struct Func {
    /// The function itself: the interning key of a function wider than
    /// six inputs, and PODEM's general path for it.
    function: TruthTable,
    /// Packed truth table of a function of at most six inputs (bit `m`
    /// is its value on minterm `m`; bits past `2^vars` are zero).
    table: u64,
    /// Inputs through which a backtrace objective flips: negative-unate
    /// and not positive-unate.
    flip: u64,
    eval: Eval,
}

impl Func {
    fn vars(&self) -> usize {
        self.function.vars()
    }
}

/// Irredundant sum of products of any function between `on` and `upper`
/// (Minato–Morreale) over variables `0..vars` of a 6-variable word,
/// appended to `cubes`; returns the function the cover computes.
fn isop(on: u64, upper: u64, vars: usize, cubes: &mut Vec<Cube>) -> u64 {
    if on == 0 {
        return 0;
    }
    if upper == u64::MAX {
        cubes.push(Cube::universe());
        return u64::MAX;
    }
    let depends = |f: u64, v: usize| {
        let (m, s) = (VAR_MASKS[v], 1 << v);
        ((f & m) >> s) != (f & !m)
    };
    let v = (0..vars)
        .rev()
        .find(|&v| depends(on, v) || depends(upper, v))
        .expect("on ⊆ upper, on ≠ 0 and upper ≠ 1: some variable matters");
    let (m, s) = (VAR_MASKS[v], 1 << v);
    let cof0 = |f: u64| (f & !m) | ((f & !m) << s);
    let cof1 = |f: u64| (f & m) | ((f & m) >> s);
    let (on0, on1, up0, up1) = (cof0(on), cof1(on), cof0(upper), cof1(upper));
    let start = cubes.len();
    let f0 = isop(on0 & !up1, up0, v, cubes);
    let mid = cubes.len();
    let f1 = isop(on1 & !up0, up1, v, cubes);
    for (i, cube) in cubes[start..].iter_mut().enumerate() {
        let (pos, neg) = (cube.pos(), cube.neg());
        *cube = if start + i < mid {
            Cube::new(pos, neg | 1 << v)
        } else {
            Cube::new(pos | 1 << v, neg)
        };
    }
    let fs = isop((on0 & !f0) | (on1 & !f1), up0 & up1, v, cubes);
    (f0 & !m) | (f1 & m) | fs
}

/// Exhaustive-path scratch budget, in 64-bit words: the per-node columns
/// of one chunk (cone nodes × chunk words) fit in it whenever the cone
/// has at most this many nodes (64 KiB).
const EXHAUSTIVE_SCRATCH_WORDS: usize = 8192;

/// Cones whose support is at most this many primary inputs are decided by
/// exhaustive bit-parallel evaluation instead of branch-and-bound — a
/// complete decision procedure that never aborts, and the only efficient
/// one for the XOR-dominated miters of parity/ECC logic (branch-and-bound
/// without clause learning is exponential on those).
const EXHAUSTIVE_SUPPORT_LIMIT: usize = 18;

/// `slot` value of a node outside the current cone.
const UNMARKED: u32 = u32::MAX;

/// Buffers of one solve, kept by the builder across solves.
#[derive(Debug, Default)]
struct Scratch {
    /// Per node: its position in `order` while it is in the cone being
    /// solved, else [`UNMARKED`].
    slot: Vec<u32>,
    /// The cone in topological (DFS post-) order; the output is last.
    order: Vec<NodeId>,
    /// The cone's variables, in DFS discovery order (pattern bit `i` is
    /// `pis[i]`).
    pis: Vec<NodeId>,
    stack: Vec<(NodeId, u32)>,
    /// Exhaustive path: the compiled cone, one step per node of `order`.
    steps: Vec<Step>,
    /// Exhaustive path: the literals of the compiled covers, as
    /// `(fanin column offset, complement mask)`.
    lits: Vec<(u32, u64)>,
    /// Exhaustive path: the compiled cubes, as ranges of `lits`.
    cubes: Vec<(u32, u32)>,
    /// Exhaustive path: one column of `chunk` words per cone node.
    cols: Vec<u64>,
    /// PODEM: three-valued value per node (meaningful in the cone).
    vals: Vec<Val>,
    /// PODEM: the decided value of each variable node, else `X`.
    assign: Vec<Val>,
    /// PODEM: the decision stack, `(variable node, value, tried_other)`.
    decisions: Vec<(NodeId, bool, bool)>,
}

/// One node of a cone compiled for the exhaustive path: how its column
/// is computed from the columns at the given offsets.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Pattern bit `p` (the cone's `p`-th variable).
    Var(u32),
    Const(u64),
    Xor2(u32, u32),
    Or2(u32, u32),
    And2(u32, u32),
    Not(u32),
    /// OR of the compiled cubes in this range.
    Cover(u32, u32),
}

/// Borrowed view of a builder's node and function tables.
#[derive(Clone, Copy)]
struct Circuit<'a> {
    nodes: &'a [Node],
    fanins: &'a [NodeId],
    funcs: &'a [Func],
    cubes: &'a [Cube],
}

impl Circuit<'_> {
    fn fanins(&self, start: u32, len: u32) -> &[NodeId] {
        &self.fanins[start as usize..(start + len) as usize]
    }
}

impl Scratch {
    /// Collects the cone of influence of `output` into `order` and
    /// `pis`, and numbers its nodes in `slot`.
    fn cone(&mut self, circuit: Circuit<'_>, output: NodeId) {
        if self.slot.len() < circuit.nodes.len() {
            self.slot.resize(circuit.nodes.len(), UNMARKED);
        }
        self.order.clear();
        self.pis.clear();
        // Iterative DFS post-order; a node is marked when pushed.
        self.stack.clear();
        self.stack.push((output, 0));
        self.slot[output as usize] = 0;
        while let Some((id, child)) = self.stack.pop() {
            match circuit.nodes[id as usize] {
                Node::Pi(_) => {
                    self.pis.push(id);
                    self.order.push(id);
                }
                Node::Const(_) => self.order.push(id),
                Node::Gate { start, len, .. } => {
                    if child < len {
                        self.stack.push((id, child + 1));
                        let f = circuit.fanins[(start + child) as usize];
                        if self.slot[f as usize] == UNMARKED {
                            self.slot[f as usize] = 0;
                            self.stack.push((f, 0));
                        }
                    } else {
                        self.order.push(id);
                    }
                }
            }
        }
        for (i, &id) in self.order.iter().enumerate() {
            self.slot[id as usize] = i as u32;
        }
    }

    /// Unmarks the cone.
    fn release(&mut self) {
        for &id in &self.order {
            self.slot[id as usize] = UNMARKED;
        }
    }

    /// Complete decision by 64-way-parallel exhaustive simulation of the
    /// cone over all `2^k` assignments of its `k` support variables,
    /// `chunk` pattern words at a time: each cone node holds one column
    /// of `chunk` words, so the scratch stays within
    /// [`EXHAUSTIVE_SCRATCH_WORDS`] on cones of up to that many nodes.
    /// The cone is first compiled into [`Step`]s over column offsets;
    /// the first chunk whose output column is nonzero ends the search,
    /// and its lowest set bit is the lowest satisfying pattern.
    fn exhaustive(&mut self, circuit: Circuit<'_>, num_vars: usize) -> SatOutcome {
        let k = self.pis.len();
        let words = (1usize << k).div_ceil(64);
        let n = self.order.len();
        let chunk = (EXHAUSTIVE_SCRATCH_WORDS / n).clamp(1, words);
        self.compile(circuit, chunk);
        let Scratch {
            pis,
            steps,
            lits,
            cubes,
            cols,
            ..
        } = self;
        cols.clear();
        cols.reserve_exact(n * chunk);
        cols.resize(n * chunk, 0);
        // Mask off padding patterns beyond 2^k when k < 6.
        let valid = used_mask(k);
        for w0 in (0..words).step_by(chunk) {
            let cw = chunk.min(words - w0);
            for (i, step) in steps.iter().enumerate() {
                let (done, rest) = cols.split_at_mut(i * chunk);
                let out = &mut rest[..cw];
                let col = |at: u32| &done[at as usize..at as usize + cw];
                match *step {
                    // A repeating pattern within a word.
                    Step::Var(p) if p < 6 => out.fill(VAR_MASKS[p as usize]),
                    Step::Var(p) => {
                        for (w, o) in (w0..).zip(out.iter_mut()) {
                            *o = if (w >> (p - 6)) & 1 == 1 { u64::MAX } else { 0 };
                        }
                    }
                    Step::Const(v) => out.fill(v),
                    Step::Xor2(a, b) => zip2(out, col(a), col(b), |a, b| a ^ b),
                    Step::Or2(a, b) => zip2(out, col(a), col(b), |a, b| a | b),
                    Step::And2(a, b) => zip2(out, col(a), col(b), |a, b| a & b),
                    Step::Not(a) => {
                        for (o, &a) in out.iter_mut().zip(col(a)) {
                            *o = !a;
                        }
                    }
                    Step::Cover(from, to) => {
                        out.fill(0);
                        for &(l0, l1) in &cubes[from as usize..to as usize] {
                            let cube = &lits[l0 as usize..l1 as usize];
                            let Some((&(first, flip), rest)) = cube.split_first() else {
                                // The universal cube.
                                out.fill(u64::MAX);
                                break;
                            };
                            // AND the cube's literals pairwise into the
                            // running OR, without a product buffer.
                            match rest {
                                [] => {
                                    for (o, &a) in out.iter_mut().zip(col(first)) {
                                        *o |= a ^ flip;
                                    }
                                }
                                [(second, flip2), more @ ..] => {
                                    let (a, b) = (col(first), col(*second));
                                    for (j, o) in out.iter_mut().enumerate() {
                                        let mut t = (a[j] ^ flip) & (b[j] ^ flip2);
                                        for &(at, f) in more {
                                            t &= done[at as usize + j] ^ f;
                                        }
                                        *o |= t;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let out = &cols[(n - 1) * chunk..(n - 1) * chunk + cw];
            for (w, &word) in (w0..).zip(out) {
                let word = if w == 0 { word & valid } else { word };
                if word != 0 {
                    let pattern = w * 64 + word.trailing_zeros() as usize;
                    let mut assignment = vec![false; num_vars];
                    for (i, &id) in pis.iter().enumerate() {
                        if let Node::Pi(idx) = circuit.nodes[id as usize] {
                            assignment[idx as usize] = (pattern >> i) & 1 == 1;
                        }
                    }
                    return SatOutcome::Sat(assignment);
                }
            }
        }
        SatOutcome::Unsat
    }

    /// Compiles the cone into `steps`: one per node of `order`, reading
    /// its fanins' columns at their offsets in a `chunk`-word layout.
    fn compile(&mut self, circuit: Circuit<'_>, chunk: usize) {
        self.steps.clear();
        self.lits.clear();
        self.cubes.clear();
        let mut var = 0u32;
        for &id in &self.order {
            let step = match circuit.nodes[id as usize] {
                Node::Pi(_) => {
                    var += 1;
                    Step::Var(var - 1)
                }
                Node::Const(v) => Step::Const(if v { u64::MAX } else { 0 }),
                Node::Gate { func, start, len } => {
                    let fanins = circuit.fanins(start, len);
                    let col = |j: usize| self.slot[fanins[j] as usize] * chunk as u32;
                    match circuit.funcs[func as usize].eval {
                        Eval::Xor2 => Step::Xor2(col(0), col(1)),
                        Eval::Or2 => Step::Or2(col(0), col(1)),
                        Eval::And2 => Step::And2(col(0), col(1)),
                        Eval::Not => Step::Not(col(0)),
                        Eval::Cover { start, len } => {
                            let from = self.cubes.len() as u32;
                            for cube in &circuit.cubes[start as usize..(start + len) as usize] {
                                let l0 = self.lits.len() as u32;
                                let mut vars = cube.pos() | cube.neg();
                                while vars != 0 {
                                    let v = vars.trailing_zeros() as usize;
                                    vars &= vars - 1;
                                    let flip = if (cube.pos() >> v) & 1 == 1 {
                                        0
                                    } else {
                                        u64::MAX
                                    };
                                    self.lits.push((col(v), flip));
                                }
                                self.cubes.push((l0, self.lits.len() as u32));
                            }
                            Step::Cover(from, self.cubes.len() as u32)
                        }
                    }
                }
            };
            self.steps.push(step);
        }
    }

    /// Forward three-valued implication over the cone under the current
    /// variable assignment.
    fn implicate(&mut self, circuit: Circuit<'_>) {
        for &id in &self.order {
            let v = match circuit.nodes[id as usize] {
                Node::Pi(_) => self.assign[id as usize],
                Node::Const(b) => {
                    if b {
                        Val::One
                    } else {
                        Val::Zero
                    }
                }
                Node::Gate { func, start, len } => eval3(
                    &circuit.funcs[func as usize],
                    circuit.fanins(start, len),
                    &self.vals,
                ),
            };
            self.vals[id as usize] = v;
        }
    }

    /// Walks from `(start, want)` through X-valued gates to an unassigned
    /// variable, propagating the objective value through input
    /// unateness.
    fn backtrace(&self, circuit: Circuit<'_>, start: NodeId, want: bool) -> (NodeId, bool) {
        let mut node = start;
        let mut value = want;
        loop {
            match circuit.nodes[node as usize] {
                Node::Pi(_) => return (node, value),
                Node::Const(_) => unreachable!("constants are never X"),
                Node::Gate { func, start, len } => {
                    // Pick the first X-valued fanin (fanin 0 bias
                    // deliberately steers into the activation cone, which
                    // the miter builder places first).
                    let (i, &next) = circuit
                        .fanins(start, len)
                        .iter()
                        .enumerate()
                        .find(|(_, &f)| self.vals[f as usize] == Val::X)
                        .expect("an X gate has an X fanin");
                    // A negative-unate input flips the objective.
                    if (circuit.funcs[func as usize].flip >> i) & 1 == 1 {
                        value = !value;
                    }
                    node = next;
                }
            }
        }
    }

    /// Undoes decisions after a conflict until one can take its other
    /// value, spending one unit of `budget` per popped decision. Returns
    /// the verdict when the search ends instead: `Unsat` once every
    /// decision is exhausted, `Aborted` once the budget is.
    fn backtrack(&mut self, budget: &mut usize) -> Option<SatOutcome> {
        loop {
            let Some((node, val, tried_other)) = self.decisions.pop() else {
                return Some(SatOutcome::Unsat);
            };
            if *budget == 0 {
                return Some(SatOutcome::Aborted);
            }
            *budget -= 1;
            if !tried_other {
                self.decisions.push((node, !val, true));
                self.assign[node as usize] = if val { Val::Zero } else { Val::One };
                return None;
            }
            self.assign[node as usize] = Val::X;
        }
    }

    /// PODEM branch-and-bound over the cone's variables.
    fn podem(&mut self, circuit: Circuit<'_>, num_vars: usize, limit: usize) -> SatOutcome {
        let n = circuit.nodes.len();
        if self.vals.len() < n {
            self.vals.resize(n, Val::X);
            self.assign.resize(n, Val::X);
        }
        let output = *self.order.last().expect("the cone holds its output") as usize;
        self.decisions.clear();
        let mut budget = limit;
        let outcome = loop {
            self.implicate(circuit);
            match self.vals[output] {
                Val::One => {
                    let mut out = vec![false; num_vars];
                    for &id in &self.pis {
                        if let Node::Pi(idx) = circuit.nodes[id as usize] {
                            out[idx as usize] = self.assign[id as usize] == Val::One;
                        }
                    }
                    break SatOutcome::Sat(out);
                }
                Val::Zero => {
                    if let Some(verdict) = self.backtrack(&mut budget) {
                        break verdict;
                    }
                }
                Val::X => {
                    // Objective-guided PODEM backtrace: from (output, 1),
                    // walk through X-valued gates toward a variable,
                    // flipping the desired value through negative-unate
                    // inputs.
                    let (node, value) = self.backtrace(circuit, output as NodeId, true);
                    debug_assert_eq!(self.assign[node as usize], Val::X);
                    self.decisions.push((node, value, false));
                    self.assign[node as usize] = if value { Val::One } else { Val::Zero };
                }
            }
        };
        for &id in &self.pis {
            self.assign[id as usize] = Val::X;
        }
        outcome
    }
}

/// `out[w] = op(a[w], b[w])` over a chunk.
fn zip2(out: &mut [u64], a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = op(x, y);
    }
}

/// Three-valued evaluation of `func` over the values of `fanins`.
fn eval3(func: &Func, fanins: &[NodeId], vals: &[Val]) -> Val {
    let k = func.vars();
    if k <= 6 {
        // The minterms consistent with the known inputs: the value is
        // determined when the function is constant on them.
        let mut care = used_mask(k);
        for (&f, &mask) in fanins.iter().zip(&VAR_MASKS) {
            match vals[f as usize] {
                Val::One => care &= mask,
                Val::Zero => care &= !mask,
                Val::X => {}
            }
        }
        let on = func.table & care;
        return if on == 0 {
            Val::Zero
        } else if on == care {
            Val::One
        } else {
            Val::X
        };
    }
    // General path: enumerate the completions of the X inputs; if all
    // agree, the value is determined.
    let (mut base, mut free) = (0u64, 0u64);
    for (i, &f) in fanins.iter().enumerate() {
        match vals[f as usize] {
            Val::One => base |= 1 << i,
            Val::X => free |= 1 << i,
            Val::Zero => {}
        }
    }
    let (mut saw0, mut saw1) = (false, false);
    let mut completion = 0u64;
    loop {
        if func.function.eval(base | completion) {
            saw1 = true;
        } else {
            saw0 = true;
        }
        if saw0 && saw1 {
            return Val::X;
        }
        completion = completion.wrapping_sub(free) & free;
        if completion == 0 {
            return if saw1 { Val::One } else { Val::Zero };
        }
    }
}

/// The inputs of a function of at most six inputs through which a
/// backtrace objective flips: negative-unate, not positive-unate.
fn narrow_flips(table: u64, vars: usize) -> u64 {
    let used = used_mask(vars);
    let mut flip = 0;
    for (i, &m) in VAR_MASKS.iter().enumerate().take(vars) {
        // Both cofactors, aligned on the minterms where input i is 0.
        let valid = !m & used;
        let cof0 = table & valid;
        let cof1 = (table & m) >> (1 << i);
        let pos_unate = (cof0 & !cof1 & valid) == 0;
        let neg_unate = (cof1 & !cof0 & valid) == 0;
        if neg_unate && !pos_unate {
            flip |= 1 << i;
        }
    }
    flip
}

/// [`narrow_flips`] for a function wider than six inputs.
fn wide_flips(function: &TruthTable) -> u64 {
    let mut flip = 0;
    for i in 0..function.vars() {
        let cof0 = function.cofactor(i, false);
        let cof1 = function.cofactor(i, true);
        let pos_unate = (&cof0 & &!cof1.clone()).is_zero(); // cof0 ≤ cof1
        let neg_unate = (&cof1 & &!cof0.clone()).is_zero(); // cof1 ≤ cof0
        if neg_unate && !pos_unate {
            flip |= 1 << i;
        }
    }
    flip
}

/// The two-input glue every builder interns first, in this order.
const XOR2: FuncId = 0;
const OR2: FuncId = 1;
const AND2: FuncId = 2;
const NOT: FuncId = 3;

/// Node table of a miter, built by `check.rs` and `equiv.rs` and
/// decided in place by [`Self::solve`], the solver's only entry point.
#[derive(Debug)]
pub(crate) struct SatBuilder {
    nodes: Vec<Node>,
    fanins: Vec<NodeId>,
    funcs: Vec<Func>,
    cubes: Vec<Cube>,
    /// Interned functions of at most six inputs, by `(inputs, table)`.
    narrow: HashMap<(usize, u64), FuncId>,
    scratch: Scratch,
}

impl Default for SatBuilder {
    fn default() -> Self {
        let mut builder = SatBuilder {
            nodes: Vec::new(),
            fanins: Vec::new(),
            funcs: Vec::new(),
            cubes: Vec::new(),
            narrow: HashMap::new(),
            scratch: Scratch::default(),
        };
        for (vars, table, eval) in [
            (2, 0b0110, Eval::Xor2),
            (2, 0b1110, Eval::Or2),
            (2, 0b1000, Eval::And2),
            (1, 0b01, Eval::Not),
        ] {
            let function = TruthTable::from_fn(vars, |m| (table >> m) & 1 == 1);
            builder.add_func(function, Some(eval));
        }
        builder
    }
}

impl SatBuilder {
    pub(crate) fn pi(&mut self, index: usize) -> NodeId {
        self.push(Node::Pi(index as u32))
    }
    pub(crate) fn constant(&mut self, value: bool) -> NodeId {
        self.push(Node::Const(value))
    }
    /// The id of `function`, interning it on first sight. Equal
    /// functions share one id whatever library or cell they come from.
    pub(crate) fn intern(&mut self, function: &TruthTable) -> FuncId {
        let vars = function.vars();
        if vars <= 6 {
            let table = function.as_words()[0] & used_mask(vars);
            if let Some(&id) = self.narrow.get(&(vars, table)) {
                return id;
            }
        } else if let Some(id) = self.funcs.iter().position(|f| f.function == *function) {
            return id as FuncId;
        }
        self.add_func(function.clone(), None)
    }
    /// Interns a new function, evaluated by `eval` or else by a cube
    /// cover: irredundant for at most six inputs, one cube per minterm
    /// beyond.
    fn add_func(&mut self, function: TruthTable, eval: Option<Eval>) -> FuncId {
        let id = self.funcs.len() as FuncId;
        let vars = function.vars();
        let (table, flip) = if vars <= 6 {
            let table = function.as_words()[0] & used_mask(vars);
            self.narrow.insert((vars, table), id);
            (table, narrow_flips(table, vars))
        } else {
            (0, wide_flips(&function))
        };
        let eval = eval.unwrap_or_else(|| {
            let start = self.cubes.len();
            if vars <= 6 {
                // The table over all six word variables.
                let mut full = table;
                for v in vars..6 {
                    full |= full << (1 << v);
                }
                isop(full, full, vars, &mut self.cubes);
            } else {
                let minterms = function.minterms().map(|m| Cube::minterm(m, vars));
                self.cubes.extend(minterms);
            }
            Eval::Cover {
                start: start as u32,
                len: (self.cubes.len() - start) as u32,
            }
        });
        self.funcs.push(Func {
            function,
            table,
            flip,
            eval,
        });
        id
    }
    /// A gate computing interned function `func` over `fanins`.
    pub(crate) fn gate(&mut self, func: FuncId, fanins: &[NodeId]) -> NodeId {
        debug_assert_eq!(self.funcs[func as usize].vars(), fanins.len());
        let start = self.fanins.len() as u32;
        self.fanins.extend_from_slice(fanins);
        self.push(Node::Gate {
            func,
            start,
            len: fanins.len() as u32,
        })
    }
    pub(crate) fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(XOR2, &[a, b])
    }
    pub(crate) fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(OR2, &[a, b])
    }
    pub(crate) fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.gate(AND2, &[a, b])
    }
    pub(crate) fn not(&mut self, a: NodeId) -> NodeId {
        self.gate(NOT, &[a])
    }
    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(node);
        id
    }
    /// Number of nodes built so far (a rollback point for [`Self::truncate`]).
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
    /// Rolls the node table back to a prior [`Self::len`] mark, discarding
    /// everything built since. The check arena uses this to reuse the
    /// netlist's base node table across queries. Interned functions stay.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
        let fanins = self.nodes.iter().rev().find_map(|node| match *node {
            Node::Gate { start, len, .. } => Some((start + len) as usize),
            _ => None,
        });
        self.fanins.truncate(fanins.unwrap_or(0));
    }
    /// Decides whether `output` can be driven to 1 by some assignment of
    /// the `num_vars` solver variables.
    ///
    /// Small-support cones are decided exhaustively (bit-parallel,
    /// complete); larger ones use PODEM-style branching on variables in
    /// cone order with three-valued implication. Every backtrack
    /// decrements `backtrack_limit`, and exhaustion yields
    /// [`SatOutcome::Aborted`].
    pub(crate) fn solve(
        &mut self,
        num_vars: usize,
        output: NodeId,
        backtrack_limit: usize,
    ) -> SatOutcome {
        let circuit = Circuit {
            nodes: &self.nodes,
            fanins: &self.fanins,
            funcs: &self.funcs,
            cubes: &self.cubes,
        };
        let scratch = &mut self.scratch;
        scratch.cone(circuit, output);
        // A constant cone (no variables) is decided by PODEM's first
        // implication.
        let outcome = if (1..=EXHAUSTIVE_SUPPORT_LIMIT).contains(&scratch.pis.len()) {
            scratch.exhaustive(circuit, num_vars)
        } else {
            scratch.podem(circuit, num_vars, backtrack_limit)
        };
        scratch.release();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{add_gate, mix, outcome_code, random_miter, MiterShape};

    fn and2() -> TruthTable {
        TruthTable::var(0, 2) & TruthTable::var(1, 2)
    }

    #[test]
    fn sat_simple_and() {
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let y = b.pi(1);
        let g = add_gate(&mut b, &and2(), &[x, y]);
        match b.solve(2, g, 100) {
            SatOutcome::Sat(a) => assert_eq!(a, vec![true, true]),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsat_contradiction() {
        // x & !x
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let nx = b.not(x);
        let g = add_gate(&mut b, &and2(), &[x, nx]);
        assert_eq!(b.solve(1, g, 100), SatOutcome::Unsat);
    }

    #[test]
    fn xor_miter_of_equivalent_functions_unsat() {
        // (x & y) XOR (y & x) — equivalent, miter unsat.
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let y = b.pi(1);
        let g1 = add_gate(&mut b, &and2(), &[x, y]);
        let g2 = add_gate(&mut b, &and2(), &[y, x]);
        let m = b.xor2(g1, g2);
        assert_eq!(b.solve(2, m, 100), SatOutcome::Unsat);
    }

    #[test]
    fn xor_miter_of_different_functions_sat() {
        // (x & y) XOR (x | y): differs when exactly one input is 1.
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let y = b.pi(1);
        let g1 = add_gate(&mut b, &and2(), &[x, y]);
        let or = TruthTable::var(0, 2) | TruthTable::var(1, 2);
        let g2 = add_gate(&mut b, &or, &[x, y]);
        let m = b.xor2(g1, g2);
        match b.solve(2, m, 100) {
            SatOutcome::Sat(a) => assert_ne!(a[0], a[1]),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn constant_cone() {
        let mut b = SatBuilder::default();
        let k = b.constant(true);
        assert!(matches!(b.solve(3, k, 10), SatOutcome::Sat(_)));
        let mut b = SatBuilder::default();
        let k = b.constant(false);
        assert_eq!(b.solve(3, k, 10), SatOutcome::Unsat);
    }

    #[test]
    fn abort_on_zero_budget() {
        // A 20-input XOR chain exceeds the exhaustive-support limit, so the
        // branch-and-bound path runs. XOR is binate: the backtrace assigns
        // all-ones first, the chain evaluates to 0, and the required
        // backtrack exceeds a zero budget.
        let n = EXHAUSTIVE_SUPPORT_LIMIT + 2;
        let mut b = SatBuilder::default();
        let pis: Vec<NodeId> = (0..n).map(|i| b.pi(i)).collect();
        let mut acc = pis[0];
        for &x in &pis[1..] {
            acc = b.xor2(acc, x);
        }
        assert_eq!(b.solve(n, acc, 0), SatOutcome::Aborted);
        match b.solve(n, acc, 100) {
            SatOutcome::Sat(a) => {
                assert_eq!(a.iter().filter(|&&v| v).count() % 2, 1, "odd parity");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn exhaustive_path_proves_parity_equivalence() {
        // Two 10-input parity trees with different association orders:
        // UNSAT miter, decided exhaustively (would blow up PODEM).
        let mut b = SatBuilder::default();
        let pis: Vec<NodeId> = (0..10).map(|i| b.pi(i)).collect();
        let mut left = pis[0];
        for &x in &pis[1..] {
            left = b.xor2(left, x);
        }
        let mut right = pis[9];
        for &x in pis[..9].iter().rev() {
            right = b.xor2(right, x);
        }
        let m = b.xor2(left, right);
        assert_eq!(b.solve(10, m, 10), SatOutcome::Unsat);
    }

    #[test]
    fn deep_parity_unsat_proof() {
        // parity(x0..x5) XOR parity(x0..x5) == 0: requires full exploration
        // pruning via implication; should be UNSAT within budget.
        let xor = TruthTable::var(0, 2) ^ TruthTable::var(1, 2);
        let mut b = SatBuilder::default();
        let pis: Vec<NodeId> = (0..6).map(|i| b.pi(i)).collect();
        let mut p1 = pis[0];
        let mut p2 = pis[0];
        for &x in &pis[1..] {
            p1 = add_gate(&mut b, &xor, &[p1, x]);
            p2 = add_gate(&mut b, &xor, &[x, p2]);
        }
        let m = b.xor2(p1, p2);
        assert_eq!(b.solve(6, m, 10_000), SatOutcome::Unsat);
    }

    #[test]
    fn three_valued_gate_eval() {
        let b = SatBuilder::default();
        let and = |x: Val, y: Val| eval3(&b.funcs[AND2 as usize], &[0, 1], &[x, y]);
        assert_eq!(and(Val::Zero, Val::X), Val::Zero, "0 AND X = 0");
        assert_eq!(and(Val::One, Val::X), Val::X);
        assert_eq!(and(Val::One, Val::One), Val::One);
    }

    /// Every interned function of 0 to 6 inputs is interned once, its
    /// cover computes its table, its flip mask matches the cofactor
    /// definition the wide path uses, and its mask-based three-valued
    /// evaluation agrees with enumerating the completions.
    #[test]
    fn interned_functions_match_their_tables() {
        let mut state = 7u64;
        let mut b = SatBuilder::default();
        for vars in 0..=6usize {
            for _ in 0..8 {
                let bits = mix(&mut state);
                let f = TruthTable::from_fn(vars, |m| (bits >> m) & 1 == 1);
                let id = b.intern(&f);
                assert_eq!(b.intern(&f), id, "{f:?} is interned once");
                let func = &b.funcs[id as usize];
                if let Eval::Cover { start, len } = func.eval {
                    let cover = &b.cubes[start as usize..(start + len) as usize];
                    for m in 0..1u64 << vars {
                        assert_eq!(cover.iter().any(|c| c.eval(m)), f.eval(m), "{f:?} at {m}");
                    }
                }
                assert_eq!(func.flip, wide_flips(&f), "{f:?}");
                let fanins: Vec<NodeId> = (0..vars as NodeId).collect();
                for code in 0..3usize.pow(vars as u32) {
                    let vals: Vec<Val> = (0..vars)
                        .map(|i| [Val::Zero, Val::One, Val::X][code / 3usize.pow(i as u32) % 3])
                        .collect();
                    let mut seen = [false; 2];
                    for m in 0..1u64 << vars {
                        let consistent = vals
                            .iter()
                            .enumerate()
                            .all(|(i, &v)| v == Val::X || (v == Val::One) == ((m >> i) & 1 == 1));
                        if consistent {
                            seen[usize::from(f.eval(m))] = true;
                        }
                    }
                    let expect = match seen {
                        [true, false] => Val::Zero,
                        [false, true] => Val::One,
                        _ => Val::X,
                    };
                    assert_eq!(eval3(func, &fanins, &vals), expect, "{f:?} on {vals:?}");
                }
            }
        }
    }

    /// Twelve seeded random miters of 19 to 24 support (one with a
    /// 7-input function), so the branch-and-bound path decides them.
    fn podem_miters() -> impl Iterator<Item = (u64, usize, SatBuilder, NodeId)> {
        (9..=20u64).map(|seed| {
            let s = seed as usize;
            let shape = MiterShape {
                support: 19 + s % 6,
                gates: 14 + (s * 5) % 14,
                max_arity: 2 + s % 2,
                wide: seed == 13,
                guard: s % 3,
                perturb: !seed.is_multiple_of(4),
            };
            let (b, out) = random_miter(seed, shape);
            (seed, shape.support, b, out)
        })
    }

    /// PODEM's decisions are pinned: every outcome, witness bits
    /// included, at backtrack limits 0, 10, 100 and 3000. A change to the
    /// implication, the backtrace or the backtrack accounting shows here.
    #[test]
    fn podem_decisions_are_pinned() {
        const PINS: [[&str; 4]; 12] = [
            ["A", S09, S09, S09],
            ["A", "A", "A", "S01111000000001110000001"],
            ["A", "A", "A", "A"],
            ["A", "A", "A", "A"],
            ["A", "A", "A", "A"],
            ["A", S14, S14, S14],
            [S15, S15, S15, S15],
            ["A", "A", "A", "A"],
            ["A", S17, S17, S17],
            [S18, S18, S18, S18],
            ["A", "A", "A", "A"],
            ["A", "A", "A", "U"],
        ];
        const S09: &str = "S1100101100101101010010";
        const S14: &str = "S111100100110101101011";
        const S15: &str = "S1100000000000000000000";
        const S17: &str = "S100100111111111100100111";
        const S18: &str = "S1111001111011000100";
        for ((seed, support, mut b, out), pins) in podem_miters().zip(PINS) {
            for (limit, pin) in [0, 10, 100, 3000].into_iter().zip(pins) {
                let got = outcome_code(&b.solve(support, out, limit));
                assert_eq!(got, pin, "seed {seed} at backtrack limit {limit}");
            }
        }
    }
}
