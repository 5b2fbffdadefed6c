//! PODEM-style branch-and-bound circuit satisfiability over a miter.
//!
//! The solver decides whether any assignment of the miter's variables
//! (primary inputs, or a scoped miter's cut variables) drives its output
//! to 1, branching only on those variables (the classic PODEM search
//! space) with three-valued forward implication after every decision.
//! [`SatBuilder::solve`] is its only entry point.

use powder_logic::TruthTable;
use std::collections::HashMap;

/// Index of a node within a [`SatBuilder`]'s node table.
pub(crate) type NodeId = u32;

/// A node of the satisfiability circuit.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    /// Solver variable `index`: a primary input's position in the
    /// netlist's input list, or a cut variable of a scoped miter.
    Pi(usize),
    /// Constant.
    Const(bool),
    /// A combinational node: `function` over `fanins` (≤ 6 of them for
    /// library cells; exactly 2 for miter XOR/OR glue).
    Gate {
        /// Single-output function over the fanins.
        function: TruthTable,
        /// Fanin node ids, in function-variable order.
        fanins: Vec<NodeId>,
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

/// Borrowed view of a builder's node table rooted at one output: the
/// shape the solver works on, so a query never clones the table.
#[derive(Clone, Copy)]
struct View<'a> {
    nodes: &'a [Node],
    num_pis: usize,
    output: NodeId,
}

impl View<'_> {
    /// Topological order of the cone of influence of the output, plus the
    /// set of PIs in that cone.
    fn cone(&self) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut mark = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut pis = Vec::new();
        // Iterative DFS post-order.
        let mut stack: Vec<(NodeId, usize)> = vec![(self.output, 0)];
        mark[self.output as usize] = true;
        while let Some((id, child)) = stack.pop() {
            match &self.nodes[id as usize] {
                Node::Pi(_) => {
                    pis.push(id);
                    order.push(id);
                }
                Node::Const(_) => order.push(id),
                Node::Gate { fanins, .. } => {
                    if child < fanins.len() {
                        stack.push((id, child + 1));
                        let f = fanins[child];
                        if !mark[f as usize] {
                            mark[f as usize] = true;
                            stack.push((f, 0));
                        }
                    } else {
                        order.push(id);
                    }
                }
            }
        }
        (order, pis)
    }
}

/// Three-valued evaluation of one gate given fanin values.
fn eval_gate(function: &TruthTable, fanin_vals: &[Val]) -> Val {
    // Enumerate completions of the X inputs; if all agree, the value is
    // determined. Cells have ≤ 6 inputs so this is at most 64 probes.
    let k = function.vars();
    let x_positions: Vec<usize> = (0..k).filter(|&i| fanin_vals[i] == Val::X).collect();
    let mut base = 0u64;
    for (i, v) in fanin_vals.iter().enumerate() {
        if *v == Val::One {
            base |= 1 << i;
        }
    }
    let mut saw0 = false;
    let mut saw1 = false;
    for c in 0..(1u64 << x_positions.len()) {
        let mut m = base;
        for (bit, &pos) in x_positions.iter().enumerate() {
            if (c >> bit) & 1 == 1 {
                m |= 1 << pos;
            }
        }
        if function.eval(m) {
            saw1 = true;
        } else {
            saw0 = true;
        }
        if saw0 && saw1 {
            return Val::X;
        }
    }
    match (saw0, saw1) {
        (false, true) => Val::One,
        (true, false) => Val::Zero,
        _ => Val::X,
    }
}

/// Cones whose support is at most this many primary inputs are decided by
/// exhaustive bit-parallel evaluation instead of branch-and-bound — a
/// complete decision procedure that never aborts, and the only efficient
/// one for the XOR-dominated miters of parity/ECC logic (branch-and-bound
/// without clause learning is exponential on those).
const EXHAUSTIVE_SUPPORT_LIMIT: usize = 18;

/// The solver behind [`SatBuilder::solve`].
fn solve_view(circuit: View<'_>, backtrack_limit: usize) -> SatOutcome {
    let (order, cone_pis) = circuit.cone();
    if cone_pis.len() <= EXHAUSTIVE_SUPPORT_LIMIT && !cone_pis.is_empty() {
        return solve_exhaustive(circuit, &order, &cone_pis);
    }
    if cone_pis.is_empty() {
        // Constant cone: a single implication decides.
        let vals = implicate(circuit, &order, &[]);
        return match vals[circuit.output as usize] {
            Val::One => SatOutcome::Sat(vec![false; circuit.num_pis]),
            _ => SatOutcome::Unsat,
        };
    }

    // Decision stack: (pi node, value, tried_other).
    let mut decisions: Vec<(NodeId, bool, bool)> = Vec::new();
    let mut assignment: HashMap<NodeId, bool> = HashMap::new();
    let mut budget = backtrack_limit;

    loop {
        let assigned: Vec<(NodeId, bool)> = assignment.iter().map(|(&n, &v)| (n, v)).collect();
        let vals = implicate(circuit, &order, &assigned);
        match vals[circuit.output as usize] {
            Val::One => {
                let mut out = vec![false; circuit.num_pis];
                for (&node, &v) in &assignment {
                    if let Node::Pi(idx) = &circuit.nodes[node as usize] {
                        out[*idx] = v;
                    }
                }
                return SatOutcome::Sat(out);
            }
            Val::Zero => {
                // Conflict: backtrack.
                loop {
                    match decisions.pop() {
                        None => return SatOutcome::Unsat,
                        Some((node, val, tried_other)) => {
                            if budget == 0 {
                                return SatOutcome::Aborted;
                            }
                            budget -= 1;
                            if !tried_other {
                                decisions.push((node, !val, true));
                                assignment.insert(node, !val);
                                break;
                            }
                            assignment.remove(&node);
                        }
                    }
                }
            }
            Val::X => {
                // Objective-guided PODEM backtrace: from (output, 1), walk
                // through X-valued gates toward a primary input, flipping
                // the desired value through negative-unate inputs.
                let (node, value) = backtrace(circuit, &vals, circuit.output, true);
                debug_assert!(!assignment.contains_key(&node));
                decisions.push((node, value, false));
                assignment.insert(node, value);
            }
        }
    }
}

/// Complete decision by 64-way-parallel exhaustive simulation of the cone
/// over all `2^k` assignments of its `k` support inputs. Intermediate
/// values are freed as soon as their last cone fanout has consumed them,
/// bounding peak memory by the cone's width.
fn solve_exhaustive(circuit: View<'_>, order: &[NodeId], cone_pis: &[NodeId]) -> SatOutcome {
    let k = cone_pis.len();
    let words = (1usize << k).div_ceil(64);
    let mut pi_pos: HashMap<NodeId, usize> = HashMap::new();
    for (i, &pi) in cone_pis.iter().enumerate() {
        pi_pos.insert(pi, i);
    }
    // Remaining-use counts within the cone, for early freeing.
    let mut uses: HashMap<NodeId, usize> = HashMap::new();
    for &id in order {
        if let Node::Gate { fanins, .. } = &circuit.nodes[id as usize] {
            for &f in fanins {
                *uses.entry(f).or_insert(0) += 1;
            }
        }
    }
    let mut values: HashMap<NodeId, Vec<u64>> = HashMap::new();
    let mut out_words: Option<Vec<u64>> = None;
    for &id in order {
        let vals: Vec<u64> = match &circuit.nodes[id as usize] {
            Node::Pi(_) => {
                let i = pi_pos[&id];
                (0..words)
                    .map(|w| {
                        if i < 6 {
                            // repeating pattern within a word
                            const M: [u64; 6] = [
                                0xAAAA_AAAA_AAAA_AAAA,
                                0xCCCC_CCCC_CCCC_CCCC,
                                0xF0F0_F0F0_F0F0_F0F0,
                                0xFF00_FF00_FF00_FF00,
                                0xFFFF_0000_FFFF_0000,
                                0xFFFF_FFFF_0000_0000,
                            ];
                            M[i]
                        } else if (w >> (i - 6)) & 1 == 1 {
                            u64::MAX
                        } else {
                            0
                        }
                    })
                    .collect()
            }
            Node::Const(v) => vec![if *v { u64::MAX } else { 0 }; words],
            Node::Gate { function, fanins } => {
                let fanin_vals: Vec<&Vec<u64>> = fanins.iter().map(|f| &values[f]).collect();
                let mut out = vec![0u64; words];
                // Evaluate as an OR of minterm products of the (small)
                // gate function — functions here have ≤ 6 inputs.
                for m in function.minterms() {
                    for w in 0..words {
                        let mut term = u64::MAX;
                        for (i, fv) in fanin_vals.iter().enumerate() {
                            let v = fv[w];
                            term &= if (m >> i) & 1 == 1 { v } else { !v };
                            if term == 0 {
                                break;
                            }
                        }
                        out[w] |= term;
                    }
                }
                // Release fanin storage when fully consumed.
                for &f in fanins {
                    if let Some(u) = uses.get_mut(&f) {
                        *u -= 1;
                        if *u == 0 {
                            values.remove(&f);
                        }
                    }
                }
                out
            }
        };
        if id == circuit.output {
            out_words = Some(vals);
            break;
        }
        values.insert(id, vals);
    }
    let out = out_words.unwrap_or_else(|| values[&circuit.output].clone());
    // Mask off padding patterns beyond 2^k when k < 6.
    let valid = if k >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << k)) - 1
    };
    for (w, &word) in out.iter().enumerate() {
        let word = if w == 0 { word & valid } else { word };
        if word != 0 {
            let bit = word.trailing_zeros() as usize;
            let pattern = w * 64 + bit;
            let mut assignment = vec![false; circuit.num_pis];
            for (i, &pi) in cone_pis.iter().enumerate() {
                if let Node::Pi(idx) = &circuit.nodes[pi as usize] {
                    assignment[*idx] = (pattern >> i) & 1 == 1;
                }
            }
            return SatOutcome::Sat(assignment);
        }
    }
    SatOutcome::Unsat
}

/// Walks from `(start, want)` through X-valued gates to an unassigned PI,
/// propagating the objective value through input unateness.
fn backtrace(circuit: View<'_>, vals: &[Val], start: NodeId, want: bool) -> (NodeId, bool) {
    let mut node = start;
    let mut value = want;
    loop {
        match &circuit.nodes[node as usize] {
            Node::Pi(_) => return (node, value),
            Node::Const(_) => unreachable!("constants are never X"),
            Node::Gate { function, fanins } => {
                // Pick the first X-valued fanin (fanin 0 bias deliberately
                // steers into the activation cone, which the miter builder
                // places first).
                let pick = fanins
                    .iter()
                    .enumerate()
                    .find(|(_, &f)| vals[f as usize] == Val::X)
                    .expect("an X gate has an X fanin");
                let (i, &next) = pick;
                // Unateness of the function in input i decides whether the
                // objective flips on the way down.
                let cof0 = function.cofactor(i, false);
                let cof1 = function.cofactor(i, true);
                let pos_unate = (&cof0 & &!cof1.clone()).is_zero(); // cof0 ≤ cof1
                let neg_unate = (&cof1 & &!cof0.clone()).is_zero(); // cof1 ≤ cof0
                value = if pos_unate {
                    value
                } else if neg_unate {
                    !value
                } else {
                    value
                };
                node = next;
            }
        }
    }
}

/// Forward three-valued implication over `order` with the given PI values.
fn implicate(circuit: View<'_>, order: &[NodeId], assigned: &[(NodeId, bool)]) -> Vec<Val> {
    let mut vals = vec![Val::X; circuit.nodes.len()];
    for &(node, b) in assigned {
        vals[node as usize] = if b { Val::One } else { Val::Zero };
    }
    let mut fanin_vals: Vec<Val> = Vec::with_capacity(8);
    for &id in order {
        match &circuit.nodes[id as usize] {
            Node::Pi(_) => {}
            Node::Const(b) => {
                vals[id as usize] = if *b { Val::One } else { Val::Zero };
            }
            Node::Gate { function, fanins } => {
                fanin_vals.clear();
                fanin_vals.extend(fanins.iter().map(|&f| vals[f as usize]));
                vals[id as usize] = eval_gate(function, &fanin_vals);
            }
        }
    }
    vals
}

/// Node table of a miter, built by `check.rs` and `equiv.rs` and
/// decided in place by [`Self::solve`], the solver's only entry point.
#[derive(Debug, Default)]
pub(crate) struct SatBuilder {
    nodes: Vec<Node>,
}

impl SatBuilder {
    pub(crate) fn pi(&mut self, index: usize) -> NodeId {
        self.push(Node::Pi(index))
    }
    pub(crate) fn constant(&mut self, value: bool) -> NodeId {
        self.push(Node::Const(value))
    }
    pub(crate) fn gate(&mut self, function: TruthTable, fanins: Vec<NodeId>) -> NodeId {
        debug_assert_eq!(function.vars(), fanins.len());
        self.push(Node::Gate { function, fanins })
    }
    pub(crate) fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let f = TruthTable::var(0, 2) ^ TruthTable::var(1, 2);
        self.gate(f, vec![a, b])
    }
    pub(crate) fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let f = TruthTable::var(0, 2) | TruthTable::var(1, 2);
        self.gate(f, vec![a, b])
    }
    pub(crate) fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let f = TruthTable::var(0, 2) & TruthTable::var(1, 2);
        self.gate(f, vec![a, b])
    }
    pub(crate) fn not(&mut self, a: NodeId) -> NodeId {
        let f = !TruthTable::var(0, 1);
        self.gate(f, vec![a])
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
    /// netlist's base node table across queries.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
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
        &self,
        num_vars: usize,
        output: NodeId,
        backtrack_limit: usize,
    ) -> SatOutcome {
        solve_view(
            View {
                nodes: &self.nodes,
                num_pis: num_vars,
                output,
            },
            backtrack_limit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> TruthTable {
        TruthTable::var(0, 2) & TruthTable::var(1, 2)
    }

    #[test]
    fn sat_simple_and() {
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let y = b.pi(1);
        let g = b.gate(and2(), vec![x, y]);
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
        let g = b.gate(and2(), vec![x, nx]);
        assert_eq!(b.solve(1, g, 100), SatOutcome::Unsat);
    }

    #[test]
    fn xor_miter_of_equivalent_functions_unsat() {
        // (x & y) XOR (y & x) — equivalent, miter unsat.
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let y = b.pi(1);
        let g1 = b.gate(and2(), vec![x, y]);
        let g2 = b.gate(and2(), vec![y, x]);
        let m = b.xor2(g1, g2);
        assert_eq!(b.solve(2, m, 100), SatOutcome::Unsat);
    }

    #[test]
    fn xor_miter_of_different_functions_sat() {
        // (x & y) XOR (x | y): differs when exactly one input is 1.
        let mut b = SatBuilder::default();
        let x = b.pi(0);
        let y = b.pi(1);
        let g1 = b.gate(and2(), vec![x, y]);
        let or = TruthTable::var(0, 2) | TruthTable::var(1, 2);
        let g2 = b.gate(or, vec![x, y]);
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
            p1 = b.gate(xor.clone(), vec![p1, x]);
            p2 = b.gate(xor.clone(), vec![x, p2]);
        }
        let m = b.xor2(p1, p2);
        assert_eq!(b.solve(6, m, 10_000), SatOutcome::Unsat);
    }

    #[test]
    fn three_valued_gate_eval() {
        let f = and2();
        assert_eq!(
            eval_gate(&f, &[Val::Zero, Val::X]),
            Val::Zero,
            "0 AND X = 0"
        );
        assert_eq!(eval_gate(&f, &[Val::One, Val::X]), Val::X);
        assert_eq!(eval_gate(&f, &[Val::One, Val::One]), Val::One);
    }
}
