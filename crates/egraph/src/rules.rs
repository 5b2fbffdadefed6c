//! Rewrite rules and the bounded saturation driver.
//!
//! Rules only ever *add* e-nodes: because every e-class is its exact
//! function, a newly added node whose function matches an existing
//! class joins it automatically ([`EGraph::add`]).
//! Absorption, idempotence and constant folding therefore need no
//! explicit rules — they are consequences of semantic congruence. The
//! explicit rules below exist to grow *structural variety*, so the
//! cell-matching rule can discover alternative mapped implementations
//! for the extractor to price.
//!
//! Scheduling is deterministic: each iteration scans the global node
//! table in insertion order over the prefix that existed when the
//! iteration began, and stops when an iteration adds no node
//! (saturation), the node budget is exhausted, or the iteration limit
//! is hit. No hash map is iterated anywhere, so runs are
//! bit-reproducible.
//!
//! Visits are semi-naive. A rule's adds are a pure function of its
//! node, the capped member lists of the node's child classes and the
//! class table, and the node table only grows. So a node whose child
//! classes' lists have not grown since its last visit began would add
//! only nodes that exist (hash-cons hits), and the sweep skips it; a
//! revisit folds only the shapes with a variant newer than that; the
//! class folds, which read the class table alone, run once per class,
//! after the first visit of one of its nodes. The e-graph is the one
//! visiting every node on every sweep would build, node for node.

use crate::graph::{ClassId, EGraph, Few, NodeEntry, Op, RuleId, MEMBER_CAP};
use crate::hash::FastMap;
use crate::table::{ConeTable, VAR_MASKS};
use crate::EgraphConfig;
use powder_library::{CellId, Library, Match};
use powder_logic::minimize::minimize;
use powder_logic::Sop;
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// Rule id: cell decomposed into its subject-graph (SOP) form.
pub const RULE_CELL_EXPAND: RuleId = 1;
/// Rule id: commutativity of AND/OR/XOR.
pub const RULE_COMM: RuleId = 2;
/// Rule id: re-association of AND/OR chains.
pub const RULE_ASSOC: RuleId = 3;
/// Rule id: De Morgan push/pull of inverters.
pub const RULE_DEMORGAN: RuleId = 4;
/// Rule id: XOR expansion into AND/OR/NOT form.
pub const RULE_XOR_EXPAND: RuleId = 5;
/// Rule id: factoring / kernel pull-out (distributivity, both ways).
pub const RULE_FACTOR: RuleId = 6;
/// Rule id: constant node added to a constant-function class.
pub const RULE_CONST_FOLD: RuleId = 7;
/// Rule id: abstract shape re-mapped onto a library cell.
pub const RULE_CELL_FOLD: RuleId = 8;

/// Human-readable rule names, indexed by [`RuleId`].
pub const RULE_NAMES: [&str; 9] = [
    "seed",
    "cell-expand",
    "comm",
    "assoc",
    "demorgan",
    "xor-expand",
    "factor",
    "const-fold",
    "cell-fold",
];

/// Outcome of a saturation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaturationStats {
    /// Sweeps performed.
    pub iters: usize,
    /// E-nodes in the graph afterwards.
    pub nodes: usize,
    /// Live e-classes afterwards.
    pub classes: usize,
    /// True if a sweep added no node (a fixpoint, not a budget stop).
    pub saturated: bool,
}

/// Memo of the rule matchers: cell SOPs, and the fold outcome of every
/// shape signature. Entries depend only on the library, so one cache
/// serves every cone saturated over it and never changes a result.
pub struct RuleCache {
    lib: Arc<Library>,
    /// Minimized SOP of each cell function, by cell id.
    sops: FastMap<CellId, Sop>,
    /// Fold outcome of each shape signature: [`UNSEEN`], [`NO_FOLD`], or
    /// `NO_FOLD + 1 + i` for `folds[i]`.
    shapes: Vec<u16>,
    /// The library matches of the signatures seen so far.
    folds: Vec<Match>,
    /// Reused term and literal classes of `cell_expand`.
    scratch: Vec<ClassId>,
}

/// A shape signature not folded yet.
const UNSEEN: u16 = 0;
/// A shape signature with a dead operand or no matching cell.
const NO_FOLD: u16 = 1;

impl RuleCache {
    /// An empty cache for e-graphs over `lib`.
    #[must_use]
    pub fn new(lib: Arc<Library>) -> Self {
        RuleCache {
            lib,
            sops: FastMap::default(),
            shapes: vec![UNSEEN; SIGNATURES],
            folds: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The library match of packed shape `p`'s signature: on first use
    /// of the signature, the match of `p`'s function when every operand
    /// is live.
    pub(crate) fn fold(&mut self, p: &Packed) -> Option<&Match> {
        let slot = &mut self.shapes[p.sig];
        if *slot == UNSEEN {
            let m = if p.all_live() {
                self.lib.match_table(p.k, u64::from(p.bits))
            } else {
                None
            };
            *slot = match m {
                None => NO_FOLD,
                Some(m) => {
                    self.folds.push(m.clone());
                    NO_FOLD + self.folds.len() as u16
                }
            };
        }
        let slot = *slot;
        (slot > NO_FOLD).then(|| &self.folds[usize::from(slot - NO_FOLD - 1)])
    }
}

/// Runs bounded equality saturation over `eg` with semi-naive visits
/// (see the module docs), memoising cell SOPs and shape folds in
/// `cache`.
///
/// # Panics
///
/// Panics if `cache` was built for a different library than `eg`.
pub fn saturate(eg: &mut EGraph, cfg: &EgraphConfig, cache: &mut RuleCache) -> SaturationStats {
    assert!(
        Arc::ptr_eq(eg.library(), &cache.lib),
        "rule cache built for another library"
    );
    let mut stats = SaturationStats::default();
    // The node count when each node's last visit began (0: never
    // visited), and whether each class has been folded.
    let mut visited: Vec<u32> = Vec::new();
    let mut folded: Vec<bool> = Vec::new();
    for _ in 0..cfg.iter_limit {
        stats.iters += 1;
        let frontier = eg.node_count();
        visited.resize(frontier, 0);
        for (idx, stamp) in visited.iter_mut().enumerate() {
            if eg.node_count() >= cfg.node_limit {
                break;
            }
            let entry = eg.node_entries()[idx];
            let since = *stamp;
            if since != 0 && !reads_grown(eg, &entry, since) {
                continue;
            }
            *stamp = eg.node_count() as u32;
            apply_rules(eg, idx, since, cache);
            let class = entry.class.0 as usize;
            if folded.len() <= class {
                folded.resize(eg.class_count(), false);
            }
            if !folded[class] {
                folded[class] = true;
                const_fold(eg, entry.class);
                class_fold(eg, entry.class, &cache.lib);
            }
        }
        if eg.node_count() == frontier {
            stats.saturated = true;
            break;
        }
        if eg.node_count() >= cfg.node_limit {
            break;
        }
    }
    stats.nodes = eg.node_count();
    stats.classes = eg.class_count();
    stats
}

/// Whether a class whose capped member lists the rules of `entry` read
/// has grown since the node count was `stamp`. Only the abstract ops'
/// rules read member lists, those of their child classes.
fn reads_grown(eg: &EGraph, entry: &NodeEntry, stamp: u32) -> bool {
    match entry.op {
        Op::Not | Op::And | Op::Or | Op::Xor => {
            eg.children(entry).iter().any(|&c| eg.grown(c) > stamp)
        }
        Op::Cell(_) | Op::Var(_) | Op::Const(_) => false,
    }
}

/// Applies every node rule to the node at table index `idx`, whose last
/// visit began at node count `since` (0 if none); the class folds run
/// from [`saturate`].
fn apply_rules(eg: &mut EGraph, idx: usize, since: u32, cache: &mut RuleCache) {
    let entry = eg.node_entries()[idx];
    match entry.op {
        Op::Cell(cid) => cell_expand(eg, cid, &entry, cache),
        op @ (Op::And | Op::Or | Op::Xor) => {
            let children = grandchildren(eg, idx as u32);
            // Commutativity.
            eg.add(op, &[children[1], children[0]], RULE_COMM);
            if op == Op::Xor {
                xor_expand(eg, &children);
            } else {
                assoc(eg, op, &children);
                factor(eg, op, &children);
            }
            cell_fold(eg, op, &children, since, cache);
        }
        Op::Not => {
            let child = eg.children(&entry)[0];
            demorgan(eg, child);
            cell_fold(eg, Op::Not, &[child], since, cache);
        }
        Op::Var(_) | Op::Const(_) => {}
    }
}

/// Decomposes a cell instance into abstract AND/OR/NOT structure from
/// the minimized SOP of its function. The resulting subject-graph node
/// computes the same function, so it lands in the cell's class.
fn cell_expand(eg: &mut EGraph, cid: CellId, cell: &NodeEntry, cache: &mut RuleCache) {
    let RuleCache {
        lib, sops, scratch, ..
    } = cache;
    let sop = sops
        .entry(cid)
        .or_insert_with(|| minimize(&lib.cell(cid).expect("cell from this library").function));
    if sop.cubes().is_empty() {
        eg.add(Op::Const(false), &[], RULE_CELL_EXPAND);
        return;
    }
    // Terms collect in `scratch`; each cube's literals follow them
    // until folded into its term.
    scratch.clear();
    for cube in sop.cubes() {
        let terms = scratch.len();
        for v in 0..eg.children(cell).len() {
            let child = eg.children(cell)[v];
            match cube.literal(v) {
                Some(true) => scratch.push(child),
                Some(false) => scratch.push(eg.add(Op::Not, &[child], RULE_CELL_EXPAND)),
                None => {}
            }
        }
        let term = match scratch[terms..].split_first() {
            None => eg.add(Op::Const(true), &[], RULE_CELL_EXPAND),
            Some((&first, rest)) => rest.iter().fold(first, |acc, &l| {
                eg.add(Op::And, &[acc, l], RULE_CELL_EXPAND)
            }),
        };
        scratch.truncate(terms);
        scratch.push(term);
    }
    let (&first, rest) = scratch.split_first().expect("at least one cube");
    rest.iter()
        .fold(first, |acc, &t| eg.add(Op::Or, &[acc, t], RULE_CELL_EXPAND));
}

/// `op(op(x, y), z) → op(x, op(y, z))` and the mirror, for AND/OR.
fn assoc(eg: &mut EGraph, op: Op, children: &[ClassId]) {
    // Left child is an `op` node: rotate right.
    for &m in &*eg.members_with_op(children[0], op) {
        let inner = grandchildren(eg, m);
        let right = eg.add(op, &[inner[1], children[1]], RULE_ASSOC);
        eg.add(op, &[inner[0], right], RULE_ASSOC);
    }
    // Right child is an `op` node: rotate left.
    for &m in &*eg.members_with_op(children[1], op) {
        let inner = grandchildren(eg, m);
        let left = eg.add(op, &[children[0], inner[0]], RULE_ASSOC);
        eg.add(op, &[left, inner[1]], RULE_ASSOC);
    }
}

/// `!(x & y) → !x | !y` and `!(x | y) → !x & !y`; also `!!x → x` falls
/// out of semantic congruence when the inner NOT is re-added.
fn demorgan(eg: &mut EGraph, child: ClassId) {
    for op in [Op::And, Op::Or] {
        let dual = if op == Op::And { Op::Or } else { Op::And };
        for &m in &*eg.members_with_op(child, op) {
            let inner = grandchildren(eg, m);
            let na = eg.add(Op::Not, &[inner[0]], RULE_DEMORGAN);
            let nb = eg.add(Op::Not, &[inner[1]], RULE_DEMORGAN);
            eg.add(dual, &[na, nb], RULE_DEMORGAN);
        }
    }
}

/// `x ^ y → (x & !y) | (!x & y)`.
fn xor_expand(eg: &mut EGraph, children: &[ClassId]) {
    let (a, b) = (children[0], children[1]);
    let na = eg.add(Op::Not, &[a], RULE_XOR_EXPAND);
    let nb = eg.add(Op::Not, &[b], RULE_XOR_EXPAND);
    let l = eg.add(Op::And, &[a, nb], RULE_XOR_EXPAND);
    let r = eg.add(Op::And, &[na, b], RULE_XOR_EXPAND);
    eg.add(Op::Or, &[l, r], RULE_XOR_EXPAND);
}

/// Factoring / kernel pull-out: `(x&y) | (x&z) → x & (y|z)` when both
/// children of an OR are ANDs sharing a class (all four pairings), plus
/// the dual for AND-of-ORs, plus the distributive direction
/// `x & (y|z) → (x&y) | (x&z)`.
fn factor(eg: &mut EGraph, op: Op, children: &[ClassId]) {
    let dual = if op == Op::And { Op::Or } else { Op::And };
    // Pull-out: both children are `dual` nodes with a shared operand.
    let left_duals = eg.members_with_op(children[0], dual);
    let right_duals = eg.members_with_op(children[1], dual);
    for &lm in &*left_duals {
        let lk = grandchildren(eg, lm);
        for &rm in &*right_duals {
            let rk = grandchildren(eg, rm);
            for (li, ri) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                if lk[li] == rk[ri] {
                    let shared = lk[li];
                    let rest = eg.add(op, &[lk[1 - li], rk[1 - ri]], RULE_FACTOR);
                    eg.add(dual, &[shared, rest], RULE_FACTOR);
                }
            }
        }
    }
    // Distribute: one child is a `dual` node.
    for (fixed, varying) in [(children[0], children[1]), (children[1], children[0])] {
        for &m in &*eg.members_with_op(varying, dual) {
            let inner = grandchildren(eg, m);
            let l = eg.add(op, &[fixed, inner[0]], RULE_FACTOR);
            let r = eg.add(op, &[fixed, inner[1]], RULE_FACTOR);
            eg.add(dual, &[l, r], RULE_FACTOR);
        }
    }
}

/// Adds a constant node to a class whose function is constant, so the
/// extractor can realise it for free.
fn const_fold(eg: &mut EGraph, class: ClassId) {
    let tt = eg.class_table(class);
    if tt.is_zero() {
        eg.add(Op::Const(false), &[], RULE_CONST_FOLD);
    } else if tt == ConeTable::one(eg.leaves()) {
        eg.add(Op::Const(true), &[], RULE_CONST_FOLD);
    }
}

/// The two child classes of the binary node at table index `idx`.
fn grandchildren(eg: &EGraph, idx: u32) -> [ClassId; 2] {
    let kids = eg.children(&eg.node_entries()[idx as usize]);
    [kids[0], kids[1]]
}

/// Variants a child class offers a fold shape: itself, plus up to
/// [`MEMBER_CAP`] members of each of the four abstract ops.
const MAX_VARIANTS: usize = 1 + 4 * MEMBER_CAP;

/// One child of a fold shape's root: a class used as-is, or one of its
/// abstract members expanded one level.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Variant {
    /// The class itself.
    Leaf(ClassId),
    /// A NOT member, over its child class.
    Not(ClassId),
    /// An AND/OR/XOR member, over its two child classes.
    Gate(Op, ClassId, ClassId),
}

/// A depth-≤2 abstract shape matched against the library: a NOT over
/// one variant, or an AND/OR/XOR over two. It has at most 4 operand
/// classes, so its function fits a 16-bit truth table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Shape {
    /// `!v`.
    Not(Variant),
    /// `op(l, r)`.
    Gate(Op, Variant, Variant),
}

/// A shape's signature, its distinct operand classes in
/// first-occurrence order, and its function over them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Packed {
    /// The root op, the two variant kinds and which operand slots share
    /// a class: all the function depends on, so shapes of one signature
    /// fold alike.
    pub(crate) sig: usize,
    /// Operand classes; `ops[..k]` are used.
    pub(crate) ops: [ClassId; 4],
    /// Number of operands.
    pub(crate) k: usize,
    /// Bit `m` is the function's value at minterm `m` (operand `i` is
    /// bit `i` of `m`); bits at and above `2^k` are zero.
    pub(crate) bits: u16,
}

impl Packed {
    /// True if the function depends on every operand: library matching
    /// needs every pin live.
    pub(crate) fn all_live(&self) -> bool {
        (0..self.k).all(|i| depends_on(&[u64::from(self.bits)], i))
    }
}

/// Kinds of a fold variant: the class itself, a NOT, an AND, an OR or
/// an XOR member.
const VARIANT_KINDS: usize = 5;

/// Operand-sharing patterns of at most 4 operand slots: slot `j` reads
/// one of the first `j + 1` distinct operands, weighted by `j!`.
const SHARING_PATTERNS: usize = 24;

/// Shape signatures: root op (NOT, AND, OR, XOR), left and right
/// variant kinds, and sharing pattern.
const SIGNATURES: usize = 4 * VARIANT_KINDS * VARIANT_KINDS * SHARING_PATTERNS;

/// A shape's operand slots read in order (left variant, then right; a
/// gate's first child, then its second): the distinct classes in
/// first-occurrence order, and the sharing pattern of the slots.
struct Operands {
    ops: [ClassId; 4],
    k: usize,
    slots: usize,
    pattern: usize,
}

impl Operands {
    /// The 4-variable projection of the next slot, class `c`.
    fn var(&mut self, c: ClassId) -> u16 {
        let i = match self.ops[..self.k].iter().position(|&o| o == c) {
            Some(i) => i,
            None => {
                self.ops[self.k] = c;
                self.k += 1;
                self.k - 1
            }
        };
        self.pattern += i * [1, 1, 2, 6][self.slots];
        self.slots += 1;
        VAR_MASKS[i] as u16
    }

    /// Reads `v`'s slots; returns its kind and packed table.
    fn variant(&mut self, v: Variant) -> (usize, u16) {
        match v {
            Variant::Leaf(c) => (0, self.var(c)),
            Variant::Not(c) => (1, !self.var(c)),
            Variant::Gate(op, a, b) => {
                let a = self.var(a);
                (2 + binary_index(op), gate(op, a, self.var(b)))
            }
        }
    }
}

/// Index of a binary abstract op: AND 0, OR 1, XOR 2.
fn binary_index(op: Op) -> usize {
    match op {
        Op::And => 0,
        Op::Or => 1,
        Op::Xor => 2,
        _ => unreachable!("shapes hold abstract ops only"),
    }
}

impl Shape {
    /// The shape's signature, operands and packed function.
    pub(crate) fn pack(self) -> Packed {
        let mut o = Operands {
            ops: [ClassId(0); 4],
            k: 0,
            slots: 0,
            pattern: 0,
        };
        let (root, left, right, bits) = match self {
            Shape::Not(v) => {
                let (kind, bits) = o.variant(v);
                (0, kind, 0, !bits)
            }
            Shape::Gate(op, l, r) => {
                let (left, l) = o.variant(l);
                let (right, r) = o.variant(r);
                (1 + binary_index(op), left, right, gate(op, l, r))
            }
        };
        let sig = ((root * VARIANT_KINDS + left) * VARIANT_KINDS + right) * SHARING_PATTERNS;
        Packed {
            sig: sig + o.pattern,
            ops: o.ops,
            k: o.k,
            bits: bits & ((1u32 << (1 << o.k)) - 1) as u16,
        }
    }
}

/// A binary abstract op on packed tables.
fn gate(op: Op, a: u16, b: u16) -> u16 {
    match op {
        Op::And => a & b,
        Op::Or => a | b,
        Op::Xor => a ^ b,
        _ => unreachable!("shapes hold abstract ops only"),
    }
}

/// One-level variants of a child class, each with the node-table index
/// of the member it expands (0 for the class itself): the class, plus
/// each of its first few abstract-op members expanded one level.
fn child_variants(eg: &EGraph, class: ClassId) -> Few<(Variant, u32), MAX_VARIANTS> {
    let mut out = Few::new((Variant::Leaf(class), 0));
    out.push((Variant::Leaf(class), 0));
    for op in [Op::Not, Op::And, Op::Or, Op::Xor] {
        for &m in &*eg.members_with_op(class, op) {
            let kids = eg.children(&eg.node_entries()[m as usize]);
            let v = match op {
                Op::Not => Variant::Not(kids[0]),
                _ => Variant::Gate(op, kids[0], kids[1]),
            };
            out.push((v, m));
        }
    }
    out
}

/// Tries to re-map depth-1 and depth-2 abstract shapes rooted at an
/// `op(children)` node onto library cells, adding a [`Op::Cell`] node
/// per match.
///
/// A node's last visit, begun at node count `since` (0 if none), folded
/// every shape whose variants all existed then: the class itself and
/// the members below `since`. Those shapes would only make hash-cons
/// hits, so only shapes with a newer variant are tried.
fn cell_fold(eg: &mut EGraph, op: Op, children: &[ClassId], since: u32, cache: &mut RuleCache) {
    let seen = |born: u32| since > 0 && born < since;
    match op {
        Op::Not => {
            for &(v, born) in &*child_variants(eg, children[0]) {
                if !seen(born) {
                    fold_shape(eg, Shape::Not(v), cache);
                }
            }
        }
        Op::And | Op::Or | Op::Xor => {
            let left = child_variants(eg, children[0]);
            let right = child_variants(eg, children[1]);
            for &(l, l_born) in &*left {
                for &(r, r_born) in &*right {
                    if !seen(l_born.max(r_born)) {
                        fold_shape(eg, Shape::Gate(op, l, r), cache);
                    }
                }
            }
        }
        _ => {}
    }
}

/// Adds the cell node one shape folds onto, if its signature has one.
fn fold_shape(eg: &mut EGraph, shape: Shape, cache: &mut RuleCache) {
    let p = shape.pack();
    if let Some(m) = cache.fold(&p) {
        let mut pins = [ClassId(0); 4];
        for (pin, &i) in pins.iter_mut().zip(&m.perm) {
            *pin = p.ops[i];
        }
        eg.add(Op::Cell(m.cell), &pins[..m.perm.len()], RULE_CELL_FOLD);
    }
}

/// Whether the table `words` (the words of a [`ConeTable`], or a packed
/// shape table) depends on variable `v`: its two cofactors differ.
fn depends_on(words: &[u64], v: usize) -> bool {
    if v < 6 {
        let lo = !VAR_MASKS[v];
        words.iter().any(|&w| (w >> (1 << v)) & lo != w & lo)
    } else {
        let stride = 1 << (v - 6);
        words
            .chunks_exact(2 * stride)
            .any(|c| c[..stride] != c[stride..])
    }
}

/// The function of `tt`, a table over `vars` variables, over its
/// support when that has 1 to 4 variables: the support (ascending,
/// `support[..k]` used), `k`, and the packed local table.
pub(crate) fn local_function(tt: &ConeTable, vars: usize) -> Option<([usize; 4], usize, u16)> {
    let words = tt.words();
    let mut support = [0usize; 4];
    let mut k = 0;
    for v in 0..vars {
        if depends_on(words, v) {
            if k == 4 {
                return None;
            }
            support[k] = v;
            k += 1;
        }
    }
    if k == 0 {
        return None;
    }
    let mut bits = 0u16;
    for m in 0..1u16 << k {
        let full = (0..k)
            .filter(|&i| (m >> i) & 1 == 1)
            .fold(0usize, |acc, i| acc | 1 << support[i]);
        bits |= (((words[full >> 6] >> (full & 63)) & 1) as u16) << m;
    }
    Some((support, k, bits))
}

/// Tries to implement an entire class as a single cell over the cone
/// leaves, when its function depends on few enough leaves.
fn class_fold(eg: &mut EGraph, class: ClassId, lib: &Library) {
    let Some((support, k, bits)) = local_function(&eg.class_table(class), eg.leaves()) else {
        return;
    };
    if let Some(m) = lib.match_table(k, u64::from(bits)) {
        let mut pins = [ClassId(0); 4];
        for (pin, &i) in pins.iter_mut().zip(&m.perm) {
            *pin = eg.add(Op::Var(support[i] as u32), &[], RULE_CELL_FOLD);
        }
        eg.add(Op::Cell(m.cell), &pins[..m.perm.len()], RULE_CELL_FOLD);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RULE_SEED as SEED;
    use powder_library::lib2;
    use std::sync::Arc;

    #[test]
    fn saturate_reaches_fixpoint_on_tiny_graph() {
        let lib = Arc::new(lib2());
        let mut eg = EGraph::new(lib.clone(), 2);
        let a = eg.add(Op::Var(0), &[], SEED);
        let b = eg.add(Op::Var(1), &[], SEED);
        eg.add(Op::And, &[a, b], SEED);
        let stats = saturate(
            &mut eg,
            &EgraphConfig {
                node_limit: 400,
                iter_limit: 10,
            },
            &mut RuleCache::new(lib),
        );
        assert!(stats.nodes >= 3);
        assert!(stats.iters >= 1);
    }

    #[test]
    fn cell_fold_discovers_cell_for_and_shape() {
        let lib = Arc::new(lib2());
        let mut eg = EGraph::new(lib.clone(), 2);
        let a = eg.add(Op::Var(0), &[], SEED);
        let b = eg.add(Op::Var(1), &[], SEED);
        let and = eg.add(Op::And, &[a, b], SEED);
        saturate(&mut eg, &EgraphConfig::default(), &mut RuleCache::new(lib));
        let has_cell = eg
            .node_entries()
            .iter()
            .any(|e| e.class == and && matches!(e.op, Op::Cell(_)));
        assert!(has_cell, "AND class should gain a mapped-cell member");
    }

    #[test]
    fn saturation_is_deterministic() {
        let build = || {
            let lib = Arc::new(lib2());
            let mut eg = EGraph::new(lib.clone(), 3);
            let a = eg.add(Op::Var(0), &[], SEED);
            let b = eg.add(Op::Var(1), &[], SEED);
            let c = eg.add(Op::Var(2), &[], SEED);
            let ab = eg.add(Op::And, &[a, b], SEED);
            let ac = eg.add(Op::And, &[a, c], SEED);
            eg.add(Op::Or, &[ab, ac], SEED);
            let stats = saturate(&mut eg, &EgraphConfig::default(), &mut RuleCache::new(lib));
            (stats.nodes, stats.classes, stats.iters)
        };
        assert_eq!(build(), build());
    }
}
