//! The e-graph core: hash-consed e-nodes over e-classes, each class
//! being the exact function its members compute over the cone leaves.
//!
//! [`EGraph::add`] puts every new node in the class of its computed
//! function ([`ConeTable`]), so a class *is* its function: two nodes that
//! compute the same function share a class the moment the second one is
//! added, and classes never merge. The table serves three roles:
//!
//! 1. **Semantic congruence** — rule chains that meet "around" a
//!    rewrite land in one class without an explicit rule for every
//!    identity (constant folding, idempotence, and absorption all fall
//!    out of this).
//! 2. **Soundness** — a node's class comes from its computed function,
//!    never from the rule that added it, so no rule can put a node in a
//!    class it does not implement.
//! 3. **Cost extraction** — the table gives the exact signal
//!    probability of the class given leaf probabilities, which prices
//!    the switched capacitance `C·E` of every candidate implementation.
//!
//! Storage allocates nothing per node: children live in one flat arena,
//! and the cons index maps a node's hash to the newest node with that
//! hash, older ones chained through the node table. A lookup hashes
//! `(op, children)` in place, so a hash-cons hit touches no heap.
//!
//! Everything is deterministic: nodes are scanned in insertion order,
//! class ids count up in creation order, and no hash map is ever
//! iterated.

use crate::hash::{FastMap, WordHasher};
use crate::table::{ConeTable, MAX_CONE_LEAVES};
use powder_library::{CellId, Library};
use std::collections::hash_map::Entry;
use std::hash::Hasher;
use std::ops::Deref;
use std::sync::Arc;

/// Index of an e-class in its graph's class table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClassId(pub u32);

/// The operator of an e-node over the mapped-cell vocabulary: abstract
/// subject-graph ops (AND/OR/NOT/XOR), cone leaves, constants, and
/// mapped library cells.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Op {
    /// Cone leaf `i` (an existing netlist signal; costs nothing).
    Var(u32),
    /// A constant signal.
    Const(bool),
    /// Abstract inversion (not directly implementable).
    Not,
    /// Abstract 2-input AND.
    And,
    /// Abstract 2-input OR.
    Or,
    /// Abstract 2-input XOR.
    Xor,
    /// An instance of a library cell; children are the cell's input
    /// pins in pin order. The only implementable interior op.
    Cell(CellId),
}

impl Op {
    /// The op as one hash word: a tag in the low byte, its argument
    /// above.
    fn word(self) -> u64 {
        match self {
            Op::Var(i) => u64::from(i) << 8,
            Op::Const(v) => 1 | u64::from(v) << 8,
            Op::Not => 2,
            Op::And => 3,
            Op::Or => 4,
            Op::Xor => 5,
            Op::Cell(c) => 6 | u64::from(c.0) << 8,
        }
    }

    /// Slot of an abstract op in a class's capped member lists.
    fn abstract_slot(self) -> Option<usize> {
        match self {
            Op::Not => Some(0),
            Op::And => Some(1),
            Op::Or => Some(2),
            Op::Xor => Some(3),
            _ => None,
        }
    }
}

/// Which rewrite rule created an e-node (for provenance/quarantine);
/// `Seed` marks nodes present in the initial cone translation.
pub type RuleId = u8;

/// Rule id of the initial cone-translation nodes.
pub const RULE_SEED: RuleId = 0;

/// End of a cons chain.
const NONE: u32 = u32::MAX;

/// One e-node as recorded in the insertion-ordered node table; its
/// children are read through [`EGraph::children`].
#[derive(Clone, Copy, Debug)]
pub struct NodeEntry {
    /// The operator.
    pub op: Op,
    /// The class of the node's function.
    pub class: ClassId,
    /// The rule that created the node.
    pub rule: RuleId,
    /// The children are `arena[start..start + len]`.
    start: u32,
    len: u32,
    /// The next older node with the same hash, or [`NONE`].
    next: u32,
}

/// At most `N` items in place: the first `len` of `items`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Few<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy, const N: usize> Few<T, N> {
    /// An empty list; `fill` only initialises the unused slots.
    pub(crate) fn new(fill: T) -> Self {
        Few {
            items: [fill; N],
            len: 0,
        }
    }

    /// Appends `item`, or keeps nothing when the list is full.
    pub(crate) fn push(&mut self, item: T) {
        if self.len < N {
            self.items[self.len] = item;
            self.len += 1;
        }
    }
}

impl<T, const N: usize> Deref for Few<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// Cap on the members of each abstract op that a class lists for the
/// rule matchers: it bounds the cross product of depth-2 matching.
pub(crate) const MEMBER_CAP: usize = 3;

/// An equivalence class: every member computes `table`.
#[derive(Clone, Copy, Debug)]
struct EClass {
    /// Exact function over the cone leaves.
    table: ConeTable,
    /// The first [`MEMBER_CAP`] members of each abstract op (NOT, AND,
    /// OR, XOR), as node-table indices in insertion order.
    capped: [Few<u32, MEMBER_CAP>; 4],
    /// One past the newest node in `capped` (0 while it is empty).
    grown: u32,
}

/// The e-graph. See the module docs for invariants.
pub struct EGraph {
    lib: Arc<Library>,
    leaves: usize,
    classes: Vec<EClass>,
    nodes: Vec<NodeEntry>,
    /// Children of every node, back to back in node order.
    arena: Vec<ClassId>,
    /// Node hash → newest node with that hash.
    cons: FastMap<u64, u32>,
    tt_index: FastMap<ConeTable, ClassId>,
}

impl EGraph {
    /// An empty e-graph over `leaves` leaf variables, resolving cell
    /// functions from `lib`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves > MAX_CONE_LEAVES`.
    #[must_use]
    pub fn new(lib: Arc<Library>, leaves: usize) -> Self {
        assert!(
            leaves <= MAX_CONE_LEAVES,
            "cones have at most {MAX_CONE_LEAVES} leaves, got {leaves}"
        );
        EGraph {
            lib,
            leaves,
            classes: Vec::new(),
            nodes: Vec::new(),
            arena: Vec::new(),
            cons: FastMap::default(),
            tt_index: FastMap::default(),
        }
    }

    /// The library cell functions are resolved from.
    #[must_use]
    pub fn library(&self) -> &Arc<Library> {
        &self.lib
    }

    /// Number of leaf variables.
    #[must_use]
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Total e-nodes ever created (the saturation budget is charged
    /// against this).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of e-classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The node table, in insertion order.
    #[must_use]
    pub fn node_entries(&self) -> &[NodeEntry] {
        &self.nodes
    }

    /// The child classes of `node`, in operand (for cells: pin) order.
    #[must_use]
    pub fn children(&self, node: &NodeEntry) -> &[ClassId] {
        &self.arena[node.start as usize..][..node.len as usize]
    }

    /// The exact function of class `c` over the leaves.
    #[must_use]
    pub fn class_table(&self, c: ClassId) -> ConeTable {
        self.classes[c.0 as usize].table
    }

    /// Node-table indices of the first [`MEMBER_CAP`] members of class
    /// `c` whose op is the abstract `op`, in insertion order.
    pub(crate) fn members_with_op(&self, c: ClassId, op: Op) -> Few<u32, MEMBER_CAP> {
        let slot = op.abstract_slot().expect("abstract op");
        self.classes[c.0 as usize].capped[slot]
    }

    /// The growth stamp of class `c`: one past the node-table index of
    /// the newest node in its capped member lists, 0 while they are
    /// empty. The lists only grow, so they are unchanged since the node
    /// count was `n` exactly when the stamp is at most `n`.
    pub(crate) fn grown(&self, c: ClassId) -> u32 {
        self.classes[c.0 as usize].grown
    }

    /// Adds (or finds) the e-node `op(children)`, created by `rule`.
    ///
    /// The node is hash-consed: an existing identical node returns its
    /// class, and the lookup allocates nothing. A new node joins the
    /// class of its computed function, created if none exists yet.
    ///
    /// # Panics
    ///
    /// Panics if an `Op::Cell` child count disagrees with the cell's
    /// pin count.
    pub fn add(&mut self, op: Op, children: &[ClassId], rule: RuleId) -> ClassId {
        let mut h = WordHasher::default();
        h.mix(op.word());
        for c in children {
            h.mix(u64::from(c.0));
        }
        let head = match self.cons.entry(h.finish()) {
            Entry::Occupied(slot) => {
                let mut at = *slot.get();
                while at != NONE {
                    let e = &self.nodes[at as usize];
                    if e.op == op && &self.arena[e.start as usize..][..e.len as usize] == children {
                        return e.class;
                    }
                    at = e.next;
                }
                slot.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(NONE),
        };
        let table = node_table(&self.lib, &self.classes, self.leaves, op, children);
        let class = match self.tt_index.entry(table) {
            Entry::Occupied(c) => *c.get(),
            Entry::Vacant(slot) => {
                let id = ClassId(self.classes.len() as u32);
                self.classes.push(EClass {
                    table,
                    capped: [Few::new(0); 4],
                    grown: 0,
                });
                *slot.insert(id)
            }
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(NodeEntry {
            op,
            class,
            rule,
            start: self.arena.len() as u32,
            len: children.len() as u32,
            next: *head,
        });
        *head = idx;
        self.arena.extend_from_slice(children);
        if let Some(slot) = op.abstract_slot() {
            let class = &mut self.classes[class.0 as usize];
            if class.capped[slot].len() < MEMBER_CAP {
                class.capped[slot].push(idx);
                class.grown = idx + 1;
            }
        }
        class
    }
}

/// The function an `op` node over `children` computes.
fn node_table(
    lib: &Library,
    classes: &[EClass],
    leaves: usize,
    op: Op,
    children: &[ClassId],
) -> ConeTable {
    let child = |i: usize| classes[children[i].0 as usize].table;
    let one = ConeTable::one(leaves);
    match op {
        Op::Var(i) => ConeTable::var(i as usize, leaves),
        Op::Const(false) => ConeTable::ZERO,
        Op::Const(true) => one,
        Op::Not => one ^ child(0),
        Op::And => child(0) & child(1),
        Op::Or => child(0) | child(1),
        Op::Xor => child(0) ^ child(1),
        Op::Cell(cid) => {
            let cell = lib.cell(cid).expect("cell id from this library");
            assert_eq!(cell.inputs(), children.len(), "cell arity mismatch");
            ConeTable::compose(&cell.function, child, one)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;

    fn graph(leaves: usize) -> EGraph {
        EGraph::new(Arc::new(lib2()), leaves)
    }

    #[test]
    fn hashcons_dedups_identical_nodes() {
        let mut eg = graph(2);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let b = eg.add(Op::Var(1), &[], RULE_SEED);
        let n1 = eg.add(Op::And, &[a, b], RULE_SEED);
        let n2 = eg.add(Op::And, &[a, b], RULE_SEED);
        assert_eq!(n1, n2);
        assert_eq!(eg.node_count(), 3);
    }

    #[test]
    fn semantic_congruence_merges_equal_functions() {
        let mut eg = graph(2);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let b = eg.add(Op::Var(1), &[], RULE_SEED);
        // AND(a,b) and NOT(OR(NOT a, NOT b)) compute the same function:
        // the second structure must land in the first's class.
        let and = eg.add(Op::And, &[a, b], RULE_SEED);
        let na = eg.add(Op::Not, &[a], RULE_SEED);
        let nb = eg.add(Op::Not, &[b], RULE_SEED);
        let or = eg.add(Op::Or, &[na, nb], RULE_SEED);
        let nor = eg.add(Op::Not, &[or], RULE_SEED);
        assert_eq!(and, nor);
    }

    #[test]
    fn idempotence_and_constants_fold_semantically() {
        let mut eg = graph(1);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let aa = eg.add(Op::And, &[a, a], RULE_SEED);
        assert_eq!(a, aa, "AND(a,a) == a");
        let na = eg.add(Op::Not, &[a], RULE_SEED);
        let zero = eg.add(Op::And, &[a, na], RULE_SEED);
        let k0 = eg.add(Op::Const(false), &[], RULE_SEED);
        assert_eq!(zero, k0, "AND(a,!a) == 0");
    }

    #[test]
    fn union_rebuild_restores_parent_congruence() {
        let mut eg = graph(3);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let b = eg.add(Op::Var(1), &[], RULE_SEED);
        let c = eg.add(Op::Var(2), &[], RULE_SEED);
        let ab = eg.add(Op::And, &[a, b], RULE_SEED);
        let ba = eg.add(Op::And, &[b, a], RULE_SEED);
        // Same function: semantic congruence put them in one class.
        assert_eq!(ab, ba);
        let p1 = eg.add(Op::Or, &[ab, c], RULE_SEED);
        let p2 = eg.add(Op::Or, &[ba, c], RULE_SEED);
        assert_eq!(p1, p2);
    }

    #[test]
    fn cell_nodes_compose_their_function() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut eg = EGraph::new(lib, 2);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let b = eg.add(Op::Var(1), &[], RULE_SEED);
        let cell = eg.add(Op::Cell(and2), &[a, b], RULE_SEED);
        let abs = eg.add(Op::And, &[a, b], RULE_SEED);
        assert_eq!(cell, abs, "cell joins the abstract class");
    }
}
