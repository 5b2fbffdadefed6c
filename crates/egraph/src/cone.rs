//! Netlist ↔ e-graph bridging: MFFC-bounded cone collection, e-graph
//! seeding from a cone, pricing of the cone's current implementation,
//! and replay of an extraction [`Plan`] back onto the netlist.
//!
//! Cones are *maximum-fanout-free*: an interior gate's every fanout
//! stays inside the cone, so once the root is substituted by the
//! extracted implementation the whole old cone dangles and is swept.
//! The root is the single exception — its fanouts are whatever the
//! netlist wires to it, and the substitution rewires them.

use crate::extract::{signal_probability, transition_density, Operand, Plan};
use crate::graph::{ClassId, EGraph, Op, RULE_SEED};
use crate::table::MAX_CONE_LEAVES;
use powder_netlist::{GateId, GateKind, Netlist};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum interior gates of a cone.
pub const MAX_CONE_GATES: usize = 16;

/// A fanout-free cone rooted at a cell gate.
#[derive(Clone, Debug)]
pub struct Cone {
    /// The root gate (a cell instance).
    pub root: GateId,
    /// Interior gates including the root, in topological order
    /// (fanins before fanouts).
    pub gates: Vec<GateId>,
    /// Non-constant leaf gates; index in this list is the e-graph
    /// `Var` index.
    pub leaves: Vec<GateId>,
}

/// Collects the MFFC-bounded cone rooted at `root`, of at most
/// [`MAX_CONE_GATES`] gates over at most [`MAX_CONE_LEAVES`] leaves, or
/// `None` when `root` is not a live cell gate or the cone degenerates
/// (no leaves).
#[must_use]
pub fn collect_cone(nl: &Netlist, root: GateId) -> Option<Cone> {
    if !nl.is_live(root) || !matches!(nl.kind(root), GateKind::Cell(_)) {
        return None;
    }
    let mut interior: Vec<GateId> = vec![root];
    let mut frontier: Vec<GateId> = Vec::new();
    let push_frontier = |frontier: &mut Vec<GateId>, interior: &[GateId], g: GateId| {
        if !frontier.contains(&g) && !interior.contains(&g) {
            frontier.push(g);
        }
    };
    for &fi in nl.fanins(root) {
        push_frontier(&mut frontier, &interior, fi);
    }
    // One expansion per round, smallest eligible frontier gate first,
    // to fixpoint: deterministic regardless of arrival order.
    loop {
        frontier.sort_unstable();
        let var_leaves = frontier
            .iter()
            .filter(|&&g| !matches!(nl.kind(g), GateKind::Const(_)))
            .count();
        let mut expanded = false;
        for pos in 0..frontier.len() {
            let cand = frontier[pos];
            if !matches!(nl.kind(cand), GateKind::Cell(_)) {
                continue;
            }
            if interior.len() >= MAX_CONE_GATES {
                continue;
            }
            let fo = nl.fanouts(cand);
            if fo.is_empty() || !fo.iter().all(|c| interior.contains(&c.gate)) {
                continue;
            }
            let fresh: Vec<GateId> = nl
                .fanins(cand)
                .iter()
                .copied()
                .filter(|g| !frontier.contains(g) && !interior.contains(g))
                .collect();
            let fresh_vars = fresh
                .iter()
                .filter(|&&g| !matches!(nl.kind(g), GateKind::Const(_)))
                .count();
            let cand_is_var = usize::from(!matches!(nl.kind(cand), GateKind::Const(_)));
            if var_leaves - cand_is_var + fresh_vars > MAX_CONE_LEAVES {
                continue;
            }
            frontier.remove(pos);
            for g in fresh {
                frontier.push(g);
            }
            interior.push(cand);
            expanded = true;
            break;
        }
        if !expanded {
            break;
        }
    }
    frontier.sort_unstable();
    let leaves: Vec<GateId> = frontier
        .iter()
        .copied()
        .filter(|&g| !matches!(nl.kind(g), GateKind::Const(_)))
        .collect();
    if leaves.is_empty() || leaves.len() > MAX_CONE_LEAVES {
        return None;
    }
    // Topological order over the interior: repeatedly emit gates whose
    // interior fanins are all emitted (ascending id for determinism).
    let mut order: Vec<GateId> = Vec::with_capacity(interior.len());
    let mut remaining: Vec<GateId> = interior.clone();
    remaining.sort_unstable();
    while !remaining.is_empty() {
        let before = order.len();
        let mut next: Vec<GateId> = Vec::new();
        for &g in &remaining {
            let ready = nl
                .fanins(g)
                .iter()
                .all(|fi| !remaining.contains(fi) || order.contains(fi));
            if ready {
                order.push(g);
            } else {
                next.push(g);
            }
        }
        remaining = next;
        assert!(order.len() > before, "cone interior must be acyclic");
    }
    Some(Cone {
        root,
        gates: order,
        leaves,
    })
}

/// An e-graph seeded from a cone, with the netlist↔class mapping kept
/// for cost accounting.
pub struct ConeGraph {
    /// The seeded e-graph (leaf `i` is `Op::Var(i)` for `cone.leaves[i]`).
    pub eg: EGraph,
    /// Class of the cone root.
    pub root_class: ClassId,
    /// Class of each interior gate, parallel to `cone.gates`.
    pub gate_class: Vec<ClassId>,
}

/// Translates a cone into a fresh e-graph: leaves become `Var` nodes,
/// constant fanins become `Const` nodes, and each interior cell gate
/// becomes an `Op::Cell` node over its fanin classes.
#[must_use]
pub fn build_egraph(nl: &Netlist, cone: &Cone) -> ConeGraph {
    let mut eg = EGraph::new(Arc::clone(nl.library()), cone.leaves.len());
    let mut class_of: HashMap<GateId, ClassId> = HashMap::new();
    for (i, &leaf) in cone.leaves.iter().enumerate() {
        let c = eg.add(Op::Var(i as u32), &[], RULE_SEED);
        class_of.insert(leaf, c);
    }
    let mut gate_class = Vec::with_capacity(cone.gates.len());
    for &g in &cone.gates {
        let cid = nl.cell_id(g).expect("interior gates are cells");
        let mut fanin_classes = Vec::new();
        for &fi in nl.fanins(g) {
            let c = match class_of.get(&fi) {
                Some(&c) => c,
                None => match nl.kind(fi) {
                    GateKind::Const(v) => {
                        let c = eg.add(Op::Const(v), &[], RULE_SEED);
                        class_of.insert(fi, c);
                        c
                    }
                    other => panic!("cone fanin {fi} of unexpected kind {other:?}"),
                },
            };
            fanin_classes.push(c);
        }
        let c = eg.add(Op::Cell(cid), &fanin_classes, RULE_SEED);
        class_of.insert(g, c);
        gate_class.push(c);
    }
    let root_class = *class_of.get(&cone.root).expect("root is interior");
    ConeGraph {
        eg,
        root_class,
        gate_class,
    }
}

/// Prices the cone's *current* implementation with the same model the
/// extractor uses: `Σ` over interior pins of `pin_cap · E(driver)`,
/// with driver activity derived from its exact cone-local function.
/// Comparable against [`Plan::cost`].
#[must_use]
pub fn current_cost(nl: &Netlist, cone: &Cone, cg: &ConeGraph, leaf_probs: &[f64]) -> f64 {
    let lib = nl.library();
    let mut density: HashMap<GateId, f64> = HashMap::new();
    let mut density_of = |cg: &ConeGraph, g: GateId| -> f64 {
        if let Some(&d) = density.get(&g) {
            return d;
        }
        let i = cone
            .gates
            .iter()
            .position(|&x| x == g)
            .expect("interior driver");
        let tt = cg.eg.class_table(cg.gate_class[i]);
        let d = transition_density(signal_probability(&tt, leaf_probs));
        density.insert(g, d);
        d
    };
    let mut total = 0.0;
    for &g in &cone.gates {
        let cid = nl.cell_id(g).expect("interior gates are cells");
        let cell = lib.cell(cid).expect("cell from this library");
        for (pin, &fi) in nl.fanins(g).iter().enumerate() {
            let e = if let Some(i) = cone.leaves.iter().position(|&x| x == fi) {
                transition_density(leaf_probs[i])
            } else if matches!(nl.kind(fi), GateKind::Const(_)) {
                0.0
            } else {
                density_of(cg, fi)
            };
            total += cell.pin_cap(pin) * e;
        }
    }
    total
}

/// Replays `plan` onto the netlist, creating one cell gate per step.
/// Constant operands are resolved through `consts` (pre-created by the
/// caller, e.g. the pass's tie-cell pool): `consts[0]` drives 0,
/// `consts[1]` drives 1. Returns the gate implementing the plan root.
///
/// # Panics
///
/// Panics if the plan needs a constant the caller did not provide, or
/// if [`Plan::root`] is not a step (leaf/const roots need no new
/// gates — handle them before calling).
pub fn apply_plan(
    nl: &mut Netlist,
    plan: &Plan,
    leaves: &[GateId],
    consts: [Option<GateId>; 2],
    name_prefix: &str,
) -> GateId {
    let resolve = |built: &[GateId], op: Operand| -> GateId {
        match op {
            Operand::Leaf(i) => leaves[i as usize],
            Operand::Const(b) => {
                consts[usize::from(b)].expect("caller provides needed constant drivers")
            }
            Operand::Step(s) => built[s],
        }
    };
    let mut built: Vec<GateId> = Vec::with_capacity(plan.steps.len());
    for (i, step) in plan.steps.iter().enumerate() {
        let fanins: Vec<GateId> = step.operands.iter().map(|&o| resolve(&built, o)).collect();
        let g = nl.add_cell(format!("{name_prefix}_{i}"), step.cell, &fanins);
        built.push(g);
    }
    match plan.root {
        Operand::Step(s) => built[s],
        other => panic!("plan root {other:?} needs no gates; handle before apply_plan"),
    }
}

/// True when the plan's root is an existing signal (leaf or constant)
/// rather than a new step, i.e. [`apply_plan`] must not be called.
#[must_use]
pub fn plan_root_is_existing(plan: &Plan) -> bool {
    !matches!(plan.root, Operand::Step(_))
}

/// Constants the plan references, as `[needs_zero, needs_one]`.
#[must_use]
pub fn plan_const_needs(plan: &Plan) -> [bool; 2] {
    let mut needs = [false, false];
    let mut mark = |op: Operand| {
        if let Operand::Const(b) = op {
            needs[usize::from(b)] = true;
        }
    };
    for step in &plan.steps {
        for &o in &step.operands {
            mark(o);
        }
    }
    mark(plan.root);
    needs
}
