//! Switched-capacitance cost extraction.
//!
//! Each e-class is priced by the cheapest implementable e-node it
//! contains, where the cost of a cell node is the switched capacitance
//! its *inputs* present: `Σ pin_cap(i) · E(child_i)`, with `E` the
//! transition density `2·p·(1−p)` computed exactly from the child
//! class's truth table and the cone-leaf signal probabilities. Leaves
//! and constants cost nothing (they already exist in the netlist), and
//! abstract AND/OR/NOT/XOR nodes are unimplementable. The output load
//! of the cone root is identical for every candidate (same function,
//! same fanout), so it cancels and is not priced.
//!
//! Extraction runs a deterministic bottom-up fixpoint over the node
//! table (insertion order, strict `1e-12` improvement threshold,
//! first-best wins ties), then walks the chosen nodes from the root
//! class into a [`Plan`] — a topologically ordered list of cell
//! instantiations over leaf/const/step operands that the pass replays
//! onto the netlist.

use crate::graph::{ClassId, EGraph, Op, RuleId};
use crate::table::{minterms, ConeTable, MAX_CONE_LEAVES};
use powder_library::CellId;

/// Strict-improvement threshold used by cost comparisons, mirroring the
/// pass layer's power-acceptance epsilon.
pub const COST_EPS: f64 = 1e-12;

/// Exact signal probability of a function of the leaves given their
/// independent one-probabilities: `Σ_{m ∈ minterms} Π_i (m_i ? p_i :
/// 1−p_i)`, summed over the minterms in ascending order.
#[must_use]
pub fn signal_probability(tt: &ConeTable, leaf_probs: &[f64]) -> f64 {
    assert!(leaf_probs.len() <= MAX_CONE_LEAVES, "too many leaves");
    let mut p = 0.0;
    for m in minterms(tt.words()) {
        let mut term = 1.0;
        for (i, &pi) in leaf_probs.iter().enumerate() {
            term *= if (m >> i) & 1 == 1 { pi } else { 1.0 - pi };
        }
        p += term;
    }
    p
}

/// Transition density of a signal with one-probability `p` under the
/// temporal-independence model: `2·p·(1−p)`.
#[must_use]
pub fn transition_density(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

/// An operand of a plan step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Cone leaf `i` (an existing netlist signal).
    Leaf(u32),
    /// A constant driver.
    Const(bool),
    /// The output of an earlier plan step.
    Step(usize),
}

/// One cell instantiation in an extraction plan.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// The library cell to instantiate.
    pub cell: CellId,
    /// Operand per input pin, in pin order.
    pub operands: Vec<Operand>,
}

/// A topologically ordered implementation of the root class.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Cell instantiations; step `i` may only reference steps `< i`.
    pub steps: Vec<PlanStep>,
    /// The signal implementing the root class.
    pub root: Operand,
    /// Modelled input switched capacitance of the plan, `Σ C·E`.
    pub cost: f64,
    /// Rules (sorted, deduplicated) that created the chosen nodes —
    /// the provenance chain quarantined if the guard refutes the edit.
    pub rules: Vec<RuleId>,
}

/// Per-class extraction state.
struct Choice {
    cost: f64,
    node: usize,
}

/// Extracts the cheapest implementable DAG for `root` from `eg`, or
/// `None` if no implementable form exists within the saturated graph.
///
/// `leaf_probs[i]` is the signal one-probability of cone leaf `i`.
#[must_use]
pub fn extract(eg: &EGraph, root: ClassId, leaf_probs: &[f64]) -> Option<Plan> {
    assert_eq!(eg.leaves(), leaf_probs.len(), "one probability per leaf");
    let n_classes = eg.class_count();
    let mut best: Vec<Option<Choice>> = (0..n_classes).map(|_| None).collect();
    // Cache each class's transition density (exact, from its table).
    let mut density: Vec<Option<f64>> = vec![None; n_classes];
    let class_density = |d: &mut Vec<Option<f64>>, c: ClassId| -> f64 {
        let i = c.0 as usize;
        if let Some(v) = d[i] {
            return v;
        }
        let p = signal_probability(&eg.class_table(c), leaf_probs);
        let v = transition_density(p);
        d[i] = Some(v);
        v
    };

    // Bottom-up fixpoint: keep sweeping the node table until no class
    // improves. Deterministic: insertion order, strict epsilon, first
    // best wins.
    loop {
        let mut changed = false;
        for (idx, node) in eg.node_entries().iter().enumerate() {
            let cost = match node.op {
                Op::Var(_) | Op::Const(_) => Some(0.0),
                Op::Not | Op::And | Op::Or | Op::Xor => None,
                Op::Cell(cid) => {
                    let cell = eg.library().cell(cid).expect("cell from this library");
                    let mut total = 0.0;
                    let mut ok = true;
                    for (pin, &ch) in eg.children(node).iter().enumerate() {
                        match &best[ch.0 as usize] {
                            Some(choice) => {
                                total += choice.cost
                                    + cell.pin_cap(pin) * class_density(&mut density, ch);
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        Some(total)
                    } else {
                        None
                    }
                }
            };
            if let Some(cost) = cost {
                let slot = &mut best[node.class.0 as usize];
                let better = match slot {
                    None => true,
                    Some(prev) => cost < prev.cost - COST_EPS,
                };
                if better {
                    *slot = Some(Choice { cost, node: idx });
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Note: summing child plan costs over-counts shared sub-DAGs (a
    // step reused twice is only built once), so `cost` is an upper
    // bound; the pass re-measures real power after applying the plan.
    best[root.0 as usize].as_ref()?;

    // Walk the chosen nodes into a topologically ordered plan, sharing
    // steps per class and bailing out on (impossible, but checked)
    // cycles among the chosen nodes.
    let mut plan = Plan {
        steps: Vec::new(),
        root: Operand::Const(false),
        cost: best[root.0 as usize]
            .as_ref()
            .map(|c| c.cost)
            .unwrap_or(0.0),
        rules: Vec::new(),
    };
    let mut memo: Vec<Option<Operand>> = vec![None; n_classes];
    let mut on_stack = vec![false; n_classes];
    let root_op = walk(eg, &best, root, &mut plan, &mut memo, &mut on_stack)?;
    plan.root = root_op;
    plan.rules.sort_unstable();
    plan.rules.dedup();
    Some(plan)
}

/// Emits the steps implementing `class`, returning its operand.
fn walk(
    eg: &EGraph,
    best: &[Option<Choice>],
    class: ClassId,
    plan: &mut Plan,
    memo: &mut [Option<Operand>],
    on_stack: &mut [bool],
) -> Option<Operand> {
    let i = class.0 as usize;
    if let Some(op) = memo[i] {
        return Some(op);
    }
    if on_stack[i] {
        return None; // cycle among chosen nodes: refuse to extract
    }
    on_stack[i] = true;
    let choice = best[i].as_ref()?;
    let node = &eg.node_entries()[choice.node];
    let result = match node.op {
        Op::Var(v) => Some(Operand::Leaf(v)),
        Op::Const(b) => Some(Operand::Const(b)),
        Op::Cell(cid) => {
            let children = eg.children(node);
            let mut operands = Vec::with_capacity(children.len());
            let mut ok = true;
            for &ch in children {
                match walk(eg, best, ch, plan, memo, on_stack) {
                    Some(o) => operands.push(o),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                if !plan.rules.contains(&node.rule) {
                    plan.rules.push(node.rule);
                }
                let step = plan.steps.len();
                plan.steps.push(PlanStep {
                    cell: cid,
                    operands,
                });
                Some(Operand::Step(step))
            } else {
                None
            }
        }
        Op::Not | Op::And | Op::Or | Op::Xor => None,
    };
    on_stack[i] = false;
    if let Some(op) = result {
        memo[i] = Some(op);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RULE_SEED;
    use crate::rules::{saturate, RuleCache};
    use crate::EgraphConfig;
    use powder_library::lib2;
    use std::sync::Arc;

    #[test]
    fn signal_probability_matches_uniform_fraction() {
        let tt = ConeTable::var(0, 2) & ConeTable::var(1, 2);
        let p = signal_probability(&tt, &[0.5, 0.5]);
        assert!((p - 0.25).abs() < 1e-12);
        let skew = signal_probability(&tt, &[0.9, 0.5]);
        assert!((skew - 0.45).abs() < 1e-12);
    }

    #[test]
    fn extracts_single_cell_for_and_cone() {
        let lib = Arc::new(lib2());
        let mut eg = EGraph::new(lib.clone(), 2);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let b = eg.add(Op::Var(1), &[], RULE_SEED);
        let root = eg.add(Op::And, &[a, b], RULE_SEED);
        saturate(&mut eg, &EgraphConfig::default(), &mut RuleCache::new(lib));
        let plan = extract(&eg, root, &[0.5, 0.5]).expect("AND is mappable");
        assert!(!plan.steps.is_empty());
        assert!(matches!(plan.root, Operand::Step(_)));
        assert!(plan.cost > 0.0);
    }

    #[test]
    fn constant_class_extracts_for_free() {
        let lib = Arc::new(lib2());
        let mut eg = EGraph::new(lib.clone(), 1);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let na = eg.add(Op::Not, &[a], RULE_SEED);
        let root = eg.add(Op::And, &[a, na], RULE_SEED);
        saturate(&mut eg, &EgraphConfig::default(), &mut RuleCache::new(lib));
        let plan = extract(&eg, root, &[0.5]).expect("constant is free");
        assert_eq!(plan.root, Operand::Const(false));
        assert!(plan.steps.is_empty());
        assert_eq!(plan.cost, 0.0);
    }

    #[test]
    fn extraction_prefers_low_activity_operand_order() {
        // Cost must depend on leaf probabilities: a highly active leaf
        // makes the plan strictly more expensive than a quiet one.
        let lib = Arc::new(lib2());
        let mut eg = EGraph::new(lib.clone(), 2);
        let a = eg.add(Op::Var(0), &[], RULE_SEED);
        let b = eg.add(Op::Var(1), &[], RULE_SEED);
        let root = eg.add(Op::And, &[a, b], RULE_SEED);
        saturate(&mut eg, &EgraphConfig::default(), &mut RuleCache::new(lib));
        let active = extract(&eg, root, &[0.5, 0.5]).unwrap();
        let quiet = extract(&eg, root, &[0.02, 0.02]).unwrap();
        assert!(quiet.cost < active.cost);
    }
}
