//! The saturation loop and shape matcher without semi-naive visits or
//! signature-keyed folds, kept as a test oracle: every sweep runs every
//! rule on every node and folds the node's class after it, and every
//! shape is packed and matched from a fresh truth table. The tests
//! below compare its e-graphs with [`super::saturate`]'s node table for
//! node table.

use super::{
    assoc, cell_expand, child_variants, const_fold, demorgan, factor, grandchildren,
    local_function, xor_expand, RuleCache, SaturationStats, Shape, RULE_CELL_FOLD, RULE_COMM,
};
use crate::graph::{ClassId, EGraph, Op};
use crate::EgraphConfig;
use powder_library::Match;
use powder_logic::TruthTable;

/// Bounded saturation visiting every node on every sweep.
pub(crate) fn saturate(
    eg: &mut EGraph,
    cfg: &EgraphConfig,
    cache: &mut RuleCache,
) -> SaturationStats {
    let mut stats = SaturationStats::default();
    for _ in 0..cfg.iter_limit {
        stats.iters += 1;
        let frontier = eg.node_count();
        for idx in 0..frontier {
            if eg.node_count() >= cfg.node_limit {
                break;
            }
            apply_rules(eg, idx, cache);
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

/// Applies every rule to the node at table index `idx`, then folds its
/// class.
fn apply_rules(eg: &mut EGraph, idx: usize, cache: &mut RuleCache) {
    let entry = eg.node_entries()[idx];
    match entry.op {
        Op::Cell(cid) => cell_expand(eg, cid, &entry, cache),
        op @ (Op::And | Op::Or | Op::Xor) => {
            let children = grandchildren(eg, idx as u32);
            eg.add(op, &[children[1], children[0]], RULE_COMM);
            if op == Op::Xor {
                xor_expand(eg, &children);
            } else {
                assoc(eg, op, &children);
                factor(eg, op, &children);
            }
            cell_fold(eg, op, &children);
        }
        Op::Not => {
            let child = eg.children(&entry)[0];
            demorgan(eg, child);
            cell_fold(eg, Op::Not, &[child]);
        }
        Op::Var(_) | Op::Const(_) => {}
    }
    const_fold(eg, entry.class);
    class_fold(eg, entry.class);
}

/// Every depth-1 and depth-2 shape rooted at `op(children)`, matched
/// one by one.
fn cell_fold(eg: &mut EGraph, op: Op, children: &[ClassId]) {
    match op {
        Op::Not => {
            for &(v, _) in &*child_variants(eg, children[0]) {
                try_match_shape(eg, Shape::Not(v));
            }
        }
        _ => {
            let left = child_variants(eg, children[0]);
            let right = child_variants(eg, children[1]);
            for &(l, _) in &*left {
                for &(r, _) in &*right {
                    try_match_shape(eg, Shape::Gate(op, l, r));
                }
            }
        }
    }
}

/// Packs one shape, and adds its cell node when every operand is live
/// and the library matches its function.
fn try_match_shape(eg: &mut EGraph, shape: Shape) {
    let p = shape.pack();
    if !p.all_live() {
        return;
    }
    if let Some(m) = lookup(eg, p.k, p.bits) {
        let mut pins = [ClassId(0); 4];
        for (pin, &i) in pins.iter_mut().zip(&m.perm) {
            *pin = p.ops[i];
        }
        eg.add(Op::Cell(m.cell), &pins[..m.perm.len()], RULE_CELL_FOLD);
    }
}

/// The class as one cell over the leaves it depends on.
fn class_fold(eg: &mut EGraph, class: ClassId) {
    let Some((support, k, bits)) = local_function(&eg.class_table(class), eg.leaves()) else {
        return;
    };
    if let Some(m) = lookup(eg, k, bits) {
        let mut pins = [ClassId(0); 4];
        for (pin, &i) in pins.iter_mut().zip(&m.perm) {
            *pin = eg.add(Op::Var(support[i] as u32), &[], RULE_CELL_FOLD);
        }
        eg.add(Op::Cell(m.cell), &pins[..m.perm.len()], RULE_CELL_FOLD);
    }
}

/// The library match of the `k`-input function `bits`, from a fresh
/// truth table.
fn lookup(eg: &EGraph, k: usize, bits: u16) -> Option<Match> {
    eg.library()
        .match_function(&TruthTable::from_fn(k, |m| (bits >> m) & 1 == 1))
}

mod tests {
    use super::*;
    use crate::graph::RuleId;
    use crate::proptests::random_cone;
    use crate::{build_egraph, collect_cone};
    use powder_library::lib2;
    use powder_netlist::{GateKind, Netlist};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Every node of `eg` as plain values: op, children, class, rule.
    fn node_table(eg: &EGraph) -> Vec<(Op, Vec<ClassId>, ClassId, RuleId)> {
        eg.node_entries()
            .iter()
            .map(|e| (e.op, eg.children(e).to_vec(), e.class, e.rule))
            .collect()
    }

    /// Saturates every cell-rooted cone of `nl` under `cfg` with
    /// [`super::super::saturate`] and with the reference, one rule cache
    /// each across all cones, and asserts equal stats and node tables.
    /// Returns the number of cones compared.
    fn compare_cones(nl: &Netlist, cfg: &EgraphConfig) -> usize {
        let mut fast = RuleCache::new(Arc::clone(nl.library()));
        let mut slow = RuleCache::new(Arc::clone(nl.library()));
        let roots: Vec<_> = nl
            .iter_live()
            .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
            .collect();
        let mut cones = 0;
        for root in roots {
            let Some(cone) = collect_cone(nl, root) else {
                continue;
            };
            let mut got = build_egraph(nl, &cone);
            let mut want = build_egraph(nl, &cone);
            let a = super::super::saturate(&mut got.eg, cfg, &mut fast);
            let b = saturate(&mut want.eg, cfg, &mut slow);
            assert_eq!(
                (a.iters, a.nodes, a.classes, a.saturated),
                (b.iters, b.nodes, b.classes, b.saturated),
                "stats of the cone at {root:?} under {cfg:?}"
            );
            assert_eq!(
                node_table(&got.eg),
                node_table(&want.eg),
                "node table of the cone at {root:?} under {cfg:?}"
            );
            cones += 1;
        }
        cones
    }

    /// The default budget, the CI pin's tight one, and one that stops
    /// most cones in the middle of a sweep.
    const BUDGETS: [EgraphConfig; 3] = [
        EgraphConfig {
            node_limit: 512,
            iter_limit: 6,
        },
        EgraphConfig {
            node_limit: 256,
            iter_limit: 4,
        },
        EgraphConfig {
            node_limit: 100,
            iter_limit: 9,
        },
    ];

    #[test]
    fn semi_naive_saturation_matches_reference_on_suite_cones() {
        let lib = Arc::new(lib2());
        for name in ["bw", "x3"] {
            let nl = powder_benchmarks::build(name, Arc::clone(&lib)).expect("suite circuit");
            for cfg in &BUDGETS {
                assert!(compare_cones(&nl, cfg) > 100, "{name}: too few cones");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same on random mapped cones under random budgets.
        #[test]
        fn semi_naive_saturation_matches_reference_on_random_cones(
            ops in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
            inputs in 2usize..=8,
            node_limit in 8usize..700,
            iter_limit in 1usize..9,
        ) {
            let (nl, _) = random_cone(inputs, &ops);
            prop_assume!(nl.validate().is_ok());
            compare_cones(&nl, &EgraphConfig { node_limit, iter_limit });
        }
    }
}
