//! Property-based tests: random mapped cones round-tripped through
//! saturate → extract must preserve the root function — checked both
//! by simulation signatures and by an exact miter proof — and cone
//! tables and random fold shapes must compute what a [`TruthTable`]
//! computes.

use crate::rules::{local_function, Shape, Variant};
use crate::{
    apply_plan, build_egraph, collect_cone, current_cost, extract, plan_const_needs,
    plan_root_is_existing, saturate, signal_probability, ClassId, ConeTable, EgraphConfig, Op,
    Operand, RuleCache,
};
use powder_atpg::equiv::{check_equivalence, EquivOutcome};
use powder_library::lib2;
use powder_logic::TruthTable;
use powder_netlist::{GateId, Netlist};
use powder_sim::{simulate, CellCovers, Patterns};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a random single-output mapped circuit over `inputs` primary
/// inputs: each op row instantiates one lib2 cell whose fanins are
/// drawn from the signals created so far. Returns the netlist and its
/// root (the last gate).
pub(crate) fn random_cone(inputs: usize, ops: &[(u8, u8, u8, u8)]) -> (Netlist, GateId) {
    let lib = Arc::new(lib2());
    let names = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "aoi21", "oai21", "mux21",
    ];
    let cells: Vec<_> = names
        .iter()
        .map(|n| lib.find_by_name(n).expect("lib2 cell"))
        .collect();
    let mut nl = Netlist::new("prop", Arc::clone(&lib));
    let mut sigs: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, (op, a, b, c)) in ops.iter().enumerate() {
        let cell = cells[*op as usize % cells.len()];
        let arity = lib.cell_ref(cell).inputs();
        let picks = [*a, *b, *c];
        let fanins: Vec<GateId> = (0..arity)
            .map(|j| sigs[picks[j % 3] as usize % sigs.len()])
            .collect();
        sigs.push(nl.add_cell(format!("g{k}"), cell, &fanins));
    }
    let root = *sigs.last().expect("at least one gate");
    nl.add_output("f", root);
    (nl, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Saturate → extract → replay on a random cone of up to 8 inputs:
    /// the rewritten netlist must match the original on simulation
    /// signatures AND pass an exact miter equivalence proof, and the
    /// extractor must never price the plan above a fresh re-extraction
    /// of its own output (sanity of the cost model's determinism).
    #[test]
    fn saturate_extract_roundtrip_is_equivalent(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        inputs in 2usize..=8,
    ) {
        let (nl, root) = random_cone(inputs, &ops);
        prop_assume!(nl.validate().is_ok());

        let Some(cone) = collect_cone(&nl, root) else {
            // Degenerate cone (e.g. constant-only support) — nothing to test.
            return Ok(());
        };
        let mut cg = build_egraph(&nl, &cone);
        let mut cache = RuleCache::new(Arc::clone(nl.library()));
        let stats = saturate(&mut cg.eg, &EgraphConfig::default(), &mut cache);
        prop_assert!(stats.nodes <= EgraphConfig::default().node_limit + 64,
            "node budget respected (soft overshoot of one rule batch at most)");

        let leaf_probs = vec![0.5; cone.leaves.len()];
        let plan = extract(&cg.eg, cg.root_class, &leaf_probs)
            .expect("the seeded implementation is always extractable");
        let baseline = current_cost(&nl, &cone, &cg, &leaf_probs);
        prop_assert!(plan.cost <= baseline + 1e-9,
            "extraction never prices above the seeded cone: {} > {}", plan.cost, baseline);

        // Replay the plan next to the original cone and steal the
        // root's fanouts (the output gate), exactly like the pass does.
        let mut rewritten = nl.clone();
        let new_root = if plan_root_is_existing(&plan) {
            match plan.root {
                Operand::Leaf(i) => cone.leaves[i as usize],
                Operand::Const(b) => rewritten.add_const("rt_const", b),
                Operand::Step(_) => unreachable!(),
            }
        } else {
            let needs = plan_const_needs(&plan);
            let consts = [
                needs[0].then(|| rewritten.add_const("rt_c0", false)),
                needs[1].then(|| rewritten.add_const("rt_c1", true)),
            ];
            apply_plan(&mut rewritten, &plan, &cone.leaves, consts, "rt")
        };
        if new_root != root {
            rewritten.replace_all_fanouts(root, new_root);
        }
        rewritten.drain_dirty();
        prop_assert!(rewritten.validate().is_ok(), "rewritten netlist stays valid");

        // Signature equivalence: identical input names in identical
        // order, so the same pattern set drives both netlists.
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(inputs, 4, 0x5EED);
        let va = simulate(&nl, &covers, &pats);
        let vb = simulate(&rewritten, &covers, &pats);
        for (&oa, &ob) in nl.outputs().iter().zip(rewritten.outputs()) {
            prop_assert_eq!(va.get(oa), vb.get(ob), "signature diverged at the output");
        }

        // Exact miter proof over the full netlists.
        match check_equivalence(&nl, &rewritten, 100_000).expect("matching interfaces") {
            EquivOutcome::Equivalent => {}
            EquivOutcome::Inequivalent { witness, output } => prop_assert!(
                false, "miter refuted the rewrite: output {output:?} under {witness:?}"),
            EquivOutcome::Unknown => prop_assert!(false, "tiny cones must not abort"),
        }
    }
}

/// Decodes a fold shape from raw bytes: operands come from a pool of
/// `pool` classes, and each variant is a leaf, a NOT or one of the three
/// binary ops.
fn decode_shape(pool: usize, root: u8, bytes: &[u8]) -> Shape {
    let class = |b: u8| ClassId(3 + 7 * (u32::from(b) % pool as u32));
    let binary = |b: u8| [Op::And, Op::Or, Op::Xor][usize::from(b) % 3];
    let variant = |b: &[u8]| match b[0] % 5 {
        0 => Variant::Leaf(class(b[1])),
        1 => Variant::Not(class(b[1])),
        k => Variant::Gate(binary(k - 2), class(b[1]), class(b[2])),
    };
    match root % 4 {
        0 => Shape::Not(variant(&bytes[..3])),
        k => Shape::Gate(binary(k - 1), variant(&bytes[..3]), variant(&bytes[3..])),
    }
}

/// `shape` with every operand class `c` replaced by `f(c)`.
fn rename(shape: Shape, f: impl Fn(ClassId) -> ClassId) -> Shape {
    let variant = |v: Variant| match v {
        Variant::Leaf(c) => Variant::Leaf(f(c)),
        Variant::Not(c) => Variant::Not(f(c)),
        Variant::Gate(op, a, b) => Variant::Gate(op, f(a), f(b)),
    };
    match shape {
        Shape::Not(v) => Shape::Not(variant(v)),
        Shape::Gate(op, l, r) => Shape::Gate(op, variant(l), variant(r)),
    }
}

/// Reference semantics of a shape: its operands in first-occurrence
/// order and its function over them as a [`TruthTable`].
fn shape_table(shape: Shape) -> (Vec<ClassId>, TruthTable) {
    fn leaves(v: Variant, out: &mut Vec<ClassId>) {
        let cs = match v {
            Variant::Leaf(c) | Variant::Not(c) => vec![c],
            Variant::Gate(_, a, b) => vec![a, b],
        };
        for c in cs {
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
    fn table(v: Variant, ops: &[ClassId]) -> TruthTable {
        let var =
            |c: ClassId| TruthTable::var(ops.iter().position(|&o| o == c).unwrap(), ops.len());
        match v {
            Variant::Leaf(c) => var(c),
            Variant::Not(c) => !var(c),
            Variant::Gate(op, a, b) => binary(op, var(a), var(b)),
        }
    }
    fn binary(op: Op, a: TruthTable, b: TruthTable) -> TruthTable {
        match op {
            Op::And => a & b,
            Op::Or => a | b,
            _ => a ^ b,
        }
    }
    let mut ops = Vec::new();
    match shape {
        Shape::Not(v) => {
            leaves(v, &mut ops);
            let tt = !table(v, &ops);
            (ops, tt)
        }
        Shape::Gate(op, l, r) => {
            leaves(l, &mut ops);
            leaves(r, &mut ops);
            let tt = binary(op, table(l, &ops), table(r, &ops));
            (ops, tt)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The packed matcher agrees with the truth-table computation on
    /// operands, function and liveness, and the cache's fold for the
    /// shape's signature is what
    /// `Library::match_function` finds on a fresh table, on the miss
    /// that fills the signature's slot and on the hit after it.
    #[test]
    fn packed_shapes_match_truth_tables(
        pool in 1usize..=4,
        root in any::<u8>(),
        bytes in proptest::collection::vec(any::<u8>(), 6),
    ) {
        let shape = decode_shape(pool, root, &bytes);
        let (ops, tt) = shape_table(shape);
        let p = shape.pack();
        prop_assert_eq!(&p.ops[..p.k], &ops[..]);
        prop_assert_eq!(u64::from(p.bits), tt.as_words()[0]);
        prop_assert_eq!(p.all_live(), tt.support().len() == ops.len());

        let lib = Arc::new(lib2());
        let mut cache = RuleCache::new(lib.clone());
        let fresh = lib.match_function(&tt).filter(|_| p.all_live());
        prop_assert_eq!(cache.fold(&p), fresh.as_ref());
        prop_assert_eq!(cache.fold(&p), fresh.as_ref());
    }

    /// Shapes of one signature pack one function: a shape with its
    /// classes renamed keeps its signature and packed table, and two
    /// random shapes with equal signatures have equal packed tables.
    #[test]
    fn signatures_fix_the_packed_function(
        pool in 1usize..=4,
        roots in (any::<u8>(), any::<u8>()),
        bytes in proptest::collection::vec(any::<u8>(), 12),
        offset in 1u32..1000,
    ) {
        let a = decode_shape(pool, roots.0, &bytes[..6]);
        let b = decode_shape(pool, roots.1, &bytes[6..]);
        let (pa, pb) = (a.pack(), b.pack());
        let pr = rename(a, |c| ClassId(offset + 5 * c.0)).pack();
        prop_assert_eq!((pr.sig, pr.k, pr.bits), (pa.sig, pa.k, pa.bits));
        if pa.sig == pb.sig {
            prop_assert_eq!((pa.k, pa.bits), (pb.k, pb.bits));
        }
    }

    /// `class_fold`'s packed local function equals the projection of
    /// the class table onto its support, for supports of 0 to 5 of up
    /// to 8 variables.
    #[test]
    fn class_tables_pack_like_projection(
        vars in 1usize..=8,
        picks in proptest::collection::vec(0usize..8, 0..=5),
        local in any::<u32>(),
    ) {
        let mut picked: Vec<usize> = picks.into_iter().filter(|&v| v < vars).collect();
        picked.sort_unstable();
        picked.dedup();
        let tt = TruthTable::from_fn(vars, |m| {
            let x = picked.iter().enumerate().fold(0, |acc, (i, &v)| acc | ((m >> v) & 1) << i);
            (local >> x) & 1 == 1
        });
        let support = tt.support();
        let want = (1..=4).contains(&support.len()).then(|| {
            let bits = tt.project(&support).as_words()[0] as u16;
            (support.clone(), bits)
        });
        let got = local_function(&ConeTable::from_truth_table(&tt), vars)
            .map(|(s, k, bits)| (s[..k].to_vec(), bits));
        prop_assert_eq!(got, want);
    }
}

/// The table over `vars` variables whose minterm `m` is bit `m % 64` of
/// `words[m / 64]`.
fn table_of(vars: usize, words: &[u64]) -> TruthTable {
    TruthTable::from_fn(vars, |m| (words[(m / 64) as usize] >> (m % 64)) & 1 == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A cone table computes what a [`TruthTable`] computes: the
    /// constants and projections, `!`, `&`, `|` and `^`, composition
    /// with a cell of 0 to 6 pins, and the signal probability, the last
    /// bit for bit.
    #[test]
    fn cone_tables_match_truth_tables(
        vars in 1usize..=8,
        words in proptest::collection::vec(any::<u64>(), 8),
        pins in 0usize..=6,
        cell in any::<u64>(),
        subs in proptest::collection::vec(any::<u64>(), 24),
        probs in proptest::collection::vec(any::<u16>(), 8),
    ) {
        let cone = |tt: &TruthTable| ConeTable::from_truth_table(tt);
        let one = ConeTable::one(vars);
        prop_assert_eq!(one, cone(&TruthTable::one(vars)));
        prop_assert_eq!(ConeTable::ZERO, cone(&TruthTable::zero(vars)));
        for i in 0..vars {
            prop_assert_eq!(ConeTable::var(i, vars), cone(&TruthTable::var(i, vars)));
        }

        let (ta, tb) = (table_of(vars, &words[..4]), table_of(vars, &words[4..]));
        let (a, b) = (cone(&ta), cone(&tb));
        prop_assert_eq!(one ^ a, cone(&!ta.clone()));
        prop_assert_eq!(a & b, cone(&(ta.clone() & tb.clone())));
        prop_assert_eq!(a | b, cone(&(ta.clone() | tb.clone())));
        prop_assert_eq!(a ^ b, cone(&(ta.clone() ^ tb)));

        let f = table_of(pins, &[cell]);
        let sub_tts: Vec<TruthTable> =
            (0..pins).map(|i| table_of(vars, &subs[4 * i..4 * i + 4])).collect();
        let want = match pins {
            0 if f.eval(0) => TruthTable::one(vars),
            0 => TruthTable::zero(vars),
            _ => f.compose(&sub_tts),
        };
        let got = ConeTable::compose(&f, |i| cone(&sub_tts[i]), one);
        prop_assert_eq!(got, cone(&want));

        let p: Vec<f64> = probs[..vars]
            .iter()
            .map(|&x| f64::from(x) / f64::from(u16::MAX))
            .collect();
        let mut want = 0.0;
        for m in ta.minterms() {
            let mut term = 1.0;
            for (i, &pi) in p.iter().enumerate() {
                term *= if (m >> i) & 1 == 1 { pi } else { 1.0 - pi };
            }
            want += term;
        }
        let got = signal_probability(&a, &p);
        prop_assert!(got == want, "signal probability {} != {}", got, want);
    }
}
