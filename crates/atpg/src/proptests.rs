//! Property-based tests: the miter solver against brute-force enumeration,
//! the chunked exhaustive path against its whole-column reference,
//! end-to-end soundness of the check pipeline, soundness of window-scoped
//! proofs, and the word-major candidate generator against its row-by-row
//! reference.

use crate::candidates::reference;
use crate::sat::{self, NodeId, SatBuilder, SatOutcome};
use crate::tests_support::{add_gate, mix, random_miter, MiterShape};
use crate::{
    check_substitution, generate_candidates_scoped, CandidateConfig, CandidateScope, CheckArena,
    CheckOutcome, Substitution,
};
use powder_library::genlib::{parse_genlib, write_genlib};
use powder_library::{lib2, Library};
use powder_logic::TruthTable;
use powder_netlist::{partition_windows, GateId, GateKind, Netlist, WindowConfig};
use powder_sim::{simulate, CellCovers, Patterns};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a random single-output circuit; returns its node table and
/// output with its brute-force function alongside.
fn random_sat_case(inputs: usize, ops: &[(u8, u8, u8)]) -> (SatBuilder, NodeId, TruthTable) {
    let mut b = SatBuilder::default();
    let mut nodes: Vec<(u32, TruthTable)> = Vec::new();
    let mut funcs: Vec<TruthTable> = Vec::new();
    for i in 0..inputs {
        let id = b.pi(i);
        let f = TruthTable::var(i, inputs);
        nodes.push((id, f.clone()));
        funcs.push(f);
    }
    for (op, x, y) in ops {
        let a = nodes[*x as usize % nodes.len()].clone();
        let c = nodes[*y as usize % nodes.len()].clone();
        let (id, f) = match op % 5 {
            0 => (b.xor2(a.0, c.0), a.1 ^ c.1),
            1 => (b.or2(a.0, c.0), a.1 | c.1),
            2 => (b.and2(a.0, c.0), a.1 & c.1),
            3 => (b.not(a.0), !a.1),
            _ => {
                let aoi =
                    !((TruthTable::var(0, 3) & TruthTable::var(1, 3)) | TruthTable::var(2, 3));
                let d = nodes[(*x as usize + *y as usize) % nodes.len()].clone();
                (
                    add_gate(&mut b, &aoi, &[a.0, c.0, d.0]),
                    aoi.compose(&[a.1, c.1, d.1]),
                )
            }
        };
        nodes.push((id, f));
    }
    let (out, f) = nodes.last().expect("nonempty").clone();
    (b, out, f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver's verdict equals brute force, and SAT witnesses actually
    /// satisfy the circuit, from one pattern word up to 2^18 patterns.
    #[test]
    fn solver_matches_brute_force(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..20),
        inputs in 1usize..19,
    ) {
        let (mut circuit, out, f) = random_sat_case(inputs, &ops);
        match circuit.solve(inputs, out, 100_000) {
            SatOutcome::Sat(witness) => {
                let m = (0..inputs).filter(|&i| witness[i]).fold(0u64, |m, i| m | 1 << i);
                prop_assert!(f.eval(m), "witness {witness:?} does not satisfy");
            }
            SatOutcome::Unsat => prop_assert!(f.is_zero()),
            SatOutcome::Aborted => prop_assert!(false, "tiny circuits must not abort"),
        }
    }

    /// For random netlists, check_substitution's verdict agrees with
    /// exhaustive equivalence checking of the rewired clone.
    #[test]
    fn check_agrees_with_exhaustive_equivalence(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 3..14),
        inputs in 2usize..5,
        pick in any::<u16>(),
    ) {
        let lib = Arc::new(lib2());
        let names = ["and2", "or2", "nand2", "xor2", "inv1"];
        let cells: Vec<_> = names.iter().map(|n| lib.find_by_name(n).unwrap()).collect();
        let mut nl = Netlist::new("p", lib);
        let mut sigs: Vec<GateId> =
            (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
        for (k, (op, a, c)) in ops.iter().enumerate() {
            let cell = cells[*op as usize % cells.len()];
            let lib = nl.library().clone();
            let fanins: Vec<GateId> = (0..lib.cell_ref(cell).inputs())
                .map(|j| sigs[(if j == 0 { *a } else { *c }) as usize % sigs.len()])
                .collect();
            sigs.push(nl.add_cell(format!("g{k}"), cell, &fanins));
        }
        nl.add_output("f", *sigs.last().expect("nonempty"));
        prop_assume!(nl.validate().is_ok());

        // Pick an arbitrary (possibly non-permissible) IS2 rewiring.
        let cell_gates: Vec<GateId> = nl
            .iter_live()
            .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
            .collect();
        prop_assume!(!cell_gates.is_empty());
        let sink = cell_gates[pick as usize % cell_gates.len()];
        let sources: Vec<GateId> = nl
            .iter_live()
            .filter(|&g| !matches!(nl.kind(g), GateKind::Output))
            .filter(|&g| !nl.reaches(sink, g) && g != nl.fanins(sink)[0])
            .collect();
        prop_assume!(!sources.is_empty());
        let b = sources[(pick >> 4) as usize % sources.len()];
        let sub = Substitution::Is2 { sink, pin: 0, b, invert: (pick & 1) == 1 };
        prop_assume!(sub.is_structurally_valid(&nl));

        // Exhaustive ground truth on a rewired clone.
        let mut rewired = nl.clone();
        crate::tests_support::apply_is2(&mut rewired, &sub);
        let equivalent = crate::tests_support::exhaustive_equivalent(&nl, &rewired);

        match check_substitution(&nl, &sub, 100_000) {
            CheckOutcome::Permissible => prop_assert!(equivalent, "false positive on {sub:?}"),
            CheckOutcome::NotPermissible(w) => {
                prop_assert!(!equivalent, "false negative on {sub:?} (witness {w:?})");
            }
            CheckOutcome::Aborted => prop_assert!(false, "tiny cones must not abort"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chunked exhaustive path returns exactly the outcome of its
    /// whole-column reference, witness bits included, on seeded random
    /// miters of 1 to 18 support: random functions of 1 to 6 inputs, a
    /// 7-input one, supports below 6 (the padding mask), and on half
    /// the cases supports of 15 to 18 whose guard variables put the first
    /// satisfying pattern in a late chunk of many.
    #[test]
    fn chunked_exhaustive_matches_reference(seed in any::<u64>(), knobs in any::<u64>()) {
        let mut state = knobs;
        let late = mix(&mut state) & 1 == 1;
        let support = if late { 15 + mix(&mut state) as usize % 4 } else { 1 + mix(&mut state) as usize % 18 };
        let shape = MiterShape {
            support,
            gates: 1 + mix(&mut state) as usize % 24,
            max_arity: 1 + mix(&mut state) as usize % 6,
            wide: mix(&mut state).is_multiple_of(4),
            guard: if late { 1 + mix(&mut state) as usize % 4 } else { 0 },
            perturb: !mix(&mut state).is_multiple_of(4),
        };
        let (mut b, out) = random_miter(seed, shape);
        let expect = sat::reference::solve_exhaustive(&b, support, out);
        prop_assert_eq!(b.solve(support, out, 0), expect, "{:?}", shape);
    }
}

/// lib2 as genlib text without `xnor2` and `nor2`: OS3 then has no XNOR
/// partner and no NOR family.
fn lib2_without_xnor_nor() -> Library {
    let text: Vec<String> = write_genlib(&lib2())
        .lines()
        .filter(|l| !matches!(l.split_whitespace().nth(1), Some("xnor2" | "nor2")))
        .map(str::to_owned)
        .collect();
    parse_genlib("lib2-no-xnor-nor", &text.join("\n")).expect("filtered lib2 parses")
}

/// A random mapped netlist: each gate is a random library cell whose pins
/// read random earlier signals, half the time from the last few (deep,
/// reconvergent logic), else from anywhere; every seventh gate and the
/// last drive a primary output.
fn random_mapped(lib: Arc<Library>, inputs: usize, gates: &[(u8, u16, u16, u16, u16)]) -> Netlist {
    let cells: Vec<_> = lib.iter().map(|(id, _)| id).collect();
    let mut nl = Netlist::new("cands", lib);
    let mut sigs: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, &(cell, p0, p1, p2, p3)) in gates.iter().enumerate() {
        let cell = cells[cell as usize % cells.len()];
        let arity = nl.library().cell_ref(cell).inputs();
        let fanins: Vec<GateId> = [p0, p1, p2, p3][..arity]
            .iter()
            .map(|&p| {
                let n = sigs.len();
                let span = if p & 1 == 1 { n.min(8) } else { n };
                sigs[n - 1 - (p as usize >> 1) % span]
            })
            .collect();
        let g = nl.add_cell(format!("g{k}"), cell, &fanins);
        if k % 7 == 6 || k + 1 == gates.len() {
            nl.add_output(format!("o{k}"), g);
        }
        sigs.push(g);
    }
    nl
}

/// No scope, independent random target/source masks of random length,
/// or one window of a random partition.
fn random_scope(nl: &Netlist, seed: u64) -> Option<CandidateScope> {
    let mut state = seed;
    let bound = nl.id_bound();
    match mix(&mut state) % 3 {
        0 => None,
        1 => {
            let len = bound / 2 + (mix(&mut state) as usize) % (bound / 2 + 1);
            let sources = (0..len)
                .map(|_| !mix(&mut state).is_multiple_of(4))
                .collect();
            let targets = (0..len)
                .map(|_| mix(&mut state).is_multiple_of(2))
                .collect();
            Some(CandidateScope { targets, sources })
        }
        _ => {
            let size = 16 + (mix(&mut state) as usize) % 48;
            let plan = partition_windows(
                nl,
                WindowConfig {
                    size,
                    overlap: size / 4,
                },
            );
            let w = &plan.windows[(mix(&mut state) as usize) % plan.windows.len()];
            let mut targets = vec![false; bound];
            for g in &w.core {
                targets[g.0 as usize] = true;
            }
            let mut sources = vec![false; bound];
            for g in w.scope() {
                sources[g.0 as usize] = true;
            }
            Some(CandidateScope { targets, sources })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The word-major generator returns exactly the reference's list, in
    /// order, on random mapped netlists whose sources span one to three
    /// 64-bit blocks, over 1 to 20 pattern words (plus learned patterns
    /// filling part of a tail word), random scopes, tight and degenerate
    /// limits, every class toggle, and a library without `xnor2`/`nor2`.
    #[test]
    fn word_major_candidates_match_reference(
        gates in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()),
            12..180,
        ),
        inputs in 3usize..12,
        words in 1usize..21,
        knobs in any::<u64>(),
        scope_seed in any::<u64>(),
    ) {
        let on = |bit: u32| (knobs >> bit) & 3 != 0;
        let lib = Arc::new(if (knobs >> 20) & 1 == 1 { lib2_without_xnor_nor() } else { lib2() });
        let nl = random_mapped(lib, inputs, &gates);
        prop_assume!(nl.validate().is_ok());
        let covers = CellCovers::new(nl.library());
        let mut patterns = Patterns::random(inputs, words, knobs >> 32);
        for p in 0..(knobs >> 21) % 4 {
            let bits: Vec<bool> = (0..inputs).map(|i| (knobs >> ((p as usize * 7 + i) % 64)) & 1 == 1).collect();
            patterns.push_pattern(&bits);
        }
        let values = simulate(&nl, &covers, &patterns);
        let config = CandidateConfig {
            max_per_signal: (knobs & 3) as usize,
            pair_pool_cap: ((knobs >> 2) % 6) as usize,
            enable_os2: on(5),
            enable_is2: on(7),
            enable_os3: on(9),
            enable_is3: on(11),
            enable_inverted: on(13),
        };
        let scope = random_scope(&nl, scope_seed);
        let expect = reference::generate_candidates_scoped(&nl, &covers, &values, &config, scope.as_ref());
        let got = generate_candidates_scoped(&nl, &covers, &values, &config, scope.as_ref());
        prop_assert!(got == expect, "{config:?}: {} candidates, reference {}", got.len(), expect.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Window-scoped proofs are sound, and a scope covering the whole
    /// netlist decides exactly like no scope. On a random mapped netlist,
    /// one window of a random partition proposes its own candidates, plus
    /// arbitrary (mostly impermissible) IS2 and OS2 rewirings of its core
    /// gates to its scope signals; each is proven unscoped, under a full
    /// scope and under the window's scope. A full scope may only turn a
    /// counterexample into `Aborted` (its witness is in cut-variable
    /// space), and a window-scoped `Permissible` must hold unscoped.
    #[test]
    fn scoped_proofs_are_sound(
        gates in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()),
            24..96,
        ),
        inputs in 3usize..10,
        seed in any::<u64>(),
    ) {
        const LIMIT: usize = 10_000;
        let nl = random_mapped(Arc::new(lib2()), inputs, &gates);
        prop_assume!(nl.validate().is_ok());
        let mut state = seed;
        let size = 8 + (mix(&mut state) as usize) % 24;
        let plan = partition_windows(&nl, WindowConfig { size, overlap: size / 4 });
        let w = &plan.windows[(mix(&mut state) as usize) % plan.windows.len()];
        let bound = nl.id_bound();
        let mut scope = CandidateScope { targets: vec![false; bound], sources: vec![false; bound] };
        for g in &w.core {
            scope.targets[g.0 as usize] = true;
        }
        let signals: Vec<GateId> = w.scope();
        for g in &signals {
            scope.sources[g.0 as usize] = true;
        }

        let covers = CellCovers::new(nl.library());
        let values = simulate(&nl, &covers, &Patterns::random(inputs, 1, seed));
        let cands = generate_candidates_scoped(
            &nl, &covers, &values, &CandidateConfig::default(), Some(&scope),
        );
        // An even sample of at most 32 candidates keeps the debug run short.
        let mut subs: Vec<Substitution> =
            cands.iter().copied().step_by(cands.len() / 32 + 1).collect();
        let cores: Vec<GateId> = w
            .core
            .iter()
            .copied()
            .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
            .collect();
        let sources: Vec<GateId> = signals
            .into_iter()
            .filter(|&g| !matches!(nl.kind(g), GateKind::Output))
            .collect();
        for _ in 0..if cores.is_empty() { 0 } else { 24 } {
            let r = mix(&mut state) as usize;
            let g = cores[r % cores.len()];
            let b = sources[(r >> 16) % sources.len()];
            let invert = (r >> 40) & 1 == 1;
            subs.push(if (r >> 41) & 1 == 1 {
                Substitution::Os2 { a: g, b, invert }
            } else {
                let pin = ((r >> 42) % nl.fanins(g).len()) as u32;
                Substitution::Is2 { sink: g, pin, b, invert }
            });
        }

        let full = vec![true; bound];
        let (mut unscoped, mut covered, mut windowed) =
            (CheckArena::new(), CheckArena::new(), CheckArena::new());
        for sub in subs.iter().filter(|s| s.is_structurally_valid(&nl)) {
            let whole = unscoped.check(&nl, sub, LIMIT, None);
            let expect = match &whole {
                CheckOutcome::NotPermissible(_) => CheckOutcome::Aborted,
                other => other.clone(),
            };
            prop_assert_eq!(covered.check(&nl, sub, LIMIT, Some(&full)), expect, "{:?}", sub);
            if windowed.check(&nl, sub, LIMIT, Some(&scope.sources)) == CheckOutcome::Permissible {
                prop_assert_eq!(&whole, &CheckOutcome::Permissible, "window proved {:?}", sub);
            }
        }
    }
}
