//! Small helpers shared by this crate's tests (kept out of the public API).

use crate::sat::{NodeId, SatBuilder, SatOutcome};
use crate::Substitution;
use powder_logic::TruthTable;
use powder_netlist::{GateId, GateKind, Netlist};
use std::collections::HashMap;

/// Applies an IS2 substitution the minimal way (no sweeping; tests only
/// care about function).
pub(crate) fn apply_is2(nl: &mut Netlist, sub: &Substitution) {
    let Substitution::Is2 {
        sink,
        pin,
        b,
        invert,
    } = *sub
    else {
        panic!("helper only supports IS2");
    };
    let src = if invert {
        let inv = nl.library().inverter();
        nl.add_cell("tst_inv", inv, &[b])
    } else {
        b
    };
    nl.replace_fanin(sink, pin, src);
}

/// Exhaustive equivalence of two same-interface netlists.
pub(crate) fn exhaustive_equivalent(a: &Netlist, b: &Netlist) -> bool {
    let n = a.inputs().len();
    assert!(n <= 16, "exhaustive check limited to 16 inputs");
    for m in 0..(1u64 << n) {
        let va = eval_outputs(a, m);
        let vb = eval_outputs(b, m);
        if va != vb {
            return false;
        }
    }
    true
}

fn eval_outputs(nl: &Netlist, minterm: u64) -> Vec<bool> {
    let mut val: HashMap<GateId, bool> = HashMap::new();
    for (i, &pi) in nl.inputs().iter().enumerate() {
        val.insert(pi, (minterm >> i) & 1 == 1);
    }
    for g in nl.topo_order() {
        let v = match nl.kind(g) {
            GateKind::Input => val[&g],
            GateKind::Const(k) => k,
            GateKind::Output => val[&nl.fanins(g)[0]],
            GateKind::Cell(c) => {
                let mut m = 0u64;
                for (i, f) in nl.fanins(g).iter().enumerate() {
                    if val[f] {
                        m |= 1 << i;
                    }
                }
                nl.library().cell_ref(c).function.eval(m)
            }
        };
        val.insert(g, v);
    }
    nl.outputs().iter().map(|o| val[o]).collect()
}

/// Splitmix64 step: the seeded stream behind the random miters and the
/// proptests' scope masks.
pub(crate) fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shape of a [`random_miter`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct MiterShape {
    /// Solver variables: the circuit reads the first `support - guard`,
    /// the guard the rest.
    pub support: usize,
    /// Gates of the random circuit.
    pub gates: usize,
    /// Widest random function, 1 to 6 inputs.
    pub max_arity: usize,
    /// The middle gate is a random 7-input function.
    pub wide: bool,
    /// Variables ANDed onto the miter output. The cone search reaches
    /// them last, so they are a pattern's high bits: the lowest
    /// satisfying pattern lies in the top `2^-guard` of the space.
    pub guard: usize,
    /// The second copy changes one minterm of one gate's function;
    /// without it the miter is unsatisfiable.
    pub perturb: bool,
}

/// Adds `function` over `fanins` to `b`.
pub(crate) fn add_gate(b: &mut SatBuilder, function: &TruthTable, fanins: &[NodeId]) -> NodeId {
    let func = b.intern(function);
    b.gate(func, fanins)
}

/// A seeded random miter: two copies of one random circuit over shared
/// solver variables, whose output is the OR of the copies' differences
/// at every gate no other gate reads, ANDed with the guard variables.
/// The circuit mixes the XOR/OR/AND/NOT glue with random functions of 1
/// to `max_arity` inputs and one constant; its first fanins read every
/// circuit variable once, so the miter's support is all of `support`.
pub(crate) fn random_miter(seed: u64, shape: MiterShape) -> (SatBuilder, NodeId) {
    assert!(shape.support > shape.guard && (1..=6).contains(&shape.max_arity));
    let mut s = seed;
    let inner = shape.support - shape.guard;
    let mut b = SatBuilder::default();
    let vars: Vec<NodeId> = (0..shape.support).map(|i| b.pi(i)).collect();
    let constant = b.constant(mix(&mut s) & 1 == 1);
    // Signals: the circuit's variables, the constant, then the gates.
    let mut gates: Vec<(TruthTable, Vec<usize>)> = Vec::new();
    let mut next_var = 0usize;
    for k in 0..shape.gates {
        let signals = inner + 1 + k;
        let r = mix(&mut s);
        let (arity, function) = if shape.wide && k == shape.gates / 2 {
            let (lo, hi) = (mix(&mut s), mix(&mut s));
            (
                7,
                TruthTable::from_fn(7, |m| ([lo, hi][(m >> 6) as usize] >> (m & 63)) & 1 == 1),
            )
        } else {
            match r % 8 {
                0 => (2, TruthTable::var(0, 2) ^ TruthTable::var(1, 2)),
                1 => (2, TruthTable::var(0, 2) | TruthTable::var(1, 2)),
                2 => (2, TruthTable::var(0, 2) & TruthTable::var(1, 2)),
                3 => (1, !TruthTable::var(0, 1)),
                _ => {
                    let arity = 1 + (r >> 8) as usize % shape.max_arity;
                    let bits = mix(&mut s);
                    (arity, TruthTable::from_fn(arity, |m| (bits >> m) & 1 == 1))
                }
            }
        };
        let fanins = (0..arity)
            .map(|_| {
                if next_var < inner {
                    next_var += 1;
                    return next_var - 1;
                }
                let p = mix(&mut s) as usize;
                let span = if p & 1 == 1 { signals.min(8) } else { signals };
                signals - 1 - (p >> 1) % span
            })
            .collect();
        gates.push((function, fanins));
    }
    let read: Vec<bool> = (0..inner + 1 + gates.len())
        .map(|sig| gates.iter().any(|(_, fanins)| fanins.contains(&sig)))
        .collect();
    let flipped = shape.perturb.then(|| {
        let g = mix(&mut s) as usize % gates.len();
        let mut f = gates[g].0.clone();
        let m = mix(&mut s) % f.num_minterms();
        f.set(m, !f.eval(m));
        (g, f)
    });
    let mut copies: [Vec<NodeId>; 2] = [Vec::new(), Vec::new()];
    for (copy, nodes) in copies.iter_mut().enumerate() {
        nodes.extend_from_slice(&vars[..inner]);
        nodes.push(constant);
        for (k, (function, fanins)) in gates.iter().enumerate() {
            let fanin_nodes: Vec<NodeId> = fanins.iter().map(|&f| nodes[f]).collect();
            let function = match &flipped {
                Some((g, f)) if copy == 1 && *g == k => f,
                _ => function,
            };
            let node = add_gate(&mut b, function, &fanin_nodes);
            nodes.push(node);
        }
    }
    let mut acc: Option<NodeId> = None;
    for sig in inner + 1..read.len() {
        if !read[sig] {
            let d = b.xor2(copies[0][sig], copies[1][sig]);
            acc = Some(acc.map_or(d, |a| b.or2(a, d)));
        }
    }
    let mut out = acc.expect("the last gate is never read");
    for &v in &vars[inner..] {
        out = b.and2(out, v);
    }
    (b, out)
}

/// Compact text of a solver outcome: `U` (unsat), `A` (aborted), or `S`
/// followed by the witness bits.
pub(crate) fn outcome_code(outcome: &SatOutcome) -> String {
    match outcome {
        SatOutcome::Unsat => "U".to_owned(),
        SatOutcome::Aborted => "A".to_owned(),
        SatOutcome::Sat(bits) => std::iter::once('S')
            .chain(bits.iter().map(|&v| if v { '1' } else { '0' }))
            .collect(),
    }
}
