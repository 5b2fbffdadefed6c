//! The exhaustive decision as it was before it became chunked: a heap
//! column of all `2^k / 64` pattern words per live cone node, kept in a
//! map and freed after its last reader, each gate evaluated by
//! enumerating its function's minterms. Kept as the oracle the chunked
//! path must match outcome for outcome, witness bits included.

use super::{Node, NodeId, SatBuilder, SatOutcome};
use std::collections::HashMap;

/// Topological order of the cone of influence of `output`, plus the set
/// of variables in that cone.
fn cone(b: &SatBuilder, output: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut mark = vec![false; b.nodes.len()];
    let mut order = Vec::new();
    let mut pis = Vec::new();
    // Iterative DFS post-order.
    let mut stack: Vec<(NodeId, usize)> = vec![(output, 0)];
    mark[output as usize] = true;
    while let Some((id, child)) = stack.pop() {
        match b.nodes[id as usize] {
            Node::Pi(_) => {
                pis.push(id);
                order.push(id);
            }
            Node::Const(_) => order.push(id),
            Node::Gate { start, len, .. } => {
                let fanins = &b.fanins[start as usize..(start + len) as usize];
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

/// Complete decision of `output` over `num_vars` variables by
/// 64-way-parallel exhaustive simulation of its cone over all `2^k`
/// assignments of its `k` support variables (`1 ≤ k ≤ 18`).
/// Intermediate values are freed as soon as their last cone fanout has
/// consumed them, bounding peak memory by the cone's width.
pub(crate) fn solve_exhaustive(b: &SatBuilder, num_vars: usize, output: NodeId) -> SatOutcome {
    let (order, cone_pis) = cone(b, output);
    let k = cone_pis.len();
    assert!((1..=super::EXHAUSTIVE_SUPPORT_LIMIT).contains(&k));
    let words = (1usize << k).div_ceil(64);
    let mut pi_pos: HashMap<NodeId, usize> = HashMap::new();
    for (i, &pi) in cone_pis.iter().enumerate() {
        pi_pos.insert(pi, i);
    }
    let fanins_of = |id: NodeId| match b.nodes[id as usize] {
        Node::Gate { start, len, .. } => &b.fanins[start as usize..(start + len) as usize],
        _ => &[],
    };
    // Remaining-use counts within the cone, for early freeing.
    let mut uses: HashMap<NodeId, usize> = HashMap::new();
    for &id in &order {
        for &f in fanins_of(id) {
            *uses.entry(f).or_insert(0) += 1;
        }
    }
    let mut values: HashMap<NodeId, Vec<u64>> = HashMap::new();
    let mut out_words: Option<Vec<u64>> = None;
    for &id in &order {
        let vals: Vec<u64> = match b.nodes[id as usize] {
            Node::Pi(_) => {
                let i = pi_pos[&id];
                (0..words)
                    .map(|w| {
                        if i < 6 {
                            // repeating pattern within a word
                            super::VAR_MASKS[i]
                        } else if (w >> (i - 6)) & 1 == 1 {
                            u64::MAX
                        } else {
                            0
                        }
                    })
                    .collect()
            }
            Node::Const(v) => vec![if v { u64::MAX } else { 0 }; words],
            Node::Gate { func, .. } => {
                let fanins = fanins_of(id);
                let fanin_vals: Vec<&Vec<u64>> = fanins.iter().map(|f| &values[f]).collect();
                let mut out = vec![0u64; words];
                // Evaluate as an OR of minterm products of the gate
                // function.
                for m in b.funcs[func as usize].function.minterms() {
                    for (w, o) in out.iter_mut().enumerate() {
                        let mut term = u64::MAX;
                        for (i, fv) in fanin_vals.iter().enumerate() {
                            let v = fv[w];
                            term &= if (m >> i) & 1 == 1 { v } else { !v };
                            if term == 0 {
                                break;
                            }
                        }
                        *o |= term;
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
        if id == output {
            out_words = Some(vals);
            break;
        }
        values.insert(id, vals);
    }
    let out = out_words.unwrap_or_else(|| values[&output].clone());
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
            let mut assignment = vec![false; num_vars];
            for (i, &pi) in cone_pis.iter().enumerate() {
                if let Node::Pi(idx) = b.nodes[pi as usize] {
                    assignment[idx as usize] = (pattern >> i) & 1 == 1;
                }
            }
            return SatOutcome::Sat(assignment);
        }
    }
    SatOutcome::Unsat
}
