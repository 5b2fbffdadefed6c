//! The candidate generator as it was before its scans became word-major:
//! every target scans every source row by row, collects a fresh pool per
//! target, finds XOR/XNOR partners through a map keyed by the whole
//! signature, and deduplicates its output. Kept as the oracle the
//! word-major generator must match element for element.

use super::{CandidateConfig, CandidateScope, PairCells, SourceReach};
use crate::Substitution;
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use powder_sim::{observability_sweep, CellCovers, SimValues};
use std::collections::{BTreeMap, BTreeSet};

/// Word-parallel compatibility: `(sig_a ^ sig_y) & care == 0`.
fn compatible(sig_a: &[u64], sig_y: &[u64], care: &[u64], inverted: bool) -> bool {
    sig_a
        .iter()
        .zip(sig_y)
        .zip(care)
        .all(|((&a, &y), &m)| ((a ^ if inverted { !y } else { y }) & m) == 0)
}

/// `y` covers the care-onset of `a`: wherever `a` is 1 and observable, `y`
/// is 1.
fn covers_onset(sig_a: &[u64], sig_y: &[u64], care: &[u64]) -> bool {
    sig_a
        .iter()
        .zip(sig_y)
        .zip(care)
        .all(|((&a, &y), &m)| (a & !y & m) == 0)
}

/// `y` avoids the care-offset of `a`: wherever `a` is 0 and observable, `y`
/// is 0.
fn avoids_offset(sig_a: &[u64], sig_y: &[u64], care: &[u64]) -> bool {
    sig_a
        .iter()
        .zip(sig_y)
        .zip(care)
        .all(|((&a, &y), &m)| (!a & y & m) == 0)
}

/// The generator's output before its scans became word-major.
pub(crate) fn generate_candidates_scoped(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    config: &CandidateConfig,
    scope: Option<&CandidateScope>,
) -> Vec<Substitution> {
    // Observability masks of every stem and branch, from one sweep. Masks
    // are only ever read for scope sources (IS branch drivers) and scope
    // targets (OS stems), so a scoped call sweeps just the window and
    // measures it window-locally: edges leaving the scope count as
    // observed, the same over-approximation as the scoped permissibility
    // proof.
    let obs = observability_sweep(nl, covers, values, scope.map(|s| s.sources.as_slice()));
    let mut out: Vec<Substitution> = Vec::new();
    let is_target = |g: GateId| scope.is_none_or(|s| s.is_target(g));

    // All stems usable as substituting sources.
    let sources: Vec<GateId> = nl
        .iter_live()
        .filter(|&g| !matches!(nl.kind(g), GateKind::Output))
        .filter(|&g| scope.is_none_or(|s| s.is_source(g)))
        .collect();

    // Exact-signature index for XOR/XNOR partner lookup, keyed by the
    // borrowed signatures themselves.
    let mut sig_index: BTreeMap<&[u64], Vec<GateId>> = BTreeMap::new();
    for &s in &sources {
        sig_index.entry(values.get(s)).or_default().push(s);
    }
    // Lookup keys sig(a) ^ sig(b) and its complement, reused across `b`.
    let mut xor_key = vec![0u64; values.words()];
    let mut xnor_key = vec![0u64; values.words()];

    let pair_cells = PairCells::detect(nl);

    // Cycle filter: a substituting source must not lie in the transitive
    // fanout of the rewired stem/sink. Source-reach sets for the whole
    // netlist come from one reverse-topological sweep —
    // `O(netlist · sources/64)` total instead of `O(targets · netlist)`,
    // and exact for paths that leave and re-enter a window.
    let reach = SourceReach::build(nl, &sources);

    // ---------------- output substitutions (OS2 / OS3) ----------------
    for &a in &sources {
        if !matches!(nl.kind(a), GateKind::Cell(_)) || nl.fanouts(a).is_empty() || !is_target(a) {
            continue;
        }
        let care = obs.stem(a).expect("sources have stem masks");
        if care.iter().all(|&w| w == 0) {
            // a is never observable on these patterns; substituting it by a
            // constant-ish signal would pass any filter but such fully
            // redundant gates are better left to the OS2 scan below with
            // any source — skip to avoid a candidate explosion.
            continue;
        }
        let sig_a = values.get(a);
        let forbidden = |b: GateId| reach.forbidden(a, b);

        if config.enable_os2 {
            let mut kept = 0usize;
            for &b in &sources {
                if b == a || forbidden(b) {
                    continue;
                }
                let sig_b = values.get(b);
                if compatible(sig_a, sig_b, care, false) {
                    out.push(Substitution::Os2 {
                        a,
                        b,
                        invert: false,
                    });
                    kept += 1;
                } else if config.enable_inverted && compatible(sig_a, sig_b, care, true) {
                    out.push(Substitution::Os2 { a, b, invert: true });
                    kept += 1;
                }
                if kept >= config.max_per_signal {
                    break;
                }
            }
        }

        if config.enable_os3 {
            let pool: Vec<GateId> = sources
                .iter()
                .copied()
                .filter(|&s| s != a && !forbidden(s))
                .collect();
            let mut kept = 0usize;
            let mut push = |sub: Substitution, kept: &mut usize| {
                out.push(sub);
                *kept += 1;
            };
            // AND / NAND family: operands must cover the (possibly
            // complemented) care-onset.
            if pair_cells.and2.is_some() || pair_cells.nand2.is_some() {
                let s_and: Vec<GateId> = pool
                    .iter()
                    .copied()
                    .filter(|&s| covers_onset(sig_a, values.get(s), care))
                    .take(config.pair_pool_cap)
                    .collect();
                'and_pairs: for (i, &b) in s_and.iter().enumerate() {
                    for &c in &s_and[i + 1..] {
                        let ok = sig_a
                            .iter()
                            .zip(values.get(b))
                            .zip(values.get(c))
                            .zip(care)
                            .all(|(((&a_w, &b_w), &c_w), &m)| ((b_w & c_w) ^ a_w) & m == 0);
                        if ok {
                            if let Some(cell) = pair_cells.and2 {
                                push(Substitution::Os3 { a, cell, b, c }, &mut kept);
                            }
                            if kept >= config.max_per_signal {
                                break 'and_pairs;
                            }
                        }
                    }
                }
            }
            // OR / NOR family.
            if kept < config.max_per_signal && pair_cells.or2.is_some() {
                let s_or: Vec<GateId> = pool
                    .iter()
                    .copied()
                    .filter(|&s| avoids_offset(sig_a, values.get(s), care))
                    .take(config.pair_pool_cap)
                    .collect();
                'or_pairs: for (i, &b) in s_or.iter().enumerate() {
                    for &c in &s_or[i + 1..] {
                        let ok = sig_a
                            .iter()
                            .zip(values.get(b))
                            .zip(values.get(c))
                            .zip(care)
                            .all(|(((&a_w, &b_w), &c_w), &m)| ((b_w | c_w) ^ a_w) & m == 0);
                        if ok {
                            if let Some(cell) = pair_cells.or2 {
                                push(Substitution::Os3 { a, cell, b, c }, &mut kept);
                            }
                            if kept >= config.max_per_signal {
                                break 'or_pairs;
                            }
                        }
                    }
                }
            }
            // NAND: !(b&c) == a on care ⇔ b&c == !a on care: operands must
            // cover the care-offset complemented onset.
            if kept < config.max_per_signal && pair_cells.nand2.is_some() {
                let neg_sig: Vec<u64> = sig_a.iter().map(|&w| !w).collect();
                let s_nand: Vec<GateId> = pool
                    .iter()
                    .copied()
                    .filter(|&s| covers_onset(&neg_sig, values.get(s), care))
                    .take(config.pair_pool_cap)
                    .collect();
                'nand_pairs: for (i, &b) in s_nand.iter().enumerate() {
                    for &c in &s_nand[i + 1..] {
                        let ok = neg_sig
                            .iter()
                            .zip(values.get(b))
                            .zip(values.get(c))
                            .zip(care)
                            .all(|(((&a_w, &b_w), &c_w), &m)| ((b_w & c_w) ^ a_w) & m == 0);
                        if ok {
                            if let Some(cell) = pair_cells.nand2 {
                                push(Substitution::Os3 { a, cell, b, c }, &mut kept);
                            }
                            if kept >= config.max_per_signal {
                                break 'nand_pairs;
                            }
                        }
                    }
                }
            }
            // NOR: !(b|c) == a on care ⇔ b|c == !a on care.
            if kept < config.max_per_signal && pair_cells.nor2.is_some() {
                let neg_sig: Vec<u64> = sig_a.iter().map(|&w| !w).collect();
                let s_nor: Vec<GateId> = pool
                    .iter()
                    .copied()
                    .filter(|&s| avoids_offset(&neg_sig, values.get(s), care))
                    .take(config.pair_pool_cap)
                    .collect();
                'nor_pairs: for (i, &b) in s_nor.iter().enumerate() {
                    for &c in &s_nor[i + 1..] {
                        let ok = neg_sig
                            .iter()
                            .zip(values.get(b))
                            .zip(values.get(c))
                            .zip(care)
                            .all(|(((&a_w, &b_w), &c_w), &m)| ((b_w | c_w) ^ a_w) & m == 0);
                        if ok {
                            if let Some(cell) = pair_cells.nor2 {
                                push(Substitution::Os3 { a, cell, b, c }, &mut kept);
                            }
                            if kept >= config.max_per_signal {
                                break 'nor_pairs;
                            }
                        }
                    }
                }
            }
            // XOR / XNOR via exact signature lookup: sig_c == sig_a ^ sig_b.
            if kept < config.max_per_signal
                && (pair_cells.xor2.is_some() || pair_cells.xnor2.is_some())
            {
                'xor_scan: for &b in &pool {
                    for (i, (&x, &y)) in sig_a.iter().zip(values.get(b)).enumerate() {
                        xor_key[i] = x ^ y;
                        xnor_key[i] = !(x ^ y);
                    }
                    for (cell, key) in [(pair_cells.xor2, &xor_key), (pair_cells.xnor2, &xnor_key)]
                    {
                        let Some(cell) = cell else { continue };
                        if let Some(cands) = sig_index.get(key.as_slice()) {
                            for &c in cands {
                                if c != a && c != b && !forbidden(c) {
                                    push(Substitution::Os3 { a, cell, b, c }, &mut kept);
                                    if kept >= config.max_per_signal {
                                        break 'xor_scan;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // ---------------- input substitutions (IS2 / IS3) ----------------
    if config.enable_is2 || config.enable_is3 {
        let branch_list: Vec<(GateId, usize, Conn)> = sources
            .iter()
            .flat_map(|&a| {
                nl.fanouts(a)
                    .iter()
                    .enumerate()
                    .map(move |(k, &conn)| (a, k, conn))
            })
            .collect();
        for (a, k, conn) in branch_list {
            if matches!(nl.kind(conn.gate), GateKind::Output) {
                // Rewiring a PO branch is an output substitution in
                // disguise; OS2 handles it with full bookkeeping.
                continue;
            }
            if !is_target(conn.gate) {
                continue;
            }
            let care = obs.branch(a, k).expect("sources have branch masks");
            if care.iter().all(|&w| w == 0) {
                continue;
            }
            let sig_a = values.get(a);
            let forbidden = |b: GateId| reach.forbidden(conn.gate, b);

            if config.enable_is2 {
                let mut kept = 0usize;
                for &b in &sources {
                    if b == a || forbidden(b) {
                        continue;
                    }
                    let sig_b = values.get(b);
                    if compatible(sig_a, sig_b, care, false) {
                        out.push(Substitution::Is2 {
                            sink: conn.gate,
                            pin: conn.pin,
                            b,
                            invert: false,
                        });
                        kept += 1;
                    } else if config.enable_inverted && compatible(sig_a, sig_b, care, true) {
                        out.push(Substitution::Is2 {
                            sink: conn.gate,
                            pin: conn.pin,
                            b,
                            invert: true,
                        });
                        kept += 1;
                    }
                    if kept >= config.max_per_signal {
                        break;
                    }
                }
            }

            if config.enable_is3 {
                // Keep IS3 cheap: AND/OR families only (the paper finds IS3
                // contributes least).
                let pool: Vec<GateId> = sources
                    .iter()
                    .copied()
                    .filter(|&s| s != a && !forbidden(s))
                    .collect();
                let mut kept = 0usize;
                if let Some(cell) = pair_cells.and2 {
                    let s_and: Vec<GateId> = pool
                        .iter()
                        .copied()
                        .filter(|&s| covers_onset(sig_a, values.get(s), care))
                        .take(config.pair_pool_cap)
                        .collect();
                    'is3_and: for (i, &b) in s_and.iter().enumerate() {
                        for &c in &s_and[i + 1..] {
                            let ok = sig_a
                                .iter()
                                .zip(values.get(b))
                                .zip(values.get(c))
                                .zip(care)
                                .all(|(((&a_w, &b_w), &c_w), &m)| ((b_w & c_w) ^ a_w) & m == 0);
                            if ok {
                                out.push(Substitution::Is3 {
                                    sink: conn.gate,
                                    pin: conn.pin,
                                    cell,
                                    b,
                                    c,
                                });
                                kept += 1;
                                if kept >= config.max_per_signal {
                                    break 'is3_and;
                                }
                            }
                        }
                    }
                }
                if kept < config.max_per_signal {
                    if let Some(cell) = pair_cells.or2 {
                        let s_or: Vec<GateId> = pool
                            .iter()
                            .copied()
                            .filter(|&s| avoids_offset(sig_a, values.get(s), care))
                            .take(config.pair_pool_cap)
                            .collect();
                        'is3_or: for (i, &b) in s_or.iter().enumerate() {
                            for &c in &s_or[i + 1..] {
                                let ok = sig_a
                                    .iter()
                                    .zip(values.get(b))
                                    .zip(values.get(c))
                                    .zip(care)
                                    .all(|(((&a_w, &b_w), &c_w), &m)| ((b_w | c_w) ^ a_w) & m == 0);
                                if ok {
                                    out.push(Substitution::Is3 {
                                        sink: conn.gate,
                                        pin: conn.pin,
                                        cell,
                                        b,
                                        c,
                                    });
                                    kept += 1;
                                    if kept >= config.max_per_signal {
                                        break 'is3_or;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Deduplicate, preserving first-occurrence order so candidate ids
    // stay stable. Structural validity holds by construction — every
    // scan filtered sources through the forbidden (TFO) set, which is
    // exactly the acyclicity condition `is_structurally_valid`
    // re-derives with an `O(netlist)` walk per candidate — and the
    // exact checker re-validates before anything is applied, so the
    // eager re-check is debug-only.
    let mut seen = BTreeSet::new();
    out.retain(|s| seen.insert(*s));
    debug_assert!(out.iter().all(|s| s.is_structurally_valid(nl)));
    out
}

impl SourceReach {
    /// Is source `b` in the transitive fanout of `root` (inclusive)?
    fn forbidden(&self, root: GateId, b: GateId) -> bool {
        let i = self.idx[b.0 as usize];
        debug_assert!(i != u32::MAX, "queried gate is not a source");
        let base = root.0 as usize * self.words;
        (self.bits[base + (i / 64) as usize] >> (i % 64)) & 1 == 1
    }
}
