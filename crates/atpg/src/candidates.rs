//! Fault-simulation-based candidate generation (the paper's
//! `get_candidate_substitutions`, after refs \[2,5\]).
//!
//! A substitution `a ← y` can only be permissible if, on every simulated
//! pattern, either `y` agrees with `a` or the pattern lies in `a`'s
//! observability don't-care set. With packed signatures `sig(·)` and the
//! observability mask `obs(a)` this is one word-parallel test:
//!
//! ```text
//! (sig(a) ^ sig(y)) & obs(a) == 0
//! ```
//!
//! For the 3-input substitutions the candidate pair pool is pruned first
//! with per-cell *coverage* conditions (e.g. an AND-substitution requires
//! both operands to cover `a`'s care onset), and XOR/XNOR partners are
//! found by exact signature hashing.

use crate::Substitution;
use powder_library::CellId;
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use powder_sim::{observability_sweep, CellCovers, SimValues};
// Ordered maps throughout: candidate generation must be a pure function
// of the netlist and simulation values with no dependence on hash-map
// iteration order, because the optimizer's commit arbiter identifies
// candidates by their position in this function's output.
use std::collections::{BTreeMap, BTreeSet};

/// Tuning knobs for candidate generation.
#[derive(Clone, Debug)]
pub struct CandidateConfig {
    /// Maximum candidates kept per (substituted signal, class).
    pub max_per_signal: usize,
    /// Maximum size of the coverage-filtered pools feeding the OS3/IS3
    /// pair search.
    pub pair_pool_cap: usize,
    /// Generate OS2 candidates.
    pub enable_os2: bool,
    /// Generate IS2 candidates.
    pub enable_is2: bool,
    /// Generate OS3 candidates.
    pub enable_os3: bool,
    /// Generate IS3 candidates.
    pub enable_is3: bool,
    /// Also generate inverted-signal OS2/IS2 candidates.
    pub enable_inverted: bool,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_per_signal: 12,
            pair_pool_cap: 24,
            enable_os2: true,
            enable_is2: true,
            enable_os3: true,
            enable_is3: true,
            enable_inverted: true,
        }
    }
}

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

/// The two-input cells of `library` usable for OS3/IS3, keyed by role.
struct PairCells {
    and2: Option<CellId>,
    or2: Option<CellId>,
    nand2: Option<CellId>,
    nor2: Option<CellId>,
    xor2: Option<CellId>,
    xnor2: Option<CellId>,
}

impl PairCells {
    fn detect(nl: &Netlist) -> Self {
        use powder_logic::TruthTable;
        let v0 = TruthTable::var(0, 2);
        let v1 = TruthTable::var(1, 2);
        let and = &v0 & &v1;
        let or = &v0 | &v1;
        let xor = &v0 ^ &v1;
        let find =
            |tt: &TruthTable| -> Option<CellId> { nl.library().match_function(tt).map(|m| m.cell) };
        PairCells {
            and2: find(&and),
            or2: find(&or),
            nand2: find(&!and.clone()),
            nor2: find(&!or.clone()),
            xor2: find(&xor),
            xnor2: find(&!xor.clone()),
        }
    }
}

/// Restricts candidate generation to a window of the netlist (see
/// `powder_netlist::window`). Both masks are dense, indexed by `GateId.0`;
/// ids at or beyond a mask's length are excluded.
#[derive(Clone, Debug)]
pub struct CandidateScope {
    /// Gates whose stems/branches may be rewritten (the window core).
    pub targets: Vec<bool>,
    /// Gates usable as substituting sources (the window scope: core,
    /// halo, and interface boundary).
    pub sources: Vec<bool>,
}

impl CandidateScope {
    fn is_target(&self, g: GateId) -> bool {
        self.targets.get(g.0 as usize).copied().unwrap_or(false)
    }
    fn is_source(&self, g: GateId) -> bool {
        self.sources.get(g.0 as usize).copied().unwrap_or(false)
    }
}

/// Exact gate → substituting-source reachability, built by one reverse-
/// topological sweep: bit `i` of row `g` is set iff `sources[i]` lies in
/// the transitive fanout of `g` (inclusive — a source reaches itself).
///
/// The cycle filter only ever asks "is candidate source `b` in the TFO
/// of rewired gate `r`?", so rows need one bit per *source*, not per
/// gate — `O(id_bound · sources/64)` words total, answered in `O(1)`.
/// Because the sweep covers the whole netlist it stays exact for paths
/// that leave the window and re-enter it.
struct SourceReach {
    /// Dense `GateId.0` → index into the source list (`u32::MAX` when
    /// the gate is not a source).
    idx: Vec<u32>,
    /// Row width in 64-bit words.
    words: usize,
    /// `id_bound × words` bitset rows.
    bits: Vec<u64>,
}

impl SourceReach {
    fn build(nl: &Netlist, sources: &[GateId]) -> Self {
        let bound = nl.id_bound();
        let words = sources.len().div_ceil(64).max(1);
        let mut idx = vec![u32::MAX; bound];
        for (i, &s) in sources.iter().enumerate() {
            idx[s.0 as usize] = i as u32;
        }
        let mut bits = vec![0u64; bound * words];
        let mut acc = vec![0u64; words];
        for g in nl.topo_order().into_iter().rev() {
            let gi = g.0 as usize;
            acc.iter_mut().for_each(|w| *w = 0);
            if idx[gi] != u32::MAX {
                acc[(idx[gi] / 64) as usize] |= 1 << (idx[gi] % 64);
            }
            for conn in nl.fanouts(g) {
                let si = conn.gate.0 as usize * words;
                for (w, &s) in acc.iter_mut().zip(&bits[si..si + words]) {
                    *w |= s;
                }
            }
            bits[gi * words..gi * words + words].copy_from_slice(&acc);
        }
        SourceReach { idx, words, bits }
    }

    /// Is source `b` in the transitive fanout of `root` (inclusive)?
    fn forbidden(&self, root: GateId, b: GateId) -> bool {
        let i = self.idx[b.0 as usize];
        debug_assert!(i != u32::MAX, "queried gate is not a source");
        let base = root.0 as usize * self.words;
        (self.bits[base + (i / 64) as usize] >> (i % 64)) & 1 == 1
    }
}

/// Generates potentially-permissible substitutions for the current netlist
/// from simulated `values`.
///
/// Every returned [`Substitution`] passed the signature/observability
/// necessary condition on all simulated patterns and is structurally valid
/// (no combinational cycles); only the exact ATPG check can confirm it.
#[must_use]
pub fn generate_candidates(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    config: &CandidateConfig,
) -> Vec<Substitution> {
    generate_candidates_scoped(nl, covers, values, config, None)
}

/// [`generate_candidates`] restricted to `scope`: substituted stems and
/// rewired sinks must be scope targets, substituting signals must be
/// scope sources. `scope: None` is exactly the unrestricted generator —
/// same candidates in the same order.
#[must_use]
pub fn generate_candidates_scoped(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_substitution, CheckOutcome};
    use powder_library::lib2;
    use powder_sim::{simulate, Patterns};
    use std::sync::Arc;

    /// f = (a&b) | (a&!b): the OR stem is substitutable by a.
    #[test]
    fn finds_redundant_or_collapse() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let andn2 = lib.find_by_name("andn2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", andn2, &[a, b]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        nl.add_output("f", g3);

        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(2);
        let vals = simulate(&nl, &covers, &pats);
        let cands = generate_candidates(&nl, &covers, &vals, &CandidateConfig::default());
        assert!(
            cands.contains(&Substitution::Os2 {
                a: g3,
                b: a,
                invert: false
            }),
            "missing OS2(g3, a) in {cands:?}"
        );
    }

    /// Every surviving candidate must pass the filter's own necessary
    /// condition; here we additionally confirm the exhaustive-pattern filter
    /// admits only truly permissible candidates (with exhaustive patterns
    /// the filter is exact).
    #[test]
    fn exhaustive_filter_is_exact() {
        let lib = Arc::new(lib2());
        let xor2 = lib.find_by_name("xor2").unwrap();
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("fig2", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_cell("d", xor2, &[a, c]);
        let f = nl.add_cell("f", and2, &[d, b]);
        nl.add_output("fo", f);

        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(3);
        let vals = simulate(&nl, &covers, &pats);
        let cands = generate_candidates(&nl, &covers, &vals, &CandidateConfig::default());
        assert!(!cands.is_empty());
        for cand in &cands {
            let outcome = check_substitution(&nl, cand, 10_000);
            assert_eq!(
                outcome,
                CheckOutcome::Permissible,
                "exhaustive filter admitted a non-permissible candidate {cand:?}"
            );
        }
    }

    /// With few random patterns the filter may admit impostors, but the
    /// ATPG check must catch them — the round-trip must never let a
    /// non-permissible substitution through.
    #[test]
    fn random_filter_plus_atpg_is_sound() {
        let lib = Arc::new(lib2());
        let nand2 = lib.find_by_name("nand2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let pis: Vec<GateId> = (0..5).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g1 = nl.add_cell("g1", nand2, &[pis[0], pis[1]]);
        let g2 = nl.add_cell("g2", nand2, &[pis[2], pis[3]]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        let g4 = nl.add_cell("g4", nand2, &[g3, pis[4]]);
        nl.add_output("f", g4);

        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(5, 1, 99); // deliberately few patterns
        let vals = simulate(&nl, &covers, &pats);
        let cands = generate_candidates(&nl, &covers, &vals, &CandidateConfig::default());
        for cand in &cands {
            match check_substitution(&nl, cand, 10_000) {
                CheckOutcome::Permissible => {
                    // Verify by exhaustive simulation of a rewired clone in
                    // the `powder` crate's tests; here permissibility comes
                    // from a complete UNSAT proof, which is trusted.
                }
                CheckOutcome::NotPermissible(_) | CheckOutcome::Aborted => {}
            }
        }
    }

    #[test]
    fn respects_class_toggles() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", and2, &[a, b]);
        let g3 = nl.add_cell("g3", and2, &[g1, g2]);
        nl.add_output("f", g3);
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(2);
        let vals = simulate(&nl, &covers, &pats);
        let only_os2 = CandidateConfig {
            enable_is2: false,
            enable_os3: false,
            enable_is3: false,
            ..CandidateConfig::default()
        };
        let cands = generate_candidates(&nl, &covers, &vals, &only_os2);
        assert!(cands.iter().all(|c| matches!(c, Substitution::Os2 { .. })));
        // duplicate gates g1/g2 should be discoverable as OS2 merges
        assert!(cands
            .iter()
            .any(|c| matches!(c, Substitution::Os2 { a, b, .. } if (*a == g1 && *b == g2) || (*a == g2 && *b == g1))));
    }

    #[test]
    fn no_cyclic_candidates() {
        let lib = Arc::new(lib2());
        let nand2 = lib.find_by_name("nand2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", nand2, &[a, b]);
        let g2 = nl.add_cell("g2", nand2, &[g1, b]);
        let g3 = nl.add_cell("g3", nand2, &[g2, a]);
        nl.add_output("f", g3);
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::exhaustive(2);
        let vals = simulate(&nl, &covers, &pats);
        for cand in generate_candidates(&nl, &covers, &vals, &CandidateConfig::default()) {
            assert!(cand.is_structurally_valid(&nl), "{cand:?}");
        }
    }
}
