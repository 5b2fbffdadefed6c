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
//! found by exact signature lookup.
//!
//! Every scan is word-major. The sources' signatures are copied once per
//! [`CandidateScan`] into columns (word `w` of every source, contiguous),
//! so a scan first tests the one word with the most relevant care bits for 64
//! sources at a time, as a bitmask ANDed with the complement of the
//! rewired gate's `SourceReach` row, and runs the full-width test only
//! on the survivors, in source order. The one-word test is a necessary
//! condition of the full-width one, so the output is exactly what the
//! full-width test alone selects, in source order.
//!
//! The output is a pure function of the netlist, the simulation values,
//! the config and the scope, with no dependence on hash-map iteration
//! order: the optimizer ranks candidates by score and breaks ties by
//! their position in this list (target index, then emission order).

use crate::Substitution;
use powder_library::CellId;
use powder_netlist::{Conn, GateId, GateKind, Netlist};
use powder_sim::{observability_sweep, CellCovers, ObservabilityMasks, SimValues};

#[cfg(test)]
pub(crate) mod reference;

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
    /// Six lookups in the library's match index, by two-input truth
    /// table (bit `m` is the value at minterm `m`).
    fn detect(nl: &Netlist) -> Self {
        let find = |table: u64| nl.library().match_table(2, table).map(|m| m.cell);
        PairCells {
            and2: find(0b1000),
            or2: find(0b1110),
            nand2: find(0b0111),
            nor2: find(0b0001),
            xor2: find(0b0110),
            xnor2: find(0b1001),
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
    /// Number of sources.
    len: usize,
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
        SourceReach {
            len: sources.len(),
            idx,
            words,
            bits,
        }
    }

    /// Writes to `out` the sources a substitution rewiring `root` may
    /// use, as a bitset over source indices: every source outside
    /// `root`'s transitive fanout except the substituted signal `own`.
    fn allowed_into(&self, root: GateId, own: GateId, out: &mut Vec<u64>) {
        let base = root.0 as usize * self.words;
        out.clear();
        out.extend(self.bits[base..base + self.words].iter().map(|&r| !r));
        for (k, w) in out.iter_mut().enumerate() {
            let live = self.len.saturating_sub(k * 64);
            if live < 64 {
                *w &= (1u64 << live) - 1;
            }
        }
        let i = self.idx[own.0 as usize] as usize;
        out[i / 64] &= !(1u64 << (i % 64));
    }
}

/// Set bits of a 64-bit block, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let j = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(j)
    }
}

/// Is source `i` set in the bitset `set`?
fn has(set: &[u64], i: usize) -> bool {
    (set[i / 64] >> (i % 64)) & 1 == 1
}

/// The combining operator of an AND- or OR-type 3-input family.
#[derive(Clone, Copy)]
enum Op {
    And,
    Or,
}

impl Op {
    /// The bits of one word where `y` breaks the pool condition (`a`
    /// already complemented for the NAND/NOR families): an AND operand
    /// must cover `a`'s care onset, an OR operand must avoid its care
    /// offset.
    fn pool_miss(self, a: u64, y: u64, m: u64) -> u64 {
        match self {
            Op::And => a & !y & m,
            Op::Or => !a & y & m,
        }
    }

    /// The bits of one word where `b op c` differs from `a` on the care
    /// set.
    fn pair_miss(self, a: u64, b: u64, c: u64, m: u64) -> u64 {
        let v = match self {
            Op::And => b & c,
            Op::Or => b | c,
        };
        (v ^ a) & m
    }
}

/// The OR over every word of `miss(word of each slice)`: zero iff the
/// word-wise condition holds everywhere. Branch-free: full-width checks
/// run only on one-word survivors, where stopping at the first miss
/// measured slower than OR-ing every word.
fn misses<const N: usize>(rows: [&[u64]; N], miss: impl Fn([u64; N]) -> u64) -> u64 {
    let n = rows[0].len();
    let rows = rows.map(|r| &r[..n]);
    let mut acc = 0;
    for w in 0..n {
        acc |= miss(rows.map(|r| r[w]));
    }
    acc
}

/// The sources of one scan, with their signatures copied both row-major
/// and word-major, so the scan reads no simulation values after it is
/// built.
struct Sources {
    ids: Vec<GateId>,
    /// Number of words per signature.
    words: usize,
    /// `sources × words`: the signature of source `i` at `i * words`.
    rows: Vec<u64>,
    /// `words × 64·blocks`: word `w` of source `i` at `w * 64·blocks + i`,
    /// zero past the last source, so every scan block is whole.
    cols: Vec<u64>,
    /// `(word 0, source index)` of every source, sorted: the XOR/XNOR
    /// partner index.
    by_word0: Vec<(u64, u32)>,
    /// One bit per hash bucket of word 0, set iff some source's word 0
    /// falls in it: a clear bit proves `by_word0` holds no such key, so
    /// the partner scan skips the binary search.
    word0_present: Vec<u64>,
    /// `64 - log2(buckets)`: [`Sources::bucket`] keeps the top bits.
    word0_shift: u32,
}

/// One substituted signal — an OS stem or an IS branch — and what every
/// scan for it reads.
struct Target<'a> {
    sig: &'a [u64],
    care: &'a [u64],
    /// [`SourceReach::allowed_into`] of the rewired gate.
    allowed: &'a [u64],
    /// The words with the most care bits, care-onset bits (`sig & care`)
    /// and care-offset bits (`!sig & care`): where the one-word tests
    /// look.
    care_word: usize,
    on_word: usize,
    off_word: usize,
}

impl<'a> Target<'a> {
    fn new(sig: &'a [u64], care: &'a [u64], allowed: &'a [u64]) -> Self {
        // (word, bits) of the best so far, the first word on a tie.
        let mut best = [(0, 0); 3];
        for (w, (&a, &m)) in sig.iter().zip(care).enumerate() {
            let (all, on) = (m.count_ones(), (a & m).count_ones());
            for (b, bits) in best.iter_mut().zip([all, on, all - on]) {
                if bits > b.1 {
                    *b = (w, bits);
                }
            }
        }
        let [care_word, on_word, off_word] = best.map(|b| b.0);
        Target {
            sig,
            care,
            allowed,
            care_word,
            on_word,
            off_word,
        }
    }
}

impl Sources {
    fn new(values: &SimValues, ids: Vec<GateId>) -> Self {
        let n = ids.len();
        let words = values.words();
        let stride = n.div_ceil(64) * 64;
        let mut rows = Vec::with_capacity(n * words);
        let mut cols = vec![0u64; words * stride];
        for (i, &s) in ids.iter().enumerate() {
            rows.extend_from_slice(values.get(s));
            for (w, &x) in values.get(s).iter().enumerate() {
                cols[w * stride + i] = x;
            }
        }
        let mut by_word0: Vec<(u64, u32)> = cols[..n.min(cols.len())]
            .iter()
            .zip(0u32..)
            .map(|(&x, i)| (x, i))
            .collect();
        by_word0.sort_unstable();
        // At least 64 buckets per source, so at most about one lookup in
        // 64 for an absent key still reaches the binary search.
        let buckets = (64 * n).next_power_of_two().max(64);
        let mut src = Sources {
            ids,
            words,
            rows,
            cols,
            by_word0,
            word0_present: vec![0; buckets / 64],
            word0_shift: 64 - buckets.trailing_zeros(),
        };
        for i in 0..src.by_word0.len() {
            let b = src.bucket(src.by_word0[i].0);
            src.word0_present[b / 64] |= 1 << (b % 64);
        }
        src
    }

    /// The presence-bitmap bucket of word-0 value `x` (Fibonacci hashing).
    fn bucket(&self, x: u64) -> usize {
        (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.word0_shift) as usize
    }

    fn sig(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..][..self.words]
    }

    /// Word `w` of every source, padded to whole blocks.
    fn column(&self, w: usize) -> &[u64] {
        let stride = self.ids.len().div_ceil(64) * 64;
        &self.cols[w * stride..(w + 1) * stride]
    }

    /// The sources set in `allowed` whose word `w` passes `test`, in
    /// source order. The test runs 64 sources at a time into a bitmask
    /// that is ANDed with the `allowed` block.
    fn survivors<'s>(
        &'s self,
        allowed: &'s [u64],
        w: usize,
        test: impl Fn(u64) -> bool + 's,
    ) -> impl Iterator<Item = usize> + 's {
        let blocks = self.column(w).chunks_exact(64);
        allowed
            .iter()
            .zip(blocks)
            .enumerate()
            .flat_map(move |(k, (&allow, block))| {
                let mut pass = 0u64;
                if allow != 0 {
                    for (j, &y) in block.iter().enumerate() {
                        pass |= u64::from(test(y)) << j;
                    }
                }
                Bits(allow & pass).map(move |j| k * 64 + j)
            })
    }

    /// The OS2/IS2 scan: allowed sources compatible with the target
    /// (plainly, or inverted when enabled), in source order, until
    /// `max_per_signal` are kept.
    fn two_input(&self, t: &Target, config: &CandidateConfig, mut emit: impl FnMut(GateId, bool)) {
        let max = config.max_per_signal;
        let w = t.care_word;
        let a = t.sig[w];
        // `kept >= max` is tested after every examined source, so a zero
        // limit examines exactly the first allowed one: an empty mask
        // passes every source through the one-word test.
        let m = if max == 0 { 0 } else { t.care[w] };
        let inverted = config.enable_inverted;
        let mut kept = 0usize;
        for i in self.survivors(t.allowed, w, |y| {
            let d = (a ^ y) & m;
            d == 0 || (inverted && d == m)
        }) {
            let sig_b = self.sig(i);
            // Where `b` differs from `a` on the care set, and where it
            // agrees: the plain and the inverted miss.
            let (plain, inv) = t
                .sig
                .iter()
                .zip(sig_b)
                .zip(t.care)
                .fold((0, 0), |(plain, inv), ((&a, &y), &m)| {
                    (plain | ((a ^ y) & m), inv | (!(a ^ y) & m))
                });
            if plain == 0 {
                emit(self.ids[i], false);
                kept += 1;
            } else if inverted && inv == 0 {
                emit(self.ids[i], true);
                kept += 1;
            }
            if kept >= max {
                break;
            }
        }
    }

    /// The AND/OR-type OS3/IS3 families in order, each given by its
    /// operator, whether it matches `!a`, and its cell. A family runs on
    /// the first `pair_pool_cap` allowed sources that pass its pool
    /// condition, and keeps every pair of them (in pool order) that
    /// matches the target on the care set. Families after the first
    /// run only while fewer than `max_per_signal` are kept. Returns the
    /// number kept.
    fn three_input(
        &self,
        t: &Target,
        families: &[(Op, bool, Option<CellId>)],
        config: &CandidateConfig,
        pool: &mut Vec<(usize, u64)>,
        mut emit: impl FnMut(CellId, GateId, GateId),
    ) -> usize {
        let max = config.max_per_signal;
        let mut kept = 0usize;
        for (f, &(op, negated, cell)) in families.iter().enumerate() {
            if f > 0 && kept >= max {
                break;
            }
            let Some(cell) = cell else { continue };
            let flip = if negated { !0 } else { 0 };
            // Each one-word test reads the word with the most bits its
            // condition can fail on. The AND and NOR pools constrain
            // `a`'s care onset (the NAND and OR pools its offset), and a
            // pair of pool members can then only miss on the other side.
            // The pool keeps each member's pair word.
            let (w, w_pair) = if matches!(op, Op::And) != negated {
                (t.on_word, t.off_word)
            } else {
                (t.off_word, t.on_word)
            };
            let (a, m) = (t.sig[w] ^ flip, t.care[w]);
            pool.clear();
            pool.extend(
                self.survivors(t.allowed, w, |y| op.pool_miss(a, y, m) == 0)
                    .filter(|&i| {
                        misses([t.sig, self.sig(i), t.care], |[a, y, m]| {
                            op.pool_miss(a ^ flip, y, m)
                        }) == 0
                    })
                    .take(config.pair_pool_cap)
                    .map(|i| (i, self.sig(i)[w_pair])),
            );
            let (a, m) = (t.sig[w_pair] ^ flip, t.care[w_pair]);
            for (k, &(b, yb)) in pool.iter().enumerate() {
                for &(c, yc) in &pool[k + 1..] {
                    if op.pair_miss(a, yb, yc, m) != 0 {
                        continue;
                    }
                    let miss = misses([t.sig, self.sig(b), self.sig(c), t.care], |[a, b, c, m]| {
                        op.pair_miss(a ^ flip, b, c, m)
                    });
                    if miss == 0 {
                        emit(cell, self.ids[b], self.ids[c]);
                        kept += 1;
                        if kept >= max {
                            return kept;
                        }
                    }
                }
            }
        }
        kept
    }

    /// The OS3 XOR/XNOR scan: for each allowed `b`, every allowed
    /// `c ≠ b` whose signature is exactly `sig(a) ^ sig(b)` (XOR) or its
    /// complement (XNOR), in source order, until `kept` reaches
    /// `max_per_signal`. Partners come from the word-0 index, searched
    /// only when the presence bitmap admits the key; each hit is
    /// confirmed on every word.
    fn xor_pairs(
        &self,
        t: &Target,
        cells: &PairCells,
        max: usize,
        mut kept: usize,
        mut emit: impl FnMut(CellId, GateId, GateId),
    ) {
        let allowed = t.allowed;
        let col0 = self.column(0);
        for (k, &block) in allowed.iter().enumerate() {
            for j in Bits(block) {
                let b = k * 64 + j;
                for (cell, flip) in [(cells.xor2, 0), (cells.xnor2, !0u64)] {
                    let Some(cell) = cell else { continue };
                    let key0 = t.sig[0] ^ col0[b] ^ flip;
                    let bucket = self.bucket(key0);
                    if (self.word0_present[bucket / 64] >> (bucket % 64)) & 1 == 0 {
                        continue;
                    }
                    let sig_b = self.sig(b);
                    let lo = self.by_word0.partition_point(|&(x, _)| x < key0);
                    for &(x, c) in &self.by_word0[lo..] {
                        if x != key0 {
                            break;
                        }
                        let c = c as usize;
                        let exact =
                            misses([self.sig(c), t.sig, sig_b], |[c, a, b]| c ^ a ^ b ^ flip) == 0;
                        if exact && c != b && has(allowed, c) {
                            emit(cell, self.ids[b], self.ids[c]);
                            kept += 1;
                            if kept >= max {
                                return;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One substituted signal of a [`CandidateScan`]: an OS stem, or an IS
/// branch (one sink pin of a stem).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanTarget {
    /// The substituted stem: an OS target's `a`, an IS target's driver.
    pub stem: GateId,
    /// The rewired sink pin of an IS target; `None` for an OS target.
    pub branch: Option<Conn>,
    /// Index of `stem` among the scan's sources.
    src: u32,
    /// Position of `branch` in `stem`'s fanout list.
    k: u32,
}

/// One round's candidate generation, built once and scanned target by
/// target: the observability masks, the sources' signatures, the
/// `SourceReach` cycle filter and the target list. It owns everything a
/// scan reads, so targets can be scanned in any order, and after the
/// netlist and its values have moved on, with the same result as at
/// construction.
///
/// The targets are in the generator's order: every OS stem (a cell with
/// fanouts), then every IS branch (a stem's fanout into a cell), both in
/// source order and only when a class of their kind is enabled, each
/// only if its care mask is nonzero and, under a scope, its rewired gate
/// is a scope target. Scanning every target in
/// that order emits exactly [`generate_candidates_scoped`]'s list.
pub struct CandidateScan {
    config: CandidateConfig,
    obs: ObservabilityMasks,
    src: Sources,
    reach: SourceReach,
    pair_cells: PairCells,
    targets: Vec<ScanTarget>,
    allowed: Vec<u64>,
    pool: Vec<(usize, u64)>,
}

impl CandidateScan {
    /// Sweeps the observability masks and indexes the sources of `nl`
    /// under `values`, restricted to `scope` when given.
    #[must_use]
    pub fn new(
        nl: &Netlist,
        covers: &CellCovers,
        values: &SimValues,
        config: &CandidateConfig,
        scope: Option<&CandidateScope>,
    ) -> Self {
        // Observability masks of every stem and branch, from one sweep.
        // Masks are only ever read for scope sources (IS branch drivers)
        // and scope targets (OS stems), so a scoped scan sweeps just the
        // window and measures it window-locally: edges leaving the scope
        // count as observed, the same over-approximation as the scoped
        // permissibility proof.
        let obs = observability_sweep(nl, covers, values, scope.map(|s| s.sources.as_slice()));
        let is_target = |g: GateId| scope.is_none_or(|s| s.is_target(g));
        // All stems usable as substituting sources.
        let src = Sources::new(
            values,
            nl.iter_live()
                .filter(|&g| !matches!(nl.kind(g), GateKind::Output))
                .filter(|&g| scope.is_none_or(|s| s.is_source(g)))
                .collect(),
        );
        // A stem that is never observable on these patterns would pass any
        // filter with any source; such fully redundant gates are skipped
        // to avoid a candidate explosion.
        let cares =
            |care: Option<&[u64]>| care.expect("sources have masks").iter().any(|&w| w != 0);
        let mut targets = Vec::new();
        if config.enable_os2 || config.enable_os3 {
            for (i, &a) in src.ids.iter().enumerate() {
                if matches!(nl.kind(a), GateKind::Cell(_))
                    && !nl.fanouts(a).is_empty()
                    && is_target(a)
                    && cares(obs.stem(a))
                {
                    targets.push(ScanTarget {
                        stem: a,
                        branch: None,
                        src: i as u32,
                        k: 0,
                    });
                }
            }
        }
        if config.enable_is2 || config.enable_is3 {
            for (i, &a) in src.ids.iter().enumerate() {
                for (k, &conn) in nl.fanouts(a).iter().enumerate() {
                    // Rewiring a PO branch is an output substitution in
                    // disguise; OS2 handles it with full bookkeeping.
                    if !matches!(nl.kind(conn.gate), GateKind::Output)
                        && is_target(conn.gate)
                        && cares(obs.branch(a, k))
                    {
                        targets.push(ScanTarget {
                            stem: a,
                            branch: Some(conn),
                            src: i as u32,
                            k: k as u32,
                        });
                    }
                }
            }
        }
        // Cycle filter: a substituting source must not lie in the
        // transitive fanout of the rewired stem/sink. Source-reach sets
        // for the whole netlist come from one reverse-topological sweep —
        // `O(netlist · sources/64)` total instead of
        // `O(targets · netlist)`, and exact for paths that leave and
        // re-enter a window.
        let reach = SourceReach::build(nl, &src.ids);
        CandidateScan {
            config: config.clone(),
            obs,
            src,
            reach,
            pair_cells: PairCells::detect(nl),
            targets,
            allowed: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// The targets, in scan order.
    #[must_use]
    pub fn targets(&self) -> &[ScanTarget] {
        &self.targets
    }

    /// Appends the candidates of target `t` to `out`, in emission order.
    pub fn scan(&mut self, t: usize, out: &mut Vec<Substitution>) {
        let ScanTarget {
            stem: a,
            branch,
            src: own,
            k,
        } = self.targets[t];
        let (src, config, cells) = (&self.src, &self.config, &self.pair_cells);
        // The AND/OR-type 3-input families in scan order; IS3 uses the
        // first two (the paper finds IS3 contributes least).
        let families = [
            (Op::And, false, cells.and2),
            (Op::Or, false, cells.or2),
            (Op::And, true, cells.nand2),
            (Op::Or, true, cells.nor2),
        ];
        let sig = src.sig(own as usize);
        match branch {
            None => {
                self.reach.allowed_into(a, a, &mut self.allowed);
                let care = self.obs.stem(a).expect("targets have masks");
                let t = Target::new(sig, care, &self.allowed);
                if config.enable_os2 {
                    src.two_input(&t, config, |b, invert| {
                        out.push(Substitution::Os2 { a, b, invert });
                    });
                }
                if config.enable_os3 {
                    let kept =
                        src.three_input(&t, &families, config, &mut self.pool, |cell, b, c| {
                            out.push(Substitution::Os3 { a, cell, b, c });
                        });
                    if kept < config.max_per_signal {
                        src.xor_pairs(&t, cells, config.max_per_signal, kept, |cell, b, c| {
                            out.push(Substitution::Os3 { a, cell, b, c });
                        });
                    }
                }
            }
            Some(Conn { gate: sink, pin }) => {
                self.reach.allowed_into(sink, a, &mut self.allowed);
                let care = self.obs.branch(a, k as usize).expect("targets have masks");
                let t = Target::new(sig, care, &self.allowed);
                if config.enable_is2 {
                    src.two_input(&t, config, |b, invert| {
                        out.push(Substitution::Is2 {
                            sink,
                            pin,
                            b,
                            invert,
                        });
                    });
                }
                if config.enable_is3 {
                    src.three_input(&t, &families[..2], config, &mut self.pool, |cell, b, c| {
                        out.push(Substitution::Is3 {
                            sink,
                            pin,
                            cell,
                            b,
                            c,
                        });
                    });
                }
            }
        }
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
/// same candidates in the same order. It scans every target of a
/// [`CandidateScan`] in order.
///
/// Every candidate names its target (the OS stem or the IS sink pin), and
/// each target's scans emit each (class, cell, `b`, `c`) at most once, so
/// the list has no duplicates and needs no deduplication.
#[must_use]
pub fn generate_candidates_scoped(
    nl: &Netlist,
    covers: &CellCovers,
    values: &SimValues,
    config: &CandidateConfig,
    scope: Option<&CandidateScope>,
) -> Vec<Substitution> {
    let mut scan = CandidateScan::new(nl, covers, values, config, scope);
    let mut out = Vec::new();
    for t in 0..scan.targets().len() {
        scan.scan(t, &mut out);
    }
    // Structural validity holds by construction — every scan filtered
    // sources through the allowed (non-TFO) set, which is exactly the
    // acyclicity condition `is_structurally_valid` re-derives with an
    // `O(netlist)` walk per candidate — and the exact checker re-validates
    // before anything is applied, so the eager re-checks are debug-only.
    debug_assert!(out.iter().all(|s| s.is_structurally_valid(nl)));
    debug_assert!(
        {
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        },
        "duplicate candidates"
    );
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
