//! Two-level minimisation: exact Quine–McCluskey for small functions and an
//! espresso-style expand/irredundant heuristic for larger ones.
//!
//! The pre-POWDER synthesis flow ([`powder-synth`](https://example.invalid))
//! minimises each output cone before factoring, mirroring the role POSE's
//! two-level engine plays in the paper's experimental setup.

use crate::{Cube, Sop, TruthTable};
use std::collections::{BTreeSet, HashSet};

/// Functions with at most this many variables are minimised exactly with
/// Quine–McCluskey; larger ones use the heuristic path.
pub const EXACT_VAR_LIMIT: usize = 10;

/// Minimises a truth table into a compact SOP covering exactly its onset.
///
/// Dispatches to [`quine_mccluskey`] for functions of at most
/// [`EXACT_VAR_LIMIT`] variables and to [`minimize_heuristic`] otherwise.
///
/// # Example
///
/// ```
/// use powder_logic::{minimize, TruthTable};
///
/// // x0·x1 + x0·!x1  minimises to the single cube x0
/// let tt = TruthTable::var(0, 2);
/// let sop = minimize::minimize(&tt);
/// assert_eq!(sop.cube_count(), 1);
/// assert_eq!(sop.to_tt(), tt);
/// ```
#[must_use]
pub fn minimize(tt: &TruthTable) -> Sop {
    if tt.vars() <= EXACT_VAR_LIMIT {
        quine_mccluskey(tt)
    } else {
        minimize_heuristic(tt)
    }
}

/// Exact prime generation followed by a greedy essential-first cover.
///
/// The cover is exact in the primes it uses (all cubes are prime implicants)
/// and near-minimal in count: essential primes are taken first, the rest of
/// the onset is covered greedily by the prime covering the most remaining
/// minterms.
///
/// # Panics
///
/// Panics if the table has more than 16 variables (prime generation is
/// exponential; use [`minimize_heuristic`] instead).
#[must_use]
pub fn quine_mccluskey(tt: &TruthTable) -> Sop {
    assert!(tt.vars() <= 16, "QM limited to 16 variables");
    let vars = tt.vars();
    if tt.is_zero() {
        return Sop::zero(vars);
    }
    if tt.is_one() {
        return Sop::one(vars);
    }

    // Generation: repeatedly merge adjacent cubes; unmerged cubes are prime.
    let mut current: HashSet<Cube> = tt.minterms().map(|m| Cube::minterm(m, vars)).collect();
    // Ordered, because the prime order reaches the greedy cover's
    // tie-breaks: a hash set would make the result vary run to run.
    let mut primes: BTreeSet<Cube> = BTreeSet::new();
    while !current.is_empty() {
        let cubes: Vec<Cube> = current.iter().copied().collect();
        let mut merged_flag = vec![false; cubes.len()];
        let mut next: HashSet<Cube> = HashSet::new();
        // Group by literal-support to cut the pairwise work: only cubes with
        // identical support can QM-merge.
        for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                if let Some(m) = cubes[i].merge_adjacent(&cubes[j]) {
                    merged_flag[i] = true;
                    merged_flag[j] = true;
                    next.insert(m);
                }
            }
        }
        for (i, c) in cubes.iter().enumerate() {
            if !merged_flag[i] {
                primes.insert(*c);
            }
        }
        current = next;
    }

    cover_greedy(tt, primes.into_iter().collect())
}

/// Greedy essential-first unate covering of `tt`'s onset with `primes`.
fn cover_greedy(tt: &TruthTable, primes: Vec<Cube>) -> Sop {
    let vars = tt.vars();
    let minterms: Vec<u64> = tt.minterms().collect();
    // coverage[k] = indices of primes covering minterm k
    let coverage: Vec<Vec<usize>> = minterms
        .iter()
        .map(|&m| {
            primes
                .iter()
                .enumerate()
                .filter(|(_, p)| p.eval(m))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    let mut chosen: BTreeSet<usize> = BTreeSet::new();
    let mut covered = vec![false; minterms.len()];

    // Essential primes: sole cover of some minterm.
    for cov in &coverage {
        if cov.len() == 1 {
            chosen.insert(cov[0]);
        }
    }
    for (k, cov) in coverage.iter().enumerate() {
        if cov.iter().any(|i| chosen.contains(i)) {
            covered[k] = true;
        }
    }

    // Greedy: repeatedly take the prime covering the most uncovered minterms,
    // breaking ties toward fewer literals.
    loop {
        let remaining: Vec<usize> = (0..minterms.len()).filter(|&k| !covered[k]).collect();
        if remaining.is_empty() {
            break;
        }
        let mut best: Option<(usize, usize)> = None; // (prime index, gain)
        for (i, p) in primes.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let gain = remaining.iter().filter(|&&k| p.eval(minterms[k])).count();
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bi, bg)) => {
                    gain > bg || (gain == bg && p.literal_count() < primes[bi].literal_count())
                }
            };
            if better {
                best = Some((i, gain));
            }
        }
        let (i, _) = best.expect("primes must cover the onset");
        chosen.insert(i);
        for &k in &remaining {
            if primes[i].eval(minterms[k]) {
                covered[k] = true;
            }
        }
    }

    let mut cubes: Vec<Cube> = chosen.into_iter().map(|i| primes[i]).collect();
    cubes.sort();
    Sop::from_cubes(vars, cubes)
}

/// Espresso-style heuristic minimisation: EXPAND each cube maximally against
/// the offset, then make the cover IRREDUNDANT, iterating to a fixpoint.
///
/// The truth table itself serves as the containment oracle, so the result is
/// always a correct cover of the onset.
#[must_use]
pub fn minimize_heuristic(tt: &TruthTable) -> Sop {
    let vars = tt.vars();
    if tt.is_zero() {
        return Sop::zero(vars);
    }
    if tt.is_one() {
        return Sop::one(vars);
    }
    let mut cover: Vec<Cube> = tt.minterms().map(|m| Cube::minterm(m, vars)).collect();
    let mut last_cost = u64::MAX;
    for _ in 0..4 {
        // EXPAND: drop literals while the cube stays inside the onset.
        for c in &mut cover {
            let mut cube = *c;
            for v in 0..vars {
                if cube.literal(v).is_some() {
                    let cand = cube.without_literal(v);
                    if cube_in_onset(&cand, tt) {
                        cube = cand;
                    }
                }
            }
            *c = cube;
        }
        // IRREDUNDANT: single-cube containment, then drop cubes whose
        // minterms are all covered by the rest.
        let mut sop = Sop::from_cubes(vars, cover.clone());
        sop.remove_contained();
        cover = sop.cubes().to_vec();
        let mut i = 0;
        while i < cover.len() {
            let candidate = cover[i];
            let others: Vec<Cube> = cover
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| *c)
                .collect();
            if cube_covered_by(&candidate, &others) {
                cover.remove(i);
            } else {
                i += 1;
            }
        }
        let cost: u64 = cover.iter().map(|c| u64::from(c.literal_count())).sum();
        if cost >= last_cost {
            break;
        }
        last_cost = cost;
    }
    cover.sort();
    Sop::from_cubes(vars, cover)
}

/// True if every minterm of `cube` is in the onset of `tt`.
fn cube_in_onset(cube: &Cube, tt: &TruthTable) -> bool {
    let vars = tt.vars();
    let free: Vec<usize> = (0..vars).filter(|&v| cube.literal(v).is_none()).collect();
    if free.len() > 24 {
        // Too many points to enumerate; conservatively reject the expansion.
        return false;
    }
    let base = cube.pos();
    for k in 0..(1u64 << free.len()) {
        let mut m = base;
        for (bit, &v) in free.iter().enumerate() {
            if (k >> bit) & 1 == 1 {
                m |= 1 << v;
            }
        }
        if !tt.eval(m) {
            return false;
        }
    }
    true
}

/// True if every minterm of `cube` is covered by some cube in `others`.
fn cube_covered_by(cube: &Cube, others: &[Cube]) -> bool {
    let free: Vec<usize> = (0..64)
        .filter(|&v| cube.literal(v).is_none())
        .take_while(|&v| v < 64)
        .collect();
    // Enumerate only over variables any cube actually mentions; unmentioned
    // variables cannot affect coverage.
    let relevant: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&v| others.iter().any(|o| o.literal(v).is_some()))
        .collect();
    if relevant.len() > 24 {
        return false;
    }
    let base = cube.pos();
    for k in 0..(1u64 << relevant.len()) {
        let mut m = base;
        for (bit, &v) in relevant.iter().enumerate() {
            if (k >> bit) & 1 == 1 {
                m |= 1 << v;
            }
        }
        if !others.iter().any(|o| o.eval(m)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_exact_cover(tt: &TruthTable, sop: &Sop) {
        assert_eq!(&sop.to_tt(), tt, "cover must equal the onset");
    }

    #[test]
    fn qm_classic_example() {
        // f(a,b) = a·b + a·!b = a
        let tt = TruthTable::var(0, 2);
        let sop = quine_mccluskey(&tt);
        assert_eq!(sop.cubes(), &[Cube::new(0b01, 0)]);
    }

    #[test]
    fn qm_xor_is_irreducible() {
        let tt = TruthTable::var(0, 2) ^ TruthTable::var(1, 2);
        let sop = quine_mccluskey(&tt);
        assert_eq!(sop.cube_count(), 2);
        check_exact_cover(&tt, &sop);
    }

    #[test]
    fn qm_majority() {
        let tt = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
        let sop = quine_mccluskey(&tt);
        assert_eq!(sop.cube_count(), 3); // ab + ac + bc
        assert_eq!(sop.literal_count(), 6);
        check_exact_cover(&tt, &sop);
    }

    #[test]
    fn qm_constants() {
        assert!(quine_mccluskey(&TruthTable::zero(4)).is_empty());
        assert_eq!(quine_mccluskey(&TruthTable::one(4)).cube_count(), 1);
    }

    #[test]
    fn qm_random_functions_cover_exactly() {
        let mut state = 0x9E3779B97F4A7C15u64;
        for vars in 1..=7 {
            for _ in 0..5 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let seed = state;
                let tt = TruthTable::from_fn(vars, |m| {
                    (seed.rotate_left((m % 63) as u32) ^ m)
                        .count_ones()
                        .is_multiple_of(2)
                });
                let sop = quine_mccluskey(&tt);
                check_exact_cover(&tt, &sop);
                // no worse than minterm canonical form
                assert!(sop.cube_count() as u64 <= tt.count_ones().max(1));
            }
        }
    }

    #[test]
    fn heuristic_matches_onset() {
        let tt = TruthTable::from_fn(11, |m| (m ^ (m >> 3)).count_ones() % 3 == 0);
        let sop = minimize_heuristic(&tt);
        check_exact_cover(&tt, &sop);
        assert!(sop.cube_count() as u64 <= tt.count_ones());
    }

    #[test]
    fn heuristic_simplifies_cube_pairs() {
        // onset = everything except one point: heuristic should do far
        // better than 2^6-1 minterms.
        let tt = TruthTable::from_fn(6, |m| m != 0);
        let sop = minimize_heuristic(&tt);
        check_exact_cover(&tt, &sop);
        assert!(sop.cube_count() <= 6);
    }

    #[test]
    fn dispatcher_picks_both_paths() {
        let small = TruthTable::from_fn(4, |m| m % 3 == 0);
        check_exact_cover(&small, &minimize(&small));
        let large = TruthTable::from_fn(EXACT_VAR_LIMIT + 1, |m| m % 5 == 0);
        check_exact_cover(&large, &minimize(&large));
    }
}
