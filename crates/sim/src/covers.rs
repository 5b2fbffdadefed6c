//! Per-cell SOP covers and the one evaluator every packed gate
//! evaluation goes through.

use powder_library::{CellId, Library};
use powder_logic::{minimize, Cube};

/// Words one cube pass of [`CellCovers::eval`] covers: the evaluator
/// walks longer word ranges in blocks of this many words, so its term
/// buffer lives on the stack.
const BLOCK: usize = 64;

/// Cached sum-of-products covers for every cell in a library.
///
/// Evaluating a cell over packed pattern words reduces to, per cube, an AND
/// of (possibly complemented) fanin words — typically 1–4 cubes for the
/// classic cell set, far cheaper than per-bit truth-table lookups.
#[derive(Clone, Debug)]
pub struct CellCovers {
    covers: Vec<Vec<Cube>>,
}

impl CellCovers {
    /// Computes covers for all cells of `library`.
    #[must_use]
    pub fn new(library: &Library) -> Self {
        let covers = library
            .iter()
            .map(|(_, cell)| minimize::minimize(&cell.function).cubes().to_vec())
            .collect();
        CellCovers { covers }
    }

    /// The cover of cell `cell`.
    #[must_use]
    pub fn cover(&self, cell: CellId) -> &[Cube] {
        &self.covers[cell.0 as usize]
    }

    /// Evaluates cell `cell` on `out.len()` packed words: pin `p` reads
    /// words `0..out.len()` of `pin(p)`, complemented where bit `p` of
    /// `flip` is set (the sweep's "this one pin sees the flipped value").
    ///
    /// Cube-major over word slices: each cube ANDs whole slices of its
    /// literals' words and ORs the term into `out`, [`BLOCK`] words at a
    /// time. The literals' phases are resolved once per cube, not per
    /// word, so the word loops are branch-free. An empty cover (constant
    /// 0) writes zeros; an empty cube (constant 1) writes ones.
    ///
    /// # Panics
    ///
    /// Panics if a pin of the cover has fewer than `out.len()` words.
    #[inline]
    pub fn eval<'a>(
        &self,
        cell: CellId,
        pin: impl Fn(usize) -> &'a [u64],
        flip: u64,
        out: &mut [u64],
    ) {
        let cover = self.cover(cell);
        let mut term = [0u64; BLOCK];
        for (b, out) in out.chunks_mut(BLOCK).enumerate() {
            let at = b * BLOCK;
            let Some((first, rest)) = cover.split_first() else {
                out.fill(0);
                continue;
            };
            // The first cube builds its term in `out` itself.
            cube_term(first, &pin, flip, at, out);
            let term = &mut term[..out.len()];
            for cube in rest {
                cube_term(cube, &pin, flip, at, term);
                for (o, &t) in out.iter_mut().zip(term.iter()) {
                    *o |= t;
                }
            }
        }
    }
}

/// Writes to `term` the AND of `cube`'s literals over words
/// `at..at + term.len()` of its pins, pin `v` complemented where it is a
/// negative literal xor bit `v` of `flip` is set.
#[inline]
fn cube_term<'a>(
    cube: &Cube,
    pin: &impl Fn(usize) -> &'a [u64],
    flip: u64,
    at: usize,
    term: &mut [u64],
) {
    let neg = cube.neg() ^ flip;
    let n = term.len();
    let lit = |v: u32| {
        let v = v as usize;
        (&pin(v)[at..at + n], 0u64.wrapping_sub((neg >> v) & 1))
    };
    let mut lits = cube.support_mask();
    if lits == 0 {
        term.fill(u64::MAX);
        return;
    }
    let (words, phase) = lit(lits.trailing_zeros());
    for (t, &x) in term.iter_mut().zip(words) {
        *t = x ^ phase;
    }
    lits &= lits - 1;
    while lits != 0 {
        let (words, phase) = lit(lits.trailing_zeros());
        for (t, &x) in term.iter_mut().zip(words) {
            *t &= x ^ phase;
        }
        lits &= lits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;

    #[test]
    fn covers_match_cell_functions() {
        let lib = lib2();
        let covers = CellCovers::new(&lib);
        for (id, cell) in lib.iter() {
            let k = cell.inputs();
            // exhaustive check via single-word packing for k <= 6
            let mut fanin_words = vec![[0u64]; k];
            for m in 0..(1u64 << k) {
                for (i, fanin_word) in fanin_words.iter_mut().enumerate() {
                    if (m >> i) & 1 == 1 {
                        fanin_word[0] |= 1 << m;
                    }
                }
            }
            let mut out = [0u64];
            covers.eval(id, |p| &fanin_words[p], 0, &mut out);
            for m in 0..(1u64 << k) {
                assert_eq!(
                    (out[0] >> m) & 1 == 1,
                    cell.function.eval(m),
                    "cell {} minterm {m}",
                    cell.name
                );
            }
        }
    }
}
