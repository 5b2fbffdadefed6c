//! Cone tables: the exact function of an e-class over the cone leaves,
//! in four machine words.
//!
//! A cone has at most [`MAX_CONE_LEAVES`] leaves, so every class
//! function fits 2^8 = 256 bits. The table is `Copy`: composing a node's
//! function from its children's builds nothing on the heap.

use powder_logic::TruthTable;
use std::hash::{Hash, Hasher};
use std::ops::{BitAnd, BitOr, BitXor};

/// Maximum non-constant leaves of a cone: the width of a [`ConeTable`].
pub const MAX_CONE_LEAVES: usize = 8;

/// Words of a [`ConeTable`].
const WORDS: usize = (1 << MAX_CONE_LEAVES) / 64;

/// Projection masks of variables 0..6 within one 64-bit table word; the
/// low 16 bits are the 4-variable tables fold shapes are packed into.
pub(crate) const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A Boolean function of at most [`MAX_CONE_LEAVES`] variables. Bit `m`
/// is its value at minterm `m` (variable `i` is bit `i` of `m`); bits at
/// and above `2^vars` are zero, so equal functions have equal tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConeTable([u64; WORDS]);

impl Hash for ConeTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in self.0 {
            state.write_u64(w);
        }
    }
}

impl ConeTable {
    /// The constant-0 function.
    pub const ZERO: ConeTable = ConeTable([0; WORDS]);

    /// The constant-1 function over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars > MAX_CONE_LEAVES`.
    #[must_use]
    pub fn one(vars: usize) -> Self {
        assert!(
            vars <= MAX_CONE_LEAVES,
            "cone table limited to {MAX_CONE_LEAVES} variables, got {vars}"
        );
        let mut words = [0; WORDS];
        if vars < 6 {
            words[0] = (1 << (1 << vars)) - 1;
        } else {
            words[..1 << (vars - 6)].fill(u64::MAX);
        }
        ConeTable(words)
    }

    /// The projection of variable `index` over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `index >= vars` or `vars > MAX_CONE_LEAVES`.
    #[must_use]
    pub fn var(index: usize, vars: usize) -> Self {
        assert!(
            index < vars,
            "variable {index} out of range for {vars} vars"
        );
        let words = std::array::from_fn(|w| match index {
            0..=5 => VAR_MASKS[index],
            _ if (w >> (index - 6)) & 1 == 1 => u64::MAX,
            _ => 0,
        });
        ConeTable(words) & Self::one(vars)
    }

    /// The table's words; bit `m % 64` of word `m / 64` is minterm `m`.
    #[must_use]
    pub fn words(&self) -> &[u64; WORDS] {
        &self.0
    }

    /// True for the constant-0 function.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; WORDS]
    }

    /// Composes the cell function `f` with the inputs `sub(0)`, …,
    /// `sub(k - 1)` for its `k` pins: the OR over `f`'s minterms of the
    /// AND of each input or its complement, word by word. `one` is the
    /// constant-1 table of the inputs' width.
    #[must_use]
    pub fn compose(f: &TruthTable, sub: impl Fn(usize) -> ConeTable, one: ConeTable) -> Self {
        let mut acc = ConeTable::ZERO;
        for m in minterms(f.as_words()) {
            let mut term = one;
            for i in 0..f.vars() {
                let flip = if (m >> i) & 1 == 1 {
                    ConeTable::ZERO
                } else {
                    one
                };
                term = term & (sub(i) ^ flip);
            }
            acc = acc | term;
        }
        acc
    }

    /// The table of `tt`, a function of at most [`MAX_CONE_LEAVES`]
    /// variables.
    #[cfg(test)]
    pub(crate) fn from_truth_table(tt: &TruthTable) -> Self {
        assert!(tt.vars() <= MAX_CONE_LEAVES);
        let mut words = [0; WORDS];
        words[..tt.as_words().len()].copy_from_slice(tt.as_words());
        ConeTable(words)
    }
}

/// The set bits of `words`, ascending: the minterms of a table.
pub(crate) fn minterms(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let m = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                m
            })
        })
    })
}

impl BitAnd for ConeTable {
    type Output = ConeTable;

    fn bitand(self, rhs: ConeTable) -> ConeTable {
        ConeTable(std::array::from_fn(|w| self.0[w] & rhs.0[w]))
    }
}

impl BitOr for ConeTable {
    type Output = ConeTable;

    fn bitor(self, rhs: ConeTable) -> ConeTable {
        ConeTable(std::array::from_fn(|w| self.0[w] | rhs.0[w]))
    }
}

impl BitXor for ConeTable {
    type Output = ConeTable;

    fn bitxor(self, rhs: ConeTable) -> ConeTable {
        ConeTable(std::array::from_fn(|w| self.0[w] ^ rhs.0[w]))
    }
}
