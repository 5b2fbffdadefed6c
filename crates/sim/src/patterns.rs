//! Packed random input patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set of input patterns, bit-packed 64 per word: `bits[i][w]` holds
/// patterns `64·w .. 64·w+63` of primary input `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Patterns {
    words: usize,
    bits: Vec<Vec<u64>>,
    /// Bits of the last word filled by [`Patterns::push_pattern`];
    /// 0 means the last word is a full (bulk-generated) word.
    tail_used: usize,
}

impl Patterns {
    /// Uniform random patterns for `inputs` primary inputs, `words × 64`
    /// vectors, deterministically derived from `seed`.
    #[must_use]
    pub fn random(inputs: usize, words: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = (0..inputs)
            .map(|_| (0..words).map(|_| rng.gen()).collect())
            .collect();
        Patterns {
            words,
            bits,
            tail_used: 0,
        }
    }

    /// All `2^inputs` exhaustive patterns (padded to whole words by
    /// repeating the last pattern).
    ///
    /// # Panics
    ///
    /// Panics if `inputs > 16` (65 536 patterns — beyond that exhaustive
    /// simulation is pointless).
    #[must_use]
    pub fn exhaustive(inputs: usize) -> Self {
        assert!(inputs <= 16, "exhaustive patterns limited to 16 inputs");
        let n: usize = 1 << inputs;
        let words = n.div_ceil(64);
        let mut bits = vec![vec![0u64; words]; inputs];
        for m in 0..(words * 64) {
            let pat = (m.min(n - 1)) as u64;
            for (i, lane) in bits.iter_mut().enumerate() {
                if (pat >> i) & 1 == 1 {
                    lane[m / 64] |= 1 << (m % 64);
                }
            }
        }
        Patterns {
            words,
            bits,
            tail_used: 0,
        }
    }

    /// Rebuilds a pattern set from its exact raw state, including the
    /// partially-filled tail left by [`Patterns::push_pattern`]. This is
    /// the restore half of checkpointing: a set rebuilt from
    /// (`input_bits`, `tail_used`) continues packing learned patterns
    /// exactly where the original would have.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `tail_used > 64`.
    #[must_use]
    pub fn from_raw(bits: Vec<Vec<u64>>, tail_used: usize) -> Self {
        let words = bits.first().map_or(0, Vec::len);
        assert!(bits.iter().all(|b| b.len() == words), "ragged pattern rows");
        assert!(tail_used <= 64, "tail_used out of range");
        Patterns {
            words,
            bits,
            tail_used,
        }
    }

    /// Bits of the last word filled by [`Patterns::push_pattern`]
    /// (0 = the last word is a full bulk-generated word). Needed to
    /// serialize a pattern set exactly.
    #[must_use]
    pub fn tail_used(&self) -> usize {
        self.tail_used
    }

    /// Number of 64-pattern words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of primary inputs covered.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.bits.len()
    }

    /// Total number of patterns (`64 × words`).
    #[must_use]
    pub fn count(&self) -> usize {
        self.words * 64
    }

    /// The packed words of input `i`.
    #[must_use]
    pub fn input_bits(&self, i: usize) -> &[u64] {
        &self.bits[i]
    }

    /// Appends one extra pattern (e.g. an ATPG counterexample) to every
    /// input lane. Patterns pushed this way are packed 64 per word; the
    /// unfilled tail of the newest word replicates the latest pattern
    /// (harmless duplicates for simulation purposes).
    pub fn push_pattern(&mut self, assignment: &[bool]) {
        assert_eq!(assignment.len(), self.bits.len(), "assignment arity");
        if self.tail_used == 0 || self.tail_used >= 64 {
            for (lane, &v) in self.bits.iter_mut().zip(assignment) {
                lane.push(if v { u64::MAX } else { 0 });
            }
            self.words += 1;
            self.tail_used = 1;
        } else {
            // Overwrite the replicated padding from bit `tail_used` up with
            // the new pattern's value.
            let mask = u64::MAX << self.tail_used;
            for (lane, &v) in self.bits.iter_mut().zip(assignment) {
                let w = lane.last_mut().expect("tail word exists");
                if v {
                    *w |= mask;
                } else {
                    *w &= !mask;
                }
            }
            self.tail_used += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let a = Patterns::random(4, 2, 7);
        let b = Patterns::random(4, 2, 7);
        let c = Patterns::random(4, 2, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.count(), 128);
    }

    #[test]
    fn exhaustive_covers_all_assignments() {
        let p = Patterns::exhaustive(3);
        // pattern m (< 8) has input i bit = (m>>i)&1
        for m in 0..8usize {
            for i in 0..3 {
                let bit = (p.input_bits(i)[m / 64] >> (m % 64)) & 1;
                assert_eq!(bit, ((m >> i) & 1) as u64);
            }
        }
    }

    #[test]
    fn from_raw_restores_push_state_exactly() {
        let mut a = Patterns::random(2, 1, 9);
        a.push_pattern(&[true, false]);
        a.push_pattern(&[false, true]);
        // Rebuild from the serialized view and continue pushing on both.
        let rows = (0..a.inputs()).map(|i| a.input_bits(i).to_vec()).collect();
        let mut b = Patterns::from_raw(rows, a.tail_used());
        assert_eq!(a, b);
        a.push_pattern(&[true, true]);
        b.push_pattern(&[true, true]);
        assert_eq!(a, b, "restored set packs identically");
    }

    #[test]
    fn push_pattern_appends_word_then_packs() {
        let mut p = Patterns::random(2, 1, 1);
        p.push_pattern(&[true, false]);
        assert_eq!(p.words(), 2);
        assert_eq!(p.input_bits(0)[1], u64::MAX);
        assert_eq!(p.input_bits(1)[1], 0);
        // The second pushed pattern shares the word.
        p.push_pattern(&[false, true]);
        assert_eq!(p.words(), 2);
        // bit 0 keeps the first witness, bits 1.. hold the second.
        assert_eq!(p.input_bits(0)[1] & 1, 1);
        assert_eq!(p.input_bits(0)[1] >> 1, 0);
        assert_eq!(p.input_bits(1)[1] & 1, 0);
        assert_eq!(p.input_bits(1)[1] >> 1, u64::MAX >> 1);
        // 63 more fit before a new word is allocated.
        for _ in 0..62 {
            p.push_pattern(&[true, true]);
        }
        assert_eq!(p.words(), 2);
        p.push_pattern(&[true, true]);
        assert_eq!(p.words(), 3);
    }
}
