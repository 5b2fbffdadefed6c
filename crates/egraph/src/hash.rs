//! The crate's one hasher: a multiply-rotate word mixer.
//!
//! Every map in the crate is keyed by data internal to an e-graph or
//! its rule cache: node hashes and cone tables (bounded by a cone's node
//! budget) and cell ids. None is keyed by outside input, and no map is
//! ever iterated, so the hasher decides speed only, never a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map under [`WordHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Odd multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Folds each word in with a rotate, an xor and a multiply; `finish`
/// rotates the well-mixed high bits down to where a table indexes.
#[derive(Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    /// Folds one word into the state.
    #[inline]
    pub(crate) fn mix(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
}
