//! One small hasher for the structural tables of the front end and the
//! tape builder.
//!
//! The BDD unique and ITE tables, the tape's op hash-consing and the
//! expression memo of the lowering are keyed by small integers and
//! tuples of them: node indices, BDD references, register numbers, float
//! bit patterns and expression addresses. std's randomly seeded SipHash
//! spends more time on those keys than the table probe does.
//! [`FxHasher`] is the multiply–rotate word hash rustc uses for the same
//! kind of keys: one rotate, xor and multiply per word.
//!
//! Keys that come from input text (node and parameter names) stay on
//! std's [`RandomState`](std::collections::hash_map::RandomState): a
//! fixed, unkeyed hash lets chosen names collide on purpose. Keys that are
//! dense indices (node ids, BDD levels, leaf slots, registers) need no
//! hash at all and live in `Vec`s.
//!
//! ```
//! use safety_opt_engine::hash::FxHashMap;
//!
//! let mut unique: FxHashMap<(u32, u32, u32), u32> = FxHashMap::default();
//! unique.insert((3, 0, 1), 2);
//! assert_eq!(unique.get(&(3, 0, 1)), Some(&2));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply–rotate word hasher (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier with well-spread bits (from rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's low bits depend only on the key's low bits, and
    /// the table indexes buckets by the low bits, so aligned addresses
    /// and small strides would crowd few buckets; the rotation hands it
    /// the well-mixed high bits instead.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; the hasher state of [`FxHashMap`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on [`FxHasher`], for structural (non-text) keys.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_and_neighbours_differ() {
        assert_eq!(hash_of((3u32, 7u32, 9u32)), hash_of((3u32, 7u32, 9u32)));
        assert_ne!(hash_of((3u32, 7u32, 9u32)), hash_of((3u32, 9u32, 7u32)));
        assert_ne!(hash_of(1usize), hash_of(2usize));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        assert_ne!(hash_of([1u8; 9].as_slice()), hash_of([1u8; 8].as_slice()));
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefghj"));
    }

    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        // 16-byte strides, as heap addresses come: the low 10 bits of
        // 1024 consecutive keys must hit most of the 1024 values.
        let mut seen = vec![false; 1024];
        for k in 0..1024u64 {
            seen[(hash_of(0x7f00_0000_0000u64 + 16 * k) & 1023) as usize] = true;
        }
        let hit = seen.iter().filter(|&&s| s).count();
        assert!(hit > 600, "{hit} of 1024 buckets");
    }
}
