//! The one hasher of the simulator's hash maps.
//!
//! Every key the simulator hashes on a per-op or per-event path — segment
//! numbers, VM numbers, event sequence numbers — is a small integer it made
//! itself, never input crafted to collide. The standard library's SipHash
//! guards against such input and is keyed at random per process: here that
//! bought nothing, cost half the lockstep oracle's wall (BENCH.md),
//! and gave two maps fed the same keys two iteration orders. [`FastHasher`]
//! is the FxHash step instead — one rotate, xor and multiply per word —
//! with a fixed seed, so a map's iteration order is the same in every
//! process for the same inserts and removes. No output may depend on that
//! order all the same: where one would, sort or use a `BTreeMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplier.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash over 64-bit words: `h = (h.rotl(5) ^ word) * K`, one step per
/// integer written and per eight bytes of a byte string.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn step(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.step(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// Each integer is one step, whatever its width, and a key hashes the
    /// same in every map and every process.
    #[test]
    fn each_integer_is_one_fixed_step() {
        assert_eq!(hash_of(1u64), K);
        assert_eq!(hash_of(1u16), hash_of(1u32));
        assert_eq!(hash_of(1usize), K);
        let two = (K.rotate_left(5) ^ 2).wrapping_mul(K);
        assert_eq!(hash_of((1u16, 2u32)), two);
        let mut bytes = FastHasher::default();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(bytes.finish(), two, "bytes go in little-endian words, the tail zero-padded");
    }
}
