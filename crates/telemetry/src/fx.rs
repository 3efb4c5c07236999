//! A fast, deterministic hasher for telemetry's per-event keyed stores.
//!
//! Fx-style (the hash rustc uses internally): one rotate-xor-multiply per
//! machine word, no per-process seed. That makes it several times cheaper
//! than the standard SipHash `RandomState` on the small keys recorded on
//! every event (track keys, resource names, route triples) and identical
//! from run to run. It is not DoS-resistant, which does not matter for
//! keys the simulator makes itself. Every reader that iterates an
//! [`FxMap`] sorts first, so no export depends on hash order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style [`Hasher`]; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` under [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_seedless_and_separate_keys() {
        // No per-process seed: the same key hashes the same every time.
        assert_eq!(hash("fab.s3.p1"), hash("fab.s3.p1"));
        assert_ne!(hash("fab.s3.p1"), hash("fab.s3.p2"));
        assert_ne!(hash((0usize, 1usize, 7u64)), hash((1usize, 0usize, 7u64)));
        // A word-sized tail and a partial tail both reach the hash.
        assert_ne!(hash("abcdefgh"), hash("abcdefghi"));
    }
}
