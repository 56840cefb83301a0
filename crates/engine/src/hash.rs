//! [`ValueMap`]: the one hash table under group-by and join, keyed by a
//! [`Value`] and hashed by a single multiply.
//!
//! std's default SipHash spends tens of nanoseconds on an `i64` key, and
//! every grouped row and every join probe paid it. A [`ValueHash`] key `k`
//! hashes with one multiply: `v = k ^ seed` times its own half-rotation
//! `v.rotate_left(32) ^ C`, as a 64×64→128-bit product whose high half is
//! XORed onto its low half. The fold lets a key's high bits reach the
//! bucket index (the low bits), and the rotation puts each key half into
//! both factors, so keys that differ only in their high bits — multiples
//! of 2^32, 2^48 strides — spread like sequential ones, where a fixed
//! multiplier leaves some such stride clustered. The seed comes once per
//! table from std's [`RandomState`], so keys cannot be chosen in advance
//! to collide.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use amnesia_columnar::Value;

/// A hash map from [`Value`] keys: the group table's index, a join build
/// side, the truth join's build.
pub type ValueMap<V> = HashMap<Value, V, ValueHash>;

/// `C`, XORed into the second factor so it is never the first factor's
/// rotation: π's fractional digits.
const PI: u64 = 0x243F_6A88_85A3_08D3;

/// The 128-bit product of `a` and `b`, its high half folded onto its low.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The [`BuildHasher`] of a [`ValueMap`]: one random seed per table.
#[derive(Debug, Clone, Copy)]
pub struct ValueHash {
    seed: u64,
}

impl Default for ValueHash {
    /// A fresh seed from std's per-process random keys.
    fn default() -> Self {
        Self {
            seed: RandomState::new().hash_one(PI),
        }
    }
}

impl BuildHasher for ValueHash {
    type Hasher = ValueHasher;

    #[inline]
    fn build_hasher(&self) -> ValueHasher {
        ValueHasher { hash: self.seed }
    }
}

/// The hasher a [`ValueHash`] builds: a [`Value`] key is one
/// [`Hasher::write_i64`], one multiply.
#[derive(Debug, Clone, Copy)]
pub struct ValueHasher {
    hash: u64,
}

impl Hasher for ValueHasher {
    #[inline]
    fn write_u64(&mut self, k: u64) {
        let v = self.hash ^ k;
        self.hash = folded_multiply(v, v.rotate_left(32) ^ PI);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Any other input, eight little-endian bytes at a time (a [`Value`]
    /// key never comes through here).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct values among the low 10 bits of each key's hash — the
    /// bucket index of a table with 1 024 buckets.
    fn bucket_spread(hash: ValueHash, keys: &[Value]) -> usize {
        let mut seen: Vec<u64> = keys.iter().map(|&k| hash.hash_one(k) & 1023).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    #[test]
    fn high_bit_keys_spread_over_buckets() {
        // 4 096 keys into 1 024 buckets: a uniform hash fills ~98 % of them
        // (1 − e^−4); one blind to the varying bits fills one. Fixed
        // random-looking seeds (digits of π, φ and e) stand in for
        // `RandomState`'s and keep the test deterministic.
        let n = 4_096i64;
        let families = [
            ("sequential", (0..n).collect::<Vec<_>>()),
            ("negative", (0..n).map(|i| -i).collect()),
            ("from i64::MIN", (0..n).map(|i| i64::MIN + i).collect()),
            ("2^32 multiples", (0..n).map(|i| i << 32).collect()),
            ("2^48 strides", (0..n).map(|i| i << 48).collect()),
            ("top 12 bits", (0..n).map(|i| i.wrapping_shl(52)).collect()),
        ];
        for seed in [
            0x1319_8A2E_0370_7344,
            0xA409_3822_299F_31D0,
            0x9E37_79B9_7F4A_7C15,
            0xB7E1_5162_8AED_2A6A,
        ] {
            for (name, keys) in &families {
                let spread = bucket_spread(ValueHash { seed }, keys);
                assert!(spread > 900, "{name}, seed {seed:#x}: {spread} of 1024");
            }
        }
    }

    #[test]
    fn seeds_differ_per_table_and_keys_agree_within_one() {
        let (a, b) = (ValueHash::default(), ValueHash::default());
        assert_ne!(a.hash_one(7i64), b.hash_one(7i64), "one seed per table");
        assert_eq!(a.hash_one(7i64), a.hash_one(7i64));
        let mut map: ValueMap<u32> = ValueMap::default();
        for (i, k) in [i64::MIN, -1, 0, 1, i64::MAX].into_iter().enumerate() {
            map.insert(k, i as u32);
        }
        assert_eq!(map.get(&i64::MIN), Some(&0));
        assert_eq!(map.get(&i64::MAX), Some(&4));
        assert_eq!(map.get(&2), None);
    }
}
