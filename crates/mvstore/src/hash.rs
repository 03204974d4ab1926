//! A small multiply-xor hasher for the integer-keyed hot maps.
//!
//! The store's shard maps (keyed by [`GranuleId`](txn_model::GranuleId))
//! and the HDD live-transaction table (keyed by
//! [`TxnId`](txn_model::TxnId)) are touched on every operation. Their
//! keys are a few machine words with no adversarial input, so the
//! default SipHash (keyed, DoS-resistant, ~20 ns per lookup) buys
//! nothing there. [`IntHasher`] folds each word in with one rotate, one
//! xor and one multiply (the FxHash step), and finishes with a rotate so
//! both the low bits (the table's bucket index) and the top bits (its
//! per-slot tag) depend on every input bit — sequential ids that share
//! their low bits (the transaction table shards by `id & 15`) still
//! spread across buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the FxHash step (distinct from the golden-ratio
/// constant the store uses to pick shards, so the shard index and the
/// in-shard hash stay uncorrelated).
const K: u64 = 0x517C_C1B7_2722_0A95;

/// Multiply-xor hasher for small integer keys (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use txn_model::{GranuleId, SegmentId, TxnId};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        IntBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let a = GranuleId::new(SegmentId(3), 17);
        assert_eq!(hash_of(&a), hash_of(&GranuleId::new(SegmentId(3), 17)));
        assert_ne!(hash_of(&a), hash_of(&GranuleId::new(SegmentId(3), 18)));
        assert_ne!(hash_of(&a), hash_of(&GranuleId::new(SegmentId(4), 17)));
    }

    #[test]
    fn ids_sharing_low_bits_spread_over_buckets() {
        // One transaction-table shard sees ids that agree mod 16; the
        // bucket index (low bits) and the slot tag (top 7 bits) must
        // still vary.
        let ids: Vec<u64> = (0..1024u64).map(|i| hash_of(&TxnId(i * 16 + 5))).collect();
        let buckets: std::collections::HashSet<u64> = ids.iter().map(|h| h & 255).collect();
        let tags: std::collections::HashSet<u64> = ids.iter().map(|h| h >> 57).collect();
        assert!(
            buckets.len() > 200,
            "only {} of 256 buckets used",
            buckets.len()
        );
        assert!(tags.len() > 100, "only {} of 128 tags used", tags.len());
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut h1 = IntHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = IntHasher::default();
        h2.write(&[1, 2, 4]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
