//! The hasher of the engines' state maps: a keyed multiply-fold over 64-bit words.
//!
//! Every engine finds its per-instance state in a hash map on every frame it handles.
//! The keys are a few machine words: a [`crate::types::Content`] hashes as its source,
//! its sequence number and its payload's cached digest, and the other keys are
//! `(process, seq)` pairs and broadcast ids. For keys that short, std's SipHash-1-3
//! spends most of a lookup in its rounds. [`WordState`] folds each word into the state
//! with one 64 x 64 -> 128-bit multiplication and ends with an avalanche.
//!
//! **Why it is keyed.** The words come from frames a Byzantine sender chooses. Each map
//! draws its own two keys from a fresh std `RandomState`, and the key enters every word
//! step: the state is xored with the word and multiplied by the key. Which bucket an
//! identifier or payload lands in is therefore different in every map and every run, and
//! a sender cannot aim frames at one bucket without knowing the key, just as with
//! SipHash. Iteration order stays as unpredictable as with `RandomState`, so nothing
//! may depend on it, as before.
//!
//! **What it trades against SipHash.** SipHash is a pseudo-random function: its output
//! reveals nothing usable about its key even to an adversary who sees many hashes. A
//! multiply-fold has no such argument. An adversary who could measure lookup times
//! finely enough, over many probes of one long-lived map, might learn something about
//! its key; SipHash is designed so that this does not help. The engines' maps are
//! private, and their timing is buried in the network's delays. The speed is what the
//! trade buys: one multiplication per word instead of SipHash's rounds per lookup.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A hash map keyed by [`WordState`].
pub(crate) type WordMap<K, V> = HashMap<K, V, WordState>;

/// A hash set keyed by [`WordState`].
pub(crate) type WordSet<K> = HashSet<K, WordState>;

/// Builds [`WordHasher`]s with one map's keys, drawn from std's `RandomState` when the
/// map is created.
#[derive(Debug, Clone)]
pub(crate) struct WordState {
    seed: u64,
    /// Odd, so that no word step multiplies by zero.
    multiplier: u64,
}

impl Default for WordState {
    fn default() -> Self {
        let keys = RandomState::new();
        Self {
            seed: keys.hash_one(0u8),
            multiplier: keys.hash_one(1u8) | 1,
        }
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            state: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// Hashes a key word by word: `state = fold(state ^ word, multiplier)`, where `fold`
/// xors the high and low halves of the 128-bit product, and `finish` avalanches.
#[derive(Debug, Clone)]
pub(crate) struct WordHasher {
    state: u64,
    multiplier: u64,
}

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Byte strings go in eight bytes at a time; a short tail is zero-padded and carries
    /// its length in its last byte.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The final avalanche (MurmurHash3's 64-bit finaliser): every output bit depends
    /// on every state bit, so both the bucket index (low bits) and the control byte
    /// (high bits) of the table see the whole key.
    #[inline]
    fn finish(&self) -> u64 {
        let mut hash = self.state;
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        hash ^ (hash >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BroadcastId, Content, Payload};

    #[test]
    fn equal_keys_hash_equal_within_a_map() {
        let state = WordState::default();
        let content = Content::new(BroadcastId::new(3, 9), Payload::filled(7, 16));
        assert_eq!(state.hash_one(&content), state.hash_one(content.clone()));
        assert_ne!(
            state.hash_one(&content),
            state.hash_one(Content::new(
                BroadcastId::new(3, 10),
                Payload::filled(7, 16)
            ))
        );
    }

    #[test]
    fn each_map_draws_its_own_key() {
        let id = BroadcastId::new(1, 2);
        let hashes: Vec<u64> = (0..8).map(|_| WordState::default().hash_one(id)).collect();
        assert!(hashes.windows(2).all(|w| w[0] != w[1]), "{hashes:x?}");
    }

    #[test]
    fn byte_tails_of_different_lengths_differ() {
        let state = WordState::default();
        let hash = |bytes: &[u8]| {
            let mut hasher = state.build_hasher();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(hash(&[0]), hash(&[0, 0]));
        assert_ne!(hash(&[]), hash(&[0]));
        assert_ne!(hash(&[1; 9]), hash(&[1; 8]));
    }

    #[test]
    fn low_bits_spread_over_consecutive_ids() {
        // 4 096 consecutive (source, seq) ids into 256 buckets by the low byte, as a
        // table of that size indexes them, under three fixed keys (hex digits of pi):
        // every bucket is hit and none takes more than two and a half times its share.
        for (seed, multiplier) in [
            (0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7345 | 1),
            (0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89 | 1),
            (0x4528_21E6_38D0_1377, 0xBE54_66CF_34E9_0C6C | 1),
        ] {
            let state = WordState { seed, multiplier };
            let mut buckets = [0u32; 256];
            for source in 0..64 {
                for seq in 0..64 {
                    buckets[(state.hash_one(BroadcastId::new(source, seq)) & 0xFF) as usize] += 1;
                }
            }
            assert!(
                buckets.iter().all(|&hits| (1..=40).contains(&hits)),
                "{buckets:?}"
            );
        }
    }
}
