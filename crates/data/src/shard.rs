//! Row-range dataset sharding.
//!
//! A [`ShardPlan`] splits the row index space `[0, n)` into `S` contiguous
//! ranges whose boundaries are **word-aligned**: every shard except the
//! last covers a multiple of 64 rows, so a bitset's backing words never
//! straddle two shards. That single invariant is what makes sharding
//! *exact* rather than approximate everywhere downstream:
//!
//! * a full-dataset mask's shard-`s` part is the zero-copy word slice
//!   `&mask.words()[plan.word_range(s)]`,
//! * concatenating the per-shard word slices in shard order reproduces
//!   the unsharded mask bit for bit, and
//! * per-shard popcounts sum to the exact full-dataset popcount.
//!
//! Shards are balanced at word granularity (`word_bounds[s] = s·W/S` for
//! `W` total words), so `S` larger than the word count simply yields empty
//! trailing shards — a plan is valid for any `S ≥ 1`, including `S = 1`
//! (the unsharded layout) and `S >` rows.

use crate::bitset::WORD_BITS;
use std::ops::Range;

/// A word-aligned partition of `[0, n)` into `S` contiguous row ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    /// `S + 1` word offsets: shard `s` covers words
    /// `word_bounds[s]..word_bounds[s+1]` of any length-`n` bitset.
    word_bounds: Vec<usize>,
}

impl ShardPlan {
    /// Splits `n` rows into `shards` word-aligned contiguous ranges,
    /// balanced at word granularity. `shards` may exceed the word count
    /// (the surplus shards are empty); `shards = 1` is the unsharded
    /// layout.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(n: usize, shards: usize) -> Self {
        assert!(shards >= 1, "ShardPlan: at least one shard required");
        let words = n.div_ceil(WORD_BITS);
        Self {
            n,
            // Balanced at word granularity, front-loaded: the ceiling
            // rounds early boundaries up, so when S exceeds the word count
            // the *leading* shards carry the words and the trailing ones
            // are empty.
            word_bounds: (0..=shards).map(|s| (s * words).div_ceil(shards)).collect(),
        }
    }

    /// Total number of rows the plan ranges over.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards `S`.
    #[inline]
    pub fn shards(&self) -> usize {
        self.word_bounds.len() - 1
    }

    /// Words of any length-`n` bitset belonging to shard `s` (empty for an
    /// empty shard).
    #[inline]
    pub fn word_range(&self, s: usize) -> Range<usize> {
        self.word_bounds[s]..self.word_bounds[s + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_rows_exactly_once_and_word_aligned() {
        for n in [0usize, 1, 63, 64, 65, 128, 200, 1000] {
            let words = n.div_ceil(WORD_BITS);
            for s in [1usize, 2, 3, 7, 64, 1000] {
                let plan = ShardPlan::new(n, s);
                assert_eq!(plan.shards(), s);
                assert_eq!(plan.n(), n);
                // Word ranges are contiguous and cover every word of a
                // length-n bitset once, so each shard's rows are whole
                // words (the last clamped to n).
                let mut next = 0usize;
                for k in 0..s {
                    let r = plan.word_range(k);
                    assert_eq!(r.start, next, "n={n} s={s} shard {k} not contiguous");
                    next = r.end;
                }
                assert_eq!(next, words, "n={n} s={s}: ranges must cover every word");
            }
        }
    }

    #[test]
    fn more_shards_than_words_leaves_trailing_shards_empty() {
        let plan = ShardPlan::new(100, 7); // 2 words, 7 shards
        let lens: Vec<usize> = (0..7).map(|s| plan.word_range(s).len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 2);
        assert!(lens.iter().all(|&l| l <= 1), "at most one word per shard");
        // S > n entirely.
        let tiny = ShardPlan::new(3, 10);
        assert_eq!(tiny.word_range(0), 0..1);
        assert!((1..10).all(|s| tiny.word_range(s).is_empty()));
    }

    #[test]
    fn zero_row_plan_is_all_empty() {
        let plan = ShardPlan::new(0, 3);
        for s in 0..3 {
            assert!(plan.word_range(s).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardPlan::new(10, 0);
    }
}
