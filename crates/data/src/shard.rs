//! Row-range dataset sharding.
//!
//! A [`ShardPlan`] splits the row index space `[0, n)` into `S` contiguous
//! ranges whose boundaries are **word-aligned**: every shard except the
//! last covers a multiple of 64 rows, so a [`BitSet`]'s backing words never
//! straddle two shards. That single invariant is what makes sharding
//! *exact* rather than approximate everywhere downstream:
//!
//! * slicing a full-dataset mask into per-shard masks is a word-range copy
//!   ([`BitSet::shard`]) or a zero-copy word-slice view
//!   (`&mask.words()[plan.word_range(s)]`),
//! * merging per-shard masks back is plain word concatenation
//!   ([`BitSet::concat_words`]), bit-identical to the unsharded mask,
//! * per-shard popcounts sum to the exact full-dataset popcount, and
//! * folding per-shard row scans **in shard order** visits rows in exactly
//!   the ascending order a full-dataset scan visits them, so even
//!   floating-point accumulations reproduce the unsharded result
//!   bit-for-bit (see [`crate::Dataset::target_mean_sharded`]).
//!
//! Shards are balanced at word granularity (`word_bounds[s] = s·W/S` for
//! `W` total words), so `S` larger than the word count simply yields empty
//! trailing shards — a plan is valid for any `S ≥ 1`, including `S = 1`
//! (the unsharded layout) and `S >` rows.

use crate::bitset::{BitSet, WORD_BITS};
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

    /// The single-shard (unsharded) plan over `n` rows.
    pub fn single(n: usize) -> Self {
        Self::new(n, 1)
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

    /// Rows belonging to shard `s`. Every shard's start is a multiple of
    /// 64; every shard's end is too, except possibly the last (clamped to
    /// `n`).
    #[inline]
    pub fn row_range(&self, s: usize) -> Range<usize> {
        let lo = (self.word_bounds[s] * WORD_BITS).min(self.n);
        let hi = (self.word_bounds[s + 1] * WORD_BITS).min(self.n);
        lo..hi
    }

    /// Number of rows in shard `s`.
    #[inline]
    pub fn shard_len(&self, s: usize) -> usize {
        self.row_range(s).len()
    }

    /// The shard containing row `i`.
    ///
    /// # Panics
    /// Panics when `i >= n`.
    pub fn shard_of_row(&self, i: usize) -> usize {
        assert!(i < self.n, "ShardPlan::shard_of_row: row {i} out of range");
        // Last shard whose word start is ≤ the row's word (duplicate
        // bounds from empty shards resolve to the non-empty owner).
        self.word_bounds
            .partition_point(|&w| w * WORD_BITS <= i)
            .saturating_sub(1)
            .min(self.shards() - 1)
    }
}

/// Iterates the members of `ext` that fall inside shard `s` of `plan`, in
/// ascending row order — the shard-local leg of a full-dataset scan.
/// Chaining these iterators over `s = 0..S` visits exactly the rows
/// `ext.iter()` visits, in the same order.
///
/// # Panics
/// Panics when `ext` does not range over `plan.n()` rows.
pub fn shard_members<'a>(
    ext: &'a BitSet,
    plan: &ShardPlan,
    s: usize,
) -> impl Iterator<Item = usize> + 'a {
    assert_eq!(ext.len(), plan.n(), "shard_members: capacity mismatch");
    let words = plan.word_range(s);
    let base = words.start;
    ext.words()[words]
        .iter()
        .enumerate()
        .flat_map(move |(k, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1);
                (next != 0).then_some(next)
            })
            .map(move |w| (base + k) * WORD_BITS + w.trailing_zeros() as usize)
        })
}

impl BitSet {
    /// The shard-`s` rows of this bitset as an owned shard-local bitset
    /// (capacity `plan.shard_len(s)`, bit `j` = full-dataset row
    /// `plan.row_range(s).start + j`). A word-range copy thanks to the
    /// plan's word alignment; for a zero-copy view take
    /// `&self.words()[plan.word_range(s)]` directly.
    ///
    /// # Panics
    /// Panics when the bitset does not range over `plan.n()` rows.
    pub fn shard(&self, plan: &ShardPlan, s: usize) -> BitSet {
        assert_eq!(self.len(), plan.n(), "BitSet::shard: capacity mismatch");
        BitSet::from_words(self.words()[plan.word_range(s)].to_vec(), plan.shard_len(s))
    }

    /// Concatenates shard-local bitsets back into one full bitset — the
    /// inverse of slicing by a [`ShardPlan`]. Every part before the last
    /// non-empty one must cover a multiple-of-64 row count (the
    /// word-alignment invariant; trailing empty shards are fine), so the
    /// merge is plain word concatenation and the result is bit-identical
    /// to the unsharded original.
    ///
    /// # Panics
    /// Panics when a part followed by a non-empty part has a length that
    /// is not a multiple of 64.
    pub fn concat_words(parts: &[BitSet]) -> BitSet {
        let last_non_empty = parts.iter().rposition(|p| !p.is_empty());
        let mut words = Vec::with_capacity(parts.iter().map(|p| p.words().len()).sum());
        let mut len = 0usize;
        for (k, part) in parts.iter().enumerate() {
            assert!(
                Some(k) >= last_non_empty || part.len().is_multiple_of(WORD_BITS),
                "BitSet::concat_words: non-final part of {} rows is not word-aligned",
                part.len()
            );
            words.extend_from_slice(part.words());
            len += part.len();
        }
        BitSet::from_words(words, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_rows_exactly_once_and_word_aligned() {
        for n in [0usize, 1, 63, 64, 65, 128, 200, 1000] {
            for s in [1usize, 2, 3, 7, 64, 1000] {
                let plan = ShardPlan::new(n, s);
                assert_eq!(plan.shards(), s);
                let mut next = 0usize;
                for k in 0..s {
                    let r = plan.row_range(k);
                    assert_eq!(r.start, next, "n={n} s={s} shard {k} not contiguous");
                    // Empty shards (clamped to n) carry no alignment
                    // obligation; non-empty ones start on a word boundary
                    // and end on one unless they reach n.
                    if !r.is_empty() {
                        assert!(
                            r.start.is_multiple_of(WORD_BITS),
                            "n={n} s={s} shard {k} start not word-aligned"
                        );
                        assert!(
                            r.end.is_multiple_of(WORD_BITS) || r.end == n,
                            "n={n} s={s} shard {k} end not word-aligned"
                        );
                    }
                    assert_eq!(plan.word_range(k).len(), r.len().div_ceil(WORD_BITS));
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} s={s}: ranges must cover [0, n)");
                for i in 0..n {
                    let owner = plan.shard_of_row(i);
                    assert!(
                        plan.row_range(owner).contains(&i),
                        "n={n} s={s}: row {i} assigned to shard {owner}"
                    );
                }
            }
        }
    }

    #[test]
    fn more_shards_than_words_leaves_trailing_shards_empty() {
        let plan = ShardPlan::new(100, 7); // 2 words, 7 shards
        let non_empty: Vec<usize> = (0..7).filter(|&s| plan.shard_len(s) > 0).collect();
        assert_eq!(
            non_empty.iter().map(|&s| plan.shard_len(s)).sum::<usize>(),
            100
        );
        assert!(non_empty.len() <= 2, "at most one shard per word");
        // S > n entirely.
        let tiny = ShardPlan::new(3, 10);
        assert_eq!((0..10).map(|s| tiny.shard_len(s)).sum::<usize>(), 3);
        assert_eq!(tiny.shard_of_row(2), tiny.shard_of_row(0));
    }

    #[test]
    fn zero_row_plan_is_all_empty() {
        let plan = ShardPlan::new(0, 3);
        for s in 0..3 {
            assert!(plan.row_range(s).is_empty());
            assert!(plan.word_range(s).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardPlan::new(10, 0);
    }

    #[test]
    fn shard_slices_round_trip_through_concat() {
        for n in [1usize, 64, 65, 130, 200] {
            for s in [1usize, 2, 3, 7] {
                let plan = ShardPlan::new(n, s);
                let full = BitSet::from_fn(n, |i| i % 3 == 0 || i % 7 == 2);
                let parts: Vec<BitSet> = (0..s).map(|k| full.shard(&plan, k)).collect();
                assert_eq!(
                    parts.iter().map(BitSet::count).sum::<usize>(),
                    full.count(),
                    "n={n} s={s}: shard popcounts must sum exactly"
                );
                let merged = BitSet::concat_words(&parts);
                assert_eq!(merged, full, "n={n} s={s}");
            }
        }
    }

    #[test]
    fn shard_members_chain_matches_full_iteration() {
        for n in [5usize, 64, 127, 300] {
            for s in [1usize, 2, 3, 7] {
                let plan = ShardPlan::new(n, s);
                let ext = BitSet::from_fn(n, |i| i % 5 != 1);
                let chained: Vec<usize> =
                    (0..s).flat_map(|k| shard_members(&ext, &plan, k)).collect();
                assert_eq!(chained, ext.to_indices(), "n={n} s={s}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn concat_rejects_unaligned_middle_part() {
        let a = BitSet::full(10); // 10 rows, not a multiple of 64
        let b = BitSet::full(64);
        BitSet::concat_words(&[a, b]);
    }

    #[test]
    fn concat_of_nothing_is_the_empty_bitset() {
        let merged = BitSet::concat_words(&[]);
        assert_eq!(merged.len(), 0);
        assert_eq!(merged.count(), 0);
    }
}
