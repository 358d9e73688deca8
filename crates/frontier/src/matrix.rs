//! The condition-mask bit-matrix.
//!
//! One [`MaskMatrix`] holds the extension of **every base condition of the
//! description language** as one row of a word arena — the
//! structure-of-arrays counterpart of a `Vec<BitSet>`. Rows share one
//! allocation and a common stride, so a refinement pass streams the whole
//! language through the cache in row order instead of chasing one heap
//! allocation per condition.
//!
//! The matrix is split by a word-aligned [`ShardPlan`] into one arena per
//! row-range shard: shard `s`'s arena holds every condition's mask
//! restricted to `plan.word_range(s)`. The unsharded layout is the
//! single-shard plan, whose one arena is the whole dense matrix.
//! Concatenating row `j` across shards in shard order reproduces the
//! unsharded mask of condition `j` bit for bit (the plan's word
//! alignment), so every refinement over the matrix is shard-count
//! invariant.

use sisd_core::Condition;
use sisd_data::{BitSet, Dataset, ShardPlan};

/// A `rows × n` bit-matrix: row `j` is the extension (row mask) of
/// condition `j`, packed 64 columns per word, one arena per shard.
///
/// Layout: shard `s` has stride `plan.word_range(s).len()`, and its arena
/// holds row `j` at words `j·stride_s .. (j+1)·stride_s`; within a row,
/// bit `i % 64` of word `i / 64` is shard-local row `i`, and tail bits
/// beyond `n` are zero (popcounts over whole rows are exact). With one
/// shard, row `j` occupies words `j·stride .. (j+1)·stride` of the single
/// arena, `stride = ceil(n / 64)`.
#[derive(Debug, Clone)]
pub struct MaskMatrix {
    plan: ShardPlan,
    arenas: Vec<Vec<u64>>,
    rows: usize,
}

impl MaskMatrix {
    /// Evaluates every condition over the dataset once and packs the
    /// resulting masks as rows of one dense arena. This is the *only*
    /// place a search needs to run [`Condition::evaluate`]: every level of
    /// every search over the same dataset reuses these rows.
    pub fn evaluate(data: &Dataset, conditions: &[Condition]) -> Self {
        Self::evaluate_sharded(data, conditions, 1)
    }

    /// [`MaskMatrix::evaluate`] split into `shards` word-aligned row-range
    /// arenas. Each mask is evaluated over the whole dataset and its words
    /// are dealt to the shards, so at most one mask exists outside the
    /// arenas at any time.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn evaluate_sharded(data: &Dataset, conditions: &[Condition], shards: usize) -> Self {
        Self::from_bitsets_sharded(
            ShardPlan::new(data.n(), shards),
            conditions.iter().map(|c| c.evaluate(data)),
        )
    }

    /// Packs pre-evaluated masks (each of capacity `n`) as rows of one
    /// dense arena.
    ///
    /// # Panics
    /// Panics if a mask's capacity differs from `n`.
    pub fn from_bitsets(n: usize, masks: impl IntoIterator<Item = BitSet>) -> Self {
        Self::from_bitsets_sharded(ShardPlan::new(n, 1), masks)
    }

    /// Packs pre-evaluated full-dataset masks as rows, split by `plan`.
    ///
    /// # Panics
    /// Panics if a mask's capacity differs from `plan.n()`.
    pub fn from_bitsets_sharded(plan: ShardPlan, masks: impl IntoIterator<Item = BitSet>) -> Self {
        let mut arenas = vec![Vec::new(); plan.shards()];
        let mut rows = 0usize;
        for mask in masks {
            assert_eq!(mask.len(), plan.n(), "MaskMatrix: mask capacity mismatch");
            for (s, arena) in arenas.iter_mut().enumerate() {
                arena.extend_from_slice(&mask.words()[plan.word_range(s)]);
            }
            rows += 1;
        }
        Self { plan, arenas, rows }
    }

    /// Number of dataset rows each mask ranges over.
    #[inline]
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// Number of condition masks (matrix rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Words per full-dataset row (summed over the shards).
    #[inline]
    pub fn stride(&self) -> usize {
        self.plan.n().div_ceil(sisd_data::bitset::WORD_BITS)
    }

    /// The row partition the arenas are split by.
    #[inline]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The words of row `j` in shard `s`.
    #[inline]
    pub fn row_words(&self, s: usize, j: usize) -> &[u64] {
        self.block_words(s, j, j + 1)
    }

    /// Shard `s`'s arena slice covering rows `lo..hi` — the block shape
    /// [`sisd_data::kernels::and_count_many`] consumes.
    #[inline]
    pub fn block_words(&self, s: usize, lo: usize, hi: usize) -> &[u64] {
        let stride = self.plan.word_range(s).len();
        &self.arenas[s][lo * stride..hi * stride]
    }

    /// Row `j` materialized back into an owned full-dataset [`BitSet`]
    /// (its shard rows concatenated in shard order).
    pub fn row_bitset(&self, j: usize) -> BitSet {
        let words = (0..self.plan.shards())
            .flat_map(|s| self.row_words(s, j).iter().copied())
            .collect();
        BitSet::from_words(words, self.n())
    }

    /// Population count of row `j` (the condition's support).
    pub fn row_count(&self, j: usize) -> usize {
        (0..self.plan.shards())
            .flat_map(|s| self.row_words(s, j))
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisd_core::{ConditionOp, Intention};
    use sisd_data::{kernels, Column};
    use sisd_linalg::Matrix;

    fn data(n: usize) -> Dataset {
        Dataset::new(
            "m",
            vec!["num".into(), "cat".into()],
            vec![
                Column::Numeric((0..n).map(|i| (i % 17) as f64).collect()),
                Column::categorical_from_strs(
                    &(0..n).map(|i| ["a", "b"][i % 2]).collect::<Vec<_>>(),
                ),
            ],
            vec!["y".into()],
            Matrix::zeros(n, 1),
        )
    }

    fn language() -> Vec<Condition> {
        vec![
            Condition {
                attr: 0,
                op: ConditionOp::Ge(8.0),
            },
            Condition {
                attr: 0,
                op: ConditionOp::Le(3.0),
            },
            Condition {
                attr: 1,
                op: ConditionOp::Eq(0),
            },
        ]
    }

    #[test]
    fn rows_match_per_condition_evaluation() {
        for n in [5usize, 64, 65, 200] {
            let d = data(n);
            let conds = language();
            let m = MaskMatrix::evaluate(&d, &conds);
            assert_eq!(m.rows(), conds.len());
            assert_eq!(m.n(), n);
            assert_eq!(m.stride(), n.div_ceil(64));
            for (j, c) in conds.iter().enumerate() {
                assert_eq!(m.row_bitset(j), c.evaluate(&d), "n={n}, row {j}");
                assert_eq!(m.row_count(j), c.evaluate(&d).count());
            }
        }
    }

    #[test]
    fn and_count_block_matches_intersection_counts() {
        let d = data(130);
        let conds = language();
        let m = MaskMatrix::evaluate(&d, &conds);
        let parent = Intention::empty().with(conds[0]).evaluate(&d);
        let mut counts = vec![0usize; conds.len()];
        kernels::and_count_many(
            parent.words(),
            m.block_words(0, 0, conds.len()),
            &mut counts,
        );
        for (j, c) in conds.iter().enumerate() {
            assert_eq!(counts[j], parent.intersection_count(&c.evaluate(&d)));
        }
    }

    #[test]
    fn empty_language_and_empty_dataset() {
        let d = data(10);
        let m = MaskMatrix::evaluate(&d, &[]);
        assert_eq!(m.rows(), 0);
        let d0 = data(0);
        let m0 = MaskMatrix::evaluate(&d0, &language());
        assert_eq!(m0.rows(), 3);
        assert_eq!(m0.stride(), 0);
        assert_eq!(m0.row_count(0), 0);
    }
}
