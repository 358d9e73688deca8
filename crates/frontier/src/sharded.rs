//! The executor-served passes of sharded refinement.
//!
//! Over a [`MaskMatrix`] with more than one shard, the builder's two-pass
//! route may hand its count producer and its materializer to an attached
//! [`ShardExecutor`]. [`ExecPasses`] is that hand-off: it issues one
//! request per `(parent, shard)` for counts and one per
//! `(shard, parent run)` for survivor words, and redoes any failed request
//! with the local kernels. Its outputs are exactly the local producers'
//! — the dense per-`(parent, row)` totals and each survivor's words in its
//! word range — so the builder's serial filter and batch layout are the
//! same whichever producer ran, and so are the output bits.

use crate::builder::{ChildMeta, ParentSpec, SKIPPED};
use crate::exec::ShardExecutor;
use crate::matrix::MaskMatrix;
use sisd_core::SisdResult;
use sisd_data::kernels;
use sisd_obs::{Metric, ObsHandle};

/// `true` when an executor request succeeded; a failure (the backend's
/// bounded retry has already run) is counted as a fallback, and the caller
/// redoes that one request with the local kernels.
fn served(obs: ObsHandle, request: SisdResult<()>) -> bool {
    let ok = request.is_ok();
    if !ok {
        obs.incr(Metric::ExecutorFallbacks);
    }
    ok
}

/// One refinement call's executor-served passes over a sharded matrix.
pub(crate) struct ExecPasses<'m> {
    exec: &'static dyn ShardExecutor,
    matrix: &'m MaskMatrix,
    obs: ObsHandle,
    /// Entry `s`: whether shard `s` is resident on the backend for this
    /// call. A failed load demotes the whole shard to the local kernels.
    loaded: Vec<bool>,
}

impl<'m> ExecPasses<'m> {
    /// Offers each non-empty shard's arena to `exec` (backends
    /// deduplicate, so a long search ships each matrix once per worker).
    pub(crate) fn load(
        exec: &'static dyn ShardExecutor,
        matrix: &'m MaskMatrix,
        obs: ObsHandle,
    ) -> Self {
        let plan = matrix.plan();
        let rows = matrix.rows();
        let loaded = (0..plan.shards())
            .map(|s| {
                let stride = plan.word_range(s).len();
                stride > 0
                    && served(
                        obs,
                        exec.load(
                            matrix.matrix_id(),
                            s as u32,
                            rows as u32,
                            stride as u32,
                            matrix.block_words(s, 0, rows),
                        ),
                    )
            })
            .collect();
        Self {
            exec,
            matrix,
            obs,
            loaded,
        }
    }

    /// Pass 1: one `count` request per `(parent, shard)` carrying the
    /// parent's shard words and the row selection; the returned exact
    /// counts are added into dense per-`(parent, row)` totals, [`SKIPPED`]
    /// where `allowed` rejects.
    pub(crate) fn count<F>(&self, parents: &[ParentSpec<'_>], allowed: &F) -> Vec<usize>
    where
        F: Fn(usize, usize) -> bool,
    {
        let plan = self.matrix.plan();
        let rows = self.matrix.rows();
        let mut counts = vec![SKIPPED; parents.len() * rows];
        let mut select = vec![false; rows];
        let mut shard_counts = vec![0u64; rows];
        for (p, spec) in parents.iter().enumerate() {
            let totals = &mut counts[p * rows..(p + 1) * rows];
            for (row, (sel, total)) in select.iter_mut().zip(totals.iter_mut()).enumerate() {
                *sel = allowed(p, row);
                if *sel {
                    *total = 0;
                }
            }
            for (s, &resident) in self.loaded.iter().enumerate() {
                let parent_words = &spec.ext.words()[plan.word_range(s)];
                if parent_words.is_empty() {
                    continue; // empty shard: contributes zero to every count
                }
                let by_exec = resident
                    && served(
                        self.obs,
                        self.exec.count(
                            self.matrix.matrix_id(),
                            s as u32,
                            parent_words,
                            &select,
                            &mut shard_counts,
                        ),
                    );
                for (row, total) in totals.iter_mut().enumerate() {
                    if select[row] {
                        *total += if by_exec {
                            shard_counts[row] as usize
                        } else {
                            kernels::and_count(parent_words, self.matrix.row_words(s, row))
                        };
                    }
                }
            }
        }
        counts
    }

    /// Pass 2: survivors are `(parent, row)` ordered, so parents form
    /// contiguous runs; one `materialize` request per `(shard, parent
    /// run)`, each child's returned words written into its word range of
    /// `words` — a shard-order merge by construction, regardless of
    /// arrival order.
    pub(crate) fn materialize(
        &self,
        parents: &[ParentSpec<'_>],
        meta: &[ChildMeta],
        words: &mut [u64],
    ) {
        let plan = self.matrix.plan();
        let stride = self.matrix.stride();
        let mut rows_buf: Vec<u32> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        for (s, &resident) in self.loaded.iter().enumerate() {
            let wr = plan.word_range(s);
            let shard_stride = wr.len();
            if shard_stride == 0 {
                continue;
            }
            let mut first = 0usize;
            for run in meta.chunk_by(|a, b| a.parent == b.parent) {
                let parent_words = &parents[run[0].parent].ext.words()[wr.clone()];
                rows_buf.clear();
                rows_buf.extend(run.iter().map(|c| c.row as u32));
                scratch.clear();
                scratch.resize(run.len() * shard_stride, 0);
                let by_exec = resident
                    && served(
                        self.obs,
                        self.exec.materialize(
                            self.matrix.matrix_id(),
                            s as u32,
                            parent_words,
                            &rows_buf,
                            &mut scratch,
                        ),
                    );
                for (k, m) in run.iter().enumerate() {
                    let out = &mut words[(first + k) * stride..][wr.clone()];
                    if by_exec {
                        out.copy_from_slice(&scratch[k * shard_stride..][..shard_stride]);
                    } else {
                        kernels::and_into(parent_words, self.matrix.row_words(s, m.row), out);
                    }
                }
                first += run.len();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec};
    use sisd_data::{BitSet, ShardPlan};
    use sisd_stats::Xoshiro256pp;

    fn random_mask(rng: &mut Xoshiro256pp, n: usize, density: f64) -> BitSet {
        BitSet::from_fn(n, |_| rng.uniform() < density)
    }

    #[test]
    fn sharded_rows_merge_to_the_unsharded_masks() {
        for &(n, rows) in &[(0usize, 3usize), (65, 5), (128, 8), (300, 40), (64, 3)] {
            let mut rng = Xoshiro256pp::seed_from_u64(7 + n as u64);
            let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
            let dense = MaskMatrix::from_bitsets(n, masks.iter().cloned());
            for s in [1usize, 2, 3, 7] {
                let plan = ShardPlan::new(n, s);
                let sharded = MaskMatrix::from_bitsets_sharded(plan.clone(), masks.iter().cloned());
                assert_eq!(sharded.rows(), rows);
                assert_eq!(sharded.n(), n);
                assert_eq!(sharded.stride(), dense.stride());
                for j in 0..rows {
                    assert_eq!(sharded.row_bitset(j), dense.row_bitset(j), "n={n} s={s}");
                    assert_eq!(sharded.row_count(j), dense.row_count(j));
                    for k in 0..s {
                        assert_eq!(
                            sharded.row_words(k, j),
                            &dense.row_words(0, j)[plan.word_range(k)]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_shard_capacity_rejected() {
        MaskMatrix::from_bitsets_sharded(ShardPlan::new(100, 2), [BitSet::full(64)]);
    }

    #[test]
    fn empty_parents_rows_or_shards_are_handled() {
        let plan = ShardPlan::new(100, 7); // trailing shards empty
        let matrix = MaskMatrix::from_bitsets_sharded(plan, Vec::<BitSet>::new());
        let builder = FrontierBuilder::new(&matrix, FrontierConfig::default());
        assert!(builder.refine_parents(&[], |_, _| true).is_empty());
        let full = BitSet::full(100);
        let parents = [ParentSpec {
            ext: &full,
            max_support: 100,
        }];
        assert!(builder.refine_parents(&parents, |_, _| true).is_empty());
    }

    #[test]
    fn sharded_refinement_is_bit_identical_to_unsharded() {
        for &(n, rows) in &[(65usize, 7usize), (128, 33), (300, 45), (63, 100)] {
            let mut rng = Xoshiro256pp::seed_from_u64(n as u64 * 13 + rows as u64);
            let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
            let parent_sets: Vec<BitSet> = (0..4).map(|_| random_mask(&mut rng, n, 0.6)).collect();
            let parents: Vec<ParentSpec<'_>> = parent_sets
                .iter()
                .map(|ext| ParentSpec {
                    ext,
                    max_support: ext.count().saturating_sub(1),
                })
                .collect();
            let allowed = |p: usize, row: usize| !(p + 2 * row).is_multiple_of(5);
            let config = |threads| FrontierConfig {
                min_support: 2,
                threads,
                ..FrontierConfig::default()
            };
            let dense = MaskMatrix::from_bitsets(n, masks.iter().cloned());
            let expect = FrontierBuilder::new(&dense, config(1)).refine_parents(&parents, allowed);
            for s in [1usize, 2, 3, 7] {
                let plan = ShardPlan::new(n, s);
                let sharded = MaskMatrix::from_bitsets_sharded(plan, masks.iter().cloned());
                for threads in [1usize, 2, 4] {
                    let got = FrontierBuilder::new(&sharded, config(threads))
                        .refine_parents(&parents, allowed);
                    assert_eq!(got.len(), expect.len(), "n={n} s={s} t={threads}");
                    for i in 0..expect.len() {
                        assert_eq!(got.meta(i), expect.meta(i), "n={n} s={s} t={threads}");
                        assert_eq!(
                            got.child_words(i),
                            expect.child_words(i),
                            "n={n} s={s} t={threads} child {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mask_store_dispatch_is_layout_invariant() {
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let masks: Vec<BitSet> = (0..24).map(|_| random_mask(&mut rng, 200, 0.4)).collect();
        let parent_sets: Vec<BitSet> = (0..4).map(|_| random_mask(&mut rng, 200, 0.6)).collect();
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec {
                ext,
                max_support: 200,
            })
            .collect();
        let config = FrontierConfig {
            min_support: 1,
            threads: 2,
            ..FrontierConfig::default()
        };
        let dense = MaskMatrix::from_bitsets(200, masks.iter().cloned());
        assert_eq!(dense.plan().shards(), 1);
        let expect = FrontierBuilder::new(&dense, config).refine_parents(&parents, |_, _| true);
        let sharded = MaskMatrix::from_bitsets_sharded(ShardPlan::new(200, 3), masks);
        assert_eq!(sharded.plan().shards(), 3);
        let got = FrontierBuilder::new(&sharded, config).refine_parents(&parents, |_, _| true);
        assert_eq!(got.len(), expect.len());
        for i in 0..expect.len() {
            assert_eq!(got.meta(i), expect.meta(i));
            assert_eq!(got.child_words(i), expect.child_words(i));
        }
    }
}
