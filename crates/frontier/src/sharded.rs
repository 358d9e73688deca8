//! Shard tests: a [`MaskMatrix`] split over row-range shards stores the
//! same masks as the dense layout, and refinement over it emits the same
//! children bit for bit.

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
