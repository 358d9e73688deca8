//! Shard parity: every sharded path must be **bit-identical** to the
//! unsharded one. For random datasets and S ∈ {1, 2, 3, 7}: sharded mask
//! construction merges to exactly the whole-dataset masks, sharded
//! frontier refinement emits exactly the per-candidate reference's
//! children on both of its routes, and full beam / binary-beam /
//! branch-and-bound searches return bit-identical results at 1 and 4
//! threads. Plus shard-plan edge cases (empty shards,
//! S > rows, non-multiple-of-64 row counts) and the `words`/`from_words`
//! round-trip regression.

use proptest::prelude::*;
use sisd::core::Condition;
use sisd::data::shard::ShardPlan;
use sisd::data::{BitSet, Column, Dataset};
use sisd::frontier::{
    ChildBatch, ChildMeta, FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec,
};
use sisd::linalg::Matrix;
use sisd::model::{BackgroundModel, BinaryBackgroundModel};
use sisd::obs::{Metric, NullSink, Obs};
use sisd::search::{
    binary_beam_search, branch_bound_search, generate_conditions, BeamConfig, BeamSearch,
    BranchBoundConfig, EvalConfig, RefineConfig,
};
use sisd::stats::Xoshiro256pp;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn random_mask(rng: &mut Xoshiro256pp, n: usize, density: f64) -> BitSet {
    BitSet::from_fn(n, |_| rng.uniform() < density)
}

/// Random mixed-type dataset: one categorical flag, one numeric column,
/// `dy` continuous targets (with a planted signal on the flag so searches
/// have something to find).
fn random_dataset(seed: u64, n: usize, dy: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let flag: Vec<bool> = (0..n).map(|_| rng.uniform() < 0.3).collect();
    let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let mut targets = Matrix::zeros(n, dy);
    for i in 0..n {
        let boost = if flag[i] { 1.5 } else { 0.0 };
        for j in 0..dy {
            targets[(i, j)] = rng.normal() + boost * [1.0, -0.6][j % 2] + 0.3 * num[i];
        }
    }
    Dataset::new(
        "rnd",
        vec!["flag".into(), "num".into()],
        vec![Column::binary(&flag), Column::Numeric(num)],
        (0..dy).map(|j| format!("y{j}")).collect(),
        targets,
    )
}

/// Random 0/1-target dataset for the Bernoulli backend.
fn random_binary_dataset(seed: u64, n: usize) -> Dataset {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let flag: Vec<bool> = (0..n).map(|i| i % 4 == 1).collect();
    let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        let boost = if flag[i] { 0.5 } else { 0.0 };
        for j in 0..2 {
            let p = (0.3 + boost * [1.0f64, -0.4][j]).clamp(0.05, 0.95);
            targets[(i, j)] = f64::from(u8::from(rng.bernoulli(p)));
        }
    }
    Dataset::new(
        "rnd-bin",
        vec!["flag".into(), "num".into()],
        vec![Column::binary(&flag), Column::Numeric(num)],
        vec!["s0".into(), "s1".into()],
        targets,
    )
}

/// The per-candidate reference refinement (the formula of
/// `tests/frontier_parity.rs`'s `reference_refine`): one `BitSet::and` +
/// `count` per allowed pair, the same support filters, nested-loop order.
fn reference_refine(
    masks: &[BitSet],
    parents: &[ParentSpec<'_>],
    allowed: impl Fn(usize, usize) -> bool,
    min_support: usize,
) -> Vec<(ChildMeta, BitSet)> {
    let mut out = Vec::new();
    for (parent, spec) in parents.iter().enumerate() {
        for (row, mask) in masks.iter().enumerate() {
            if !allowed(parent, row) {
                continue;
            }
            let child = spec.ext.and(mask);
            let support = child.count();
            if support >= min_support && support <= spec.max_support {
                out.push((
                    ChildMeta {
                        parent,
                        row,
                        support,
                    },
                    child,
                ));
            }
        }
    }
    out
}

/// Asserts `got` holds exactly the `expect` children, in order.
fn assert_children(got: &ChildBatch, expect: &[&(ChildMeta, BitSet)], label: &str) {
    assert_eq!(got.len(), expect.len(), "{label}");
    for (i, (meta, ext)) in expect.iter().enumerate() {
        assert_eq!(got.meta(i), *meta, "{label}");
        assert_eq!(got.child_words(i), ext.words(), "{label} child {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded mask construction — each condition's mask dealt to the
    /// shards' arenas — holds exactly each shard's slice of the
    /// condition's mask and merges to exactly the unsharded matrix.
    #[test]
    fn sharded_mask_construction_matches_unsharded(seed in 0u64..10_000) {
        let n = 20 + (seed as usize * 17) % 300;
        let data = random_dataset(seed, n, 2);
        let conditions: Vec<Condition> = generate_conditions(&data, &RefineConfig::default());
        let dense = MaskMatrix::evaluate(&data, &conditions);
        for s in SHARD_COUNTS {
            let sharded = MaskMatrix::evaluate_sharded(&data, &conditions, s);
            let plan = ShardPlan::new(n, s);
            prop_assert_eq!(sharded.plan(), &plan);
            prop_assert_eq!(sharded.rows(), dense.rows());
            prop_assert_eq!(sharded.n(), dense.n());
            for (j, c) in conditions.iter().enumerate() {
                let mask = c.evaluate(&data);
                prop_assert_eq!(sharded.row_bitset(j), dense.row_bitset(j), "s={} row {}", s, j);
                prop_assert_eq!(sharded.row_count(j), dense.row_count(j));
                for k in 0..s {
                    prop_assert_eq!(sharded.row_words(k, j), &mask.words()[plan.word_range(k)]);
                }
            }
        }
    }

    /// Sharded count-first frontier refinement — per-shard count-only
    /// kernels, filters on shard-summed totals, survivors materialized in
    /// shard order — emits the per-candidate reference's children bit for
    /// bit, at 1, 2 and 4 threads and every shard count.
    #[test]
    fn sharded_frontier_matches_unsharded(seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
        let n = 10 + (seed as usize * 29) % 280;
        let rows = 1 + (seed as usize) % 40;
        let min_support = (seed as usize) % 4;
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
        let parent_sets: Vec<BitSet> = (0..4).map(|_| random_mask(&mut rng, n, 0.7)).collect();
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec { ext, max_support: ext.count().saturating_sub(1) })
            .collect();
        let allowed = |p: usize, row: usize| !(p * 5 + row + seed as usize).is_multiple_of(4);
        let reference = reference_refine(&masks, &parents, allowed, min_support);
        let expect: Vec<_> = reference.iter().collect();
        for s in SHARD_COUNTS {
            let matrix = MaskMatrix::from_bitsets_sharded(ShardPlan::new(n, s), masks.clone());
            for threads in [1usize, 2, 4] {
                let got = FrontierBuilder::new(
                    &matrix,
                    FrontierConfig { min_support, threads, ..FrontierConfig::default() },
                )
                .refine_parents(&parents, allowed);
                assert_children(&got, &expect, &format!("s={s} t={threads}"));
            }
        }
    }

    /// Count-first refinement with a keep predicate — first-wins dedup
    /// state and a branch-and-bound-shaped support bound — equals the
    /// per-candidate reference post-filtered by the same predicate at
    /// every shard × thread combination.
    #[test]
    fn sharded_refine_with_prune_matches_unsharded(seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x1234_5678_9abc_def0);
        let n = 12 + (seed as usize * 23) % 260;
        let rows = 1 + (seed as usize) % 36;
        let min_support = (seed as usize) % 3;
        let bound_floor = 1 + (seed as usize) % 6;
        let masks: Vec<BitSet> = (0..rows).map(|_| random_mask(&mut rng, n, 0.4)).collect();
        let parent_sets: Vec<BitSet> = (0..3).map(|_| random_mask(&mut rng, n, 0.7)).collect();
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec { ext, max_support: ext.count().saturating_sub(1) })
            .collect();
        let allowed = |p: usize, row: usize| !(p * 3 + row + seed as usize).is_multiple_of(6);
        // The keep predicate combines both production shapes: a bound
        // check on the global support (monotone, like B&B's optimistic
        // bound against the incumbent) and stateful first-wins dedup.
        let reference = reference_refine(&masks, &parents, allowed, min_support);
        let mut seen_ref: std::collections::HashSet<(usize, usize)> = Default::default();
        let expect: Vec<_> = reference
            .iter()
            .filter(|(m, _)| m.support >= bound_floor && seen_ref.insert((m.row, m.support)))
            .collect();
        for s in SHARD_COUNTS {
            let matrix = MaskMatrix::from_bitsets_sharded(ShardPlan::new(n, s), masks.clone());
            for threads in [1usize, 2, 4] {
                let mut seen: std::collections::HashSet<(usize, usize)> = Default::default();
                let got = FrontierBuilder::new(
                    &matrix,
                    FrontierConfig { min_support, threads, ..FrontierConfig::default() },
                )
                .refine_with_prune(&parents, allowed, |_, row, support| {
                    support >= bound_floor && seen.insert((row, support))
                });
                assert_children(&got, &expect, &format!("s={s} t={threads}"));
            }
        }
    }

    /// Arbitrary bitsets round-trip exactly through the raw
    /// `words`/`from_words` surface.
    #[test]
    fn concat_words_round_trips(seed in 0u64..10_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let n = (seed as usize * 31) % 400; // includes 0 and non-multiples of 64
        let full = random_mask(&mut rng, n, 0.5);
        // words/from_words round-trip regression.
        let rebuilt = BitSet::from_words(full.words().to_vec(), full.len());
        prop_assert_eq!(&rebuilt, &full);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full Gaussian beam searches are bit-identical between the sharded
    /// and unsharded pipelines at 1 and 4 threads.
    #[test]
    fn beam_search_shard_parity(seed in 0u64..1_000) {
        let n = 80 + (seed as usize * 37) % 200;
        let data = random_dataset(seed, n, 2);
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let base = BeamConfig {
            width: 8,
            max_depth: 2,
            top_k: 30,
            min_coverage: 5,
            ..BeamConfig::default()
        };
        let reference = BeamSearch::new(base.clone()).run(&data, &model);
        for s in SHARD_COUNTS {
            for threads in [1usize, 4] {
                let cfg = BeamConfig {
                    eval: EvalConfig::with_threads(threads).with_shards(s),
                    ..base.clone()
                };
                let got = BeamSearch::new(cfg).run(&data, &model);
                prop_assert_eq!(got.evaluated, reference.evaluated, "s={} t={}", s, threads);
                prop_assert_eq!(got.top.len(), reference.top.len(), "s={} t={}", s, threads);
                for (a, b) in got.top.iter().zip(&reference.top) {
                    prop_assert_eq!(&a.intention, &b.intention, "s={} t={}", s, threads);
                    prop_assert_eq!(&a.extension, &b.extension, "s={} t={}", s, threads);
                    prop_assert_eq!(
                        a.score.si.to_bits(),
                        b.score.si.to_bits(),
                        "s={} t={}: SI must be bit-identical", s, threads
                    );
                    prop_assert_eq!(a.score.ic.to_bits(), b.score.ic.to_bits());
                    for (x, y) in a.observed_mean.iter().zip(&b.observed_mean) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    /// Full Bernoulli (binary-target) beam searches are bit-identical
    /// between the sharded and unsharded pipelines at 1 and 4 threads.
    #[test]
    fn binary_beam_search_shard_parity(seed in 0u64..1_000) {
        let n = 100 + (seed as usize * 41) % 150;
        let data = random_binary_dataset(seed, n);
        let model = BinaryBackgroundModel::from_empirical(&data).unwrap();
        let base = BeamConfig {
            width: 8,
            max_depth: 2,
            top_k: 20,
            min_coverage: 8,
            ..BeamConfig::default()
        };
        let reference = binary_beam_search(&data, &model, &base);
        for s in SHARD_COUNTS {
            for threads in [1usize, 4] {
                let cfg = BeamConfig {
                    eval: EvalConfig::with_threads(threads).with_shards(s),
                    ..base.clone()
                };
                let got = binary_beam_search(&data, &model, &cfg);
                prop_assert_eq!(got.evaluated, reference.evaluated, "s={} t={}", s, threads);
                prop_assert_eq!(got.top.len(), reference.top.len(), "s={} t={}", s, threads);
                for (a, b) in got.top.iter().zip(&reference.top) {
                    prop_assert_eq!(&a.extension, &b.extension, "s={} t={}", s, threads);
                    prop_assert_eq!(
                        a.score.si.to_bits(),
                        b.score.si.to_bits(),
                        "s={} t={}", s, threads
                    );
                }
            }
        }
    }

    /// Branch-and-bound explores the same tree and returns the same
    /// optimum — node counts, prune counts, and SI bits — under sharding
    /// at 1 and 4 threads.
    #[test]
    fn branch_bound_shard_parity(seed in 0u64..1_000) {
        let n = 100 + (seed as usize * 23) % 150;
        let data = {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let flag: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
            let num: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
            let mut targets = Matrix::zeros(n, 1);
            for i in 0..n {
                let boost = if flag[i] { 2.0 } else { 0.0 };
                targets[(i, 0)] = rng.normal() + boost + 0.5 * num[i];
            }
            Dataset::new(
                "bb",
                vec!["flag".into(), "num".into()],
                vec![Column::binary(&flag), Column::Numeric(num)],
                vec!["y".into()],
                targets,
            )
        };
        let model = BackgroundModel::from_empirical(&data).unwrap();
        let base = BranchBoundConfig {
            max_depth: 2,
            min_coverage: 5,
            ..BranchBoundConfig::default()
        };
        let reference = branch_bound_search(&data, &model, base.clone());
        let best = reference.best.as_ref().expect("optimum found");
        for s in SHARD_COUNTS {
            for threads in [1usize, 4] {
                let cfg = BranchBoundConfig {
                    eval: EvalConfig::with_threads(threads).with_shards(s),
                    ..base.clone()
                };
                let got = branch_bound_search(&data, &model, cfg);
                prop_assert_eq!(got.evaluated, reference.evaluated, "s={} t={}", s, threads);
                prop_assert_eq!(got.pruned, reference.pruned, "s={} t={}", s, threads);
                let gbest = got.best.as_ref().unwrap();
                prop_assert_eq!(&gbest.extension, &best.extension, "s={} t={}", s, threads);
                prop_assert_eq!(
                    gbest.score.si.to_bits(),
                    best.score.si.to_bits(),
                    "s={} t={}", s, threads
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Shard-plan edge cases at the integration surface.
// ----------------------------------------------------------------------

#[test]
fn searches_survive_more_shards_than_rows() {
    // n = 40 → a single word; S = 7 leaves six empty shards, and the
    // search must still be bit-identical.
    let data = random_dataset(5, 40, 2);
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let base = BeamConfig {
        width: 5,
        max_depth: 2,
        top_k: 10,
        min_coverage: 3,
        ..BeamConfig::default()
    };
    let reference = BeamSearch::new(base.clone()).run(&data, &model);
    for s in [7usize, 64, 100] {
        let cfg = BeamConfig {
            eval: EvalConfig::default().with_shards(s),
            ..base.clone()
        };
        let got = BeamSearch::new(cfg).run(&data, &model);
        assert_eq!(got.evaluated, reference.evaluated, "s={s}");
        for (a, b) in got.top.iter().zip(&reference.top) {
            assert_eq!(a.extension, b.extension, "s={s}");
            assert_eq!(a.score.si.to_bits(), b.score.si.to_bits(), "s={s}");
        }
    }
}

#[test]
fn mask_store_handles_non_multiple_of_64_rows() {
    // 130 rows = two full words + a 2-row tail; the tail shard must carry
    // the partial word without disturbing parity.
    let data = random_dataset(11, 130, 2);
    let conditions = generate_conditions(&data, &RefineConfig::default());
    let dense = MaskMatrix::evaluate(&data, &conditions);
    let sharded = MaskMatrix::evaluate_sharded(&data, &conditions, 3);
    assert_eq!(sharded.plan().shards(), 3);
    assert_eq!(dense.rows(), sharded.rows());
    let full = BitSet::full(130);
    let parents = [ParentSpec {
        ext: &full,
        max_support: 129,
    }];
    let cfg = FrontierConfig {
        min_support: 1,
        threads: 1,
        ..FrontierConfig::default()
    };
    let a = FrontierBuilder::new(&dense, cfg).refine_parents(&parents, |_, _| true);
    let b = FrontierBuilder::new(&sharded, cfg).refine_parents(&parents, |_, _| true);
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(a.meta(i), b.meta(i));
        assert_eq!(a.child_words(i), b.child_words(i));
    }
}

/// Serial multi-parent refinement over a matrix above the grid threshold
/// (1,024 words × 130 rows > 2^17 words) takes the two-pass route at every
/// shard count and still emits the per-candidate reference's children.
#[test]
fn serial_grid_route_matches_reference_at_every_shard_count() {
    let n = 65_536;
    let mut rng = Xoshiro256pp::seed_from_u64(2018);
    let masks: Vec<BitSet> = (0..130).map(|_| random_mask(&mut rng, n, 0.5)).collect();
    // Nine parents: one full PARENT_TILE of eight plus a ragged tile.
    let parent_sets: Vec<BitSet> = (0..9).map(|_| random_mask(&mut rng, n, 0.25)).collect();
    let parents: Vec<ParentSpec<'_>> = parent_sets
        .iter()
        .map(|ext| ParentSpec {
            ext,
            max_support: ext.count().saturating_sub(1),
        })
        .collect();
    let allowed = |p: usize, row: usize| !(p + row).is_multiple_of(3);
    let min_support = n / 8;
    let reference = reference_refine(&masks, &parents, allowed, min_support);
    let expect: Vec<_> = reference.iter().collect();
    assert!(!expect.is_empty());
    for s in SHARD_COUNTS {
        let matrix = MaskMatrix::from_bitsets_sharded(ShardPlan::new(n, s), masks.clone());
        let obs = Obs::leaked(Box::new(NullSink));
        let got = FrontierBuilder::new(
            &matrix,
            FrontierConfig {
                min_support,
                threads: 1,
                obs,
                ..FrontierConfig::default()
            },
        )
        .refine_parents(&parents, allowed);
        let report = obs.report().expect("obs enabled");
        assert_eq!(report.get(Metric::FrontierGridDispatch), 1, "s={s}");
        assert_eq!(report.get(Metric::FrontierFusedDispatch), 0, "s={s}");
        assert_children(&got, &expect, &format!("s={s}"));
    }
}
