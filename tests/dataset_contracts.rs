//! Contracts every synthetic dataset generator must honor, plus CSV
//! round-trips through the full stack — these are the guarantees the
//! experiment harnesses (DESIGN.md §3) build on.

use proptest::prelude::*;
use sisd::data::csv::{dataset_from_csv_str, dataset_to_csv_string};
use sisd::data::datasets::{
    crime_synthetic, german_socio_synthetic, mammals_synthetic, synthetic_paper,
    water_quality_synthetic,
};
use sisd::data::{BitSet, Dataset};
use sisd::linalg::{Cholesky, Matrix};
use sisd::model::BackgroundModel;
use sisd::stats::Xoshiro256pp;

fn check_common_contracts(data: &Dataset) {
    // Shapes are consistent.
    assert_eq!(data.desc_names().len(), data.dx());
    assert_eq!(data.target_names().len(), data.dy());
    for col in data.desc_cols() {
        assert_eq!(col.len(), data.n());
    }
    // All targets finite.
    for i in 0..data.n() {
        for v in data.target_row(i) {
            assert!(v.is_finite());
        }
    }
    // Empirical covariance is (jitterably) positive definite — required by
    // the MaxEnt prior.
    let cov = data.target_covariance_all();
    assert!(Cholesky::new_with_jitter(&cov, 4).is_ok());
    // A background model can actually be fit.
    assert!(BackgroundModel::from_empirical(data).is_ok());
}

#[test]
fn all_generators_meet_the_common_contracts() {
    check_common_contracts(&synthetic_paper(1).0);
    check_common_contracts(&crime_synthetic(1));
    check_common_contracts(&mammals_synthetic(1).0);
    check_common_contracts(&german_socio_synthetic(1).0);
    check_common_contracts(&water_quality_synthetic(1));
}

#[test]
fn generator_shapes_match_the_paper() {
    let (syn, _) = synthetic_paper(2);
    assert_eq!((syn.n(), syn.dx(), syn.dy()), (620, 5, 2));
    let crime = crime_synthetic(2);
    assert_eq!((crime.n(), crime.dx(), crime.dy()), (1994, 122, 1));
    let (mammals, coords) = mammals_synthetic(2);
    assert_eq!((mammals.n(), mammals.dx(), mammals.dy()), (2220, 67, 124));
    assert_eq!(coords.len(), 2220);
    let (socio, _) = german_socio_synthetic(2);
    assert_eq!((socio.n(), socio.dx(), socio.dy()), (412, 13, 5));
    let water = water_quality_synthetic(2);
    assert_eq!((water.n(), water.dx(), water.dy()), (1060, 14, 16));
}

#[test]
fn seeds_are_reproducible_and_distinct() {
    for (a, b, c) in [
        (
            crime_synthetic(9).targets().as_slice().to_vec(),
            crime_synthetic(9).targets().as_slice().to_vec(),
            crime_synthetic(10).targets().as_slice().to_vec(),
        ),
        (
            water_quality_synthetic(9).targets().as_slice().to_vec(),
            water_quality_synthetic(9).targets().as_slice().to_vec(),
            water_quality_synthetic(10).targets().as_slice().to_vec(),
        ),
    ] {
        assert_eq!(a, b, "same seed must reproduce identical data");
        assert_ne!(a, c, "different seeds must differ");
    }
}

#[test]
fn csv_roundtrip_preserves_every_generator() {
    for data in [
        synthetic_paper(3).0,
        german_socio_synthetic(3).0,
        water_quality_synthetic(3),
    ] {
        let text = dataset_to_csv_string(&data);
        let names: Vec<&str> = data.target_names().iter().map(|s| s.as_str()).collect();
        let reloaded = dataset_from_csv_str("rt", &text, &names).expect("well-formed");
        assert_eq!(reloaded.n(), data.n());
        assert_eq!(reloaded.dx(), data.dx());
        assert_eq!(reloaded.dy(), data.dy());
        // Targets survive exactly enough for mining (CSV prints shortest
        // roundtrip representation of f64, so equality is exact).
        for j in 0..data.dy() {
            assert_eq!(reloaded.target_col(j), data.target_col(j));
        }
    }
}

#[test]
fn mining_a_reloaded_csv_gives_identical_results() {
    use sisd::search::{BeamConfig, BeamSearch};
    let data = german_socio_synthetic(4).0;
    let text = dataset_to_csv_string(&data);
    let names: Vec<&str> = data.target_names().iter().map(|s| s.as_str()).collect();
    let reloaded = dataset_from_csv_str("rt", &text, &names).unwrap();

    let cfg = BeamConfig {
        width: 10,
        max_depth: 1,
        top_k: 5,
        ..BeamConfig::default()
    };
    let m1 = BackgroundModel::from_empirical(&data).unwrap();
    let m2 = BackgroundModel::from_empirical(&reloaded).unwrap();
    let r1 = BeamSearch::new(cfg.clone()).run(&data, &m1);
    let r2 = BeamSearch::new(cfg).run(&reloaded, &m2);
    let b1 = r1.best().unwrap();
    let b2 = r2.best().unwrap();
    assert_eq!(b1.extension, b2.extension);
    // Description columns may render floats with rounding (display_value
    // uses 4 decimals), so compare extensions and SI, not thresholds.
    assert!((b1.score.si - b2.score.si).abs() < 0.5);
}

/// The subgroup mean as it was computed before the word scan: every
/// member row added into the accumulator in ascending order through
/// `BitIter`, then scaled. Kept here as the oracle the word-scan means
/// must reproduce bit for bit.
fn per_row_mean(data: &Dataset, ext: &BitSet) -> Vec<u64> {
    let mut mean = vec![0.0; data.dy()];
    for i in ext.iter() {
        sisd::linalg::add_assign(&mut mean, data.target_row(i));
    }
    sisd::linalg::scale(1.0 / ext.count() as f64, &mut mean);
    bits(&mean)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `target_mean` and `target_mean_words` walk the extension's words
    /// instead of iterating its rows; every column must still see the same
    /// additions in the same order. Covers row counts around the word
    /// boundary; one column (summed in a register) and wider rows; over
    /// full, empty-tail, sparse and random masks.
    #[test]
    fn word_scan_means_match_the_per_row_oracle(seed in 0u64..1_000_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for dy in [1usize, 3, 16] {
            for n in [1usize, 63, 64, 65, 1000] {
                // Wide dynamic range, so any reordered addition would show
                // in the low bits.
                let targets: Vec<f64> = (0..n * dy)
                    .map(|_| rng.normal() * 10f64.powi((rng.uniform() * 12.0) as i32 - 6))
                    .collect();
                let data = Dataset::new(
                    "oracle",
                    Vec::new(),
                    Vec::new(),
                    (0..dy).map(|j| format!("y{j}")).collect(),
                    Matrix::from_vec(n, dy, targets),
                );
                let density = rng.uniform();
                let masks = [
                    BitSet::full(n),
                    // Every row but those in the last (partial or full)
                    // word: the tail word is empty.
                    BitSet::from_fn(n, |i| i < (n - 1) / 64 * 64),
                    BitSet::from_fn(n, |i| i % 7 == 3),
                    BitSet::from_fn(n, |_| rng.uniform() < density),
                ];
                for ext in masks.iter().filter(|m| m.count() > 0) {
                    let oracle = per_row_mean(&data, ext);
                    let count = ext.count();
                    prop_assert_eq!(bits(&data.target_mean(ext)), oracle.clone(), "dy={} n={}", dy, n);
                    prop_assert_eq!(bits(&data.target_mean_words(ext.words(), count)), oracle);
                }
            }
        }
    }
}
