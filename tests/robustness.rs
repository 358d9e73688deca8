//! Failure-injection and degenerate-input tests: the library must reject or
//! gracefully survive the pathological datasets a downstream user will
//! eventually feed it.

use sisd::core::{explain_location, location_si, DlParams, Intention};
use sisd::data::csv::dataset_from_csv_str;
use sisd::data::{BitSet, Column, Dataset};
use sisd::linalg::Matrix;
use sisd::model::{BackgroundModel, ModelError};
use sisd::search::{
    branch_bound_search, generate_conditions, BeamConfig, BeamSearch, BranchBoundConfig,
    EvalConfig, Miner, MinerConfig, RefineConfig, SphereConfig,
};

fn tiny_config() -> MinerConfig {
    MinerConfig {
        beam: BeamConfig {
            width: 5,
            max_depth: 2,
            top_k: 10,
            min_coverage: 2,
            ..BeamConfig::default()
        },
        sphere: SphereConfig {
            random_starts: 2,
            ..SphereConfig::default()
        },
        two_sparse_spread: false,
        refit_tol: 1e-8,
        refit_max_cycles: 50,
    }
}

/// Constant targets: the empirical covariance is singular; the model layer
/// must jitter rather than crash, and searches must not panic.
#[test]
fn constant_targets_survive_via_jitter() {
    let n = 40;
    let flags: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let data = Dataset::new(
        "const",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y".into()],
        Matrix::from_vec(n, 1, vec![3.25; n]),
    );
    let model = BackgroundModel::from_empirical(&data).expect("jittered prior");
    let result = BeamSearch::new(tiny_config().beam).run(&data, &model);
    // All subgroup means equal the global constant → nothing genuinely
    // interesting, but no panics and finite scores.
    for p in &result.top {
        assert!(p.score.si.is_finite());
    }
}

/// A target column with zero variance inside one attribute but variation in
/// the other: dense-path covariances stay factorable.
#[test]
fn mixed_degenerate_targets() {
    let n = 30;
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        targets[(i, 0)] = 1.0; // constant
        targets[(i, 1)] = (i as f64 * 0.37).sin();
    }
    let flags: Vec<bool> = (0..n).map(|i| i < 10).collect();
    let data = Dataset::new(
        "半const",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y0".into(), "y1".into()],
        targets,
    );
    let mut miner = Miner::from_empirical(data, tiny_config()).expect("model fits");
    // Location iteration must work; spread may be degenerate but must not
    // panic (the spread solve on a zero-variance direction errors cleanly).
    let it = miner.step_location().expect("update ok");
    assert!(it.is_some());
}

/// Extremely small datasets.
#[test]
fn minimal_row_counts() {
    for n in [2usize, 3, 5] {
        let flags: Vec<bool> = (0..n).map(|i| i == 0).collect();
        let mut targets = Matrix::zeros(n, 1);
        for i in 0..n {
            targets[(i, 0)] = i as f64;
        }
        let data = Dataset::new(
            "tiny",
            vec!["f".into()],
            vec![Column::binary(&flags)],
            vec!["y".into()],
            targets,
        );
        let model = BackgroundModel::from_empirical(&data).expect("model");
        let cfg = BeamConfig {
            width: 3,
            max_depth: 1,
            top_k: 5,
            min_coverage: 1,
            max_coverage_fraction: 1.0,
            ..BeamConfig::default()
        };
        let result = BeamSearch::new(cfg).run(&data, &model);
        for p in &result.top {
            assert!(p.score.si.is_finite());
        }
    }
}

/// Dimension mismatches are rejected with typed errors, not panics.
#[test]
fn dimension_errors_are_typed() {
    let mut model = BackgroundModel::new(10, vec![0.0, 0.0], Matrix::identity(2)).unwrap();
    let ext = BitSet::from_indices(10, [0, 1]);
    assert!(matches!(
        model.assimilate_location(&ext, vec![1.0]),
        Err(ModelError::Dimension {
            expected: 2,
            got: 1
        })
    ));
    assert!(matches!(
        model.assimilate_spread(&ext, vec![1.0], vec![0.0, 0.0], 1.0),
        Err(ModelError::Dimension { .. })
    ));
    assert!(matches!(
        model.location_stats(&BitSet::empty(10), &[0.0, 0.0]),
        Err(ModelError::EmptyExtension)
    ));
}

/// Repeated assimilation of the *same* pattern is idempotent after the
/// first application (the constraint is already satisfied).
#[test]
fn repeated_assimilation_is_stable() {
    let n = 30;
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        targets[(i, 0)] = (i as f64).sin();
        targets[(i, 1)] = (i as f64).cos();
    }
    let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let data = Dataset::new(
        "rep",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y0".into(), "y1".into()],
        targets,
    );
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let ext = BitSet::from_fn(n, |i| i % 3 == 0);
    let mean = data.target_mean(&ext);
    model.assimilate_location(&ext, mean.clone()).unwrap();
    let mu_after_first: Vec<f64> = model.row_mean(0).to_vec();
    for _ in 0..5 {
        model.assimilate_location(&ext, mean.clone()).unwrap();
        let _ = model.refit(1e-10, 50).unwrap();
    }
    for (a, b) in model.row_mean(0).iter().zip(&mu_after_first) {
        assert!((a - b).abs() < 1e-9, "means drifted under re-assimilation");
    }
    assert!(model.max_violation() < 1e-9);
}

/// An extreme spread demand (variance → 0) leaves the model usable: the
/// SI of follow-up patterns stays finite.
#[test]
fn extreme_spread_shrink_keeps_model_usable() {
    let n = 40;
    let mut targets = Matrix::zeros(n, 2);
    for i in 0..n {
        targets[(i, 0)] = (i as f64 * 1.3).sin();
        targets[(i, 1)] = (i as f64 * 0.7).cos();
    }
    let flags: Vec<bool> = (0..n).map(|i| i < 20).collect();
    let data = Dataset::new(
        "shrink",
        vec!["f".into()],
        vec![Column::binary(&flags)],
        vec!["y0".into(), "y1".into()],
        targets,
    );
    let mut model = BackgroundModel::from_empirical(&data).unwrap();
    let ext = BitSet::from_indices(n, 0..20);
    let center = data.target_mean(&ext);
    let mut w = vec![1.0, 1.0];
    sisd::linalg::normalize(&mut w);
    model
        .assimilate_spread(&ext, w, center, 1e-10)
        .expect("extreme shrink accepted");
    // Scoring any other subgroup still works.
    let other = BitSet::from_indices(n, 20..40);
    let intent = Intention::empty();
    let score = location_si(&model, &data, &intent, &other, &DlParams::default()).unwrap();
    assert!(score.si.is_finite());
}

/// Unicode attribute names and labels flow through descriptions unharmed.
#[test]
fn unicode_names_roundtrip() {
    let data = Dataset::new(
        "unicode",
        vec!["Fläche_km²".into()],
        vec![Column::categorical_from_strs(&["groß", "klein", "groß"])],
        vec!["Bevölkerung".into()],
        Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]),
    );
    let intent = Intention::empty().with(sisd::core::Condition {
        attr: 0,
        op: sisd::core::ConditionOp::Eq(0),
    });
    let described = intent.describe(&data);
    assert!(described.contains("Fläche_km²"));
    assert!(described.contains("groß"));
    assert_eq!(intent.evaluate(&data).to_indices(), vec![0, 2]);
}

/// One numeric and one categorical descriptor over `n` rows, with
/// irregular single-column targets.
fn mixed_dataset(n: usize, targets: Matrix) -> Dataset {
    Dataset::new(
        "mixed",
        vec!["x".into(), "g".into()],
        vec![
            Column::Numeric((0..n).map(|i| ((i * 37) % n) as f64).collect()),
            Column::categorical_from_strs(
                &(0..n)
                    .map(|i| ["a", "b", "c", "d"][i % 4])
                    .collect::<Vec<_>>(),
            ),
        ],
        vec!["y".into()],
        targets,
    )
}

/// A NaN target row makes the subgroup mean — and so the SI — of every
/// candidate covering it NaN. Those candidates are numeric failures: the
/// search neither panics (the next-frontier sort used to) nor logs them
/// (a NaN SI used to land at the head of the top-k log).
#[test]
fn nan_target_row_degrades_the_search_instead_of_ranking_nan() {
    let n = 120;
    let clean = mixed_dataset(
        n,
        Matrix::from_vec(n, 1, (0..n).map(|i| (i as f64 * 0.37).sin()).collect()),
    );
    let model = BackgroundModel::from_empirical(&clean).unwrap();
    let mut targets = clean.targets().clone();
    targets[(17, 0)] = f64::NAN;
    let dirty = mixed_dataset(n, targets);
    for threads in [1usize, 3] {
        let cfg = BeamConfig {
            width: 10,
            max_depth: 2,
            top_k: 40,
            min_coverage: 3,
            eval: EvalConfig::with_threads(threads),
            ..BeamConfig::default()
        };
        let result = BeamSearch::new(cfg).run(&dirty, &model);
        assert!(
            result.degraded > 0,
            "threads={threads}: NaN scores must count"
        );
        assert!(!result.top.is_empty());
        for p in &result.top {
            assert!(p.score.si.is_finite() && p.score.ic.is_finite());
            assert!(p.observed_mean.iter().all(|m| m.is_finite()));
            assert!(!p.extension.contains(17), "a pattern covering the NaN row");
        }
        for w in result.top.windows(2) {
            assert!(w[0].score.si >= w[1].score.si);
        }
    }
}

/// A NaN target row must not panic branch-and-bound's optimistic bound
/// (its sort of the covered targets used to). The bound drops non-finite
/// values, so it stays admissible for every subset that can score
/// finitely; a subset covering the NaN row is a numeric failure, never
/// the optimum.
#[test]
fn nan_target_row_does_not_panic_branch_and_bound() {
    let n = 120;
    let clean = mixed_dataset(
        n,
        Matrix::from_vec(n, 1, (0..n).map(|i| (i as f64 * 0.37).sin()).collect()),
    );
    let model = BackgroundModel::from_empirical(&clean).unwrap();
    let mut targets = clean.targets().clone();
    targets[(17, 0)] = f64::NAN;
    let dirty = mixed_dataset(n, targets);
    for threads in [1usize, 3] {
        let result = branch_bound_search(
            &dirty,
            &model,
            BranchBoundConfig {
                max_depth: 2,
                min_coverage: 3,
                eval: EvalConfig::with_threads(threads),
                ..BranchBoundConfig::default()
            },
        );
        assert!(result.evaluated > 0, "threads={threads}");
        let best = result.best.as_ref().expect("NaN-free subsets still score");
        assert!(best.score.si.is_finite() && best.score.ic.is_finite());
        assert!(best.observed_mean.iter().all(|m| m.is_finite()));
        assert!(
            !best.extension.contains(17),
            "the optimum covers the NaN row"
        );
    }
}

/// A NaN target row inside the extension makes the observed mean NaN.
/// Explaining such a pattern is a typed numeric failure, not a panic in
/// the ranking of the attributes by surprise (which needs two targets to
/// compare at all).
#[test]
fn nan_target_row_does_not_panic_explain() {
    let n = 40;
    let two_targets = |targets: Matrix| {
        Dataset::new(
            "nan-explain",
            vec!["x".into()],
            vec![Column::Numeric((0..n).map(|i| i as f64).collect())],
            vec!["a".into(), "b".into()],
            targets,
        )
    };
    let clean = two_targets(Matrix::from_vec(
        n,
        2,
        (0..2 * n).map(|k| (k as f64 * 0.61).cos()).collect(),
    ));
    let model = BackgroundModel::from_empirical(&clean).unwrap();
    let mut targets = clean.targets().clone();
    targets[(3, 0)] = f64::NAN;
    let dirty = two_targets(targets);
    let ext = BitSet::from_indices(n, 0..10);
    let explained = explain_location(&model, &dirty, &Intention::empty(), &ext);
    assert!(matches!(explained, Err(ModelError::NonFinite)));
    // The same pattern on clean data still explains.
    let ok = explain_location(&model, &clean, &Intention::empty(), &ext).unwrap();
    assert_eq!(ok.attributes.len(), 2);
}

/// A `NaN` cell in a numeric CSV descriptor column loads as a NaN value.
/// Split points come from the other values, and the NaN row satisfies no
/// numeric condition; mining runs clean.
#[test]
fn nan_descriptor_cell_matches_no_numeric_condition() {
    let nan_rows = [7usize, 33];
    let mut csv = String::from("x,g,y\n");
    for i in 0..60usize {
        let x = if nan_rows.contains(&i) {
            "NaN".to_string()
        } else {
            format!("{}", ((i * 7) % 60) as f64 / 3.0)
        };
        let g = ["a", "b", "c"][i % 3];
        csv.push_str(&format!("{x},{g},{}\n", (i as f64 * 0.37).sin()));
    }
    let data = dataset_from_csv_str("nan-x", &csv, &["y"]).unwrap();
    let Column::Numeric(xs) = data.desc_col(0) else {
        panic!("a column with NaN cells is still numeric");
    };
    assert!(xs[7].is_nan() && xs[33].is_nan());
    let conditions = generate_conditions(&data, &RefineConfig::default());
    let on_x: Vec<_> = conditions.iter().filter(|c| c.attr == 0).collect();
    assert_eq!(on_x.len(), 8, "four split points, two operators");
    for c in on_x {
        let mask = c.evaluate(&data);
        for &i in &nan_rows {
            assert!(!mask.contains(i), "NaN row {i} matched {c:?}");
        }
    }
    let model = BackgroundModel::from_empirical(&data).unwrap();
    let result = BeamSearch::new(tiny_config().beam).run(&data, &model);
    assert!(!result.top.is_empty());
    assert_eq!(result.degraded, 0);
}
