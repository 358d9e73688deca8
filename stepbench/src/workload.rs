//! The two workloads: how each generates its inputs from a seed, which
//! miner configuration it runs, and how its steps group into sessions.

use sisd_data::datasets::{crime_synthetic, water_quality_synthetic};
use sisd_data::{Column, Dataset};
use sisd_linalg::Matrix;
use sisd_search::{BeamConfig, MinerConfig, RefineConfig, SphereConfig};

/// Crime simulacra joined row-wise by `crime-wide`: enough that the
/// 3.7 MiB mask matrix is about twice a core's 2 MiB L2.
pub const WIDE_COPIES: u64 = 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated searches over 16 crime simulacra joined row-wise.
    CrimeWide,
    /// 30-step location + spread sessions over the water simulacrum.
    WaterSession,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::CrimeWide, Workload::WaterSession];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrimeWide => "crime-wide",
            Workload::WaterSession => "water-session",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Steps per session, each session starting from a fresh miner.
    /// `None` for the search-only workload, whose steps all run against
    /// the unchanged empirical model of one long-lived miner per draw.
    pub fn session_len(self) -> Option<usize> {
        match self {
            Workload::CrimeWide => None,
            Workload::WaterSession => Some(30),
        }
    }

    /// Simulacra one run mines. Sessions rotate over them, each on the
    /// next draw, so a run's figures average over as many data draws as
    /// it mines sessions (12 to 20 in a 55 s run) instead of weighting a
    /// few unevenly; `crime-wide` already joins 16 draws into one
    /// dataset.
    pub fn draws(self) -> usize {
        match self {
            Workload::CrimeWide => 1,
            Workload::WaterSession => 24,
        }
    }

    /// Whether a step mines and assimilates a spread pattern after the
    /// location pattern.
    pub fn mines_spread(self) -> bool {
        self == Workload::WaterSession
    }

    /// The miner configuration, before the thread count is set: the
    /// `scalability` beam for `crime-wide` and the `fig9_10`
    /// configuration for the water sessions.
    pub fn config(self) -> MinerConfig {
        match self {
            Workload::CrimeWide => MinerConfig {
                beam: BeamConfig {
                    width: 40,
                    max_depth: 2,
                    top_k: 50,
                    min_coverage: 10,
                    ..BeamConfig::default()
                },
                ..MinerConfig::default()
            },
            Workload::WaterSession => MinerConfig {
                beam: BeamConfig {
                    width: 40,
                    max_depth: 2,
                    top_k: 150,
                    min_coverage: 30,
                    refine: RefineConfig::default(),
                    ..BeamConfig::default()
                },
                sphere: SphereConfig {
                    random_starts: 10,
                    ..SphereConfig::default()
                },
                two_sparse_spread: false,
                refit_tol: 1e-7,
                refit_max_cycles: 100,
            },
        }
    }

    /// Generates the input columns of every draw from `seed`. Draw `k`
    /// uses generator seed `seed + k·2³²`, so draw 0 is the seed's own
    /// simulacrum and no two seeds below 2³² share a draw.
    pub fn inputs(self, seed: u64) -> Vec<Inputs> {
        (0..self.draws() as u64)
            .map(|k| self.draw(seed.wrapping_add(k << 32)))
            .collect()
    }

    fn draw(self, seed: u64) -> Inputs {
        match self {
            Workload::CrimeWide => {
                let parts: Vec<Inputs> = (0..WIDE_COPIES)
                    .map(|k| Inputs::of(&crime_synthetic(seed.wrapping_add(k))))
                    .collect();
                Inputs::join_rows("crime-wide", parts)
            }
            Workload::WaterSession => Inputs::of(&water_quality_synthetic(seed)),
        }
    }
}

/// The generated columns a workload hands to `Dataset::new`.
#[derive(Debug, Clone)]
pub struct Inputs {
    name: String,
    desc_names: Vec<String>,
    desc_cols: Vec<Column>,
    target_names: Vec<String>,
    targets: Matrix,
}

impl Inputs {
    fn of(data: &Dataset) -> Self {
        Self {
            name: data.name.clone(),
            desc_names: data.desc_names().to_vec(),
            desc_cols: data.desc_cols().to_vec(),
            target_names: data.target_names().to_vec(),
            targets: data.targets().clone(),
        }
    }

    /// Stacks datasets with identical schemas row after row.
    fn join_rows(name: &str, parts: Vec<Inputs>) -> Self {
        let first = parts.first().expect("at least one part to join");
        let dy = first.targets.cols();
        let mut cols = first.desc_cols.clone();
        let mut targets = first.targets.as_slice().to_vec();
        for part in &parts[1..] {
            assert_eq!(
                part.desc_names, first.desc_names,
                "joined parts share a schema"
            );
            for (col, more) in cols.iter_mut().zip(&part.desc_cols) {
                match (col, more) {
                    (Column::Numeric(v), Column::Numeric(w)) => v.extend_from_slice(w),
                    _ => panic!("join_rows: only numeric description columns are joined"),
                }
            }
            targets.extend_from_slice(part.targets.as_slice());
        }
        let n = targets.len() / dy;
        Self {
            name: name.to_string(),
            desc_names: first.desc_names.clone(),
            desc_cols: cols,
            target_names: first.target_names.clone(),
            targets: Matrix::from_vec(n, dy, targets),
        }
    }

    /// Builds the dataset; this `Dataset::new` call is part of set-up time.
    pub fn build(self) -> Dataset {
        Dataset::new(
            self.name,
            self.desc_names,
            self.desc_cols,
            self.target_names,
            self.targets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_other_ones() {
        let prints = |w: Workload, seed| -> Vec<u64> {
            w.inputs(seed)
                .into_iter()
                .map(|i| i.build().content_fingerprint())
                .collect()
        };
        for w in Workload::ALL {
            let a = prints(w, 2018);
            assert_eq!(a.len(), w.draws());
            assert_eq!(
                a,
                prints(w, 2018),
                "{}: same seed, different inputs",
                w.name()
            );
            let b = prints(w, 2019);
            for (k, fp) in a.iter().enumerate() {
                assert!(
                    !b.contains(fp),
                    "{}: draw {k} repeats under another seed",
                    w.name()
                );
                assert_eq!(
                    a.iter().filter(|x| *x == fp).count(),
                    1,
                    "{}: draws repeat",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn crime_wide_stacks_sixteen_simulacra() {
        let wide = Workload::CrimeWide.draw(7).build();
        let one = Inputs::of(&crime_synthetic(7)).build();
        assert_eq!(wide.n(), WIDE_COPIES as usize * one.n());
        assert_eq!(wide.dx(), one.dx());
        // The first block is the seed's own simulacrum.
        assert_eq!(wide.target_row(0), one.target_row(0));
        assert_eq!(wide.desc_col(3).len(), wide.n());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("socio"), None);
    }
}
