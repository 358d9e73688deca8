//! The shard-executor dispatch seam.
//!
//! [`ShardExecutor`] owns "run this shard's count pass / materialize
//! pass": the four primitives the frontier's two-pass route over a
//! sharded matrix and the evaluator's sharded statistics folds need from
//! a shard, expressed over raw word slices so a backend can run them
//! in-process, in a pool of worker processes, or across a socket (the
//! `sisd-exec` crate provides those backends over the `sisd_data::wire`
//! codec). Everything an executor returns is an exact integer or exact
//! words, so **any** backend reproduces the in-process results bit for
//! bit — the sharded determinism contract survives the process boundary.
//!
//! Fault tolerance is split in two: backends own per-request timeouts and
//! bounded retry; the *call sites* ([`FrontierBuilder`] and the evaluator
//! folds) own degradation — any `Err` from an executor demotes that one
//! request to the local kernels, bumps [`Metric::ExecutorFallbacks`], and
//! the search continues with identical output. A dead worker can cost
//! latency, never correctness.
//!
//! [`FrontierBuilder`]: crate::FrontierBuilder
//! [`Metric::ExecutorFallbacks`]: sisd_obs::Metric::ExecutorFallbacks

use sisd_core::SisdResult;

/// A backend that executes per-shard count and materialize passes.
///
/// Shards are addressed by `(matrix_id, shard)`, where `matrix_id` is the
/// process-unique id of a [`MaskMatrix`] (see [`MaskMatrix::matrix_id`])
/// — workers cache loaded shards under that key, so repeated refinement
/// calls over the same matrix ship the arena once. All word slices use
/// the shard's *local* stride; parents are passed as the parent
/// extension's words restricted to the shard's word range (zero-copy by
/// the plan's word-alignment invariant).
///
/// Implementations must be shareable across threads (`Send + Sync`) —
/// refinement may issue requests from any worker thread — and every method
/// must either return the exact in-process result or an error; a
/// *wrong-but-`Ok`* result would silently break bit-exactness, an `Err`
/// merely costs a local fallback.
///
/// [`MaskMatrix`]: crate::MaskMatrix
/// [`MaskMatrix::matrix_id`]: crate::MaskMatrix::matrix_id
pub trait ShardExecutor: Send + Sync + std::fmt::Debug {
    /// Human-readable backend name (`"inprocess"`, `"procpool"`,
    /// `"socket"`) for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Makes shard `shard` of matrix `matrix_id` resident on the backend:
    /// `rows` condition rows of `stride` words each, row-major. Idempotent
    /// — backends deduplicate already-loaded shards, so callers may (and
    /// do) re-issue loads every refinement call.
    fn load(
        &self,
        matrix_id: u64,
        shard: u32,
        rows: u32,
        stride: u32,
        words: &[u64],
    ) -> SisdResult<()>;

    /// Pass-1 counts: for every row `j` with `select[j]`, overwrites
    /// `out[j]` with the exact popcount of `parent AND row j` of the
    /// loaded shard. Entries with `select[j] == false` are left untouched.
    /// `parent` is the shard's word range of the parent extension;
    /// `select.len() == out.len()` is the shard matrix's row count.
    fn count(
        &self,
        matrix_id: u64,
        shard: u32,
        parent: &[u64],
        select: &[bool],
        out: &mut [u64],
    ) -> SisdResult<()>;

    /// Pass-2 survivor words: writes `parent AND row` for each entry of
    /// `rows`, in order, `stride` words per row, into `out` (which must
    /// hold exactly `rows.len() * stride` words).
    fn materialize(
        &self,
        matrix_id: u64,
        shard: u32,
        parent: &[u64],
        rows: &[u32],
        out: &mut [u64],
    ) -> SisdResult<()>;

    /// One-shot exact intersection count of two word slices — the
    /// evaluator's sharded statistics-fold primitive (per `(cell, shard)`
    /// request).
    fn and_count(&self, a: &[u64], b: &[u64]) -> SisdResult<u64>;
}

/// A `Copy` reference to a [`ShardExecutor`], or "disabled".
///
/// The executor analogue of `PoolHandle`/`ObsHandle`: configs stay
/// `Copy + Eq` by carrying an optional `&'static` reference instead of an
/// owned backend. [`ExecHandle::disabled`] (the `Default`) routes every
/// pass through the local kernels with zero overhead; [`ExecHandle::to`]
/// points at a leaked backend. Equality is pointer identity — two handles
/// are equal when they dispatch to the same executor instance.
#[derive(Clone, Copy, Default)]
pub struct ExecHandle(Option<&'static dyn ShardExecutor>);

impl ExecHandle {
    /// The no-executor handle: refinement and folds run in-process.
    #[inline]
    pub fn disabled() -> Self {
        ExecHandle(None)
    }

    /// A handle dispatching to `exec` (typically a leaked backend, which
    /// is how the `sisd-exec` constructors hand them out).
    #[inline]
    pub fn to(exec: &'static dyn ShardExecutor) -> Self {
        ExecHandle(Some(exec))
    }

    /// Whether an executor is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The attached executor, if any.
    #[inline]
    pub fn get(&self) -> Option<&'static dyn ShardExecutor> {
        self.0
    }
}

impl PartialEq for ExecHandle {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => std::ptr::addr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for ExecHandle {}

impl std::fmt::Debug for ExecHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            None => f.write_str("ExecHandle(disabled)"),
            Some(e) => write!(f, "ExecHandle({})", e.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrontierBuilder, FrontierConfig, MaskMatrix, ParentSpec};
    use sisd_data::wire::WireError;
    use sisd_data::{kernels, BitSet, ShardPlan};
    use sisd_obs::{Metric, NullSink, Obs};
    use sisd_stats::Xoshiro256pp;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Shard table of [`LocalExec`]: `(matrix, shard) -> (stride, words)`.
    type ShardTable = std::collections::HashMap<(u64, u32), (u32, Vec<u64>)>;

    /// A trivial in-crate executor used only by unit tests: exact local
    /// kernels behind the trait. It counts `count`/`materialize` requests
    /// and, when `flaky`, fails every other one.
    #[derive(Debug, Default)]
    struct LocalExec {
        shards: std::sync::Mutex<ShardTable>,
        requests: AtomicUsize,
        flaky: bool,
    }

    impl LocalExec {
        fn request(&self) -> SisdResult<()> {
            let k = self.requests.fetch_add(1, Ordering::Relaxed);
            if self.flaky && k % 2 == 1 {
                return Err(WireError::Timeout.into());
            }
            Ok(())
        }
    }

    impl ShardExecutor for LocalExec {
        fn name(&self) -> &'static str {
            "local-test"
        }
        fn load(
            &self,
            matrix_id: u64,
            shard: u32,
            _rows: u32,
            stride: u32,
            words: &[u64],
        ) -> SisdResult<()> {
            self.shards
                .lock()
                .unwrap()
                .insert((matrix_id, shard), (stride, words.to_vec()));
            Ok(())
        }
        fn count(
            &self,
            matrix_id: u64,
            shard: u32,
            parent: &[u64],
            select: &[bool],
            out: &mut [u64],
        ) -> SisdResult<()> {
            self.request()?;
            let guard = self.shards.lock().unwrap();
            let (stride, words) = &guard[&(matrix_id, shard)];
            let stride = *stride as usize;
            for (j, sel) in select.iter().enumerate() {
                if *sel {
                    out[j] = kernels::and_count(parent, &words[j * stride..][..stride]) as u64;
                }
            }
            Ok(())
        }
        fn materialize(
            &self,
            matrix_id: u64,
            shard: u32,
            parent: &[u64],
            rows: &[u32],
            out: &mut [u64],
        ) -> SisdResult<()> {
            self.request()?;
            let guard = self.shards.lock().unwrap();
            let (stride, words) = &guard[&(matrix_id, shard)];
            let stride = *stride as usize;
            for (k, &row) in rows.iter().enumerate() {
                kernels::and_into(
                    parent,
                    &words[row as usize * stride..][..stride],
                    &mut out[k * stride..][..stride],
                );
            }
            Ok(())
        }
        fn and_count(&self, a: &[u64], b: &[u64]) -> SisdResult<u64> {
            Ok(kernels::and_count(a, b) as u64)
        }
    }

    #[test]
    fn handle_equality_is_pointer_identity() {
        let a: &'static LocalExec = Box::leak(Box::default());
        let b: &'static LocalExec = Box::leak(Box::default());
        assert_eq!(ExecHandle::disabled(), ExecHandle::default());
        assert_eq!(ExecHandle::to(a), ExecHandle::to(a));
        assert_ne!(ExecHandle::to(a), ExecHandle::to(b));
        assert_ne!(ExecHandle::to(a), ExecHandle::disabled());
        assert!(ExecHandle::to(a).enabled());
        assert!(!ExecHandle::disabled().enabled());
        assert_eq!(
            format!("{:?}", ExecHandle::disabled()),
            "ExecHandle(disabled)"
        );
        assert_eq!(format!("{:?}", ExecHandle::to(a)), "ExecHandle(local-test)");
    }

    #[test]
    fn local_executor_matches_kernels() {
        let words: Vec<u64> = vec![0b1011, 0b0110, u64::MAX, 0, 0b1000, 1];
        let exec = LocalExec::default();
        exec.load(9, 0, 3, 2, &words).unwrap();
        let parent = [0b1110u64, 0b0101];
        let mut out = [u64::MAX; 3];
        exec.count(9, 0, &parent, &[true, false, true], &mut out)
            .unwrap();
        assert_eq!(out[0], kernels::and_count(&parent, &words[0..2]) as u64);
        assert_eq!(out[1], u64::MAX, "unselected row untouched");
        assert_eq!(out[2], kernels::and_count(&parent, &words[4..6]) as u64);
        let mut mat = [0u64; 4];
        exec.materialize(9, 0, &parent, &[2, 0], &mut mat).unwrap();
        assert_eq!(&mat[0..2], &[parent[0] & words[4], parent[1] & words[5]]);
        assert_eq!(&mat[2..4], &[parent[0] & words[0], parent[1] & words[1]]);
        assert_eq!(exec.and_count(&parent, &words[0..2]).unwrap(), 3);
    }

    #[test]
    fn executor_serves_only_the_sharded_two_pass_route_and_falls_back_per_request() {
        // 10 parents (two tiles) × 96 rows (three blocks) × 256 words:
        // enough items and words for two workers, so threads = 2 takes
        // the two-pass route at every shard count.
        let n = 16_384;
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let masks: Vec<BitSet> = (0..96)
            .map(|_| BitSet::from_fn(n, |_| rng.uniform() < 0.3))
            .collect();
        let parent_sets: Vec<BitSet> = (0..10)
            .map(|_| BitSet::from_fn(n, |_| rng.uniform() < 0.5))
            .collect();
        let parents: Vec<ParentSpec<'_>> = parent_sets
            .iter()
            .map(|ext| ParentSpec {
                ext,
                max_support: ext.count().saturating_sub(1),
            })
            .collect();
        let allowed = |p: usize, row: usize| !(p + row).is_multiple_of(4);
        let keep = |_: usize, _: usize, support: usize| !support.is_multiple_of(3);
        let dense = MaskMatrix::from_bitsets(n, masks.iter().cloned());
        let config = FrontierConfig {
            min_support: n / 8,
            ..FrontierConfig::default()
        };
        let expect =
            FrontierBuilder::new(&dense, config).refine_with_prune(&parents, allowed, keep);
        assert!(!expect.is_empty());
        for flaky in [false, true] {
            for shards in [1usize, 3] {
                let exec: &'static LocalExec = Box::leak(Box::new(LocalExec {
                    flaky,
                    ..LocalExec::default()
                }));
                let obs = Obs::leaked(Box::new(NullSink));
                let matrix =
                    MaskMatrix::from_bitsets_sharded(ShardPlan::new(n, shards), masks.clone());
                let got = FrontierBuilder::new(
                    &matrix,
                    FrontierConfig {
                        threads: 2,
                        obs,
                        exec: ExecHandle::to(exec),
                        ..config
                    },
                )
                .refine_with_prune(&parents, allowed, keep);
                let label = format!("flaky={flaky} shards={shards}");
                assert_eq!(got.len(), expect.len(), "{label}");
                for i in 0..expect.len() {
                    assert_eq!(got.meta(i), expect.meta(i), "{label}");
                    assert_eq!(got.child_words(i), expect.child_words(i), "{label}");
                }
                let report = obs.report().unwrap();
                assert_eq!(report.get(Metric::FrontierGridDispatch), 1, "{label}");
                let requests = exec.requests.load(Ordering::Relaxed);
                let fallbacks = report.get(Metric::ExecutorFallbacks);
                if shards == 1 {
                    assert_eq!(requests, 0, "no executor request at S = 1");
                } else {
                    assert!(requests > 0, "{label}");
                    assert_eq!(fallbacks as usize, if flaky { requests / 2 } else { 0 });
                }
            }
        }
    }
}
