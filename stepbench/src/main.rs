//! Closed-loop mining-step benchmark for the SISD miner.
//!
//! ```text
//! stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--print-pins]
//! ```
//!
//! One client mines in a closed loop, the next step starting when the
//! previous one returns, like an analyst waiting on each pattern. Every
//! step runs twice: on a miner with one engine thread per core (on a
//! dedicated worker pool) and on a single-threaded miner, whose outputs
//! must be bit-identical. The benchmark times its calls into the
//! library's public functions from outside; it changes no library code.
//!
//! With `--trace 0` the last stdout line is a JSON object holding the
//! end-to-end metrics. With `--trace 1` the untraced loop runs for half
//! the time, then the same loop runs for the other half with a span
//! around every call the threaded miner makes into the library. The
//! spans are written to `.bench_out/trace-<workload>-<seed>.jsonl`, and
//! the last line holds per-layer metrics from their self-times and from
//! `Miner::search_report` counter deltas. `METRICS.md` defines every
//! metric.

mod pins;
mod stats;
mod trace;
mod workload;

use sisd_data::Dataset;
use sisd_frontier::MaskMatrix;
use sisd_obs::{Metric, SearchReport};
use sisd_par::WorkerPool;
use sisd_search::{generate_conditions, BeamResult, Miner, MinerConfig};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{self_times, Tracer};
use workload::{Inputs, Workload};

/// Where snapshots and traces go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";
/// Set-ups before an untraced loop. `setup_s` is the median of these and
/// of the one set-up the loop adds before each session.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut print_pins = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(pins::PIN_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        print_pins,
    })
}

/// Everything a measured loop needs besides its miners.
struct Ctx {
    workload: Workload,
    /// One entry per draw.
    inputs: Vec<Inputs>,
    /// One engine thread per core, on a dedicated pool.
    cfg_par: MinerConfig,
    cfg_ser: MinerConfig,
    snap_par: PathBuf,
    snap_ser: PathBuf,
    check_pins: bool,
}

impl Ctx {
    /// A threaded and a serial miner over draw `draw`, fresh from the
    /// empirical model.
    fn pair(&self, draw: usize) -> Result<Pair, String> {
        let fresh = |cfg: &MinerConfig| {
            Miner::from_empirical(self.inputs[draw].clone().build(), cfg.clone())
                .map_err(|e| e.to_string())
        };
        Ok(Pair {
            par: fresh(&self.cfg_par)?,
            ser: fresh(&self.cfg_ser)?,
            draw,
        })
    }
}

/// The two miners every step runs on, over one draw.
struct Pair {
    par: Miner,
    ser: Miner,
    draw: usize,
}

/// Identifies the steps that must produce identical outputs: the draw
/// and the position in the session (0 when every step repeats one
/// search).
type StepKey = (usize, usize);

/// What one step produced, reduced to what the checks compare.
struct StepOut {
    /// FNV-1a over every output bit: each logged pattern's extension and
    /// score bits, the candidate count, and the spread pattern.
    digest: u64,
    /// Support and SI of the best pattern.
    best: Option<(usize, f64)>,
    evaluated: usize,
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn floats(&mut self, v: &[f64]) {
        v.iter().for_each(|x| self.word(x.to_bits()));
    }
}

fn beam_digest(res: &BeamResult) -> Fnv {
    let mut h = Fnv::new();
    h.word(res.evaluated as u64);
    for p in &res.top {
        p.extension.words().iter().for_each(|&w| h.word(w));
        h.floats(&[p.score.si, p.score.ic, p.score.dl]);
        h.floats(&p.observed_mean);
    }
    h
}

/// Per-layer accounting of traced steps: counter deltas between
/// consecutive `Miner::search_report` calls, and probe timings taken just
/// outside each step.
#[derive(Default)]
struct Layers {
    last: SearchReport,
    /// `generate_conditions` + `MaskMatrix::evaluate` before this step.
    mask_ns: u64,
    stride: usize,
    /// The open step's `snap.save` span, for its derived encode child.
    save_span: Option<usize>,
    counts: BTreeMap<&'static str, f64>,
    constraints: usize,
    restore_ns: Vec<u64>,
}

impl Layers {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    fn count(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Reads the miner's counters inside an `obs.report` span and returns
    /// how far each moved since the previous read.
    fn report(&mut self, m: &Miner, tr: &mut Tracer) -> impl Fn(Metric) -> u64 {
        let now = tr.span("obs.report", || m.search_report());
        let before = std::mem::replace(&mut self.last, now);
        move |k| now.get(k).saturating_sub(before.get(k))
    }

    /// Times the mask build the coming search repeats internally.
    fn probe_masks(&mut self, m: &Miner, cfg: &MinerConfig, tr: &mut Tracer) {
        let t = Instant::now();
        let conds = tr.span("probe.generate_conditions", || {
            generate_conditions(m.data(), &cfg.beam.refine)
        });
        let masks = tr.span("probe.mask_matrix", || {
            MaskMatrix::evaluate(m.data(), &conds)
        });
        self.mask_ns = t.elapsed().as_nanos() as u64;
        self.stride = masks.stride();
    }

    /// Times the encode half of the step's save, re-encoding the state
    /// the save just wrote.
    fn probe_encode(&mut self, m: &Miner, tr: &mut Tracer) -> Result<(), String> {
        let Some(save) = self.save_span.take() else {
            return Ok(());
        };
        let t = Instant::now();
        let bytes = tr
            .span("probe.snapshot_bytes", || m.snapshot_bytes())
            .map_err(|e| e.to_string())?;
        tr.derive(
            Some(save),
            &[("snap.encode", t.elapsed().as_nanos() as u64)],
        );
        self.add("snap.bytes", bytes.len() as f64);
        self.add("snap.saves", 1.0);
        Ok(())
    }
}

/// One mining step: search; for sessions also assimilate the best
/// location pattern, mine and assimilate its spread pattern (water), and
/// save the session. With tracing on, every call gets a span and the
/// library's own timers become derived child spans.
fn step(
    m: &mut Miner,
    ctx: &Ctx,
    snap: &Path,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Result<StepOut, String> {
    let search = tr.begin("beam.search");
    let res = m.search_locations();
    tr.end(search);
    if tr.enabled() {
        let d = layers.report(m, tr);
        let refine = d(Metric::FrontierCountNs)
            + d(Metric::FrontierMaterializeNs)
            + d(Metric::FrontierFusedNs);
        tr.derive(
            search,
            &[
                ("frontier.mask_build", layers.mask_ns),
                ("frontier.refine", refine),
                ("eval.score", d(Metric::EvalScoreNs)),
            ],
        );
        let candidates = d(Metric::FrontierCandidates);
        layers.add("candidates", candidates as f64);
        layers.add(
            "computed_bytes",
            (candidates * layers.stride as u64 * 8) as f64,
        );
        for (key, metric) in [
            ("materialized", Metric::FrontierMaterialized),
            ("dedup_dropped", Metric::FrontierDedupDropped),
            ("refine_calls", Metric::FrontierRefineCalls),
            ("grid_dispatch", Metric::FrontierGridDispatch),
            ("scored", Metric::EvalScored),
            ("score_ns", Metric::EvalScoreNs),
            ("cache_hits", Metric::CacheHits),
            ("cache_misses", Metric::CacheMisses),
            ("pool_tasks", Metric::PoolTasks),
            ("queue_wait_ns", Metric::PoolQueueWaitNs),
        ] {
            layers.add(key, d(metric) as f64);
        }
    }
    if res.degraded > 0 {
        return Err(format!("{} candidates degraded", res.degraded));
    }
    let mut digest = beam_digest(&res);
    let mut out = StepOut {
        digest: digest.0,
        best: res.best().map(|b| (b.extension.count(), b.score.si)),
        evaluated: res.evaluated,
    };
    if ctx.workload.session_len().is_none() {
        return Ok(out);
    }
    let Some(best) = res.top.into_iter().next() else {
        return Ok(out);
    };
    assimilate(m, tr, layers, "model.assimilate_location", |m| {
        m.assimilate_location(&best)
    })?;
    if ctx.workload.mines_spread() {
        let spread = tr.span("sphere.mine_spread", || m.mine_spread(&best));
        digest.floats(&spread.w);
        digest.floats(&[spread.observed_variance, spread.score.si]);
        assimilate(m, tr, layers, "model.assimilate_spread", |m| {
            m.assimilate_spread(&spread)
        })?;
    }
    let save = tr.begin("snap.save");
    let saved = m.save(snap);
    tr.end(save);
    layers.save_span = save;
    saved.map_err(|e| e.to_string())?;
    out.digest = digest.0;
    Ok(out)
}

fn assimilate<E: std::fmt::Display>(
    m: &mut Miner,
    tr: &mut Tracer,
    layers: &mut Layers,
    name: &'static str,
    f: impl FnOnce(&mut Miner) -> Result<(), E>,
) -> Result<(), String> {
    let span = tr.begin(name);
    let r = f(m);
    tr.end(span);
    r.map_err(|e| e.to_string())?;
    if tr.enabled() {
        let d = layers.report(m, tr);
        tr.derive(span, &[("model.refit", d(Metric::RefitNs))]);
        layers.add("refit_cycles", d(Metric::RefitCycles) as f64);
        layers.add(
            "downdate_fallbacks",
            d(Metric::RefitDowndateFallbacks) as f64,
        );
        layers.constraints = layers.constraints.max(m.model().constraints().len());
    }
    Ok(())
}

/// Runs `f`, turning a panic into an `Err` carrying its message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// End-of-session check: the session state survives a snapshot round
/// trip byte for byte, and the serial miner reached the identical state.
fn session_end(ctx: &Ctx, pair: &Pair, tr: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    let err = |e: sisd_core::SisdError| e.to_string();
    let bytes = pair.par.snapshot_bytes().map_err(err)?;
    let data: Dataset = pair.par.data().clone();
    let t = Instant::now();
    let restored = tr.span("snap.restore", || {
        Miner::restore_bytes(&bytes, data, ctx.cfg_par.clone())
    });
    layers.restore_ns.push(t.elapsed().as_nanos() as u64);
    if restored.map_err(err)?.snapshot_bytes().map_err(err)? != bytes {
        return Err("restored session snapshots to different bytes".into());
    }
    if pair.ser.snapshot_bytes().map_err(err)? != bytes {
        return Err("threaded and serial sessions ended in different states".into());
    }
    Ok(())
}

/// Outcomes and latency samples of one measured loop.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    par_ms: Vec<f64>,
    ser_ms: Vec<f64>,
    evaluated: u64,
    /// Steps run so far: the id of the next step span.
    step_no: u64,
    /// Digest of each step, from its first successful run.
    digests: HashMap<StepKey, u64>,
    /// Best pattern of each step, from its first successful run.
    observed: BTreeMap<StepKey, (usize, f64)>,
    /// Set-up times in seconds, whose median is `setup_s`.
    setup_s: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("failed: {what}");
    }

    /// A fresh miner pair over `draw`, or `None` after counting the
    /// failure to build one.
    fn pair(&mut self, ctx: &Ctx, draw: usize) -> Option<Pair> {
        guarded(|| ctx.pair(draw))
            .inspect_err(|e| {
                self.attempted += 1;
                self.fail(&format!("miner set-up: {e}"));
            })
            .ok()
    }

    /// Checks the end state of a session that completed, counting a
    /// failure when it does not hold.
    fn end_session(&mut self, ctx: &Ctx, pair: &Pair, tr: &mut Tracer, layers: &mut Layers) {
        if let Err(e) = guarded(|| session_end(ctx, pair, tr, layers)) {
            self.fail(&format!("session end: {e}"));
        }
    }
}

/// Times one set-up over draw `draw`: `Dataset::new` over the generated
/// columns, `Miner::from_empirical`, and one warm-up step. Records the
/// time in `tally.setup_s`, or counts the failure.
fn set_up(ctx: &Ctx, draw: usize, tally: &mut Tally) {
    let (mut tr, mut layers) = (Tracer::new(false), Layers::default());
    let cols = ctx.inputs[draw].clone();
    let t = Instant::now();
    let warmed = guarded(|| {
        let mut m =
            Miner::from_empirical(cols.build(), ctx.cfg_par.clone()).map_err(|e| e.to_string())?;
        step(&mut m, ctx, &ctx.snap_par, &mut tr, &mut layers)
    });
    match warmed {
        Ok(_) => tally.setup_s.push(t.elapsed().as_secs_f64()),
        Err(e) => {
            tally.attempted += 1;
            tally.fail(&format!("set-up: {e}"));
        }
    }
}

/// Runs step `j` of `pair`'s session on the threaded and then the serial
/// miner and checks the outputs: the two must match each other, the
/// pins, and the same step's digest in `reference` (the untraced loop's)
/// or else from its first run in this loop. With `tr` enabled the threaded step is traced
/// and probed; the serial miner is never traced. Returns whether the
/// session can go on, `Some(false)` when nothing is left to mine, and
/// `None` after counting a failure.
fn step_pair(
    ctx: &Ctx,
    pair: &mut Pair,
    j: usize,
    reference: Option<&HashMap<StepKey, u64>>,
    tally: &mut Tally,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Option<bool> {
    let key = (pair.draw, j);
    tally.attempted += 1;
    if tr.enabled() {
        layers.last = pair.par.search_report();
        layers.probe_masks(&pair.par, &ctx.cfg_par, tr);
    }
    let t = Instant::now();
    let span = tr.begin_step(tally.step_no);
    let a = guarded(|| step(&mut pair.par, ctx, &ctx.snap_par, tr, layers));
    tr.end_step(span);
    let par_ms = t.elapsed().as_secs_f64() * 1e3;
    tally.step_no += 1;
    let mut ser_ms = 0.0;
    let verdict = a.and_then(|a| {
        if tr.enabled() {
            layers.probe_encode(&pair.par, tr)?;
        }
        let t = Instant::now();
        let b = guarded(|| {
            let mut off = (Tracer::new(false), Layers::default());
            step(&mut pair.ser, ctx, &ctx.snap_ser, &mut off.0, &mut off.1)
        });
        ser_ms = t.elapsed().as_secs_f64() * 1e3;
        if b?.digest != a.digest {
            return Err(format!("{key:?}: threaded and serial outputs differ"));
        }
        let expected = reference
            .and_then(|r| r.get(&key))
            .or_else(|| tally.digests.get(&key));
        if expected.is_some_and(|&d| d != a.digest) {
            return Err(format!("{key:?}: output differs from an earlier run of it"));
        }
        if ctx.check_pins {
            pins::check(ctx.workload, key, a.best)?;
        }
        Ok(a)
    });
    match verdict {
        Ok(out) => {
            tally.par_ms.push(par_ms);
            tally.ser_ms.push(ser_ms);
            tally.evaluated += out.evaluated as u64;
            tally.digests.entry(key).or_insert(out.digest);
            if let Some(best) = out.best {
                tally.observed.entry(key).or_insert(best);
            }
            Some(out.best.is_some())
        }
        Err(e) => {
            tally.fail(&e);
            None
        }
    }
}

/// The closed loop, run until `seconds` have passed. Session workloads
/// run whole sessions on fresh miners, rotating over the draws; the
/// search-only workloads keep one miner pair per draw and rotate steps
/// over them. A failed step ends its session (or retires its pair).
fn run_loop(
    ctx: &Ctx,
    seconds: f64,
    reference: Option<&HashMap<StepKey, u64>>,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> Tally {
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let draws = ctx.inputs.len();
    let mut turn = 0;
    match ctx.workload.session_len() {
        Some(len) => {
            while Instant::now() < deadline {
                // One more set-up per session, so that `setup_s` samples
                // the host across the whole run like the step metrics
                // do; a session's set-up is cheap next to its steps.
                set_up(ctx, turn % draws, &mut tally);
                let Some(mut pair) = tally.pair(ctx, turn % draws) else {
                    continue;
                };
                turn += 1;
                let mut outcome = Some(true);
                for j in 0..len {
                    outcome = step_pair(ctx, &mut pair, j, reference, &mut tally, tr, layers);
                    if outcome != Some(true) {
                        break;
                    }
                }
                if outcome.is_some() {
                    tally.end_session(ctx, &pair, tr, layers);
                }
            }
        }
        None => {
            let mut pairs: Vec<Option<Pair>> = (0..draws).map(|_| None).collect();
            while Instant::now() < deadline {
                let draw = turn % draws;
                turn += 1;
                if pairs[draw].is_none() {
                    pairs[draw] = tally.pair(ctx, draw);
                }
                let Some(pair) = pairs[draw].as_mut() else {
                    continue;
                };
                if step_pair(ctx, pair, 0, reference, &mut tally, tr, layers) != Some(true) {
                    pairs[draw] = None;
                }
            }
            for pair in pairs.iter().flatten() {
                tally.end_session(ctx, pair, tr, layers);
            }
        }
    }
    tally
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(tally: &Tally, setup_s: &[f64]) -> Metrics {
    let (tail_p, tail) = stats::tail(&tally.par_ms);
    println!(
        "step_ms.tail is p{tail_p} of {} steps (ten or more beyond it, or p50 below 20 steps)",
        tally.par_ms.len()
    );
    let total_s: f64 = tally.par_ms.iter().sum::<f64>() / 1e3;
    vec![
        ("step_ms.p50", stats::median(&tally.par_ms), "ms"),
        ("step_ms.tail", tail, "ms"),
        ("serial_step_ms.p50", stats::median(&tally.ser_ms), "ms"),
        (
            "candidates_per_s",
            ratio(tally.evaluated as f64, total_s),
            "1/s",
        ),
        ("setup_s", stats::median(setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Per-layer metrics of the traced loop, per traced step unless named a
/// fraction. Returns them with whether every step's layer self-times and
/// unattributed time add up to its duration.
fn per_layer(untraced: &Tally, traced: &Tally, tr: &Tracer, layers: &Layers) -> (Metrics, bool) {
    let spans = tr.spans();
    let selfs = self_times(spans);
    let (mut dur, mut own) = (HashMap::<&str, u64>::new(), HashMap::<&str, u64>::new());
    let mut per_step: HashMap<u64, (u64, u64)> = HashMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let Some(step) = s.step else { continue };
        *dur.entry(s.name).or_default() += s.dur_ns();
        *own.entry(s.name).or_default() += self_ns;
        let e = per_step.entry(step).or_default();
        if s.name == "step" {
            e.0 += s.dur_ns();
        }
        e.1 += self_ns;
    }
    let reconciled = per_step.values().all(|&(step, sum)| step == sum);
    let steps = per_step.len().max(1) as f64;
    let ms = |m: &HashMap<&str, u64>, names: &[&str]| {
        names
            .iter()
            .map(|n| m.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
            / steps
    };
    let c = |key: &str| layers.count(key) / steps;
    let search_ms = ms(&dur, &["beam.search"]);
    let other_ms = ms(&own, &["beam.search"]);
    let restores = layers.restore_ns.len().max(1) as f64;
    let hits = layers.count("cache_hits");
    let metrics = vec![
        (
            "frontier.mask_build_ms",
            ms(&own, &["frontier.mask_build"]),
            "ms",
        ),
        ("frontier.refine_ms", ms(&own, &["frontier.refine"]), "ms"),
        ("frontier.candidates", c("candidates"), "count"),
        (
            "frontier.materialized_frac",
            ratio(c("materialized"), c("candidates")),
            "frac",
        ),
        ("frontier.dedup_dropped", c("dedup_dropped"), "count"),
        (
            "frontier.grid_dispatch_frac",
            ratio(c("grid_dispatch"), c("refine_calls")),
            "frac",
        ),
        ("frontier.computed_bytes", c("computed_bytes"), "B"),
        ("eval.score_ms", ms(&own, &["eval.score"]), "ms"),
        (
            "eval.ns_per_candidate",
            ratio(c("score_ns"), c("scored")),
            "ns",
        ),
        (
            "eval.cache_hit_frac",
            ratio(hits, hits + layers.count("cache_misses")),
            "frac",
        ),
        ("beam.search_ms", search_ms, "ms"),
        ("beam.other_ms", other_ms, "ms"),
        ("beam.other_frac", ratio(other_ms, search_ms), "frac"),
        (
            "model.assimilate_ms",
            ms(
                &dur,
                &["model.assimilate_location", "model.assimilate_spread"],
            ),
            "ms",
        ),
        ("model.refit_ms", ms(&own, &["model.refit"]), "ms"),
        ("model.refit_cycles", c("refit_cycles"), "count"),
        ("model.constraints", layers.constraints as f64, "count"),
        ("model.downdate_fallbacks", c("downdate_fallbacks"), "count"),
        ("sphere.mine_ms", ms(&dur, &["sphere.mine_spread"]), "ms"),
        ("snap.encode_ms", ms(&own, &["snap.encode"]), "ms"),
        ("snap.save_ms", ms(&dur, &["snap.save"]), "ms"),
        (
            "snap.bytes",
            ratio(layers.count("snap.bytes"), layers.count("snap.saves")),
            "B",
        ),
        (
            "snap.restore_ms",
            layers.restore_ns.iter().sum::<u64>() as f64 / 1e6 / restores,
            "ms",
        ),
        (
            "par.speedup",
            ratio(
                stats::median(&untraced.ser_ms),
                stats::median(&untraced.par_ms),
            ),
            "x",
        ),
        ("pool.queue_wait_ms", c("queue_wait_ns") / 1e6, "ms"),
        ("pool.tasks", c("pool_tasks"), "count"),
        ("obs.report_ms", ms(&dur, &["obs.report"]), "ms"),
        (
            "step.unattributed_frac",
            ratio(ms(&own, &["step"]), ms(&dur, &["step"])),
            "frac",
        ),
        (
            "obs.overhead_frac",
            ratio(
                stats::median(&traced.par_ms),
                stats::median(&untraced.par_ms),
            ) - 1.0,
            "frac",
        ),
    ];
    (metrics, reconciled)
}

/// The result line. A non-finite value is a benchmark bug: it prints as 0
/// and marks the run incorrect, keeping the line valid JSON.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: stepbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
             [--print-pins]",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wl = args.workload;
    let base = wl.config();
    let tag = format!("{}-{}-{}", wl.name(), args.seed, std::process::id());
    let ctx = Ctx {
        workload: wl,
        inputs: wl.inputs(args.seed),
        cfg_par: base
            .clone()
            .with_threads(nproc)
            .with_pool(WorkerPool::leaked()),
        cfg_ser: base.with_threads(1),
        snap_par: out_dir.join(format!("{tag}-par.snap")),
        snap_ser: out_dir.join(format!("{tag}-ser.snap")),
        check_pins: args.seed == pins::PIN_SEED,
    };
    println!(
        "workload {} seed {} | {} s per loop | {nproc} core(s), threads {nproc} vs 1 | trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut tally = Tally::default();
    // A traced run reports no `setup_s`; its one set-up is the warm-up.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    for r in 0..reps {
        set_up(&ctx, r % ctx.inputs.len(), &mut tally);
    }
    let (mut tr, mut layers) = (Tracer::new(false), Layers::default());
    // A traced run splits its time between the untraced and traced loops,
    // so it takes as long as an untraced one.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_loop(&ctx, seconds, None, &mut tr, &mut layers);
    tally.attempted += untraced.attempted;
    tally.failed += untraced.failed;
    tally.setup_s.extend(&untraced.setup_s);

    let mut correct = true;
    let metrics = if args.trace {
        let (mut tr, mut layers) = (Tracer::new(true), Layers::default());
        let traced = run_loop(&ctx, seconds, Some(&untraced.digests), &mut tr, &mut layers);
        tally.attempted += traced.attempted;
        tally.failed += traced.failed;
        let (metrics, reconciled) = per_layer(&untraced, &traced, &tr, &layers);
        if !reconciled {
            eprintln!("failed: layer self-times do not add up to step time");
            correct = false;
        }
        let path = out_dir.join(format!("trace-{}-{}.jsonl", wl.name(), args.seed));
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            correct = false;
        }
        println!(
            "{} traced steps, {} spans written to {}",
            traced.par_ms.len(),
            tr.spans().len(),
            path.display()
        );
        metrics
    } else {
        end_to_end(&untraced, &tally.setup_s)
    };
    for p in [&ctx.snap_par, &ctx.snap_ser] {
        let _ = std::fs::remove_file(p);
    }

    if args.print_pins {
        for draw in 0..ctx.inputs.len() {
            let pins: Vec<String> = untraced
                .observed
                .range((draw, 0)..(draw + 1, 0))
                .map(|(_, (s, si))| format!("({s}, {si:e})"))
                .collect();
            println!(
                "pins {} seed {} draw {draw}: &[{}],",
                wl.name(),
                args.seed,
                pins.join(", ")
            );
        }
    }
    println!(
        "steps {} threaded / {} serial; failed_frac {} ({} of {})",
        untraced.par_ms.len(),
        untraced.ser_ms.len(),
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    correct &= tally.failed == 0 && !untraced.par_ms.is_empty();
    println!(
        "{}",
        result_json(correct, tally.attempted, tally.failed, &metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_becomes_an_error_carrying_its_message() {
        let r: Result<(), String> = guarded(|| panic!("boom {}", 7));
        assert_eq!(r, Err("panicked: boom 7".to_string()));
        let r: Result<(), String> = guarded(|| panic!("static"));
        assert_eq!(r, Err("panicked: static".to_string()));
        assert_eq!(guarded(|| Ok(3)), Ok(3));
    }

    #[test]
    fn the_result_line_names_every_metric_with_its_unit() {
        let line = result_json(true, 4, 1, &vec![("a.b", 1.5, "ms"), ("c", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
