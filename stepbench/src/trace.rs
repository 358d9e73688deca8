//! In-memory spans recorded around the benchmark's calls into the
//! library, their self-times, and the JSONL dump.
//!
//! A *measured* span brackets one public call with `Instant` reads. A
//! *derived* span stands for work inside a call that the library times
//! itself (a counter delta read from `Miner::search_report`) or that a
//! probe timed just outside the step: it has a duration but no observed
//! position, so derived children are laid end to end from the parent's
//! start and clipped to the parent's end. Children of one span never
//! overlap and never leave their parent, so every span's self-time — its
//! duration minus the part of it its children cover — sums over a step's
//! tree to exactly the step's duration.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// The mining step this span belongs to (`None` outside steps).
    pub step: Option<u64>,
    /// `<layer>.<call>`, e.g. `beam.search`; the root of a step is `step`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Whether the interval was derived rather than observed.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: Option<u64>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one. Returns its id
    /// (`None` when disabled).
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            step: self.step,
            name,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Opens a `step` root span for step `step`; spans opened until the
    /// matching [`Tracer::end`] carry the step id.
    pub fn begin_step(&mut self, step: u64) -> Option<usize> {
        self.step = Some(step);
        self.begin("step")
    }

    /// Closes a step opened by [`Tracer::begin_step`], together with any
    /// span a panic left open inside it.
    pub fn end_step(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = now;
            if open == id {
                break;
            }
        }
        self.step = None;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records derived children of the closed span `parent`, laid end to
    /// end from its start in the order given and clipped to its end.
    pub fn derive(&mut self, parent: Option<usize>, children: &[(&'static str, u64)]) {
        let Some(parent) = parent else { return };
        let (step, mut at, limit) = {
            let p = &self.spans[parent];
            (p.step, p.start_ns, p.end_ns)
        };
        for &(name, dur_ns) in children {
            let end_ns = at.saturating_add(dur_ns).min(limit);
            self.spans.push(Span {
                parent: Some(parent),
                step,
                name,
                start_ns: at,
                end_ns,
                derived: true,
            });
            at = end_ns;
        }
    }

    /// The spans as JSON lines, one object per span with its id and
    /// self-time.
    pub fn to_jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"step\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns},\"derived\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.step),
                s.name,
                s.start_ns,
                s.end_ns,
                s.derived
            );
        }
        out
    }
}

/// Self-time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            step: Some(0),
            name,
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, "step", 0, 100),
            span(Some(0), "beam.search", 10, 60),
            span(Some(1), "eval.score", 20, 40),
            span(Some(1), "frontier.refine", 35, 50), // overlaps eval.score
            span(Some(0), "snap.save", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 20, 15, 20]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(None, "step", 0, 50),
            span(Some(0), "beam.search", 40, 80),
        ];
        assert_eq!(self_times(&spans), vec![40, 40]);
    }

    #[test]
    fn derived_children_tile_the_parent_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span(None, "step", 0, 1_000),
            span(Some(0), "beam.search", 100, 700),
        ];
        // 50 + 300 + 400 > 600: the last child is clipped to the parent.
        t.derive(
            Some(1),
            &[
                ("frontier.mask_build", 50),
                ("eval.score", 300),
                ("frontier.refine", 400),
            ],
        );
        let s = t.spans();
        assert_eq!((s[2].start_ns, s[2].end_ns), (100, 150));
        assert_eq!((s[3].start_ns, s[3].end_ns), (150, 450));
        assert_eq!((s[4].start_ns, s[4].end_ns), (450, 700));
        let selfs = self_times(s);
        assert_eq!(selfs, vec![400, 0, 50, 300, 250]);
        assert_eq!(selfs.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn nested_spans_reconcile_to_the_step() {
        let mut t = Tracer::new(true);
        let step = t.begin_step(7);
        let search = t.begin("beam.search");
        std::hint::black_box((0..10_000).sum::<u64>());
        t.end(search);
        t.derive(search, &[("frontier.refine", 1), ("eval.score", 1)]);
        t.span("snap.save", || {
            std::hint::black_box((0..10_000).sum::<u64>())
        });
        t.end_step(step);
        let spans = t.spans();
        assert!(spans.iter().all(|s| s.step == Some(7)));
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].dur_ns());
        assert_eq!(t.to_jsonl().lines().count(), spans.len());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin_step(0);
        assert_eq!(t.span("beam.search", || 3), 3);
        t.end_step(id);
        assert!(t.spans().is_empty());
    }
}
