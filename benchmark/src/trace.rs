//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call it makes into a `gcl-*` layer in a span
//! (name, start, end, parent span, op id). Spans stay in memory and are
//! written out once at exit. A span's *self time* is its duration minus
//! the part of its interval that its children cover; a layer's self time
//! is the sum over the spans whose name starts with `<layer>.`.
//!
//! With tracing off every call is one branch, so the untraced run measures
//! the program, not the recorder.

use gcl_stats::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `exec.run_job`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op (app run, job, kernel) this span belongs to.
    pub op: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Calls, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder measuring from `origin`; records nothing until enabled.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            on: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (between passes, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let SpanId(Some(idx)) = id {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        }
    }

    /// Record a span around `f`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Append another thread's spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name calls, total time and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// The span file: the per-name totals over every span and the first
    /// `max_spans` spans themselves.
    pub fn to_json(&self, max_spans: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .take(max_spans)
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("id", Json::UInt(i as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("op", Json::UInt(s.op)),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("calls", Json::UInt(t.calls)),
                        ("total_ns", Json::UInt(t.total_ns)),
                        ("self_ns", Json::UInt(t.self_ns)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("spans_total", Json::UInt(self.spans.len() as u64)),
            ("totals", Json::Obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span of `layer` (`name` up to the first `.`), in
/// seconds.
pub fn layer_self_s(totals: &BTreeMap<&'static str, NameTotals>, layer: &str) -> f64 {
    totals
        .iter()
        .filter(|(name, _)| name.split('.').next() == Some(layer))
        .map(|(_, t)| t.self_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Self time of each span: duration minus the union of its children's
/// intervals (clipped to the span, so an overlapping or overrunning child
/// never makes self time negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children_nested_and_adjacent() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            // Two adjacent children and one nested grandchild.
            span("exec.run_job", 10, 40, Some(0)),
            span("exec.run_job", 40, 70, Some(0)),
            span("sim.launch", 45, 65, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 10, 20]);
        let t = totals(&spans);
        assert_eq!(
            t["exec.run_job"],
            NameTotals {
                calls: 2,
                total_ns: 60,
                self_ns: 40
            }
        );
        assert_eq!(t["bench.pass"].self_ns, 40);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("exec.a", 10, 60, Some(0)),
            span("exec.b", 50, 120, Some(0)), // overlaps a, overruns parent
        ];
        // Children cover [10, 100) of the parent: self = 10.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_keeps_parents() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.time("exec.run_job", 1, || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let outer = t.begin("bench.pass", 0);
        t.time("exec.run_job", 1, || ());
        t.end(outer);
        let mut other = Tracer::new(origin);
        other.set_enabled(true);
        let o = other.begin("bench.pass", 0);
        other.time("ptx.parse", 2, || ());
        other.end(o);
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.totals()["bench.pass"].calls, 2);
        assert_eq!(layer_self_s(&t.totals(), "sim"), 0.0);
    }
}
