//! Span recorder for `--trace 1`: the harness brackets its calls into
//! each layer's public functions, keeps the spans in memory, and writes
//! them out as Chrome-trace JSON when the run ends.
//!
//! A span carries its name (`layer.operation`), start and end on the
//! recorder's clock, the span that caused it, and a request id shared by
//! every span of one request — a batch's `(tenant, rank, seq)` or a
//! repetition number. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// What a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// One timed repetition of the workload.
    Repetition(u32),
    /// One telemetry batch on its way from a rank to an engine.
    Batch { tenant: u32, rank: u32, seq: u64 },
}

/// Index of a span in its recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub usize);

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: Request,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last: the parent of the next span begun.
    open: Vec<SpanId>,
}

/// In-memory span store. Shared by reference between the generator and
/// the recording channels it hands to the product (which must be `Sync`),
/// hence the lock; everything that records runs on one thread, so it is
/// never contended.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no recorder user panics mid-span")
    }

    /// Open a span under the innermost open one.
    pub fn begin(&self, name: &'static str, request: Request) -> SpanId {
        let start_ns = self.now_ns();
        let mut st = self.state();
        let id = SpanId(st.spans.len());
        let parent = st.open.last().copied();
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        st.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span. Returns its
    /// duration in nanoseconds.
    pub fn end(&self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let mut st = self.state();
        assert_eq!(st.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut st.spans[id.0];
        span.end_ns = end_ns;
        span.dur_ns()
    }

    /// Record a whole call as one span.
    pub fn span<T>(&self, name: &'static str, request: Request, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Take every recorded span, leaving the recorder empty.
    pub fn drain(&self) -> Vec<Span> {
        let mut st = self.state();
        assert!(st.open.is_empty(), "drained with a span still open");
        std::mem::take(&mut st.spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(SpanId(parent)) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Total self time per span name (`own` from [`self_times`]), in
/// first-seen order.
pub fn self_time_by_name(spans: &[Span], own: &[u64]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(own) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, *own)),
        }
    }
    totals
}

/// Look a name up in [`self_time_by_name`]'s totals: nanoseconds, 0 for a
/// span that never occurred.
pub fn total_of(totals: &[(&'static str, u64)], name: &str) -> f64 {
    let found = totals.iter().find(|(n, _)| *n == name);
    found.map_or(0.0, |(_, ns)| *ns as f64)
}

/// Summed duration (children included) of every span called `name`.
pub fn inclusive_ns(spans: &[Span], name: &str) -> f64 {
    let named = spans.iter().filter(|s| s.name == name);
    named.map(|s| s.dur_ns() as f64).sum()
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span, microsecond timestamps, request and parent in `args`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        let request = match span.request {
            Request::Repetition(n) => format!("rep {n}"),
            Request::Batch { tenant, rank, seq } => format!("batch {tenant}/{rank}/{seq}"),
        };
        let parent = span.parent.map_or(-1, |SpanId(p)| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":\"{request}\"}}}}",
            span.name,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
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
            parent: parent.map(SpanId),
            request: Request::Repetition(0),
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` on [30, 40): that stretch is covered once.
            span("b", 30, 60, Some(0)),
            span("leaf", 35, 50, Some(2)),
            // Sticks out past the root: only [90, 100) covers it.
            span("late", 90, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![40, 30, 15, 15, 30]);
        let totals = self_time_by_name(&spans, &own);
        assert_eq!(total_of(&totals, "b"), 15.0);
        assert_eq!(total_of(&totals, "absent"), 0.0);
        assert_eq!(inclusive_ns(&spans, "b"), 30.0);
        assert_eq!(
            totals,
            vec![
                ("root", 40),
                ("a", 30),
                ("b", 15),
                ("leaf", 15),
                ("late", 30)
            ]
        );
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let rec = Recorder::default();
        let request = Request::Batch {
            tenant: 3,
            rank: 24,
            seq: 7,
        };
        let outer = rec.begin("transport.enqueue", request);
        rec.span("transport.send", request, || ());
        rec.end(outer);
        rec.span("engine.close", Request::Repetition(1), || ());
        let spans = rec.drain();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(rec.drain().is_empty());
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"transport.send\""));
        assert!(json.contains("\"parent\":0,\"request\":\"batch 3/24/7\""));
        assert!(json.contains("\"request\":\"rep 1\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
    }
}
