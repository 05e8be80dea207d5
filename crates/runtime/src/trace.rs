//! Metrics and exporters over the virtual-time trace core.
//!
//! The recording core ([`cluster_sim::trace`], re-exported here) lives in
//! the base crate so every layer can hook into it; this module adds the
//! consumer side:
//!
//! * [`MetricsRegistry`] — counters and log2-bucket duration histograms
//!   derived from a drained [`Trace`]. Deriving *after the fact* (rather
//!   than keeping a second live registry) keeps the recording hot path a
//!   single buffer write and makes the disabled path zero-cost by
//!   construction.
//! * [`RuntimeHealth`] — the compact snapshot folded into
//!   [`VarianceReport`](crate::report::VarianceReport) as its "runtime
//!   health" section.
//! * [`chrome_trace_json`] — a Chrome trace-event JSON export of the
//!   virtual timeline (one `pid` lane per rank plus a server lane), ready
//!   for Perfetto / `chrome://tracing`.
//! * [`text_summary`] — a plain-text per-category digest.

use std::collections::BTreeMap;
use std::fmt::Write;

pub use cluster_sim::trace::{
    enabled, mask, record, Category, EventKind, Trace, TraceEvent, TraceSession, DEFAULT_CAPACITY,
    SERVER_LANE,
};

/// A log2-bucketed duration histogram (nanosecond domain). 64 buckets
/// cover the whole `u64` range; bucket `i` holds durations in
/// `[2^i, 2^(i+1))` (bucket 0 also holds zero).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()).saturating_sub(1) as usize
    }

    /// Record one duration.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile: the upper edge of the bucket where the
    /// `q`-quantile observation falls (exact to within a factor of 2).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max
    }
}

/// Counters and histograms keyed by `(category label, event name)`,
/// derived from a drained [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    /// Event count per (category label, name).
    counters: BTreeMap<(&'static str, &'static str), u64>,
    /// Span-duration histograms per (category label, name): `Complete`
    /// events contribute their `dur`; `Begin`/`End` pairs are matched
    /// per-lane in stack order.
    histograms: BTreeMap<(&'static str, &'static str), Histogram>,
}

impl MetricsRegistry {
    /// Build the registry from a drained trace. Events are processed in
    /// timestamp order so `Begin`/`End` matching is well defined even when
    /// the drain interleaved several threads' buffers.
    pub fn from_trace(trace: &Trace) -> MetricsRegistry {
        let mut events: Vec<&TraceEvent> = trace.events.iter().collect();
        events.sort_by_key(|e| e.ts);
        let mut reg = MetricsRegistry::default();
        // Open-span stack per (pid, tid, name): Begin pushes ts, End pops.
        let mut open: BTreeMap<(u32, u32, &'static str), Vec<u64>> = BTreeMap::new();
        for ev in events {
            let key = (ev.cat.label(), ev.name);
            match ev.kind {
                EventKind::Begin => {
                    *reg.counters.entry(key).or_default() += 1;
                    open.entry((ev.pid, ev.tid, ev.name))
                        .or_default()
                        .push(ev.ts);
                }
                EventKind::End => {
                    if let Some(start) = open.get_mut(&(ev.pid, ev.tid, ev.name)).and_then(Vec::pop)
                    {
                        reg.histograms
                            .entry(key)
                            .or_default()
                            .observe(ev.ts.saturating_sub(start));
                    }
                }
                EventKind::Complete => {
                    *reg.counters.entry(key).or_default() += 1;
                    reg.histograms.entry(key).or_default().observe(ev.dur);
                }
                EventKind::Instant => {
                    *reg.counters.entry(key).or_default() += 1;
                }
            }
        }
        reg
    }

    /// Labels of the single-bit categories inside a possibly-compound
    /// mask. Registry keys are single-bit labels (events carry exactly one
    /// bit), so matching a compound query via `cat.label()` — which is
    /// `"?"` for compounds — would silently match nothing.
    fn query_labels(cat: Category) -> impl Iterator<Item = &'static str> {
        Category::all_labeled()
            .into_iter()
            .filter(move |(c, _)| c.overlaps(cat))
            .map(|(_, l)| l)
    }

    /// The count for a (category, name) pair; 0 when never recorded. A
    /// compound `cat` sums over every category it contains.
    pub fn counter(&self, cat: Category, name: &str) -> u64 {
        Self::query_labels(cat)
            .map(|label| {
                self.counters
                    .iter()
                    .filter(|((c, n), _)| *c == label && *n == name)
                    .map(|(_, v)| *v)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Total events across a category (or every category in a compound
    /// mask).
    pub fn category_total(&self, cat: Category) -> u64 {
        Self::query_labels(cat)
            .map(|label| {
                self.counters
                    .iter()
                    .filter(|((c, _), _)| *c == label)
                    .map(|(_, v)| *v)
                    .sum::<u64>()
            })
            .sum()
    }

    /// The duration histogram for one (category, name) pair, if any span
    /// of that name was observed. A compound `cat` returns the first
    /// matching category's histogram.
    pub fn histogram(&self, cat: Category, name: &str) -> Option<&Histogram> {
        Self::query_labels(cat).find_map(|label| {
            self.histograms
                .iter()
                .find(|((c, n), _)| *c == label && *n == name)
                .map(|(_, h)| h)
        })
    }

    /// Iterate all counters in `(category label, name) -> count` order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.counters.iter().map(|((c, n), v)| (*c, *n, *v))
    }

    /// Condense into the report-facing health snapshot.
    pub fn health(&self, trace: &Trace) -> RuntimeHealth {
        RuntimeHealth {
            mask: trace.mask,
            events: trace.events.len() as u64,
            dropped: trace.dropped,
            rank_lanes: trace.rank_lanes().len(),
            per_category: Category::all_labeled()
                .iter()
                .map(|(c, l)| (*l, self.category_total(*c)))
                .collect(),
            mpi_calls: self.category_total(Category::MPI),
            senses: self.counter(Category::SENSOR, "sense"),
            transport_retries: self.counter(Category::TRANSPORT, "retry"),
            transport_drops: self.counter(Category::TRANSPORT, "drop"),
            ingests: self.counter(Category::ENGINE, "ingest"),
            detect_passes: self.counter(Category::ENGINE, "detect_pass"),
        }
    }
}

/// Compact tracing-derived runtime health, rendered as an extra section of
/// the variance report when a trace session wrapped the run. `None` in the
/// report means tracing was off and the report text is bit-identical to a
/// hook-free build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeHealth {
    /// Categories the session recorded.
    pub mask: Category,
    /// Total events captured.
    pub events: u64,
    /// Events lost to full per-thread buffers — when nonzero, the counts
    /// below undercount the run.
    pub dropped: u64,
    /// Distinct rank lanes that emitted events.
    pub rank_lanes: usize,
    /// Per-category event totals (label, count), fixed category order.
    pub per_category: Vec<(&'static str, u64)>,
    /// MPI/I-O call spans observed.
    pub mpi_calls: u64,
    /// Sensor Tick/Tock spans opened.
    pub senses: u64,
    /// Telemetry-transport retry attempts.
    pub transport_retries: u64,
    /// Telemetry batches dropped by senders.
    pub transport_drops: u64,
    /// Engine ingest spans, per modelled worker.
    pub ingests: u64,
    /// Engine detection passes.
    pub detect_passes: u64,
}

impl RuntimeHealth {
    /// Render the report section (used by `VarianceReport::render`).
    pub fn render_into(&self, out: &mut String) {
        let cats: Vec<String> = self
            .per_category
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(l, n)| format!("{l} {n}"))
            .collect();
        let _ = writeln!(
            out,
            "runtime health: {} trace event(s) [{}]{}",
            self.events,
            cats.join(", "),
            if self.dropped > 0 {
                format!(", {} dropped (counts undercount)", self.dropped)
            } else {
                String::new()
            },
        );
        let _ = writeln!(
            out,
            "  {} mpi call(s), {} sense(s) on {} rank lane(s); transport {} retry(ies)/{} drop(s); engine {} ingest(s)/{} detect pass(es)",
            self.mpi_calls,
            self.senses,
            self.rank_lanes,
            self.transport_retries,
            self.transport_drops,
            self.ingests,
            self.detect_passes,
        );
    }
}

fn phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Complete => "X",
        EventKind::Instant => "i",
    }
}

fn lane_name(pid: u32) -> String {
    if pid == SERVER_LANE {
        "analysis server".to_string()
    } else {
        format!("rank {pid}")
    }
}

/// Export a trace as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto format). Lanes: `pid` = rank (the analysis server gets its own
/// lane), `tid` = modelled engine worker index. Timestamps are virtual
/// nanoseconds rendered as fractional microseconds, the format's native
/// unit.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut events: Vec<&TraceEvent> = trace.events.iter().collect();
    events.sort_by_key(|e| e.ts);

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };

    // Lane-naming metadata. All names are generated ASCII — no escaping
    // needed anywhere in this exporter.
    let mut lanes: Vec<u32> = trace.events.iter().map(|e| e.pid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for pid in lanes {
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                lane_name(pid)
            ),
            &mut out,
            &mut first,
        );
    }

    for ev in events {
        let mut e = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":{},\"tid\":{}",
            ev.name,
            ev.cat.label(),
            phase(ev.kind),
            ev.ts / 1000,
            ev.ts % 1000,
            ev.pid,
            ev.tid,
        );
        if ev.kind == EventKind::Complete {
            let _ = write!(e, ",\"dur\":{}.{:03}", ev.dur / 1000, ev.dur % 1000);
        }
        if ev.kind == EventKind::Instant {
            e.push_str(",\"s\":\"t\"");
        }
        let _ = write!(e, ",\"args\":{{\"a\":{},\"b\":{}}}}}", ev.a, ev.b);
        push(e, &mut out, &mut first);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Plain-text per-category summary of a trace: counts per event name plus
/// duration stats where spans were observed.
pub fn text_summary(trace: &Trace) -> String {
    let reg = MetricsRegistry::from_trace(trace);
    let mut out = String::new();
    let active: Vec<&str> = Category::all_labeled()
        .iter()
        .filter(|(c, _)| trace.mask.contains(*c))
        .map(|(_, l)| *l)
        .collect();
    let _ = writeln!(
        out,
        "trace summary: {} event(s), {} dropped, mask [{}], {} rank lane(s)",
        trace.events.len(),
        trace.dropped,
        active.join("|"),
        trace.rank_lanes().len(),
    );
    for (cat, label) in Category::all_labeled() {
        let total = reg.category_total(cat);
        if total == 0 {
            continue;
        }
        let _ = writeln!(out, "  [{label}] {total} event(s)");
        for (c, name, count) in reg.counters() {
            if c != label {
                continue;
            }
            match reg.histogram(cat, name) {
                Some(h) if h.count() > 0 => {
                    let _ = writeln!(
                        out,
                        "    {name} x{count}: mean {:.1}us, p50 ~{:.1}us, max {:.1}us",
                        h.mean() / 1e3,
                        h.quantile(0.5) as f64 / 1e3,
                        h.max() as f64 / 1e3,
                    );
                }
                _ => {
                    let _ = writeln!(out, "    {name} x{count}");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built trace: no global session, so these tests cannot race
    /// with session-holding tests elsewhere in the workspace.
    fn sample_trace() -> Trace {
        let events = vec![
            // Rank 0: a sensor B/E pair around an MPI complete span.
            TraceEvent::begin(Category::SENSOR, "sense", 0, 1_000, 7, 0),
            TraceEvent::complete(Category::MPI, "allreduce", 0, 0, 1_500, 2_000, 4096, 0),
            TraceEvent::end(Category::SENSOR, "sense", 0, 4_000, 7, 0),
            // Rank 1: transport instants.
            TraceEvent::instant(Category::TRANSPORT, "send", 1, 2_000, 1, 0),
            TraceEvent::instant(Category::TRANSPORT, "retry", 1, 3_000, 1, 1),
            TraceEvent::instant(Category::TRANSPORT, "retry", 1, 4_500, 1, 2),
            // Server lane: ingest + detect pass.
            TraceEvent::complete(
                Category::ENGINE,
                "ingest",
                SERVER_LANE,
                0,
                5_000,
                300,
                1,
                16,
            ),
            TraceEvent::complete(
                Category::ENGINE,
                "detect_pass",
                SERVER_LANE,
                1,
                6_000,
                900,
                1,
                64,
            ),
        ];
        Trace {
            events,
            dropped: 0,
            mask: Category::ALL,
        }
    }

    #[test]
    fn registry_counts_and_matches_spans() {
        let t = sample_trace();
        let reg = MetricsRegistry::from_trace(&t);
        assert_eq!(reg.counter(Category::MPI, "allreduce"), 1);
        assert_eq!(reg.counter(Category::TRANSPORT, "retry"), 2);
        assert_eq!(reg.counter(Category::SENSOR, "sense"), 1, "B counted once");
        // The B/E pair matched into a 3000ns span.
        let h = reg.histogram(Category::SENSOR, "sense").expect("matched");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 3_000);
        // Complete spans feed histograms from `dur`.
        let h = reg.histogram(Category::MPI, "allreduce").expect("complete");
        assert_eq!(h.max(), 2_000);
        assert_eq!(reg.category_total(Category::ENGINE), 2);
    }

    #[test]
    fn registry_queries_accept_compound_masks() {
        // Registry keys are single-bit labels; compound masks must mean
        // "any of", not fall through `Category::label()`'s `"?"`.
        let reg = MetricsRegistry::from_trace(&sample_trace());
        assert_eq!(reg.category_total(Category::ALL), 7, "all counted events");
        assert_eq!(
            reg.category_total(Category::TRANSPORT | Category::ENGINE),
            5
        );
        assert_eq!(
            reg.counter(Category::SENSOR | Category::MPI, "allreduce"),
            1
        );
        assert!(reg
            .histogram(Category::SENSOR | Category::MPI, "allreduce")
            .is_some());
        assert_eq!(reg.counter(Category::VM, "allreduce"), 0);
    }

    #[test]
    fn health_snapshot_summarizes() {
        let t = sample_trace();
        let health = MetricsRegistry::from_trace(&t).health(&t);
        assert_eq!(health.events, 8);
        assert_eq!(health.transport_retries, 2);
        assert_eq!(health.ingests, 1);
        assert_eq!(health.detect_passes, 1);
        assert_eq!(health.senses, 1);
        assert_eq!(health.rank_lanes, 2, "server lane excluded");
        let mut s = String::new();
        health.render_into(&mut s);
        assert!(s.contains("runtime health: 8 trace event(s)"), "{s}");
        assert!(s.contains("2 retry(ies)"), "{s}");
        assert!(!s.contains("dropped"), "no drop note when dropped == 0");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 1, 2, 1024, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
        assert!(h.mean() > 0.0);
        // Median falls in the [1,2) or [2,4) region — upper bucket edge.
        assert!(h.quantile(0.5) <= 3);
        assert!(h.quantile(1.0) >= 1_000_000 / 2, "top bucket reached");
    }

    #[test]
    fn chrome_export_has_required_fields() {
        let t = sample_trace();
        let json = chrome_trace_json(&t);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        // Lane metadata for both ranks and the server.
        assert!(json.contains("\"name\":\"rank 0\""), "{json}");
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"name\":\"analysis server\""));
        // Phases map correctly and Complete spans carry a duration.
        assert!(json.contains("\"name\":\"allreduce\",\"cat\":\"mpi\",\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        // Every non-metadata event carries ts/pid/tid (spot-check one).
        assert!(json.contains("\"ts\":1.500,\"pid\":0,\"tid\":0"));
    }

    #[test]
    fn text_summary_lists_categories() {
        let t = sample_trace();
        let s = text_summary(&t);
        assert!(s.contains("trace summary: 8 event(s)"), "{s}");
        assert!(s.contains("[mpi] 1 event(s)"), "{s}");
        assert!(s.contains("retry x2"), "{s}");
        assert!(s.contains("allreduce x1"), "{s}");
        assert!(!s.contains("[vm]"), "empty categories omitted");
    }
}
