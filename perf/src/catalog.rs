//! The benchmark's names: six workloads, nine end-to-end metrics, and the
//! per-layer metrics of a traced run, each with unit, direction, bound and
//! the end-to-end metric it is expected to move. `BENCHMARK.json` at the
//! repository root is generated from this table (`perf --benchmark-json`)
//! and a test keeps the two equal.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen between two runs of the same code before
/// `--self-check` (and a later performance issue) calls it regressed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the first value.
    Relative(f64),
    /// Share of the first value, or this many units if that is larger —
    /// for timings small enough that a share of them is below the clock's
    /// and the scheduler's noise.
    RelativeOrAbs(f64, f64),
    /// Absolute difference, in the metric's unit.
    Absolute(f64),
    /// Deterministic: must repeat bit for bit.
    Exact,
    /// Reported only; no bound.
    None,
}

impl Bound {
    pub fn label(self) -> String {
        match self {
            Bound::Relative(r) => format!("{:.0}%", r * 100.0),
            Bound::RelativeOrAbs(r, a) => format!("max({:.0}%, {a})", r * 100.0),
            Bound::Absolute(a) => format!("+{a}"),
            Bound::Exact => "exact".into(),
            Bound::None => "-".into(),
        }
    }

    /// Whether `second` is within the bound of `first` for a metric whose
    /// better direction is `better`.
    pub fn holds(self, better: Better, first: f64, second: f64) -> bool {
        let worse_by = match better {
            Better::Lower => second - first,
            Better::Higher => first - second,
        };
        match self {
            Bound::Relative(r) => worse_by <= r * first.abs(),
            Bound::RelativeOrAbs(r, a) => worse_by <= (r * first.abs()).max(a),
            Bound::Absolute(a) => worse_by <= a,
            Bound::Exact => first.to_bits() == second.to_bits(),
            Bound::None => true,
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
}

pub const STATIC_APPS: &str = "static-apps";
pub const CG64_VM: &str = "cg64-vm";
pub const RING8K_SCHED: &str = "ring8k-sched";
pub const FIG21_LOSSY: &str = "fig21-lossy";
pub const TELE_STEADY: &str = "tele-steady";
pub const TELE_DURABLE: &str = "tele-durable";

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: STATIC_APPS,
        why: "11 MiniHPC programs through lex, parse, lower, analyze, print, bytecode compile, 300 passes: only lang and analysis work, nothing downstream runs",
    },
    WorkloadDef {
        name: CG64_VM,
        why: "per-element CG at 64 ranks on the event scheduler: interp::vm dispatch is nearly all of the wall (6K records, few yields)",
    },
    WorkloadDef {
        name: RING8K_SCHED,
        why: "ring/allreduce/barrier skeleton at 8,192 ranks x 96 iterations: simmpi::sched and 8,192 per-rank harness and transport set-ups dominate, the VM does little",
    },
    WorkloadDef {
        name: FIG21_LOSSY,
        why: "bulk-kernel CG, bad node, 10% lossy fabric, live detection: many short resumes, wire retries, 819,200 records into the engine; carries the ground-truth check",
    },
    WorkloadDef {
        name: TELE_STEADY,
        why: "no simulation: 16 tenants x 64 ranks of generated 400-record batches into the admission-controlled service; service and engine do all the work",
    },
    WorkloadDef {
        name: TELE_DURABLE,
        why: "the tele-steady stream with per-tenant WALs, engine snapshots, standby catch-up and a fail-over: writes beside reads, and the recovery path",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Reported by an untraced run on every workload, never 0: the
    /// `end_to_end` list of `BENCHMARK.json`.
    EndToEndAll,
    /// End-to-end, but defined only on some workloads (0 elsewhere), so
    /// `BENCHMARK.json` has to carry it in `per_layer`.
    EndToEndSome,
    /// One layer's number from the traced run.
    Layer,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub scope: Scope,
    /// Workloads the metric is defined on; empty means all six.
    pub on: &'static [&'static str],
    /// For a layer metric: the end-to-end metric and workload it should
    /// move. For an end-to-end metric: what it measures.
    pub note: &'static str,
}

const SIM: &[&str] = &[CG64_VM, RING8K_SCHED, FIG21_LOSSY];
const TELE: &[&str] = &[TELE_STEADY, TELE_DURABLE];
const SIM_AND_TELE: &[&str] = &[
    CG64_VM,
    RING8K_SCHED,
    FIG21_LOSSY,
    TELE_STEADY,
    TELE_DURABLE,
];
const ALERTING: &[&str] = &[FIG21_LOSSY, TELE_STEADY, TELE_DURABLE];
const DURABLE: &[&str] = &[TELE_DURABLE];
const STATIC: &[&str] = &[STATIC_APPS];
const CG64: &[&str] = &[CG64_VM];
const ALL: &[&str] = &[];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: Bound,
    scope: Scope,
    on: &'static [&'static str],
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
        scope,
        on,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Bound::None,
        scope: Scope::Layer,
        on,
        note,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[MetricDef] = &[
    // ---- end to end ----
    e2e("setup_s", "s", Bound::RelativeOrAbs(0.25, 0.020), Scope::EndToEndAll, ALL,
        "untimed input preparation: source generation, Pipeline::compile/prepare, cluster build, tenant registration, transports; median of several set-ups"),
    e2e("wall_s", "s", Bound::Relative(0.25), Scope::EndToEndAll, ALL,
        "median wall of the workload's timed region (run -> rendered report / closed sessions)"),
    e2e("peak_rss_mb", "MiB", Bound::Relative(0.10), Scope::EndToEndAll, ALL,
        "VmHWM of the workload's own process"),
    e2e("ingest_us_p99", "us", Bound::Relative(0.25), Scope::EndToEndSome, TELE,
        "p99 wall per RankTransport::enqueue call, everything downstream included, pooled over repetitions"),
    e2e("recover_s", "s", Bound::Relative(0.25), Scope::EndToEndSome, DURABLE,
        "median wall of AnalysisService::fail_over"),
    e2e("overhead_pct", "%", Bound::Absolute(0.05), Scope::EndToEndSome, SIM,
        "(t_instrumented - t_plain) / t_plain in virtual time on the plain twin; the paper claims < 4%"),
    e2e("telemetry_bytes_per_rank", "B", Bound::Exact, Scope::EndToEndSome, SIM_AND_TELE,
        "ServerResult.bytes_received / ranks: the paper's data-volume line"),
    e2e("alert_latency_virt_ms", "virt_ms", Bound::Exact, Scope::EndToEndSome, ALERTING,
        "fault onset -> first live alert naming only injected ranks, in virtual time"),
    e2e("failed_share", "ratio", Bound::Exact, Scope::EndToEndSome, ALL,
        "operations that failed unexpectedly over attempted: undelivered batches, refusals on a steady tenant, repetitions failing a check"),
    // ---- lang ----
    layer("lang.lex_us", "us", Lower, STATIC, "wall_s on static-apps (setup_s elsewhere); mean per program"),
    layer("lang.parse_us", "us", Lower, STATIC, "wall_s on static-apps; mean per program"),
    layer("lang.lower_us", "us", Lower, STATIC, "wall_s on static-apps; mean per program"),
    layer("lang.print_us", "us", Lower, STATIC, "wall_s on static-apps; mean per program"),
    layer("lang.tokens", "count", Lower, STATIC, "tokens lexed per pass over the 11 programs; exact"),
    // ---- analysis ----
    layer("analysis.identify_us", "us", Lower, STATIC, "wall_s on static-apps; mean per program"),
    layer("analysis.select_us", "us", Lower, STATIC, "wall_s on static-apps; mean per program"),
    layer("analysis.instrument_us", "us", Lower, STATIC, "wall_s on static-apps; mean per program"),
    layer("analysis.analyze_us", "us", Lower, STATIC, "wall_s on static-apps: identify + select + instrument + summarize; mean per program"),
    layer("analysis.snippets", "count", Higher, STATIC, "snippets enumerated per pass; exact"),
    layer("analysis.sensors", "count", Higher, STATIC, "sensors instrumented per pass; exact"),
    // ---- interp ----
    layer("interp.compile_us", "us", Lower, STATIC, "wall_s on static-apps; mean bytecode compile per program"),
    layer("interp.code_len", "count", Lower, STATIC, "bytecode instructions per pass; exact"),
    layer("interp.plain_run_s", "s", Lower, SIM, "wall_s on cg64-vm (~1:1), ~0.65:1 on fig21-lossy, little on ring8k-sched: wall of the uninstrumented twin = VM + simmpi only"),
    layer("interp.wall_ns_per_sim_s", "ns/s", Lower, SIM, "wall_s on cg64-vm: plain-twin wall per simulated second"),
    // ---- simmpi ----
    layer("simmpi.select_ms", "ms", Lower, SIM, "wall_s, peak_rss_mb on ring8k-sched; secondary on fig21-lossy; none on tele-*"),
    layer("simmpi.resume_ms", "ms", Lower, SIM, "wall_s on ring8k-sched and fig21-lossy: task resumption, contains VM, tick, transport and engine time"),
    layer("simmpi.commit_ms", "ms", Lower, SIM, "wall_s on ring8k-sched"),
    layer("simmpi.collective_ms", "ms", Lower, SIM, "wall_s on ring8k-sched"),
    layer("simmpi.other_ms", "ms", Lower, SIM, "wall_s, peak_rss_mb on ring8k-sched: run wall outside the four phases (world, per-rank harness and task construction, output collection, close)"),
    layer("simmpi.phases", "count", Lower, SIM, "dispatch phases; exact"),
    layer("simmpi.resumptions", "count", Lower, SIM, "task resumptions; exact"),
    layer("simmpi.workers2_speedup", "ratio", Higher, CG64, "serial wall_s over the wall of one 2-worker run of cg64-vm: what parallel dispatch buys where it should pay most"),
    // ---- tick ----
    layer("tick.rank_side_s", "s", Lower, SIM, "wall_s on ring8k-sched and fig21-lossy: instrumented run into a null sink minus the plain twin; overhead_pct only if virtual charges change"),
    layer("tick.pair_ns", "ns", Lower, ALL, "wall_s on fig21-lossy: fixed-count SensorRuntime tick/tock/take_batch loop, per pair"),
    // ---- transport ----
    layer("transport.enqueue_self_us_p50", "us", Lower, TELE, "wall_s on tele-steady and fig21-lossy: enqueue span minus its child send spans"),
    layer("transport.crc_ns_per_record", "ns", Lower, ALL, "wall_s on tele-steady and fig21-lossy: TelemetryBatch::new + verify on a 400-record batch"),
    layer("transport.attempts", "count", Lower, SIM_AND_TELE, "send attempts; exact"),
    layer("transport.retries", "count", Lower, SIM_AND_TELE, "planned retries (lossy wire, admission refusals); exact"),
    layer("transport.dropped", "count", Lower, SIM_AND_TELE, "failed_share if > 0; exact"),
    // ---- service ----
    layer("service.front_door_ns", "ns", Lower, TELE, "wall_s, ingest_us_p99 on tele-steady: mean send through the service minus mean ingest into a bare AnalysisServer twin; expected small at 400-record batches"),
    layer("service.accepted", "count", Higher, TELE, "batches admitted; exact"),
    layer("service.admission_refused", "count", Lower, TELE, "planned refusals of the hot tenant; exact"),
    layer("service.batches_per_s", "1/s", Higher, TELE, "wall_s on tele-steady: accepted batches per wall second of the timed region"),
    // ---- engine ----
    layer("engine.ingest_us_p50", "us", Lower, TELE, "wall_s on tele-steady (~1:1): AnalysisServer twin ingest per batch"),
    layer("engine.ingest_us_p99", "us", Lower, TELE, "ingest_us_p99 on tele-*: twin ingest tail = detect passes"),
    layer("engine.ns_per_record", "ns", Lower, TELE, "wall_s on tele-steady and fig21-lossy (~0.2:1)"),
    layer("engine.detect_pass_us_p50", "us", Lower, TELE, "ingest_us_p99 on tele-*: twin ingests whose arrival crossed a detect interval"),
    layer("engine.detect_passes", "count", Lower, SIM_AND_TELE, "detection passes run; exact"),
    layer("engine.close_ms", "ms", Lower, SIM_AND_TELE, "wall_s: building the final ServerResult (all tenants on tele-*)"),
    layer("engine.send_busy_s", "s", Lower, SIM, "wall_s on fig21-lossy: wall inside BatchChannel::send under the simulated ranks (wire dice + engine ingest + detect)"),
    layer("report.render_us", "us", Lower, SIM, "wall_s on sim workloads: VarianceReport::render"),
    // ---- wal ----
    layer("wal.append_ns_per_batch", "ns", Lower, DURABLE, "wall_s, ingest_us_p99 on tele-durable, none on tele-steady: durable minus non-durable twin, ingests without a detect pass"),
    layer("wal.snapshot_us_p50", "us", Lower, DURABLE, "wall_s, peak_rss_mb on tele-durable: durable minus non-durable twin, ingests with a detect pass"),
    layer("wal.frames", "count", Lower, DURABLE, "peak_rss_mb on tele-durable; exact"),
    layer("wal.snapshots", "count", Lower, DURABLE, "peak_rss_mb on tele-durable; exact"),
    layer("wal.catch_up_ms_p50", "ms", Lower, DURABLE, "wall_s on tele-durable"),
    layer("wal.catch_up_ms_last", "ms", Lower, DURABLE, "wall_s on tele-durable: grows with log length today"),
    layer("wal.recover_ms", "ms", Lower, DURABLE, "recover_s on tele-durable: cold AnalysisServer::recover of one tenant"),
    // ---- control ----
    layer("control.polls", "count", Lower, SIM, "poll_control calls seen by the recording sink; 0 while the plane is disarmed"),
    layer("control.poll_ns", "ns", Lower, SIM, "wall_s on ring8k-sched/fig21-lossy, expected ~0: total wall inside poll_control"),
    // ---- the trace itself ----
    layer("traced_wall_s", "s", Lower, ALL, "median wall of the traced repetitions"),
    layer("trace_overhead_pct", "%", Lower, ALL, "traced minus untraced wall_s of the same run, over untraced"),
    layer("residual_pct", "%", Lower, ALL, "traced wall not accounted for by any layer's self time"),
];

pub fn metric(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

impl MetricDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

/// Names and units the driver's contract accepts.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// `--seconds` the driver passes: with it a run measures about that long
/// and ends, set-up, warm-up, twins and checks included, in 13-20 s.
pub const RUN_SECONDS: u64 = 12;

/// The bound `BENCHMARK.json` carries for an end-to-end metric: the share
/// of the parent's median.
fn driver_bound(bound: Bound) -> f64 {
    match bound {
        Bound::Relative(r) | Bound::RelativeOrAbs(r, _) => r,
        _ => unreachable!("every EndToEndAll metric has a relative bound"),
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let gated: Vec<_> = METRICS
        .iter()
        .filter(|m| m.scope == Scope::EndToEndAll)
        .collect();
    for (i, m) in gated.iter().enumerate() {
        let comma = if i + 1 < gated.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
            driver_bound(m.bound)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<_> = METRICS
        .iter()
        .filter(|m| m.scope != Scope::EndToEndAll)
        .collect();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(METRICS.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in METRICS {
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(!m.note.is_empty(), "{} says what it moves", m.name);
            for w in m.on {
                assert!(WORKLOADS.iter().any(|d| d.name == *w), "{} on {w}", m.name);
            }
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name("µs") && !valid_name(".x") && !valid_name(""));
        assert!(!valid_unit("virtual ms") && valid_unit("1/s") && valid_unit("%"));
        let per_layer = METRICS
            .iter()
            .filter(|m| m.scope != Scope::EndToEndAll)
            .count();
        assert!(per_layer <= 128);
    }

    #[test]
    fn the_nine_end_to_end_metrics_exist() {
        let names: Vec<_> = METRICS
            .iter()
            .filter(|m| m.scope != Scope::Layer)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "wall_s",
                "peak_rss_mb",
                "ingest_us_p99",
                "recover_s",
                "overhead_pct",
                "telemetry_bytes_per_rank",
                "alert_latency_virt_ms",
                "failed_share"
            ]
        );
    }

    #[test]
    fn bounds_compare_in_the_worse_direction_only() {
        assert!(Bound::Relative(0.25).holds(Lower, 10.0, 12.4));
        assert!(!Bound::Relative(0.25).holds(Lower, 10.0, 12.6));
        assert!(Bound::Relative(0.25).holds(Lower, 10.0, 5.0), "better");
        assert!(Bound::Relative(0.25).holds(Higher, 10.0, 7.6));
        assert!(!Bound::Relative(0.25).holds(Higher, 10.0, 7.4));
        assert!(Bound::RelativeOrAbs(0.25, 0.020).holds(Lower, 0.001, 0.015));
        assert!(!Bound::RelativeOrAbs(0.25, 0.020).holds(Lower, 1.0, 1.3));
        assert!(Bound::Absolute(0.05).holds(Lower, 0.71, 0.75));
        assert!(!Bound::Absolute(0.05).holds(Lower, 0.71, 0.77));
        assert!(Bound::Exact.holds(Lower, 0.0, 0.0));
        assert!(!Bound::Exact.holds(Lower, 1.0, 1.0 + f64::EPSILON));
    }

    /// `BENCHMARK.json` is generated (`perf --benchmark-json`), never
    /// edited: the catalogue is the one place a name is spelled.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(committed, benchmark_json());
    }
}
