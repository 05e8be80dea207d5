//! The perf-regression gate: one row schema, one parser, one comparator.
//!
//! Every gated study (`interp`, `service`, `simmpi`, `control`) reports
//! its measurements as [`BenchRow`]s — `{suite, cell, metric, value,
//! kind, better}` — and that one shape is at once what a study's `rows()`
//! emits, what the committed `BENCH_<suite>.json` baselines contain (a
//! JSON array of rows) and what a `BENCH_history.jsonl` line is (a row
//! plus its `run` index). Adding a gated number is therefore a data
//! change: the owning study emits one more row and the baseline is
//! regenerated; nothing in this module names a metric.
//!
//! [`compare`] joins baseline and fresh rows on `(suite, cell, metric)`
//! and reads every policy decision off the row itself:
//!
//! * `better` (`higher` | `lower`) is the direction in which a change is
//!   *not* a regression; a value may move the other way by at most the
//!   tolerance ([`DEFAULT_TOLERANCE`], generous because CI machines are
//!   not the baseline machine).
//! * `kind` says what the value is made of. `virtual` figures are
//!   simulated time — deterministic and machine-independent, so drift
//!   means the *simulation* changed. `ratio` figures divide two wall
//!   measurements of the same run (the scaling efficiency between
//!   adjacent rank counts), so machine speed cancels.
//!   Both are gated in every mode. `wall` figures compare wall clocks
//!   across machines and are gated only with `absolute = true`
//!   (`--check` without `--ratio-only`, on hardware comparable to the
//!   baseline machine); otherwise they are skipped *and named*.
//!
//! Derived cells are computed by the study that owns the raw numbers and
//! emitted as `ratio` rows; the gate never re-derives anything.
//!
//! Baseline rows the fresh run did not measure are skipped by name, never
//! failed (CI re-measures reduced sweeps). Fresh rows the baseline lacks
//! are ungated cells — a hard failure unless `--allow-new-cells`.
//!
//! # History mode (`--stats`)
//!
//! The fixed tolerance band is one-size-fits-all: 25 % is far too loose
//! for a deterministic virtual-time figure (which should not move at
//! all) and occasionally too tight for a wall-derived ratio on a noisy
//! runner. `--stats` replaces it with the change-point statistics of
//! [`vsensor_runtime::stats`]: every `repro gate` run appends its
//! checked rows to `BENCH_history.jsonl`, and once a
//! `(suite, cell, metric)` series has [`MIN_HISTORY_SAMPLES`] recorded
//! runs the verdict becomes *variance-aware* — the series is
//! split at its most significant change-points (Welch-t scan, so a
//! runner-hardware change mid-history starts a fresh regime instead of
//! poisoning the median), and the current value must sit within
//! `max(3·scaled-MAD, floor·|median|)` of the latest regime's median in
//! the worse direction. The relative floor is 1 % for `virtual` rows and
//! 10 % for `wall` and `ratio` rows. Series with shallower history keep
//! the fixed-tolerance verdict — the fallback, not an error.
//!
//! The parser is hand-rolled (the workspace has no JSON dependency) and
//! accepts exactly flat objects. The baseline reader is strict (any
//! malformed row is an error); the history reader has the runtime WAL's
//! valid-prefix semantics: the first malformed line (a torn tail from an
//! interrupted append) drops itself and everything after it.

use std::fmt::Write;

use vsensor_runtime::stats::{self, ShiftPolicy};

/// Default noise tolerance: a row may move up to 25 % in its worse
/// direction before the fixed-band gate fails.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// A series needs this many recorded runs before the history verdict
/// supersedes the fixed tolerance band, and `latest_regime` splits no
/// regime shorter than this.
pub const MIN_HISTORY_SAMPLES: usize = 5;

/// What a row's value is made of — decides whether it is comparable
/// across machines and how tightly history bounds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Simulated time: deterministic, gated in every mode, 1 % floor.
    Virtual,
    /// Wall clock: gated only on comparable hardware, 10 % floor.
    Wall,
    /// Same-run quotient of two wall figures: gated in every mode, 10 %
    /// floor.
    Ratio,
}

/// The direction in which a change of the value is not a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Speedups, throughputs, scaling ratios.
    Higher,
    /// Latencies, cost fractions, ns-per-work figures.
    Lower,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Virtual, Kind::Wall, Kind::Ratio];

    fn as_str(self) -> &'static str {
        match self {
            Kind::Virtual => "virtual",
            Kind::Wall => "wall",
            Kind::Ratio => "ratio",
        }
    }
}

impl Better {
    const ALL: [Better; 2] = [Better::Higher, Better::Lower];

    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One measurement: what studies emit, what baselines hold, what a
/// history line records.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Gate suite (`interp`, `service`, `simmpi`, `control`).
    pub suite: String,
    /// What was measured, `workload/ranks` (`cg-fig21/4`, `simmpi/4096`).
    pub cell: String,
    /// Which figure of that cell (`vm-throughput`, `p99-hot-ingest`, ...).
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// What the value is made of.
    pub kind: Kind,
    /// Which direction is not a regression.
    pub better: Better,
}

impl BenchRow {
    /// Build a row.
    pub fn new(
        suite: &str,
        cell: String,
        metric: &str,
        value: f64,
        kind: Kind,
        better: Better,
    ) -> Self {
        BenchRow {
            suite: suite.into(),
            cell,
            metric: metric.into(),
            value,
            kind,
            better,
        }
    }

    /// The row's name in reports, `cell/metric` — the
    /// `workload/ranks/metric` string earlier history files stored whole.
    pub fn key(&self) -> String {
        format!("{}/{}", self.cell, self.metric)
    }

    /// Whether two rows measure the same `(suite, cell, metric)` series.
    fn same_series(&self, other: &BenchRow) -> bool {
        self.suite == other.suite && self.cell == other.cell && self.metric == other.metric
    }

    /// The row's JSON fields, without the braces (a history line puts
    /// `run` in front). `{:?}` prints the shortest text that parses back
    /// to the same `f64`, so a row survives the file.
    fn json_fields(&self) -> String {
        format!(
            "\"suite\": \"{}\", \"cell\": \"{}\", \"metric\": \"{}\", \"value\": {:?}, \
             \"kind\": \"{}\", \"better\": \"{}\"",
            self.suite,
            self.cell,
            self.metric,
            self.value,
            self.kind.as_str(),
            self.better.as_str(),
        )
    }

    /// The row as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

/// A baseline file: a JSON array with one row per line.
pub fn rows_to_json(rows: &[BenchRow]) -> String {
    let lines: Vec<String> = rows.iter().map(|r| format!("  {}", r.to_json())).collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

/// Split a JSON array of flat objects into the text inside each object's
/// braces. Rows never nest, so every `}` closes one; whatever follows the
/// last must be blank and every piece must open with `{`.
fn split_objects(json: &str) -> Result<Vec<&str>, String> {
    let inner = (json.trim().strip_prefix('['))
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("baseline is not a JSON array")?;
    let mut pieces: Vec<&str> = inner.split('}').collect();
    if !pieces.pop().is_some_and(|tail| tail.trim().is_empty()) {
        return Err("unterminated object in baseline".into());
    }
    if pieces.is_empty() {
        return Err("baseline contains no rows".into());
    }
    fn object(piece: &str) -> Option<&str> {
        let p = piece.trim_start();
        p.strip_prefix(',')
            .unwrap_or(p)
            .trim_start()
            .strip_prefix('{')
    }
    (pieces.into_iter())
        .map(|p| object(p).ok_or_else(|| format!("expected an object, found `{p}`")))
        .collect()
}

/// The raw text after `"key":`, trimmed.
fn field_value<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("row missing field `{key}`: {obj}"))?;
    let rest = obj[at + pat.len()..].trim_start();
    rest.strip_prefix(':')
        .map(str::trim_start)
        .ok_or_else(|| format!("malformed field `{key}`"))
}

fn str_field<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let v = field_value(obj, key)?;
    let v = v
        .strip_prefix('"')
        .ok_or_else(|| format!("field `{key}` is not a string"))?;
    let end = v
        .find('"')
        .ok_or_else(|| format!("unterminated string for `{key}`"))?;
    Ok(&v[..end])
}

fn num_field(obj: &str, key: &str) -> Result<f64, String> {
    let v = field_value(obj, key)?;
    let end = v
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(v.len());
    v[..end]
        .parse::<f64>()
        .map_err(|e| format!("field `{key}` is not a number: {e}"))
}

/// Parse one flat row object. Rejects a missing field and an unknown
/// `kind` or `better`.
pub fn parse_row(obj: &str) -> Result<BenchRow, String> {
    let kind = str_field(obj, "kind")?;
    let better = str_field(obj, "better")?;
    Ok(BenchRow {
        suite: str_field(obj, "suite")?.into(),
        cell: str_field(obj, "cell")?.into(),
        metric: str_field(obj, "metric")?.into(),
        value: num_field(obj, "value")?,
        kind: (Kind::ALL.into_iter().find(|k| k.as_str() == kind))
            .ok_or_else(|| format!("unknown kind `{kind}`"))?,
        better: (Better::ALL.into_iter().find(|b| b.as_str() == better))
            .ok_or_else(|| format!("unknown better `{better}`"))?,
    })
}

/// Parse a committed baseline (`BENCH_<suite>.json`, the
/// [`rows_to_json`] shape). Strict: any malformed row is an error.
pub fn parse_rows(json: &str) -> Result<Vec<BenchRow>, String> {
    split_objects(json)?.into_iter().map(parse_row).collect()
}

/// Parse `BENCH_history.jsonl` — one row object per line, plus its `run`
/// index (monotonic, shared by every row one run appended). Valid-prefix
/// semantics like the runtime WAL: the first malformed line (a torn tail
/// from an interrupted append) drops itself and everything after it;
/// blank lines are skipped. A missing or empty file is an empty history.
pub fn parse_history(text: &str) -> Vec<(u64, BenchRow)> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map_while(|line| Some((num_field(line, "run").ok()? as u64, parse_row(line).ok()?)))
        .collect()
}

/// The run index a fresh append should use: one past the largest seen.
pub fn next_history_run(history: &[(u64, BenchRow)]) -> u64 {
    history.iter().map(|(run, _)| run + 1).max().unwrap_or(0)
}

/// This report's checked fresh rows as history lines.
pub fn history_lines(report: &GateReport, run: u64) -> String {
    let mut out = String::new();
    for c in &report.checks {
        let _ = writeln!(out, "{{\"run\": {run}, {}}}", c.row.json_fields());
    }
    out
}

/// The history-derived verdict attached to a check in `--stats` mode.
#[derive(Clone, Debug)]
pub struct StatsGate {
    /// Recorded history samples for this series (the current run excluded).
    pub samples: usize,
    /// Samples in the latest regime after change-point splitting.
    pub regime_len: usize,
    /// Median of the latest regime.
    pub median: f64,
    /// Allowed worse-direction deviation from that median.
    pub allowed: f64,
}

/// One comparison the gate performed.
#[derive(Clone, Debug)]
pub struct GateCheck {
    /// The freshly measured row.
    pub row: BenchRow,
    /// The committed baseline value of the same series.
    pub baseline: f64,
    /// Whether the row is within tolerance.
    pub ok: bool,
    /// The history verdict that superseded the fixed band, when deep
    /// enough history was available ([`apply_history`]).
    pub stats: Option<StatsGate>,
}

/// The gate's verdict over every comparable row.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// All performed checks, in baseline order.
    pub checks: Vec<GateCheck>,
    /// Baseline rows not compared, by name ([`BenchRow::key`]): the fresh
    /// run did not measure them, or they are `wall` rows in a ratio-only
    /// run. Named, because a silent skip hides a gate that quietly
    /// stopped measuring something.
    pub skipped_cells: Vec<String>,
    /// Rows the fresh run measured that the committed baseline lacks:
    /// a regenerated benchmark grew a row nothing gates yet. Hard
    /// failure unless [`GateReport::allow_new_cells`].
    pub new_cells: Vec<String>,
    /// Accept new unmeasured rows (set when regenerating the baseline
    /// on purpose, `--allow-new-cells`).
    pub allow_new_cells: bool,
    /// Tolerance used.
    pub tolerance: f64,
}

impl GateReport {
    /// True when every check passed, at least one ran (an empty
    /// comparison is a gate misconfiguration, not a pass), and no row
    /// is new-and-ungated (unless explicitly allowed).
    pub fn passed(&self) -> bool {
        !self.checks.is_empty()
            && self.checks.iter().all(|c| c.ok)
            && (self.allow_new_cells || self.new_cells.is_empty())
    }

    /// Render the verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate (tolerance {:.0}%): {} check(s), {} baseline cell(s) not compared",
            self.tolerance * 100.0,
            self.checks.len(),
            self.skipped_cells.len(),
        );
        for c in &self.checks {
            let verdict = match &c.stats {
                Some(s) => format!(
                    "history n={} regime {} median {:.4} allow ±{:.4}",
                    s.samples, s.regime_len, s.median, s.allowed,
                ),
                None => "fixed tolerance".to_string(),
            };
            let _ = writeln!(
                out,
                "  [{}] {:<14} {:<23} baseline {:>17.4} current {:>17.4} ({:+.1}%) [{verdict}]",
                if c.ok { "ok" } else { "FAIL" },
                c.row.cell,
                c.row.metric,
                c.baseline,
                c.row.value,
                (c.row.value / c.baseline.max(1e-12) - 1.0) * 100.0,
            );
        }
        if !self.skipped_cells.is_empty() {
            let _ = writeln!(
                out,
                "  skipped baseline cell(s): {}",
                self.skipped_cells.join(", ")
            );
        }
        let (tag, hint) = if self.allow_new_cells {
            ("new", " (allowed)")
        } else {
            ("NEW", "; regenerate it or pass --allow-new-cells")
        };
        for cell in &self.new_cells {
            let _ = writeln!(
                out,
                "  [{tag} ] {cell} — measured but absent from the committed baseline{hint}"
            );
        }
        let _ = writeln!(
            out,
            "perf gate: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Whether `value` is no worse than `reference` by more than `allowed`.
fn within(better: Better, value: f64, reference: f64, allowed: f64) -> bool {
    match better {
        Better::Higher => value >= reference - allowed,
        Better::Lower => value <= reference + allowed,
    }
}

/// Compare a fresh measurement against the committed baseline, joining
/// on `(suite, cell, metric)`. `absolute` additionally gates `wall` rows
/// — pass `false` unless the run executes on hardware comparable to the
/// baseline machine. The fresh row's `kind` and `better` decide.
pub fn compare(
    baseline: &[BenchRow],
    fresh: &[BenchRow],
    tolerance: f64,
    absolute: bool,
) -> GateReport {
    let mut report = GateReport {
        tolerance,
        ..GateReport::default()
    };
    // Rows the fresh run measured that the baseline has never heard of:
    // nothing gates them, which is exactly how a regenerated benchmark
    // silently escapes its gate.
    for f in fresh {
        if !baseline.iter().any(|b| b.same_series(f)) {
            report.new_cells.push(f.key());
        }
    }
    for b in baseline {
        match fresh.iter().find(|f| f.same_series(b)) {
            Some(f) if absolute || f.kind != Kind::Wall => report.checks.push(GateCheck {
                row: f.clone(),
                baseline: b.value,
                ok: within(f.better, f.value, b.value, b.value * tolerance),
                stats: None,
            }),
            _ => report.skipped_cells.push(b.key()),
        }
    }
    report
}

/// The tail of the series after repeatedly splitting at the most
/// significant change-point: the latest stable regime. A hardware or
/// code step mid-history starts a fresh regime instead of widening the
/// old one's dispersion.
fn latest_regime<'a>(series: &'a [f64], policy: &ShiftPolicy) -> &'a [f64] {
    let mut seg = series;
    while seg.len() >= MIN_HISTORY_SAMPLES {
        match stats::detect_shift(seg, policy) {
            Some(cp) => seg = &seg[cp.index..],
            None => break,
        }
    }
    seg
}

/// Re-judge every check against the recorded history (`--stats`).
///
/// Series with at least [`MIN_HISTORY_SAMPLES`] recorded runs get a
/// variance-aware verdict that *supersedes* the fixed band: the current
/// value must sit within `max(3·scaled-MAD, floor·|median|)` of the
/// latest regime's median in the worse direction. Virtual-time figures
/// are deterministic by construction, so real drift there is a
/// simulation change and the floor is 1 %; wall-derived figures jitter
/// with the machine and get 10 %. Shallower series keep their
/// fixed-tolerance verdict (the documented fallback).
pub fn apply_history(report: &mut GateReport, history: &[(u64, BenchRow)]) {
    let policy = ShiftPolicy::default();
    for check in &mut report.checks {
        let mut rows: Vec<(u64, f64)> = history
            .iter()
            .filter(|(_, h)| h.same_series(&check.row))
            .map(|(run, h)| (*run, h.value))
            .collect();
        rows.sort_by_key(|&(run, _)| run);
        let series: Vec<f64> = rows.into_iter().map(|(_, v)| v).collect();
        if series.len() < MIN_HISTORY_SAMPLES {
            continue;
        }
        let regime = latest_regime(&series, &policy);
        let median = stats::median(regime).expect("regime is non-empty");
        let smad = stats::scaled_mad(regime).unwrap_or(0.0);
        let floor = match check.row.kind {
            Kind::Virtual => 0.01,
            Kind::Wall | Kind::Ratio => 0.10,
        };
        let allowed = (3.0 * smad).max(floor * median.abs());
        check.ok = within(check.row.better, check.row.value, median, allowed);
        check.stats = Some(StatsGate {
            samples: series.len(),
            regime_len: regime.len(),
            median,
            allowed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows from a whitespace table, one `suite cell metric kind better
    /// value` line each — through the production parser.
    fn rows(table: &str) -> Vec<BenchRow> {
        let line = |l: &str| {
            let t: Vec<&str> = l.split_whitespace().collect();
            parse_row(&format!(
                "{{\"suite\": \"{}\", \"cell\": \"{}\", \"metric\": \"{}\", \"kind\": \"{}\", \
                 \"better\": \"{}\", \"value\": {}}}",
                t[0], t[1], t[2], t[3], t[4], t[5]
            ))
        };
        let lines = table.lines().filter(|l| !l.trim().is_empty());
        lines.map(|l| line(l).expect(l)).collect()
    }

    /// The rows of `table` whose cell is `<anything>/<one of ranks>`.
    fn at(table: &str, ranks: &[usize]) -> Vec<BenchRow> {
        let wanted = |r: &BenchRow| ranks.iter().any(|n| r.cell.ends_with(&format!("/{n}")));
        rows(table).into_iter().filter(wanted).collect()
    }

    /// The interp suite's shape: a VM ns-per-simulated-second figure
    /// that grows with the rank count, and the cell's simulated seconds.
    const INTERP: &str = "
        interp cg-fig21/4  vm-throughput wall    lower 8e10
        interp cg-fig21/4  sim-seconds   virtual lower 0.02
        interp cg-fig21/16 vm-throughput wall    lower 32e10
        interp cg-fig21/16 sim-seconds   virtual lower 0.021
        interp cg-fig21/64 vm-throughput wall    lower 128e10
        interp cg-fig21/64 sim-seconds   virtual lower 0.022";

    /// The simmpi suite's shape: flat cost per rank-iteration (wall
    /// throughput independent of scale, every adjacent ratio 1.0) and
    /// virtual throughput growing with the rank count.
    const SIMMPI: &str = "
        simmpi simmpi/1024  virt-throughput virtual higher 49152
        simmpi simmpi/1024  wall-throughput wall    higher 24000
        simmpi simmpi/4096  virt-throughput virtual higher 196608
        simmpi simmpi/4096  wall-throughput wall    higher 24000
        simmpi simmpi/16384 virt-throughput virtual higher 786432
        simmpi simmpi/16384 wall-throughput wall    higher 24000
        simmpi simmpi/4096  scaling-ratio   ratio   higher 1.0
        simmpi simmpi/16384 scaling-ratio   ratio   higher 1.0";

    const SERVICE: &str = "
        service service/16 p99-hot-ingest     virtual lower  1000
        service service/16 p99-steady-ingest  virtual lower  500
        service service/16 service-throughput wall    higher 1000";

    /// `rows` with every row whose key ends in `suffix` scaled by `factor`.
    fn scaled(mut rows: Vec<BenchRow>, suffix: &str, factor: f64) -> Vec<BenchRow> {
        for r in rows.iter_mut().filter(|r| r.key().ends_with(suffix)) {
            r.value *= factor;
        }
        rows
    }

    /// One fixed-band scenario. `failing` and `missing` are what a full
    /// (`absolute`) comparison reports; a `--ratio-only` one must
    /// additionally move every common `wall` row from checked to skipped.
    struct Case {
        name: &'static str,
        baseline: Vec<BenchRow>,
        fresh: Vec<BenchRow>,
        failing: &'static [&'static str],
        missing: &'static [&'static str],
        new: &'static [&'static str],
    }

    #[rustfmt::skip]
    fn cases() -> Vec<Case> {
        let (small, curve) = ([4, 16], [1024, 4096, 16384]);
        let (interp, simmpi, service) = (|r| at(INTERP, r), |r| at(SIMMPI, r), || rows(SERVICE));
        let mut jitter = interp(&small);
        for (i, r) in jitter.iter_mut().enumerate() {
            r.value *= if i % 2 == 0 { 1.10 } else { 0.90 };
        }
        // ns-per-simulated-second doubles; simulated time does not move.
        let vm_2x = scaled(interp(&[4]), "vm-throughput", 2.0);
        // Wall throughput at 4,096 ranks drops to a third while 1,024 is
        // untouched: a uniformly slower machine can't produce this shape.
        let collapse = scaled(scaled(simmpi(&curve[..2]), "4096/wall-throughput", 1.0 / 3.0), "scaling-ratio", 1.0 / 3.0);
        // 1K→4K *better* than baseline while 4K→16K more than halves: a
        // widest-span 1K→16K ratio (0.9) would clear the band; the
        // per-segment rows must fail on the 16,384 segment only.
        let tail = scaled(scaled(simmpi(&curve), "4096/scaling-ratio", 2.0), "16384/scaling-ratio", 0.45);
        let case = |name, baseline, fresh, failing, missing, new| Case { name, baseline, fresh, failing, missing, new };
        vec![
            case("identical interp", interp(&small), interp(&small), &[], &[], &[]),
            case("identical service", service(), service(), &[], &[], &[]),
            case("identical simmpi", simmpi(&curve), simmpi(&curve), &[], &[], &[]),
            case("noise inside tolerance", interp(&small), jitter, &[], &[], &[]),
            case("2x VM slowdown fails the absolute gate", interp(&[4]), vm_2x,
                &["cg-fig21/4/vm-throughput"], &[], &[]),
            case("simulated-time drift fails in every mode", interp(&[4]), scaled(interp(&[4]), "sim-seconds", 1.5),
                &["cg-fig21/4/sim-seconds"], &[], &[]),
            case("uniformly 3x slower machine passes --ratio-only", interp(&small), scaled(interp(&small), "vm-throughput", 3.0),
                &["cg-fig21/4/vm-throughput", "cg-fig21/16/vm-throughput"], &[], &[]),
            case("uniformly 3x slower machine, simmpi", simmpi(&curve[..2]), scaled(simmpi(&curve[..2]), "wall-throughput", 1.0 / 3.0),
                &["simmpi/1024/wall-throughput", "simmpi/4096/wall-throughput"], &[], &[]),
            case("virtual latency regression fails in every mode", service(), scaled(service(), "p99-steady-ingest", 2.0),
                &["service/16/p99-steady-ingest"], &[], &[]),
            case("virtual throughput drift fails in every mode", simmpi(&curve[..2]), scaled(simmpi(&curve[..2]), "1024/virt-throughput", 0.5),
                &["simmpi/1024/virt-throughput"], &[], &[]),
            case("scaling collapse fails even --ratio-only", simmpi(&curve[..2]), collapse,
                &["simmpi/4096/wall-throughput", "simmpi/4096/scaling-ratio"], &[], &[]),
            case("collapsing 4K->16K tail fails despite a healthy 1K->4K head", simmpi(&curve), tail,
                &["simmpi/16384/scaling-ratio"], &[], &[]),
            case("baseline-only cells are skipped and named", interp(&[4, 16, 64]), interp(&small),
                &[], &["cg-fig21/64/vm-throughput", "cg-fig21/64/sim-seconds"], &[]),
            case("baseline-only ranks of a reduced curve", simmpi(&curve), simmpi(&curve[..2]),
                &[], &["simmpi/16384/virt-throughput", "simmpi/16384/wall-throughput", "simmpi/16384/scaling-ratio"], &[]),
            case("a new cell hard-fails unless allowed", interp(&small), interp(&[4, 16, 64]),
                &[], &[], &["cg-fig21/64/vm-throughput", "cg-fig21/64/sim-seconds"]),
            case("a new rank count hard-fails unless allowed", simmpi(&curve[..2]), simmpi(&curve),
                &[], &[], &["simmpi/16384/virt-throughput", "simmpi/16384/wall-throughput", "simmpi/16384/scaling-ratio"]),
            case("an empty comparison fails", interp(&[4]), interp(&[64]),
                &[], &["cg-fig21/4/vm-throughput", "cg-fig21/4/sim-seconds"], &["cg-fig21/64/vm-throughput", "cg-fig21/64/sim-seconds"]),
        ]
    }

    #[test]
    fn fixed_band_verdicts() {
        for c in cases() {
            for absolute in [true, false] {
                let mut report = compare(&c.baseline, &c.fresh, DEFAULT_TOLERANCE, absolute);
                let rendered = report.render();
                let name = format!("{} (absolute={absolute})\n{rendered}", c.name);
                // Gated in this mode: measured, and not a wall row of a
                // ratio-only run.
                let gated = |key: &str| {
                    let mut fresh = c.fresh.iter().filter(|f| f.key() == key);
                    fresh.any(|f| absolute || f.kind != Kind::Wall)
                };
                let failing: Vec<String> = (report.checks.iter().filter(|k| !k.ok))
                    .map(|k| k.row.key())
                    .collect();
                let expected: Vec<&str> =
                    (c.failing.iter().copied().filter(|k| gated(k))).collect();
                assert_eq!(failing, expected, "{name}");
                // Every baseline row is checked or skipped *by name*.
                let checked: Vec<String> = report.checks.iter().map(|k| k.row.key()).collect();
                let keys = |want_gated: bool| -> Vec<String> {
                    let keys = c.baseline.iter().map(BenchRow::key);
                    keys.filter(|k| gated(k) == want_gated).collect()
                };
                assert_eq!(
                    (checked, &report.skipped_cells),
                    (keys(true), &keys(false)),
                    "{name}"
                );
                assert!(
                    c.missing
                        .iter()
                        .all(|m| report.skipped_cells.iter().any(|s| s == m)),
                    "{name}"
                );
                assert_eq!(report.new_cells, c.new, "{name}");
                for named in report.skipped_cells.iter().chain(&report.new_cells) {
                    assert!(rendered.contains(named.as_str()), "{name}");
                }
                let clean = failing.is_empty() && !report.checks.is_empty();
                assert_eq!(report.passed(), clean && c.new.is_empty(), "{name}");
                assert_eq!(
                    rendered.contains("--allow-new-cells"),
                    !c.new.is_empty(),
                    "{name}"
                );
                report.allow_new_cells = true;
                assert_eq!(report.passed(), clean, "allowed: {name}");
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_input_and_round_trips_rows() {
        let good = rows("simmpi simmpi/4096 scaling-ratio ratio higher 5.0")[0].to_json();
        for bad in [
            "not json".to_string(),
            "[]".to_string(),
            "[{".to_string(),
            format!("[{good}}}]"),
            "[{\"suite\": \"interp\", \"cell\": \"cg/4\"}]".to_string(),
            format!("[{}]", good.replace("\"ratio\"", "\"ratios\"")),
            format!("[{}]", good.replace("higher", "up")),
            format!("[{}]", good.replace("5.0", "\"5.0\"")),
        ] {
            assert!(parse_rows(&bad).is_err(), "{bad}");
        }
        let mut all = [rows(INTERP), rows(SIMMPI), rows(SERVICE)].concat();
        all[0].value = 0.1 + 0.2; // not a short decimal
        all[1].value = 1.0e-7 / 3.0;
        assert_eq!(parse_rows(&rows_to_json(&all)), Ok(all));
    }

    fn hist(row: &BenchRow, values: &[f64]) -> Vec<(u64, BenchRow)> {
        let mut samples = vec![row.clone(); values.len()];
        for (sample, value) in samples.iter_mut().zip(values) {
            sample.value = *value;
        }
        (0..).zip(samples).collect()
    }

    #[test]
    fn history_jsonl_round_trips_and_tolerates_a_torn_tail() {
        let fresh = at(INTERP, &[4]);
        let report = compare(&fresh, &fresh, DEFAULT_TOLERANCE, true);
        let mut text = history_lines(&report, 3);
        let cells = parse_history(&text);
        let expected: Vec<(u64, BenchRow)> = fresh.iter().map(|r| (3, r.clone())).collect();
        assert_eq!(cells, expected);
        // Old and new runs form one series: cell + metric concatenate to
        // the `workload/ranks/metric` key earlier history files stored.
        assert_eq!(cells[0].1.key(), "cg-fig21/4/vm-throughput");
        assert_eq!(next_history_run(&cells), 4);
        assert_eq!(next_history_run(&[]), 0);
        // A ratio-only run files only what it checked.
        let ratio_only = compare(&fresh, &fresh, DEFAULT_TOLERANCE, false);
        assert_eq!(parse_history(&history_lines(&ratio_only, 0)).len(), 1);

        // A torn tail (interrupted append) drops itself and nothing
        // before it — the runtime WAL's valid-prefix semantics.
        text.push_str("{\"run\": 4, \"sui");
        assert_eq!(parse_history(&text), expected);
        // Damage mid-file drops the suffix too: the prefix stays valid.
        let torn = format!("{}garbage\n{}", history_lines(&report, 0), text);
        assert_eq!(parse_history(&torn).len(), cells.len());
    }

    /// One `--stats` scenario, a single series judged against its
    /// recorded history: the row's `kind`, `better` and fresh `value`, the
    /// committed `baseline` value, the recorded `series`, the fixed-band
    /// verdict then the verdict after [`apply_history`], and `(samples,
    /// regime_len)` when history superseded the band.
    type StatsCase = (
        &'static str,
        &'static str,
        f64,
        f64,
        Vec<f64>,
        [bool; 2],
        Option<(usize, usize)>,
    );

    #[rustfmt::skip]
    fn stats_cases() -> Vec<StatsCase> {
        let around = |c: f64| vec![c * 1.01, c * 0.99, c, c * 1.02, c];
        // Five runs on the old CI machine (speedup ~6.4), five on the new
        // one (~5.0): the verdict must come from the *latest* regime.
        let regimes = || vec![6.4, 6.38, 6.42, 6.41, 6.39, 5.0, 4.98, 5.02, 5.01, 4.99];
        let (virt, deep) = (49_152.0, Some((6, 6)));
        vec![
            ("four runs are one short: the fixed band stays", "ratio higher", 5.0, 5.0, vec![5.0; 4], [true, true], None),
            // The dogfood scenario: this machine sits 28.6% below the
            // committed baseline, outside the fixed band, but dead centre
            // of what it has recorded five times.
            ("deep history accepts what the band refused", "ratio higher", 3.57, 5.0, around(3.57), [false, true], Some((5, 5))),
            ("15% below a tight regime fails inside the band", "ratio higher", 5.0, 5.0, around(5.9), [true, false], Some((5, 5))),
            ("2x slowdown fails the stats gate too", "ratio higher", 2.5, 5.0, around(5.0), [false, false], Some((5, 5))),
            ("a regime change resets the reference", "ratio higher", 5.0, 6.4, regimes(), [true, true], Some((10, 5))),
            ("15% below the new regime fails", "ratio higher", 4.25, 5.0, regimes(), [true, false], Some((10, 5))),
            ("faster than the regime is never a regression", "ratio higher", 6.4, 6.4, regimes(), [true, true], Some((10, 5))),
            // Virtual time is deterministic: a 5% dip is a simulation
            // change. The 1% floor catches it; the same dip on a
            // wall-derived figure sits inside the 10% floor.
            ("virtual rows get the 1% floor", "virtual higher", virt * 0.95, virt, vec![virt; 6], [true, false], deep),
            ("0.5% is inside the 1% floor", "virtual higher", virt * 0.995, virt, vec![virt; 6], [true, true], deep),
            ("ratio rows get the 10% floor", "ratio higher", virt * 0.95, virt, vec![virt; 6], [true, true], deep),
            ("wall rows get the 10% floor", "wall higher", virt * 0.95, virt, vec![virt; 6], [true, true], deep),
            ("lower-is-better rows regress upwards", "virtual lower", 1_020.0, 1_000.0, vec![1_000.0; 6], [true, false], deep),
            ("lower-is-better rows may always fall", "virtual lower", 500.0, 1_000.0, vec![1_000.0; 6], [true, true], deep),
        ]
    }

    #[test]
    fn history_verdicts() {
        for (name, shape, value, baseline, series, ok, stats) in stats_cases() {
            let fresh = rows(&format!("suite cell/4 metric {shape} {value:?}")).remove(0);
            let mut base = fresh.clone();
            base.value = baseline;
            let mut report = compare(
                &[base],
                std::slice::from_ref(&fresh),
                DEFAULT_TOLERANCE,
                true,
            );
            assert_eq!(report.checks[0].ok, ok[0], "fixed band: {name}");
            // Another series in the same file never leaks in.
            let mut other = fresh.clone();
            other.cell = "cell/8".into();
            let history = [hist(&fresh, &series), hist(&other, &[1e9; 6])].concat();
            apply_history(&mut report, &history);
            let check = &report.checks[0];
            assert_eq!(check.ok, ok[1], "{name}\n{}", report.render());
            let judged = check.stats.as_ref().map(|s| (s.samples, s.regime_len));
            assert_eq!(judged, stats, "{name}");
            let tag = if stats.is_some() {
                "[history n="
            } else {
                "[fixed tolerance]"
            };
            assert!(report.render().contains(tag), "{name}");
        }
    }

    fn committed(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn committed_baselines() -> Vec<BenchRow> {
        let suites = ["interp", "service", "simmpi", "control"];
        let read = |suite: &&str| {
            let rows = parse_rows(&committed(&format!("BENCH_{suite}.json"))).expect(suite);
            assert!(rows.iter().all(|r| r.suite == **suite), "{suite}");
            rows
        };
        suites.iter().flat_map(read).collect()
    }

    /// Series the gate no longer measures: their history stays in the
    /// file, and no baseline row exists for them. `vm-speedup` timed the
    /// tree-walker against the VM while the walker was a product backend.
    const RETIRED: [&str; 1] = ["vm-speedup"];

    #[test]
    fn committed_files_parse_and_every_history_series_has_a_baseline_row() {
        let baselines = committed_baselines();
        let text = committed("BENCH_history.jsonl");
        let history = parse_history(&text);
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        assert_eq!(
            (history.len(), lines),
            (572, 572),
            "valid-prefix parsing truncated the history"
        );
        for (_, h) in &history {
            // Every series keeps its length and its run order.
            let series = history.iter().filter(|(_, o)| o.same_series(h));
            let runs: Vec<u64> = series.map(|(run, _)| *run).collect();
            assert!(runs.windows(2).all(|w| w[0] < w[1]), "{}", h.key());
            if RETIRED.contains(&h.metric.as_str()) {
                assert!(
                    baselines.iter().all(|b| b.metric != h.metric),
                    "{}",
                    h.key()
                );
                // Its last run is the parent of the change that retired it.
                assert_eq!((runs.len(), runs.last()), (17, Some(&18)), "{}", h.key());
                continue;
            }
            let base = baselines.iter().find(|b| b.same_series(h));
            let base = base.unwrap_or_else(|| panic!("no baseline row for {}", h.key()));
            assert_eq!((base.kind, base.better), (h.kind, h.better), "{}", h.key());
            assert_eq!(
                runs.len(),
                match (h.suite.as_str(), h.metric.as_str()) {
                    // First filed with run 19.
                    ("interp", "sim-seconds") => 13,
                    // Runs 20, 21 and 24–31 were filed `--ratio-only`:
                    // the wall series skipped them.
                    ("interp", _) | ("simmpi", "wall-throughput") => 20,
                    ("simmpi", _) => 30,
                    ("service", "service-throughput") => 18,
                    ("service", _) => 28,
                    // First filed with runs 10 and 11.
                    _ => 22,
                },
                "{}",
                h.key()
            );
        }
    }

    type ParentVerdict = (&'static str, f64, bool, bool, usize, usize, f64, f64);

    /// What the gate reports on the committed data with the committed
    /// baseline values as the fresh measurement: `(key, baseline,
    /// fixed-band ok, --stats ok, samples, regime_len, median, allowed)`.
    /// First captured from the pre-row gate (three parsers, three
    /// comparators, two name tables), then re-captured from this gate each
    /// time runs were filed or a baseline regenerated. The ranks-64 interp
    /// cells are not measured (the gate's reduced sweep). Runs 18 and 19
    /// (the VM as the one executor, and its parent) came with a VM-only
    /// `BENCH_interp.json`: the interp cells lost their walker→VM speedup
    /// row (a retired series now) and gained a `sim-seconds` row first
    /// filed with run 19. Runs 20 and 21 (one crash story, and its parent)
    /// were filed `--ratio-only`, so only the virtual and ratio series
    /// grew. Runs 22 and 23 (bytes per rank, and its parent) were filed
    /// with their wall rows, and brought the `sim-seconds` series to the
    /// five samples the history verdict needs. Runs 24 and 25 (the
    /// telemetry hop at table speed, and its parent) were filed
    /// `--ratio-only` again, and so were runs 26 and 27 (the VM's
    /// register-held accumulator and fused loop control, and its parent)
    /// and runs 28 and 29 (the cross-run store's deletion with the
    /// scaling study's alternated rounds, and its parent), and runs 30 and
    /// 31 (uncalled public items deleted, and its parent).
    #[rustfmt::skip]
    const PARENT_VERDICTS: [ParentVerdict; 19] = [
        ("cg-fig21/4/vm-throughput", 6621909025.009828, true, true, 20, 14, 5479174589.089014, 2947923364.5529785),
        ("cg-fig21/4/sim-seconds", 0.057710674, true, true, 13, 13, 0.057710674, 0.0005771067399999999),
        ("cg-fig21/16/vm-throughput", 25937512577.381153, true, true, 20, 14, 21796278034.640255, 11056524616.494904),
        ("cg-fig21/16/sim-seconds", 0.058969947, true, true, 13, 13, 0.058969947, 0.00058969947),
        ("ft-fig22/4/vm-throughput", 5294777322.017859, true, true, 20, 14, 4402294011.176673, 4106717687.5519996),
        ("ft-fig22/4/sim-seconds", 0.075075833, true, true, 13, 13, 0.075075833, 0.00075075833),
        ("ft-fig22/16/vm-throughput", 10355921262.139862, true, true, 20, 14, 8790977564.365166, 2813886562.908047),
        ("ft-fig22/16/sim-seconds", 0.150430555, true, true, 13, 13, 0.150430555, 0.00150430555),
        ("service/16/p99-hot-ingest", 200161800.0, true, true, 28, 28, 200161800.0, 2001618.0),
        ("service/16/p99-steady-ingest", 155302.0, true, true, 28, 21, 155302.0, 1553.02),
        ("service/16/service-throughput", 3014.4132286850117, true, true, 18, 11, 3011.8709524315414, 1726.8143575985032),
        ("simmpi/1024/virt-throughput", 30290854.321401544, true, true, 30, 30, 30290854.321401544, 302908.54321401543),
        ("simmpi/1024/wall-throughput", 1585238.294031774, true, true, 20, 13, 1602361.7100751556, 600461.3567629906),
        ("simmpi/4096/virt-throughput", 102637134.54627462, true, true, 30, 30, 102637134.54627462, 1026371.3454627462),
        ("simmpi/4096/wall-throughput", 1246161.69609726, true, true, 20, 13, 1276746.5074383954, 712619.3637453956),
        ("simmpi/16384/virt-throughput", 356091986.0829121, true, true, 30, 30, 356091986.0829121, 3560919.860829121),
        ("simmpi/16384/wall-throughput", 1076014.5047311282, true, true, 20, 14, 1076060.384049619, 436009.7805240781),
        ("simmpi/4096/scaling-ratio", 0.7861037049060099, true, true, 30, 30, 0.7824854148558755, 0.17348472320755665),
        ("simmpi/16384/scaling-ratio", 0.8634629904778808, true, true, 30, 30, 0.8592277790812317, 0.2217949252506191),
    ];

    #[test]
    fn verdicts_on_the_committed_data_match_the_parent_gate() {
        let baselines = committed_baselines();
        let history = parse_history(&committed("BENCH_history.jsonl"));
        let measured = |r: &&BenchRow| r.suite != "control" && !r.cell.ends_with("/64");
        let fresh: Vec<BenchRow> = baselines.iter().filter(measured).cloned().collect();
        for absolute in [true, false] {
            let mut report = compare(&baselines, &fresh, DEFAULT_TOLERANCE, absolute);
            // The parent skipped the same rows: `cg-fig21/64` and
            // `ft-fig22/64` whole, wall rows when ratio-only (it named
            // only the service one) — plus, new here, the control suite.
            let skipped = |b: &&BenchRow| !measured(b) || (b.kind == Kind::Wall && !absolute);
            let expected: Vec<String> = baselines
                .iter()
                .filter(skipped)
                .map(BenchRow::key)
                .collect();
            assert_eq!(report.skipped_cells, expected);
            assert!(report.new_cells.is_empty());
            let pinned = |c: &GateCheck| {
                let key = c.row.key();
                *(PARENT_VERDICTS.iter().find(|p| p.0 == key)).unwrap_or_else(|| panic!("{key}"))
            };
            assert_eq!(
                report.checks.len(),
                PARENT_VERDICTS.len() - if absolute { 0 } else { 8 }
            );
            for c in &report.checks {
                let (key, base, fixed_ok, ..) = pinned(c);
                assert_eq!(
                    (c.baseline.to_bits(), c.ok),
                    (base.to_bits(), fixed_ok),
                    "{key}"
                );
            }
            apply_history(&mut report, &history);
            for c in &report.checks {
                let (key, _, _, ok, samples, regime_len, median, allowed) = pinned(c);
                let Some(s) = c.stats.as_ref() else {
                    // A shallow series keeps its fixed-band verdict.
                    assert!(samples < MIN_HISTORY_SAMPLES, "{key}");
                    assert_eq!(c.ok, ok, "{key}");
                    continue;
                };
                assert_eq!(
                    (c.ok, s.samples, s.regime_len),
                    (ok, samples, regime_len),
                    "{key}"
                );
                let bits = (s.median.to_bits(), s.allowed.to_bits());
                assert_eq!(bits, (median.to_bits(), allowed.to_bits()), "{key}");
            }
            assert_eq!(
                report.passed(),
                report.checks.iter().all(|c| pinned(c).3),
                "the report passes exactly when every pinned verdict does"
            );
        }
    }
}
