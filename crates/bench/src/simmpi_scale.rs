//! Rank-scaling study for the event-driven simulator.
//!
//! The paper evaluates vSensor at 16,384 MPI processes; the reproduction
//! must therefore *host* 16,384 simulated ranks in one address space. The
//! event scheduler (`simmpi::sched`) does, and this module records how its
//! throughput scales with the rank count.
//!
//! The workload is the communication shape the eight miniapps share: a
//! compute slice, a neighbour `mpi_sendrecv` ring exchange, an
//! `mpi_allreduce`, and an `mpi_barrier` per outer iteration. Two metrics
//! per rank count:
//!
//! - **`rank_iters_per_virtual_sec`** — simulated work per virtual second.
//!   Virtual time is deterministic (bit-identical across repeats and
//!   machines), so this column is gated unconditionally by the perf gate:
//!   any drift means the *simulation itself* changed, not the machine.
//! - **`rank_iters_per_wall_sec`** — simulated work per wall-clock second,
//!   the scheduler's real throughput. Machine-dependent, so the gate only
//!   checks the *ratio* between rank counts (scaling efficiency) unless
//!   absolute checking is requested.
//!
//! The `repro` binary serializes [`ScaleResult::rows`] to
//! `BENCH_simmpi.json` so the committed baseline records the 1,024 →
//! 16,384 scaling curve.

use simmpi::SimBackend;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;
use vsensor::{scenarios, Pipeline, Prepared};

use crate::perf_gate::{BenchRow, Better, Kind};
use crate::Effort;

/// Outer iterations of the ring/allreduce/barrier loop per rank.
const ITERS: usize = 24;

/// One measured rank count.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Virtual seconds the run simulated (max over ranks) — deterministic.
    pub virtual_secs: f64,
    /// Rank-iterations per virtual second: `ranks * iterations /
    /// virtual_secs`. Deterministic; the gate's primary column.
    pub rank_iters_per_virtual_sec: f64,
    /// Wall-clock nanoseconds for the whole run (the median over
    /// [`ROUNDS`] alternated rounds).
    pub wall_ns: u64,
    /// Rank-iterations per wall second — the scheduler's real throughput.
    pub rank_iters_per_wall_sec: f64,
}

/// Full sweep result.
pub struct ScaleResult {
    /// One row per rank count, ascending.
    pub rows: Vec<ScaleRow>,
}

impl ScaleResult {
    /// Scaling efficiency per *adjacent pair* of measured rank counts
    /// (1K→4K, 4K→16K, ...): `(lo ranks, hi ranks, wall throughput at hi
    /// / wall throughput at lo)`. 1.0 means the scheduler's cost per
    /// rank-iteration is flat across the scale. Both ends of a ratio come
    /// from this run, so machine speed cancels: an event-queue or
    /// data-layout regression that hits big worlds harder than small ones
    /// collapses one of these no matter how fast the machine is. Per
    /// segment, because one widest-span ratio can hide a collapsing tail
    /// — a big win at 1K→4K masks a 4K→16K cliff when they are folded
    /// into one number.
    pub fn scaling_ratios(&self) -> Vec<(usize, usize, f64)> {
        let ratio = |lo: &ScaleRow, hi: &ScaleRow| {
            hi.rank_iters_per_wall_sec / lo.rank_iters_per_wall_sec.max(1e-9)
        };
        (self.rows.windows(2))
            .map(|p| (p[0].ranks, p[1].ranks, ratio(&p[0], &p[1])))
            .collect()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simmpi event-backend rank scaling ({ITERS} ring+allreduce+barrier iterations/rank)"
        );
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>18} {:>12} {:>18}",
            "ranks", "virtual(s)", "iters/virt-sec", "wall(ms)", "iters/wall-sec"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>7} {:>12.4} {:>18.0} {:>12.2} {:>18.0}",
                r.ranks,
                r.virtual_secs,
                r.rank_iters_per_virtual_sec,
                r.wall_ns as f64 / 1e6,
                r.rank_iters_per_wall_sec,
            );
        }
        for (lo, hi, eff) in self.scaling_ratios() {
            let _ = writeln!(out, "scaling efficiency {lo} -> {hi} ranks: {eff:.2}x");
        }
        out
    }

    /// The gated rows of the `simmpi` suite (`BENCH_simmpi.json`): per
    /// rank count the deterministic virtual-time throughput and the
    /// machine-dependent wall throughput, then one scaling ratio per
    /// adjacent pair, filed under the pair's upper rank count.
    pub fn rows(&self) -> Vec<BenchRow> {
        let row = |ranks: usize, metric, value, kind| {
            let cell = format!("simmpi/{ranks}");
            BenchRow::new("simmpi", cell, metric, value, kind, Better::Higher)
        };
        let mut rows = Vec::new();
        for r in &self.rows {
            let virt = r.rank_iters_per_virtual_sec;
            rows.push(row(r.ranks, "virt-throughput", virt, Kind::Virtual));
            let wall = r.rank_iters_per_wall_sec;
            rows.push(row(r.ranks, "wall-throughput", wall, Kind::Wall));
        }
        for (_, hi, ratio) in self.scaling_ratios() {
            rows.push(row(hi, "scaling-ratio", ratio, Kind::Ratio));
        }
        rows
    }
}

/// The shared communication skeleton: compute, neighbour ring exchange,
/// allreduce, barrier. Uninstrumented — the study measures the scheduler,
/// not the sensor runtime.
fn workload() -> Prepared {
    let src = format!(
        r#"
        fn main() {{
            int p = mpi_comm_size();
            int r = mpi_comm_rank();
            int right = (r + 1) % p;
            int left = (r + p - 1) % p;
            for (it = 0; it < {ITERS}; it = it + 1) {{
                compute(1500);
                mpi_sendrecv(right, 4096, left, 7);
                mpi_allreduce(256);
                mpi_barrier();
            }}
        }}
        "#
    );
    Pipeline::new()
        .compile(&src)
        .expect("scaling workload compiles")
}

/// Alternated rounds over the sweep: each round runs every rank count
/// once, in sweep order, and a count's wall time is its median over the
/// rounds. Host speed drifts over seconds; sampling both ends of a
/// scaling ratio in the same rounds lets the drift hit them alike, and
/// the median drops the heavy right tail (allocator and scheduler state)
/// that one or two samples cannot.
const ROUNDS: usize = 15;

/// One plain run: `(wall ns, virtual seconds)`.
fn run_once(prepared: &Prepared, ranks: usize) -> (u64, f64) {
    let cluster = Arc::new(scenarios::quiet(ranks).build());
    let started = Instant::now();
    let results = prepared.run_plain_on(cluster, SimBackend::event());
    let wall_ns = started.elapsed().as_nanos() as u64;
    let virtual_secs = results
        .iter()
        .map(|r| r.end.as_secs_f64())
        .fold(0.0, f64::max);
    (wall_ns, virtual_secs)
}

/// Measure every rank count of `rank_sweep` in [`ROUNDS`] alternated
/// rounds.
fn measure(prepared: &Prepared, rank_sweep: &[usize]) -> Vec<ScaleRow> {
    let mut samples: Vec<(Vec<u64>, f64)> = vec![(Vec::new(), 0.0); rank_sweep.len()];
    for _ in 0..ROUNDS {
        for (&ranks, (walls, virtual_secs)) in rank_sweep.iter().zip(&mut samples) {
            let (wall_ns, virt) = run_once(prepared, ranks);
            walls.push(wall_ns);
            *virtual_secs = virt;
        }
    }
    rank_sweep
        .iter()
        .zip(samples)
        .map(|(&ranks, (mut walls, virtual_secs))| {
            walls.sort_unstable();
            let wall_ns = walls[walls.len() / 2];
            let rank_iters = (ranks * ITERS) as f64;
            ScaleRow {
                ranks,
                virtual_secs,
                rank_iters_per_virtual_sec: rank_iters / virtual_secs.max(1e-9),
                wall_ns,
                rank_iters_per_wall_sec: rank_iters / (wall_ns as f64 / 1e9).max(1e-9),
            }
        })
        .collect()
}

/// Run the sweep at the default rank curve for the effort level. Paper
/// effort records the committed 1,024 → 16,384 curve.
pub fn run(effort: Effort) -> ScaleResult {
    let rank_sweep: &[usize] = match effort {
        Effort::Smoke => &[64, 256],
        Effort::Paper => &[1024, 4096, 16384],
    };
    run_with_ranks(rank_sweep)
}

/// Run the sweep over an explicit rank list — the perf-regression gate
/// uses a reduced curve whose rank counts still match the baseline's.
pub fn run_with_ranks(rank_sweep: &[usize]) -> ScaleResult {
    ScaleResult {
        rows: measure(&workload(), rank_sweep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf_gate::{parse_rows, rows_to_json};

    #[test]
    fn smoke_sweep_produces_rows() {
        let r = run(Effort::Smoke);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.scaling_ratios().len(), 1);
        for row in &r.rows {
            assert!(row.virtual_secs > 0.0, "{} ranks simulated time", row.ranks);
            assert!(row.rank_iters_per_virtual_sec > 0.0);
            assert!(row.rank_iters_per_wall_sec > 0.0);
        }
        // 2 rank counts x (virtual, wall) + 1 adjacent scaling ratio.
        let gated = r.rows();
        assert_eq!(gated.len(), 5);
        assert_eq!(gated[4].key(), "simmpi/256/scaling-ratio");
        assert_eq!(parse_rows(&rows_to_json(&gated)), Ok(gated));
        assert!(r.render().contains("iters/wall-sec"));
    }

    #[test]
    fn virtual_throughput_is_deterministic() {
        let a = run_with_ranks(&[64]);
        let b = run_with_ranks(&[64]);
        assert_eq!(
            a.rows[0].rank_iters_per_virtual_sec.to_bits(),
            b.rows[0].rank_iters_per_virtual_sec.to_bits(),
            "virtual-time throughput must be bit-identical across repeats"
        );
    }
}
