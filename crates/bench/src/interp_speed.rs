//! Interpreter speed study: the bytecode VM on interpreter-bound
//! workloads.
//!
//! Runs the fig21 (CG) and fig22 (FT) workloads — in their
//! interpreted-kernel form, where the compute kernels are per-element
//! MiniHPC array loops rather than bulk builtins — across a rank sweep,
//! and reports wall-clock nanoseconds per *simulated* second — the metric
//! that decides how big a cluster the reproduction can afford to simulate
//! — beside the simulated seconds themselves. The `repro` binary
//! serializes [`InterpSpeedResult::rows`] to `BENCH_interp.json` so the
//! perf trajectory is recorded machine-readably and `repro interp --check`
//! can gate future changes against it.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;
use vsensor::{scenarios, Pipeline, Prepared};
use vsensor_apps::{cg, ft, Params};
use vsensor_interp::RunConfig;

use crate::perf_gate::{BenchRow, Better, Kind};
use crate::Effort;

/// One measured (workload, ranks) cell.
#[derive(Clone, Debug)]
pub struct InterpRow {
    /// Workload name (`cg-fig21` or `ft-fig22`).
    pub workload: &'static str,
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Wall-clock time for the whole instrumented run.
    pub wall_ns: u64,
    /// Virtual seconds the run simulated (max over ranks).
    pub simulated_secs: f64,
    /// The headline metric: wall nanoseconds per simulated second.
    pub wall_ns_per_sim_sec: f64,
}

/// Full sweep result.
pub struct InterpSpeedResult {
    /// All measured cells, in sweep order.
    pub rows: Vec<InterpRow>,
}

impl InterpSpeedResult {
    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>14} {:>14} {:>16}",
            "workload", "ranks", "vm wall", "simulated", "vm ns/sim-sec"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>12.2}ms {:>13.6}s {:>16.0}",
                r.workload,
                r.ranks,
                r.wall_ns as f64 / 1e6,
                r.simulated_secs,
                r.wall_ns_per_sim_sec,
            );
        }
        out
    }

    /// The gated rows of the `interp` suite (`BENCH_interp.json`), two
    /// per cell: the VM's wall ns per simulated second, which compares
    /// wall clocks across machines, and the simulated seconds, which are
    /// bit-stable and so judge the simulation on any machine.
    pub fn rows(&self) -> Vec<BenchRow> {
        let mut rows = Vec::new();
        for r in &self.rows {
            let cell = format!("{}/{}", r.workload, r.ranks);
            let row = |metric, value, kind| {
                BenchRow::new("interp", cell.clone(), metric, value, kind, Better::Lower)
            };
            rows.push(row("vm-throughput", r.wall_ns_per_sim_sec, Kind::Wall));
            rows.push(row("sim-seconds", r.simulated_secs, Kind::Virtual));
        }
        rows
    }
}

fn workloads(effort: Effort) -> Vec<(&'static str, Prepared)> {
    // The interpreted-kernel variants: the fig21/fig22 communication
    // skeletons with the compute kernels written as per-element MiniHPC
    // loops, so the measurement exercises the interpreter instead of the
    // bulk-kernel builtins. Few outer iterations over large vectors keeps
    // the collective count small relative to interpreted work.
    let (cg_params, ft_params) = match effort {
        Effort::Smoke => (
            Params::test().with_iters(30).with_scale(800),
            Params::test().with_iters(25).with_scale(800),
        ),
        Effort::Paper => (
            Params::bench().with_iters(100).with_scale(8_000),
            Params::bench().with_iters(60).with_scale(8_000),
        ),
    };
    vec![
        (
            "cg-fig21",
            Pipeline::new().prepare(cg::generate_interpreted(cg_params).compile()),
        ),
        (
            "ft-fig22",
            Pipeline::new().prepare(ft::generate_interpreted(ft_params).compile()),
        ),
    ]
}

fn measure(prepared: &Prepared, ranks: usize) -> (u64, f64) {
    // Cell wall timings have a heavy right tail: rank-thread scheduling
    // and allocator state left by earlier runs in the same process can
    // slow an unlucky run by ~25% without meaning anything about the
    // code. Virtual time is deterministic across repeats, so the fastest
    // of a few runs is the meaningful wall measurement — a single draw
    // would hand the perf gate a noisy trajectory.
    let reps = if ranks <= 16 { 3 } else { 2 };
    let mut best_wall_ns = u64::MAX;
    let mut simulated = 0.0f64;
    let config = RunConfig::default();
    for _ in 0..reps {
        let cluster = Arc::new(scenarios::healthy(ranks).build());
        let started = Instant::now();
        let run = prepared.run(cluster, &config);
        let wall_ns = started.elapsed().as_nanos() as u64;
        best_wall_ns = best_wall_ns.min(wall_ns);
        simulated = run.run_time.as_secs_f64();
    }
    (best_wall_ns, simulated)
}

/// Run the sweep: both workloads, 4 → 64 ranks.
pub fn run(effort: Effort) -> InterpSpeedResult {
    let rank_sweep: &[usize] = match effort {
        Effort::Smoke => &[4, 8],
        Effort::Paper => &[4, 16, 64],
    };
    run_with_ranks(effort, rank_sweep)
}

/// Run the sweep over an explicit rank list — the perf-regression gate
/// uses a reduced sweep whose (workload, ranks) cells still match the
/// committed baseline's.
pub fn run_with_ranks(effort: Effort, rank_sweep: &[usize]) -> InterpSpeedResult {
    let mut rows = Vec::new();
    for (workload, prepared) in workloads(effort) {
        for &ranks in rank_sweep {
            let (wall_ns, simulated_secs) = measure(&prepared, ranks);
            rows.push(InterpRow {
                workload,
                ranks,
                wall_ns,
                simulated_secs,
                wall_ns_per_sim_sec: wall_ns as f64 / simulated_secs.max(1e-9),
            });
        }
    }
    InterpSpeedResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf_gate::{parse_rows, rows_to_json};

    #[test]
    fn smoke_sweep_produces_rows() {
        let r = run(Effort::Smoke);
        // 2 workloads × 2 rank counts.
        assert_eq!(r.rows.len(), 4);
        // Two gated rows per (workload, ranks) cell.
        let gated = r.rows();
        assert_eq!(gated.len(), 8);
        assert_eq!(gated[0].key(), "cg-fig21/4/vm-throughput");
        assert_eq!(gated[1].key(), "cg-fig21/4/sim-seconds");
        assert_eq!(parse_rows(&rows_to_json(&gated)), Ok(gated));
        assert!(r.render().contains("ns/sim-sec"));
        // Simulated time is bit-stable: a second sweep reproduces it.
        let again = run_with_ranks(Effort::Smoke, &[4, 8]);
        for (a, b) in r.rows.iter().zip(&again.rows) {
            assert_eq!(
                a.simulated_secs.to_bits(),
                b.simulated_secs.to_bits(),
                "{} ranks={} virtual time must repeat",
                a.workload,
                a.ranks
            );
        }
    }
}
