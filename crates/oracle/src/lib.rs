//! Test-only differential oracles, two of them: the tree-walking MiniHPC
//! interpreter the bytecode VM must match bit for bit, and the record-log
//! [`replay`] the streaming engine's results must match.
//!
//! The product runs every program on `vsensor-interp`'s bytecode VM. This
//! crate keeps the interpreter the VM was derived from — a recursive walk
//! of the IR, the direct reading of the language's semantics — so tests
//! can hold the VM to it bit for bit: virtual times, `ProcStats`, sensor
//! records, reports and error text. The walker shares the VM's one cost
//! and probe surface (`Machine::charge`/`charge_mem`, `on_tick`/`on_tock`,
//! `finalize`, `builtins::dispatch`, the element and operator helpers), so
//! "equivalent" means the same charges at the same flush boundaries.
//!
//! A recursive evaluator cannot return to the scheduler at a yield point,
//! so each rank runs on the lock-step [`host`], which also carries
//! closure-style rank programs for tests of simmpi's MPI semantics.
//!
//! The analysis server folds records into accumulators and keeps none of
//! them. [`replay`] keeps the seed's batch-at-end algorithm instead, fed by
//! the records a [`replay::Recorder`] sink captures as the run sends them,
//! and states the tolerance streaming and replay agree to.
//!
//! The crate is `publish = false` and only ever a `[dev-dependencies]`
//! entry.

pub mod host;
pub mod replay;
mod walker;

use cluster_sim::Cluster;
use host::Hosted;
use simmpi::{SimBackend, World};
use std::sync::Arc;
use vsensor_interp::machine::{MachineResult, SensorHarness};
use vsensor_interp::run::{assemble_run, dead_rank_result, sensor_harness, server_sink};
use vsensor_interp::{InstrumentedRun, RankResult, RunConfig};
use vsensor_lang::Program;
use vsensor_runtime::{BatchChannel, SensorInfo};
use walker::Walker;

/// The walker's [`vsensor_interp::run_plain_shared`]: an uninstrumented
/// run; a program error panics as `rank N panicked: runtime error: …`.
pub fn run_plain(program: Arc<Program>, cluster: Arc<Cluster>, sim: SimBackend) -> Vec<RankResult> {
    let results = run_ranks(program, cluster, sim, |_| None);
    results.into_iter().map(RankResult::from).collect()
}

/// The walker's [`vsensor_interp::run_instrumented_shared`]: the same
/// private server sink, per-rank harnesses and report assembly as the
/// product's run, with every rank on the walker.
pub fn run_instrumented(
    program: Arc<Program>,
    sensors: Vec<SensorInfo>,
    cluster: Arc<Cluster>,
    config: &RunConfig,
) -> InstrumentedRun {
    let sink = server_sink(&sensors, &cluster, config);
    let channel: Arc<dyn BatchChannel> = sink.clone();
    let harness = |proc: &simmpi::Proc| Some(sensor_harness(config, sensors.len(), &channel, proc));
    let results = run_ranks(program, cluster, config.sim, harness);
    assemble_run(results, config, sink)
}

/// Execute `program` on every rank of `cluster`, each rank a walker on the
/// lock-step host; `harness` builds each rank's sensor machinery. A rank
/// the fault plan kills reports what the VM's would.
fn run_ranks(
    program: Arc<Program>,
    cluster: Arc<Cluster>,
    sim: SimBackend,
    harness: impl Fn(&simmpi::Proc) -> Option<SensorHarness>,
) -> Vec<MachineResult> {
    World::new(cluster).run_event_workers(
        sim.workers(),
        |_rank, proc| {
            let (program, sensors) = (program.clone(), harness(&proc));
            Hosted::new(proc, move |h| {
                let walker = Walker::new(program, h, sensors);
                walker.run().unwrap_or_else(|e| panic!("{e}"))
            })
        },
        dead_rank_result,
    )
}

#[cfg(test)]
mod tests {
    //! Walker-vs-VM comparisons on hand-written programs; the randomized
    //! and scenario suites are `tests/vm_equivalence.rs` at the workspace
    //! root.

    use super::*;
    use cluster_sim::ClusterConfig;
    use host::run_hosted;
    use vsensor_interp::ExecError;

    /// Run a source program through both interpreters on quiet ranks and
    /// return (walker, vm) results.
    fn both(src: &str, ranks: usize) -> (Vec<RankResult>, Vec<RankResult>) {
        let program = Arc::new(vsensor_lang::compile(src).unwrap());
        let cluster = || Arc::new(ClusterConfig::quiet(ranks).build());
        let walker = run_plain(program.clone(), cluster(), SimBackend::event());
        let vm = vsensor_interp::run_plain_shared(program, cluster(), SimBackend::event());
        (walker, vm)
    }

    fn assert_identical(src: &str, ranks: usize) {
        let (walker, vm) = both(src, ranks);
        for (w, v) in walker.iter().zip(&vm) {
            assert_eq!(w.end, v.end, "virtual end time differs for {src}");
            assert_eq!(w.stats, v.stats, "proc stats differ for {src}");
        }
    }

    /// The error a single-rank program fails with under each interpreter:
    /// the walker's as returned, the VM's read from the panic the
    /// scheduler raises with it.
    fn both_errors(src: &str) -> (ExecError, ExecError) {
        let program = Arc::new(vsensor_lang::compile(src).unwrap());
        let world = World::new(Arc::new(ClusterConfig::quiet(1).build()));
        let walker = {
            let program = program.clone();
            run_hosted(
                &world,
                move |h| Walker::new(program.clone(), h, None).run().unwrap_err(),
                |_, _| unreachable!("no deaths planned"),
            )
        };
        let cluster = Arc::new(ClusterConfig::quiet(1).build());
        let payload = std::panic::catch_unwind(|| vsensor_interp::run_plain(&program, cluster))
            .expect_err("the program fails on the VM");
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        let vm = text.strip_prefix("rank 0 panicked: runtime error: ");
        (
            walker[0].clone(),
            ExecError::new(vm.expect("a runtime error")),
        )
    }

    #[test]
    fn arithmetic_matches_walker() {
        assert_identical(
            r#"
            fn tri(int n) -> int {
                int s = 0;
                for (i = 1; i <= n; i = i + 1) { s = s + i; }
                return s;
            }
            fn main() {
                int x = tri(100);
                if (x == 5050) { compute(1000); } else { compute(9); }
            }
            "#,
            1,
        );
    }

    #[test]
    fn break_continue_through_nested_loops() {
        assert_identical(
            r#"
            fn main() {
                int hits = 0;
                for (i = 0; i < 20; i = i + 1) {
                    if (i % 3 == 0) { continue; }
                    int j = 0;
                    while (j < 10) {
                        j = j + 1;
                        if (j == 4) { continue; }
                        if (j > 7) { break; }
                        hits = hits + 1;
                    }
                    if (i > 15) { break; }
                }
                compute(hits * 100);
            }
            "#,
            1,
        );
    }

    #[test]
    fn short_circuit_evaluation_matches() {
        // The right-hand sides charge work only when evaluated; any
        // divergence in short-circuit behavior shifts virtual time.
        assert_identical(
            r#"
            fn costly(int n) -> int { compute(n); return n; }
            fn main() {
                int a = 0 && costly(1000);
                int b = 1 && costly(2000);
                int c = 1 || costly(4000);
                int d = 0 || costly(8000);
                compute(a + b + c + d);
            }
            "#,
            1,
        );
    }

    #[test]
    fn array_type_coercion_matches() {
        assert_identical(
            r#"
            fn main() {
                int a[8];
                float f[8];
                for (i = 0; i < 8; i = i + 1) {
                    a[i] = i * 1.5;   // float stored into int array
                    f[i] = i;         // int stored into float array
                }
                int x = a[4] + f[5];
                float y = a[4] + f[5];
                compute(x + y);
            }
            "#,
            1,
        );
    }

    #[test]
    fn shadowing_matches() {
        assert_identical(
            r#"
            global int x = 100;
            fn main() {
                int s = x;          // global: 100
                if (1) { int x = 5; s = s + x; }
                s = s + x;          // global again
                for (x = 0; x < 3; x = x + 1) { s = s + x; }
                s = s + x;          // global again after loop scope pops
                int x = 7;          // local shadows global
                s = s + x;
                compute(s * 10);
            }
            "#,
            1,
        );
    }

    #[test]
    fn mpi_and_globals_match_across_ranks() {
        assert_identical(
            r#"
            global int COUNTER = 0;
            fn bump() { COUNTER = COUNTER + 1; }
            fn main() {
                int rank = mpi_comm_rank();
                for (i = 0; i < 10 + rank; i = i + 1) { bump(); }
                mpi_allreduce_val(8, COUNTER);
                mpi_barrier();
            }
            "#,
            4,
        );
    }

    #[test]
    fn recursion_depth_error_matches() {
        let (w, v) = both_errors("fn f(int n) -> int { return f(n + 1); } fn main() { f(0); }");
        assert_eq!(w, v);
        assert!(w.message.contains("call depth"));
    }

    #[test]
    fn runtime_error_messages_match() {
        for src in [
            "fn main() { int x = 0; int y = 5 / x; }",
            "fn main() { int x = 0; int y = 5 % x; }",
            "fn main() { int a[4]; a[9] = 1; }",
            "fn main() { int a[4]; int x = a[0 - 1]; }",
            "fn main() { x = 1; }",
            "fn main() { int y = x; }",
            "fn main() { unknowable(3); }",
            "fn main() { int x = 1; int y = x[0]; }",
            "fn main() { int n = 0 - 4; int a[n]; }",
            "fn main() { int a[8]; int b[2]; int x = a[b]; }",
            "fn main() { int a[4]; a[0] = 0 - a; }",
            // The cold side of every element-access arm, fused forms
            // included: index -1, index == len, a truncated float index, a
            // scalar indexed, a non-scalar stored.
            "fn main() { int a[4]; int x = a[4]; }",
            "fn main() { int a[4]; int x = a[4.9]; }",
            "fn main() { int a[4]; int k = 0 - 1; int x = a[k]; }",
            "fn main() { float a[4]; int k = 4; a[k] = 1; }",
            "fn main() { int a[4]; int b[4]; int i = 4; int j = 0; int x = a[i] + b[j]; }",
            "fn main() { int a[4]; int b[4]; int i = 0; int j = 0 - 1; int x = a[i] + b[j]; }",
            "fn main() { int a[4]; int k = 4; int s = 1; s = s + 2 + a[k]; }",
            "fn main() { int x = 1; int k = 0; x[k] = 2; }",
            "global int g = 1; fn main() { g[0] = 2; }",
            "fn main() { int a[4]; int b[2]; a[0] = b; }",
            "fn main() { float a[4]; int b[2]; int k = 4; a[k] = b; }",
        ] {
            let (w, v) = both_errors(src);
            assert_eq!(w, v, "error mismatch for {src}");
        }
    }

    #[test]
    fn rand_and_wtime_match() {
        // `rand` advances per-rank deterministic state; `wtime` reads the
        // virtual clock — both must see identical machine state.
        assert_identical(
            r#"
            fn main() {
                int acc = 0;
                for (i = 0; i < 50; i = i + 1) {
                    int r = rand();
                    if (r % 2 == 0) { acc = acc + 1; }
                    compute(100 + r % 64);
                }
                int t = wtime();
                if (t > 0) { acc = acc + 1; }
                mpi_allreduce_val(8, acc);
            }
            "#,
            2,
        );
    }

    #[test]
    fn chunk_flush_boundaries_match() {
        // Enough fine-grained work to cross the 1<<16 pending-work chunk
        // threshold many times purely from unit charges: flush points must
        // land on the same work counts in both backends.
        assert_identical(
            r#"
            fn main() {
                int s = 0;
                for (i = 0; i < 30000; i = i + 1) { s = s + i * 2 - 1; }
                compute(s % 97);
            }
            "#,
            1,
        );
    }

    #[test]
    fn mixed_mem_and_cpu_charges_match() {
        // Memory charges don't flush; a unit charge arriving with the
        // accumulator already above threshold must flush on the next unit
        // in both backends.
        assert_identical(
            r#"
            fn main() {
                int a[4096];
                int s = 0;
                for (r = 0; r < 40; r = r + 1) {
                    for (i = 0; i < 4096; i = i + 1) { a[i] = a[i] + i; }
                    mem_access(30000);
                    for (i = 0; i < 4096; i = i + 1) { s = s + a[i]; }
                }
                compute(s % 1009);
            }
            "#,
            1,
        );
    }

    #[test]
    fn main_with_params_leaves_them_unbound() {
        let (w, v) = both_errors("global int g = 1; fn main(int q) { int y = q; }");
        assert_eq!(w, v);
        assert!(w.message.contains("unbound variable `q`"));
    }
}
