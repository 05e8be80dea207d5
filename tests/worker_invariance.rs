//! Worker-count invariance suite: the event scheduler's parallel
//! same-instant dispatch (`SimBackend::Event { workers: N }`) must
//! produce outputs *bitwise identical* to serial dispatch, at any worker
//! count.
//!
//! This is the determinism contract of the worker pool: workers only
//! parallelize the *resume* phase of a dispatch cycle; all effects commit
//! on the control thread in ascending rank order, and every completion
//! instant is a pure function of the virtual-time model. So the schedule
//! — and every downstream output — is a function of (cluster, program)
//! alone, never of the worker count, thread interleaving, or chunk
//! boundaries. These tests pin that at paper scale (4,096 ranks), healthy
//! and with mid-run node deaths, plus a full instrumented report at a
//! smaller scale.

use std::sync::Arc;
use vsensor_bench::failstop::first_mismatch;
use vsensor_repro::cluster_sim::{Cluster, ClusterConfig};
use vsensor_repro::interp::{run_plain_shared, InstrumentedRun, RankResult, RunConfig};
use vsensor_repro::runtime::RuntimeConfig;
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline};

/// The rank-scaling workload's communication shape, cut down to a length
/// that keeps a 4,096-rank differential run cheap.
const SCALE_WORKLOAD: &str = r#"
    fn main() {
        int p = mpi_comm_size();
        int r = mpi_comm_rank();
        int right = (r + 1) % p;
        int left = (r + p - 1) % p;
        for (it = 0; it < 6; it = it + 1) {
            compute(1500);
            mpi_sendrecv(right, 4096, left, 7);
            mpi_allreduce(256);
            mpi_barrier();
        }
    }
"#;

/// The fail-stop workload from the event-equivalence suite.
const BAD_NODE_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 60; t = t + 1) {
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

fn run_plain_with_workers(
    src: &str,
    make_cluster: &dyn Fn() -> Cluster,
    workers: usize,
) -> Vec<RankResult> {
    let program = Arc::new(vsensor_repro::lang::compile(src).expect("program compiles"));
    run_plain_shared(
        program,
        Arc::new(make_cluster()),
        SimBackend::Event { workers },
    )
}

fn assert_rank_results_identical(serial: &[RankResult], parallel: &[RankResult], label: &str) {
    assert_eq!(serial.len(), parallel.len(), "{label}: rank count");
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(s.end, p.end, "{label}: rank {i} final virtual time");
        assert_eq!(s.stats, p.stats, "{label}: rank {i} MPI stats");
    }
}

/// Healthy 4,096-rank run: every due set of the compute phase is the full
/// world, far above the parallel-dispatch threshold, so the worker pool
/// genuinely runs — and must change nothing.
#[test]
fn healthy_4096_ranks_bitwise_identical_across_worker_counts() {
    let make = || ClusterConfig::quiet(4096).build();
    let serial = run_plain_with_workers(SCALE_WORKLOAD, &make, 1);
    for workers in [2, 4] {
        let parallel = run_plain_with_workers(SCALE_WORKLOAD, &make, workers);
        assert_rank_results_identical(&serial, &parallel, &format!("workers={workers}"));
    }
}

/// Node death mid-run at 4,096 ranks: the death announcement happens
/// *during* a resume phase, the survivors' shrunken collectives complete
/// through the end-of-phase control plane — all of it must land on the
/// same virtual instants regardless of the worker count.
#[test]
fn node_death_4096_ranks_bitwise_identical_across_worker_counts() {
    let (cluster, _) = scenarios::node_death(4096, 4, 0.55, 7, 2);
    let make = || cluster.clone().with_ranks_per_node(2).build();
    let serial = run_plain_with_workers(BAD_NODE_SRC, &make, 1);
    let dead = serial
        .iter()
        .filter(|r| r.stats.collectives < serial[0].stats.collectives.max(1))
        .count();
    let parallel = run_plain_with_workers(BAD_NODE_SRC, &make, 4);
    assert_rank_results_identical(&serial, &parallel, "node-death workers=4");
    // The scenario actually exercised the fail-stop path on both runs.
    assert!(dead > 0, "the fault plan must kill at least one rank");
}

/// Full instrumented run (sensors, telemetry transport, analysis server,
/// rendered report) at a scale where group releases still clear the
/// parallel threshold: every observable — matrices, events, report text —
/// must be bitwise identical across worker counts.
#[test]
fn instrumented_run_report_identical_across_worker_counts() {
    let src = r#"
        fn main() {
            int p = mpi_comm_size();
            int r = mpi_comm_rank();
            int right = (r + 1) % p;
            for (it = 0; it < 10; it = it + 1) {
                for (k = 0; k < 4; k = k + 1) { compute(1800); }
                mem_access(4096);
                int got = mpi_sendrecv(right, 512, 0 - 1, it);
                mpi_allreduce(128);
            }
            mpi_barrier();
        }
    "#;
    let run_with = |workers: usize| -> InstrumentedRun {
        let prepared = Pipeline::new().compile(src).expect("program compiles");
        let config = RunConfig {
            runtime: RuntimeConfig::default(),
            sim: SimBackend::Event { workers },
            ..RunConfig::default()
        };
        prepared.run(Arc::new(ClusterConfig::quiet(512).build()), &config)
    };
    let serial = run_with(1);
    let parallel = run_with(3);
    for (i, (s, p)) in serial.ranks.iter().zip(parallel.ranks.iter()).enumerate() {
        assert_eq!(s.end, p.end, "rank {i} final virtual time");
        assert_eq!(s.stats, p.stats, "rank {i} MPI stats");
        assert_eq!(s.distribution, p.distribution, "rank {i} distribution");
        assert_eq!(s.transport, p.transport, "rank {i} transport counters");
    }
    assert_eq!(serial.run_time, parallel.run_time, "run time");
    assert_eq!(
        first_mismatch(&serial.server, &parallel.server),
        None,
        "server state must be bitwise identical"
    );
    assert_eq!(
        serial.report.render(),
        parallel.report.render(),
        "rendered report"
    );
}
