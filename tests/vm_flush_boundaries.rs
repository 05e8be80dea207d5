//! The VM's flush boundaries are the walker's, segment for segment.
//!
//! `tests/vm_equivalence.rs` compares what a run ends with; a flush that
//! moves by a few work units shifts a node's jitter by a fraction of a
//! nanosecond and can round away there. The contract is stronger: the
//! sequence of `Proc::compute` calls, count *and* arguments, is the
//! walker's. Each call is one `compute` span of the `COMPUTE` trace
//! category carrying its work units, so these tests trace both executors
//! and compare the spans per rank lane.
//!
//! Every test here holds the process-global trace session for its whole
//! run; no test in this file may run a simulation without one, or its
//! events would land in another test's trace.

use std::sync::Arc;
use vsensor_repro::cluster_sim::trace::{Category, TraceSession};
use vsensor_repro::cluster_sim::ClusterConfig;
use vsensor_repro::interp::{run_plain_shared, RankResult};
use vsensor_repro::lang::Program;
use vsensor_repro::simmpi::SimBackend;

type PlainRun =
    fn(Arc<Program>, Arc<vsensor_repro::cluster_sim::Cluster>, SimBackend) -> Vec<RankResult>;

/// Per rank lane, the (start, duration, work units) of every compute call.
fn compute_calls(src: &str, run: PlainRun) -> Vec<Vec<(u64, u64, u64)>> {
    let program = Arc::new(vsensor_repro::lang::compile(src).expect("program compiles"));
    let cluster = Arc::new(ClusterConfig::healthy(2).build());
    let session = TraceSession::start(Category::COMPUTE);
    run(program, cluster, SimBackend::event());
    let trace = session.finish();
    assert_eq!(trace.dropped, 0, "the trace holds every call");
    let mut lanes = vec![Vec::new(); 2];
    for e in trace.of(Category::COMPUTE) {
        lanes[e.pid as usize].push((e.ts, e.dur, e.a));
    }
    lanes
}

/// Loops whose iterations charge different unit runs, long enough that
/// the accumulator reaches `cost::CHUNK` dozens of times, at every kind
/// of charge: a loop head, a folded statement charge, a fused step, an
/// element access, and exactly at the end of a folded unit run.
const KERNELS: &[&str] = &[
    r#"fn main() {
        float x[3000]; float y[3000]; float m[3000];
        for (k = 0; k < 3000; k = k + 1) { x[k] = 1.0; m[k] = 0.5; }
        for (it = 0; it < 20; it = it + 1) {
            for (k = 0; k < 3000; k = k + 1) { y[k] = m[k] * x[k]; }
            float s = 0.0;
            for (k = 0; k < 3000; k = k + 1) { s = s + x[k] * y[k]; }
            for (k = 0; k < 3000; k = k + 3) { x[k] = 0.5 * x[k] + y[k]; }
            mpi_allreduce(64);
        }
    }"#,
    r#"fn main() {
        int x = 0;
        for (i = 0; i < 60000; i = i + 1) {
            if (i - i / 7 * 7 == 3) { continue; }
            x = x + i * 3 - (i / 2);
            if (x > 1000000) { x = x - 1000000; }
        }
        for (i = 50000; i > 0; i = i - 2) { if (i < 3) {} x = x + 1; }
    }"#,
    r#"fn main() {
        int a[64];
        for (b = 0; b < 3000; b = b + 1) {
            for (c = 0; c < 64; c = c + 1) { a[c] = a[c] + b; }
            while (a[3] > 5000) { a[3] = a[3] - 5000; }
            mem_access(40);
        }
    }"#,
];

#[test]
fn compute_calls_match_the_walker_call_for_call() {
    for src in KERNELS {
        let walker = compute_calls(src, vsensor_oracle::run_plain);
        let vm = compute_calls(src, run_plain_shared);
        for (rank, (w, v)) in walker.iter().zip(&vm).enumerate() {
            assert!(w.len() > 20, "rank {rank} flushed {} times: {src}", w.len());
            assert_eq!(w, v, "rank {rank} compute calls: {src}");
        }
    }
}
