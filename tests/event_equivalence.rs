//! Golden-pinned equivalence suite for the simulation backend.
//!
//! Every observable output of a run — per-rank end times, `ProcStats`,
//! sense distributions, transport counters, PMU validation, server
//! matrices, events, failed ranks, volume, and (where the scenario asserts
//! it) the live alert stream and the rendered report text — is folded into
//! one FNV-1a fingerprint and compared with a committed constant.
//!
//! **Where the constants come from.** They were captured once from the
//! thread-per-rank backend (one OS thread per rank, parking on blocking
//! calls), the differential oracle of the event scheduler, at the last
//! commit that still had it: in that commit every test below ran the
//! scenario on both backends and asserted
//! `fingerprint(threads) == fingerprint(event) == GOLDEN`. The comparison
//! the oracle made is therefore still made, against its recorded answer.
//! (`NODE_DEATH_RENDERED` is the one constant the event backend supplied
//! alone: under threads the mid-run alert stream of a fail-stop run
//! depended on host-thread arrival interleaving, so the two backends were
//! only ever compared on final state and death-alert count there.)
//!
//! **Re-capturing.** A simulation change that is *meant* to move virtual
//! times moves every constant: run `cargo test --test event_equivalence`,
//! each failing assertion prints the new fingerprint in hex, paste it over
//! the old one and say why in the commit message.
//!
//! **Build-configuration invariance.** Tier-1 runs this suite in debug
//! (`cargo test -q`) and CI runs it in `--release`; both builds must
//! reproduce the same constants, so the suite also pins that virtual-time
//! results do not depend on optimisation level (Bentley et al. in
//! PAPERS.md on compiler-induced variability).
//!
//! 1 ≡ N workers is `tests/worker_invariance.rs`'s job, not this file's.

use std::fmt::Debug;
use std::sync::Arc;
use vsensor_repro::cluster_sim::time::VirtualTime;
use vsensor_repro::cluster_sim::{Cluster, ClusterConfig, FaultPlan, NoiseConfig};
use vsensor_repro::interp::{run_plain_shared, InstrumentedRun, RankResult, RunConfig};
use vsensor_repro::runtime::record::SensorKind;
use vsensor_repro::runtime::RuntimeConfig;
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline};

// Captured from the thread-per-rank backend (see the file header).
const QUIET_64: u64 = 0x4075f00fb2bf32a9;
const NOISY_16: u64 = 0x343fce1595849b74;
const BAD_NODE: u64 = 0x96cb0567b407a333;
const NODE_DEATH_FINAL: u64 = 0xf55a9357ea7e3188;
const NODE_DEATH_RENDERED: u64 = 0x2b9d9d2b5efecab3;
const DEGRADED_TRANSPORT: u64 = 0xf1b98e4ec7f02032;
const OUTAGE_WINDOW: u64 = 0x11750f116bc8face;
const PLAIN_64: u64 = 0x3d3d87720cdc755a;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// Fold a value's `Debug` text: exact for the all-integer stats structs,
/// and shortest-round-trip (so bit-faithful) for the floats inside events.
fn fnv_debug(h: &mut u64, v: &impl Debug) {
    fnv(h, format!("{v:?}").as_bytes());
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a over a run's *final state*: everything that is a function of the
/// simulation's virtual-time semantics alone.
fn fingerprint(run: &InstrumentedRun) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, run.ranks.len() as u64);
    for r in &run.ranks {
        fnv_u64(&mut h, r.end.as_nanos());
        fnv_debug(&mut h, &r.stats);
        fnv_debug(&mut h, &r.distribution);
        fnv_u64(&mut h, r.local_variances);
        fnv_debug(&mut h, &r.transport);
        fnv_u64(&mut h, r.validation.pa().to_bits());
    }
    fnv_u64(&mut h, run.run_time.as_nanos());
    fnv_u64(&mut h, run.workload_max_error.to_bits());
    // Server-side view: events, failed ranks, volume, matrices cell by cell.
    let s = &run.server;
    fnv_debug(&mut h, &s.events);
    fnv_debug(&mut h, &s.failed_ranks);
    for v in [
        s.bytes_received,
        s.batches,
        s.records as u64,
        s.malformed_records,
    ] {
        fnv_u64(&mut h, v);
    }
    for kind in SensorKind::ALL {
        let m = s.matrix(kind).expect("every component has a matrix");
        fnv_u64(&mut h, m.ranks() as u64);
        fnv_u64(&mut h, m.bins() as u64);
        for rank in 0..m.ranks() {
            for bin in 0..m.bins() {
                let (perf, n) = m.cell_raw(rank, bin).unwrap_or((f64::NAN, 0));
                fnv_u64(&mut h, perf.to_bits());
                fnv_u64(&mut h, n as u64);
            }
        }
    }
    h
}

/// [`fingerprint`] plus the live alert stream and the rendered report
/// text — the final word for scenarios without fail-stop deaths.
fn fingerprint_rendered(run: &InstrumentedRun) -> u64 {
    let mut h = fingerprint(run);
    fnv_debug(&mut h, &run.alerts);
    fnv(&mut h, run.report.render().as_bytes());
    h
}

/// The plain-run twin: per-rank end time and MPI accounting.
fn fingerprint_plain(ranks: &[RankResult]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, ranks.len() as u64);
    for r in ranks {
        fnv_u64(&mut h, r.end.as_nanos());
        fnv_debug(&mut h, &r.stats);
    }
    h
}

#[track_caller]
fn assert_golden(what: &str, got: u64, golden: u64) {
    assert_eq!(
        got, golden,
        "{what}: fingerprint {got:#018x} differs from the golden {golden:#018x}"
    );
}

/// Run one instrumented program on the serial scheduler.
fn run_sim(src: &str, cluster: Cluster, runtime: RuntimeConfig) -> InstrumentedRun {
    let prepared = Pipeline::new().compile(src).expect("program compiles");
    let config = RunConfig {
        runtime,
        sim: SimBackend::event(),
        ..RunConfig::default()
    };
    prepared.run(Arc::new(cluster), &config)
}

/// The run must produce the golden rendered fingerprint.
fn assert_golden_with(
    src: &str,
    make_cluster: &dyn Fn() -> Cluster,
    runtime: RuntimeConfig,
    golden: u64,
) {
    let run = run_sim(src, make_cluster(), runtime);
    assert_golden("rendered run", fingerprint_rendered(&run), golden);
}

fn assert_golden_run(src: &str, make_cluster: &dyn Fn() -> Cluster, golden: u64) {
    assert_golden_with(src, make_cluster, RuntimeConfig::default(), golden);
}

/// A stencil-style workload touching every sensor component class plus
/// point-to-point traffic: ring sendrecv, wildcard receives on rank 0,
/// collectives, and periodic I/O.
const MIXED_WORKLOAD: &str = r#"
    fn main() {
        int rank = mpi_comm_rank();
        int size = mpi_comm_size();
        int next = rank + 1;
        if (next == size) { next = 0; }
        for (it = 0; it < 40; it = it + 1) {
            for (k = 0; k < 6; k = k + 1) { compute(1800); }
            mem_access(4096);
            int got = mpi_sendrecv(next, 512, 0 - 1, it);
            mpi_allreduce(128);
            if (it - it / 8 * 8 == 0) { io_write(256); }
        }
        mpi_barrier();
    }
"#;

/// The Figure 21 bad-node workload used by the fail-stop suite.
const BAD_NODE_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 400; t = t + 1) {
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

#[test]
fn quiet_cluster_64_ranks_matches_bitwise() {
    assert_golden_run(
        MIXED_WORKLOAD,
        &|| ClusterConfig::quiet(64).build(),
        QUIET_64,
    );
}

#[test]
fn noisy_cluster_matches_bitwise() {
    assert_golden_run(
        MIXED_WORKLOAD,
        &|| {
            let mut cfg = ClusterConfig::healthy(16);
            cfg.noise = NoiseConfig {
                seed: 0xBEEF,
                ..NoiseConfig::default()
            };
            cfg.build()
        },
        NOISY_16,
    );
}

#[test]
fn bad_node_detection_matches_bitwise() {
    let (cluster, runtime) = scenarios::live_bad_node(16, 4, 0.55);
    assert_golden_with(
        BAD_NODE_SRC,
        &|| cluster.clone().with_ranks_per_node(2).build(),
        runtime,
        BAD_NODE,
    );
}

/// Rank/node fail-stop: survivors shrink collectives, receives from the
/// dead node degrade, and survivor gossip reports the deaths — all at the
/// golden virtual instants.
#[test]
fn node_death_matches_bitwise() {
    let (cluster, runtime) = scenarios::node_death(16, 4, 0.55, 7, 2);
    let cluster = cluster.with_ranks_per_node(2).build();
    let run = run_sim(BAD_NODE_SRC, cluster, runtime);
    assert_golden("final state", fingerprint(&run), NODE_DEATH_FINAL);
    assert_golden(
        "alerts and report",
        fingerprint_rendered(&run),
        NODE_DEATH_RENDERED,
    );
    // The scenario actually exercised the fail-stop path.
    let deaths = run
        .alerts
        .iter()
        .filter(|a| format!("{a:?}").contains("RankDeath"))
        .count();
    assert_eq!(deaths, 2, "one death alert per killed rank");
    assert_eq!(
        run.server.failed_ranks.len(),
        2,
        "both ranks of the killed node must be reported dead"
    );
}

/// Degraded (lossy) telemetry transport: batches drop, retry and reorder
/// by virtual send time; the fingerprint proves the scheduler runs every
/// flush at the same virtual instant the parked threads did.
#[test]
fn degraded_transport_matches_bitwise() {
    assert_golden_run(
        MIXED_WORKLOAD,
        &|| {
            ClusterConfig::quiet(8)
                .with_faults(FaultPlan::lossy(0.5, 42))
                .build()
        },
        DEGRADED_TRANSPORT,
    );
}

/// A mid-run analysis-server outage window on top of packet loss.
#[test]
fn outage_window_matches_bitwise() {
    assert_golden_run(
        MIXED_WORKLOAD,
        &|| {
            ClusterConfig::quiet(8)
                .with_faults(FaultPlan::none().with_outage(
                    VirtualTime::from_micros(200),
                    VirtualTime::from_micros(60_000),
                ))
                .build()
        },
        OUTAGE_WINDOW,
    );
}

/// Plain (uninstrumented) runs match per-rank at 64 ranks.
#[test]
fn plain_runs_match_at_64_ranks() {
    let program = Arc::new(vsensor_repro::lang::compile(MIXED_WORKLOAD).expect("program compiles"));
    let ranks = run_plain_shared(
        program,
        Arc::new(ClusterConfig::quiet(64).build()),
        SimBackend::event(),
    );
    assert_golden("plain run", fingerprint_plain(&ranks), PLAIN_64);
}

/// Paper-scale smoke test: 4,096 ranks in one process, finishing a
/// collective workload with all ranks aligned.
#[test]
fn event_backend_runs_4096_ranks() {
    let program = Arc::new(
        vsensor_repro::lang::compile(
            r#"
            fn main() {
                for (it = 0; it < 3; it = it + 1) {
                    compute(2000);
                    mpi_allreduce(64);
                }
                mpi_barrier();
            }
            "#,
        )
        .unwrap(),
    );
    let results = run_plain_shared(
        program,
        Arc::new(ClusterConfig::quiet(4096).build()),
        SimBackend::event(),
    );
    assert_eq!(results.len(), 4096);
    let end = results[0].end;
    assert!(end > VirtualTime::ZERO);
    assert!(
        results.iter().all(|r| r.end == end),
        "the closing barrier must align every rank"
    );
}
