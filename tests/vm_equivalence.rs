//! Differential equivalence suite: the bytecode VM must be *bit-identical*
//! to the tree-walking interpreter (`vsensor-oracle`, test code only) on
//! every observable output.
//!
//! Both share the same work-unit cost model and the same `Machine`
//! side-effect surface (clock, PMU sampling, sensors, transport), so any
//! divergence — in final virtual times, MPI stats, sensor record streams,
//! or even the rendered report text — is a compiler bug, not tolerable
//! drift. Random programs come from an extended `arb_program` that
//! exercises calls, recursion, arrays, `while`/`break`/`continue`, every
//! sensor-relevant builtin class and every fused loop form.

use proptest::prelude::*;
use std::sync::Arc;
use vsensor_repro::cluster_sim::time::VirtualTime;
use vsensor_repro::cluster_sim::{Cluster, ClusterConfig, FaultPlan, NoiseConfig};
use vsensor_repro::interp::{run_plain_shared, InstrumentedRun, RankResult, RunConfig};
use vsensor_repro::lang::Program;
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline, Prepared};

/// A plain run: the VM's `run_plain_shared` or the walker's
/// `vsensor_oracle::run_plain`.
type PlainRun = fn(Arc<Program>, Arc<Cluster>, SimBackend) -> Vec<RankResult>;
const WALKER: PlainRun = vsensor_oracle::run_plain;
const VM: PlainRun = run_plain_shared;

/// Run one prepared program on the walker and on the VM, each on a fresh
/// cluster built from the same configuration (clusters hold per-run RNG
/// state, so each run gets its own identical instance).
fn run_both(
    prepared: &Prepared,
    make_cluster: &dyn Fn() -> Cluster,
    config: &RunConfig,
) -> (InstrumentedRun, InstrumentedRun) {
    let program = Arc::new(prepared.analysis.instrumented.program.clone());
    let sensors = prepared.sensors.clone();
    let walker =
        vsensor_oracle::run_instrumented(program, sensors, Arc::new(make_cluster()), config);
    let vm = prepared.run(Arc::new(make_cluster()), config);
    (walker, vm)
}

/// Assert every observable output of two instrumented runs is identical,
/// down to the rendered report text.
fn assert_runs_identical(walker: &InstrumentedRun, vm: &InstrumentedRun) {
    assert_eq!(walker.ranks.len(), vm.ranks.len());
    for (i, (w, v)) in walker.ranks.iter().zip(vm.ranks.iter()).enumerate() {
        assert_eq!(w.end, v.end, "rank {i} final virtual time");
        assert_eq!(w.stats, v.stats, "rank {i} MPI stats");
        assert_eq!(
            w.distribution, v.distribution,
            "rank {i} sense distribution"
        );
        assert_eq!(
            w.local_variances, v.local_variances,
            "rank {i} local variances"
        );
        assert_eq!(w.transport, v.transport, "rank {i} transport counters");
        assert_eq!(
            w.validation.sensor_count(),
            v.validation.sensor_count(),
            "rank {i} validated sensor count"
        );
        assert_eq!(
            w.validation.pa().to_bits(),
            v.validation.pa().to_bits(),
            "rank {i} PMU validation Pa"
        );
    }
    assert_eq!(walker.run_time, vm.run_time, "run time");
    assert_eq!(
        walker.workload_max_error.to_bits(),
        vm.workload_max_error.to_bits(),
        "workload max error"
    );

    // Server-side view of the record stream.
    assert_eq!(walker.server.records, vm.server.records, "record count");
    assert_eq!(walker.server.batches, vm.server.batches, "batch count");
    assert_eq!(
        walker.server.bytes_received, vm.server.bytes_received,
        "bytes received"
    );
    assert_eq!(
        walker.server.malformed_records, vm.server.malformed_records,
        "malformed records"
    );
    assert_eq!(
        format!("{:?}", walker.server.events),
        format!("{:?}", vm.server.events),
        "detected events"
    );
    assert_eq!(
        format!("{:?}", walker.server.delivery),
        format!("{:?}", vm.server.delivery),
        "per-rank delivery quality"
    );
    assert_eq!(
        format!("{:?}", walker.alerts),
        format!("{:?}", vm.alerts),
        "live alerts"
    );

    // The human-readable report is the final word: bitwise identical text.
    assert_eq!(
        walker.report.render(),
        vm.report.render(),
        "rendered report"
    );
}

fn assert_equivalent(src: &str, make_cluster: &dyn Fn() -> Cluster) {
    let prepared = Pipeline::new().compile(src).expect("program compiles");
    let (walker, vm) = run_both(&prepared, make_cluster, &RunConfig::default());
    assert_runs_identical(&walker, &vm);
}

/// Plain runs of `program` on both interpreters: per-rank end times and
/// stats are identical.
fn assert_plain_identical(program: &Arc<Program>, make_cluster: &dyn Fn() -> Cluster) {
    let walker = WALKER(
        program.clone(),
        Arc::new(make_cluster()),
        SimBackend::event(),
    );
    let vm = VM(
        program.clone(),
        Arc::new(make_cluster()),
        SimBackend::event(),
    );
    assert_eq!(walker.len(), vm.len());
    for (w, v) in walker.iter().zip(&vm) {
        assert_eq!(w.end, v.end, "final virtual time");
        assert_eq!(w.stats, v.stats, "proc stats");
    }
}

// ---------------------------------------------------------------------
// Random program generator — wider than `tests/proptests.rs`: user
// functions with recursion, arrays, while/break/continue, short-circuit
// conditions, all three sensor component classes, and every fused loop
// form with the accumulator flushing inside it.
// ---------------------------------------------------------------------

fn arb_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (1u32..40).prop_map(|n| format!("for (i = 0; i < {n}; i = i + 1) {{ compute({}); }}", n * 37)),
        (1u32..12).prop_map(|n| format!("mpi_allreduce({});", n * 16)),
        (1u32..10).prop_map(|n| format!("mem_access({});", n * 128)),
        (1u32..6).prop_map(|n| format!("io_read({});", n * 64)),
        Just("x = x + helper(4);".to_string()),
        Just("x = fib(7) - fib(6);".to_string()),
        (0u32..8).prop_map(|k| format!("a[{k}] = a[{k}] + x; x = x + a[{}];", (k + 3) % 8)),
        (2u32..9).prop_map(|n| {
            format!(
                "int w = 0; while (w < {n}) {{ w = w + 1; \
                 if (w == 3) {{ continue; }} \
                 if (w > {}) {{ break; }} x = x + w; }}",
                n - 1
            )
        }),
        Just("if (x > 2 && x < 900000) { x = x - 1; } else { x = x + 2; }".to_string()),
        Just("if (x < 0 || x > 1) { x = x / 2; }".to_string()),
        (1u32..5).prop_map(|n| {
            format!("for (b = 0; b < {n}; b = b + 1) {{ for (c = 0; c < 3; c = c + 1) {{ x = x + c * b; }} }}")
        }),
        Just("float f = 1.5; x = x + f * 2.0;".to_string()),
    ];
    // The fused loop forms: a head that carries the first statement's
    // charge (into a `continue`/`break` body, a nested loop or an `if`),
    // steps other than `+ 1`, and per-element float kernels whose trip
    // counts reach past `cost::CHUNK`, so the pending-work accumulator
    // flushes mid-loop — at a head, a body statement or a fused step.
    let loops = prop_oneof![
        (2u32..40, 1u32..6).prop_map(|(n, k)| format!(
            "for (i = 0; i < {n}; i = i + 1) {{ if (i == {k}) {{ continue; }} \
             if (i > {}) {{ break; }} x = x + i; }}",
            n * 2 / 3
        )),
        (1u32..60, 2i64..5).prop_map(|(n, d)| format!(
            "for (i = 0; i < {n}; i = i + {d}) {{ x = x + i; }} \
             for (i = {n}; i > 0; i = i - {d}) {{ x = x - 1; }}"
        )),
        (1u32..20).prop_map(|n| format!(
            "for (b = 0; b < {n}; b = b + 1) {{ while (x > 5000) {{ x = x - 5000; }} x = x + b; }}"
        )),
        (1u32..20).prop_map(|n| format!(
            "for (b = 0; b < {n}; b = b + 3) {{ if (b > 4) {{ x = x + b; }} else {{ x = x - 1; }} }}"
        )),
        // An empty then-branch: its head's exit lands on the next
        // statement's charge, which must stay out of the head.
        (1u32..20).prop_map(|n| format!(
            "for (b = 0; b < {n}; b = b + 1) {{ if (b < 3) {{}} x = x + b; }}"
        )),
        (1u32..4096).prop_map(|n| format!(
            "for (k = 0; k < {n}; k = k + 1) {{ fy[k] = fm[k] * fx[k]; }}"
        )),
        (1u32..4096).prop_map(|n| format!(
            "float s = 0.0; for (k = 0; k < {n}; k = k + 1) {{ s = s + fx[k] * fy[k]; }} x = x + s;"
        )),
        (1u32..1500).prop_map(|n| format!(
            "for (k = 0; k < {n}; k = k + 1) {{ fy[k] = fm[k] * fx[k]; mem_access(16); \
             for (c = 0; c < 2; c = c + 1) {{ compute(40); }} }}"
        )),
    ];
    let stmt = prop_oneof![2 => stmt, 1 => loops];
    proptest::collection::vec(stmt, 1..7).prop_map(|stmts| {
        format!(
            "fn helper(int n) -> int {{ if (n < 2) {{ return 1; }} return n + helper(n - 1); }}\n\
             fn fib(int n) -> int {{ if (n < 2) {{ return n; }} return fib(n - 1) + fib(n - 2); }}\n\
             fn main() {{ int x = 1; int a[8];\n\
             float fx[4096]; float fy[4096]; float fm[4096];\n\
             for (k = 0; k < 4096; k = k + 1) {{ fm[k] = 0.5; fx[k] = 1.0; }}\n\
             {}\nmpi_barrier();\n}}",
            stmts.join("\n")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, quiet cluster: every observable is bit-identical.
    #[test]
    fn random_programs_match_on_quiet_cluster(src in arb_program()) {
        assert_equivalent(&src, &|| ClusterConfig::quiet(2).build());
    }

    /// Random programs on a *noisy* cluster — OS noise and PMU jitter are
    /// derived from work totals and sample keys, so identity here proves
    /// the VM charges the exact same work in the exact same order.
    #[test]
    fn random_programs_match_on_noisy_cluster(src in arb_program(), seed in 0u64..1000) {
        assert_equivalent(&src, &|| {
            let mut cfg = ClusterConfig::healthy(2);
            cfg.noise = NoiseConfig { seed, ..NoiseConfig::default() };
            cfg.build()
        });
    }

    /// Plain (uninstrumented) runs match too.
    #[test]
    fn random_programs_match_plain(src in arb_program()) {
        let program = Arc::new(vsensor_repro::lang::compile(&src).unwrap());
        let walker = WALKER(
            program.clone(),
            Arc::new(ClusterConfig::quiet(2).build()),
            Default::default(),
        );
        let vm = VM(
            program,
            Arc::new(ClusterConfig::quiet(2).build()),
            Default::default(),
        );
        prop_assert_eq!(walker.len(), vm.len());
        for (w, v) in walker.iter().zip(vm.iter()) {
            prop_assert_eq!(w.end, v.end);
            prop_assert_eq!(w.stats, v.stats);
        }
    }
}

// ---------------------------------------------------------------------
// Fixed scenarios that stress paths the generator can't reach cheaply.
// ---------------------------------------------------------------------

const ITERATIVE_SOLVER: &str = r#"
    fn main() {
        int a[16];
        for (it = 0; it < 60; it = it + 1) {
            for (k = 0; k < 16; k = k + 1) { a[k] = a[k] + k; compute(1500); }
            mem_access(4096);
            mpi_allreduce(128);
            if (it - it / 10 * 10 == 0) { io_write(256); }
        }
    }
"#;

/// Lossy fault-injected transport: record batches are dropped, retried and
/// reordered based on virtual send times, so identity proves the VM emits
/// the same batches at the same virtual instants.
#[test]
fn faulty_transport_matches_bitwise() {
    assert_equivalent(ITERATIVE_SOLVER, &|| {
        ClusterConfig::quiet(4)
            .with_faults(FaultPlan::lossy(0.5, 42))
            .build()
    });
}

/// A mid-run network outage window.
#[test]
fn outage_window_matches_bitwise() {
    assert_equivalent(ITERATIVE_SOLVER, &|| {
        ClusterConfig::quiet(4)
            .with_faults(FaultPlan::none().with_outage(
                VirtualTime::from_micros(200),
                VirtualTime::from_micros(60_000),
            ))
            .build()
    });
}

/// Noisy cluster at four ranks with the full solver workload.
#[test]
fn noisy_cluster_solver_matches_bitwise() {
    assert_equivalent(ITERATIVE_SOLVER, &|| {
        let mut cfg = ClusterConfig::healthy(4);
        cfg.noise = NoiseConfig {
            seed: 0xC0FFEE,
            ..NoiseConfig::default()
        };
        cfg.build()
    });
}

/// A node dies mid-run. The VM's death unwinds straight into the scheduler;
/// the walker's unwinds on its rank thread and is forwarded by the
/// lock-step host — survivors' shrunk collectives, degraded receives and
/// death gossip must come out identical either way.
#[test]
fn node_death_matches_bitwise() {
    const SRC: &str = r#"
        fn main() {
            int rank = mpi_comm_rank();
            int size = mpi_comm_size();
            int next = rank + 1;
            if (next == size) { next = 0; }
            int prev = rank - 1;
            if (prev < 0) { prev = size - 1; }
            for (t = 0; t < 400; t = t + 1) {
                for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
                if (t - t / 50 * 50 == 0) { int got = mpi_sendrecv(next, 256, prev, t); }
                mpi_barrier();
            }
        }
    "#;
    let (cluster, runtime) = scenarios::node_death(4, 0, 0.55, 1, 2);
    let prepared = Pipeline::new().compile(SRC).expect("program compiles");
    let config = RunConfig {
        runtime,
        ..RunConfig::default()
    };
    let make_cluster = || cluster.clone().with_ranks_per_node(2).build();
    let (walker, vm) = run_both(&prepared, &make_cluster, &config);
    assert_runs_identical(&walker, &vm);
    assert!(walker.ranks[2].stats.died_at.is_some(), "node 1 was killed");
    assert!(walker.ranks[0].stats.shrunk_collectives > 0);
    assert!(
        walker.ranks[0].stats.peer_dead_recvs > 0,
        "rank 3 stopped sending"
    );
    assert_eq!(
        format!("{:?}", walker.server.failed_ranks),
        format!("{:?}", vm.server.failed_ranks)
    );
    assert_eq!(walker.server.failed_ranks.len(), 2);
}

// ---------------------------------------------------------------------
// The cold sides of the element-access arms, and array value semantics
// through the boxed array payload (DESIGN.md §10, "Value layout").
// ---------------------------------------------------------------------

/// One plain rank under `run`; a program error comes back as its text
/// (the drivers panic with it, labelled with the rank) instead of unwinding.
fn run_one(src: &str, run: PlainRun) -> Result<RankResult, String> {
    let program = Arc::new(vsensor_repro::lang::compile(src).expect("program compiles"));
    let cluster = Arc::new(ClusterConfig::quiet(1).build());
    std::panic::catch_unwind(|| run(program, cluster, SimBackend::event()))
        .map(|mut ranks| ranks.remove(0))
        .map_err(|payload| {
            let text = payload.downcast_ref::<String>().expect("a formatted panic");
            let error = text.strip_prefix("rank 0 panicked: runtime error: ");
            error.expect("the rank's runtime error").to_string()
        })
}

/// Every way an element access can fail, through the generic and each
/// fused instruction form: both backends report the same text, verbatim.
#[test]
fn element_access_errors_match_verbatim() {
    let oob = |i: i64| format!("array index {i} out of bounds (len 4)");
    let cases: Vec<(&str, String)> = vec![
        // Generic forms (computed index: LoadIndexLocal / StoreIndexLocal).
        ("int a[4]; int x = a[0 - 1];", oob(-1)),
        ("int a[4]; int x = a[2 + 2];", oob(4)),
        ("int a[4]; a[0 - 1] = 1;", oob(-1)),
        ("float a[4]; a[2 + 2] = 1;", oob(4)),
        // Float indices truncate toward zero before the bounds check.
        ("int a[4]; int x = a[4.9];", oob(4)),
        ("int a[4]; float k = 0.0 - 1.5; a[k] = 1;", oob(-1)),
        // LoadIndexLV / StoreIndexLV (local array, local index variable).
        ("int a[4]; int k = 0 - 1; int x = a[k];", oob(-1)),
        ("float a[4]; int k = 4; float x = a[k];", oob(4)),
        ("int a[4]; int k = 4; a[k] = 1;", oob(4)),
        ("float a[4]; int k = 0 - 1; a[k] = 1;", oob(-1)),
        // BinOpII: left operand, then right operand.
        (
            "int a[4]; int b[4]; int i = 4; int j = 0; int x = a[i] + b[j];",
            oob(4),
        ),
        (
            "int a[4]; float b[4]; int i = 0; int j = 0 - 1; int x = a[i] * b[j];",
            oob(-1),
        ),
        // BinOpIdx.
        ("int a[4]; int k = 4; int s = 1; s = s + 2 + a[k];", oob(4)),
        (
            "float a[4]; int k = 0 - 1; float s = 1.0; s = s * 2.0 - a[k];",
            oob(-1),
        ),
        // Indexing a scalar, local and global, read and write, fused or not.
        ("int x = 1; int y = x[0];", "indexing a scalar".into()),
        (
            "int x = 1; int k = 0; int y = x[k];",
            "indexing a scalar".into(),
        ),
        ("int x = 1; x[0] = 2;", "indexing a scalar".into()),
        (
            "int x = 1; int k = 0; x[k] = 2;",
            "indexing a scalar".into(),
        ),
        ("int y = g[0];", "indexing a scalar".into()),
        ("g[0] = 2;", "indexing a scalar".into()),
        (
            "int a[4]; int x = 1; int i = 0; int y = a[i] + x[i];",
            "indexing a scalar".into(),
        ),
        (
            "int x = 1; int k = 0; int s = 1; s = s + 2 + x[k];",
            "indexing a scalar".into(),
        ),
        // A non-scalar stored into an element; bounds are judged first.
        (
            "int a[4]; int b[2]; a[0] = b;",
            "storing non-scalar into int array".into(),
        ),
        (
            "float a[4]; int b[2]; int k = 1; a[k] = b;",
            "storing non-scalar into float array".into(),
        ),
        ("int a[4]; int b[2]; int k = 4; a[k] = b;", oob(4)),
        // A non-scalar index.
        (
            "int a[4]; int b[2]; int x = a[b];",
            "array index must be integer".into(),
        ),
        (
            "int a[4]; int b[2]; a[b] = 1;",
            "array index must be integer".into(),
        ),
    ];
    for (body, expected) in cases {
        let src = format!("global int g = 1; fn main() {{ {body} }}");
        let walker = run_one(&src, WALKER).expect_err(&src);
        let vm = run_one(&src, VM).expect_err(&src);
        assert_eq!(walker, vm, "error mismatch for {src}");
        assert_eq!(walker, expected, "error text for {src}");
    }
}

/// Programs that `explode()` (an unknown function: a runtime error) if an
/// array ever holds the wrong contents, and fold what they read into
/// `compute` so a wrong value also shifts virtual time.
const ARRAY_SEMANTICS: &[&str] = &[
    // In-range float indices truncate: a[1.9] is a[1], a[3.99] is a[3].
    r#"fn main() {
        int a[4];
        for (k = 0; k < 4; k = k + 1) { a[k] = 10 * k; }
        float f = 3.99;
        if (a[1.9] != 10) { explode(); }
        if (a[f] != 30) { explode(); }
        a[f] = 7; a[0.5] = 9;
        if (a[3] != 7 || a[0] != 9) { explode(); }
        compute(a[f] * 1000 + a[0.5]);
    }"#,
    // An array handed to a callee is copied: the callee's stores do not
    // reach the caller's array, and the callee sees the caller's values.
    r#"fn poke(int b, int k) -> int {
        if (b[k] != 5) { explode(); }
        b[k] = 99; b[0] = b[0] + 1;
        return b[k] + b[0];
    }
    fn main() {
        int a[4]; float fa[2];
        int k = 2;
        a[k] = 5; fa[1] = 5.0;
        int r = poke(a, k);
        if (r != 100) { explode(); }
        if (a[k] != 5 || a[0] != 0) { explode(); }
        int r2 = poke(a, k);
        if (r2 != 100 || a[k] != 5) { explode(); }
        int fr = poke(fa, 1);
        if (fr != 100 || fa[1] != 5.0 || fa[0] != 0.0) { explode(); }
        int c = a;
        c[k] = 6;
        if (a[k] != 5 || c[k] != 6) { explode(); }
        compute(a[k] * 1000 + r);
    }"#,
    // A declaration re-executed inside a loop starts zeroed every time.
    r#"fn main() {
        int n = 0;
        for (it = 0; it < 5; it = it + 1) {
            int a[6]; float f[3];
            for (k = 0; k < 6; k = k + 1) { if (a[k] != 0) { explode(); } }
            if (f[it - it / 3 * 3] != 0.0) { explode(); }
            a[it] = it + 1; f[it - it / 3 * 3] = 2.5;
            n = n + a[it];
        }
        int w = 0;
        while (w < 3) { int b[2]; if (b[1] != 0) { explode(); } b[1] = 4; w = w + 1; }
        compute(n * 100);
    }"#,
];

#[test]
fn array_semantics_match_through_the_boxed_payload() {
    for src in ARRAY_SEMANTICS {
        let walker = run_one(src, WALKER).unwrap_or_else(|e| panic!("{e}: {src}"));
        let vm = run_one(src, VM).unwrap_or_else(|e| panic!("{e}: {src}"));
        assert_eq!(walker.end, vm.end, "virtual end time for {src}");
        assert_eq!(walker.stats, vm.stats, "proc stats for {src}");
    }
}

/// Arrays in the frame of `main` and of a suspended callee keep their
/// contents while the rank is parked in the event scheduler: every
/// blocking call below yields with the arrays live in the saved `VmState`.
#[test]
fn arrays_survive_yield_and_resume_on_the_event_scheduler() {
    let src = r#"
        fn exchange(int b, int rank) -> int {
            int local[4];
            for (k = 0; k < 4; k = k + 1) { local[k] = b[k] * 2 + rank; }
            mpi_barrier();
            int got = mpi_allreduce_val(8, local[3]);
            for (k = 0; k < 4; k = k + 1) {
                if (local[k] != b[k] * 2 + rank) { explode(); }
            }
            return got;
        }
        fn main() {
            int rank = mpi_comm_rank();
            int a[4]; float f[4];
            for (k = 0; k < 4; k = k + 1) { a[k] = rank * 10 + k; f[k] = k + 0.5; }
            int sum = 0;
            for (it = 0; it < 3; it = it + 1) {
                sum = sum + exchange(a, rank);
                mpi_barrier();
                for (k = 0; k < 4; k = k + 1) {
                    if (a[k] != rank * 10 + k + it) { explode(); }
                    if (f[k] != k + 0.5) { explode(); }
                    a[k] = a[k] + 1;
                }
            }
            compute(sum);
        }
    "#;
    let program = Arc::new(vsensor_repro::lang::compile(src).unwrap());
    let run = |run: PlainRun, sim| {
        run(
            program.clone(),
            Arc::new(ClusterConfig::quiet(4).build()),
            sim,
        )
    };
    let walker = run(WALKER, SimBackend::event());
    let event = run(VM, SimBackend::Event { workers: 2 });
    assert_eq!(walker.len(), event.len());
    for (w, v) in walker.iter().zip(event.iter()) {
        assert_eq!(w.end, v.end);
        assert_eq!(w.stats, v.stats);
    }
}

// ---------------------------------------------------------------------
// Single-rank shapes of the interpreter's three regimes: scalar
// arithmetic with no builtins, the bulk-builtin CG workload (plain and
// instrumented), and the interpreted-kernel array loop.
// ---------------------------------------------------------------------

/// Pure interpreter-bound: scalar arithmetic, no builtins.
const ARITH: &str = r#"
    fn main() {
        int x = 0;
        for (i = 0; i < 200000; i = i + 1) {
            x = x + i * 3 - (i / 2);
            if (x > 1000000) { x = x - 1000000; }
        }
    }
"#;

/// Array-kernel-bound: the interpreted-CG inner loop shape.
const KERNEL: &str = r#"
    fn main() {
        int n = 2000;
        float x[2000]; float y[2000]; float m[2000];
        for (k = 0; k < n; k = k + 1) { x[k] = k; m[k] = k + 1; }
        for (it = 0; it < 40; it = it + 1) {
            for (k = 0; k < n; k = k + 1) { y[k] = m[k] * x[k] + y[k]; }
            float s = 0.0;
            for (k = 0; k < n; k = k + 1) { s = s + x[k] * y[k]; }
            for (k = 0; k < n; k = k + 1) { x[k] = x[k] + 0.5 * y[k]; }
        }
    }
"#;

#[test]
fn scalar_arithmetic_shape_matches() {
    let program = Arc::new(vsensor_repro::lang::compile(ARITH).unwrap());
    assert_plain_identical(&program, &|| scenarios::quiet(1).build());
}

#[test]
fn array_kernel_shape_matches() {
    let program = Arc::new(vsensor_repro::lang::compile(KERNEL).unwrap());
    assert_plain_identical(&program, &|| scenarios::quiet(1).build());
}

#[test]
fn bulk_builtin_cg_shape_matches_plain_and_instrumented() {
    let app =
        vsensor_repro::apps::cg::generate(vsensor_repro::apps::Params::bench().with_iters(600));
    let prepared = Pipeline::new().prepare(app.compile());
    assert_plain_identical(&prepared.plain, &|| scenarios::healthy(1).build());
    let (walker, vm) = run_both(
        &prepared,
        &|| scenarios::healthy(1).build(),
        &RunConfig::default(),
    );
    assert_runs_identical(&walker, &vm);
}
