//! Quick single-rank probe of interpreter backend speed, for iterating on
//! VM optimizations without the full `repro interp` sweep. Three shapes:
//! pure scalar arithmetic, the bulk-builtin CG workload (plain and
//! instrumented), and the interpreted-kernel array-loop shape. Each shape
//! runs under both backends and the two `end=` virtual times are compared:
//! a mismatch is reported and the process exits nonzero, so the probe is a
//! bit-identity spot check as well as a stopwatch (CI runs it after the VM
//! differential suite).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use vsensor::cluster_sim::time::VirtualTime;
use vsensor::cluster_sim::ClusterConfig;
use vsensor::{scenarios, Pipeline};
use vsensor_apps::{cg, Params};
use vsensor_interp::{run_plain_shared, ExecBackend, RunConfig};

/// Pure interpreter-bound: scalar arithmetic, no builtins.
const ARITH: &str = r#"
    fn main() {
        int x = 0;
        for (i = 0; i < 2000000; i = i + 1) {
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
        for (it = 0; it < 400; it = it + 1) {
            for (k = 0; k < n; k = k + 1) { y[k] = m[k] * x[k] + y[k]; }
            float s = 0.0;
            for (k = 0; k < n; k = k + 1) { s = s + x[k] * y[k]; }
            for (k = 0; k < n; k = k + 1) { x[k] = x[k] + 0.5 * y[k]; }
        }
    }
"#;

/// Time `run` under the walker and the VM, print one line each, and say
/// whether their virtual end times agree.
fn probe(label: &str, run: impl Fn(ExecBackend) -> VirtualTime) -> bool {
    let ends = [(ExecBackend::TreeWalker, "walker"), (ExecBackend::Vm, "vm")].map(|(b, name)| {
        let t = Instant::now();
        let end = run(b);
        println!("{label} {name}: {:?} end={end:?}", t.elapsed());
        end
    });
    if ends[0] != ends[1] {
        eprintln!(
            "MISMATCH {label}: walker end={:?} vm end={:?}",
            ends[0], ends[1]
        );
    }
    ends[0] == ends[1]
}

fn plain(
    program: &Arc<vsensor_lang::Program>,
    cluster: ClusterConfig,
    b: ExecBackend,
) -> VirtualTime {
    run_plain_shared(
        program.clone(),
        Arc::new(cluster.build()),
        b,
        Default::default(),
    )[0]
    .end
}

fn main() -> ExitCode {
    let arith = Arc::new(vsensor_lang::compile(ARITH).unwrap());
    let kernel = Arc::new(vsensor_lang::compile(KERNEL).unwrap());
    // CG fig21-scale, 1 rank, plain vs instrumented.
    let prepared = Pipeline::new().prepare(cg::generate(Params::bench().with_iters(600)).compile());

    let checks = [
        probe("arith", |b| plain(&arith, scenarios::quiet(1), b)),
        probe("cg plain", |b| {
            plain(&prepared.plain, scenarios::healthy(1), b)
        }),
        probe("cg instr", |b| {
            let config = RunConfig {
                backend: b,
                ..Default::default()
            };
            prepared
                .run(Arc::new(scenarios::healthy(1).build()), &config)
                .ranks[0]
                .end
        }),
        probe("kernel", |b| plain(&kernel, scenarios::quiet(1), b)),
    ];
    if checks.contains(&false) {
        return ExitCode::FAILURE;
    }
    println!("walker and vm end times identical on all shapes");
    ExitCode::SUCCESS
}
