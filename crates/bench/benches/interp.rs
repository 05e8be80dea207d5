//! End-to-end interpreter benchmark: the bytecode VM.
//!
//! Times whole instrumented runs of the fig21 (CG) and fig22 (FT)
//! workloads — interpreted-kernel variants, so the interpreter itself is
//! what's measured — at 4 → 64 simulated ranks. The scales are reduced
//! from the paper runs so criterion can sample repeatedly; the `repro
//! interp` experiment measures the full-scale single-shot numbers that go
//! into `BENCH_interp.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use vsensor::{scenarios, Pipeline, Prepared};
use vsensor_apps::{cg, ft, Params};
use vsensor_interp::RunConfig;

fn bench_vm(c: &mut Criterion, name: &str, prepared: &Prepared) {
    let mut g = c.benchmark_group(format!("interp/{name}"));
    g.sample_size(10);
    let config = RunConfig::default();
    for ranks in [4usize, 16, 64] {
        g.bench_function(BenchmarkId::new("vm", ranks), |b| {
            b.iter(|| {
                let cluster = Arc::new(scenarios::healthy(ranks).build());
                prepared.run(cluster, &config)
            });
        });
    }
    g.finish();
}

fn bench_cg(c: &mut Criterion) {
    let params = Params::test().with_iters(20).with_scale(400);
    let prepared = Pipeline::new().prepare(cg::generate_interpreted(params).compile());
    bench_vm(c, "cg-fig21", &prepared);
}

fn bench_ft(c: &mut Criterion) {
    let params = Params::test().with_iters(15).with_scale(400);
    let prepared = Pipeline::new().prepare(ft::generate_interpreted(params).compile());
    bench_vm(c, "ft-fig22", &prepared);
}

criterion_group!(benches, bench_cg, bench_ft);
criterion_main!(benches);
