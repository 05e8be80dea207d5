//! Microbenchmarks of the runtime's hot paths: probe handling, smoothing,
//! history normalization, server ingestion, event detection and the
//! simulated MPI collectives — the pieces whose cost decides the paper's
//! <4% overhead claim.

use cluster_sim::node::Work;
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::ClusterConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use vsensor_lang::SensorId;
use vsensor_runtime::dynrules::{Bucket, SenseMetrics};
use vsensor_runtime::record::{SensorInfo, SensorKind, SliceRecord};
use vsensor_runtime::{AnalysisServer, RuntimeConfig, SensorRuntime, TelemetryBatch};

fn bench_probe_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/probe");
    g.bench_function("tick_tock_pair", |b| {
        let mut rt = SensorRuntime::new(16, RuntimeConfig::default());
        let mut t = VirtualTime::ZERO;
        b.iter(|| {
            rt.tick(SensorId(3), t);
            t += Duration::from_micros(10);
            rt.tock(SensorId(3), t, SenseMetrics::default());
            t += Duration::from_micros(1);
        });
    });
    g.bench_function("tick_tock_disabled", |b| {
        let cfg = RuntimeConfig {
            min_sense_duration: Duration::from_micros(100),
            throttle_probation: 4,
            ..Default::default()
        };
        let mut rt = SensorRuntime::new(1, cfg);
        let mut t = VirtualTime::ZERO;
        // Drive the sensor into the throttled state first.
        for _ in 0..8 {
            rt.tick(SensorId(0), t);
            t += Duration::from_nanos(10);
            rt.tock(SensorId(0), t, SenseMetrics::default());
        }
        assert!(rt.is_disabled(SensorId(0)));
        b.iter(|| {
            rt.tick(SensorId(0), t);
            rt.tock(SensorId(0), t, SenseMetrics::default());
        });
    });
    g.finish();
}

fn bench_server_submit(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/server");
    let sensors: Vec<SensorInfo> = (0..8)
        .map(|i| SensorInfo {
            sensor: SensorId(i),
            kind: SensorKind::Computation,
            process_invariant: true,
            location: format!("bench:{i}"),
        })
        .collect();
    g.bench_function("ingest_64_records", |b| {
        let server = AnalysisServer::try_new(4, sensors.clone(), RuntimeConfig::default())
            .expect("valid config");
        let session = server.session();
        let mut slice = 0u64;
        b.iter(|| {
            let records: Vec<SliceRecord> = (0..64)
                .map(|i| SliceRecord {
                    sensor: SensorId(i % 8),
                    slice,
                    avg: Duration::from_micros(10 + (i % 3) as u64),
                    count: 10,
                    bucket: Bucket(0),
                })
                .collect();
            let t = VirtualTime::from_micros(slice);
            let batch = TelemetryBatch::new(0, slice, t, records);
            slice += 1;
            session.ingest(batch, t).expect("accepted")
        });
    });
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/simmpi");
    g.sample_size(10);
    for ranks in [4usize, 16, 64] {
        g.bench_function(format!("barrier_x100_{ranks}ranks"), |b| {
            let cluster = Arc::new(ClusterConfig::quiet(ranks).build());
            b.iter(|| {
                simmpi::World::new(cluster.clone()).run_hosted(
                    |mut h| {
                        for _ in 0..100 {
                            h.wait(|p| p.barrier());
                        }
                        h.now()
                    },
                    |_, _| unreachable!("no deaths planned"),
                )
            });
        });
    }
    g.finish();
}

fn bench_compute_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/cluster");
    let noisy = ClusterConfig::healthy(4).build();
    g.bench_function("compute_elapsed_noisy", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key += 1;
            noisy.compute_elapsed(0, VirtualTime(key * 1000), Work::cpu(10_000), 0.02, key)
        });
    });
    g.finish();
}

fn bench_detection(c: &mut Criterion) {
    use vsensor_runtime::detect::detect_events;
    use vsensor_runtime::PerformanceMatrix;
    let mut g = c.benchmark_group("micro/detect");
    let mut m = PerformanceMatrix::new(128, 500, Duration::from_millis(200));
    for r in 0..128 {
        for bin in 0..500u64 {
            let v = if r == 40 && (100..200).contains(&bin) {
                0.3
            } else {
                0.95
            };
            m.add(r, bin, v);
        }
    }
    g.bench_function("detect_128x500", |b| {
        b.iter(|| detect_events(&m, SensorKind::Computation, 0.5))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_probe_pair,
    bench_server_submit,
    bench_collectives,
    bench_compute_model,
    bench_detection
);
criterion_main!(benches);
