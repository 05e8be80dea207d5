//! Streaming-engine benchmarks: sharded ingest throughput as the rank
//! count grows (64–512), and the cost of running detection passes *during*
//! the run versus a single end-of-run analysis.
//!
//! The virtual-time detection-latency win (first alert long before the run
//! ends) is asserted in the `streaming_equivalence` integration tests;
//! these benches answer the complementary wall-clock question: what does
//! paying for that earliness cost the server?

use cluster_sim::time::{Duration, VirtualTime};
use criterion::{criterion_group, criterion_main, Criterion};
use vsensor_lang::SensorId;
use vsensor_runtime::dynrules::Bucket;
use vsensor_runtime::{
    AnalysisServer, RuntimeConfig, SensorInfo, SensorKind, SliceRecord, TelemetryBatch,
};

const SENSORS: u32 = 8;
const RECORDS_PER_BATCH: usize = 16;

fn sensors() -> Vec<SensorInfo> {
    (0..SENSORS)
        .map(|i| SensorInfo {
            sensor: SensorId(i),
            kind: SensorKind::Computation,
            process_invariant: true,
            location: format!("bench:{i}"),
        })
        .collect()
}

/// A well-formed batch whose records land in distinct smoothing slices.
fn batch(rank: usize, seq: u64) -> TelemetryBatch {
    let records: Vec<SliceRecord> = (0..RECORDS_PER_BATCH)
        .map(|i| SliceRecord {
            sensor: SensorId(i as u32 % SENSORS),
            slice: seq * RECORDS_PER_BATCH as u64 + i as u64,
            avg: Duration::from_micros(10 + (i % 3) as u64),
            count: 10,
            bucket: Bucket(0),
        })
        .collect();
    TelemetryBatch::new(rank, seq, VirtualTime::from_micros(seq), records)
}

fn bench_ingest_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming/ingest");
    g.sample_size(10);
    for ranks in [64usize, 256, 512] {
        g.bench_function(format!("ingest_16records_{ranks}ranks"), |b| {
            let server = AnalysisServer::try_new(ranks, sensors(), RuntimeConfig::default())
                .expect("valid config");
            let session = server.session();
            let mut seq = 0u64;
            b.iter(|| {
                let rank = seq as usize % ranks;
                let t = VirtualTime::from_micros(seq);
                let receipt = session.ingest(batch(rank, seq), t).expect("accepted");
                seq += 1;
                receipt
            });
        });
    }
    g.finish();
}

fn bench_detection_cadence(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming/detect");
    g.sample_size(10);
    let ranks = 64usize;
    let batches = 512u64;
    // Timestamps span ~2 s of virtual time: the end-of-run variant never
    // crosses a detection interval, the streaming variant crosses ~10.
    let cadences = [
        ("end_of_run", Duration::from_secs(3600)),
        ("streaming_200ms", Duration::from_millis(200)),
    ];
    for (label, interval) in cadences {
        g.bench_function(format!("{label}_{ranks}ranks"), |b| {
            b.iter(|| {
                let config = RuntimeConfig::default()
                    .with_detect_interval(interval)
                    .expect("interval is positive");
                let server =
                    AnalysisServer::try_new(ranks, sensors(), config).expect("valid config");
                let session = server.session();
                for seq in 0..batches {
                    let rank = seq as usize % ranks;
                    let t = VirtualTime::from_millis(seq * 4);
                    let records: Vec<SliceRecord> = (0..RECORDS_PER_BATCH)
                        .map(|i| SliceRecord {
                            sensor: SensorId(i as u32 % SENSORS),
                            slice: seq * 4_000 / 1_000, // 1 ms slices, 4 ms apart
                            avg: Duration::from_micros(10),
                            count: 10,
                            bucket: Bucket(0),
                        })
                        .collect();
                    session
                        .ingest(TelemetryBatch::new(rank, seq, t, records), t)
                        .expect("accepted");
                }
                session.close(VirtualTime::from_secs(3))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ingest_throughput, bench_detection_cadence);
criterion_main!(benches);
