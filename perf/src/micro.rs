//! Two fixed-count loops over public functions that the workloads reach
//! only through the interpreter or a transport: the probe pair every
//! sensed snippet pays, and the CRC every batch pays twice (stamped by the
//! sender, verified by the engine).

use crate::sampler;
use cluster_sim::time::{Duration, VirtualTime};
use std::hint::black_box;
use vsensor_lang::SensorId;
use vsensor_runtime::dynrules::SenseMetrics;
use vsensor_runtime::{Bucket, RuntimeConfig, SensorRuntime, SliceRecord, TelemetryBatch};

const SAMPLES: usize = 9;

/// Nanoseconds per `tick`/`tock` pair, `take_batch` every 100 ms of
/// virtual time included: 4 sensors sensed round-robin, 20 µs each, so
/// every 50th pair closes a one-millisecond slice as in `fig21-lossy`.
pub fn tick_pair_ns() -> f64 {
    const PAIRS: u64 = 400_000;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut runtime = SensorRuntime::new(4, RuntimeConfig::default());
            let metrics = SenseMetrics {
                cache_miss_rate: 0.0,
            };
            let ((), secs) = sampler::timed(|| {
                let mut now = VirtualTime::ZERO;
                for i in 0..PAIRS {
                    let sensor = SensorId((i % 4) as u32);
                    now += runtime.tick(sensor, now).cost;
                    now += Duration::from_micros(20);
                    now += runtime.tock(sensor, now, metrics).cost;
                    if runtime.flush_due(now) {
                        black_box(runtime.take_batch(now));
                    }
                }
            });
            black_box(runtime.local_variances());
            secs * 1e9 / PAIRS as f64
        })
        .collect();
    sampler::median(&samples)
}

/// Nanoseconds per record of `TelemetryBatch::new` + `verify` on the
/// 400-record batch the telemetry workloads send.
pub fn crc_ns_per_record() -> f64 {
    const RECORDS: u64 = 400;
    const BATCHES: u64 = 500;
    let records: Vec<SliceRecord> = (0..RECORDS)
        .map(|i| SliceRecord {
            sensor: SensorId((i % 4) as u32),
            slice: i / 4,
            avg: Duration::from_nanos(20_000 + i),
            count: 10,
            bucket: Bucket(0),
        })
        .collect();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let ((), secs) = sampler::timed(|| {
                for seq in 0..BATCHES {
                    let batch = TelemetryBatch::new(7, seq, VirtualTime::ZERO, records.clone());
                    assert!(black_box(&batch).verify());
                }
            });
            secs * 1e9 / (BATCHES * RECORDS) as f64
        })
        .collect();
    sampler::median(&samples)
}
