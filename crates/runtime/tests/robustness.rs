//! Robustness tests: degenerate and hostile inputs must not panic or
//! corrupt results — an always-on monitor has no excuse to crash the job
//! it watches.

use cluster_sim::time::{Duration, VirtualTime};
use vsensor_lang::SensorId;
use vsensor_runtime::dynrules::{Bucket, SenseMetrics};
use vsensor_runtime::record::{SensorInfo, SensorKind, SliceRecord};
use vsensor_runtime::{AnalysisServer, RuntimeConfig, SensorRuntime, TelemetryBatch};

fn info(id: u32) -> SensorInfo {
    SensorInfo {
        sensor: SensorId(id),
        kind: SensorKind::Computation,
        process_invariant: true,
        location: format!("t:{id}"),
    }
}

/// Push one batch through the session API.
fn send(s: &AnalysisServer, rank: usize, seq: u64, records: Vec<SliceRecord>) {
    let t = VirtualTime::from_micros(seq);
    s.session()
        .ingest(TelemetryBatch::new(rank, seq, t, records), t)
        .expect("well-formed batch is accepted");
}

#[test]
fn zero_sensor_runtime_is_inert() {
    let mut rt = SensorRuntime::new(0, RuntimeConfig::default());
    assert!(rt.finish(VirtualTime::ZERO).is_empty());
    assert!(!rt.flush_due(VirtualTime::from_secs(100)));
}

#[test]
fn zero_duration_senses_are_handled() {
    let mut rt = SensorRuntime::new(1, RuntimeConfig::free_probes());
    let t = VirtualTime::from_micros(5);
    for _ in 0..100 {
        rt.tick(SensorId(0), t);
        rt.tock(SensorId(0), t, SenseMetrics::default()); // zero length
    }
    let batch = rt.finish(t);
    let total: u32 = batch.iter().map(|r| r.count).sum();
    assert!(total <= 100);
}

#[test]
fn thousands_of_sensors_work() {
    let n = 2000usize;
    let mut rt = SensorRuntime::new(n, RuntimeConfig::free_probes());
    let mut t = VirtualTime::ZERO;
    for round in 0..3 {
        for s in 0..n {
            let _ = round;
            rt.tick(SensorId(s as u32), t);
            t += Duration::from_micros(2);
            rt.tock(SensorId(s as u32), t, SenseMetrics::default());
        }
    }
    let batch = rt.finish(t);
    assert!(!batch.is_empty());
}

#[test]
fn server_with_no_sensors_finalizes_empty() {
    let s = AnalysisServer::try_new(4, Vec::new(), RuntimeConfig::default()).expect("valid config");
    let r = s.session().close(VirtualTime::from_secs(1));
    assert!(r.events.is_empty());
    assert!(r.sensor_summary.is_empty());
    assert_eq!(r.records, 0);
}

#[test]
fn server_tolerates_far_future_slices() {
    let s =
        AnalysisServer::try_new(1, vec![info(0)], RuntimeConfig::default()).expect("valid config");
    send(
        &s,
        0,
        0,
        vec![SliceRecord {
            sensor: SensorId(0),
            slice: u64::MAX / 2,
            avg: Duration::from_micros(10),
            count: 1,
            bucket: Bucket(0),
        }],
    );
    // Closing with a small horizon simply drops out-of-range bins.
    let r = s.session().close(VirtualTime::from_secs(1));
    assert_eq!(r.records, 1);
    assert!(r.events.is_empty());
}

#[test]
fn server_handles_many_buckets() {
    let s =
        AnalysisServer::try_new(1, vec![info(0)], RuntimeConfig::default()).expect("valid config");
    for b in 0..500u32 {
        send(
            &s,
            0,
            b as u64,
            vec![SliceRecord {
                sensor: SensorId(0),
                slice: b as u64,
                avg: Duration::from_micros(10),
                count: 1,
                bucket: Bucket(b),
            }],
        );
    }
    let r = s.session().close(VirtualTime::from_secs(1));
    assert_eq!(r.records, 500);
}

#[test]
fn interleaved_ticks_of_different_sensors_are_independent() {
    // Nested/overlapping senses of *different* sensors (outer sensor
    // containing inner) must both record, matching the instrumentation
    // shape Tick(a) Tick(b) Tock(b) Tock(a).
    let mut rt = SensorRuntime::new(2, RuntimeConfig::free_probes());
    let mut t = VirtualTime::ZERO;
    for _ in 0..200 {
        rt.tick(SensorId(0), t);
        t += Duration::from_micros(1);
        rt.tick(SensorId(1), t);
        t += Duration::from_micros(5);
        rt.tock(SensorId(1), t, SenseMetrics::default());
        t += Duration::from_micros(1);
        rt.tock(SensorId(0), t, SenseMetrics::default());
        t += Duration::from_micros(10);
    }
    let recs = rt.finish(t);
    let s0: u32 = recs
        .iter()
        .filter(|r| r.sensor == SensorId(0))
        .map(|r| r.count)
        .sum();
    let s1: u32 = recs
        .iter()
        .filter(|r| r.sensor == SensorId(1))
        .map(|r| r.count)
        .sum();
    assert_eq!(s0, 200);
    assert_eq!(s1, 200);
}

#[test]
fn duplicate_submissions_only_tighten_standards() {
    // Replaying the same data twice (under fresh sequence numbers, so it
    // passes the duplicate filter) must not create variance where none
    // exists (idempotent standards, doubled counts).
    let s =
        AnalysisServer::try_new(1, vec![info(0)], RuntimeConfig::default()).expect("valid config");
    let batch: Vec<SliceRecord> = (0..50)
        .map(|i| SliceRecord {
            sensor: SensorId(0),
            slice: i,
            avg: Duration::from_micros(10),
            count: 4,
            bucket: Bucket(0),
        })
        .collect();
    send(&s, 0, 0, batch.clone());
    send(&s, 0, 1, batch);
    let r = s.session().close(VirtualTime::from_millis(60));
    assert!(r.events.is_empty());
    assert_eq!(r.records, 100);
}

#[test]
fn replayed_sequence_numbers_are_dropped_as_duplicates() {
    // The same (rank, seq) arriving twice — a transport retry — must be
    // acknowledged but counted only once.
    let s =
        AnalysisServer::try_new(1, vec![info(0)], RuntimeConfig::default()).expect("valid config");
    let records = vec![SliceRecord {
        sensor: SensorId(0),
        slice: 0,
        avg: Duration::from_micros(10),
        count: 4,
        bucket: Bucket(0),
    }];
    let t = VirtualTime::ZERO;
    let batch = TelemetryBatch::new(0, 0, t, records);
    let first = s.session().ingest(batch.clone(), t).unwrap();
    let second = s.session().ingest(batch, t).unwrap();
    assert!(!first.duplicate);
    assert!(second.duplicate);
    assert_eq!(second.records, 0);
    let r = s.session().close(VirtualTime::from_millis(60));
    assert_eq!(r.records, 1);
}
