//! The streaming engine against the record-log replay oracle on
//! hand-built streams: every batch goes through the session's
//! sequence-numbered ingest, and the oracle refolds the same records.
//! The end-to-end runs (the paper's case studies, composed transport
//! faults, a fail-over) are `tests/streaming_equivalence.rs` at the
//! workspace root.

use cluster_sim::time::{Duration, VirtualTime};
use vsensor_lang::SensorId;
use vsensor_oracle::replay::replay;
use vsensor_runtime::{
    AnalysisServer, Bucket, RuntimeConfig, SensorInfo, SensorKind, SliceRecord, TelemetryBatch,
};

fn sensors() -> Vec<SensorInfo> {
    vec![SensorInfo {
        sensor: SensorId(0),
        kind: SensorKind::Computation,
        process_invariant: true,
        location: "s:0".to_string(),
    }]
}

fn rec(slice: u64, avg_us: u64) -> SliceRecord {
    SliceRecord {
        sensor: SensorId(0),
        slice,
        avg: Duration::from_micros(avg_us),
        count: 10,
        bucket: Bucket(0),
    }
}

/// Ingest one single-record batch per `(rank, slice)`, sent and arriving
/// at the slice's millisecond; returns the records the oracle refolds.
fn stream(
    server: &AnalysisServer,
    ranks: usize,
    slices: u64,
    avg_us: impl Fn(usize, u64) -> u64,
) -> Vec<(usize, SliceRecord)> {
    let session = server.session();
    let mut records = Vec::new();
    for slice in 0..slices {
        for rank in 0..ranks {
            let t = VirtualTime::from_millis(slice);
            let r = rec(slice, avg_us(rank, slice));
            let receipt = session
                .ingest(TelemetryBatch::new(rank, slice, t, vec![r]), t)
                .unwrap();
            assert_eq!(receipt.records, 1);
            records.push((rank, r));
        }
    }
    records
}

#[test]
fn streaming_fold_matches_replay_oracle() {
    let sensors = sensors();
    let e = AnalysisServer::try_new(4, sensors.clone(), RuntimeConfig::default())
        .expect("valid config");
    let records = stream(&e, 4, 600, |rank, slice| {
        if rank == 2 && (200..400).contains(&slice) {
            40
        } else {
            10 + (slice % 3)
        }
    });
    let end = VirtualTime::from_millis(600);
    let streamed = e.interim(end);
    let replayed = replay(&e, &sensors, &records, end);
    assert_eq!(streamed.events, replayed.events);
    assert_eq!(streamed.records, replayed.records);
    let sm = streamed.matrix(SensorKind::Computation).unwrap();
    let rm = replayed.matrix(SensorKind::Computation).unwrap();
    for rank in 0..4 {
        for bin in 0..sm.bins() {
            let (ss, sc) = sm.cell_raw(rank, bin).unwrap();
            let (rs, rc) = rm.cell_raw(rank, bin).unwrap();
            assert_eq!(sc, rc);
            assert!((ss - rs).abs() <= 1e-9 * rs.abs().max(1.0), "{ss} vs {rs}");
        }
    }
}

#[test]
fn interim_close_and_replay_agree_on_a_healthy_stream() {
    let sensors = sensors();
    let s = AnalysisServer::try_new(2, sensors.clone(), RuntimeConfig::default())
        .expect("valid config");
    let records = stream(&s, 2, 200, |_, _| 10);
    let end = VirtualTime::from_millis(200);
    let interim = s.interim(end);
    let replayed = replay(&s, &sensors, &records, end);
    let closed = s.session().close(end);
    assert!(closed.events.is_empty());
    assert_eq!(interim.events, closed.events);
    assert_eq!(replayed.events, closed.events);
    assert_eq!(interim.records, closed.records);
    assert_eq!(replayed.records, closed.records);
}
