//! Integration tests for the streaming engine's public surface: session
//! receipts, typed ingest errors, mid-stream alerts, modelled-worker load
//! accounting, builder-config validation, and the `Sync` contract —
//! everything a telemetry producer sees, exercised through the crate root
//! exports only.

use cluster_sim::time::{Duration, VirtualTime};
use vsensor_lang::SensorId;
use vsensor_runtime::dynrules::Bucket;
use vsensor_runtime::record::SliceRecord;
use vsensor_runtime::{
    AnalysisServer, IngestError, RuntimeConfig, SensorInfo, SensorKind, TelemetryBatch,
};

fn sensors(n: u32) -> Vec<SensorInfo> {
    (0..n)
        .map(|i| SensorInfo {
            sensor: SensorId(i),
            kind: SensorKind::Computation,
            process_invariant: true,
            location: format!("s:{i}"),
        })
        .collect()
}

fn rec(slice: u64, avg_us: u64) -> SliceRecord {
    SliceRecord {
        sensor: SensorId(0),
        slice,
        avg: Duration::from_micros(avg_us),
        count: 4,
        bucket: Bucket(0),
    }
}

#[test]
fn receipts_route_ranks_across_shards() {
    // The virtual server models four ingest workers: `rank % 4` names the
    // one a batch is charged to.
    let s =
        AnalysisServer::try_new(10, sensors(1), RuntimeConfig::default()).expect("valid config");
    let session = s.session();
    for rank in 0..10usize {
        let t = VirtualTime::from_micros(rank as u64);
        let r = session
            .ingest(TelemetryBatch::new(rank, 0, t, vec![rec(0, 10)]), t)
            .unwrap();
        assert_eq!(r.shard, rank % 4, "rank {rank}");
        assert_eq!(r.records, 1);
        assert!(r.bytes > 0);
        assert!(!r.duplicate);
    }
    let load = s.load();
    let batches: Vec<u64> = load.shards.iter().map(|sh| sh.batches).collect();
    assert_eq!(batches, [3, 3, 2, 2]);
    let busy: Duration = load.shards.iter().map(|sh| sh.busy).sum();
    assert!(busy + load.detect_busy > Duration::from_nanos(0));
}

#[test]
fn typed_errors_name_the_failure() {
    let s = AnalysisServer::try_new(2, sensors(1), RuntimeConfig::default()).expect("valid config");
    let t = VirtualTime::ZERO;

    let oob = s
        .session()
        .ingest(TelemetryBatch::new(9, 0, t, vec![rec(0, 10)]), t)
        .unwrap_err();
    assert!(matches!(oob, IngestError::Malformed { rank: 9, ranks: 2 }));
    assert!(
        !oob.is_retryable(),
        "resending an impossible rank is futile"
    );

    let corrupt = s
        .session()
        .ingest(
            TelemetryBatch {
                crc: !0,
                ..TelemetryBatch::new(0, 0, t, vec![rec(0, 10)])
            },
            t,
        )
        .unwrap_err();
    assert!(matches!(corrupt, IngestError::Corrupt { rank: 0, seq: 0 }));
    assert!(corrupt.is_retryable(), "a clean retry can still succeed");

    let result = s.session().close(VirtualTime::from_secs(1));
    assert_eq!(result.records, 0);
    let closed = s
        .session()
        .ingest(TelemetryBatch::new(0, 1, t, vec![rec(0, 10)]), t)
        .unwrap_err();
    assert!(matches!(closed, IngestError::Closed));
    assert!(!closed.is_retryable());
}

#[test]
fn slow_rank_raises_an_alert_before_close() {
    // Rank 3 runs 3× slower than the other ranks from the start; with a
    // tight detection cadence the stream must flag it while batches are
    // still arriving.
    let config = RuntimeConfig::default()
        .with_detect_interval(Duration::from_millis(50))
        .unwrap();
    let threshold = config.variance_threshold;
    let s = AnalysisServer::try_new(4, sensors(1), config).expect("valid config");
    let session = s.session();
    let mut live = Vec::new();
    for seq in 0..1200u64 {
        for rank in 0..4usize {
            let avg = if rank == 3 { 30 } else { 10 };
            let t = VirtualTime::from_micros(seq * 1000);
            session
                .ingest(TelemetryBatch::new(rank, seq, t, vec![rec(seq, avg)]), t)
                .unwrap();
        }
        live.extend(session.poll_events());
    }
    assert!(
        !live.is_empty(),
        "the detection stream must fire mid-run, not only at close"
    );
    let end = VirtualTime::from_micros(1200 * 1000);
    let alert = &live[0];
    assert!(alert.at < end, "alert at {} must precede {end}", alert.at);
    let event = alert.event().expect("live alert is a variance event");
    assert_eq!(event.kind, SensorKind::Computation);
    assert!(event.first_rank <= 3 && event.last_rank >= 3);
    assert!(event.mean_perf <= threshold);

    // Close agrees: the end-of-run result reports the same slow rank.
    let result = session.close(end);
    assert!(result
        .events
        .iter()
        .any(|e| e.first_rank <= 3 && e.last_rank >= 3));
    assert!(s.load().detect_passes >= 1);
}

#[test]
fn builder_validation_rejects_bad_knobs() {
    assert!(RuntimeConfig::default()
        .with_variance_threshold(0.0)
        .is_err());
    assert!(RuntimeConfig::default()
        .with_variance_threshold(1.5)
        .is_err());
    assert!(RuntimeConfig::default()
        .with_detect_interval(Duration::from_nanos(0))
        .is_err());
    assert!(RuntimeConfig {
        slice: Duration::from_nanos(0),
        ..Default::default()
    }
    .validate()
    .is_err());
    assert!(RuntimeConfig::default().with_buffer_capacity(0).is_err());

    // A config hand-built around the setters is caught at the door.
    let config = RuntimeConfig {
        buffer_capacity: 0,
        ..Default::default()
    };
    assert!(AnalysisServer::try_new(2, sensors(1), config).is_err());
}

/// The server's `Sync` contract: batches of *different* ranks ingested from
/// several host threads at once leave the same state as any serial order.
/// Each rank's own delivery order is fixed (its thread), so everything
/// rank-keyed — matrix cells, delivery quality — and every sum — volume,
/// per-worker batches/records/busy — must be bit-equal. What legitimately
/// follows lock-acquisition order is not compared: alert timestamps and
/// shapes at emission, `detect_passes`, and a worker clock's `free_at`.
#[test]
fn concurrent_ingest_of_disjoint_ranks_equals_serial_ingest() {
    const THREADS: usize = 4;
    const RANKS: usize = 2 * THREADS; // thread i owns ranks 2i and 2i+1
    const SLOW: usize = 5;
    const CHUNK: u64 = 25;
    const CHUNKS: u64 = 12;
    let config = RuntimeConfig::default()
        .with_detect_interval(Duration::from_millis(50))
        .unwrap();
    let batch = |rank: usize, seq: u64| {
        let sent = VirtualTime::from_millis(seq);
        let avg = if rank == SLOW { 30 } else { 10 };
        let batch = TelemetryBatch::new(rank, seq, sent, vec![rec(seq, avg)]);
        (batch, sent + Duration::from_micros(200))
    };
    // One thread's deliveries for one chunk of virtual time: its two
    // ranks alternate, adjacent sequence numbers swapped (each rank sees
    // its own numbers out of order), and chunk 0 repeats one batch.
    let deliveries = |thread: usize, chunk: u64| {
        let mut out = Vec::new();
        for k in 0..CHUNK {
            let seq = chunk * CHUNK + (k ^ 1).min(CHUNK - 1);
            out.push(batch(2 * thread, seq));
            out.push(batch(2 * thread + 1, seq));
        }
        if chunk == 0 {
            out.push(batch(2 * thread + 1, 3));
        }
        out
    };
    let end = VirtualTime::from_millis(CHUNK * CHUNKS);
    let digest = |s: &AnalysisServer| {
        let r = s.interim(end);
        let cells: Vec<Option<(u64, u32)>> = SensorKind::ALL
            .iter()
            .flat_map(|kind| {
                let m = r.matrix(*kind).unwrap();
                (0..RANKS).flat_map(move |rank| {
                    (0..m.bins())
                        .map(move |bin| m.cell_raw(rank, bin).map(|(sum, n)| (sum.to_bits(), n)))
                })
            })
            .collect();
        let workers: Vec<(u64, u64, Duration)> = r
            .load
            .shards
            .iter()
            .map(|w| (w.batches, w.records, w.busy))
            .collect();
        (
            cells,
            r.events,
            s.stats(),
            format!("{:?}", r.delivery),
            workers,
        )
    };

    let serial = AnalysisServer::try_new(RANKS, sensors(1), config.clone()).expect("valid config");
    for chunk in 0..CHUNKS {
        for thread in 0..THREADS {
            for (b, at) in deliveries(thread, chunk) {
                serial.session().ingest(b, at).unwrap();
            }
        }
    }
    let expected = digest(&serial);
    assert!(expected
        .1
        .iter()
        .any(|e| e.first_rank <= SLOW && SLOW <= e.last_rank));
    let d = &serial.interim(end).delivery[SLOW];
    assert_eq!((d.duplicates, d.gaps), (1, 0));
    assert!(d.out_of_order > 0);

    for round in 0..20 {
        let s = AnalysisServer::try_new(RANKS, sensors(1), config.clone()).expect("valid config");
        // Every thread enters every chunk together, so ingests genuinely
        // overlap and no rank runs a chunk of virtual time ahead.
        let gate = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (s, gate, deliveries) = (&s, &gate, &deliveries);
                scope.spawn(move || {
                    for chunk in 0..CHUNKS {
                        gate.wait();
                        for (b, at) in deliveries(thread, chunk) {
                            s.session().ingest(b, at).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(digest(&s), expected, "round {round}");
        let live = s.poll_events();
        assert!(
            live.iter()
                .filter_map(|a| a.event())
                .any(|e| e.first_rank <= SLOW && SLOW <= e.last_rank),
            "round {round}: no live alert covers the slow rank: {live:?}"
        );
    }
}
