//! Trace completeness over the degraded-transport scenario: everything
//! the runtime's own counters say happened must appear in the exported
//! trace — exactly once — and sensor spans must nest properly per rank.
//!
//! Every test in this file drives a full traced run (session-holding, so
//! concurrent tests serialize on the process-global session lock); the
//! assertions tie trace counts to independently-maintained statistics,
//! which is what makes them "exactly once" rather than "at least once".

use cluster_sim::trace::{Category, EventKind};
use vsensor_bench::{trace_run, Effort};

#[test]
fn every_retry_and_detect_pass_is_traced_exactly_once() {
    let r = trace_run::run(Effort::Smoke);
    let count_named = |cat, name| r.trace.of(cat).filter(|e| e.name == name).count() as u64;
    assert_eq!(
        r.trace.dropped, 0,
        "smoke run must fit the buffers or counts are meaningless"
    );

    // Transport: the merged sender-side counters are maintained by the
    // transport itself; the trace must agree event-for-event.
    let stats = &r.run.report.transport;
    assert!(stats.retries > 0, "lossy scenario must retry: {stats:?}");
    assert_eq!(
        count_named(Category::TRANSPORT, "retry"),
        stats.retries,
        "every transport retry appears exactly once"
    );
    assert_eq!(
        count_named(Category::TRANSPORT, "drop"),
        stats.total_dropped(),
        "every dropped batch appears exactly once"
    );

    // Engine: detection passes and accepted ingests, against the server's
    // own load accounting.
    let load = &r.run.report.load;
    assert!(load.detect_passes > 0);
    assert_eq!(
        count_named(Category::ENGINE, "detect_pass"),
        load.detect_passes,
        "every detection pass appears exactly once"
    );
    let shard_batches: u64 = load.shards.iter().map(|s| s.batches).sum();
    assert_eq!(
        count_named(Category::ENGINE, "ingest"),
        shard_batches,
        "every accepted batch's ingest appears exactly once"
    );
}

#[test]
fn sensor_spans_nest_properly_on_every_rank_lane() {
    let r = trace_run::run(Effort::Smoke);
    let lanes = r.trace.rank_lanes();
    assert_eq!(lanes.len(), r.ranks, "every rank emitted events");
    for rank in lanes {
        // Per-lane drain order is the rank thread's program order, so a
        // stack walk is exact: Begin opens, End closes the innermost.
        let mut depth: i64 = 0;
        let mut begins = 0u64;
        let mut ends = 0u64;
        for ev in r.trace.events.iter().filter(|e| e.pid == rank) {
            if ev.cat != Category::SENSOR {
                continue;
            }
            match ev.kind {
                EventKind::Begin => {
                    depth += 1;
                    begins += 1;
                }
                EventKind::End => {
                    depth -= 1;
                    ends += 1;
                    assert!(depth >= 0, "rank {rank}: End without a matching Begin");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "rank {rank}: unbalanced sensor spans");
        assert_eq!(begins, ends, "rank {rank}: Begin/End counts differ");
        assert!(begins > 0, "rank {rank}: no sensor spans at all");
    }
}

#[test]
fn exported_chrome_trace_covers_the_required_categories() {
    let r = trace_run::run(Effort::Smoke);
    let json = r.chrome_json();
    // The acceptance bar: MPI, sensor, transport and engine categories
    // all present in the export, across all rank lanes plus the server.
    for cat in ["mpi", "sensor", "transport", "engine"] {
        assert!(
            json.contains(&format!("\"cat\":\"{cat}\"")),
            "category {cat} missing from Chrome export"
        );
    }
    for rank in 0..r.ranks {
        assert!(
            json.contains(&format!("\"name\":\"rank {rank}\"")),
            "rank {rank} lane metadata missing"
        );
    }
    assert!(json.contains("\"name\":\"analysis server\""));
}
