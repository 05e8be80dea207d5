//! Fault-tolerance integration tests: the rank → analysis-server telemetry
//! path under injected loss, duplication, corruption, and server outages.
//!
//! The robustness contract: detection quality degrades *gracefully* with
//! telemetry loss — moderate loss must not cost the bad-node localization,
//! heavy loss must be visible in the report's delivery metadata, and even a
//! totally dead analysis server must never panic or hang a run.

use std::sync::Arc;
use vsensor_repro::cluster_sim::{Duration, FaultConfig, FaultPlan, VirtualTime};
use vsensor_repro::interp::RunConfig;
use vsensor_repro::runtime::record::SensorKind;
use vsensor_repro::runtime::VarianceReport;
use vsensor_repro::{scenarios, Pipeline};

/// The Figure 21 bad-node workload: memory-bound iterations with a barrier,
/// so a slow-memory node separates cleanly from its peers.
const BAD_NODE_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 2000; t = t + 1) {
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

/// Whether the rendered report carries its "telemetry degraded" section,
/// which it prints when any rank's telemetry was lost or damaged.
fn reports_degraded(report: &VarianceReport) -> bool {
    report.render().contains("telemetry degraded")
}

/// Config tuned for fault tests: frequent small batches (lots of traffic
/// to inject faults into) and the Figure 21 sensitivity threshold.
fn fault_run_config() -> RunConfig {
    let mut config = RunConfig::default();
    config.runtime.variance_threshold = 0.7;
    config.runtime.batch_interval = Duration::from_millis(5);
    config
}

#[test]
fn bad_node_detection_survives_loss_and_an_outage() {
    let prepared = Pipeline::new().compile(BAD_NODE_SRC).unwrap();

    // Baseline (lossless) run to size the run and locate the outage.
    let baseline_cluster = Arc::new(
        scenarios::quiet(8)
            .with_ranks_per_node(2)
            .with_node(2, vsensor_repro::cluster_sim::NodeSpec::slow_memory(0.55))
            .build(),
    );
    let baseline = prepared.run(baseline_cluster, &fault_run_config());
    let t = baseline.run_time;
    assert!(
        baseline
            .report
            .events
            .iter()
            .any(|e| e.kind == SensorKind::Computation && (e.first_rank, e.last_rank) == (4, 5)),
        "baseline must localize the bad node: {:?}",
        baseline.report.events
    );
    assert!(!reports_degraded(&baseline.report), "lossless baseline");

    // Same cluster, but: 10 % of batch sends dropped, plus a full server
    // outage across the middle fifth of the run.
    let mut cfg = scenarios::quiet(8)
        .with_ranks_per_node(2)
        .with_node(2, vsensor_repro::cluster_sim::NodeSpec::slow_memory(0.55));
    cfg.faults = FaultPlan::lossy(0.10, 0x00DD_BA11).with_outage(
        VirtualTime::ZERO + t.mul_f64(0.4),
        VirtualTime::ZERO + t.mul_f64(0.6),
    );
    let run = prepared.run(Arc::new(cfg.build()), &fault_run_config());

    // No panic, no hang (we got here), and the bad node is still localized.
    let comp: Vec<_> = run
        .report
        .events
        .iter()
        .filter(|e| e.kind == SensorKind::Computation)
        .collect();
    assert!(
        comp.iter().any(|e| (e.first_rank, e.last_rank) == (4, 5)),
        "bad node must survive 10% loss + outage: {:?}",
        run.report.events
    );

    // The loss is visible in the delivery metadata, not silently absorbed.
    let stats = &run.report.transport;
    assert!(stats.retries > 0, "drops must trigger retries: {stats:?}");
    assert!(
        stats.unreachable_errors > 0,
        "the outage must register: {stats:?}"
    );
    assert!(
        reports_degraded(&run.report),
        "outage-era batches exceed the retry budget, so the report must \
         flag degraded delivery: {stats:?}"
    );
    assert!(run.report.render().contains("telemetry degraded"));

    // Every batch is accounted for: acked or counted as dropped.
    assert_eq!(
        stats.acked + stats.total_dropped(),
        stats.batches_enqueued,
        "{stats:?}"
    );
}

#[test]
fn heavy_loss_degrades_gracefully() {
    // 55 % of all sends (retries included) vanish. Detection confidence may
    // fall, but the run must terminate, count every loss, and say so.
    let prepared = Pipeline::new().compile(BAD_NODE_SRC).unwrap();
    let cluster = Arc::new(
        scenarios::degraded_transport(8, 2, 0.55, 0.55, 0xBAD_5EED)
            .with_ranks_per_node(2)
            .build(),
    );
    let run = prepared.run(cluster, &fault_run_config());

    let stats = &run.report.transport;
    assert!(
        stats.total_dropped() > 0,
        "residual loss expected: {stats:?}"
    );
    assert!(
        stats.acked > 0,
        "retries still land most batches: {stats:?}"
    );
    assert_eq!(stats.acked + stats.total_dropped(), stats.batches_enqueued);
    assert!(reports_degraded(&run.report));
    assert!(run.report.delivery.iter().any(|d| d.delivery_ratio < 1.0));
    // Server-side bookkeeping agrees: gaps in the sequence space.
    assert!(
        run.report.delivery.iter().any(|d| d.gaps > 0),
        "{:?}",
        run.report.delivery
    );
    assert!(run.report.render().contains("telemetry degraded"));
}

#[test]
fn dead_server_never_hangs_or_panics_the_run() {
    // The server is unreachable for the entire run. The program itself
    // must finish normally; telemetry is dropped and counted.
    let prepared = Pipeline::new().compile(BAD_NODE_SRC).unwrap();
    let mut cfg = scenarios::quiet(8).with_ranks_per_node(2);
    cfg.faults = FaultPlan::none().with_outage(VirtualTime::ZERO, VirtualTime::from_secs(3600));
    let run = prepared.run(Arc::new(cfg.build()), &fault_run_config());

    let stats = &run.report.transport;
    assert!(stats.batches_enqueued > 0);
    assert_eq!(stats.acked, 0, "nothing can land: {stats:?}");
    assert_eq!(stats.total_dropped(), stats.batches_enqueued);
    assert_eq!(run.server.records, 0);
    // No evidence, no events — but the report must say the evidence is gone
    // rather than implying a healthy run.
    assert!(run.report.events.is_empty());
    assert!(reports_degraded(&run.report));
}

#[test]
fn duplication_and_corruption_do_not_distort_the_matrices() {
    // Every batch duplicated and a third corrupted in flight: dedup and
    // CRC-checked retries must leave the analysis identical in spirit —
    // same localization, no double-counted records.
    let prepared = Pipeline::new().compile(BAD_NODE_SRC).unwrap();
    let mut cfg = scenarios::quiet(8)
        .with_ranks_per_node(2)
        .with_node(2, vsensor_repro::cluster_sim::NodeSpec::slow_memory(0.55));
    cfg.faults = FaultPlan::new(FaultConfig {
        duplicate_rate: 1.0,
        corrupt_rate: 0.33,
        seed: 0xC0FFEE,
        ..FaultConfig::default()
    });
    let run = prepared.run(Arc::new(cfg.build()), &fault_run_config());

    assert!(
        run.report
            .events
            .iter()
            .any(|e| e.kind == SensorKind::Computation && (e.first_rank, e.last_rank) == (4, 5)),
        "{:?}",
        run.report.events
    );
    let dup: u64 = run.report.delivery.iter().map(|d| d.duplicates).sum();
    let corrupt: u64 = run.report.delivery.iter().map(|d| d.corrupt).sum();
    assert!(dup > 0, "duplicates must be observed and discarded");
    assert!(corrupt > 0, "corrupted deliveries must be rejected by CRC");
    // Dedup means accepted records == records the server kept.
    let accepted: u64 = run.report.delivery.iter().map(|d| d.accepted).sum();
    assert_eq!(accepted, run.server.batches);
}

#[test]
fn faulty_runs_are_deterministic() {
    // Same seed, same program, same cluster ⇒ bit-identical delivery
    // bookkeeping. Fault injection must not cost reproducibility.
    let prepared = Pipeline::new().compile(BAD_NODE_SRC).unwrap();
    let mk = || {
        let cluster = Arc::new(
            scenarios::degraded_transport(4, 1, 0.55, 0.3, 1234)
                .with_ranks_per_node(2)
                .build(),
        );
        prepared.run(cluster, &fault_run_config())
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.report.transport, b.report.transport);
    assert_eq!(
        a.report.delivery.iter().map(|d| d.gaps).collect::<Vec<_>>(),
        b.report.delivery.iter().map(|d| d.gaps).collect::<Vec<_>>()
    );
    assert_eq!(a.server.records, b.server.records);
}
