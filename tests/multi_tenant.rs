//! Multi-tenant service integration tests.
//!
//! The acceptance contract of the service layer:
//!
//! 1. **16-tenant skewed load** (one ~8× hot tenant, one tenant with a
//!    node death over a lossy transport, one tenant that kills the
//!    primary mid-run): every tenant's post-failover result is bitwise
//!    identical to the crash-free service run, healthy tenants are
//!    bitwise identical to solo runs, and admission control engages on
//!    the hot tenant *only* — visible in both the service's front-door
//!    stats and the tenants' transport stats.
//! 2. **Cross-tenant fault isolation**: a tenant losing a node mid-run
//!    while its telemetry path drops batches must leave a co-located
//!    healthy Figure 21 tenant indistinguishable from the same job run
//!    solo against a private server — matrices, events and volume
//!    counters bitwise identical, the live alert stream and rendered
//!    report identical up to the in-flight alert means. Which detection
//!    pass surfaces an alert, and over which ranks, depends on the
//!    arrival order of batches, which the event scheduler makes a
//!    function of the seed.
//! 3. **Promotion under concurrent ingest** loses no journaled batch: with
//!    rank threads ingesting a durable tenant while `fail_over` fires, the
//!    promoted engine equals a from-scratch replay of the tenant's WAL and
//!    the front door accepted exactly the batches the WAL holds.

use std::sync::Arc;
use vsensor_bench::failstop::first_mismatch;
use vsensor_bench::perf_gate::{parse_rows, rows_to_json};
use vsensor_bench::{service_bench, Effort};
use vsensor_repro::cluster_sim::time::Duration;
use vsensor_repro::cluster_sim::{FaultPlan, VirtualTime};
use vsensor_repro::interp::RunConfig;
use vsensor_repro::lang::SensorId;
use vsensor_repro::runtime::{
    AlertKind, AnalysisServer, AnalysisService, Bucket, RuntimeConfig, SensorInfo, SensorKind,
    ServiceConfig, SliceRecord, TelemetryBatch, TenantChannel, TenantId, TenantSpec,
};
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline};

#[test]
fn sixteen_tenant_skew_failover_and_fairness() {
    let r = service_bench::run(Effort::Smoke);
    assert_eq!(r.tenants, 16);
    assert!(
        r.failover_equivalent(),
        "failover mismatch: {:?}",
        r.failover_mismatches
            .iter()
            .flatten()
            .next()
            .map(String::as_str)
    );
    assert!(
        r.isolation_holds(),
        "healthy tenant deviates from solo: {:?}",
        r.healthy_mismatches
            .iter()
            .flatten()
            .next()
            .map(String::as_str)
    );
    assert!(
        r.backpressure_is_fair(),
        "hot {} steady-max {}",
        r.hot_backpressured,
        r.max_steady_backpressured
    );
    // Backpressure is visible on the sender side too: the hot tenant's
    // transport counted its refusals; steady tenants counted none.
    for (run, load) in r.runs.iter().zip(&r.loads) {
        if load.hot {
            assert!(
                run.report.transport.backpressured > 0,
                "hot tenant's transport must have seen Busy nacks"
            );
        } else {
            assert_eq!(
                run.report.transport.backpressured, 0,
                "tenant {} saw backpressure it did not cause",
                load.tenant
            );
        }
    }
    // The study's gated rows survive the baseline file format bit-exactly
    // (rows → text → rows).
    let rows = r.rows();
    assert_eq!(rows.len(), 3);
    assert_eq!(parse_rows(&rows_to_json(&rows)), Ok(rows));
}

/// The Figure 21 bad-node workload (same shape the fail-stop suite uses).
const BAD_NODE_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 2000; t = t + 1) {
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

#[test]
fn faulty_tenant_cannot_perturb_a_healthy_neighbor() {
    let ranks = 16;
    let ranks_per_node = 2;
    let bad_node = 4;
    let prepared = Pipeline::new().compile(BAD_NODE_SRC).unwrap();

    // Solo reference: the healthy fig21 job against a private server.
    let (healthy_cluster, runtime) = scenarios::live_bad_node(ranks, bad_node, 0.55);
    let config = RunConfig {
        runtime: runtime.clone(),
        sim: SimBackend::event(),
        ..Default::default()
    };
    let solo = prepared.run(
        Arc::new(
            healthy_cluster
                .clone()
                .with_ranks_per_node(ranks_per_node)
                .build(),
        ),
        &config,
    );

    // The same job as tenant 0 of a shared service whose tenant 1 loses
    // a node mid-run *and* sends over a transport dropping 10 % of its
    // batches.
    let service = Arc::new(AnalysisService::new(ServiceConfig::default()));
    let spec = |cfg: &RunConfig| TenantSpec {
        ranks,
        sensors: prepared.sensors.clone(),
        config: cfg.runtime.clone(),
    };
    service.register(TenantId(0), spec(&config)).unwrap();
    let (faulty_cluster, faulty_runtime) = scenarios::node_death(ranks, bad_node, 0.55, 7, 8);
    let faulty_config = RunConfig {
        runtime: faulty_runtime,
        sim: SimBackend::event(),
        ..Default::default()
    };
    service.register(TenantId(1), spec(&faulty_config)).unwrap();

    let faulty_plan =
        FaultPlan::lossy(0.10, 0xfau64).with_node_death(7, VirtualTime::from_millis(8));
    let faulty = prepared.run_sink(
        Arc::new(
            faulty_cluster
                .with_faults(faulty_plan.clone())
                .with_ranks_per_node(ranks_per_node)
                .with_trace_lane_base(4096)
                .build(),
        ),
        &faulty_config,
        Arc::new(TenantChannel::new(
            service.clone(),
            TenantId(1),
            faulty_plan,
        )),
    );
    // The faulty tenant really was degraded: deaths reported, and the
    // lossy transport forced retries.
    assert!(!faulty.server.failed_ranks.is_empty());
    assert!(faulty.report.transport.retries > 0);

    let healthy = prepared.run_sink(
        Arc::new(healthy_cluster.with_ranks_per_node(ranks_per_node).build()),
        &config,
        Arc::new(TenantChannel::new(service, TenantId(0), FaultPlan::none())),
    );

    // The healthy tenant is untouched: matrices, events and volume
    // counters are bitwise identical to the solo run.
    assert_eq!(first_mismatch(&healthy.server, &solo.server), None);
    // The live alert stream conveys the same detections: the same kinds
    // over the same rank regions, surfaced by the same detection passes
    // — deterministic because every run here is on the event scheduler.
    // (An alert's emission instant, bin extent and in-flight `mean_perf`
    // are left out of the shape; the end-of-run artifacts above are the
    // bitwise contract.)
    let alert_shape = |alerts: &[vsensor_repro::runtime::VarianceAlert]| {
        alerts
            .iter()
            .map(|a| match &a.kind {
                AlertKind::Variance(e) => (a.pass, Some(e.kind), e.first_rank, e.last_rank),
                AlertKind::RankDeath(d) => (a.pass, None, d.rank, d.rank),
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(alert_shape(&healthy.alerts), alert_shape(&solo.alerts));
    // And so is the operator-facing rendered report, modulo those same
    // live-alert lines.
    let render_without_alerts = |report: &vsensor_repro::runtime::VarianceReport| {
        let mut r = report.clone();
        r.alerts.clear();
        r.render()
    };
    assert_eq!(
        render_without_alerts(&healthy.report),
        render_without_alerts(&solo.report)
    );
}

/// Rank threads ingest one durable tenant while the primary is killed
/// mid-stream. Promotion must quiesce that tenant's ingests: a batch
/// journaled between the replica's final catch-up and the swap of the live
/// engine would be in the WAL and in no engine. Fifty rounds, the kill
/// landing at a different point of the stream in each.
#[test]
fn promotion_under_concurrent_ingest_loses_no_journaled_batch() {
    const RANKS: usize = 4;
    const BATCHES: u64 = 150;
    let tenant = TenantId(0);
    for round in 0..50u64 {
        let service = AnalysisService::new(ServiceConfig::default().durable());
        let spec = TenantSpec {
            ranks: RANKS,
            sensors: vec![SensorInfo {
                sensor: SensorId(0),
                kind: SensorKind::Computation,
                process_invariant: true,
                location: "test:0".into(),
            }],
            config: RuntimeConfig::default(),
        };
        service.register(tenant, spec).unwrap();
        service.attach_standby().unwrap();
        let kill_after = 40 + 9 * round;
        let start = std::sync::Barrier::new(RANKS + 1);
        std::thread::scope(|s| {
            for rank in 0..RANKS {
                let (service, start) = (&service, &start);
                s.spawn(move || {
                    start.wait();
                    for seq in 0..BATCHES {
                        let at = VirtualTime::from_micros(50 * (seq + 1));
                        let records = vec![SliceRecord {
                            sensor: SensorId(0),
                            slice: seq,
                            avg: Duration::from_micros(10 + seq % 7),
                            count: 1,
                            bucket: Bucket(0),
                        }];
                        let batch = TelemetryBatch::new(rank, seq, at, records);
                        service.ingest(tenant, &batch, at).unwrap();
                    }
                });
            }
            start.wait();
            // The kill fires while the ranks are mid-stream.
            while service.stats(tenant).unwrap().accepted < kill_after {
                std::hint::spin_loop();
            }
            service
                .fail_over(VirtualTime::from_micros(50 * kill_after))
                .unwrap();
        });
        assert!(service.failed_over());

        let wal = service.wal(tenant).unwrap();
        let accepted = service.stats(tenant).unwrap().accepted;
        assert_eq!(accepted, RANKS as u64 * BATCHES);
        assert_eq!(
            accepted,
            wal.batch_entries() as u64,
            "round {round}: front door and journal disagree"
        );
        let end = VirtualTime::from_millis(20);
        let promoted = service.close_tenant(tenant, end).unwrap();
        let (replayed, _) = AnalysisServer::replay_from(&wal).unwrap();
        let replayed = replayed.session().close(end);
        assert_eq!(
            first_mismatch(&promoted, &replayed),
            None,
            "round {round}: the promoted engine is not the replay of its own WAL"
        );
    }
}
