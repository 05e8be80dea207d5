//! Streaming ⇄ batch equivalence: the incremental engine must
//! reach the same conclusions as a classical replay over the raw record
//! stream, on the paper's two case studies (the Figure 21 bad node and
//! the Figure 22 network degradation) at smoke scale, and on the bad node
//! under composed transport faults with and without a server fail-over.
//!
//! Each run's sink is the product's private-server route wrapped in the
//! oracle's [`Recorder`], which keeps every record the engine accepted, so
//! [`replay`] can refold them the way the pre-streaming server did.
//! Events must match exactly; matrix cells may differ only by
//! float-summation reassociation (≤ 1e-9 relative) — the contract stated
//! in `vsensor_oracle::replay`.

use std::sync::Arc;
use vsensor_oracle::replay::{replay, Recorder};
use vsensor_repro::apps::{cg, ft, Params};
use vsensor_repro::cluster_sim::{
    Cluster, Duration, FaultConfig, FaultPlan, NetworkConfig, VirtualTime,
};
use vsensor_repro::interp::run::server_sink;
use vsensor_repro::interp::{InstrumentedRun, RunConfig};
use vsensor_repro::runtime::record::SensorKind;
use vsensor_repro::runtime::{AnalysisSink, DeliveryQuality, RuntimeConfig};
use vsensor_repro::{scenarios, Pipeline, Prepared};

/// The private-server sink a run of `prepared` on `cluster` uses, wrapped
/// in a [`Recorder`].
fn recorder(prepared: &Prepared, cluster: &Cluster, config: &RunConfig) -> Arc<Recorder> {
    let sink = server_sink(&prepared.sensors, cluster, config);
    Arc::new(Recorder::new(sink, &prepared.sensors))
}

/// Streaming result vs. record-log replay: events exact, cells ≤ 1e-9.
fn assert_matches_replay(prepared: &Prepared, run: &InstrumentedRun, recorder: &Recorder) {
    let run_end = VirtualTime::ZERO + run.run_time;
    let oracle = replay(
        &run.analysis,
        &prepared.sensors,
        &recorder.records(),
        run_end,
    );
    assert_eq!(
        run.server.events.len(),
        oracle.events.len(),
        "streaming events must equal the replay oracle's: {:?} vs {:?}",
        run.server.events,
        oracle.events
    );
    for (a, b) in run.server.events.iter().zip(&oracle.events) {
        // Regions must be identical; the region's mean may drift by float
        // reassociation, like the cells it averages.
        assert_eq!(
            (
                a.kind,
                a.first_rank,
                a.last_rank,
                a.start_bin,
                a.end_bin,
                a.cells
            ),
            (
                b.kind,
                b.first_rank,
                b.last_rank,
                b.start_bin,
                b.end_bin,
                b.cells
            ),
            "{a:?} vs {b:?}"
        );
        assert!((a.mean_perf - b.mean_perf).abs() <= 1e-9, "{a:?} vs {b:?}");
    }
    assert_eq!(run.server.records, oracle.records);
    for kind in SensorKind::ALL {
        let streamed = run.server.matrix(kind).unwrap();
        let replayed = oracle.matrix(kind).unwrap();
        assert_eq!(streamed.ranks(), replayed.ranks());
        assert_eq!(streamed.bins(), replayed.bins());
        for rank in 0..streamed.ranks() {
            for bin in 0..streamed.bins() {
                match (streamed.cell(rank, bin), replayed.cell(rank, bin)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        let scale = a.abs().max(b.abs()).max(1e-12);
                        assert!(
                            (a - b).abs() / scale <= 1e-9,
                            "{kind:?} cell ({rank}, {bin}): streamed {a} vs replayed {b}"
                        );
                    }
                    (a, b) => panic!("{kind:?} cell ({rank}, {bin}): {a:?} vs {b:?}"),
                }
            }
        }
    }
}

fn bad_node_prepared() -> Prepared {
    Pipeline::new().prepare(cg::generate(Params::test().with_iters(300)).compile())
}

fn bad_node_cluster(faults: FaultPlan) -> Cluster {
    scenarios::bad_node(16, 2, 0.55)
        .with_ranks_per_node(4)
        .with_faults(faults)
        .build()
}

#[test]
fn fig21_bad_node_streaming_equals_replay() {
    let mut config = RunConfig::default();
    config.runtime = config.runtime.with_variance_threshold(0.7).unwrap();
    let prepared = bad_node_prepared();
    let cluster = bad_node_cluster(FaultPlan::none());
    let rec = recorder(&prepared, &cluster, &config);
    let run = prepared.run_sink(Arc::new(cluster), &config, rec.clone());
    assert_matches_replay(&prepared, &run, &rec);
}

#[test]
fn fig22_network_degradation_streaming_equals_replay() {
    let prepared = Pipeline::new().prepare(ft::generate(Params::test().with_iters(250)).compile());
    // Size the degradation window from a quiet baseline, like the fig22
    // harness does.
    let baseline = prepared.run(
        Arc::new(scenarios::healthy(8).build()),
        &RunConfig::default(),
    );
    let t = baseline.run_time;
    let network = NetworkConfig::default().with_degradation(
        VirtualTime::ZERO + t.mul_f64(0.5),
        VirtualTime::ZERO + t.mul_f64(3.0),
        8.0,
    );
    let cluster = scenarios::healthy(8).with_network(network).build();
    let config = RunConfig::default();
    let rec = recorder(&prepared, &cluster, &config);
    let run = prepared.run_sink(Arc::new(cluster), &config, rec.clone());
    assert_matches_replay(&prepared, &run, &rec);
}

/// The bad node at a 1 ms batch cadence under every per-message fault at
/// once — drops, duplicates, delays that reorder, corruption — with an
/// optional server crash; asserts the faults really fired (and the crash
/// really promoted the standby) before holding streaming to replay.
fn composed_faults_match_replay(seed: u64, crash_at: Option<VirtualTime>) {
    let mut plan = FaultPlan::new(FaultConfig {
        drop_rate: 0.1,
        duplicate_rate: 0.1,
        delay_rate: 0.1,
        max_delay: Duration::from_millis(3),
        corrupt_rate: 0.05,
        seed,
    });
    if let Some(at) = crash_at {
        plan = plan.with_server_crash(at);
    }
    let mut config = RunConfig::default();
    config.runtime = config
        .runtime
        .with_variance_threshold(0.7)
        .and_then(|c| c.with_batch_interval(Duration::from_millis(1)))
        .and_then(|c| c.with_detect_interval(Duration::from_millis(5)))
        .unwrap();
    let prepared = bad_node_prepared();
    let cluster = bad_node_cluster(plan);
    let rec = recorder(&prepared, &cluster, &config);
    let first = rec.server();
    let run = prepared.run_sink(Arc::new(cluster), &config, rec.clone());

    let total = |f: fn(&DeliveryQuality) -> u64| -> u64 { run.server.delivery.iter().map(f).sum() };
    assert!(total(|d| d.duplicates) > 0, "no duplicate arrived");
    assert!(total(|d| d.corrupt) > 0, "no corrupt copy arrived");
    assert!(
        total(|d| d.out_of_order) > 0,
        "no batch arrived out of order"
    );
    if crash_at.is_some() {
        assert!(
            !Arc::ptr_eq(&rec.server(), &first),
            "the crash must promote the standby"
        );
    }
    assert_matches_replay(&prepared, &run, &rec);
}

#[test]
fn composed_faults_streaming_equals_replay() {
    composed_faults_match_replay(7, None);
}

#[test]
fn composed_faults_and_failover_streaming_equals_replay() {
    composed_faults_match_replay(11, Some(VirtualTime::from_millis(10)));
}

#[test]
fn bad_node_raises_a_live_alert_before_the_run_ends() {
    let prepared = Pipeline::new().prepare(cg::generate(Params::test().with_iters(600)).compile());
    let (cluster, runtime) = scenarios::live_bad_node(16, 2, 0.55);
    // The scenario's cadences target paper-scale (multi-second) runs; a
    // smoke run lasts tens of virtual milliseconds, so scale the batch /
    // detection / matrix cadences down with it.
    let config = RunConfig {
        runtime: RuntimeConfig {
            matrix_resolution: Duration::from_millis(5),
            ..runtime
        }
        .with_batch_interval(Duration::from_millis(2))
        .unwrap()
        .with_detect_interval(Duration::from_millis(5))
        .unwrap(),
        ..Default::default()
    };
    let run = prepared.run(Arc::new(cluster.with_ranks_per_node(4).build()), &config);

    // End-of-run detection still fires…
    assert!(
        run.report
            .events
            .iter()
            .any(|e| e.kind == SensorKind::Computation),
        "bad node must be detected: {:?}",
        run.report.events
    );
    // …but the detection stream flagged it while the run was in flight.
    let first = run
        .report
        .alerts
        .iter()
        .map(|a| a.at)
        .min()
        .expect("the detection stream emitted at least one live alert");
    assert!(
        first < VirtualTime::ZERO + run.run_time,
        "live alert at {first} must precede run end ({})",
        run.run_time
    );
    let bad = run
        .alerts
        .iter()
        .filter_map(|a| a.event())
        .find(|e| e.kind == SensorKind::Computation)
        .expect("a computation alert names the bad node");
    assert!(
        bad.first_rank <= 11 && bad.last_rank >= 8,
        "alert must cover the bad node's ranks 8..=11: {bad:?}"
    );
    // Alert timestamps carry the server's virtual clock; every alert sits
    // inside the run.
    assert!(run
        .alerts
        .iter()
        .all(|a| a.at <= VirtualTime::ZERO + run.run_time));
}
