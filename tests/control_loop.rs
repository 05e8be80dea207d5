//! Control-loop integration tests: the server→rank control plane closed
//! over real instrumented runs.
//!
//! The acceptance contract of the control plane:
//!
//! 1. An overhead-budgeted run stays under its instrumentation budget
//!    while still localizing the bad node — the controller darkens the
//!    hot cheap sensor, never the one carrying the localization signal.
//! 2. A live `VarianceAlert` escalates only the suspect ranks from
//!    coarse to fine slices (zoom-in); everyone else stays coarse.
//! 3. A controlled run is bitwise reproducible under a fixed seed with
//!    lossy control channels (drop/dup/delay/corrupt dice on
//!    directives), and lost directives are recovered by retry.
//! 4. A rank that dies mid-epoch has its pending directives cancelled —
//!    never retried forever, never counted as overhead.
//! 5. A server that crashes mid-run and recovers from its WAL resumes
//!    the identical epoch schedule, bitwise.
//!
//! Control decisions happen inside serialized detection passes, and
//! *which* arrival crosses the schedule first is decided by the event
//! scheduler resuming ranks in deterministic `(instant, rank)` order: the
//! whole loop is a pure function of the seed.

use std::sync::{Arc, OnceLock};
use vsensor_bench::failstop::first_mismatch;
use vsensor_repro::cluster_sim::{ClusterConfig, FaultPlan, VirtualTime};
use vsensor_repro::interp::{InstrumentedRun, RunConfig};
use vsensor_repro::runtime::record::SensorKind;
use vsensor_repro::runtime::{
    AlertKind, AnalysisServer, AnalysisSink, DirectChannel, FaultyChannel, RuntimeConfig,
};
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline, Prepared};

/// The bad-node workload with a deliberately hot, cheap compute sensor:
/// the inner `compute(500)` site (sensor 0) fires 8× per iteration — the
/// heaviest sensor by senses, so the budget controller darkens it first —
/// while the `mem_access(25000)` site (sensor 1) is what a slow-memory
/// node actually degrades, so localization must survive the darkening.
const BUDGET_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 8000; t = t + 1) {
            for (k = 0; k < 5; k = k + 1) { compute(500); }
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

/// The same per-iteration mix, run twice as long for the settling test:
/// three ranks take one hysteresis excursion (darken both → relight →
/// re-darken the hot sensor) before converging, and the short run ends
/// mid-excursion.
const LONG_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 16000; t = t + 1) {
            for (k = 0; k < 5; k = k + 1) { compute(500); }
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

/// Barrier-free variant for the escalation test: with no collective to
/// smear the wait onto the healthy ranks, the only live alert is the
/// Computation event pinning the slow node itself — a narrow span, so
/// the zoom-in stays narrow.
const SOLO_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 6000; t = t + 1) {
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            compute(2000);
        }
    }
"#;

const RANKS: usize = 16;
const RANKS_PER_NODE: usize = 2;
const BAD_NODE: usize = 4; // ranks 8-9
const DEAD_NODE: usize = 7; // ranks 14-15
const MEM_PERF: f64 = 0.55;

fn budget_prepared() -> &'static Prepared {
    static PREPARED: OnceLock<Prepared> = OnceLock::new();
    PREPARED.get_or_init(|| Pipeline::new().compile(BUDGET_SRC).unwrap())
}

fn long_prepared() -> &'static Prepared {
    static PREPARED: OnceLock<Prepared> = OnceLock::new();
    PREPARED.get_or_init(|| Pipeline::new().compile(LONG_SRC).unwrap())
}

fn solo_prepared() -> &'static Prepared {
    static PREPARED: OnceLock<Prepared> = OnceLock::new();
    PREPARED.get_or_init(|| Pipeline::new().compile(SOLO_SRC).unwrap())
}

fn run(prepared: &Prepared, cluster: ClusterConfig, runtime: RuntimeConfig) -> InstrumentedRun {
    let config = RunConfig {
        runtime,
        sim: SimBackend::event(),
        ..Default::default()
    };
    prepared.run(
        Arc::new(cluster.with_ranks_per_node(RANKS_PER_NODE).build()),
        &config,
    )
}

/// The worst per-rank cumulative instrumentation-cost fraction of a run,
/// as the budget controller models it.
fn worst_cost_fraction(outcome: &InstrumentedRun) -> f64 {
    let costs = outcome
        .analysis
        .control_costs()
        .expect("control plane must be armed");
    let run_ns = outcome.run_time.as_nanos() as f64;
    costs.iter().map(|&c| c as f64 / run_ns).fold(0.0, f64::max)
}

/// Escalation disabled: a fine slice equal to the coarse slice makes the
/// zoom-in subdivision factor 1, isolating the budget mechanism.
fn no_escalation(runtime: RuntimeConfig) -> RuntimeConfig {
    let slice = runtime.slice;
    runtime
        .with_escalation_slice(slice)
        .expect("the coarse slice trivially divides itself")
}

/// A budget tight enough to force darkening but loose enough that the
/// survivors fit: 0.7× the steady-state cost rate F observed on a
/// permissive reference run (budget 0.5 arms the plane without ever
/// tripping it). Darkening the compute sensor (5 of the 9 senses per
/// iteration) drops the rate to ≈0.44F — inside the (0.35F, 0.7F)
/// hysteresis band, so the controller settles there instead of
/// flapping, and the cumulative spend (ramp-up included) stays under
/// the budget.
fn tight_budget() -> f64 {
    static BUDGET: OnceLock<f64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let (cluster, runtime) = scenarios::overhead_budgeted(RANKS, BAD_NODE, MEM_PERF, 0.5);
        let reference = run(budget_prepared(), cluster, no_escalation(runtime));
        let stats = reference.server.control.as_ref().unwrap();
        assert_eq!(
            stats.sensors_dark, 0,
            "the permissive reference must never darken a sensor"
        );
        assert_eq!(
            stats.epochs_issued, 0,
            "the permissive reference must issue no directives"
        );
        worst_cost_fraction(&reference) * 0.7
    })
}

fn computation_pins(outcome: &InstrumentedRun) -> Vec<(usize, usize)> {
    outcome
        .report
        .events
        .iter()
        .filter(|e| e.kind == SensorKind::Computation)
        .map(|e| (e.first_rank, e.last_rank))
        .collect()
}

/// Rank spans of the live variance alerts, in emission order.
fn live_spans(outcome: &InstrumentedRun) -> Vec<(usize, usize)> {
    outcome
        .alerts
        .iter()
        .filter_map(|a| match &a.kind {
            AlertKind::Variance(e) => Some((e.first_rank, e.last_rank)),
            _ => None,
        })
        .collect()
}

#[test]
fn budget_is_held_and_bad_node_still_localized() {
    let budget = tight_budget();
    let (cluster, runtime) = scenarios::overhead_budgeted(RANKS, BAD_NODE, MEM_PERF, budget);
    let outcome = run(long_prepared(), cluster, no_escalation(runtime));

    // The headline: cumulative per-rank instrumentation cost — ramp-up
    // window included — lands under the configured budget.
    let fraction = worst_cost_fraction(&outcome);
    assert!(
        fraction <= budget,
        "instrumentation cost fraction {fraction} must stay under the budget {budget}"
    );

    // The controller actually did something: every rank darkened its hot
    // compute sensor, and the schedule settled there (no flapping).
    let stats = outcome.server.control.as_ref().unwrap();
    assert_eq!(
        stats.sensors_dark, RANKS as u64,
        "every rank should end with exactly its compute sensor dark: {stats:?}"
    );
    assert!(stats.epochs_issued >= RANKS as u64, "{stats:?}");
    assert!(stats.acked > 0, "{stats:?}");

    // The localizing mem sensor (sensor 1) ends lit on every rank: the
    // hysteresis may darken it transiently while the compute directive
    // is still in flight, but the settled state keeps the signal —
    // localization beats the budget.
    let schedule = outcome.analysis.control_schedule();
    assert!(!schedule.is_empty());
    for rank in 0..RANKS {
        let last = schedule
            .iter()
            .rfind(|e| e.rank == rank)
            .unwrap_or_else(|| panic!("rank {rank} never received a directive"));
        assert_eq!(
            last.disabled,
            vec![0],
            "rank {rank} must settle with exactly the compute sensor dark"
        );
    }

    // And the bad node is still found.
    assert!(
        computation_pins(&outcome).contains(&(8, 9)),
        "bad-node localization must survive the darkening: {:?}",
        outcome.report.events
    );

    // The report tells the story.
    let rendered = outcome.report.render();
    assert!(rendered.contains("control plane:"), "{rendered}");
}

#[test]
fn alert_escalation_zooms_in_on_suspect_ranks_only() {
    // The slow-memory node's observable mem-sensor performance is ~0.75
    // (the slowdown is diluted by the non-memory part of the op), so the
    // scenario's default threshold misses it on a barrier-free workload;
    // 0.85 splits it cleanly from the healthy ranks' ~0.95. And with no
    // barrier the fast ranks finish well before the slow node — stretch
    // the liveness horizon so the tail skew is not mistaken for deaths.
    let (cluster, runtime) = scenarios::alert_escalation(RANKS, BAD_NODE, MEM_PERF, 250);
    let runtime = runtime
        .with_variance_threshold(0.85)
        .expect("threshold stays in (0, 1]")
        .with_liveness_intervals(50)
        .expect("intervals are positive");
    let outcome = run(solo_prepared(), cluster, runtime);

    // The live alerts pin only the bad node's ranks.
    let spans = live_spans(&outcome);
    assert!(!spans.is_empty(), "a live variance alert must fire");
    for &(a, b) in &spans {
        assert!(
            a >= 8 && b <= 9,
            "live alerts must pin the bad node: {spans:?}"
        );
    }

    // Zoom-in: only suspect ranks escalate from the 1000µs coarse slice
    // to 250µs fine slices (subdiv 4); everyone else stays coarse — with
    // the permissive budget they receive no directive at all.
    let schedule = outcome.analysis.control_schedule();
    assert!(!schedule.is_empty(), "escalation must issue directives");
    let mut escalated: Vec<usize> = schedule
        .iter()
        .filter(|e| e.subdiv > 1)
        .map(|e| e.rank)
        .collect();
    escalated.dedup();
    assert!(!escalated.is_empty());
    for e in &schedule {
        assert!(
            (8..=9).contains(&e.rank),
            "only suspect ranks may receive directives: {e:?}"
        );
        assert_eq!(
            e.subdiv, 4,
            "escalation drops 1000µs slices to 250µs: {e:?}"
        );
        assert!(
            e.disabled.is_empty(),
            "escalation must not darken sensors: {e:?}"
        );
    }
    let stats = outcome.server.control.as_ref().unwrap();
    assert_eq!(stats.escalated_ranks, escalated.len() as u64, "{stats:?}");
    assert_eq!(stats.sensors_dark, 0, "{stats:?}");
    // The directive landed mid-run: the zoom-in actually took effect on
    // the rank, it is not a dead letter at run close.
    assert!(stats.acked >= 1, "{stats:?}");
}

#[test]
fn lossy_control_run_is_bitwise_reproducible_and_recovers_losses() {
    let budget = tight_budget();
    let make = || {
        let base = scenarios::overhead_budgeted(RANKS, BAD_NODE, MEM_PERF, budget);
        scenarios::lossy_control(base, 0.1, 7)
    };
    let (cluster, runtime) = make();
    let first = run(budget_prepared(), cluster, no_escalation(runtime));
    let (cluster, runtime) = make();
    let second = run(budget_prepared(), cluster, no_escalation(runtime));

    // Bitwise reproducibility under 10% drop + dup + delay + corrupt
    // dice on the directives (and the telemetry): the dice are a pure
    // function of the seed, so two runs agree bit for bit.
    assert_eq!(
        first_mismatch(&first.server, &second.server),
        None,
        "lossy controlled runs must be bitwise reproducible"
    );
    assert_eq!(
        first.analysis.control_schedule(),
        second.analysis.control_schedule(),
        "the epoch schedule must be identical across reruns"
    );
    assert_eq!(first.report.render(), second.report.render());

    // The dice actually bit, and retries recovered every loss: the run
    // ends with directives acked, some of them lost-then-recovered.
    let stats = first.server.control.as_ref().unwrap();
    assert!(
        stats.lost >= 1,
        "the dice must destroy at least one attempt: {stats:?}"
    );
    assert!(
        stats.recovered >= 1,
        "a lost directive must be recovered by retry: {stats:?}"
    );
    assert!(stats.acked >= 1, "{stats:?}");

    // Loss on the control plane does not cost localization.
    assert!(
        computation_pins(&first).contains(&(8, 9)),
        "{:?}",
        first.report.events
    );
}

#[test]
fn rank_death_mid_epoch_cancels_pending_directives() {
    let budget = tight_budget();
    // Node 7 (ranks 14-15) dies at 350ms: its ranks' cost model already
    // covers the three batches the budget judgment needs, so the pass-4
    // decision at ~400ms — made before the death verdict has landed —
    // still issues their darkening directives. A dead rank never polls,
    // so the directives can only leave the pending set when the verdict
    // cancels them.
    let make = || {
        let (cluster, runtime) = scenarios::node_death(RANKS, BAD_NODE, MEM_PERF, DEAD_NODE, 350);
        let runtime = no_escalation(runtime)
            .with_overhead_budget(budget)
            .expect("budget in range");
        (cluster, runtime)
    };
    let (cluster, runtime) = make();
    let outcome = run(budget_prepared(), cluster, runtime);

    let stats = outcome.server.control.as_ref().unwrap();
    assert!(
        stats.cancelled_dead >= 1,
        "a pending directive must be cancelled by the death verdict: {stats:?}"
    );

    // Both killed ranks are reported dead, and no directive is issued to
    // them after the pass that recorded the death.
    let dead: Vec<usize> = outcome.server.failed_ranks.iter().map(|d| d.rank).collect();
    assert_eq!(dead, vec![14, 15]);
    // Per-rank death verdicts: the two notices can land a pass apart
    // (they ride separate survivor batches). An epoch issued at pass N
    // proves the rank was believed alive at that decision, so every
    // epoch must precede (or share) the pass its death was recorded in.
    let death_pass = |rank: usize| {
        outcome
            .alerts
            .iter()
            .filter_map(|a| match &a.kind {
                AlertKind::RankDeath(d) if d.rank == rank => Some(a.pass),
                _ => None,
            })
            .min()
            .expect("death alerts must be emitted")
    };
    let schedule = outcome.analysis.control_schedule();
    for e in schedule.iter().filter(|e| e.rank >= 14) {
        assert!(
            e.pass <= death_pass(e.rank),
            "no epoch may be issued to a dead rank after its verdict: {e:?}"
        );
    }

    // Localization survives the death, and the whole run is reproducible.
    assert!(
        computation_pins(&outcome).contains(&(8, 9)),
        "{:?}",
        outcome.report.events
    );
    let (cluster, runtime) = make();
    let again = run(budget_prepared(), cluster, runtime);
    assert_eq!(first_mismatch(&outcome.server, &again.server), None);
    assert_eq!(again.analysis.control_schedule(), schedule);
}

#[test]
fn direct_channel_is_the_faulty_channel_under_an_empty_plan() {
    // The same budgeted job through both constructors of the server-backed
    // channel: telemetry fates and control polls must be indistinguishable.
    let budget = tight_budget();
    let via = |sink_of: fn(Arc<AnalysisServer>) -> Arc<dyn AnalysisSink>| {
        let (cluster, runtime) = scenarios::overhead_budgeted(RANKS, BAD_NODE, MEM_PERF, budget);
        let config = RunConfig {
            runtime: no_escalation(runtime),
            sim: SimBackend::event(),
            ..Default::default()
        };
        let prepared = budget_prepared();
        let server =
            AnalysisServer::try_new(RANKS, prepared.sensors.clone(), config.runtime.clone())
                .expect("the scenario's runtime configuration is valid");
        prepared.run_sink(
            Arc::new(cluster.with_ranks_per_node(RANKS_PER_NODE).build()),
            &config,
            sink_of(Arc::new(server)),
        )
    };
    let direct = via(|server| Arc::new(DirectChannel::new(server)));
    let faulty = via(|server| Arc::new(FaultyChannel::new(server, FaultPlan::none())));
    assert_eq!(first_mismatch(&direct.server, &faulty.server), None);
    for (a, b) in direct.ranks.iter().zip(&faulty.ranks) {
        assert_eq!((a.end, &a.transport), (b.end, &b.transport));
    }
    assert_eq!(direct.report.transport, faulty.report.transport);
    let schedule = direct.analysis.control_schedule();
    assert!(!schedule.is_empty(), "the budget must force directives");
    assert_eq!(schedule, faulty.analysis.control_schedule());
    assert_eq!(direct.server.control, faulty.server.control);
}

#[test]
fn server_crash_recovery_resumes_identical_control_schedule() {
    let budget = tight_budget();
    // Crash at 250ms: after the controller's cost model has ingested two
    // batch waves — the decision inputs for the budget judgment — but
    // before the first directive at ~300ms. Every epoch in the schedule
    // is therefore decided by the *recovered* server, from control state
    // the WAL replayed; if the cost model did not ride the WAL the
    // schedule would shift.
    let (cluster, runtime) = scenarios::overhead_budgeted(RANKS, BAD_NODE, MEM_PERF, budget);
    let cluster =
        cluster.with_faults(FaultPlan::none().with_server_crash(VirtualTime::from_millis(250)));
    let crashed = run(budget_prepared(), cluster, no_escalation(runtime));

    let (cluster, runtime) = scenarios::overhead_budgeted(RANKS, BAD_NODE, MEM_PERF, budget);
    let baseline = run(budget_prepared(), cluster, no_escalation(runtime));

    // The recovered server's result is bitwise identical to the
    // crash-free run's, and the recovered controller resumed the exact
    // epoch schedule — the WAL carries the control state.
    assert_eq!(
        first_mismatch(&crashed.server, &baseline.server),
        None,
        "recovered result must be bitwise identical to the crash-free run"
    );
    let schedule = crashed.analysis.control_schedule();
    assert!(
        !schedule.is_empty(),
        "the crash must not erase the schedule"
    );
    assert_eq!(
        schedule,
        baseline.analysis.control_schedule(),
        "the recovered controller must resume the identical epoch schedule"
    );
    let crashed_stats = crashed.server.control.as_ref().unwrap();
    let baseline_stats = baseline.server.control.as_ref().unwrap();
    assert_eq!(crashed_stats.epochs_issued, baseline_stats.epochs_issued);
    assert_eq!(crashed_stats.sensors_dark, baseline_stats.sensors_dark);
    assert!(
        computation_pins(&crashed).contains(&(8, 9)),
        "{:?}",
        crashed.report.events
    );
}
