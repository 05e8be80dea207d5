//! High-level run drivers.
//!
//! [`run_plain`] executes an uninstrumented program (the overhead
//! baseline); [`run_instrumented`] executes an instrumented one with the
//! full dynamic module attached — per-rank sensor runtimes, a shared
//! analysis server, and a final [`VarianceReport`]. Every rank runs on the
//! bytecode VM, a resumable task on simmpi's event scheduler.

use crate::bytecode::{self, CompiledProgram};
use crate::machine::{Machine, MachineResult, SensorHarness};
use crate::validate::{self, ValidationStats};
use crate::vm::{self, VmState};
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::Cluster;
use simmpi::{RankTask, SimBackend, TaskPoll};
use std::sync::Arc;
use vsensor_lang::Program;
use vsensor_runtime::{
    AnalysisServer, AnalysisSink, BatchChannel, DistributionStats, DynamicRule, FaultyChannel,
    RuntimeConfig, SensorInfo, SensorRuntime, ServerResult, TransportStats, VarianceAlert,
    VarianceReport,
};

/// Configuration for an instrumented run.
#[derive(Clone)]
pub struct RunConfig {
    /// Dynamic-module knobs.
    pub runtime: RuntimeConfig,
    /// Active dynamic rule (defaults to constant-expected).
    pub rule: Arc<dyn DynamicRule>,
    /// How many workers the event scheduler resumes same-instant ranks on
    /// (results are bit-identical for every count).
    pub sim: SimBackend,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            runtime: RuntimeConfig::default(),
            rule: Arc::new(vsensor_runtime::dynrules::ConstantExpected),
            sim: SimBackend::default(),
        }
    }
}

/// One rank of a VM run as a resumable scheduler task: the machine owns
/// its `Proc`, the [`VmState`] carries the suspended interpreter, and
/// every `resume` continues the dispatch loop until the next `Pending`
/// MPI operation or the end of `main`.
struct VmTask {
    machine: Machine,
    state: VmState,
    compiled: Arc<CompiledProgram>,
    /// `(lane, start)` of the per-rank VM trace span. Reading the clock
    /// charges nothing, so traced and untraced runs are bit-identical.
    traced: Option<(u32, VirtualTime)>,
}

impl VmTask {
    fn new(
        compiled: Arc<CompiledProgram>,
        proc: simmpi::Proc,
        sensors: Option<SensorHarness>,
    ) -> Self {
        let machine = Machine::new(Box::new(proc), sensors);
        let traced = cluster_sim::trace::enabled(cluster_sim::trace::Category::VM)
            .then(|| (machine.trace_lane(), machine.now()));
        VmTask {
            machine,
            state: VmState::new(),
            compiled,
            traced,
        }
    }
}

impl RankTask for VmTask {
    type Output = MachineResult;

    fn resume(&mut self) -> TaskPoll<MachineResult> {
        match vm::resume_vm(&mut self.machine, &self.compiled, &mut self.state) {
            Ok(true) => {
                let result = self.machine.finalize();
                if let Some((lane, start)) = self.traced {
                    cluster_sim::trace::record(cluster_sim::trace::TraceEvent::complete(
                        cluster_sim::trace::Category::VM,
                        "vm_run",
                        lane,
                        0,
                        start.as_nanos(),
                        result.end.since(start).as_nanos(),
                        0,
                        0,
                    ));
                }
                TaskPoll::Ready(result)
            }
            Ok(false) => TaskPoll::Yielded,
            // Proof: a program error is the rank's outcome by contract —
            // the scheduler relabels this panic `rank N panicked: …`.
            Err(e) => panic!("{e}"),
        }
    }

    fn proc_mut(&mut self) -> &mut simmpi::Proc {
        self.machine.proc()
    }
}

/// Execute `program` on every rank of `cluster`, each rank a VM task;
/// `harness` builds each rank's sensor machinery (`None` for a plain run).
/// A rank the fault plan kills reports its accounting up to the death.
fn run_ranks(
    program: &Program,
    cluster: Arc<Cluster>,
    sim: SimBackend,
    harness: impl Fn(&simmpi::Proc) -> Option<SensorHarness>,
) -> Vec<MachineResult> {
    let compiled = Arc::new(bytecode::compile(program));
    simmpi::World::new(cluster).run_event_workers(
        sim.workers(),
        |_rank, proc| {
            let sensors = harness(&proc);
            VmTask::new(compiled.clone(), proc, sensors)
        },
        dead_rank_result,
    )
}

/// Per-rank outcome (re-exported view over the machine result).
#[derive(Clone, Debug)]
pub struct RankResult {
    /// Final virtual time of the rank.
    pub end: VirtualTime,
    /// Compute/MPI/IO accounting.
    pub stats: simmpi::ProcStats,
    /// Sense distribution (instrumented runs only).
    pub distribution: DistributionStats,
    /// PMU validation data (instrumented runs only).
    pub validation: ValidationStats,
    /// Locally-flagged variance records.
    pub local_variances: u64,
    /// Telemetry-transport counters (zero for plain runs).
    pub transport: TransportStats,
}

impl From<MachineResult> for RankResult {
    fn from(m: MachineResult) -> Self {
        RankResult {
            end: m.end,
            stats: m.stats,
            distribution: m.distribution,
            validation: m.validation,
            local_variances: m.local_variances,
            transport: m.transport,
        }
    }
}

/// Run an uninstrumented program; returns per-rank results. Panics on
/// program runtime errors (deterministic, so they reproduce) with
/// `rank N panicked: runtime error: …`.
pub fn run_plain(program: &Program, cluster: Arc<Cluster>) -> Vec<RankResult> {
    let results = run_ranks(program, cluster, SimBackend::default(), |_| None);
    results.into_iter().map(RankResult::from).collect()
}

/// [`run_plain`] on an explicit scheduler worker count.
pub fn run_plain_shared(
    program: Arc<Program>,
    cluster: Arc<Cluster>,
    sim: SimBackend,
) -> Vec<RankResult> {
    let results = run_ranks(&program, cluster, sim, |_| None);
    results.into_iter().map(RankResult::from).collect()
}

/// The partial result of a rank that fail-stopped mid-run: accounting up
/// to the death instant, no sense data past it.
#[doc(hidden)]
pub fn dead_rank_result(death: simmpi::DeathUnwind, task: &mut impl RankTask) -> MachineResult {
    MachineResult {
        end: death.at,
        stats: task.proc_mut().stats(),
        distribution: DistributionStats::new(),
        validation: ValidationStats::default(),
        local_variances: 0,
        transport: TransportStats::default(),
    }
}

/// Everything an instrumented run produces.
pub struct InstrumentedRun {
    /// Per-rank results.
    pub ranks: Vec<RankResult>,
    /// Server-side analysis: matrices, events, data volume.
    pub server: ServerResult,
    /// The rendered end-of-run report.
    pub report: VarianceReport,
    /// Live alerts the detection stream emitted mid-run, in emission
    /// order (also embedded in `report.alerts`).
    pub alerts: Vec<VarianceAlert>,
    /// The analysis server the run ended on, still holding its
    /// accumulators, fail-stop verdicts and control schedule — what
    /// callers query after the run.
    pub analysis: Arc<AnalysisServer>,
    /// Wall (virtual) time of the run: max over ranks.
    pub run_time: Duration,
    /// `Pm − 1`: the Table 1 workload max error.
    pub workload_max_error: f64,
}

/// Run an instrumented program with the dynamic module attached.
///
/// `sensors` is the sensor table produced by the static module (converted
/// to [`SensorInfo`]); its length must cover every `SensorId` in the
/// program.
pub fn run_instrumented(
    program: &Program,
    sensors: Vec<SensorInfo>,
    cluster: Arc<Cluster>,
    config: &RunConfig,
) -> InstrumentedRun {
    run_instrumented_shared(Arc::new(program.clone()), sensors, cluster, config)
}

/// [`run_instrumented`] without the program clone: runs on the one
/// server-backed sink ([`server_sink`]).
pub fn run_instrumented_shared(
    program: Arc<Program>,
    sensors: Vec<SensorInfo>,
    cluster: Arc<Cluster>,
    config: &RunConfig,
) -> InstrumentedRun {
    let sink = server_sink(&sensors, &cluster, config);
    run_instrumented_sink(program, sensors, cluster, config, sink)
}

/// The sink of a run with a private server: the one-tenant service route
/// [`FaultyChannel::new`] builds under the cluster's fault plan — lossless
/// for a healthy cluster, and a standby promotion when the plan schedules
/// a server crash.
#[doc(hidden)]
pub fn server_sink(
    sensors: &[SensorInfo],
    cluster: &Cluster,
    config: &RunConfig,
) -> Arc<dyn AnalysisSink> {
    let (ranks, sensors, runtime) = (cluster.ranks(), sensors.to_vec(), config.runtime.clone());
    let faults = cluster.faults().clone();
    // A plan with a server crash gets a durable (WAL-backed) server, so
    // its route has a standby to promote.
    let built = if faults.server_crash().is_some() {
        AnalysisServer::try_new_durable(ranks, sensors, runtime).map(|(server, _)| server)
    } else {
        AnalysisServer::try_new(ranks, sensors, runtime)
    };
    // Proof: `Prepared::run`'s signature has no error path; a rejected
    // `RuntimeConfig` is a caller bug, reported with its validation text.
    let server = built.unwrap_or_else(|e| panic!("invalid runtime configuration: {e}"));
    Arc::new(FaultyChannel::new(Arc::new(server), faults))
}

/// Run an instrumented program against an arbitrary [`AnalysisSink`] —
/// the driver underneath [`run_instrumented`], exposed so multi-tenant
/// callers can route a run's telemetry into a shared service
/// (`vsensor_runtime::TenantChannel`) instead of a private server.
///
/// The sink is both the transport target for every rank and the source of
/// the final analysis state: results are read from [`AnalysisSink::server`]
/// *after* the run, so a sink that swapped servers mid-run (standby
/// promotion at a planned crash) resolves to the live instance.
pub fn run_instrumented_sink(
    program: Arc<Program>,
    sensors: Vec<SensorInfo>,
    cluster: Arc<Cluster>,
    config: &RunConfig,
    sink: Arc<dyn AnalysisSink>,
) -> InstrumentedRun {
    let channel: Arc<dyn BatchChannel> = sink.clone();
    let harness = |proc: &simmpi::Proc| Some(sensor_harness(config, sensors.len(), &channel, proc));
    let machine_results = run_ranks(&program, cluster, config.sim, harness);
    assemble_run(machine_results, config, sink)
}

/// One rank's sensor runtime and transport endpoint into `channel`.
#[doc(hidden)]
pub fn sensor_harness(
    config: &RunConfig,
    sensor_count: usize,
    channel: &Arc<dyn BatchChannel>,
    proc: &simmpi::Proc,
) -> SensorHarness {
    let runtime =
        SensorRuntime::with_rule(sensor_count, config.runtime.clone(), config.rule.clone());
    let harness = SensorHarness::with_channel(runtime, proc.rank(), channel.clone());
    harness.with_trace_lane(proc.trace_lane())
}

/// Assemble an instrumented run from its per-rank results (one per rank,
/// in rank order) and the sink they reported into: close the analysis
/// session and build the report.
#[doc(hidden)]
pub fn assemble_run(
    machine_results: Vec<MachineResult>,
    config: &RunConfig,
    sink: Arc<dyn AnalysisSink>,
) -> InstrumentedRun {
    let rank_results: Vec<RankResult> = machine_results.into_iter().map(RankResult::from).collect();
    let ranks = rank_results.len();
    // Read the final state through the sink: if a crash fired, the
    // original server object died with its state and this resolves to the
    // promoted instance.
    let server = sink.server();

    let run_time = rank_results
        .iter()
        .map(|r| r.end)
        .max()
        .unwrap_or(VirtualTime::ZERO)
        .since(VirtualTime::ZERO);

    // Drain any live alerts the detection stream emitted mid-run, then
    // close the ingest session to get the authoritative end-of-run result.
    let mut alerts = server.poll_events();
    let server_result = server.session().close(VirtualTime::ZERO + run_time);
    alerts.extend(server.poll_events());

    let mut distribution = DistributionStats::new();
    let mut transport = TransportStats::default();
    for r in &rank_results {
        distribution.merge(&r.distribution);
        transport.merge(&r.transport);
    }
    let all_validation: Vec<ValidationStats> =
        rank_results.iter().map(|r| r.validation.clone()).collect();
    let workload_max_error = validate::pm(&all_validation) - 1.0;

    let component_means = vsensor_runtime::record::SensorKind::ALL
        .into_iter()
        .map(|k| {
            let mean = server_result.matrix(k).map(|m| m.mean()).unwrap_or(1.0);
            (k, mean)
        })
        .collect();

    let report = VarianceReport {
        events: server_result.events.clone(),
        distribution,
        run_time,
        ranks,
        server_bytes: server_result.bytes_received,
        bin_width: config.runtime.matrix_bin_width(),
        component_means,
        worst_sensors: server_result
            .sensor_summary
            .iter()
            .map(|s| (s.location.clone(), s.kind, s.mean_perf))
            .collect(),
        delivery: server_result.delivery.clone(),
        transport,
        alerts: alerts.clone(),
        failed_ranks: server_result.failed_ranks.clone(),
        load: server_result.load.clone(),
        health: None,
        control: server_result.control.clone(),
    };

    InstrumentedRun {
        ranks: rank_results,
        server: server_result,
        report,
        alerts,
        analysis: server,
        run_time,
        workload_max_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::{ClusterConfig, NodeSpec};
    use vsensor_analysis::{analyze, AnalysisConfig};
    use vsensor_runtime::record::SensorKind;

    /// Compile + analyze + instrument a source, returning program and
    /// sensor table.
    fn prepare(src: &str) -> (Program, Vec<SensorInfo>) {
        let p = vsensor_lang::compile(src).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let sensors = a
            .instrumented
            .sensors
            .iter()
            .map(|s| SensorInfo {
                sensor: s.sensor,
                kind: match s.ty {
                    vsensor_analysis::SnippetType::Computation => SensorKind::Computation,
                    vsensor_analysis::SnippetType::Network => SensorKind::Network,
                    vsensor_analysis::SnippetType::Io => SensorKind::Io,
                },
                process_invariant: s.process_invariant,
                location: format!("{}:{}", s.func, s.span),
            })
            .collect();
        (a.instrumented.program, sensors)
    }

    const STENCIL: &str = r#"
        fn main() {
            for (t = 0; t < 300; t = t + 1) {
                for (k = 0; k < 8; k = k + 1) { compute(2000); }
                mpi_allreduce(512);
            }
        }
    "#;

    #[test]
    fn instrumented_run_produces_records_and_report() {
        let (program, sensors) = prepare(STENCIL);
        assert!(!sensors.is_empty());
        let cluster = Arc::new(ClusterConfig::quiet(4).build());
        let run = run_instrumented(&program, sensors, cluster, &RunConfig::default());
        assert!(run.server.records > 0);
        assert!(run.report.distribution.sense_count > 0);
        // A quiet cluster shows no variance.
        assert!(run.report.events.is_empty(), "{:?}", run.report.events);
        // PMU is exact on quiet clusters.
        assert!(run.workload_max_error.abs() < 1e-9);
    }

    #[test]
    fn overhead_is_small() {
        let (instrumented, sensors) = prepare(STENCIL);
        let plain = vsensor_lang::compile(STENCIL).unwrap();
        let cluster = Arc::new(ClusterConfig::quiet(4).build());
        let base = run_plain(&plain, cluster.clone());
        let inst = run_instrumented(&instrumented, sensors, cluster, &RunConfig::default());
        let t0 = base.iter().map(|r| r.end.as_nanos()).max().unwrap() as f64;
        let t1 = inst.ranks.iter().map(|r| r.end.as_nanos()).max().unwrap() as f64;
        let overhead = (t1 - t0) / t0;
        assert!(overhead >= 0.0, "instrumentation cannot speed things up");
        assert!(overhead < 0.04, "overhead {overhead} must stay under 4%");
    }

    #[test]
    fn bad_node_is_detected() {
        let src = r#"
            fn main() {
                for (t = 0; t < 2000; t = t + 1) {
                    for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
                    mpi_barrier();
                }
            }
        "#;
        let (program, sensors) = prepare(src);
        // 8 ranks, 2 per node; node 2 (ranks 4-5) has slow memory.
        let cluster = Arc::new(
            ClusterConfig::quiet(8)
                .with_ranks_per_node(2)
                .with_node(2, NodeSpec::slow_memory(0.55))
                .build(),
        );
        // A 55%-memory node normalizes to ~0.55 on memory-bound sensors —
        // visible in the matrix but above the default 0.5 threshold, so
        // raise sensitivity the way a user chasing the white line would.
        let mut config = RunConfig::default();
        config.runtime.variance_threshold = 0.7;
        let run = run_instrumented(&program, sensors, cluster, &config);
        let comp_events: Vec<_> = run
            .report
            .events
            .iter()
            .filter(|e| e.kind == SensorKind::Computation)
            .collect();
        assert!(!comp_events.is_empty(), "slow node must be detected");
        let e = comp_events[0];
        assert_eq!((e.first_rank, e.last_rank), (4, 5), "{e:?}");
        let total_bins = (run.run_time.as_nanos()
            / RuntimeConfig::default().matrix_resolution.as_nanos())
            as usize;
        assert!(e.is_persistent(total_bins.max(1)), "{e:?}");
    }

    #[test]
    fn validation_error_reflects_pmu_jitter() {
        let (program, sensors) = prepare(STENCIL);
        let mut cfg = ClusterConfig::quiet(2);
        cfg.pmu = cluster_sim::PmuConfig {
            jitter: 0.03,
            seed: 11,
        };
        let cluster = Arc::new(cfg.build());
        let run = run_instrumented(&program, sensors, cluster, &RunConfig::default());
        assert!(run.workload_max_error > 0.0);
        assert!(
            run.workload_max_error < 0.05,
            "error {} should stay near the PMU jitter",
            run.workload_max_error
        );
    }

    #[test]
    fn plain_run_matches_repeatedly() {
        let plain = vsensor_lang::compile(STENCIL).unwrap();
        let cluster = Arc::new(ClusterConfig::quiet(4).build());
        let a = run_plain(&plain, cluster.clone());
        let b = run_plain(&plain, cluster);
        assert_eq!(
            a.iter().map(|r| r.end).collect::<Vec<_>>(),
            b.iter().map(|r| r.end).collect::<Vec<_>>()
        );
    }
}
