//! The end-to-end pipeline: compile → identify → instrument → run.

use std::sync::Arc;
use vsensor_analysis::{analyze, Analysis, AnalysisConfig, SnippetType};
use vsensor_interp::{
    run_instrumented_shared, run_instrumented_sink, run_plain_shared, InstrumentedRun, RankResult,
    RunConfig,
};
use vsensor_lang::Program;
use vsensor_runtime::{AnalysisSink, SensorInfo, SensorKind};

/// Pipeline builder: configure the static module, then compile sources.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    config: AnalysisConfig,
}

impl Pipeline {
    /// Default configuration (paper defaults).
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Replace the static-module configuration.
    pub fn with_config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Compile MiniHPC source and run the full static module on it.
    pub fn compile(&self, source: &str) -> Result<Prepared, vsensor_lang::LangError> {
        let program = vsensor_lang::compile(source)?;
        Ok(self.prepare(program))
    }

    /// Run the static module on an already-lowered program.
    pub fn prepare(&self, program: Program) -> Prepared {
        let analysis = analyze(&program, &self.config);
        let sensors = sensor_table(&analysis);
        let instrumented = Arc::new(analysis.instrumented.program.clone());
        Prepared {
            plain: Arc::new(program),
            analysis,
            instrumented,
            sensors,
        }
    }
}

/// Build the runtime sensor table from the static module's sensor metadata.
pub fn sensor_table(analysis: &Analysis) -> Vec<SensorInfo> {
    analysis
        .instrumented
        .sensors
        .iter()
        .map(|s| SensorInfo {
            sensor: s.sensor,
            kind: match s.ty {
                SnippetType::Computation => SensorKind::Computation,
                SnippetType::Network => SensorKind::Network,
                SnippetType::Io => SensorKind::Io,
            },
            process_invariant: s.process_invariant,
            location: format!("{}:{} ({})", s.func, s.span, s.snippet),
        })
        .collect()
}

/// A compiled, analyzed and instrumented program, ready to run.
pub struct Prepared {
    /// The original (uninstrumented) program — the overhead baseline.
    pub plain: Arc<Program>,
    /// Full static-module output.
    pub analysis: Analysis,
    /// Shared handle on the instrumented program so repeated runs don't
    /// deep-clone it per run.
    instrumented: Arc<Program>,
    /// Runtime sensor table.
    pub sensors: Vec<SensorInfo>,
}

impl Prepared {
    /// Number of instrumented sensors.
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// The instrumented source text ("map to source" output, step 3-4 of
    /// Figure 2) — with visible `vs_tick`/`vs_tock` probes.
    pub fn instrumented_source(&self) -> String {
        vsensor_lang::printer::print_program(&self.analysis.instrumented.program)
    }

    /// Run the instrumented program with the dynamic module attached.
    pub fn run(&self, cluster: Arc<cluster_sim::Cluster>, config: &RunConfig) -> InstrumentedRun {
        run_instrumented_shared(
            self.instrumented.clone(),
            self.sensors.clone(),
            cluster,
            config,
        )
    }

    /// Run the instrumented program routing its telemetry into an
    /// arbitrary analysis sink — how a tenant's job joins a shared
    /// [`vsensor_runtime::AnalysisService`] (via a
    /// [`vsensor_runtime::TenantChannel`]) instead of spinning up a
    /// private server.
    pub fn run_sink(
        &self,
        cluster: Arc<cluster_sim::Cluster>,
        config: &RunConfig,
        sink: Arc<dyn AnalysisSink>,
    ) -> InstrumentedRun {
        run_instrumented_sink(
            self.instrumented.clone(),
            self.sensors.clone(),
            cluster,
            config,
            sink,
        )
    }

    /// Run the *uninstrumented* program (for overhead comparisons).
    pub fn run_plain(&self, cluster: Arc<cluster_sim::Cluster>) -> Vec<RankResult> {
        self.run_plain_on(cluster, simmpi::SimBackend::default())
    }

    /// [`Self::run_plain`] with an explicit scheduler worker count.
    pub fn run_plain_on(
        &self,
        cluster: Arc<cluster_sim::Cluster>,
        sim: simmpi::SimBackend,
    ) -> Vec<RankResult> {
        run_plain_shared(self.plain.clone(), cluster, sim)
    }

    /// Instrumentation overhead for a given cluster: relative slowdown of
    /// the instrumented run vs. the plain run (max rank time).
    pub fn measure_overhead(&self, cluster: Arc<cluster_sim::Cluster>) -> f64 {
        let base = self.run_plain(cluster.clone());
        let inst = self.run(cluster, &RunConfig::default());
        let t0 = base.iter().map(|r| r.end.as_nanos()).max().unwrap_or(1) as f64;
        let t1 = inst
            .ranks
            .iter()
            .map(|r| r.end.as_nanos())
            .max()
            .unwrap_or(1) as f64;
        (t1 - t0) / t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    const SRC: &str = r#"
        fn main() {
            for (it = 0; it < 100; it = it + 1) {
                for (k = 0; k < 8; k = k + 1) { compute(2000); }
                mpi_allreduce(256);
            }
        }
    "#;

    #[test]
    fn pipeline_end_to_end() {
        let prepared = Pipeline::new().compile(SRC).unwrap();
        assert!(prepared.sensor_count() >= 2);
        let printed = prepared.instrumented_source();
        assert!(printed.contains("vs_tick(0);"));
        let run = prepared.run(Arc::new(scenarios::quiet(4).build()), &Default::default());
        assert!(run.server.records > 0);
    }

    #[test]
    fn sensor_table_matches_metadata() {
        let prepared = Pipeline::new().compile(SRC).unwrap();
        for (i, s) in prepared.sensors.iter().enumerate() {
            assert_eq!(s.sensor.0 as usize, i, "dense sensor ids");
            assert!(s.location.contains("main"));
        }
        assert!(prepared
            .sensors
            .iter()
            .any(|s| s.kind == SensorKind::Network));
    }

    #[test]
    fn overhead_measurement_is_small_and_positive() {
        let prepared = Pipeline::new().compile(SRC).unwrap();
        let overhead = prepared.measure_overhead(Arc::new(scenarios::quiet(2).build()));
        assert!(overhead >= 0.0);
        assert!(overhead < 0.04, "{overhead}");
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(Pipeline::new().compile("fn main( {").is_err());
    }
}
