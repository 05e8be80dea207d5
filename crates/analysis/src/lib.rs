//! vSensor static module — v-sensor identification and instrumentation.
//!
//! Implements §3 and §4 of the paper on the MiniHPC IR:
//!
//! * [`callgraph`] — program call graph, recursion/function-pointer removal,
//!   bottom-up (topological) analysis order (§3.5, Figure 10).
//! * [`externs`] — behaviour descriptions for external functions: which
//!   arguments determine workload, which return process identity, which are
//!   never-fixed. Unknown externs default to never-fixed, the conservative
//!   strategy of §3.5.
//! * [`snippets`] — snippet enumeration: loops and calls are the only
//!   v-sensor candidates (§3.1).
//! * [`deps`] — the dependency-propagation core: flow-insensitive
//!   use-define closure with control-dependence, per function (§3.2).
//! * [`identify`](mod@identify) — intra- and inter-procedural v-sensor
//!   identification, including the rank-dependence analysis of §3.4 and
//!   the globally-fixed-argument fixpoint of §3.3.
//! * [`select`] — instrumentation selection: global scope, `max_depth`,
//!   outermost-of-nested (§4).
//! * [`instrument`](mod@instrument) — inserts `Tick`/`Tock` probes into the IR.
//! * [`report`] — the analysis summary feeding Table 1.
//!
//! # Example
//!
//! ```
//! use vsensor_analysis::{analyze, AnalysisConfig};
//!
//! let program = vsensor_lang::compile(
//!     r#"
//!     fn main() {
//!         for (n = 0; n < 100; n = n + 1) {
//!             for (k = 0; k < 10; k = k + 1) { compute(64); }
//!             for (k = 0; k < n; k = k + 1) { compute(64); }
//!             mpi_barrier();
//!         }
//!     }
//!     "#,
//! )
//! .unwrap();
//! let analysis = analyze(&program, &AnalysisConfig::default());
//! // The fixed-trip loop and the barrier are v-sensors; the `k < n` loop
//! // is not (its workload varies with the outer iteration).
//! assert!(analysis.report.identified_vsensors >= 2);
//! ```

pub mod callgraph;
pub mod deps;
pub mod explain;
pub mod externs;
pub mod identify;
pub mod instrument;
pub mod report;
pub mod select;
pub mod snippets;
pub mod symbols;

pub use externs::{ExternBehavior, ExternModels};
pub use identify::{identify, Identified};
pub use instrument::{instrument, Instrumented, SensorMeta};
pub use report::AnalysisReport;
pub use select::SelectionRules;
pub use snippets::{SnippetId, SnippetKind, SnippetType};

use vsensor_lang::Program;

/// Top-level configuration of the static module.
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Extern function behaviour models (defaults cover libc + MPI).
    pub externs: ExternModels,
    /// Selection rules (§4): max depth.
    pub selection: SelectionRules,
    /// Static rule: treat the communication destination as part of the
    /// workload (off by default — §3.1 lists it as an optional user rule).
    pub comm_dest_matters: bool,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            externs: ExternModels::with_defaults(),
            selection: SelectionRules::default(),
            comm_dest_matters: false,
        }
    }
}

/// Result of the full static pipeline: identification + selection +
/// instrumentation, plus the summary report.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Everything identification learned about each snippet.
    pub identified: Identified,
    /// The instrumented program and the sensor table.
    pub instrumented: Instrumented,
    /// Counts for Table 1.
    pub report: AnalysisReport,
}

/// Run the whole static module on a program: identify v-sensors, select
/// them for instrumentation, and produce the instrumented program.
pub fn analyze(program: &Program, config: &AnalysisConfig) -> Analysis {
    let identified = identify::identify(program, config);
    let selected = select::select(program, &identified, &config.selection);
    let instrumented = instrument::instrument(program, &identified, &selected);
    let report = report::summarize(program, &identified, &instrumented);
    Analysis {
        identified,
        instrumented,
        report,
    }
}
