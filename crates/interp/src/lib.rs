//! MiniHPC interpreter — the "run" step (Figure 2, step 6).
//!
//! Executes a (possibly instrumented) IR [`Program`] on every rank of a
//! simulated MPI world. Each program is compiled once to slot-resolved
//! bytecode ([`bytecode`]) and every rank runs it on the VM ([`vm`]), a
//! resumable task on simmpi's event scheduler — the product's one
//! executor. The interpreter charges *work units* for each executed
//! operation (plus bulk work from the `compute`/`mem_access` builtins),
//! converts them to virtual time through the cluster model, and routes the
//! inserted `Tick`/`Tock` probes into the per-rank
//! [`vsensor_runtime::SensorRuntime`], which in turn batches records to the
//! shared [`vsensor_runtime::AnalysisServer`].
//!
//! The PMU-validation methodology of §6.2 is implemented here too: during
//! every sense the interpreter counts true work units, measures them
//! through the simulated PMU (which adds realistic jitter), and tracks the
//! min/max per sensor so `Ps = MAX(v_i)/MIN(v_i)` can be reported.
//!
//! The VM's reference semantics are a tree-walker over the IR, kept as
//! the differential oracle in the dev-only `vsensor-oracle` crate. It
//! drives the same [`Machine`] cost and probe surface, whose
//! `#[doc(hidden)]` items exist for it.
//!
//! [`Program`]: vsensor_lang::Program

pub mod builtins;
pub mod bytecode;
pub mod machine;
pub mod run;
pub mod validate;
pub mod values;
pub mod vm;

pub use bytecode::{CompiledProgram, Insn};
pub use machine::{ExecError, Machine};
pub use run::{
    run_instrumented, run_instrumented_shared, run_instrumented_sink, run_plain, run_plain_shared,
    InstrumentedRun, RankResult, RunConfig,
};
pub use validate::ValidationStats;
pub use values::Value;
