//! vSensor dynamic module — on-line variance detection (§5).
//!
//! The instrumented program calls [`SensorRuntime::tick`]/[`tock`] around
//! every v-sensor execution. From there the pipeline follows the paper:
//!
//! 1. **Data smoothing** (§5.1): raw senses are aggregated into fixed time
//!    slices (1000 µs by default) so high-frequency OS noise averages out —
//!    [`smoothing`].
//! 2. **Performance normalization** (§5.2): each record is compared against
//!    the fastest record of its sensor (and dynamic-rule group); the
//!    fastest is 1.00, a 2× slower record scores 0.50 — [`history`].
//! 3. **Comparing with history** (§5.3): only a scalar *standard time* per
//!    sensor/group is stored; too-short sensors are throttled off at
//!    runtime — [`tick`].
//! 4. **Dynamic rules** (Figure 13): records may be bucketed by a runtime
//!    metric (cache-miss rate) before comparison — [`dynrules`].
//! 5. **Multi-process analysis** (§5.4): ranks stream their slice records
//!    to a dedicated analysis server whose streaming [`engine`] folds them
//!    incrementally into per-component performance matrices (time × rank),
//!    flags variance regions, and emits live alerts mid-run — [`server`],
//!    [`matrix`], [`detect`].
//! 6. **Fail-stop tolerance**: the engine learns of dead ranks from
//!    buddy-rank gossip ([`transport::DeathNotice`]) or liveness timeouts,
//!    masks them out of the matrices (a killed node is localized as
//!    *dead*, never as 0%-performance variance), and — with a [`wal`]
//!    attached — checkpoints itself so a crashed server recovers to a
//!    bitwise-identical result.
//!
//! All public types are re-exported at the crate root; downstream code
//! should `use vsensor_runtime::{AnalysisServer, VarianceAlert, ...}`
//! rather than spelling module paths.
//!
//! [`tock`]: SensorRuntime::tock

pub mod config;
pub mod control;
mod crc;
pub mod detect;
pub mod distribution;
pub mod dynrules;
pub mod engine;
pub mod error;
pub mod history;
pub mod matrix;
pub mod record;
pub mod report;
pub mod server;
pub mod service;
pub mod smoothing;
pub mod stats;
pub mod tick;
pub mod trace;
pub mod transport;
pub mod wal;

pub use config::RuntimeConfig;
pub use control::{
    ControlDirective, ControlEpoch, ControlStats, DirectiveGate, DirectiveVerdict, CONTROL_SEQ_BASE,
};
pub use detect::{detect_events, VarianceEvent};
pub use distribution::DistributionStats;
pub use dynrules::{Bucket, DynamicRule};
pub use engine::{
    AlertKind, AnalysisServer, DeathCause, DeathRecord, IngestReceipt, ServerLoad, ShardLoad,
    VarianceAlert,
};
pub use error::{IngestError, RuntimeError};
pub use matrix::{CellState, PerformanceMatrix};
pub use record::{SensorInfo, SensorKind, SliceRecord};
pub use report::VarianceReport;
pub use server::{DeliveryQuality, IngestSession, IngestStats, SensorSummary, ServerResult};
pub use service::{
    AnalysisService, ServiceConfig, ServiceError, TenantChannel, TenantId, TenantSpec, TenantStats,
};
pub use stats::ShiftPolicy;
pub use tick::SensorRuntime;
pub use trace::{MetricsRegistry, RuntimeHealth};
pub use transport::{
    AnalysisSink, BatchChannel, DeathNotice, DirectChannel, FaultyChannel, RankTransport,
    SendOutcome, TelemetryBatch, TransportConfig, TransportStats,
};
pub use wal::WriteAheadLog;
