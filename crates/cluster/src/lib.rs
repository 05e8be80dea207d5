//! Simulated HPC cluster — the Tianhe-2 substitute.
//!
//! The paper evaluates vSensor on a real supercomputer whose performance
//! variance comes from OS noise, bad nodes (e.g. one processor with 55 %
//! memory bandwidth), co-running "noiser" programs, and occasional network
//! degradation. This crate models exactly those signal sources over a
//! *virtual* timeline so that experiments are deterministic, fast, and have
//! known ground truth:
//!
//! * [`time`] — virtual nanosecond timeline ([`VirtualTime`], [`Duration`]).
//! * [`node`] — per-node CPU/memory speed factors.
//! * [`noise`] — piecewise slowdown factors: periodic OS ticks, random
//!   daemon wakeups, and explicitly injected noiser windows.
//! * [`network`] — latency/bandwidth model with degradation windows and
//!   cost formulas for point-to-point and collective operations.
//! * [`pmu`] — simulated performance-monitoring unit with measurement
//!   jitter (instruction counts are never exact on real PMUs; the paper's
//!   "workload max error" column measures precisely this).
//! * [`topology`] — rank-to-node placement.
//! * [`cluster`] — the facade tying the pieces together.
//! * [`trace`] — virtual-time tracing core: category-gated events into
//!   bounded per-thread buffers, free when disabled.

pub mod cluster;
pub mod fault;
pub mod network;
pub mod node;
pub mod noise;
pub mod pmu;
pub mod time;
pub mod topology;
pub mod trace;

pub use cluster::{Cluster, ClusterConfig};
pub use fault::{FaultConfig, FaultPlan, RankDeath, SendFate};
pub use network::{CollectiveOp, NetworkConfig};
pub use node::NodeSpec;
pub use noise::{NoiseConfig, SlowdownWindow};
pub use pmu::PmuConfig;
pub use time::{Duration, VirtualTime};
pub use topology::Topology;
