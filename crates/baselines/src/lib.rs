//! Comparator tools (§1's prior approaches + §6.4's instruments).
//!
//! The paper contrasts vSensor with the existing ways to handle
//! performance variance; this crate implements working analogues of the
//! ones a comparison experiment runs, one per figure or study:
//!
//! * [`mpip`] — an mpiP-style profiler: per-rank computation vs. MPI time
//!   totals (Figures 18-19), which *cannot* localize variance in time;
//! * [`tracer`] — an ITAC-style full tracer: records every event, whose
//!   data volume dwarfs vSensor's slice records (501.5 MB vs 8.8 MB in
//!   §6.4);
//! * [`fwq`] — fixed-work-quanta external benchmarking: detects variance
//!   but is intrusive (it co-runs with and perturbs the application);
//! * [`rerun`] — the run-it-N-times methodology of Figure 1.

pub mod fwq;
pub mod mpip;
pub mod rerun;
pub mod tracer;

pub use fwq::{FwqProbe, FwqSample};
pub use mpip::MpipProfile;
pub use rerun::RerunStats;
pub use tracer::TraceVolume;
