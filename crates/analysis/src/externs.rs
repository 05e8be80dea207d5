//! External-function behaviour models.
//!
//! Most programs call functions whose source is unavailable — libc, MPI.
//! Per §3.5, the default strategy is conservative: an undescribed extern is
//! *never-fixed*, so any snippet containing a call to it is never a
//! v-sensor (missing sensors are acceptable; false sensors are not).
//! vSensor ships default descriptions for common libc and MPI functions;
//! users can register more, including which arguments determine the
//! workload (for MPI, the message size; destination/tag are optional static
//! rules).

use crate::snippets::SnippetType;
use std::collections::HashMap;
use vsensor_lang::Name;

/// How one extern behaves for the analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExternBehavior {
    /// Component the call stresses (drives the sensor type).
    pub ty: SnippetType,
    /// Indices of arguments that determine the quantity of work. If all of
    /// these are iteration-invariant, the call's workload is fixed.
    pub workload_args: Vec<usize>,
    /// Extra argument indices that matter only when the "communication
    /// destination" static rule is enabled.
    pub dest_args: Vec<usize>,
    /// The call's *return value* is a process identity (e.g.
    /// `mpi_comm_rank`, `gethostname`) — §3.4 handles these specially.
    pub returns_rank: bool,
    /// The call's return value is data the analysis cannot reason about
    /// (received messages, file reads, randomness, time).
    pub returns_unknown: bool,
    /// The call's workload can never be considered fixed (default for
    /// unknown externs; also e.g. `malloc`-like allocators under
    /// fragmentation).
    pub never_fixed: bool,
}

impl ExternBehavior {
    /// A compute extern whose work is determined by the given args.
    pub fn compute(workload_args: &[usize]) -> Self {
        ExternBehavior {
            ty: SnippetType::Computation,
            workload_args: workload_args.to_vec(),
            dest_args: Vec::new(),
            returns_rank: false,
            returns_unknown: false,
            never_fixed: false,
        }
    }

    /// A network extern (workload args are the size args).
    pub fn network(workload_args: &[usize], dest_args: &[usize]) -> Self {
        ExternBehavior {
            ty: SnippetType::Network,
            workload_args: workload_args.to_vec(),
            dest_args: dest_args.to_vec(),
            returns_rank: false,
            returns_unknown: false,
            never_fixed: false,
        }
    }

    /// An I/O extern.
    pub fn io(workload_args: &[usize]) -> Self {
        ExternBehavior {
            ty: SnippetType::Io,
            workload_args: workload_args.to_vec(),
            dest_args: Vec::new(),
            returns_rank: false,
            returns_unknown: false,
            never_fixed: false,
        }
    }

    /// The conservative default: never fixed.
    pub fn unknown() -> Self {
        ExternBehavior {
            ty: SnippetType::Computation,
            workload_args: Vec::new(),
            dest_args: Vec::new(),
            returns_rank: false,
            returns_unknown: true,
            never_fixed: true,
        }
    }

    /// Builder: mark as returning a rank/identity value.
    pub(crate) fn rank_source(mut self) -> Self {
        self.returns_rank = true;
        self
    }

    /// Builder: mark the return value as unanalyzable data.
    pub(crate) fn unknown_result(mut self) -> Self {
        self.returns_unknown = true;
        self
    }
}

/// The registry of extern behaviour descriptions.
#[derive(Clone, Debug, Default)]
pub struct ExternModels {
    models: HashMap<Name, ExternBehavior>,
}

impl ExternModels {
    /// Empty registry: every extern is unknown/never-fixed.
    pub fn empty() -> Self {
        ExternModels::default()
    }

    /// Registry pre-loaded with the MiniHPC builtin set (the analogue of
    /// the paper's "default descriptions for common functions in Lib-C and
    /// MPI library").
    pub fn with_defaults() -> Self {
        let mut m = ExternModels::default();
        // Compute builtins: arg 0 is the work amount.
        m.register("compute", ExternBehavior::compute(&[0]));
        m.register("mem_access", ExternBehavior::compute(&[0]));
        // MPI identity functions.
        m.register("mpi_comm_rank", ExternBehavior::compute(&[]).rank_source());
        m.register("mpi_comm_size", ExternBehavior::compute(&[]));
        m.register("gethostname", ExternBehavior::compute(&[]).rank_source());
        // MPI point-to-point: (dest/src, bytes, tag) — workload = bytes.
        m.register("mpi_send", ExternBehavior::network(&[1], &[0]));
        m.register("mpi_send_val", ExternBehavior::network(&[1], &[0]));
        m.register(
            "mpi_recv",
            ExternBehavior::network(&[1], &[0]).unknown_result(),
        );
        m.register(
            "mpi_sendrecv",
            ExternBehavior::network(&[1], &[0, 2]).unknown_result(),
        );
        // MPI collectives: workload = bytes arg.
        m.register("mpi_barrier", ExternBehavior::network(&[], &[]));
        m.register("mpi_bcast", ExternBehavior::network(&[1], &[0]));
        m.register(
            "mpi_bcast_val",
            ExternBehavior::network(&[1], &[0]).unknown_result(),
        );
        m.register(
            "mpi_reduce",
            ExternBehavior::network(&[1], &[0]).unknown_result(),
        );
        m.register(
            "mpi_allreduce",
            ExternBehavior::network(&[0], &[]).unknown_result(),
        );
        m.register(
            "mpi_allreduce_val",
            ExternBehavior::network(&[0], &[]).unknown_result(),
        );
        m.register("mpi_allgather", ExternBehavior::network(&[0], &[]));
        m.register("mpi_alltoall", ExternBehavior::network(&[0], &[]));
        // I/O: workload = byte count.
        m.register("io_read", ExternBehavior::io(&[0]).unknown_result());
        m.register("io_write", ExternBehavior::io(&[0]));
        // Classic libc never-fixed examples from the paper's discussion.
        m.register("printf", ExternBehavior::unknown());
        m.register("fopen", ExternBehavior::unknown());
        m.register("rand", ExternBehavior::compute(&[]).unknown_result());
        m.register("wtime", ExternBehavior::compute(&[]).unknown_result());
        // Cache-phase hint used by the dynamic-rule experiments: pure
        // runtime knob, no workload of its own.
        m.register("cache_phase", ExternBehavior::compute(&[]));
        m
    }

    /// Register (or override) a model.
    pub fn register(&mut self, name: impl Into<Name>, behavior: ExternBehavior) {
        self.models.insert(name.into(), behavior);
    }

    /// Look up a model; `None` means the extern is undescribed and must be
    /// treated as never-fixed.
    pub fn get(&self, name: &str) -> Option<&ExternBehavior> {
        self.models.get(name)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_builtin_set() {
        let m = ExternModels::with_defaults();
        for name in [
            "compute",
            "mpi_send",
            "mpi_recv",
            "mpi_barrier",
            "mpi_alltoall",
            "io_read",
            "mpi_comm_rank",
        ] {
            assert!(m.get(name).is_some(), "missing default for {name}");
        }
    }

    #[test]
    fn rank_sources_flagged() {
        let m = ExternModels::with_defaults();
        assert!(m.get("mpi_comm_rank").unwrap().returns_rank);
        assert!(m.get("gethostname").unwrap().returns_rank);
        assert!(!m.get("mpi_comm_size").unwrap().returns_rank);
    }

    #[test]
    fn recv_results_are_unknown_data() {
        let m = ExternModels::with_defaults();
        assert!(m.get("mpi_recv").unwrap().returns_unknown);
        assert!(!m.get("mpi_send").unwrap().returns_unknown);
    }

    #[test]
    fn undescribed_externs_are_absent() {
        let m = ExternModels::with_defaults();
        assert!(m.get("mystery_fn").is_none());
    }

    #[test]
    fn never_fixed_defaults() {
        assert!(ExternBehavior::unknown().never_fixed);
        let m = ExternModels::with_defaults();
        assert!(m.get("printf").unwrap().never_fixed);
    }

    #[test]
    fn user_can_override() {
        let mut m = ExternModels::with_defaults();
        m.register("printf", ExternBehavior::io(&[]));
        assert!(!m.get("printf").unwrap().never_fixed);
    }
}
