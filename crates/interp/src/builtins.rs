//! Builtin (extern) function implementations.
//!
//! These are the runtime counterparts of the extern models in
//! `vsensor-analysis`: `compute`/`mem_access` charge bulk work, the `mpi_*`
//! family maps onto the simulated MPI, `io_*` charges filesystem time, and
//! `cache_phase` switches the current cache-miss rate (the dynamic-rule
//! experiments drive it).
//!
//! Builtins are identified by the [`Builtin`] enum so the bytecode compiler
//! can resolve a call site to an id once and the VM can dispatch without any
//! name lookup. The differential oracle's tree-walker resolves the name per
//! call and goes through the same [`dispatch`], so the two are
//! behaviorally identical by construction.

use crate::machine::{ExecError, Machine};
use crate::values::Value;
use cluster_sim::node::Work;
use simmpi::Proc;
use std::ops::DerefMut;

/// Identifier for a builtin function, resolved from its source name once
/// (at bytecode-compile time, or per call in the oracle's walker).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    Compute,
    MemAccess,
    CachePhase,
    MpiCommRank,
    MpiCommSize,
    Gethostname,
    MpiBarrier,
    MpiSend,
    MpiSendVal,
    MpiRecv,
    MpiSendrecv,
    MpiBcast,
    MpiBcastVal,
    MpiReduce,
    MpiAllreduce,
    MpiAllreduceVal,
    MpiAllgather,
    MpiAlltoall,
    IoRead,
    IoWrite,
    Printf,
    Print,
    Rand,
    Wtime,
}

impl Builtin {
    /// Resolve a source-level name to its builtin id, if it is one.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "compute" => Builtin::Compute,
            "mem_access" => Builtin::MemAccess,
            "cache_phase" => Builtin::CachePhase,
            "mpi_comm_rank" => Builtin::MpiCommRank,
            "mpi_comm_size" => Builtin::MpiCommSize,
            "gethostname" => Builtin::Gethostname,
            "mpi_barrier" => Builtin::MpiBarrier,
            "mpi_send" => Builtin::MpiSend,
            "mpi_send_val" => Builtin::MpiSendVal,
            "mpi_recv" => Builtin::MpiRecv,
            "mpi_sendrecv" => Builtin::MpiSendrecv,
            "mpi_bcast" => Builtin::MpiBcast,
            "mpi_bcast_val" => Builtin::MpiBcastVal,
            "mpi_reduce" => Builtin::MpiReduce,
            "mpi_allreduce" => Builtin::MpiAllreduce,
            "mpi_allreduce_val" => Builtin::MpiAllreduceVal,
            "mpi_allgather" => Builtin::MpiAllgather,
            "mpi_alltoall" => Builtin::MpiAlltoall,
            "io_read" => Builtin::IoRead,
            "io_write" => Builtin::IoWrite,
            "printf" => Builtin::Printf,
            "print" => Builtin::Print,
            "rand" => Builtin::Rand,
            "wtime" => Builtin::Wtime,
            _ => return None,
        })
    }
}

/// Execute a resolved builtin: the VM's `CallBuiltin` (which pre-binds the
/// id) and the oracle's walker both call it.
///
/// Returns `Ok(None)` when the builtin's MPI operation is `Pending`: the
/// caller must suspend the rank and re-dispatch the same builtin on resume
/// — argument parsing and `sync_clock` are idempotent across the retry (no
/// work accrues while suspended), and the `Proc` carries the latched
/// operation.
///
/// Never inlined: each instantiation has a single caller, and this whole
/// match pasted into the VM's dispatch loop costs that loop its registers
/// and layout.
#[doc(hidden)]
#[inline(never)]
pub fn dispatch<P: DerefMut<Target = Proc>>(
    m: &mut Machine<P>,
    builtin: Builtin,
    args: &[Value],
) -> Result<Option<Value>, ExecError> {
    use simmpi::Poll;
    match builtin {
        Builtin::Compute => {
            let n = int_arg(args, 0)?;
            m.charge_bulk(Work::cpu(n.max(0) as u64));
            Ok(Some(Value::Int(0)))
        }
        Builtin::MemAccess => {
            let n = int_arg(args, 0)?;
            m.charge_bulk(Work::mem(n.max(0) as u64));
            Ok(Some(Value::Int(0)))
        }
        Builtin::CachePhase => {
            let pct = args
                .first()
                .and_then(|v| v.as_float())
                .unwrap_or(0.0)
                .clamp(0.0, 100.0);
            m.set_miss_rate(pct / 100.0);
            Ok(Some(Value::Int(0)))
        }
        Builtin::MpiCommRank => Ok(Some(Value::Int(m.rank() as i64))),
        Builtin::MpiCommSize => Ok(Some(Value::Int(m.size() as i64))),
        Builtin::Gethostname => Ok(Some(Value::Int(m.node_id() as i64))),
        Builtin::MpiBarrier => {
            m.sync_clock();
            match m.proc().barrier() {
                Poll::Ready(()) => Ok(Some(Value::Int(0))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiSend => {
            let dest = int_arg(args, 0)?;
            let bytes = int_arg(args, 1)?;
            let tag = int_arg(args, 2)?;
            m.sync_clock();
            m.proc().send(dest as usize, bytes.max(0) as u64, tag, 0);
            Ok(Some(Value::Int(0)))
        }
        Builtin::MpiSendVal => {
            let dest = int_arg(args, 0)?;
            let bytes = int_arg(args, 1)?;
            let tag = int_arg(args, 2)?;
            let value = int_arg(args, 3)?;
            m.sync_clock();
            m.proc()
                .send(dest as usize, bytes.max(0) as u64, tag, value);
            Ok(Some(Value::Int(0)))
        }
        Builtin::MpiRecv => {
            let src = int_arg(args, 0)?;
            let tag = int_arg(args, 2).unwrap_or(simmpi::ANY_TAG);
            m.sync_clock();
            let src = if src < 0 {
                simmpi::ANY_SOURCE
            } else {
                src as usize
            };
            match m.proc().recv(src, tag) {
                Poll::Ready(info) => Ok(Some(Value::Int(info.value))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiSendrecv => {
            let dest = int_arg(args, 0)?;
            let bytes = int_arg(args, 1)?;
            let src = int_arg(args, 2)?;
            let tag = int_arg(args, 3)?;
            m.sync_clock();
            match m
                .proc()
                .sendrecv(dest as usize, bytes.max(0) as u64, src as usize, tag, 0)
            {
                Poll::Ready(info) => Ok(Some(Value::Int(info.value))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiBcast => {
            let root = int_arg(args, 0)?;
            let bytes = int_arg(args, 1)?;
            m.sync_clock();
            match m.proc().bcast(root as usize, bytes.max(0) as u64, 0) {
                Poll::Ready(v) => Ok(Some(Value::Int(v))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiBcastVal => {
            let root = int_arg(args, 0)?;
            let bytes = int_arg(args, 1)?;
            let value = int_arg(args, 2)?;
            m.sync_clock();
            match m.proc().bcast(root as usize, bytes.max(0) as u64, value) {
                Poll::Ready(v) => Ok(Some(Value::Int(v))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiReduce => {
            let root = int_arg(args, 0)?;
            let bytes = int_arg(args, 1)?;
            m.sync_clock();
            match m.proc().reduce(root as usize, bytes.max(0) as u64, 0) {
                Poll::Ready(v) => Ok(Some(Value::Int(v))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiAllreduce => {
            let bytes = int_arg(args, 0)?;
            m.sync_clock();
            match m.proc().allreduce(bytes.max(0) as u64, 0) {
                Poll::Ready(v) => Ok(Some(Value::Int(v))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiAllreduceVal => {
            let bytes = int_arg(args, 0)?;
            let value = int_arg(args, 1)?;
            m.sync_clock();
            match m.proc().allreduce(bytes.max(0) as u64, value) {
                Poll::Ready(v) => Ok(Some(Value::Int(v))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiAllgather => {
            let bytes = int_arg(args, 0)?;
            m.sync_clock();
            match m.proc().allgather(bytes.max(0) as u64) {
                Poll::Ready(()) => Ok(Some(Value::Int(0))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::MpiAlltoall => {
            let bytes = int_arg(args, 0)?;
            m.sync_clock();
            match m.proc().alltoall(bytes.max(0) as u64) {
                Poll::Ready(()) => Ok(Some(Value::Int(0))),
                Poll::Pending => Ok(None),
            }
        }
        Builtin::IoRead => {
            let bytes = int_arg(args, 0)?;
            m.sync_clock();
            m.proc().io_read(bytes.max(0) as u64);
            Ok(Some(Value::Int(0)))
        }
        Builtin::IoWrite => {
            let bytes = int_arg(args, 0)?;
            m.sync_clock();
            m.proc().io_write(bytes.max(0) as u64);
            Ok(Some(Value::Int(0)))
        }
        // Never-fixed externs the analysis knows about still need to run.
        Builtin::Printf | Builtin::Print => Ok(Some(Value::Int(0))),
        Builtin::Rand => Ok(Some(Value::Int(m.next_rand()))),
        Builtin::Wtime => Ok(Some(Value::Int(m.proc().now().as_nanos() as i64))),
    }
}

/// Extract an integer argument or produce an arity error.
fn int_arg(args: &[Value], i: usize) -> Result<i64, ExecError> {
    args.get(i)
        .and_then(|v| v.as_int())
        .ok_or_else(|| ExecError::new(format!("builtin expects integer argument #{i}")))
}

#[cfg(test)]
mod tests {
    // The builtins are exercised end-to-end through the machine tests in
    // `machine.rs` and `run.rs`; direct unit tests here cover the argument
    // helper and name resolution.
    use super::*;

    #[test]
    fn int_arg_errors_on_missing_or_wrong_type() {
        assert_eq!(int_arg(&[Value::Int(5)], 0).unwrap(), 5);
        assert!(int_arg(&[], 0).is_err());
        assert!(int_arg(&[Value::IntArray(Box::default())], 0).is_err());
        assert_eq!(int_arg(&[Value::Float(2.7)], 0).unwrap(), 2);
    }

    #[test]
    fn builtin_names_resolve() {
        assert_eq!(Builtin::from_name("compute"), Some(Builtin::Compute));
        assert_eq!(
            Builtin::from_name("mpi_allreduce"),
            Some(Builtin::MpiAllreduce)
        );
        assert_eq!(Builtin::from_name("wtime"), Some(Builtin::Wtime));
        assert_eq!(Builtin::from_name("not_a_builtin"), None);
    }
}
