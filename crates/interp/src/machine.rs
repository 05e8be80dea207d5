//! The rank's cost and probe surface.
//!
//! One [`Machine`] carries one rank's execution state outside the
//! interpreter proper: a pending-work accumulator (cheap IR operations add
//! a few work units each, bulk builtins add many), converted into virtual
//! time through [`simmpi::Proc::compute`] at synchronization points (MPI
//! calls, probes, or when a chunk threshold is reached — so noise windows
//! slice long computations accurately), the sensor harness the probes
//! feed, and the PMU validation counts.
//!
//! The bytecode VM (`vm.rs`) is the one executor that drives it. The
//! `#[doc(hidden)]` items below are the surface the dev-only
//! `vsensor-oracle` crate's tree-walker shares with the VM, so the two
//! charge the same work at the same flush boundaries by construction.

use crate::validate::ValidationStats;
use crate::values::Value;
use cluster_sim::node::Work;
use cluster_sim::time::VirtualTime;
use cluster_sim::trace::{self, Category, TraceEvent};
use simmpi::Proc;
use std::fmt;
use std::ops::DerefMut;
use std::sync::Arc;
use vsensor_lang::{BinOp, SensorId};
use vsensor_runtime::dynrules::SenseMetrics;
use vsensor_runtime::transport::{
    BatchChannel, RankTransport, TransportConfig, TransportStats, SEND_COST,
};
use vsensor_runtime::SensorRuntime;

/// Work-unit costs of IR operations (1 unit ≈ 1 ns on a healthy node).
#[doc(hidden)]
pub mod cost {
    /// Per evaluated expression node.
    pub const EXPR_NODE: u64 = 1;
    /// Per executed statement.
    pub const STMT: u64 = 2;
    /// Per loop iteration (condition + branch).
    pub const LOOP_ITER: u64 = 2;
    /// Per function call (frame setup).
    pub const CALL: u64 = 8;
    /// Memory component per array element access.
    pub const ARRAY_MEM: u64 = 2;
    /// Flush the pending-work accumulator when it exceeds this.
    pub const CHUNK: u64 = 1 << 16;
}

/// Work not yet converted into virtual time: all units, and how many of
/// them are memory-bound. The one home of the charge arithmetic: a charge
/// is one add and one compare against [`cost::CHUNK`], and the chunk
/// flush hands the taken work to the [`Machine`]. `Copy` and two words,
/// so the VM's dispatch loop keeps its own copy in a local
/// (`vm::resume_vm`) while `Machine`'s own charges — the walker's and the
/// builtins' — go through the same methods on the machine's copy.
#[derive(Clone, Copy, Default)]
pub(crate) struct Pending {
    total: u64,
    mem: u64,
}

impl Pending {
    /// One `charge(units)`: flushes once the total reaches the chunk
    /// threshold.
    #[inline(always)]
    pub(crate) fn charge<P: DerefMut<Target = Proc>>(&mut self, m: &mut Machine<P>, units: u64) {
        self.total += units;
        if self.total >= cost::CHUNK {
            m.flush(std::mem::take(self));
        }
    }

    /// Replay `n` successive `charge(1)` calls in O(1): the accumulator is
    /// topped up to exactly the chunk threshold (flushing there, as the
    /// walker would after that many unit charges) and the remainder is
    /// added in one step. The VM's folded unit charges use this, so every
    /// flush boundary — and therefore every `Proc::compute` call — falls
    /// at the same work counts as `n` separate unit charges.
    #[inline(always)]
    pub(crate) fn charge_units<P: DerefMut<Target = Proc>>(&mut self, m: &mut Machine<P>, n: u32) {
        let total = self.total + n as u64;
        if total < cost::CHUNK {
            self.total = total;
        } else {
            *self = self.charge_units_flushing(m, n as u64);
        }
    }

    /// [`Self::charge_units`] when at least one unit charge trips a flush.
    /// Takes and returns the accumulator by value, so a caller's copy never
    /// has its address taken.
    #[cold]
    #[inline(never)]
    fn charge_units_flushing<P: DerefMut<Target = Proc>>(
        mut self,
        m: &mut Machine<P>,
        mut left: u64,
    ) -> Pending {
        while left > 0 {
            // Units until a single-unit charge would trip the flush. The
            // accumulator can already sit at/above the threshold (memory
            // charges don't flush), in which case the next unit trips it.
            let to_flush = cost::CHUNK.saturating_sub(self.total).max(1);
            if to_flush > left {
                self.total += left;
                break;
            }
            self.total += to_flush;
            m.flush(std::mem::take(&mut self));
            left -= to_flush;
        }
        self
    }

    /// A memory charge: never flushes.
    #[inline(always)]
    pub(crate) fn charge_mem(&mut self, mem: u64) {
        self.total += mem;
        self.mem += mem;
    }

    /// Bulk work (the `compute`/`mem_access` builtins): its memory part,
    /// then one charge of the whole.
    fn charge_bulk<P: DerefMut<Target = Proc>>(&mut self, m: &mut Machine<P>, work: Work) {
        self.mem += work.mem;
        self.charge(m, work.total());
    }
}

/// A runtime error with a message (locations come from the enclosing call
/// chain in panics; the interpreter is deterministic so errors reproduce).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// What went wrong.
    pub message: String,
}

impl ExecError {
    /// Construct an error.
    pub fn new(message: impl Into<String>) -> Self {
        ExecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// One rank's execution state, generic over how it holds its rank handle.
/// The bytecode VM, which returns to the scheduler at every yield point,
/// owns its `Proc` (`Box<Proc>`, the default). The parameter exists for
/// the differential oracle alone: its tree-walker cannot return
/// mid-recursion, runs on the oracle's own lock-step host, and holds that
/// host's `Lockstep` handle, through which it parks ([`Self::handle`]).
pub struct Machine<P = Box<Proc>> {
    proc: P,
    /// Work not yet converted into virtual time. The VM's dispatch loop
    /// works on its own copy and writes it back here before any call that
    /// reads or flushes it.
    pending: Pending,
    /// Work already flushed; with the pending total it is the work counter
    /// since machine start (see [`Self::work_total`]).
    work_flushed: u64,
    miss_rate: f64,
    /// Sensor machinery; absent for plain (uninstrumented) runs and after
    /// [`Self::finalize`]. Boxed, so a plain rank pays one pointer for it.
    sensors: Option<Box<SensorHarness>>,
    /// Open senses: (sensor, work counter at tick).
    open_senses: Vec<(SensorId, u64)>,
    validation: ValidationStats,
    rand_state: u64,
}

/// Sensor runtime plus the transport endpoint that ships its records to
/// the shared analysis server. It is most of an instrumented rank's bytes
/// (the outbox, the transport's unacked batches, per-sensor state and the
/// channel handle), so a [`Machine`] boxes it and drops it once the
/// rank's final flush is done.
pub struct SensorHarness {
    /// Per-rank dynamic module.
    pub runtime: SensorRuntime,
    /// Fault-tolerant rank → server transport.
    pub transport: RankTransport,
    /// Rotation cursor over the dead ranks this rank gossips about: one
    /// death notice rides per flushed batch, cycling through the segment
    /// this rank is responsible for.
    gossip_cursor: usize,
}

impl SensorHarness {
    /// Harness over a channel to the analysis sink. The transport knobs
    /// are taken from the runtime's [`RuntimeConfig`].
    pub fn with_channel(
        runtime: SensorRuntime,
        rank: usize,
        channel: Arc<dyn BatchChannel>,
    ) -> Self {
        let cfg = TransportConfig::from_runtime(runtime.config());
        SensorHarness {
            runtime,
            transport: RankTransport::new(rank, channel, cfg),
            gossip_cursor: 0,
        }
    }

    /// Move the transport's trace events to a different lane (builder
    /// style) — used by multi-tenant drivers to give each tenant a
    /// disjoint lane range. Pure observation, never affects timing.
    pub fn with_trace_lane(mut self, lane: u32) -> Self {
        self.transport.set_trace_lane(lane);
        self
    }
}

impl<P: DerefMut<Target = Proc>> Machine<P> {
    /// Create a machine for one rank. Pass `sensors` for instrumented
    /// runs.
    pub fn new(proc: P, sensors: Option<SensorHarness>) -> Self {
        let rand_seed = 0x7ea5_0000 ^ proc.rank() as u64;
        Machine {
            proc,
            pending: Pending::default(),
            work_flushed: 0,
            miss_rate: 0.0,
            sensors: sensors.map(Box::new),
            open_senses: Vec::new(),
            validation: ValidationStats::default(),
            rand_state: rand_seed,
        }
    }

    /// Flush pending work and collect the run's results: the tail of the
    /// VM's task and of the oracle's walker, so both finish a rank
    /// identically. Takes `&mut self` because a task must keep its `Proc`
    /// reachable after completion (the scheduler delivers the rank's final
    /// sends). Everything else a finished rank held is released here: the
    /// sensor harness is dropped after its final flush, so the scheduler
    /// keeps only the rank's result until the last rank ends.
    #[doc(hidden)]
    pub fn finalize(&mut self) -> MachineResult {
        self.sync_clock();
        let mut end = self.proc.now();
        let mut distribution = Default::default();
        let mut local_variances = 0;
        let mut transport = TransportStats::default();
        self.open_senses = Vec::new();
        if let Some(mut h) = self.sensors.take() {
            let batch_tail = h.runtime.finish(end);
            distribution = h.runtime.distribution().clone();
            local_variances = h.runtime.local_variances();
            // Final flush: drain what the retry budget allows, drop (and
            // count) the rest — a dead server cannot hang a finishing rank.
            let cost = h.transport.finish(batch_tail, end);
            self.proc.advance(cost);
            end = self.proc.now();
            transport = h.transport.stats().clone();
        }
        MachineResult {
            end,
            stats: self.proc.stats(),
            distribution,
            validation: std::mem::take(&mut self.validation),
            local_variances,
            transport,
        }
    }

    /// The rank handle itself — the oracle's walker parks through it.
    #[doc(hidden)]
    pub fn handle(&mut self) -> &mut P {
        &mut self.proc
    }

    // ----- accessors used by builtins -----

    /// Rank of this machine.
    pub fn rank(&self) -> usize {
        self.proc.rank()
    }

    /// Trace lane of the underlying rank.
    pub fn trace_lane(&self) -> u32 {
        self.proc.trace_lane()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.proc.size()
    }

    /// Current virtual time of the underlying rank (read-only).
    pub(crate) fn now(&self) -> VirtualTime {
        self.proc.now()
    }

    /// Hosting node.
    pub fn node_id(&self) -> usize {
        self.proc.node_id()
    }

    /// The underlying MPI process handle. Callers must [`Self::sync_clock`]
    /// first so communication sees an up-to-date clock.
    pub fn proc(&mut self) -> &mut Proc {
        &mut self.proc
    }

    /// Set the current cache-miss rate (the `cache_phase` builtin).
    pub fn set_miss_rate(&mut self, rate: f64) {
        // Flush work accumulated under the old rate first.
        self.sync_clock();
        self.miss_rate = rate;
    }

    /// Deterministic per-rank pseudo-random value (the `rand` builtin).
    pub fn next_rand(&mut self) -> i64 {
        // xorshift64*
        let mut x = self.rand_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rand_state = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 1) as i64
    }

    /// Add bulk work (the `compute`/`mem_access` builtins).
    pub fn charge_bulk(&mut self, work: Work) {
        let mut p = self.pending;
        p.charge_bulk(self, work);
        self.pending = p;
    }

    #[doc(hidden)]
    #[inline(always)]
    pub fn charge(&mut self, units: u64) {
        let mut p = self.pending;
        p.charge(self, units);
        self.pending = p;
    }

    #[doc(hidden)]
    #[inline(always)]
    pub fn charge_mem(&mut self, mem: u64) {
        self.pending.charge_mem(mem);
    }

    /// The accumulator, for the VM's dispatch loop to keep in a local.
    #[inline(always)]
    pub(crate) fn pending(&self) -> Pending {
        self.pending
    }

    /// Hand the dispatch loop's accumulator back (see [`Self::pending`]).
    #[inline(always)]
    pub(crate) fn set_pending(&mut self, p: Pending) {
        self.pending = p;
    }

    /// Work counter since machine start (drives PMU sampling keys and
    /// per-sense instruction counts).
    fn work_total(&self) -> u64 {
        self.work_flushed + self.pending.total
    }

    /// Convert all pending work into virtual time.
    pub fn sync_clock(&mut self) {
        let p = std::mem::take(&mut self.pending);
        self.flush(p);
    }

    /// Convert `p`, work taken out of an accumulator, into virtual time.
    fn flush(&mut self, p: Pending) {
        if p.total > 0 {
            let w = Work {
                cpu: p.total - p.mem,
                mem: p.mem,
            };
            self.work_flushed += p.total;
            self.proc.compute(w, self.miss_rate);
        }
    }

    // ----- probes -----
    //
    // Never inlined: each instantiation has one caller (the VM's dispatch
    // loop, the oracle walker's statement arm), and a probe's body pasted
    // into the VM loop costs the loop's hot arms their registers and
    // layout.

    #[doc(hidden)]
    #[inline(never)]
    pub fn on_tick(&mut self, sensor: SensorId) {
        self.sync_clock();
        let now = self.proc.now();
        if let Some(h) = &mut self.sensors {
            let outcome = h.runtime.tick(sensor, now);
            self.proc.advance(outcome.cost);
        }
        if trace::enabled(Category::SENSOR) {
            // Span opens once the probe overhead is charged — the sensed
            // region itself. Pure observation, no virtual cost.
            trace::record(TraceEvent::begin(
                Category::SENSOR,
                "sense",
                self.proc.trace_lane(),
                self.proc.now().as_nanos(),
                sensor.0 as u64,
                0,
            ));
        }
        self.open_senses.push((sensor, self.work_total()));
    }

    #[doc(hidden)]
    #[inline(never)]
    pub fn on_tock(&mut self, sensor: SensorId) {
        self.sync_clock();
        let now = self.proc.now();
        // Pop the matching open sense (probes are balanced by the
        // instrumentation pass, but tolerate mismatches defensively).
        let opened = match self.open_senses.pop() {
            Some((s, w)) if s == sensor => Some(w),
            Some(other) => {
                self.open_senses.push(other);
                None
            }
            None => None,
        };
        if opened.is_some() && trace::enabled(Category::SENSOR) {
            // Close the sensed-region span at the instant the probe fires.
            // Only a matched tock closes: an unmatched one has no open `B`
            // on this lane, and an extra `E` would unbalance the export —
            // mismatches are tolerated here exactly like the stats path
            // below tolerates them.
            trace::record(TraceEvent::end(
                Category::SENSOR,
                "sense",
                self.proc.trace_lane(),
                now.as_nanos(),
                sensor.0 as u64,
                0,
            ));
        }
        if let Some(work_at_tick) = opened {
            let work_total = self.work_total();
            let true_work = work_total - work_at_tick;
            let measured = self
                .proc
                .cluster()
                .pmu()
                .measure_instructions(true_work, work_total ^ now.as_nanos());
            self.validation.observe(sensor, measured);
        }
        let metrics = SenseMetrics {
            cache_miss_rate: self.miss_rate,
        };
        if let Some(h) = &mut self.sensors {
            let outcome = h.runtime.tock(sensor, now, metrics);
            self.proc.advance(outcome.cost);
            if h.runtime.flush_due(now) {
                // Buddy gossip: piggyback one detectable death from the
                // ring segment this rank monitors on every outgoing
                // telemetry batch (rotating when several ranks died), so
                // the analysis server learns of fail-stops from survivors.
                let due = self.proc.death_notices_due(now);
                if !due.is_empty() {
                    let (rank, at) = due[h.gossip_cursor % due.len()];
                    h.gossip_cursor = h.gossip_cursor.wrapping_add(1);
                    h.transport
                        .set_death_notice(Some(vsensor_runtime::DeathNotice { rank, at }));
                }
                let recycled = h.transport.recycled_buffer();
                let batch = h.runtime.take_batch_into(now, recycled);
                let cost = h.transport.enqueue(batch, now);
                self.proc.advance(cost);
            }
            // Control plane: poll for server→rank directives at the batch
            // cadence (pull delivery — independent of the outbox, so an
            // all-dark rank stays reachable for re-enables). Each received
            // directive costs one message transfer on this rank's clock;
            // applied and stale ones are acknowledged, corrupt ones are
            // dropped unacked so the server's retry redelivers.
            if h.runtime.control_poll_due(now) {
                let rank = self.proc.rank();
                let channel = h.transport.channel().clone();
                let mut cost = cluster_sim::time::Duration::ZERO;
                for directive in channel.poll_control(rank, now) {
                    cost += SEND_COST;
                    if let Some(epoch) = h.runtime.apply_directive(&directive) {
                        channel.ack_control(rank, epoch, now);
                    }
                }
                self.proc.advance(cost);
            }
        }
    }
}

/// Result of running one rank.
#[derive(Clone, Debug)]
pub struct MachineResult {
    /// Final virtual time.
    pub end: VirtualTime,
    /// MPI/compute/IO accounting.
    pub stats: simmpi::ProcStats,
    /// Sense-distribution statistics (empty for plain runs).
    pub distribution: vsensor_runtime::DistributionStats,
    /// PMU validation data.
    pub validation: ValidationStats,
    /// Locally-flagged variance records.
    pub local_variances: u64,
    /// Telemetry-transport counters (zero for plain runs).
    pub transport: TransportStats,
}

#[doc(hidden)]
pub fn coerce_scalar(v: Value, ty: vsensor_lang::ast::Type) -> Value {
    match (ty, &v) {
        (vsensor_lang::ast::Type::Int, Value::Float(f)) => Value::Int(*f as i64),
        (vsensor_lang::ast::Type::Float, Value::Int(i)) => Value::Float(*i as f64),
        _ => v,
    }
}

/// Element read, inlined into every caller (the VM's dispatch arms
/// included) with the error construction outlined, so no formatting code
/// sits in a loop body. A negative `i` wraps past any `Vec` length, so
/// `get` is the whole bounds check.
#[doc(hidden)]
#[inline(always)]
pub fn load_element(arr: &Value, i: i64) -> Result<Value, ExecError> {
    match arr {
        Value::IntArray(a) => match a.get(i as usize) {
            Some(x) => Ok(Value::Int(*x)),
            _ => Err(out_of_bounds(i, a.len())),
        },
        Value::FloatArray(a) => match a.get(i as usize) {
            Some(x) => Ok(Value::Float(*x)),
            _ => Err(out_of_bounds(i, a.len())),
        },
        _ => Err(cold_error("indexing a scalar")),
    }
}

/// Element write; bounds are checked before the stored value's type, as
/// the error order is part of the walker≡VM contract.
#[doc(hidden)]
#[inline(always)]
pub fn store_element(slot: &mut Value, i: i64, v: Value) -> Result<(), ExecError> {
    match slot {
        Value::IntArray(a) => store_scalar(a, i, v.as_int(), "storing non-scalar into int array"),
        Value::FloatArray(a) => {
            store_scalar(a, i, v.as_float(), "storing non-scalar into float array")
        }
        _ => Err(cold_error("indexing a scalar")),
    }
}

#[inline(always)]
fn store_scalar<T>(
    a: &mut [T],
    i: i64,
    v: Option<T>,
    non_scalar: &'static str,
) -> Result<(), ExecError> {
    let len = a.len();
    let Some(x) = a.get_mut(i as usize) else {
        return Err(out_of_bounds(i, len));
    };
    let Some(v) = v else {
        return Err(cold_error(non_scalar));
    };
    *x = v;
    Ok(())
}

#[cold]
#[inline(never)]
fn out_of_bounds(i: i64, len: usize) -> ExecError {
    ExecError::new(format!("array index {i} out of bounds (len {len})"))
}

#[cold]
#[inline(never)]
fn cold_error(message: &'static str) -> ExecError {
    ExecError::new(message)
}

/// A binary operator on two evaluated operands. `&&`/`||` short-circuit
/// before their right operand is evaluated, so they never get here.
#[doc(hidden)]
pub fn binop(op: BinOp, l: Value, r: Value) -> Result<Value, ExecError> {
    use BinOp::*;
    // Promote to float if either side is float.
    if matches!(l, Value::Float(_)) || matches!(r, Value::Float(_)) {
        let (a, b) = (
            l.as_float()
                .ok_or_else(|| ExecError::new("array in arithmetic"))?,
            r.as_float()
                .ok_or_else(|| ExecError::new("array in arithmetic"))?,
        );
        return Ok(match op {
            Add => Value::Float(a + b),
            Sub => Value::Float(a - b),
            Mul => Value::Float(a * b),
            Div => Value::Float(a / b),
            Rem => Value::Float(a % b),
            Lt => Value::Int((a < b) as i64),
            Le => Value::Int((a <= b) as i64),
            Gt => Value::Int((a > b) as i64),
            Ge => Value::Int((a >= b) as i64),
            Eq => Value::Int((a == b) as i64),
            Ne => Value::Int((a != b) as i64),
            And | Or => return Err(short_circuit_in_binop()),
        });
    }
    let (a, b) = (
        l.as_int()
            .ok_or_else(|| ExecError::new("array in arithmetic"))?,
        r.as_int()
            .ok_or_else(|| ExecError::new("array in arithmetic"))?,
    );
    Ok(match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div => {
            if b == 0 {
                return Err(ExecError::new("integer division by zero"));
            }
            Value::Int(a.wrapping_div(b))
        }
        Rem => {
            if b == 0 {
                return Err(ExecError::new("integer remainder by zero"));
            }
            Value::Int(a.wrapping_rem(b))
        }
        Lt => Value::Int((a < b) as i64),
        Le => Value::Int((a <= b) as i64),
        Gt => Value::Int((a > b) as i64),
        Ge => Value::Int((a >= b) as i64),
        Eq => Value::Int((a == b) as i64),
        Ne => Value::Int((a != b) as i64),
        And | Or => return Err(short_circuit_in_binop()),
    })
}

#[cold]
#[inline(never)]
fn short_circuit_in_binop() -> ExecError {
    ExecError::new("`&&`/`||` reached an eager binary operator")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_plain, RankResult};
    use cluster_sim::ClusterConfig;

    /// Run an uninstrumented program on `ranks` quiet ranks, returning the
    /// per-rank results.
    fn run_src(src: &str, ranks: usize) -> Vec<RankResult> {
        let program = vsensor_lang::compile(src).unwrap();
        run_plain(&program, Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    /// The error a single-rank program fails with, read from the panic the
    /// scheduler raises with it.
    fn error_of(src: &str) -> ExecError {
        let program = vsensor_lang::compile(src).unwrap();
        let cluster = Arc::new(ClusterConfig::quiet(1).build());
        let payload = std::panic::catch_unwind(|| run_plain(&program, cluster))
            .expect_err("the program fails");
        let text = payload.downcast_ref::<String>().expect("a formatted panic");
        let message = text.strip_prefix("rank 0 panicked: runtime error: ");
        ExecError::new(message.expect("the rank's runtime error"))
    }

    #[test]
    fn arithmetic_and_control_flow() {
        // Compute a known value through loops/branches/calls and signal it
        // via an allreduce so the test can observe it.
        let src = r#"
            fn tri(int n) -> int {
                int s = 0;
                for (i = 1; i <= n; i = i + 1) { s = s + i; }
                return s;
            }
            fn main() {
                int x = tri(10);           // 55
                if (x == 55) { x = x + 1; } else { x = 0; }
                mpi_allreduce_val(8, x);   // 56 * ranks
            }
        "#;
        let results = run_src(src, 2);
        assert_eq!(results.len(), 2);
        assert!(results[0].end > VirtualTime::ZERO);
    }

    #[test]
    fn compute_advances_virtual_time_exactly() {
        let results = run_src("fn main() { compute(1000000); }", 1);
        // 1e6 cpu units ≈ 1 ms; small constant overhead for statements.
        let ns = results[0].end.as_nanos();
        assert!((1_000_000..1_010_000).contains(&ns), "got {ns}");
    }

    #[test]
    fn ranks_communicate_values() {
        let src = r#"
            fn main() {
                int rank = mpi_comm_rank();
                int size = mpi_comm_size();
                if (rank == 0) {
                    int peer = 1;
                    mpi_send_val(peer, 64, 7, 42);
                } else {
                    int got = mpi_recv(0, 64, 7);
                    if (got != 42) { explode(); } // unknown fn -> error
                }
            }
        "#;
        let results = run_src(src, 2);
        assert_eq!(results.len(), 2, "no rank exploded");
    }

    #[test]
    fn division_by_zero_is_reported() {
        let err = error_of("fn main() { int x = 0; int y = 5 / x; }");
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn array_out_of_bounds_is_reported() {
        let err = error_of("fn main() { int a[4]; a[9] = 1; }");
        assert!(err.message.contains("out of bounds"));
    }

    #[test]
    fn arrays_store_and_load() {
        let src = r#"
            fn main() {
                float a[16];
                for (i = 0; i < 16; i = i + 1) { a[i] = i * 1.5; }
                float s = 0.0;
                for (i = 0; i < 16; i = i + 1) { s = s + a[i]; }
                // s == 180.0; encode success as a barrier vs explode.
                if (s > 179.9 && s < 180.1) { mpi_barrier(); } else { explode(); }
            }
        "#;
        run_src(src, 1);
    }

    #[test]
    fn while_loops_terminate() {
        let src = r#"
            fn main() {
                int x = 1;
                while (x < 1000) { x = x * 2; }
                if (x != 1024) { explode(); }
            }
        "#;
        run_src(src, 1);
    }

    #[test]
    fn recursion_guard_fires() {
        let err = error_of("fn f(int n) -> int { return f(n + 1); } fn main() { f(0); }");
        assert!(err.message.contains("call depth"));
    }

    #[test]
    fn stats_separate_compute_and_mpi() {
        let src = r#"
            fn main() {
                compute(500000);
                mpi_barrier();
            }
        "#;
        let results = run_src(src, 4);
        for r in &results {
            assert!(r.stats.compute_time.as_nanos() >= 500_000);
            assert!(r.stats.collectives == 1);
        }
    }

    #[test]
    fn deterministic_run_to_run() {
        let src = r#"
            fn main() {
                for (i = 0; i < 50; i = i + 1) {
                    compute(1000);
                    mpi_allreduce(64);
                }
            }
        "#;
        let a: Vec<u64> = run_src(src, 4).iter().map(|r| r.end.as_nanos()).collect();
        let b: Vec<u64> = run_src(src, 4).iter().map(|r| r.end.as_nanos()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn global_variables_are_per_process() {
        let src = r#"
            global int COUNTER = 0;
            fn bump() { COUNTER = COUNTER + 1; }
            fn main() {
                for (i = 0; i < 10; i = i + 1) { bump(); }
                if (COUNTER != 10) { explode(); }
            }
        "#;
        run_src(src, 2);
    }
}
