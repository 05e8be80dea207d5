//! The slot-resolved bytecode VM.
//!
//! Executes a [`CompiledProgram`] against the same [`Machine`] cost/probe
//! machinery as the tree-walker: charges flow through `Machine::charge` /
//! `charge_units` / `charge_mem`, probes through `on_tick`/`on_tock`, and
//! builtins through the shared dispatch — so virtual time, PMU sampling
//! keys, sensor records and errors are bit-identical to the walker (see
//! `tests/vm_equivalence.rs` for the differential suite).
//!
//! Per-rank execution allocates three growable buffers once — operand
//! stack, frame stack and a flat locals area — and nothing per iteration:
//! variable access is a slot index off the current frame base, calls push
//! a frame and extend the locals area, and array values move by `Value`
//! moves on the operand stack.

use crate::builtins;
use crate::bytecode::{self, CompiledProgram, Insn};
use crate::machine::{binop, coerce_scalar, cost, load_element, store_element, ExecError, Machine};
use crate::values::Value;
use vsensor_lang::UnOp;

/// A suspended caller: where to resume and where its locals/operands live.
/// Functions are named by index (see [`bytecode::ENTRY_FN`]) so a frame
/// stack can be stored in a [`VmState`] across yields.
struct Frame {
    func: u32,
    ret_pc: usize,
    locals_base: usize,
    stack_floor: usize,
}

/// The complete execution state of one rank's VM, owned outside the
/// dispatch loop so event-scheduler tasks can suspend mid-program: when a
/// blocking builtin returns `Pending`, the loop rewinds `pc` onto the
/// `CallBuiltin` instruction, saves everything here and returns; the next
/// [`resume_vm`] re-executes that instruction, which re-polls the pending
/// operation latched in the rank's `Proc`.
pub(crate) struct VmState {
    stack: Vec<Value>,
    locals: Vec<Value>,
    frames: Vec<Frame>,
    globals: Vec<Value>,
    func: u32,
    pc: usize,
    locals_base: usize,
    stack_floor: usize,
    started: bool,
}

impl VmState {
    /// Fresh state, positioned before the entry call.
    pub(crate) fn new() -> Self {
        VmState {
            stack: Vec::with_capacity(32),
            locals: Vec::with_capacity(64),
            frames: Vec::with_capacity(16),
            globals: Vec::new(),
            func: bytecode::ENTRY_FN,
            pc: 0,
            locals_base: 0,
            stack_floor: 0,
            started: false,
        }
    }
}

/// Run or resume one rank's VM: the dispatch loop. The `Machine` carries
/// the rank's clock, cost accumulator and sensor harness; the walker's
/// `Machine::run` and this function produce bit-identical results.
/// `Ok(true)` means `main` returned (call `Machine::finalize` for the
/// result); `Ok(false)` means a blocking builtin is `Pending` — the rank
/// yielded, and the next call continues bit-identically to an
/// uninterrupted run.
///
/// Never inlined into the task's `resume`: keeping anything trace-related
/// live across the loop perturbs its register allocation enough to cost
/// double-digit percent even with tracing disabled. State lives in locals
/// for dispatch speed and is written back to `st` only at a suspend or the
/// final return.
#[inline(never)]
pub(crate) fn resume_vm(
    m: &mut Machine,
    compiled: &CompiledProgram,
    st: &mut VmState,
) -> Result<bool, ExecError> {
    if !st.started {
        let entry = compiled
            .entry_fn()
            .ok_or_else(|| ExecError::new("program has no `main`"))?;
        // The walker's entry call: depth check (trivially passes), then
        // the CALL charge.
        m.charge(cost::CALL);
        st.locals.resize(entry.n_slots as usize, Value::Int(0));
        st.globals = compiled.globals.clone();
        st.started = true;
    }

    let mut stack: Vec<Value> = std::mem::take(&mut st.stack);
    let mut locals: Vec<Value> = std::mem::take(&mut st.locals);
    let mut frames: Vec<Frame> = std::mem::take(&mut st.frames);
    let mut globals: Vec<Value> = std::mem::take(&mut st.globals);

    let mut func_idx: u32 = st.func;
    let mut func = compiled.fn_by_index(func_idx);
    let mut pc: usize = st.pc;
    let mut locals_base: usize = st.locals_base;
    let mut stack_floor: usize = st.stack_floor;

    macro_rules! pop {
        () => {
            stack.pop().expect("operand stack underflow")
        };
    }

    loop {
        let insn = &func.code[pc];
        pc += 1;
        match insn {
            Insn::ChargeUnits(n) => m.charge_units(*n),
            Insn::ChargeCpu(n) => m.charge(*n as u64),
            Insn::PushInt(v) => stack.push(Value::Int(*v)),
            Insn::PushFloat(v) => stack.push(Value::Float(*v)),
            Insn::Pop => {
                pop!();
            }
            Insn::LoadLocal(s) => stack.push(load(&locals[locals_base + *s as usize])),
            Insn::StoreLocal(s) => locals[locals_base + *s as usize] = pop!(),
            Insn::LoadGlobal(g) => stack.push(load(&globals[*g as usize])),
            Insn::StoreGlobal(g) => globals[*g as usize] = pop!(),
            Insn::Coerce(ty) => {
                let v = pop!();
                stack.push(coerce_scalar(v, *ty));
            }
            Insn::LoadIndexLocal(s) => {
                let i = index_operand(m, pop!())?;
                stack.push(load_element(&locals[locals_base + *s as usize], i)?);
            }
            Insn::LoadIndexGlobal(g) => {
                let i = index_operand(m, pop!())?;
                stack.push(load_element(&globals[*g as usize], i)?);
            }
            Insn::StoreIndexLocal(s) => {
                let i = index_operand(m, pop!())?;
                let v = pop!();
                store_element(&mut locals[locals_base + *s as usize], i, v)?;
            }
            Insn::StoreIndexGlobal(g) => {
                let i = index_operand(m, pop!())?;
                let v = pop!();
                store_element(&mut globals[*g as usize], i, v)?;
            }
            Insn::LoadIndexLV { arr, idx } => {
                let i = local_index(m, &locals[locals_base + *idx as usize])?;
                stack.push(load_element(&locals[locals_base + *arr as usize], i)?);
            }
            Insn::StoreIndexLV { arr, idx, u } => {
                m.charge_units(*u);
                let i = local_index(m, &locals[locals_base + *idx as usize])?;
                let v = pop!();
                store_element(&mut locals[locals_base + *arr as usize], i, v)?;
            }
            Insn::BinOpII {
                op,
                a,
                ai,
                b,
                bi,
                u1,
            } => {
                m.charge_units(*u1);
                let i = local_index(m, &locals[locals_base + *ai as usize])?;
                let l = load_element(&locals[locals_base + *a as usize], i)?;
                m.charge_units(2 * cost::EXPR_NODE as u32);
                let j = local_index(m, &locals[locals_base + *bi as usize])?;
                let r = load_element(&locals[locals_base + *b as usize], j)?;
                stack.push(binop_fast(*op, l, r)?);
            }
            Insn::BinOpIdx { op, arr, idx, u } => {
                m.charge_units(*u);
                let i = local_index(m, &locals[locals_base + *idx as usize])?;
                let r = load_element(&locals[locals_base + *arr as usize], i)?;
                let l = pop!();
                stack.push(binop_fast(*op, l, r)?);
            }
            Insn::IndexTrap(msg) => {
                // Unresolvable array name: run the walker's index checks
                // and memory charge, then its lookup error.
                index_operand(m, pop!())?;
                return Err(ExecError::new(compiled.msgs[*msg as usize].clone()));
            }
            Insn::AllocArray { slot, ty } => {
                let n = pop!()
                    .as_int()
                    .ok_or_else(|| ExecError::new("array length must be integer"))?;
                if n < 0 {
                    return Err(ExecError::new(format!("negative array length {n}")));
                }
                m.charge_mem(n as u64 / 8);
                locals[locals_base + *slot as usize] = Value::zeroed_array(*ty, n as usize);
            }
            Insn::UnOp(op) => {
                let v = pop!();
                let r = match op {
                    UnOp::Neg => match v {
                        Value::Int(x) => Value::Int(-x),
                        Value::Float(x) => Value::Float(-x),
                        _ => return Err(ExecError::new("cannot negate array")),
                    },
                    UnOp::Not => Value::Int(!v.truthy() as i64),
                };
                stack.push(r);
            }
            Insn::BinOp(op) => {
                let r = pop!();
                let l = pop!();
                stack.push(binop_fast(*op, l, r)?);
            }
            Insn::BinOpInt(op, imm) => {
                let l = pop!();
                stack.push(binop_fast(*op, l, Value::Int(*imm))?);
            }
            Insn::BinOpLocal(op, s) => {
                let l = pop!();
                let r = load(&locals[locals_base + *s as usize]);
                stack.push(binop_fast(*op, l, r)?);
            }
            Insn::ChargeUnitsCpu(u, c) => {
                m.charge_units(*u);
                m.charge(*c as u64);
            }
            Insn::LocalOpImm { op, dst, src, imm } => {
                let l = load(&locals[locals_base + *src as usize]);
                locals[locals_base + *dst as usize] = binop_fast(*op, l, Value::Int(*imm))?;
            }
            Insn::Truthy => {
                let v = pop!();
                stack.push(Value::Int(v.truthy() as i64));
            }
            Insn::Jump(off) => pc = offset(pc, *off),
            Insn::JumpCharged { units, off } => {
                m.charge_units(*units);
                pc = offset(pc, *off);
            }
            Insn::JumpIfFalse(off) => {
                if !pop!().truthy() {
                    pc = offset(pc, *off);
                }
            }
            Insn::JumpIfFalseCharged { units, off } => {
                m.charge_units(*units);
                if !pop!().truthy() {
                    pc = offset(pc, *off);
                }
            }
            Insn::CmpLocalImmBr {
                op,
                slot,
                imm,
                cpu,
                units,
                off,
            } => {
                if *cpu > 0 {
                    m.charge(*cpu as u64);
                }
                m.charge_units(*units);
                let l = load(&locals[locals_base + *slot as usize]);
                if !binop_fast(*op, l, Value::Int(*imm))?.truthy() {
                    pc = offset(pc, *off);
                }
            }
            Insn::AndShortCircuit(off) => {
                if !pop!().truthy() {
                    stack.push(Value::Int(0));
                    pc = offset(pc, *off);
                }
            }
            Insn::OrShortCircuit(off) => {
                if pop!().truthy() {
                    stack.push(Value::Int(1));
                    pc = offset(pc, *off);
                }
            }
            Insn::Call { func: fi, argc } => {
                // Active calls = entry + suspended frames + the current
                // function; the walker checks its depth (== that count)
                // before charging.
                if frames.len() + 1 > 256 {
                    return Err(ExecError::new("call depth exceeded (runaway recursion)"));
                }
                m.charge(cost::CALL);
                let callee = &compiled.functions[*fi as usize];
                let new_base = locals.len();
                let split = stack.len() - *argc as usize;
                locals.extend(stack.drain(split..));
                locals.resize(new_base + callee.n_slots as usize, Value::Int(0));
                frames.push(Frame {
                    func: func_idx,
                    ret_pc: pc,
                    locals_base,
                    stack_floor,
                });
                func_idx = *fi;
                func = callee;
                pc = 0;
                locals_base = new_base;
                stack_floor = split;
            }
            Insn::CallBuiltin { builtin, argc } => {
                let split = stack.len() - *argc as usize;
                match builtins::dispatch(m, *builtin, &stack[split..])? {
                    Some(result) => {
                        stack.truncate(split);
                        stack.push(result);
                    }
                    None => {
                        // The builtin's MPI operation is Pending: rewind
                        // onto this instruction (arguments stay on the
                        // stack) and suspend. Resuming re-dispatches the
                        // builtin, which re-polls the latched operation.
                        pc -= 1;
                        st.stack = stack;
                        st.locals = locals;
                        st.frames = frames;
                        st.globals = globals;
                        st.func = func_idx;
                        st.pc = pc;
                        st.locals_base = locals_base;
                        st.stack_floor = stack_floor;
                        return Ok(false);
                    }
                }
            }
            Insn::Return => {
                let v = pop!();
                stack.truncate(stack_floor);
                locals.truncate(locals_base);
                match frames.pop() {
                    Some(frame) => {
                        func_idx = frame.func;
                        func = compiled.fn_by_index(func_idx);
                        pc = frame.ret_pc;
                        locals_base = frame.locals_base;
                        stack_floor = frame.stack_floor;
                        stack.push(v);
                    }
                    // `main` returned; its value is discarded.
                    None => break,
                }
            }
            Insn::Tick(s) => m.on_tick(*s),
            Insn::Tock(s) => m.on_tock(*s),
            Insn::Trap(msg) => return Err(ExecError::new(compiled.msgs[*msg as usize].clone())),
        }
    }
    st.stack = stack;
    st.locals = locals;
    st.frames = frames;
    st.globals = globals;
    Ok(true)
}

#[inline]
fn offset(pc: usize, off: i32) -> usize {
    (pc as i64 + off as i64) as usize
}

/// Int×Int fast path over [`binop`]: identical results (same wrapping
/// semantics), skipping the promotion checks and `Value` moves for the
/// overwhelmingly common case. Division falls through for the zero check.
#[inline(always)]
fn binop_fast(op: vsensor_lang::BinOp, l: Value, r: Value) -> Result<Value, ExecError> {
    use vsensor_lang::BinOp::*;
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        match op {
            Add => return Ok(Value::Int(a.wrapping_add(b))),
            Sub => return Ok(Value::Int(a.wrapping_sub(b))),
            Mul => return Ok(Value::Int(a.wrapping_mul(b))),
            Lt => return Ok(Value::Int((a < b) as i64)),
            Le => return Ok(Value::Int((a <= b) as i64)),
            Gt => return Ok(Value::Int((a > b) as i64)),
            Ge => return Ok(Value::Int((a >= b) as i64)),
            Eq => return Ok(Value::Int((a == b) as i64)),
            Ne => return Ok(Value::Int((a != b) as i64)),
            Div if b != 0 => return Ok(Value::Int(a.wrapping_div(b))),
            Rem if b != 0 => return Ok(Value::Int(a.wrapping_rem(b))),
            _ => {}
        }
    } else if let (Value::Float(a), Value::Float(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
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
            And | Or => unreachable!("short-circuited"),
        });
    }
    binop(op, l, r)
}

/// Copy a variable for the operand stack: scalars inline, arrays through
/// the (cold) deep clone the walker's environment lookup also performs.
#[inline(always)]
fn load(v: &Value) -> Value {
    match v {
        Value::Int(x) => Value::Int(*x),
        Value::Float(x) => Value::Float(*x),
        other => other.clone(),
    }
}

/// Pop-side of an array index: integer check then the memory charge, in
/// walker order.
#[inline]
fn index_operand(m: &mut Machine, v: Value) -> Result<i64, ExecError> {
    let i = v
        .as_int()
        .ok_or_else(|| ExecError::new("array index must be integer"))?;
    m.charge_mem(cost::ARRAY_MEM);
    Ok(i)
}

/// [`index_operand`] reading straight from a slot (fused `a[k]` forms).
#[inline(always)]
fn local_index(m: &mut Machine, v: &Value) -> Result<i64, ExecError> {
    let i = match v {
        Value::Int(x) => *x,
        Value::Float(x) => *x as i64,
        _ => return Err(ExecError::new("array index must be integer")),
    };
    m.charge_mem(cost::ARRAY_MEM);
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_plain_shared, ExecBackend, RankResult};
    use cluster_sim::ClusterConfig;
    use simmpi::{RankTask, SimBackend, TaskPoll, World};
    use std::sync::Arc;

    /// Run a source program through both interpreters on quiet ranks and
    /// return (walker, vm) results.
    fn both(src: &str, ranks: usize) -> (Vec<RankResult>, Vec<RankResult>) {
        let program = Arc::new(vsensor_lang::compile(src).unwrap());
        let run = |backend| {
            let cluster = Arc::new(ClusterConfig::quiet(ranks).build());
            run_plain_shared(program.clone(), cluster, backend, SimBackend::event())
        };
        (run(ExecBackend::TreeWalker), run(ExecBackend::Vm))
    }

    fn assert_identical(src: &str, ranks: usize) {
        let (walker, vm) = both(src, ranks);
        for (w, v) in walker.iter().zip(&vm) {
            assert_eq!(w.end, v.end, "virtual end time differs for {src}");
            assert_eq!(w.stats, v.stats, "proc stats differ for {src}");
        }
    }

    /// A VM rank whose program error is its output instead of a panic.
    struct ErrorOfVm {
        machine: Machine,
        state: VmState,
        compiled: Arc<CompiledProgram>,
    }

    impl RankTask for ErrorOfVm {
        type Output = ExecError;

        fn resume(&mut self) -> TaskPoll<ExecError> {
            match resume_vm(&mut self.machine, &self.compiled, &mut self.state) {
                Ok(true) => panic!("the program was expected to fail"),
                Ok(false) => TaskPoll::Yielded,
                Err(e) => TaskPoll::Ready(e),
            }
        }

        fn proc_mut(&mut self) -> &mut simmpi::Proc {
            self.machine.proc()
        }
    }

    fn both_errors(src: &str) -> (ExecError, ExecError) {
        let program = Arc::new(vsensor_lang::compile(src).unwrap());
        let world = || World::new(Arc::new(ClusterConfig::quiet(1).build()));
        let walker = {
            let program = program.clone();
            world().run_hosted(
                move |h| Machine::new(program.clone(), h, None).run().unwrap_err(),
                |_, _| unreachable!("no deaths planned"),
            )
        };
        let compiled = Arc::new(bytecode::compile(&program));
        let vm = world().run_event(
            |_, proc| ErrorOfVm {
                machine: Machine::new(program.clone(), Box::new(proc), None),
                state: VmState::new(),
                compiled: compiled.clone(),
            },
            |_, _| unreachable!("no deaths planned"),
        );
        (walker[0].clone(), vm[0].clone())
    }

    #[test]
    fn arithmetic_matches_walker() {
        assert_identical(
            r#"
            fn tri(int n) -> int {
                int s = 0;
                for (i = 1; i <= n; i = i + 1) { s = s + i; }
                return s;
            }
            fn main() {
                int x = tri(100);
                if (x == 5050) { compute(1000); } else { compute(9); }
            }
            "#,
            1,
        );
    }

    #[test]
    fn break_continue_through_nested_loops() {
        assert_identical(
            r#"
            fn main() {
                int hits = 0;
                for (i = 0; i < 20; i = i + 1) {
                    if (i % 3 == 0) { continue; }
                    int j = 0;
                    while (j < 10) {
                        j = j + 1;
                        if (j == 4) { continue; }
                        if (j > 7) { break; }
                        hits = hits + 1;
                    }
                    if (i > 15) { break; }
                }
                compute(hits * 100);
            }
            "#,
            1,
        );
    }

    #[test]
    fn short_circuit_evaluation_matches() {
        // The right-hand sides charge work only when evaluated; any
        // divergence in short-circuit behavior shifts virtual time.
        assert_identical(
            r#"
            fn costly(int n) -> int { compute(n); return n; }
            fn main() {
                int a = 0 && costly(1000);
                int b = 1 && costly(2000);
                int c = 1 || costly(4000);
                int d = 0 || costly(8000);
                compute(a + b + c + d);
            }
            "#,
            1,
        );
    }

    #[test]
    fn array_type_coercion_matches() {
        assert_identical(
            r#"
            fn main() {
                int a[8];
                float f[8];
                for (i = 0; i < 8; i = i + 1) {
                    a[i] = i * 1.5;   // float stored into int array
                    f[i] = i;         // int stored into float array
                }
                int x = a[4] + f[5];
                float y = a[4] + f[5];
                compute(x + y);
            }
            "#,
            1,
        );
    }

    #[test]
    fn shadowing_matches() {
        assert_identical(
            r#"
            global int x = 100;
            fn main() {
                int s = x;          // global: 100
                if (1) { int x = 5; s = s + x; }
                s = s + x;          // global again
                for (x = 0; x < 3; x = x + 1) { s = s + x; }
                s = s + x;          // global again after loop scope pops
                int x = 7;          // local shadows global
                s = s + x;
                compute(s * 10);
            }
            "#,
            1,
        );
    }

    #[test]
    fn mpi_and_globals_match_across_ranks() {
        assert_identical(
            r#"
            global int COUNTER = 0;
            fn bump() { COUNTER = COUNTER + 1; }
            fn main() {
                int rank = mpi_comm_rank();
                for (i = 0; i < 10 + rank; i = i + 1) { bump(); }
                mpi_allreduce_val(8, COUNTER);
                mpi_barrier();
            }
            "#,
            4,
        );
    }

    #[test]
    fn recursion_depth_error_matches() {
        let (w, v) = both_errors("fn f(int n) -> int { return f(n + 1); } fn main() { f(0); }");
        assert_eq!(w, v);
        assert!(w.message.contains("call depth"));
    }

    #[test]
    fn runtime_error_messages_match() {
        for src in [
            "fn main() { int x = 0; int y = 5 / x; }",
            "fn main() { int x = 0; int y = 5 % x; }",
            "fn main() { int a[4]; a[9] = 1; }",
            "fn main() { int a[4]; int x = a[0 - 1]; }",
            "fn main() { x = 1; }",
            "fn main() { int y = x; }",
            "fn main() { unknowable(3); }",
            "fn main() { int x = 1; int y = x[0]; }",
            "fn main() { int n = 0 - 4; int a[n]; }",
            "fn main() { int a[8]; int b[2]; int x = a[b]; }",
            "fn main() { int a[4]; a[0] = 0 - a; }",
            // The cold side of every element-access arm, fused forms
            // included: index -1, index == len, a truncated float index, a
            // scalar indexed, a non-scalar stored.
            "fn main() { int a[4]; int x = a[4]; }",
            "fn main() { int a[4]; int x = a[4.9]; }",
            "fn main() { int a[4]; int k = 0 - 1; int x = a[k]; }",
            "fn main() { float a[4]; int k = 4; a[k] = 1; }",
            "fn main() { int a[4]; int b[4]; int i = 4; int j = 0; int x = a[i] + b[j]; }",
            "fn main() { int a[4]; int b[4]; int i = 0; int j = 0 - 1; int x = a[i] + b[j]; }",
            "fn main() { int a[4]; int k = 4; int s = 1; s = s + 2 + a[k]; }",
            "fn main() { int x = 1; int k = 0; x[k] = 2; }",
            "global int g = 1; fn main() { g[0] = 2; }",
            "fn main() { int a[4]; int b[2]; a[0] = b; }",
            "fn main() { float a[4]; int b[2]; int k = 4; a[k] = b; }",
        ] {
            let (w, v) = both_errors(src);
            assert_eq!(w, v, "error mismatch for {src}");
        }
    }

    #[test]
    fn rand_and_wtime_match() {
        // `rand` advances per-rank deterministic state; `wtime` reads the
        // virtual clock — both must see identical machine state.
        assert_identical(
            r#"
            fn main() {
                int acc = 0;
                for (i = 0; i < 50; i = i + 1) {
                    int r = rand();
                    if (r % 2 == 0) { acc = acc + 1; }
                    compute(100 + r % 64);
                }
                int t = wtime();
                if (t > 0) { acc = acc + 1; }
                mpi_allreduce_val(8, acc);
            }
            "#,
            2,
        );
    }

    #[test]
    fn chunk_flush_boundaries_match() {
        // Enough fine-grained work to cross the 1<<16 pending-work chunk
        // threshold many times purely from unit charges: flush points must
        // land on the same work counts in both backends.
        assert_identical(
            r#"
            fn main() {
                int s = 0;
                for (i = 0; i < 30000; i = i + 1) { s = s + i * 2 - 1; }
                compute(s % 97);
            }
            "#,
            1,
        );
    }

    #[test]
    fn mixed_mem_and_cpu_charges_match() {
        // Memory charges don't flush; a unit charge arriving with the
        // accumulator already above threshold must flush on the next unit
        // in both backends.
        assert_identical(
            r#"
            fn main() {
                int a[4096];
                int s = 0;
                for (r = 0; r < 40; r = r + 1) {
                    for (i = 0; i < 4096; i = i + 1) { a[i] = a[i] + i; }
                    mem_access(30000);
                    for (i = 0; i < 4096; i = i + 1) { s = s + a[i]; }
                }
                compute(s % 1009);
            }
            "#,
            1,
        );
    }

    #[test]
    fn main_with_params_leaves_them_unbound() {
        let (w, v) = both_errors("global int g = 1; fn main(int q) { int y = q; }");
        assert_eq!(w, v);
        assert!(w.message.contains("unbound variable `q`"));
    }
}
