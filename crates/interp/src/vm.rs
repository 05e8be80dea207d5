//! The slot-resolved bytecode VM.
//!
//! The product's one executor. Executes a [`CompiledProgram`] against the
//! [`Machine`] cost/probe surface: charges flow through the rank's
//! pending-work accumulator ([`Pending`], the one home of the charge
//! arithmetic), probes through `on_tick`/`on_tock`, and builtins through
//! the shared dispatch. The dev-only `vsensor-oracle` crate runs a
//! tree-walker over the same surface, and virtual time, PMU sampling
//! keys, sensor records and errors are bit-identical between the two
//! (`tests/vm_equivalence.rs` is the differential suite,
//! `tests/vm_flush_boundaries.rs` holds the compute calls to the walker's
//! call for call).
//!
//! The dispatch loop keeps the accumulator in a local, so a charge is an
//! add and a compare on a value the loop owns, not a read-modify-write
//! through `&mut Machine`. The machine's copy is stale while the loop
//! runs: the loop writes its copy back before every call that reads or
//! flushes the machine's (builtins, probes) and takes it back after, and
//! writes it back once more on every exit — return, suspend or error. A
//! chunk flush needs no write-back: [`Pending`] hands the taken work to
//! the machine by value.
//!
//! The canonical `for` loop costs one dispatch of control per iteration:
//! its head (`CmpLocalImmBr`) charges the body's first statement on the
//! fall-through path, and the step and back edge (`StepJump`) run the
//! head they land on in the same dispatch.
//!
//! Per-rank execution keeps three growable buffers — operand stack, frame
//! stack and a flat locals area — and grows them to need once, never per
//! iteration: variable access is a slot index off the current frame base,
//! calls push a frame and extend the locals area, and array values move by
//! `Value` moves on the operand stack. The buffers are dropped when `main`
//! returns, so a finished rank holds none of them.

use crate::builtins;
use crate::bytecode::{self, CompiledProgram, Insn};
use crate::machine::{
    binop, coerce_scalar, cost, load_element, store_element, ExecError, Machine, Pending,
};
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
    /// Fresh state, positioned before the entry call. It reserves nothing:
    /// with thousands of simulated ranks per process, a fixed reservation
    /// costs more than the handful of slots a program uses, and the
    /// buffers grow to the program's need in the first iteration.
    pub(crate) fn new() -> Self {
        VmState {
            stack: Vec::new(),
            locals: Vec::new(),
            frames: Vec::new(),
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
/// the rank's clock, cost accumulator and sensor harness. `Ok(true)` means
/// `main` returned (call `Machine::finalize` for the result); `Ok(false)`
/// means a blocking builtin is `Pending` — the rank yielded, and the next
/// call continues bit-identically to an uninterrupted run.
///
/// Never inlined into the task's `resume`: keeping anything trace-related
/// live across the loop perturbs its register allocation enough to cost
/// double-digit percent even with tracing disabled. State lives in locals
/// for dispatch speed and is written back to `st` only at a suspend or the
/// final return; the accumulator goes back to `m` on every exit.
#[inline(never)]
pub(crate) fn resume_vm(
    m: &mut Machine,
    compiled: &CompiledProgram,
    st: &mut VmState,
) -> Result<bool, ExecError> {
    if !st.started {
        let entry = compiled.entry_fn().ok_or_else(bytecode::no_main)?;
        // The entry call: depth check (trivially passes), then the CALL
        // charge.
        m.charge(cost::CALL);
        st.locals.resize(entry.n_slots as usize, Value::Int(0));
        st.globals = compiled.globals.clone();
        st.started = true;
    }

    let mut func_idx: u32 = st.func;
    let mut func = compiled.fn_by_index(func_idx)?;
    let mut stack: Vec<Value> = std::mem::take(&mut st.stack);
    let mut locals: Vec<Value> = std::mem::take(&mut st.locals);
    let mut frames: Vec<Frame> = std::mem::take(&mut st.frames);
    let mut globals: Vec<Value> = std::mem::take(&mut st.globals);

    let mut pc: usize = st.pc;
    let mut locals_base: usize = st.locals_base;
    let mut stack_floor: usize = st.stack_floor;
    // The rank's pending work, in a local for the whole loop. Every call
    // that reads or flushes the machine's copy is bracketed by
    // `machine!`, and every exit leaves through the `'run` loop's value,
    // after which the copy goes back.
    let mut acc = m.pending();

    let outcome = 'run: loop {
        // The compiler balances every push with a pop, so an empty stack
        // here is a compiler bug; it surfaces as a typed error, never a
        // panic. Every error leaves the loop through `'run`.
        macro_rules! pop {
            () => {
                match stack.pop() {
                    Some(v) => v,
                    None => break 'run Err(stack_underflow()),
                }
            };
        }
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => break 'run Err(e),
                }
            };
        }
        // A call on the machine that reads or flushes its accumulator.
        macro_rules! machine {
            ($e:expr) => {{
                m.set_pending(acc);
                let r = $e;
                acc = m.pending();
                r
            }};
        }
        // The fused conditional's charges and branch: `cpu` before
        // everything, the condition's units, the compare, then `post` on
        // the fall-through path only. Shared by `CmpLocalImmBr` and the
        // `StepJump` that lands on one.
        macro_rules! cmp_branch {
            ($op:expr, $slot:expr, $imm:expr, $cpu:expr, $units:expr, $post:expr, $off:expr) => {
                if $cpu > 0 {
                    acc.charge(m, $cpu as u64);
                }
                acc.charge_units(m, $units);
                let l = &locals[locals_base + $slot as usize];
                if !tri!(op_imm($op, l, $imm)).truthy() {
                    pc = offset(pc, $off);
                } else if $post > 0 {
                    acc.charge(m, $post as u64);
                }
            };
        }

        let insn = &func.code[pc];
        pc += 1;
        match insn {
            Insn::ChargeUnits(n) => acc.charge_units(m, *n),
            Insn::ChargeCpu(n) => acc.charge(m, *n as u64),
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
                let i = tri!(index_operand(&mut acc, pop!()));
                stack.push(tri!(load_element(&locals[locals_base + *s as usize], i)));
            }
            Insn::LoadIndexGlobal(g) => {
                let i = tri!(index_operand(&mut acc, pop!()));
                stack.push(tri!(load_element(&globals[*g as usize], i)));
            }
            Insn::StoreIndexLocal(s) => {
                let i = tri!(index_operand(&mut acc, pop!()));
                let v = pop!();
                tri!(store_element(&mut locals[locals_base + *s as usize], i, v));
            }
            Insn::StoreIndexGlobal(g) => {
                let i = tri!(index_operand(&mut acc, pop!()));
                let v = pop!();
                tri!(store_element(&mut globals[*g as usize], i, v));
            }
            Insn::LoadIndexLV { arr, idx } => {
                let i = tri!(local_index(&mut acc, &locals[locals_base + *idx as usize]));
                stack.push(tri!(load_element(&locals[locals_base + *arr as usize], i)));
            }
            Insn::StoreIndexLV { arr, idx, u } => {
                acc.charge_units(m, *u);
                let i = tri!(local_index(&mut acc, &locals[locals_base + *idx as usize]));
                let v = pop!();
                tri!(store_element(
                    &mut locals[locals_base + *arr as usize],
                    i,
                    v
                ));
            }
            Insn::BinOpII {
                op,
                a,
                ai,
                b,
                bi,
                u1,
            } => {
                acc.charge_units(m, *u1);
                let i = tri!(local_index(&mut acc, &locals[locals_base + *ai as usize]));
                let l = tri!(load_element(&locals[locals_base + *a as usize], i));
                acc.charge_units(m, 2 * cost::EXPR_NODE as u32);
                let j = tri!(local_index(&mut acc, &locals[locals_base + *bi as usize]));
                let r = tri!(load_element(&locals[locals_base + *b as usize], j));
                stack.push(tri!(binop_fast(*op, l, r)));
            }
            Insn::BinOpIdx { op, arr, idx, u } => {
                acc.charge_units(m, *u);
                let i = tri!(local_index(&mut acc, &locals[locals_base + *idx as usize]));
                let r = tri!(load_element(&locals[locals_base + *arr as usize], i));
                let l = pop!();
                stack.push(tri!(binop_fast(*op, l, r)));
            }
            Insn::IndexTrap(msg) => {
                // Unresolvable array name: the index check and memory
                // charge still happen, then the lookup error.
                tri!(index_operand(&mut acc, pop!()));
                break 'run Err(ExecError::new(compiled.msgs[*msg as usize].clone()));
            }
            Insn::AllocArray { slot, ty } => {
                let Some(n) = pop!().as_int() else {
                    break 'run Err(ExecError::new("array length must be integer"));
                };
                if n < 0 {
                    break 'run Err(ExecError::new(format!("negative array length {n}")));
                }
                acc.charge_mem(n as u64 / 8);
                locals[locals_base + *slot as usize] = Value::zeroed_array(*ty, n as usize);
            }
            Insn::UnOp(op) => {
                let v = pop!();
                let r = match op {
                    UnOp::Neg => match v {
                        Value::Int(x) => Value::Int(-x),
                        Value::Float(x) => Value::Float(-x),
                        _ => break 'run Err(ExecError::new("cannot negate array")),
                    },
                    UnOp::Not => Value::Int(!v.truthy() as i64),
                };
                stack.push(r);
            }
            Insn::BinOp(op) => {
                let r = pop!();
                let l = pop!();
                stack.push(tri!(binop_fast(*op, l, r)));
            }
            Insn::BinOpInt(op, imm) => {
                let l = pop!();
                stack.push(tri!(binop_fast(*op, l, Value::Int(*imm))));
            }
            Insn::BinOpLocal(op, s) => {
                let l = pop!();
                let r = load(&locals[locals_base + *s as usize]);
                stack.push(tri!(binop_fast(*op, l, r)));
            }
            Insn::ChargeUnitsCpu(u, c) => {
                acc.charge_units(m, *u);
                acc.charge(m, *c as u64);
            }
            Insn::LocalOpImm { op, dst, src, imm } => {
                let l = &locals[locals_base + *src as usize];
                locals[locals_base + *dst as usize] = tri!(op_imm(*op, l, *imm));
            }
            Insn::Truthy => {
                let v = pop!();
                stack.push(Value::Int(v.truthy() as i64));
            }
            Insn::Jump(off) => pc = offset(pc, *off),
            Insn::JumpIfFalse(off) => {
                if !pop!().truthy() {
                    pc = offset(pc, *off);
                }
            }
            Insn::JumpIfFalseCharged { units, off } => {
                acc.charge_units(m, *units);
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
                post,
                off,
            } => {
                cmp_branch!(*op, *slot, *imm, *cpu, *units, *post, *off);
            }
            Insn::StepJump {
                op,
                dst,
                src,
                imm,
                units,
                off,
            } => {
                let l = &locals[locals_base + *src as usize];
                locals[locals_base + *dst as usize] = tri!(op_imm(*op, l, *imm));
                acc.charge_units(m, *units);
                pc = offset(pc, *off);
                // The loop head it lands on runs here, in this dispatch.
                if let Insn::CmpLocalImmBr {
                    op,
                    slot,
                    imm,
                    cpu,
                    units,
                    post,
                    off,
                } = &func.code[pc]
                {
                    pc += 1;
                    cmp_branch!(*op, *slot, *imm, *cpu, *units, *post, *off);
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
                // function; the depth limit is checked before charging.
                if frames.len() + 1 > 256 {
                    break 'run Err(ExecError::new("call depth exceeded (runaway recursion)"));
                }
                acc.charge(m, cost::CALL);
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
                match tri!(machine!(builtins::dispatch(m, *builtin, &stack[split..]))) {
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
                        break 'run Ok(false);
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
                        func = tri!(compiled.fn_by_index(func_idx));
                        pc = frame.ret_pc;
                        locals_base = frame.locals_base;
                        stack_floor = frame.stack_floor;
                        stack.push(v);
                    }
                    // `main` returned; its value is discarded, and the
                    // buffers drop with this frame, so a finished rank
                    // keeps none.
                    None => break 'run Ok(true),
                }
            }
            Insn::Tick(s) => machine!(m.on_tick(*s)),
            Insn::Tock(s) => machine!(m.on_tock(*s)),
            Insn::Trap(msg) => {
                break 'run Err(ExecError::new(compiled.msgs[*msg as usize].clone()))
            }
        }
    };
    m.set_pending(acc);
    outcome
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
            // Short-circuited before evaluation: `binop` reports it.
            And | Or => return binop(op, l, r),
        });
    }
    binop(op, l, r)
}

/// `slot <op> imm`, the fused local-and-literal shapes: an `Int` slot
/// goes straight to [`binop_fast`]'s integer path, with no copy of the
/// slot through [`load`]'s match.
#[inline(always)]
fn op_imm(op: vsensor_lang::BinOp, l: &Value, imm: i64) -> Result<Value, ExecError> {
    match l {
        Value::Int(a) => binop_fast(op, Value::Int(*a), Value::Int(imm)),
        other => binop_fast(op, load(other), Value::Int(imm)),
    }
}

#[cold]
#[inline(never)]
fn stack_underflow() -> ExecError {
    ExecError::new("operand stack underflow")
}

/// Copy a variable for the operand stack: scalars inline, arrays through
/// a (cold) deep clone — array variables have value semantics.
#[inline(always)]
fn load(v: &Value) -> Value {
    match v {
        Value::Int(x) => Value::Int(*x),
        Value::Float(x) => Value::Float(*x),
        other => other.clone(),
    }
}

/// Pop-side of an array index: integer check, then the memory charge.
#[inline]
fn index_operand(acc: &mut Pending, v: Value) -> Result<i64, ExecError> {
    let i = v
        .as_int()
        .ok_or_else(|| ExecError::new("array index must be integer"))?;
    acc.charge_mem(cost::ARRAY_MEM);
    Ok(i)
}

/// [`index_operand`] reading straight from a slot (fused `a[k]` forms).
#[inline(always)]
fn local_index(acc: &mut Pending, v: &Value) -> Result<i64, ExecError> {
    let i = match v {
        Value::Int(x) => *x,
        Value::Float(x) => *x as i64,
        _ => return Err(ExecError::new("array index must be integer")),
    };
    acc.charge_mem(cost::ARRAY_MEM);
    Ok(i)
}
