//! One-time lowering of a [`Program`] to slot-resolved bytecode.
//!
//! Walking the IR tree pays for name resolution (scope-chain hash lookups),
//! dispatch (matching on tree nodes) and per-call setup (fresh scopes,
//! callee lookup by name) on *every* execution of every node. All of that
//! is decidable once, up front:
//!
//! * every variable reference becomes a frame-slot or global index,
//! * every call site binds to a function index or a [`Builtin`] id,
//! * control flow becomes relative jumps over a flat instruction stream,
//! * runs of per-expression-node unit charges fold into a single
//!   [`Insn::ChargeUnits`] that the VM replays in O(1).
//!
//! The compiled form is executed by `vm::resume_vm`. Its reference
//! semantics are the tree-walker's — the direct reading of the IR, kept as
//! the differential oracle in the dev-only `vsensor-oracle` crate; "the
//! walker" below is that interpreter. The contract with it is
//! **bit-identical virtual time**: the walker charges work
//! through `Machine::charge`/`charge_mem`/`charge_bulk`, and the exact
//! sequence of `Proc::compute` calls (count *and* arguments) determines
//! both the virtual clock and the deterministic PMU/noise sampling keys.
//! The compiler therefore preserves the walker's charge-event order
//! exactly:
//!
//! * unit charges (`cost::EXPR_NODE` = 1) are foldable because `n`
//!   successive `charge(1)` calls are reproducible in O(1) with the same
//!   flush boundary (`Pending::charge_units`);
//! * non-unit charges (`STMT`, `LOOP_ITER`, `CALL`) are never summed —
//!   a sum could overshoot the chunk threshold differently than the
//!   walker. Each is its own [`Insn::ChargeCpu`], or its own field of a
//!   fused instruction that charges it at the walker's point: a
//!   statement prologue ([`Insn::ChargeUnitsCpu`]), a fused head's
//!   `LOOP_ITER` before its condition and the next statement's `STMT`
//!   after it, on the fall-through path ([`Insn::CmpLocalImmBr`]'s `cpu`
//!   and `post`);
//! * pending unit runs are flushed into the stream before anything
//!   observable: jumps and jump targets, non-unit charges, memory charges
//!   (array ops), calls, probes, traps and returns. Pure stack traffic
//!   (push/load/store/arith) may sit between a charge and the point the
//!   walker issued it — invisible, since only charge order reaches the
//!   clock.
//!
//! A fold removes an instruction only where no jump lands: the `STMT` of
//! the statement right behind a fused head moves into the head's `post`
//! unless a jump targets its position (an empty then-branch's exit does),
//! and a `for` step of the shape `i = j <op> literal` is emitted with its
//! back edge as one [`Insn::StepJump`] directly, so no dead instruction
//! stays in the stream. A canonical `for` iteration is then the head, the
//! body and the `StepJump`, which also runs the head it lands on.
//!
//! Runtime *errors* are compiled too: a reference that can never resolve
//! becomes a [`Insn::Trap`] carrying the exact message the walker would
//! produce at that point, emitted after the same charges.

use crate::builtins::Builtin;
use crate::machine::{cost, ExecError};
use crate::values::Value;
use std::collections::HashMap;
use vsensor_lang::ast::Type;
use vsensor_lang::{
    BinOp, Block, CallSite, Expr, Function, GlobalInit, LValue, LoopKind, Name, Program, SensorId,
    Stmt, UnOp,
};

/// A bytecode instruction. Jump offsets are relative to the instruction
/// *after* the jump (i.e. `pc` has already been incremented).
#[derive(Clone, Debug, PartialEq)]
pub enum Insn {
    /// Replay `n` successive unit (`EXPR_NODE`) charges.
    ChargeUnits(u32),
    /// One `charge(n)` call (statement / loop-iteration costs).
    ChargeCpu(u32),
    /// Push an integer constant.
    PushInt(i64),
    /// Push a float constant.
    PushFloat(f64),
    /// Discard the top of stack (statement-position call results).
    Pop,
    /// Push a copy of frame slot `n`.
    LoadLocal(u32),
    /// Pop into frame slot `n`.
    StoreLocal(u32),
    /// Push a copy of global `n`.
    LoadGlobal(u32),
    /// Pop into global `n`.
    StoreGlobal(u32),
    /// Coerce the top of stack to a declared scalar type.
    Coerce(Type),
    /// Pop an index, charge array memory, push element of frame slot `n`.
    LoadIndexLocal(u32),
    /// Pop an index, charge array memory, push element of global `n`.
    LoadIndexGlobal(u32),
    /// Pop index then value, charge array memory, store into slot `n`.
    StoreIndexLocal(u32),
    /// Pop index then value, charge array memory, store into global `n`.
    StoreIndexGlobal(u32),
    /// Index op on a name that resolves nowhere: pop the index, run the
    /// integer check and memory charge the walker would, then trap.
    IndexTrap(u32),
    /// Fused `locals[arr][locals[idx]]` load — the `a[k]` kernel shape,
    /// one dispatch with no stack traffic for the index.
    LoadIndexLV {
        /// Array frame slot.
        arr: u32,
        /// Index frame slot.
        idx: u32,
    },
    /// Fused `locals[arr][locals[idx]] = pop()` store, replaying `u`
    /// pending units before the index's memory charge.
    StoreIndexLV {
        /// Array frame slot.
        arr: u32,
        /// Index frame slot.
        idx: u32,
        /// Pending unit charges to replay first.
        u: u32,
    },
    /// Fused `a[i] <op> b[j]` (all four names local): replay `u1` pending
    /// units, then the left element's memory charge, then the right
    /// operand's two node units and memory charge — the walker's exact
    /// charge sequence for this shape — and push the result.
    BinOpII {
        /// Operator — never `&&`/`||`.
        op: BinOp,
        /// Left array slot.
        a: u32,
        /// Left index slot.
        ai: u32,
        /// Right array slot.
        b: u32,
        /// Right index slot.
        bi: u32,
        /// Units pending before the left element load.
        u1: u32,
    },
    /// Fused `pop() <op> arr[idx]` (both names local): replay `u` pending
    /// units then the element's memory charge, and push the result.
    BinOpIdx {
        /// Operator — never `&&`/`||`.
        op: BinOp,
        /// Array frame slot.
        arr: u32,
        /// Index frame slot.
        idx: u32,
        /// Units pending before the element load.
        u: u32,
    },
    /// Pop a length, allocate a zeroed array into frame slot `slot`.
    AllocArray {
        /// Destination frame slot.
        slot: u32,
        /// Element type.
        ty: Type,
    },
    /// Apply a unary operator to the top of stack.
    UnOp(UnOp),
    /// Apply a (non-logical) binary operator to the top two values.
    BinOp(BinOp),
    /// Fused `pop() <op> imm` — saves the constant push and a dispatch.
    BinOpInt(BinOp, i64),
    /// Fused `pop() <op> locals[slot]` — saves the load and a dispatch.
    BinOpLocal(BinOp, u32),
    /// Fused statement prologue: replay `units` pending expression-node
    /// charges, then the statement's `charge(cpu)`.
    ChargeUnitsCpu(u32, u32),
    /// Fused `locals[dst] = locals[src] <op> imm` (assignments and `for`
    /// steps like `i = i + 1` — the hottest statement shape).
    LocalOpImm {
        /// Operator (never `&&`/`||`).
        op: BinOp,
        /// Destination frame slot.
        dst: u32,
        /// Source frame slot.
        src: u32,
        /// Immediate right-hand side.
        imm: i64,
    },
    /// Replace the top of stack with `Int(truthy)`.
    Truthy,
    /// Unconditional relative jump.
    Jump(i32),
    /// Pop; jump if the value is falsy.
    JumpIfFalse(i32),
    /// `ChargeUnits(units)` folded into a `JumpIfFalse` (condition charges
    /// flush right before the branch).
    JumpIfFalseCharged {
        /// Pending unit charges to replay before branching.
        units: u32,
        /// Relative branch offset.
        off: i32,
    },
    /// Fully fused conditional: charge the condition's units, evaluate
    /// `locals[slot] <op> imm`, branch if falsy. Covers the canonical loop
    /// head `i < n` in one dispatch with zero stack traffic.
    CmpLocalImmBr {
        /// Comparison (or arithmetic) operator — never `&&`/`||`.
        op: BinOp,
        /// Left-hand frame slot.
        slot: u32,
        /// Immediate right-hand side.
        imm: i64,
        /// Non-unit CPU charge applied before everything else (the loop
        /// head's `LOOP_ITER`); 0 = none.
        cpu: u32,
        /// Pending unit charges to replay first.
        units: u32,
        /// Non-unit CPU charge on the fall-through path only: the first
        /// statement's `STMT` of the body or then-branch; 0 = none.
        post: u32,
        /// Relative branch offset when falsy.
        off: i32,
    },
    /// A `for` loop's step fused into its back edge:
    /// `locals[dst] = locals[src] <op> imm`, replay `units` pending unit
    /// charges, jump. A `CmpLocalImmBr` at the target (the loop head)
    /// runs in the same dispatch.
    StepJump {
        /// Operator (never `&&`/`||`).
        op: BinOp,
        /// Destination frame slot (the induction variable).
        dst: u32,
        /// Source frame slot.
        src: u32,
        /// Immediate right-hand side.
        imm: i64,
        /// The step's unit charges, replayed before jumping.
        units: u32,
        /// Relative jump offset (back to the loop head).
        off: i32,
    },
    /// Pop; if falsy, push `Int(0)` and jump (short-circuit `&&`).
    AndShortCircuit(i32),
    /// Pop; if truthy, push `Int(1)` and jump (short-circuit `||`).
    OrShortCircuit(i32),
    /// Call a user function by index; `argc` values are on the stack.
    Call {
        /// Index into [`CompiledProgram::functions`].
        func: u32,
        /// Argument count.
        argc: u32,
    },
    /// Call a pre-bound builtin; `argc` values are on the stack.
    CallBuiltin {
        /// Resolved builtin id.
        builtin: Builtin,
        /// Argument count.
        argc: u32,
    },
    /// Pop the return value and unwind one frame.
    Return,
    /// Sensor start probe.
    Tick(SensorId),
    /// Sensor stop probe.
    Tock(SensorId),
    /// Abort the rank with a pre-formatted runtime error.
    Trap(u32),
}

/// One compiled function: a flat instruction stream with every local
/// resolved to a slot in a frame of `n_slots` values.
#[derive(Clone, Debug)]
pub struct CompiledFn {
    /// Source name (diagnostics only; calls are by index).
    pub name: Name,
    /// Number of parameters (slots `0..arity` at entry).
    pub arity: u32,
    /// Total frame size: parameters plus one slot per declaration site.
    pub n_slots: u32,
    /// The instruction stream. Ends with an implicit-return sequence, so
    /// execution never runs off the end.
    pub code: Vec<Insn>,
}

/// A fully lowered program, shared across rank threads via `Arc`.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Initial global values, in declaration order (lowering rejects
    /// duplicates, so name → index is unambiguous).
    pub(crate) globals: Vec<Value>,
    /// Compiled functions, parallel to [`Program::functions`].
    pub(crate) functions: Vec<CompiledFn>,
    /// Index of `main`, if the program has one.
    entry: Option<u32>,
    /// Separate entry-mode compile of `main` for the corner case where
    /// `main` declares parameters: the walker's entry call binds no
    /// arguments, so parameter names must *not* resolve to slots (they
    /// fall through to globals or trap as unbound, exactly like the
    /// walker's empty environment).
    entry_variant: Option<Box<CompiledFn>>,
    /// Pre-formatted runtime-error messages for [`Insn::Trap`] /
    /// [`Insn::IndexTrap`].
    pub(crate) msgs: Vec<String>,
}

/// Pseudo-index naming the entry function in a suspended VM state: the
/// entry variant of `main` lives outside [`CompiledProgram::functions`],
/// so it gets a sentinel instead of a real index.
pub(crate) const ENTRY_FN: u32 = u32::MAX;

/// The error of running a program that has no `main`.
pub(crate) fn no_main() -> ExecError {
    ExecError::new("program has no `main`")
}

impl CompiledProgram {
    /// The function executed by the VM entry call, if `main` exists.
    pub(crate) fn entry_fn(&self) -> Option<&CompiledFn> {
        match (&self.entry_variant, self.entry) {
            (Some(f), _) => Some(f),
            (None, Some(i)) => Some(&self.functions[i as usize]),
            (None, None) => None,
        }
    }

    /// Resolve a function index stored in a suspended frame ([`ENTRY_FN`]
    /// names the entry function).
    pub(crate) fn fn_by_index(&self, i: u32) -> Result<&CompiledFn, ExecError> {
        if i == ENTRY_FN {
            self.entry_fn().ok_or_else(no_main)
        } else {
            Ok(&self.functions[i as usize])
        }
    }

    /// Number of compiled instructions across all functions (bench/debug).
    pub fn code_len(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

/// Compile a program. Infallible: anything that would fail at runtime in
/// the tree-walker (unbound names, unknown callees) compiles to a trap
/// that reproduces the walker's error at the walker's point in execution.
pub fn compile(program: &Program) -> CompiledProgram {
    let mut globals = Vec::with_capacity(program.globals.len());
    let mut global_map = HashMap::with_capacity(program.globals.len());
    for (i, g) in program.globals.iter().enumerate() {
        globals.push(match g.init {
            GlobalInit::Int(v) => Value::Int(v),
            GlobalInit::Float(v) => Value::Float(v),
        });
        global_map.insert(g.name.clone(), i as u32);
    }
    // Lowering rejects duplicate function names, so last-wins insertion
    // matches the walker's first-match scan.
    let mut fn_map = HashMap::with_capacity(program.functions.len());
    for (i, f) in program.functions.iter().enumerate() {
        fn_map.insert(f.name.clone(), i as u32);
    }
    let mut msgs = Vec::new();
    let functions = program
        .functions
        .iter()
        .map(|f| compile_function(f, true, &fn_map, &global_map, &mut msgs))
        .collect::<Vec<_>>();
    let entry = program.function_index("main").map(|i| i as u32);
    let entry_variant = entry
        .filter(|&i| !program.functions[i as usize].params.is_empty())
        .map(|i| {
            Box::new(compile_function(
                &program.functions[i as usize],
                false,
                &fn_map,
                &global_map,
                &mut msgs,
            ))
        });
    CompiledProgram {
        globals,
        functions,
        entry,
        entry_variant,
        msgs,
    }
}

/// Where a name resolves at a given point in compilation.
enum Resolved {
    Local(u32),
    Global(u32),
    Unbound,
}

struct FnCompiler<'p> {
    fn_map: &'p HashMap<Name, u32>,
    global_map: &'p HashMap<Name, u32>,
    msgs: &'p mut Vec<String>,
    code: Vec<Insn>,
    /// Every declaration in scope, in declaration order: a name resolves
    /// to its last entry, so inner scopes and re-declarations shadow.
    names: Vec<(Name, u32)>,
    /// Where each open nested scope starts in `names`.
    scope_starts: Vec<usize>,
    next_slot: u32,
    /// Open loops (a `break`/`continue` outside every loop traps).
    loop_depth: u32,
    /// Pending `break` (`true`) and `continue` jumps, innermost loop last;
    /// a loop patches and drains the ones it added when it closes.
    exits: Vec<(usize, bool)>,
    /// Unit (EXPR_NODE) charges accumulated since the last effectful
    /// instruction; folded into one `ChargeUnits` on flush.
    units: u32,
    /// The newest jump target ([`Self::here`]). Targets only grow, so the
    /// current position is a target iff it equals this.
    label: usize,
}

fn compile_function(
    f: &Function,
    bind_params: bool,
    fn_map: &HashMap<Name, u32>,
    global_map: &HashMap<Name, u32>,
    msgs: &mut Vec<String>,
) -> CompiledFn {
    let arity = if bind_params {
        f.params.len() as u32
    } else {
        0
    };
    let mut c = FnCompiler {
        fn_map,
        global_map,
        msgs,
        code: Vec::new(),
        names: Vec::new(),
        scope_starts: Vec::new(),
        next_slot: arity,
        loop_depth: 0,
        exits: Vec::new(),
        units: 0,
        label: 0,
    };
    if bind_params {
        for (i, (name, _)) in f.params.iter().enumerate() {
            c.names.push((name.clone(), i as u32));
        }
    }
    c.block(&f.body);
    // Falling off the end returns Int(0), like the walker's Flow::Normal.
    c.flush_units();
    c.code.push(Insn::PushInt(0));
    c.code.push(Insn::Return);
    CompiledFn {
        name: f.name.clone(),
        arity,
        n_slots: c.next_slot,
        code: c.code,
    }
}

impl FnCompiler<'_> {
    // ----- emission -----

    /// Emit a pure instruction (no charge/trap/jump behavior); pending
    /// unit charges may slide past it.
    fn emit(&mut self, i: Insn) {
        self.code.push(i);
    }

    /// Emit an instruction with observable effects, flushing pending unit
    /// charges first so charge order matches the walker.
    fn emit_effect(&mut self, i: Insn) {
        self.flush_units();
        self.code.push(i);
    }

    fn flush_units(&mut self) {
        if self.units > 0 {
            self.code.push(Insn::ChargeUnits(self.units));
            self.units = 0;
        }
    }

    /// Statement prologue: pending unit charges and the `STMT` charge fuse
    /// into one instruction (same charge order as flush-then-charge). The
    /// first statement behind a fused conditional — a loop body's or a
    /// then-branch's — folds its `STMT` into the conditional's `post`,
    /// which charges it on the fall-through path, unless a jump lands
    /// here: that jump must still meet the charge.
    fn charge_stmt(&mut self) {
        let stmt = cost::STMT as u32;
        if self.units > 0 {
            let units = self.units;
            self.units = 0;
            self.code.push(Insn::ChargeUnitsCpu(units, stmt));
            return;
        }
        let targeted = self.label == self.code.len();
        if let Some(Insn::CmpLocalImmBr { post: post @ 0, .. }) = self.code.last_mut() {
            if !targeted {
                *post = stmt;
                return;
            }
        }
        self.code.push(Insn::ChargeCpu(stmt));
    }

    /// Compile a condition followed by branch-if-false, fusing the
    /// `local <op> int-literal` shape (the canonical loop head) into a
    /// single instruction; returns the patch position. `cpu` is a non-unit
    /// charge the walker applies right before the condition (the loop
    /// head's `LOOP_ITER`, 0 for `if`): the fused form folds it in, the
    /// fallback emits it as its own instruction first.
    fn cond_branch(&mut self, cond: &Expr, cpu: u32) -> usize {
        if let Expr::Binary { op, lhs, rhs } = cond {
            if !matches!(op, BinOp::And | BinOp::Or) {
                if let (Expr::Var(n), Expr::Int(imm)) = (&**lhs, &**rhs) {
                    if let Resolved::Local(slot) = self.resolve(n) {
                        // Three effect-free nodes (binary, var, literal)
                        // join whatever units are already pending.
                        let units = self.units + 3 * cost::EXPR_NODE as u32;
                        self.units = 0;
                        self.code.push(Insn::CmpLocalImmBr {
                            op: *op,
                            slot,
                            imm: *imm,
                            cpu,
                            units,
                            post: 0,
                            off: 0,
                        });
                        return self.code.len() - 1;
                    }
                }
            }
        }
        if cpu > 0 {
            self.emit_effect(Insn::ChargeCpu(cpu));
        }
        self.expr(cond);
        self.emit_cond_branch()
    }

    /// Conditional branch with the condition's pending unit charges folded
    /// in; returns the patch position.
    fn emit_cond_branch(&mut self) -> usize {
        if self.units > 0 {
            let units = self.units;
            self.units = 0;
            self.code.push(Insn::JumpIfFalseCharged { units, off: 0 });
        } else {
            self.code.push(Insn::JumpIfFalse(0));
        }
        self.code.len() - 1
    }

    /// Current position as a jump target (flushes so no pending charge can
    /// be skipped or double-executed across the label).
    fn here(&mut self) -> usize {
        self.flush_units();
        self.label = self.code.len();
        self.label
    }

    /// Emit a forward jump with a placeholder offset; patch later.
    fn emit_jump(&mut self, make: fn(i32) -> Insn) -> usize {
        self.flush_units();
        self.code.push(make(0));
        self.code.len() - 1
    }

    fn patch_to(&mut self, at: usize, target: usize) {
        // Proof: |offset| < 2^31 needs a function of 2^31 32-byte `Insn`s,
        // 64 GiB of code, which `compile` cannot have allocated.
        let off = i32::try_from(target as i64 - (at as i64 + 1)).expect("jump offset exceeds i32");
        match &mut self.code[at] {
            Insn::Jump(o)
            | Insn::JumpIfFalse(o)
            | Insn::AndShortCircuit(o)
            | Insn::OrShortCircuit(o)
            | Insn::JumpIfFalseCharged { off: o, .. }
            | Insn::CmpLocalImmBr { off: o, .. }
            | Insn::StepJump { off: o, .. } => *o = off,
            // Proof: every `at` comes from a jump-emitting helper above.
            other => unreachable!("patching non-jump instruction {other:?}"),
        }
    }

    /// Patch a forward jump to land here.
    fn patch(&mut self, at: usize) {
        let target = self.here();
        self.patch_to(at, target);
    }

    /// Emit a loop's back edge to `target` (a step that does not fuse
    /// into a [`Insn::StepJump`], or a `while`).
    fn jump_back(&mut self, target: usize) {
        let at = self.emit_jump(Insn::Jump);
        self.patch_to(at, target);
    }

    fn msg(&mut self, text: String) -> u32 {
        self.msgs.push(text);
        (self.msgs.len() - 1) as u32
    }

    // ----- scopes -----

    fn push_scope(&mut self) {
        self.scope_starts.push(self.names.len());
    }

    fn pop_scope(&mut self) {
        if let Some(start) = self.scope_starts.pop() {
            self.names.truncate(start);
        }
    }

    /// Allocate a fresh slot for a declaration at this statement position.
    /// Slots are never reused, so a read compiled before the declaration
    /// site resolves past it — reproducing the walker's declare-on-execute
    /// scope chain.
    fn declare(&mut self, name: &Name) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.names.push((name.clone(), slot));
        slot
    }

    fn resolve(&self, name: &Name) -> Resolved {
        // Newest first: an inner scope's binding, and a re-declaration in
        // the same scope (the walker's map insert overwrites), shadow.
        if let Some((_, slot)) = self.names.iter().rev().find(|(n, _)| n == name) {
            return Resolved::Local(*slot);
        }
        match self.global_map.get(name) {
            Some(&g) => Resolved::Global(g),
            None => Resolved::Unbound,
        }
    }

    // ----- statements -----

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.charge_stmt();
        match s {
            Stmt::Decl { name, ty, init, .. } => {
                match init {
                    Some(e) => self.expr(e),
                    // Default value carries no charge in the walker.
                    None => self.emit(Insn::PushInt(0)),
                }
                self.emit(Insn::Coerce(*ty));
                let slot = self.declare(name);
                self.emit(Insn::StoreLocal(slot));
            }
            Stmt::ArrayDecl { name, ty, len, .. } => {
                self.expr(len);
                let slot = self.declare(name);
                self.emit_effect(Insn::AllocArray { slot, ty: *ty });
            }
            Stmt::Assign { target, value, .. } => {
                if let LValue::Var(name) = target {
                    if let Resolved::Local(dst) = self.resolve(name) {
                        if self.try_fused_local_assign(dst, value) {
                            return;
                        }
                    }
                }
                self.expr(value);
                match target {
                    LValue::Var(name) => match self.resolve(name) {
                        Resolved::Local(s) => self.emit(Insn::StoreLocal(s)),
                        Resolved::Global(g) => self.emit(Insn::StoreGlobal(g)),
                        Resolved::Unbound => {
                            let m = self.msg(format!("assignment to unbound `{name}`"));
                            self.emit_effect(Insn::Trap(m));
                        }
                    },
                    LValue::Index { name, index } => {
                        if let Expr::Var(iv) = index {
                            if let (Resolved::Local(idx), Resolved::Local(arr)) =
                                (self.resolve(iv), self.resolve(name))
                            {
                                // The index var's unit joins the pending
                                // fold, carried by the store itself.
                                let u = self.units + cost::EXPR_NODE as u32;
                                self.units = 0;
                                self.emit(Insn::StoreIndexLV { arr, idx, u });
                                return;
                            }
                        }
                        self.expr(index);
                        match self.resolve(name) {
                            Resolved::Local(s) => self.emit_effect(Insn::StoreIndexLocal(s)),
                            Resolved::Global(g) => self.emit_effect(Insn::StoreIndexGlobal(g)),
                            Resolved::Unbound => {
                                let m = self.msg(format!("unknown array `{name}`"));
                                self.emit_effect(Insn::IndexTrap(m));
                            }
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let jelse = self.cond_branch(cond, 0);
                self.push_scope();
                self.block(then_blk);
                self.pop_scope();
                if else_blk.stmts.is_empty() {
                    self.patch(jelse);
                } else {
                    let jend = self.emit_jump(Insn::Jump);
                    self.patch(jelse);
                    self.push_scope();
                    self.block(else_blk);
                    self.pop_scope();
                    self.patch(jend);
                }
            }
            Stmt::Loop {
                kind,
                var,
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.push_scope();
                // `for` evaluates the initializer and declares the
                // induction variable in the loop scope; `while` declares
                // nothing (its synthetic var is unused).
                let var_slot = if *kind == LoopKind::For {
                    self.expr(init);
                    let slot = self.declare(var);
                    self.emit(Insn::StoreLocal(slot));
                    Some(slot)
                } else {
                    None
                };
                let start = self.here();
                let jexit = self.cond_branch(cond, cost::LOOP_ITER as u32);
                let first_exit = self.exits.len();
                self.loop_depth += 1;
                self.push_scope();
                self.block(body);
                self.pop_scope();
                self.loop_depth -= 1;
                // Nested loops drained theirs, so the rest are this loop's.
                let exits = self.exits.split_off(first_exit);
                // `continue` lands on the step (for) or straight back at
                // the iteration charge (while).
                let cont = self.here();
                for &(at, _) in exits.iter().filter(|(_, is_break)| !is_break) {
                    self.patch_to(at, cont);
                }
                match var_slot.map(|slot| (slot, self.local_op_imm(step))) {
                    // `i = j <op> imm`: the step and the back edge are one
                    // instruction, which also runs a fused head.
                    Some((dst, Some((op, src, imm)))) => {
                        let units = self.units + 3 * cost::EXPR_NODE as u32;
                        self.units = 0;
                        self.code.push(Insn::StepJump {
                            op,
                            dst,
                            src,
                            imm,
                            units,
                            off: 0,
                        });
                        self.patch_to(self.code.len() - 1, start);
                    }
                    Some((slot, None)) => {
                        self.expr(step);
                        self.flush_units();
                        self.emit(Insn::StoreLocal(slot));
                        self.jump_back(start);
                    }
                    None => self.jump_back(start),
                }
                let end = self.here();
                self.patch_to(jexit, end);
                for &(at, _) in exits.iter().filter(|(_, is_break)| *is_break) {
                    self.patch_to(at, end);
                }
                self.pop_scope();
            }
            Stmt::Call(c) => {
                // Statement-position calls skip the EXPR_NODE charge (the
                // walker goes straight to eval_call).
                self.call(c);
                self.emit(Insn::Pop);
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(e) => self.expr(e),
                    None => self.emit(Insn::PushInt(0)),
                }
                self.emit_effect(Insn::Return);
            }
            Stmt::Break { .. } => self.loop_exit(true),
            Stmt::Continue { .. } => self.loop_exit(false),
            Stmt::Tick(s) => self.emit_effect(Insn::Tick(*s)),
            Stmt::Tock(s) => self.emit_effect(Insn::Tock(*s)),
        }
    }

    /// A `break` (`is_break`) or `continue`: a jump the enclosing loop
    /// patches when it closes.
    fn loop_exit(&mut self, is_break: bool) {
        if self.loop_depth == 0 {
            // The walker notices an escaping Break only at function
            // scope, but nothing in between charges or observes.
            let m = self.msg("`break`/`continue` outside of a loop".to_string());
            self.emit_effect(Insn::Trap(m));
        } else {
            let at = self.emit_jump(Insn::Jump);
            self.exits.push((at, is_break));
        }
    }

    // ----- expressions -----

    fn expr(&mut self, e: &Expr) {
        // The walker charges EXPR_NODE pre-order for every node.
        self.units += cost::EXPR_NODE as u32;
        match e {
            Expr::Int(v) => self.emit(Insn::PushInt(*v)),
            Expr::Float(v) => self.emit(Insn::PushFloat(*v)),
            Expr::Var(name) => match self.resolve(name) {
                Resolved::Local(s) => self.emit(Insn::LoadLocal(s)),
                Resolved::Global(g) => self.emit(Insn::LoadGlobal(g)),
                Resolved::Unbound => {
                    let m = self.msg(format!("unbound variable `{name}`"));
                    self.emit_effect(Insn::Trap(m));
                }
            },
            Expr::Index { name, index } => {
                // `a[k]` with both names local fuses the index load away
                // (its single unit charge joins the pending fold).
                if let Expr::Var(iv) = &**index {
                    if let (Resolved::Local(idx), Resolved::Local(arr)) =
                        (self.resolve(iv), self.resolve(name))
                    {
                        self.units += cost::EXPR_NODE as u32;
                        self.emit_effect(Insn::LoadIndexLV { arr, idx });
                        return;
                    }
                }
                self.expr(index);
                match self.resolve(name) {
                    Resolved::Local(s) => self.emit_effect(Insn::LoadIndexLocal(s)),
                    Resolved::Global(g) => self.emit_effect(Insn::LoadIndexGlobal(g)),
                    Resolved::Unbound => {
                        let m = self.msg(format!("unknown array `{name}`"));
                        self.emit_effect(Insn::IndexTrap(m));
                    }
                }
            }
            Expr::Unary { op, operand } => {
                self.expr(operand);
                self.emit(Insn::UnOp(*op));
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(lhs);
                    let j = self.emit_jump(Insn::AndShortCircuit);
                    self.expr(rhs);
                    self.emit_effect(Insn::Truthy);
                    self.patch(j);
                }
                BinOp::Or => {
                    self.expr(lhs);
                    let j = self.emit_jump(Insn::OrShortCircuit);
                    self.expr(rhs);
                    self.emit_effect(Insn::Truthy);
                    self.patch(j);
                }
                _ => {
                    // `a[i] <op> b[j]` with all four names local fuses to a
                    // single instruction; it replays the walker's exact charge
                    // order (node units, left memory charge, two more units,
                    // right memory charge) internally.
                    if let (Some((a, ai)), Some((b, bi))) =
                        (self.local_indexed(lhs), self.local_indexed(rhs))
                    {
                        let u1 = self.units + 2 * cost::EXPR_NODE as u32;
                        self.units = 0;
                        self.emit(Insn::BinOpII {
                            op: *op,
                            a,
                            ai,
                            b,
                            bi,
                            u1,
                        });
                        return;
                    }
                    self.expr(lhs);
                    // Fuse a simple right operand into the operator: the
                    // operand carries exactly one effect-free unit charge,
                    // which stays in the pending fold either way.
                    match &**rhs {
                        Expr::Int(v) => {
                            self.units += cost::EXPR_NODE as u32;
                            self.emit(Insn::BinOpInt(*op, *v));
                        }
                        Expr::Var(n) => match self.resolve(n) {
                            Resolved::Local(s) => {
                                self.units += cost::EXPR_NODE as u32;
                                self.emit(Insn::BinOpLocal(*op, s));
                            }
                            _ => {
                                self.expr(rhs);
                                self.emit(Insn::BinOp(*op));
                            }
                        },
                        _ => {
                            // Fused `<stack> <op> arr[idx]` right operand.
                            if let Some((arr, idx)) = self.local_indexed(rhs) {
                                let u = self.units + 2 * cost::EXPR_NODE as u32;
                                self.units = 0;
                                self.emit(Insn::BinOpIdx {
                                    op: *op,
                                    arr,
                                    idx,
                                    u,
                                });
                                return;
                            }
                            self.expr(rhs);
                            self.emit(Insn::BinOp(*op));
                        }
                    }
                }
            },
            Expr::Call(c) => self.call(c),
        }
    }

    /// `name[var]` with both names frame-local resolves to their slots.
    fn local_indexed(&mut self, e: &Expr) -> Option<(u32, u32)> {
        let Expr::Index { name, index } = e else {
            return None;
        };
        let Expr::Var(iv) = &**index else {
            return None;
        };
        match (self.resolve(name), self.resolve(iv)) {
            (Resolved::Local(arr), Resolved::Local(idx)) => Some((arr, idx)),
            _ => None,
        }
    }

    /// `local <op> int-literal` (never `&&`/`||`) as (op, slot, imm): both
    /// operands are effect-free, so the value's three expression-node
    /// charges can join the pending unit fold.
    fn local_op_imm(&self, value: &Expr) -> Option<(BinOp, u32, i64)> {
        let Expr::Binary { op, lhs, rhs } = value else {
            return None;
        };
        if matches!(op, BinOp::And | BinOp::Or) {
            return None;
        }
        let (Expr::Var(src_name), Expr::Int(imm)) = (&**lhs, &**rhs) else {
            return None;
        };
        match self.resolve(src_name) {
            Resolved::Local(src) => Some((*op, src, *imm)),
            _ => None,
        }
    }

    /// Try to compile `locals[dst] = <value>` as one fused instruction
    /// ([`Self::local_op_imm`] shapes): the whole statement becomes a
    /// single dispatch.
    fn try_fused_local_assign(&mut self, dst: u32, value: &Expr) -> bool {
        let Some((op, src, imm)) = self.local_op_imm(value) else {
            return false;
        };
        self.units += 3 * cost::EXPR_NODE as u32;
        self.emit(Insn::LocalOpImm { op, dst, src, imm });
        true
    }

    fn call(&mut self, c: &CallSite) {
        for a in &c.args {
            self.expr(a);
        }
        let argc = c.args.len() as u32;
        // Walker precedence: user functions shadow builtins.
        if let Some(&func) = self.fn_map.get(&c.callee) {
            self.emit_effect(Insn::Call { func, argc });
        } else if let Some(builtin) = Builtin::from_name(&c.callee) {
            self.emit_effect(Insn::CallBuiltin { builtin, argc });
        } else {
            // Unknown callee: the walker errors only after evaluating the
            // arguments, which the code above already did.
            let m = self.msg(format!(
                "call to unknown function `{}` at {}",
                c.callee, c.span
            ));
            self.emit_effect(Insn::Trap(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(&vsensor_lang::compile(src).unwrap())
    }

    fn main_code(p: &CompiledProgram) -> &[Insn] {
        &p.entry_fn().unwrap().code
    }

    #[test]
    fn slots_resolve_params_and_decls() {
        let p = compile_src(
            "fn f(int a, int b) -> int { int c = a + b; return c; } fn main() { f(1, 2); }",
        );
        let f = &p.functions[0];
        assert_eq!(f.arity, 2);
        assert_eq!(f.n_slots, 3);
        // `a + b` reads slot 0 with slot 1 fused into the operator; `c`
        // lives in slot 2.
        assert!(f.code.contains(&Insn::LoadLocal(0)));
        assert!(f.code.contains(&Insn::BinOpLocal(BinOp::Add, 1)));
        assert!(f.code.contains(&Insn::StoreLocal(2)));
    }

    #[test]
    fn unit_charges_fold() {
        let p = compile_src("fn main() { int x = 1 + 2 * 3; }");
        // Decl statement: STMT charge, then one folded run of 5 expression
        // nodes (binary, binary, and three literals).
        let code = main_code(&p);
        assert!(code.contains(&Insn::ChargeCpu(cost::STMT as u32)));
        assert!(code.contains(&Insn::ChargeUnits(5)));
    }

    #[test]
    fn statement_calls_skip_expr_node_charge() {
        let stmt = compile_src("fn main() { compute(7); }");
        let expr = compile_src("fn main() { int x = compute(7); }");
        // Statement position: only the argument literal charges a unit.
        assert!(main_code(&stmt).contains(&Insn::ChargeUnits(1)));
        // Expression position: call node + argument literal.
        assert!(main_code(&expr).contains(&Insn::ChargeUnits(2)));
    }

    #[test]
    fn calls_bind_to_indices_and_builtin_ids() {
        let p = compile_src("fn g() {} fn main() { g(); compute(1); }");
        let code = main_code(&p);
        assert!(code.contains(&Insn::Call { func: 0, argc: 0 }));
        assert!(code.contains(&Insn::CallBuiltin {
            builtin: Builtin::Compute,
            argc: 1
        }));
    }

    #[test]
    fn user_function_shadows_builtin() {
        let p = compile_src("fn compute(int n) {} fn main() { compute(1); }");
        assert!(main_code(&p).contains(&Insn::Call { func: 0, argc: 1 }));
    }

    #[test]
    fn unbound_names_compile_to_traps() {
        let p = compile_src("fn main() { x = 1; }");
        let code = main_code(&p);
        let Some(Insn::Trap(m)) = code.iter().find(|i| matches!(i, Insn::Trap(_))) else {
            panic!("no trap in {code:?}");
        };
        assert_eq!(p.msgs[*m as usize], "assignment to unbound `x`");
    }

    #[test]
    fn globals_resolve_to_indices() {
        let p = compile_src("global int G = 3; fn main() { G = G + 1; }");
        let code = main_code(&p);
        assert!(code.contains(&Insn::LoadGlobal(0)));
        assert!(code.contains(&Insn::StoreGlobal(0)));
        assert_eq!(p.globals, vec![Value::Int(3)]);
    }

    #[test]
    fn locals_shadow_globals() {
        let p = compile_src("global int G = 3; fn main() { int G = 1; G = 2; }");
        let code = main_code(&p);
        assert!(code.contains(&Insn::StoreLocal(0)));
        assert!(!code.contains(&Insn::StoreGlobal(0)));
    }

    #[test]
    fn read_before_declaration_resolves_past_the_decl() {
        // The walker declares on execution, so the read of `x` in the
        // initializer sees the global, not the local being declared.
        let p = compile_src("global int x = 7; fn main() { int x = x + 1; }");
        let code = main_code(&p);
        assert!(code.contains(&Insn::LoadGlobal(0)));
        assert!(code.contains(&Insn::StoreLocal(0)));
    }

    #[test]
    fn branch_scopes_pop() {
        // `a` declared in the then-branch is out of scope afterwards; the
        // later read must trap like the walker's unbound lookup.
        let p = compile_src("fn main() { if (1) { int a = 1; } a = 2; }");
        let code = main_code(&p);
        let trap = code.iter().any(|i| matches!(i, Insn::Trap(_)));
        assert!(trap, "expected unbound-assign trap in {code:?}");
    }

    #[test]
    fn jumps_resolve_within_bounds() {
        let p = compile_src(
            r#"
            fn main() {
                int s = 0;
                for (i = 0; i < 10; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    if (i > 7) { break; }
                    while (s < 100 && i > 0) { s = s + i; }
                }
            }
            "#,
        );
        for f in p.functions.iter().chain(p.entry_fn()) {
            for (at, insn) in f.code.iter().enumerate() {
                if let Insn::Jump(o)
                | Insn::JumpIfFalse(o)
                | Insn::JumpIfFalseCharged { off: o, .. }
                | Insn::CmpLocalImmBr { off: o, .. }
                | Insn::StepJump { off: o, .. }
                | Insn::AndShortCircuit(o)
                | Insn::OrShortCircuit(o) = insn
                {
                    let target = at as i64 + 1 + *o as i64;
                    assert!(
                        (0..=f.code.len() as i64).contains(&target),
                        "jump at {at} to {target} out of range"
                    );
                }
            }
        }
    }

    /// Where a jump at `at` lands.
    fn target(code: &[Insn], at: usize) -> usize {
        let off = match &code[at] {
            Insn::CmpLocalImmBr { off, .. } | Insn::StepJump { off, .. } => *off,
            other => panic!("not a fused loop jump: {other:?}"),
        };
        (at as i64 + 1 + off as i64) as usize
    }

    #[test]
    fn canonical_for_is_one_head_and_one_step_jump() {
        let p = compile_src(
            "fn main() { float m[8]; float x[8]; float y[8]; \
             for (k = 0; k < 8; k = k + 1) { y[k] = m[k] * x[k]; } }",
        );
        let code = main_code(&p);
        let heads: Vec<usize> = (0..code.len())
            .filter(|&at| matches!(code[at], Insn::CmpLocalImmBr { .. }))
            .collect();
        let steps: Vec<usize> = (0..code.len())
            .filter(|&at| matches!(code[at], Insn::StepJump { .. }))
            .collect();
        assert_eq!((heads.len(), steps.len()), (1, 1), "{code:?}");
        let (head, step) = (heads[0], steps[0]);
        assert!(matches!(
            code[head],
            Insn::CmpLocalImmBr { op: BinOp::Lt, imm: 8, cpu, units: 3, post, .. }
                if cpu == cost::LOOP_ITER as u32 && post == cost::STMT as u32
        ));
        assert!(matches!(
            code[step],
            Insn::StepJump { op: BinOp::Add, imm: 1, units: 3, dst, src, .. } if dst == src
        ));
        // The back edge lands on the head, the head's exit right past the
        // step, and the body between them is the element product and its
        // store: no statement charge, no separate step, no plain back edge.
        assert_eq!(target(code, step), head);
        assert_eq!(target(code, head), step + 1);
        assert!(
            matches!(
                &code[head + 1..step],
                [Insn::BinOpII { .. }, Insn::StoreIndexLV { .. }]
            ),
            "{code:?}"
        );
    }

    #[test]
    fn steps_and_heads_that_do_not_fuse_keep_their_forms() {
        // A step that is not `local <op> literal`: evaluated, stored, and
        // a plain back edge.
        let p = compile_src("fn main() { int s = 2; for (k = 0; k < 8; k = k + s) { s = s; } }");
        let code = main_code(&p);
        assert!(!code.iter().any(|i| matches!(i, Insn::StepJump { .. })));
        let back = code
            .iter()
            .rposition(|i| matches!(i, Insn::Jump(o) if *o < 0));
        let back = back.expect("a plain back edge");
        assert!(matches!(code[back - 1], Insn::StoreLocal(_)), "{code:?}");
        // A head that is not `local <op> literal`: no `post` to carry the
        // body's `STMT`, which keeps its own instruction; the step still
        // fuses with the back edge, which lands on the `LOOP_ITER` charge.
        let p = compile_src(
            "fn main() { int n = 8; int s = 0; for (k = 0; k < n; k = k + 1) { s = s + k; } }",
        );
        let code = main_code(&p);
        let step = code.iter().position(|i| matches!(i, Insn::StepJump { .. }));
        let step = step.expect("the step fuses");
        let Insn::StepJump { off, .. } = code[step] else {
            unreachable!()
        };
        let head = (step as i64 + 1 + off as i64) as usize;
        assert_eq!(code[head], Insn::ChargeCpu(cost::LOOP_ITER as u32));
        assert!(code[head..step].contains(&Insn::ChargeCpu(cost::STMT as u32)));
    }

    #[test]
    fn a_statement_behind_a_jump_target_keeps_its_charge() {
        // The `if`'s empty then-branch: its head's exit lands on the next
        // statement's `STMT`, so that charge stays an instruction of its
        // own (folding it into the head's `post` would skip it whenever
        // the condition is false). The loop head, which no jump lands
        // behind, still carries the `if` statement's `STMT`.
        let p = compile_src(
            "fn main() { int s = 0; for (k = 0; k < 8; k = k + 1) { if (k < 4) {} s = s + 1; } }",
        );
        let code = main_code(&p);
        let heads: Vec<usize> = (0..code.len())
            .filter(|&at| matches!(code[at], Insn::CmpLocalImmBr { .. }))
            .collect();
        assert_eq!(heads.len(), 2, "{code:?}");
        let stmt = cost::STMT as u32;
        assert!(matches!(code[heads[0]], Insn::CmpLocalImmBr { post, .. } if post == stmt));
        assert!(matches!(
            code[heads[1]],
            Insn::CmpLocalImmBr { post: 0, .. }
        ));
        assert_eq!(target(code, heads[1]), heads[1] + 1);
        assert_eq!(code[heads[1] + 1], Insn::ChargeCpu(stmt));
    }

    #[test]
    fn first_statements_fold_into_then_branches_and_nested_heads() {
        // A `for` whose first statement is another loop, and a then-branch
        // opened by a fused head: every `STMT` right behind a head rides
        // on it.
        let p = compile_src(
            "fn main() { int s = 0; \
             for (b = 0; b < 4; b = b + 1) { while (s < 100) { if (s > 7) { s = s + 2; } s = s + 1; } } }",
        );
        let code = main_code(&p);
        let stmt = cost::STMT as u32;
        let posts: Vec<u32> = code
            .iter()
            .filter_map(|i| match i {
                Insn::CmpLocalImmBr { post, .. } => Some(*post),
                _ => None,
            })
            .collect();
        assert_eq!(posts, vec![stmt, stmt, stmt], "{code:?}");
        assert_eq!(
            code.iter()
                .filter(|i| matches!(i, Insn::StepJump { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn entry_variant_only_for_main_with_params() {
        let plain = compile_src("fn main() { }");
        assert!(plain.entry_variant.is_none());
        // `main` with parameters gets an entry compile where the params do
        // not bind (the walker's entry call passes no arguments).
        let weird = compile_src("global int x = 1; fn main(int x) { x = 5; }");
        let entry = weird.entry_fn().unwrap();
        assert_eq!(entry.arity, 0);
        assert!(entry.code.contains(&Insn::StoreGlobal(0)));
    }
}
