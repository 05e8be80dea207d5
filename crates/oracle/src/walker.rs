//! The tree-walking interpreter: a recursive evaluator over the IR, the
//! direct reading of MiniHPC's semantics.
//!
//! It charges work, fires probes and dispatches builtins through the
//! product's [`Machine`] surface — the same calls the bytecode VM makes —
//! and keeps only what a tree-walk needs on top: a scope-chain environment
//! per call, the per-rank globals by name, and the call depth. A recursive
//! evaluator cannot return to the scheduler mid-recursion, so it runs on
//! the crate's lock-step host and parks there whenever a builtin's MPI
//! operation is `Pending`, then re-dispatches the same builtin.

use crate::host::Lockstep;
use std::collections::HashMap;
use std::sync::Arc;
use vsensor_interp::builtins::{self, Builtin};
use vsensor_interp::machine::{
    binop, coerce_scalar, cost, load_element, store_element, MachineResult, SensorHarness,
};
use vsensor_interp::{ExecError, Machine, Value};
use vsensor_lang::{
    BinOp, Block, CallSite, Expr, Function, GlobalInit, LValue, LoopKind, Program, Stmt, UnOp,
};

/// Control flow out of a statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// One rank's walker.
pub(crate) struct Walker<'h> {
    machine: Machine<Lockstep<'h>>,
    program: Arc<Program>,
    globals: Env,
    call_depth: usize,
}

impl<'h> Walker<'h> {
    /// A walker for the rank behind `handle`. Pass `sensors` for
    /// instrumented runs.
    pub(crate) fn new(
        program: Arc<Program>,
        handle: Lockstep<'h>,
        sensors: Option<SensorHarness>,
    ) -> Self {
        let mut globals = Env::new();
        for g in &program.globals {
            let v = match g.init {
                GlobalInit::Int(v) => Value::Int(v),
                GlobalInit::Float(v) => Value::Float(v),
            };
            globals.declare(&g.name, v);
        }
        Walker {
            machine: Machine::new(handle, sensors),
            program,
            globals,
            call_depth: 0,
        }
    }

    /// Execute `main`; returns the finalized sensor state.
    pub(crate) fn run(mut self) -> Result<MachineResult, ExecError> {
        let main = self
            .program
            .function_index("main")
            .ok_or_else(|| ExecError::new("program has no `main`"))?;
        // Borrow the function out of the shared program instead of deep
        // cloning its whole body for the call.
        let program = Arc::clone(&self.program);
        self.call_function(&program.functions[main], Vec::new())?;
        Ok(self.machine.finalize())
    }

    fn call_function(&mut self, func: &Function, args: Vec<Value>) -> Result<Value, ExecError> {
        if self.call_depth > 256 {
            return Err(ExecError::new("call depth exceeded (runaway recursion)"));
        }
        self.call_depth += 1;
        self.machine.charge(cost::CALL);
        let mut env = Env::new();
        for ((name, _), value) in func.params.iter().zip(args) {
            env.declare(name, value);
        }
        let flow = self.exec_block(&func.body, &mut env)?;
        self.call_depth -= 1;
        Ok(match flow {
            Flow::Return(v) => v,
            Flow::Normal => Value::Int(0),
            Flow::Break | Flow::Continue => {
                return Err(ExecError::new("`break`/`continue` outside of a loop"))
            }
        })
    }

    fn exec_block(&mut self, block: &Block, env: &mut Env) -> Result<Flow, ExecError> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env) -> Result<Flow, ExecError> {
        self.machine.charge(cost::STMT);
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                let v = match init {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Int(0),
                };
                let v = coerce_scalar(v, *ty);
                env.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::ArrayDecl { name, ty, len, .. } => {
                let n = self
                    .eval(len, env)?
                    .as_int()
                    .ok_or_else(|| ExecError::new("array length must be integer"))?;
                if n < 0 {
                    return Err(ExecError::new(format!("negative array length {n}")));
                }
                let v = Value::zeroed_array(*ty, n as usize);
                self.machine.charge_mem(n as u64 / 8);
                env.declare(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value, .. } => {
                let v = self.eval(value, env)?;
                match target {
                    LValue::Var(name) => {
                        if !env.set(name, v.clone()) && !self.globals.set(name, v) {
                            return Err(ExecError::new(format!("assignment to unbound `{name}`")));
                        }
                    }
                    LValue::Index { name, index } => {
                        let i = self
                            .eval(index, env)?
                            .as_int()
                            .ok_or_else(|| ExecError::new("array index must be integer"))?;
                        self.machine.charge_mem(cost::ARRAY_MEM);
                        let slot = env
                            .get_mut(name)
                            .or_else(|| self.globals.get_mut(name))
                            .ok_or_else(|| ExecError::new(format!("unknown array `{name}`")))?;
                        store_element(slot, i, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval(cond, env)?;
                env.push();
                let flow = if c.truthy() {
                    self.exec_block(then_blk, env)
                } else {
                    self.exec_block(else_blk, env)
                };
                env.pop();
                flow
            }
            Stmt::Loop {
                var,
                init,
                cond,
                step,
                body,
                kind,
                ..
            } => {
                env.push();
                if *kind == LoopKind::For {
                    let v = self.eval(init, env)?;
                    env.declare(var, v);
                }
                loop {
                    self.machine.charge(cost::LOOP_ITER);
                    if !self.eval(cond, env)?.truthy() {
                        break;
                    }
                    env.push();
                    let flow = self.exec_block(body, env)?;
                    env.pop();
                    match flow {
                        Flow::Return(v) => {
                            env.pop();
                            return Ok(Flow::Return(v));
                        }
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                    }
                    if *kind == LoopKind::For {
                        let v = self.eval(step, env)?;
                        env.set(var, v);
                    }
                }
                env.pop();
                Ok(Flow::Normal)
            }
            Stmt::Call(c) => {
                self.eval_call(c, env)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            Stmt::Tick(s) => {
                self.machine.on_tick(*s);
                Ok(Flow::Normal)
            }
            Stmt::Tock(s) => {
                self.machine.on_tock(*s);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_call(&mut self, c: &CallSite, env: &mut Env) -> Result<Value, ExecError> {
        let mut args = Vec::with_capacity(c.args.len());
        for a in &c.args {
            args.push(self.eval(a, env)?);
        }
        if let Some(fi) = self.program.function_index(&c.callee) {
            // Borrow through a cheap `Arc` bump instead of deep cloning the
            // callee's body on every call.
            let program = Arc::clone(&self.program);
            return self.call_function(&program.functions[fi], args);
        }
        let Some(builtin) = Builtin::from_name(&c.callee) else {
            return Err(ExecError::new(format!(
                "call to unknown function `{}` at {}",
                c.callee, c.span
            )));
        };
        // A `Pending` MPI operation parks the rank on the lock-step host;
        // on resume the same builtin is dispatched again — the retry the
        // VM makes by returning to the scheduler.
        loop {
            if let Some(result) = builtins::dispatch(&mut self.machine, builtin, &args)? {
                return Ok(result);
            }
            self.machine.handle().park();
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Result<Value, ExecError> {
        self.machine.charge(cost::EXPR_NODE);
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Var(name) => env
                .get(name)
                .or_else(|| self.globals.get(name))
                .cloned()
                .ok_or_else(|| ExecError::new(format!("unbound variable `{name}`"))),
            Expr::Index { name, index } => {
                let i = self
                    .eval(index, env)?
                    .as_int()
                    .ok_or_else(|| ExecError::new("array index must be integer"))?;
                self.machine.charge_mem(cost::ARRAY_MEM);
                let arr = env
                    .get(name)
                    .or_else(|| self.globals.get(name))
                    .ok_or_else(|| ExecError::new(format!("unknown array `{name}`")))?;
                load_element(arr, i)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(x) => Ok(Value::Int(-x)),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        _ => Err(ExecError::new("cannot negate array")),
                    },
                    UnOp::Not => Ok(Value::Int(!v.truthy() as i64)),
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs, env)?;
                        if !l.truthy() {
                            return Ok(Value::Int(0));
                        }
                        let r = self.eval(rhs, env)?;
                        return Ok(Value::Int(r.truthy() as i64));
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs, env)?;
                        if l.truthy() {
                            return Ok(Value::Int(1));
                        }
                        let r = self.eval(rhs, env)?;
                        return Ok(Value::Int(r.truthy() as i64));
                    }
                    _ => {}
                }
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                binop(*op, l, r)
            }
            Expr::Call(c) => self.eval_call(c, env),
        }
    }
}

/// Lexically-scoped variable environment for one function activation.
///
/// Scopes are pushed for blocks that introduce bindings (loop bodies bind
/// the induction variable); lookups walk inner-to-outer, then fall back to
/// the walker's per-rank globals.
#[derive(Debug)]
struct Env {
    /// Never empty: the function-body scope is the first.
    scopes: Vec<HashMap<String, Value>>,
}

impl Env {
    /// Environment with a single (function-body) scope.
    fn new() -> Self {
        Env {
            scopes: vec![HashMap::new()],
        }
    }

    /// Enter a nested scope.
    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    /// Leave the innermost scope (pushes and pops are paired).
    fn pop(&mut self) {
        self.scopes.pop().expect("scope underflow");
    }

    /// Declare (or shadow) a variable in the innermost scope.
    fn declare(&mut self, name: &str, value: Value) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), value);
    }

    /// Read a variable, innermost scope first.
    fn get(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Write an existing variable (innermost binding wins). Returns false
    /// if the name is unbound here (the caller then tries globals).
    fn set(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    /// Mutable access to a bound value (for array stores).
    fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_shadows_and_restores() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        env.declare("x", Value::Int(2));
        assert_eq!(env.get("x"), Some(&Value::Int(2)));
        env.pop();
        assert_eq!(env.get("x"), Some(&Value::Int(1)));
    }

    #[test]
    fn set_updates_innermost_binding() {
        let mut env = Env::new();
        env.declare("x", Value::Int(1));
        env.push();
        assert!(env.set("x", Value::Int(9)));
        env.pop();
        assert_eq!(env.get("x"), Some(&Value::Int(9)));
        assert!(!env.set("missing", Value::Int(0)));
    }
}
