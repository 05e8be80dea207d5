//! Structured intermediate representation.
//!
//! Unlike LLVM-IR, this IR stays *structured*: loops, branches and calls
//! remain explicit tree nodes, because the vSensor identification algorithm
//! (paper §3) reasons about "snippets" which are precisely loops and call
//! sites. Every loop and call site receives a stable, program-unique ID at
//! lowering time; these IDs are how the analysis, the instrumentation pass
//! and the runtime refer to snippets.

use crate::ast::Type;
use crate::intern::Name;
use crate::span::Span;
use std::fmt;

/// Program-unique loop identifier, assigned in lowering order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// Program-unique call-site identifier, assigned in lowering order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u32);

/// Identifier of an instrumented v-sensor, assigned by the instrumentation
/// pass (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SensorId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A lowered program: globals plus functions, with `main` required by the
/// interpreter (but not by the analysis).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Global variables in declaration order.
    pub globals: Vec<Global>,
    /// Functions in declaration order.
    pub functions: Vec<Function>,
    /// Total number of loop IDs handed out (IDs are `0..loop_count`).
    pub loop_count: u32,
    /// Total number of call IDs handed out (IDs are `0..call_count`).
    pub call_count: u32,
}

impl Program {
    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Index of a function by name.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Look up a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// A global variable with its constant initializer.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// Name.
    pub name: Name,
    /// Declared type.
    pub ty: Type,
    /// Initial value (ints are stored exactly; floats as bits in `f64`).
    pub init: GlobalInit,
    /// Source location.
    pub span: Span,
}

/// Global initializer value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GlobalInit {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
}

/// A lowered function.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Name.
    pub name: Name,
    /// Parameter names and types, in order.
    pub params: Vec<(Name, Type)>,
    /// Return type if any.
    pub ret: Option<Type>,
    /// Body.
    pub body: Block,
    /// Source location of the header.
    pub span: Span,
}

/// A sequence of statements.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// Loop flavors. The distinction matters to the analysis: a `for` loop's
/// induction variable is freshly initialized at loop entry, so its entry
/// value never influences workload; a `while` loop's condition reads
/// variables whose entry values persist across outer iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    /// Counted `for` loop with induction variable.
    For,
    /// Condition-tested `while` loop.
    While,
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Scalar declaration, optionally initialized.
    Decl {
        /// Variable name.
        name: Name,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// Array declaration (zero-initialized, dynamically sized).
    ArrayDecl {
        /// Array name.
        name: Name,
        /// Element type.
        ty: Type,
        /// Length expression.
        len: Expr,
        /// Source location.
        span: Span,
    },
    /// Assignment to a variable or array element.
    Assign {
        /// Target.
        target: LValue,
        /// Value.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// Then block.
        then_blk: Block,
        /// Else block (empty if absent).
        else_blk: Block,
        /// Source location.
        span: Span,
    },
    /// A loop (both `for` and `while`, discriminated by `kind`).
    Loop {
        /// Program-unique loop ID.
        id: LoopId,
        /// `for` or `while`.
        kind: LoopKind,
        /// Induction variable (for `for` loops; a fresh hidden name for
        /// `while` loops, unused).
        var: Name,
        /// Induction initializer (`for` only; constant 0 for `while`).
        init: Expr,
        /// Continuation condition.
        cond: Expr,
        /// Step expression (`for` only; constant 0 for `while`).
        step: Expr,
        /// Loop body.
        body: Block,
        /// Source location.
        span: Span,
    },
    /// A call evaluated for effect; the result (if any) is discarded or
    /// bound by an enclosing `Assign` via [`Expr::Call`].
    Call(CallSite),
    /// Return from the function.
    Return {
        /// Optional value.
        value: Option<Expr>,
        /// Source location.
        span: Span,
    },
    /// Leave the innermost loop.
    Break {
        /// Source location.
        span: Span,
    },
    /// Skip to the next iteration of the innermost loop.
    Continue {
        /// Source location.
        span: Span,
    },
    /// Instrumentation probe: start timing sensor `id` (inserted by the
    /// instrumentation pass, never by the parser).
    Tick(SensorId),
    /// Instrumentation probe: stop timing sensor `id`.
    Tock(SensorId),
}

impl Stmt {
    /// Source span of the statement (synthetic for probes).
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::ArrayDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Loop { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Break { span }
            | Stmt::Continue { span } => *span,
            Stmt::Call(c) => c.span,
            Stmt::Tick(_) | Stmt::Tock(_) => Span::SYNTHETIC,
        }
    }
}

/// Assignment target.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Var(Name),
    /// Array element.
    Index {
        /// Array name.
        name: Name,
        /// Index expression.
        index: Expr,
    },
}

impl LValue {
    /// The variable name being (partially) written.
    pub fn base(&self) -> &Name {
        match self {
            LValue::Var(n) => n,
            LValue::Index { name, .. } => name,
        }
    }
}

/// A call site, either a user function or an extern/builtin.
#[derive(Clone, Debug, PartialEq)]
pub struct CallSite {
    /// Program-unique call-site ID.
    pub id: CallId,
    /// Callee name.
    pub callee: Name,
    /// Arguments.
    pub args: Vec<Expr>,
    /// Source location.
    pub span: Span,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Variable read (local, parameter or global — resolution happens in
    /// the analysis/interpreter against the enclosing scopes).
    Var(Name),
    /// Array element read.
    Index {
        /// Array name.
        name: Name,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Call used as a value.
    Call(Box<CallSite>),
}

impl Expr {
    /// Visit every call site in this expression.
    pub fn visit_calls<'e>(&'e self, f: &mut impl FnMut(&'e CallSite)) {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => {}
            Expr::Index { index, .. } => index.visit_calls(f),
            Expr::Unary { operand, .. } => operand.visit_calls(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_calls(f);
                rhs.visit_calls(f);
            }
            Expr::Call(c) => {
                for a in &c.args {
                    a.visit_calls(f);
                }
                f(c);
            }
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Walk every statement of a block tree in pre-order, calling `f` on each.
fn visit_stmts<'b>(block: &'b Block, f: &mut impl FnMut(&'b Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match stmt {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                visit_stmts(then_blk, f);
                visit_stmts(else_blk, f);
            }
            Stmt::Loop { body, .. } => visit_stmts(body, f),
            _ => {}
        }
    }
}

/// Walk every call site of a block tree (both statement calls and calls
/// nested in expressions) in pre-order.
pub fn visit_calls<'b>(block: &'b Block, f: &mut impl FnMut(&'b CallSite)) {
    visit_stmts(block, &mut |stmt| {
        let mut on_expr = |e: &'b Expr| e.visit_calls(f);
        match stmt {
            Stmt::Decl { init: Some(e), .. } => on_expr(e),
            Stmt::Decl { init: None, .. } => {}
            Stmt::ArrayDecl { len, .. } => on_expr(len),
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index { index, .. } = target {
                    on_expr(index);
                }
                on_expr(value);
            }
            Stmt::If { cond, .. } => on_expr(cond),
            Stmt::Loop {
                init, cond, step, ..
            } => {
                on_expr(init);
                on_expr(cond);
                on_expr(step);
            }
            Stmt::Call(c) => {
                for a in &c.args {
                    a.visit_calls(f);
                }
                f(c);
            }
            Stmt::Return { value: Some(e), .. } => on_expr(e),
            Stmt::Return { value: None, .. }
            | Stmt::Break { .. }
            | Stmt::Continue { .. }
            | Stmt::Tick(_)
            | Stmt::Tock(_) => {}
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn ids_are_unique_and_dense() {
        let p = compile(
            r#"
            fn f(int x) { for (i = 0; i < x; i = i + 1) { compute(1); } }
            fn main() {
                for (n = 0; n < 10; n = n + 1) { f(n); f(3); }
                while (0 < 1) { compute(2); }
            }
            "#,
        )
        .unwrap();
        let mut loops = Vec::new();
        let mut calls = Vec::new();
        for func in &p.functions {
            visit_stmts(&func.body, &mut |s| {
                if let Stmt::Loop { id, .. } = s {
                    loops.push(id.0);
                }
            });
            visit_calls(&func.body, &mut |c| calls.push(c.id.0));
        }
        loops.sort_unstable();
        calls.sort_unstable();
        assert_eq!(loops, (0..p.loop_count).collect::<Vec<_>>());
        assert_eq!(calls, (0..p.call_count).collect::<Vec<_>>());
    }

    #[test]
    fn visit_calls_sees_nested_call_args() {
        let p = compile("fn g(int x) -> int { return x; } fn main() { g(g(1)); }").unwrap();
        let mut names = Vec::new();
        visit_calls(&p.functions[1].body, &mut |c| names.push(c.callee.clone()));
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn lvalue_base_names() {
        assert_eq!(LValue::Var("x".into()).base(), "x");
        assert_eq!(
            LValue::Index {
                name: "a".into(),
                index: Expr::Int(0)
            }
            .base(),
            "a"
        );
    }
}
