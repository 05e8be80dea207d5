//! IR-to-source printer.
//!
//! Implements the paper's "map to source" + "instrument" output (Figure 2,
//! steps 3-4): an instrumented [`Program`] can be rendered back to MiniHPC
//! source, with `vs_tick(S)` / `vs_tock(S)` probe calls visible where the
//! instrumentation pass placed them. The printed text re-parses to an
//! equivalent program (modulo probes), which is checked by round-trip tests.

use crate::ast::Type;
use crate::ir::*;
use crate::lower::is_synthetic_var;
use std::fmt::{self, Write};

/// Render a whole program as MiniHPC source text.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_program(p, &mut out);
    out
}

/// Emit a whole program into any `fmt::Write` sink: the one printer behind
/// [`print_program`] and every other consumer of the text. Expressions are
/// streamed, never built as intermediate strings.
pub fn write_program(p: &Program, out: &mut impl Write) -> fmt::Result {
    for g in &p.globals {
        let (ty, name) = (type_name(g.ty), &g.name);
        match g.init {
            GlobalInit::Int(v) => writeln!(out, "global {ty} {name} = {v};")?,
            GlobalInit::Float(v) => writeln!(out, "global {ty} {name} = {};", Float(v))?,
        }
    }
    if !p.globals.is_empty() {
        out.write_char('\n')?;
    }
    for (i, f) in p.functions.iter().enumerate() {
        if i > 0 {
            out.write_char('\n')?;
        }
        write_function(f, out)?;
    }
    Ok(())
}

/// Emit a single function.
pub(crate) fn write_function(f: &Function, out: &mut impl Write) -> fmt::Result {
    write!(out, "fn {}(", f.name)?;
    for (i, (n, t)) in f.params.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(out, "{sep}{} {n}", type_name(*t))?;
    }
    match f.ret {
        Some(t) => writeln!(out, ") -> {} {{", type_name(t))?,
        None => out.write_str(") {\n")?,
    }
    write_block(&f.body, 1, out)?;
    out.write_str("}\n")
}

fn indent(level: usize, out: &mut impl Write) -> fmt::Result {
    for _ in 0..level {
        out.write_str("    ")?;
    }
    Ok(())
}

fn write_block(b: &Block, level: usize, out: &mut impl Write) -> fmt::Result {
    for s in &b.stmts {
        write_stmt(s, level, out)?;
    }
    Ok(())
}

fn write_stmt(s: &Stmt, level: usize, out: &mut impl Write) -> fmt::Result {
    indent(level, out)?;
    match s {
        Stmt::Decl { name, ty, init, .. } => match init {
            Some(e) => writeln!(out, "{} {} = {};", type_name(*ty), name, Prec(e, 0)),
            None => writeln!(out, "{} {};", type_name(*ty), name),
        },
        Stmt::ArrayDecl { name, ty, len, .. } => {
            writeln!(out, "{} {}[{}];", type_name(*ty), name, Prec(len, 0))
        }
        Stmt::Assign { target, value, .. } => match target {
            LValue::Var(n) => writeln!(out, "{n} = {};", Prec(value, 0)),
            LValue::Index { name, index } => {
                writeln!(out, "{name}[{}] = {};", Prec(index, 0), Prec(value, 0))
            }
        },
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            writeln!(out, "if ({}) {{", Prec(cond, 0))?;
            write_block(then_blk, level + 1, out)?;
            indent(level, out)?;
            if else_blk.stmts.is_empty() {
                return out.write_str("}\n");
            }
            out.write_str("} else {\n")?;
            write_block(else_blk, level + 1, out)?;
            indent(level, out)?;
            out.write_str("}\n")
        }
        Stmt::Loop {
            id,
            kind,
            var,
            init,
            cond,
            step,
            body,
            ..
        } => {
            let (init, cond, step) = (Prec(init, 0), Prec(cond, 0), Prec(step, 0));
            match kind {
                LoopKind::For => writeln!(
                    out,
                    "for ({var} = {init}; {cond}; {var} = {step}) {{ // {id}"
                )?,
                LoopKind::While => {
                    debug_assert!(is_synthetic_var(var));
                    writeln!(out, "while ({cond}) {{ // {id}")?
                }
            }
            write_block(body, level + 1, out)?;
            indent(level, out)?;
            out.write_str("}\n")
        }
        Stmt::Call(c) => writeln!(out, "{}; // {}", Call(c), c.id),
        Stmt::Return { value: Some(e), .. } => writeln!(out, "return {};", Prec(e, 0)),
        Stmt::Return { value: None, .. } => out.write_str("return;\n"),
        Stmt::Break { .. } => out.write_str("break;\n"),
        Stmt::Continue { .. } => out.write_str("continue;\n"),
        Stmt::Tick(id) => writeln!(out, "vs_tick({});", id.0),
        Stmt::Tock(id) => writeln!(out, "vs_tock({});", id.0),
    }
}

/// A call site, streamed.
struct Call<'c>(&'c CallSite);

impl fmt::Display for Call<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.0.callee)?;
        for (i, a) in self.0.args.iter().enumerate() {
            f.write_str(if i > 0 { ", " } else { "" })?;
            Prec(a, 0).fmt(f)?;
        }
        f.write_char(')')
    }
}

/// Precedence tiers: 1=or, 2=and, 3=cmp, 4=add, 5=mul, 6=unary, 7=atom.
fn binop_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
    }
}

/// An operator with the spaces around it.
fn binop_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => " + ",
        BinOp::Sub => " - ",
        BinOp::Mul => " * ",
        BinOp::Div => " / ",
        BinOp::Rem => " % ",
        BinOp::Lt => " < ",
        BinOp::Le => " <= ",
        BinOp::Gt => " > ",
        BinOp::Ge => " >= ",
        BinOp::Eq => " == ",
        BinOp::Ne => " != ",
        BinOp::And => " && ",
        BinOp::Or => " || ",
    }
}

/// An expression streamed at a minimum precedence: parenthesized when its
/// own is lower.
struct Prec<'e>(&'e Expr, u8);

impl fmt::Display for Prec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Prec(e, min_prec) = *self;
        match e {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => Float(*v).fmt(f),
            Expr::Var(n) => f.write_str(n),
            Expr::Index { name, index } => write!(f, "{name}[{}]", Prec(index, 0)),
            Expr::Unary { op, operand } => {
                let sym = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                };
                let operand = Prec(operand, 6);
                if min_prec > 6 {
                    write!(f, "({sym}{operand})")
                } else {
                    write!(f, "{sym}{operand}")
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let p = binop_prec(*op);
                // Left-associative: the right operand needs strictly higher
                // precedence; comparisons are non-associative, so both sides
                // need higher precedence.
                let lp = if p == 3 { p + 1 } else { p };
                let parens = p < min_prec;
                if parens {
                    f.write_char('(')?;
                }
                Prec(lhs, lp).fmt(f)?;
                f.write_str(binop_sym(*op))?;
                Prec(rhs, p + 1).fmt(f)?;
                if parens {
                    f.write_char(')')?;
                }
                Ok(())
            }
            Expr::Call(c) => Call(c).fmt(f),
        }
    }
}

fn type_name(t: Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::Float => "float",
    }
}

/// A float literal: integral values keep one decimal so they re-lex as
/// floats.
struct Float(f64);

impl fmt::Display for Float {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
            write!(f, "{v:.1}")
        } else {
            write!(f, "{v}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    /// Strip the `// L0` style ID comments and probe lines so a printed
    /// program can be compared structurally after a round trip.
    fn reparse(printed: &str) -> Program {
        compile(printed).unwrap()
    }

    #[test]
    fn round_trip_preserves_structure() {
        let src = r#"
            global int GLBV = 40;
            global float PI = 3.25;
            fn foo(int x, int y) -> int {
                int value = 0;
                for (i = 0; i < x; i = i + 1) {
                    value = value + y;
                    for (j = 0; j < 10; j = j + 1) { value = value - 1; }
                }
                if (x > GLBV) { value = value - x * y; } else { value = 0; }
                return value;
            }
            fn main() {
                float a[64];
                a[0] = 1.5;
                int c = 0;
                while (c < 3) { c = c + 1; }
                foo(1, 2);
            }
        "#;
        let p1 = compile(src).unwrap();
        let printed = print_program(&p1);
        let p2 = reparse(&printed);
        // Same counts and same function shapes.
        assert_eq!(p1.loop_count, p2.loop_count);
        assert_eq!(p1.call_count, p2.call_count);
        assert_eq!(p1.globals.len(), p2.globals.len());
        // And printing again is a fixed point (structural equality modulo
        // spans, which necessarily shift).
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn parenthesization_respects_precedence() {
        let src = "fn main() { int x = (1 + 2) * 3; int y = 1 + 2 * 3; }";
        let p = compile(src).unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("(1 + 2) * 3"));
        assert!(printed.contains("1 + 2 * 3;"));
        // Round trip must preserve evaluation structure: printing the
        // reparsed program reproduces the same text.
        let p2 = reparse(&printed);
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn probes_are_printed() {
        let mut p = compile("fn main() { compute(1); }").unwrap();
        p.functions[0].body.stmts.insert(0, Stmt::Tick(SensorId(3)));
        p.functions[0].body.stmts.push(Stmt::Tock(SensorId(3)));
        let printed = print_program(&p);
        assert!(printed.contains("vs_tick(3);"));
        assert!(printed.contains("vs_tock(3);"));
    }

    #[test]
    fn nested_unary_round_trips() {
        let src = "fn main() { int x = 1; int y = -(x + 1); int z = !(x < 2); }";
        let p = compile(src).unwrap();
        let printed = print_program(&p);
        let p2 = reparse(&printed);
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn comparison_operands_parenthesized() {
        // (a < b) == c needs explicit parens since cmp is non-associative.
        use Expr::*;
        let e = Binary {
            op: BinOp::Eq,
            lhs: Box::new(Binary {
                op: BinOp::Lt,
                lhs: Box::new(Var("a".into())),
                rhs: Box::new(Var("b".into())),
            }),
            rhs: Box::new(Var("c".into())),
        };
        assert_eq!(Prec(&e, 0).to_string(), "(a < b) == c");
    }
}
