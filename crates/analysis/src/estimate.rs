//! Compile-time work estimation (§4, Granularity).
//!
//! Selection wants to avoid instrumenting very small snippets — their
//! probes cost more than they measure. The *actual* execution time is only
//! known at run time (where throttling takes over, §5.3), but a coarse
//! static estimate filters the obvious cases: constant-trip loops
//! multiply, calls substitute callee estimates, `compute(N)` with a
//! constant argument contributes `N` work units, and unknown trips fall
//! back to a documented guess.

use std::collections::HashMap;
use vsensor_lang::{BinOp, Block, CallSite, Expr, LoopKind, Program, Stmt, UnOp};

use crate::callgraph::CallGraph;
use crate::snippets::SnippetId;

/// Trip-count guess for loops whose bounds are not compile-time constants.
pub const DEFAULT_TRIP: u64 = 8;
/// Work guess for bulk builtins with non-constant arguments.
pub const DEFAULT_BULK: u64 = 512;
/// Work charged for an MPI/IO call (latency-class operation).
pub const COMM_CALL_WORK: u64 = 2_000;
/// Work charged for an undescribed extern.
pub const UNKNOWN_CALL_WORK: u64 = 100;
/// Per-statement baseline.
const STMT_WORK: u64 = 2;
/// Cap so pathological nests don't overflow.
const WORK_CAP: u64 = u64::MAX / 1024;

/// Static work estimates for every snippet of a program, in abstract work
/// units (≈ nanoseconds on the reference node).
#[derive(Clone, Debug, Default)]
pub struct WorkEstimates {
    /// Per-snippet estimated work for one execution.
    pub per_snippet: HashMap<SnippetId, u64>,
    /// Per-function estimated body work.
    pub per_function: HashMap<usize, u64>,
}

impl WorkEstimates {
    /// Estimate for one snippet (`None` for snippets the walk never saw,
    /// which cannot happen for enumerated candidates).
    pub fn snippet(&self, id: SnippetId) -> Option<u64> {
        self.per_snippet.get(&id).copied()
    }
}

/// Compute work estimates for the whole program.
pub fn estimate(program: &Program, callgraph: &CallGraph) -> WorkEstimates {
    let mut est = WorkEstimates::default();
    // Bottom-up so callee estimates exist when callers need them.
    for &fi in &callgraph.topo_order {
        let body_work = block_work(program, &program.functions[fi].body, &mut est);
        est.per_function.insert(fi, body_work);
    }
    // Recursive functions: flat guess.
    for &fi in &callgraph.recursive {
        est.per_function.insert(fi, 10 * COMM_CALL_WORK);
    }
    est
}

fn block_work(program: &Program, block: &Block, est: &mut WorkEstimates) -> u64 {
    let mut total = 0u64;
    for stmt in &block.stmts {
        total = total
            .saturating_add(stmt_work(program, stmt, est))
            .min(WORK_CAP);
    }
    total
}

fn stmt_work(program: &Program, stmt: &Stmt, est: &mut WorkEstimates) -> u64 {
    match stmt {
        Stmt::Decl { init, .. } => {
            STMT_WORK + init.as_ref().map_or(0, |e| expr_work(program, e, est))
        }
        Stmt::ArrayDecl { len, .. } => STMT_WORK + expr_work(program, len, est),
        Stmt::Assign { value, .. } => STMT_WORK + expr_work(program, value, est),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            // Branch estimate: condition plus the heavier arm.
            STMT_WORK
                + expr_work(program, cond, est)
                + block_work(program, then_blk, est).max(block_work(program, else_blk, est))
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
            let trips = match kind {
                LoopKind::For => trip_count(var, init, cond, step).unwrap_or(DEFAULT_TRIP),
                LoopKind::While => DEFAULT_TRIP,
            };
            let body_work = block_work(program, body, est);
            let per_iter = body_work.saturating_add(STMT_WORK);
            let total = trips.saturating_mul(per_iter).min(WORK_CAP);
            est.per_snippet.insert(SnippetId::Loop(*id), total);
            total
        }
        Stmt::Call(c) => {
            let w = call_work(program, c, est);
            est.per_snippet.insert(SnippetId::Call(c.id), w);
            w
        }
        Stmt::Return { value, .. } => {
            STMT_WORK + value.as_ref().map_or(0, |e| expr_work(program, e, est))
        }
        Stmt::Break { .. } | Stmt::Continue { .. } => STMT_WORK,
        Stmt::Tick(_) | Stmt::Tock(_) => 0,
    }
}

fn expr_work(program: &Program, e: &Expr, est: &mut WorkEstimates) -> u64 {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => 1,
        Expr::Index { index, .. } => 2 + expr_work(program, index, est),
        Expr::Unary { operand, .. } => 1 + expr_work(program, operand, est),
        Expr::Binary { lhs, rhs, .. } => {
            1 + expr_work(program, lhs, est) + expr_work(program, rhs, est)
        }
        Expr::Call(c) => {
            let w = call_work(program, c, est);
            est.per_snippet.insert(SnippetId::Call(c.id), w);
            w
        }
    }
}

fn call_work(program: &Program, c: &CallSite, est: &mut WorkEstimates) -> u64 {
    let args_work: u64 = c.args.iter().map(|a| expr_work(program, a, est)).sum();
    let callee_work = match program.function_index(&c.callee) {
        Some(fi) => est.per_function.get(&fi).copied().unwrap_or(COMM_CALL_WORK),
        None => match c.callee.as_str() {
            "compute" | "mem_access" => c
                .args
                .first()
                .and_then(const_eval)
                .map(|v| v.max(0) as u64)
                .unwrap_or(DEFAULT_BULK),
            name if name.starts_with("mpi_") || name.starts_with("io_") => COMM_CALL_WORK,
            _ => UNKNOWN_CALL_WORK,
        },
    };
    args_work.saturating_add(callee_work).min(WORK_CAP)
}

/// Constant trip count of a canonical `for (v = a; v < b; v = v + s)` loop
/// (also `<=` and down-counting with `-`). `None` when any part is not a
/// compile-time constant in the expected shape.
pub fn trip_count(var: &str, init: &Expr, cond: &Expr, step: &Expr) -> Option<u64> {
    let start = const_eval(init)?;
    let (op, bound) = match cond {
        Expr::Binary { op, lhs, rhs } if matches!(&**lhs, Expr::Var(v) if v == var) => {
            (*op, const_eval(rhs)?)
        }
        _ => return None,
    };
    let stride = match step {
        Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
        } => match &**lhs {
            Expr::Var(v) if v == var => const_eval(rhs)?,
            _ => return None,
        },
        Expr::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
        } => match &**lhs {
            Expr::Var(v) if v == var => const_eval(rhs)?.checked_neg()?,
            _ => return None,
        },
        _ => return None,
    };
    if stride == 0 {
        return None;
    }
    let span = match op {
        BinOp::Lt => bound.checked_sub(start)?,
        BinOp::Le => bound.checked_sub(start)?.checked_add(1)?,
        BinOp::Gt => start.checked_sub(bound)?,
        BinOp::Ge => start.checked_sub(bound)?.checked_add(1)?,
        _ => return None,
    };
    let stride = stride.checked_abs()?;
    if span <= 0 {
        Some(0)
    } else {
        // Ceiling division without overflow.
        Some((span / stride + i64::from(span % stride != 0)) as u64)
    }
}

/// Constant-fold an expression of literals and arithmetic.
pub fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Unary {
            op: UnOp::Neg,
            operand,
        } => const_eval(operand)?.checked_neg(),
        Expr::Binary { op, lhs, rhs } => {
            let (a, b) = (const_eval(lhs)?, const_eval(rhs)?);
            Some(match op {
                BinOp::Add => a.checked_add(b)?,
                BinOp::Sub => a.checked_sub(b)?,
                BinOp::Mul => a.checked_mul(b)?,
                BinOp::Div => a.checked_div(b)?,
                BinOp::Rem => a.checked_rem(b)?,
                _ => return None,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsensor_lang::compile;
    use vsensor_lang::Name;

    fn estimates_for(src: &str) -> (Program, WorkEstimates) {
        let p = compile(src).unwrap();
        let cg = CallGraph::build(&p);
        let est = estimate(&p, &cg);
        (p, est)
    }

    #[test]
    fn trip_count_canonical_forms() {
        let up = |src: &str| {
            let p = compile(src).unwrap();
            p.functions[0]
                .body
                .stmts
                .iter()
                .find_map(|s| match s {
                    Stmt::Loop {
                        var,
                        init,
                        cond,
                        step,
                        ..
                    } => Some(trip_count(var, init, cond, step)),
                    _ => None,
                })
                .expect("program contains a loop")
        };
        assert_eq!(
            up("fn main() { for (i = 0; i < 10; i = i + 1) {} }"),
            Some(10)
        );
        assert_eq!(
            up("fn main() { for (i = 0; i <= 10; i = i + 1) {} }"),
            Some(11)
        );
        assert_eq!(
            up("fn main() { for (i = 0; i < 10; i = i + 3) {} }"),
            Some(4)
        );
        assert_eq!(
            up("fn main() { for (i = 10; i > 0; i = i - 2) {} }"),
            Some(5)
        );
        assert_eq!(
            up("fn main() { for (i = 5; i < 5; i = i + 1) {} }"),
            Some(0)
        );
        // A span wider than i64: unknown, not an overflow.
        assert_eq!(
            up("fn main() { for (i = 0 - 9223372036854775807; i < 9223372036854775807; i = i + 1) {} }"),
            None
        );
        // Non-constant bound: unknown.
        assert_eq!(
            up("fn main() { int n = 3; for (i = 0; i < n; i = i + 1) {} }"),
            None
        );
    }

    #[test]
    fn const_eval_folds_arithmetic() {
        let p = compile("fn main() { int x = 2 * 3 + 10 / 2 - 1; }").unwrap();
        let Stmt::Decl { init: Some(e), .. } = &p.functions[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(const_eval(e), Some(10));
    }

    #[test]
    fn loops_multiply_and_bulk_args_count() {
        let (p, est) = estimates_for(
            r#"
            fn main() {
                for (i = 0; i < 100; i = i + 1) { compute(5000); }
                for (j = 0; j < 100; j = j + 1) { compute(5); }
            }
            "#,
        );
        let loops: Vec<u64> = p
            .functions
            .iter()
            .flat_map(|_| 0..2u32)
            .map(|l| {
                est.snippet(SnippetId::Loop(vsensor_lang::LoopId(l)))
                    .unwrap()
            })
            .collect();
        assert!(loops[0] > 100 * 5000, "big loop: {}", loops[0]);
        assert!(loops[1] < loops[0] / 100, "small loop: {}", loops[1]);
    }

    #[test]
    fn call_estimates_substitute_callee_bodies() {
        let (p, est) = estimates_for(
            r#"
            fn heavy() { for (i = 0; i < 50; i = i + 1) { compute(10000); } }
            fn light() { compute(10); }
            fn main() {
                for (t = 0; t < 10; t = t + 1) { heavy(); light(); }
            }
            "#,
        );
        let calls: Vec<(Name, u64)> = {
            let mut v = Vec::new();
            vsensor_lang::visit_calls(&p.function("main").unwrap().body, &mut |c| {
                v.push((
                    c.callee.clone(),
                    est.snippet(SnippetId::Call(c.id)).unwrap(),
                ));
            });
            v
        };
        let heavy = calls.iter().find(|(n, _)| n == "heavy").unwrap().1;
        let light = calls.iter().find(|(n, _)| n == "light").unwrap().1;
        assert!(heavy > light * 100, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn unknown_trips_use_default_guess() {
        let (_, est) = estimates_for(
            r#"
            fn main() {
                int n = 3;
                while (n > 0) { n = n - 1; compute(100); }
            }
            "#,
        );
        let w = est
            .snippet(SnippetId::Loop(vsensor_lang::LoopId(0)))
            .unwrap();
        // DEFAULT_TRIP iterations of ~100+ work each.
        assert!(w >= DEFAULT_TRIP * 100, "{w}");
    }
}
