//! MiniHPC front-end for the vSensor reproduction.
//!
//! The original vSensor operates on LLVM-IR produced from C/C++/Fortran MPI
//! programs. This crate provides the equivalent substrate: a small C-like
//! language ("MiniHPC") with a lexer, a recursive-descent parser, an AST, and
//! a structured IR that preserves exactly the features the vSensor static
//! analysis needs — loops, branches, calls, globals, and MPI/IO builtins.
//!
//! A program flows through the same front-half pipeline as the paper's
//! Figure 2:
//!
//! ```text
//! source text --lex/parse--> AST --lower--> IR (loops/calls get stable IDs)
//! ```
//!
//! The static module (`vsensor-analysis`) consumes the IR, and the
//! interpreter (`vsensor-interp`) executes it on the simulated cluster.
//!
//! # Example
//!
//! ```
//! use vsensor_lang::compile;
//!
//! let program = compile(
//!     r#"
//!     fn main() {
//!         for (n = 0; n < 100; n = n + 1) {
//!             compute(64);
//!             mpi_barrier();
//!         }
//!     }
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(program.functions.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod intern;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;

pub use error::{LangError, Result};
pub use intern::{Interner, Name};
pub use ir::{
    visit_calls, BinOp, Block, CallId, CallSite, Expr, Function, Global, GlobalInit, LValue,
    LoopId, LoopKind, Program, SensorId, Stmt, UnOp,
};
pub use span::Span;

/// Compile MiniHPC source text all the way to IR.
///
/// This is "step 1" of the vSensor workflow (Figure 2 of the paper):
/// source code to intermediate representation.
pub fn compile(source: &str) -> Result<ir::Program> {
    let tokens = lexer::lex(source)?;
    let unit = parser::parse(tokens, source)?;
    lower::lower(&unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_smoke() {
        let p = compile("fn main() { int x = 1; x = x + 1; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "main");
    }

    #[test]
    fn compile_error_is_reported() {
        assert!(compile("fn main( {").is_err());
    }
}
