//! Human-readable verdict explanations.
//!
//! A tool that silently declines to instrument a snippet is frustrating to
//! use: developers asked for exactly this in the paper's workflow (users
//! may annotate externs or loosen rules once they know *why* a snippet was
//! rejected). [`explain`] turns a [`crate::identify::SnippetVerdict`] into the list of
//! concrete reasons behind it.

use crate::identify::Identified;
use crate::snippets::SnippetId;
use crate::symbols::Symbol;
use vsensor_lang::{Name, Program};

/// Why a snippet did or did not become an (instrumentable) v-sensor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reason {
    /// Not inside any loop — cannot repeat, cannot sense.
    NotInLoop,
    /// Contains an influence the analysis cannot bound (undescribed
    /// extern, received data, recursion).
    UnknownInfluence,
    /// Depends on a variable assigned within the named enclosing loop.
    VariesInLoop {
        /// The loop (by ID) the workload varies across.
        loop_id: u32,
        /// Variables responsible.
        culprits: Vec<Name>,
    },
    /// Depends on a global that is written somewhere in the program.
    VolatileGlobal(Name),
    /// Depends on a function parameter that is not invariant at every
    /// call site.
    VaryingParameter(usize),
    /// Workload depends on the process identity (usable per-process, not
    /// across processes).
    RankDependent,
    /// Fully fixed: a global v-sensor.
    GloballyFixed,
}

impl std::fmt::Display for Reason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reason::NotInLoop => write!(f, "not inside a loop (never repeats)"),
            Reason::UnknownInfluence => write!(
                f,
                "workload depends on something the analysis cannot bound \
                 (undescribed extern, communicated data, or recursion)"
            ),
            Reason::VariesInLoop { loop_id, culprits } => write!(
                f,
                "workload varies across iterations of L{loop_id} (via {})",
                culprits.join(", ")
            ),
            Reason::VolatileGlobal(g) => {
                write!(
                    f,
                    "workload reads global `{g}`, which is written at run time"
                )
            }
            Reason::VaryingParameter(i) => write!(
                f,
                "workload depends on parameter #{i}, which varies across call sites"
            ),
            Reason::RankDependent => write!(
                f,
                "workload depends on the process rank (fixed per process, \
                 not comparable across processes)"
            ),
            Reason::GloballyFixed => write!(f, "fixed workload through the whole program"),
        }
    }
}

/// Explain one snippet's verdict. Reasons are ordered most-fundamental
/// first; a globally-fixed snippet gets a single [`Reason::GloballyFixed`]
/// (plus [`Reason::RankDependent`] if applicable).
pub fn explain(program: &Program, identified: &Identified, id: SnippetId) -> Vec<Reason> {
    let Some(v) = identified.verdict(id) else {
        return Vec::new();
    };
    let mut reasons = Vec::new();

    if v.globally_fixed {
        reasons.push(Reason::GloballyFixed);
        if !v.fixed_across_processes {
            reasons.push(Reason::RankDependent);
        }
        return reasons;
    }

    if !v.snippet.in_loop() {
        reasons.push(Reason::NotInLoop);
    }
    if v.deps.has_unknown() {
        reasons.push(Reason::UnknownInfluence);
    }

    // Which enclosing loop breaks the chain first?
    if v.scope_len < v.snippet.enclosing.len() && !v.deps.has_unknown() {
        let breaking = v.snippet.enclosing[v.scope_len];
        let fa = &identified.func_analyses[v.snippet.func];
        let assigned: Vec<&Name> = fa.assigned_in(breaking).collect();
        let culprits: Vec<Name> = v
            .deps
            .names
            .iter()
            .filter(|n| assigned.contains(n))
            .cloned()
            .collect();
        reasons.push(Reason::VariesInLoop {
            loop_id: breaking.0,
            culprits,
        });
    }

    if v.function_scope_fixed {
        // The intra-function part held; the global conditions failed.
        for sym in &v.deps.symbols {
            match sym {
                Symbol::Global(g) if identified.volatile_globals.contains(g) => {
                    reasons.push(Reason::VolatileGlobal(g.clone()));
                }
                Symbol::Param(i) if !identified.fixed_params[v.snippet.func].contains(i) => {
                    reasons.push(Reason::VaryingParameter(*i));
                }
                _ => {}
            }
        }
        if identified.callgraph.recursive.contains(&v.snippet.func) {
            reasons.push(Reason::UnknownInfluence);
        }
    }

    if v.deps.has_rank() {
        reasons.push(Reason::RankDependent);
    }
    let _ = program;
    reasons
}

/// Render a full "why not" report for every rejected candidate.
pub fn explain_all(program: &Program, identified: &Identified) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for v in &identified.verdicts {
        let reasons = explain(program, identified, v.snippet.id);
        let name = match v.snippet.id {
            SnippetId::Loop(_) => format!("{} (loop)", v.snippet.id),
            SnippetId::Call(_) => format!("{} (call {})", v.snippet.id, v.snippet.callee),
        };
        let _ = writeln!(
            out,
            "{name} in `{}` at {}:",
            program.functions[v.snippet.func].name, v.snippet.span
        );
        for r in reasons {
            let _ = writeln!(out, "  - {r}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identify, AnalysisConfig};
    use vsensor_lang::compile;

    fn explain_src(src: &str) -> (Program, Identified) {
        let p = compile(src).unwrap();
        let id = identify::identify(&p, &AnalysisConfig::default());
        (p, id)
    }

    #[test]
    fn varying_loop_bound_is_blamed_on_the_variable() {
        let (p, id) = explain_src(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < n; k = k + 1) { compute(1); }
                }
            }
            "#,
        );
        let inner = id
            .verdicts
            .iter()
            .find(|v| v.snippet.depth == 1)
            .unwrap()
            .snippet
            .id;
        let reasons = explain(&p, &id, inner);
        assert!(
            reasons.iter().any(|r| matches!(
                r,
                Reason::VariesInLoop { loop_id: 0, culprits } if culprits.contains(&Name::new("n"))
            )),
            "{reasons:?}"
        );
    }

    #[test]
    fn unknown_extern_is_called_out() {
        let (p, id) = explain_src(
            r#"
            fn main() {
                for (n = 0; n < 10; n = n + 1) { mystery(); }
            }
            "#,
        );
        let call = id
            .verdicts
            .iter()
            .find(|v| v.snippet.callee == "mystery")
            .unwrap()
            .snippet
            .id;
        assert!(explain(&p, &id, call).contains(&Reason::UnknownInfluence));
    }

    #[test]
    fn volatile_global_and_varying_param_explained() {
        let (p, id) = explain_src(
            r#"
            global int G = 5;
            fn work(int n) { for (i = 0; i < n; i = i + 1) { compute(G); } }
            fn main() {
                for (t = 0; t < 10; t = t + 1) {
                    work(t);
                    G = G + 1;
                }
            }
            "#,
        );
        let work_idx = p.function_index("work").unwrap();
        let inner = id
            .verdicts
            .iter()
            .find(|v| v.snippet.func == work_idx)
            .unwrap()
            .snippet
            .id;
        let reasons = explain(&p, &id, inner);
        assert!(
            reasons.contains(&Reason::VaryingParameter(0)),
            "{reasons:?}"
        );
        assert!(
            reasons.contains(&Reason::VolatileGlobal("G".into())),
            "{reasons:?}"
        );
    }

    #[test]
    fn fixed_sensor_says_so_and_flags_rank() {
        let (p, id) = explain_src(
            r#"
            fn main() {
                int r = mpi_comm_rank();
                for (n = 0; n < 10; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) {
                        if (r % 2 == 1) { compute(5); }
                    }
                }
            }
            "#,
        );
        let loop_id = id
            .verdicts
            .iter()
            .find(|v| v.snippet.depth == 1)
            .unwrap()
            .snippet
            .id;
        let reasons = explain(&p, &id, loop_id);
        assert_eq!(reasons[0], Reason::GloballyFixed);
        assert!(reasons.contains(&Reason::RankDependent));
    }

    #[test]
    fn top_level_snippet_reported_as_not_in_loop() {
        let (p, id) = explain_src("fn main() { mystery(); }");
        let call = id.verdicts[0].snippet.id;
        let reasons = explain(&p, &id, call);
        assert!(reasons.contains(&Reason::NotInLoop));
    }

    #[test]
    fn explain_all_renders_every_candidate() {
        let (p, id) = explain_src(
            r#"
            fn main() {
                for (n = 0; n < 10; n = n + 1) {
                    for (k = 0; k < n; k = k + 1) { compute(1); }
                    mpi_barrier();
                }
            }
            "#,
        );
        let text = explain_all(&p, &id);
        assert!(text.contains("L0"));
        assert!(text.contains("mpi_barrier"));
        assert!(text.contains("fixed workload"));
        assert!(text.contains("varies across iterations"));
    }
}
