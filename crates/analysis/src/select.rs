//! Instrumentation selection (§4).
//!
//! Rules, in the paper's order:
//!
//! * **Scope** — only *global* v-sensors (fixed through the whole program)
//!   are instrumented, so their history stays valid for the entire run.
//! * **Granularity** — a `max_depth` bound on loop-nesting depth keeps
//!   probes out of the very innermost (microsecond-scale) loops; runtime
//!   throttling handles whatever slips through.
//! * **Nested sensors** — the probes themselves are not fixed-workload
//!   code, so instrumenting an inner sensor would destroy any enclosing
//!   one. We prefer the outermost sensor and skip everything inside it,
//!   including the bodies of functions called from inside a selected
//!   sensor.

use crate::identify::Identified;
use crate::snippets::SnippetId;
use vsensor_lang::{Block, Program, Stmt};

/// Tunable selection rules.
#[derive(Clone, Debug)]
pub struct SelectionRules {
    /// Maximum loop-nesting depth (within a function) at which a sensor may
    /// be instrumented; the paper's `max-depth` knob. Depth 0 is an
    /// outermost loop.
    pub max_depth: usize,
}

impl Default for SelectionRules {
    fn default() -> Self {
        SelectionRules { max_depth: 3 }
    }
}

/// The chosen snippets, in deterministic program order.
#[derive(Clone, Debug, Default)]
pub struct Selection {
    /// Snippets to wrap with Tick/Tock.
    pub chosen: Vec<SnippetId>,
}

/// Select v-sensors for instrumentation.
pub fn select(program: &Program, identified: &Identified, rules: &SelectionRules) -> Selection {
    let Some(main_idx) = program.function_index("main") else {
        return Selection::default();
    };
    let mut sel = Selector {
        program,
        identified,
        rules,
        chosen: Vec::new(),
        visited: vec![false; program.functions.len()],
        covered: vec![false; program.functions.len()],
    };
    sel.visit_function(main_idx, false);

    // Drop anything that ended up inside a covered function (reachable only
    // through a selected call sensor on some path — instrumenting it would
    // break that outer sensor).
    let covered = sel.covered;
    let chosen = sel.chosen.into_iter();
    Selection {
        chosen: chosen
            .filter(|&(_, f)| !covered[f])
            .map(|(id, _)| id)
            .collect(),
    }
}

struct Selector<'a> {
    program: &'a Program,
    identified: &'a Identified,
    rules: &'a SelectionRules,
    /// Chosen snippets with the function each lives in.
    chosen: Vec<(SnippetId, usize)>,
    visited: Vec<bool>,
    /// Functions reachable from inside a selected sensor: must stay
    /// probe-free.
    covered: Vec<bool>,
}

impl<'a> Selector<'a> {
    /// Eligibility on everything except "repeats": whether a snippet
    /// executes repeatedly depends on the *call context* (a top-level loop
    /// in a helper called from main's time loop repeats inter-procedurally)
    /// and is decided during the walk.
    fn eligible(&self, id: SnippetId) -> bool {
        self.identified
            .verdict(id)
            .is_some_and(|v| v.globally_fixed && v.snippet.depth < self.rules.max_depth)
    }

    /// Visit a function's body. `in_loop_ctx` is true when every call path
    /// that brought the walk here passes through a loop, so top-level
    /// snippets of this function still execute repeatedly.
    fn visit_function(&mut self, func: usize, in_loop_ctx: bool) {
        if std::mem::replace(&mut self.visited[func], true) {
            return;
        }
        let program = self.program;
        self.visit_block(&program.functions[func].body, func, in_loop_ctx);
    }

    fn visit_block(&mut self, block: &'a Block, func: usize, in_loop_ctx: bool) {
        for stmt in &block.stmts {
            match stmt {
                Stmt::Loop { id, body, .. } => {
                    let sid = SnippetId::Loop(*id);
                    if in_loop_ctx && self.eligible(sid) {
                        self.chosen.push((sid, func));
                        // Everything inside is covered: mark callee
                        // functions reachable from the subtree.
                        let program = self.program;
                        vsensor_lang::visit_calls(body, &mut |c| {
                            if let Some(fi) = program.function_index(&c.callee) {
                                self.cover_function(fi);
                            }
                        });
                    } else {
                        // Inside a loop, everything repeats.
                        self.visit_block(body, func, true);
                    }
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    self.visit_block(then_blk, func, in_loop_ctx);
                    self.visit_block(else_blk, func, in_loop_ctx);
                }
                Stmt::Call(c) => {
                    let sid = SnippetId::Call(c.id);
                    let callee = self.program.function_index(&c.callee);
                    if in_loop_ctx && self.eligible(sid) {
                        self.chosen.push((sid, func));
                        if let Some(fi) = callee {
                            self.cover_function(fi);
                        }
                    } else if let Some(fi) = callee {
                        self.visit_function(fi, in_loop_ctx);
                    }
                }
                _ => {}
            }
        }
    }

    /// Mark every user function reachable from `func` (itself included)
    /// as covered.
    fn cover_function(&mut self, func: usize) {
        for fi in self.identified.callgraph.reachable_from(func) {
            self.covered[fi] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identify, AnalysisConfig};
    use vsensor_lang::compile;

    fn run_select(src: &str, rules: &SelectionRules) -> (vsensor_lang::Program, Selection) {
        let p = compile(src).unwrap();
        let id = identify::identify(&p, &AnalysisConfig::default());
        let sel = select(&p, &id, rules);
        (p, sel)
    }

    #[test]
    fn outermost_of_nested_wins() {
        // Both loops are global v-sensors; only the outer is chosen.
        let (_, sel) = run_select(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (a = 0; a < 10; a = a + 1) {
                        for (b = 0; b < 10; b = b + 1) { compute(4); }
                    }
                }
            }
            "#,
            &SelectionRules::default(),
        );
        // The `a` loop (depth 1) is fixed and chosen; nothing inside it.
        assert_eq!(sel.chosen.len(), 1);
        assert!(matches!(sel.chosen[0], SnippetId::Loop(l) if l.0 == 1));
    }

    #[test]
    fn max_depth_limits_selection() {
        let src = r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < n; k = k + 1) {
                        for (j = 0; j < 8; j = j + 1) { compute(4); }
                    }
                }
            }
        "#;
        // The j loop (depth 2) is the only global sensor (k loop varies).
        let (_, deep) = run_select(src, &SelectionRules::default());
        assert_eq!(deep.chosen.len(), 1);
        // With max_depth 2, depth-2 snippets are barred.
        let (_, shallow) = run_select(src, &SelectionRules { max_depth: 2 });
        assert!(shallow.chosen.is_empty());
    }

    #[test]
    fn selected_call_covers_callee_functions() {
        let (_, sel) = run_select(
            r#"
            fn kernel() {
                for (j = 0; j < 16; j = j + 1) { compute(2); }
            }
            fn main() {
                for (n = 0; n < 100; n = n + 1) { kernel(); }
            }
            "#,
            &SelectionRules::default(),
        );
        // The call is selected; the loop inside kernel is not.
        assert_eq!(sel.chosen.len(), 1);
        assert!(matches!(sel.chosen[0], SnippetId::Call(_)));
    }

    #[test]
    fn non_fixed_outer_descends_to_fixed_inner() {
        let (_, sel) = run_select(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < n; k = k + 1) { compute(1); }
                    for (j = 0; j < 8; j = j + 1) { compute(2); }
                }
            }
            "#,
            &SelectionRules::default(),
        );
        // Outer loop not fixed (contains varying-trip k loop), so selection
        // descends: inside the k loop the constant-workload `compute(1)`
        // call is itself a global v-sensor, and the j loop is one too.
        assert_eq!(sel.chosen.len(), 2, "{sel:?}");
        assert!(matches!(sel.chosen[0], SnippetId::Call(_)));
        assert!(matches!(sel.chosen[1], SnippetId::Loop(l) if l.0 == 2));
    }

    #[test]
    fn callee_reached_from_unselected_path_is_instrumented() {
        let (p, sel) = run_select(
            r#"
            fn kernel(int n) {
                for (i = 0; i < n; i = i + 1) { compute(1); }
                for (j = 0; j < 16; j = j + 1) { compute(2); }
            }
            fn main() {
                for (t = 0; t < 100; t = t + 1) {
                    kernel(t); // call not fixed (arg varies) -> descend
                }
            }
            "#,
            &SelectionRules::default(),
        );
        // kernel(t) is not a sensor (workload varies with t), so selection
        // descends into kernel: the constant compute(1) inside the i loop
        // and the j loop are both global sensors living in kernel.
        let kernel_idx = p.function_index("kernel").unwrap();
        assert_eq!(sel.chosen.len(), 2, "{sel:?}");
        let id = identify::identify(&p, &AnalysisConfig::default());
        for chosen in &sel.chosen {
            assert_eq!(id.verdict(*chosen).unwrap().snippet.func, kernel_idx);
        }
    }

    #[test]
    fn top_level_loop_in_callee_repeats_through_the_call_chain() {
        // kernel's j loop has no enclosing loop *in its function*, but
        // kernel is only reached from main's time loop — the snippet
        // repeats inter-procedurally and must be instrumented.
        let (p, sel) = run_select(
            r#"
            fn kernel(int n) {
                for (i = 0; i < n; i = i + 1) { compute(10); }
                for (j = 0; j < 16; j = j + 1) { compute(2000); }
            }
            fn main() {
                for (t = 0; t < 500; t = t + 1) { kernel(t); }
            }
            "#,
            &SelectionRules::default(),
        );
        let id = identify::identify(&p, &AnalysisConfig::default());
        let kernel_idx = p.function_index("kernel").unwrap();
        assert!(
            sel.chosen.iter().any(|&sid| {
                let v = id.verdict(sid).unwrap();
                v.snippet.func == kernel_idx && matches!(sid, SnippetId::Loop(_))
            }),
            "{sel:?}"
        );
    }

    #[test]
    fn run_once_loop_is_not_chosen_but_its_body_is() {
        // `once` is called a single time: its j loop executes once and is
        // not a sensor — but the call *inside* the loop repeats 16 times
        // and is.
        let (_, sel) = run_select(
            r#"
            fn once() {
                for (j = 0; j < 16; j = j + 1) { compute(2000); }
            }
            fn main() { once(); }
            "#,
            &SelectionRules::default(),
        );
        assert_eq!(sel.chosen.len(), 1, "{sel:?}");
        assert!(matches!(sel.chosen[0], SnippetId::Call(_)));
    }

    #[test]
    fn no_main_no_selection() {
        let (_, sel) = run_select(
            "fn helper() { for (i = 0; i < 5; i = i + 1) { compute(1); } }",
            &SelectionRules::default(),
        );
        assert!(sel.chosen.is_empty());
    }
}
