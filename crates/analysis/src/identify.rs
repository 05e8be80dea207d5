//! v-sensor identification (§3.2-§3.5).
//!
//! Drives the per-function dependency analysis bottom-up over the call
//! graph, then judges every candidate snippet:
//!
//! * **intra-procedural** (§3.2): a snippet is a v-sensor of an enclosing
//!   loop iff its workload-dependency closure touches nothing assigned
//!   within that loop;
//! * **inter-procedural** (§3.3): a snippet whose workload depends on
//!   function parameters is globally fixed only if every call site passes a
//!   loop-invariant argument — computed as a pessimizing fixpoint over the
//!   call graph;
//! * **multi-process** (§3.4): rank-derived influences (from
//!   `mpi_comm_rank`-like sources) make a snippet unusable for
//!   inter-process comparison;
//! * **conservative global rule**: a global variable written anywhere in
//!   the program disqualifies snippets whose workload reads it.

use crate::callgraph::CallGraph;
use crate::deps::{self, Boundary, Deps, FuncAnalysis, Summary, RANK, UNKNOWN};
use crate::snippets::{self, Snippet, SnippetId, SnippetType};
use crate::symbols::{Bits, UseSet};
use crate::AnalysisConfig;
use std::collections::{BTreeSet, HashMap};
use vsensor_lang::{LoopId, Name, Program};

/// Verdict for one candidate snippet.
#[derive(Clone, Debug)]
pub struct SnippetVerdict {
    /// The snippet itself.
    pub snippet: Snippet,
    /// Component type.
    pub ty: SnippetType,
    /// Resolved workload-dependency set.
    pub deps: UseSet,
    /// Number of consecutive enclosing loops (innermost outward, within the
    /// function) the snippet is fixed with respect to — its intra-function
    /// *scope* (§4).
    pub scope_len: usize,
    /// Fixed w.r.t. every enclosing loop in its function.
    pub function_scope_fixed: bool,
    /// Fixed across the whole program: a *global v-sensor*, eligible for
    /// instrumentation.
    pub globally_fixed: bool,
    /// Workload identical on every process (no rank dependence) — usable
    /// for inter-process detection.
    pub fixed_across_processes: bool,
}

impl SnippetVerdict {
    /// A snippet counts as an identified v-sensor if it repeats (is inside
    /// a loop) and is fixed w.r.t. at least its innermost enclosing loop.
    pub fn is_vsensor(&self) -> bool {
        self.snippet.in_loop() && self.scope_len >= 1
    }
}

/// Output of identification.
#[derive(Clone, Debug)]
pub struct Identified {
    /// Verdict per candidate snippet, in enumeration order.
    pub verdicts: Vec<SnippetVerdict>,
    /// Per-function analyses (indexed like `program.functions`).
    pub func_analyses: Vec<FuncAnalysis>,
    /// Per-function summaries.
    pub summaries: HashMap<Name, Summary>,
    /// The processed call graph.
    pub callgraph: CallGraph,
    /// Globals written anywhere (the conservative §3.3 rule).
    pub volatile_globals: BTreeSet<Name>,
    /// Per function: parameters proven iteration-invariant at every call
    /// site, transitively.
    pub fixed_params: Vec<BTreeSet<usize>>,
    /// Per function: parameters that may carry rank-derived values.
    pub rank_params: Vec<BTreeSet<usize>>,
    /// Position in `verdicts` by loop ID and by call ID.
    by_loop: Vec<u32>,
    by_call: Vec<u32>,
}

impl Identified {
    /// Find the verdict for a snippet ID.
    pub fn verdict(&self, id: SnippetId) -> Option<&SnippetVerdict> {
        self.verdicts.get(self.position(id)?)
    }

    /// Position of a snippet's verdict in `verdicts`.
    pub(crate) fn position(&self, id: SnippetId) -> Option<usize> {
        let at = match id {
            SnippetId::Loop(l) => self.by_loop.get(l.0 as usize),
            SnippetId::Call(c) => self.by_call.get(c.0 as usize),
        };
        let at = at.map(|&i| i as usize);
        let indexed = at.filter(|&i| self.verdicts.get(i).is_some_and(|v| v.snippet.id == id));
        // `verdicts` is a public field: if it was edited, look it up.
        indexed.or_else(|| self.verdicts.iter().position(|v| v.snippet.id == id))
    }
}

/// Run identification over a whole program.
pub fn identify(program: &Program, config: &AnalysisConfig) -> Identified {
    let callgraph = CallGraph::build(program);
    let mut recursive = vec![false; program.functions.len()];
    for &fi in &callgraph.recursive {
        recursive[fi] = true;
    }

    // 1. Bottom-up per-function analysis. Recursive functions get opaque
    // boundaries and empty analyses.
    let cx = deps::Context::new(program, config);
    let mut func_analyses = vec![FuncAnalysis::default(); program.functions.len()];
    for &fi in &callgraph.recursive {
        let params = program.functions[fi].params.len();
        func_analyses[fi].boundary = Some(Boundary::opaque(program, params));
    }
    for &fi in &callgraph.topo_order {
        func_analyses[fi] = deps::analyze_function(&cx, &func_analyses, fi);
    }

    // 2. Volatile globals: any global assigned anywhere; opaque functions
    // may write anything.
    let mut volatile = Bits::default();
    for fa in &func_analyses {
        volatile.union_with(&fa.global_writes);
    }
    if !callgraph.recursive.is_empty() {
        volatile.union_with(&deps::all_globals(program));
    }

    // 3. Fixpoints over parameters.
    let (fixed_params, rank_params) =
        param_fixpoints(program, &func_analyses, &recursive, &volatile);

    // 4. Judge every snippet.
    let empty = Deps::default();
    let snippets = snippets::enumerate(program);
    let mut verdicts = Vec::with_capacity(snippets.len());
    for sn in snippets {
        let fa = &func_analyses[sn.func];
        let (seed, ty, excluded) =
            fa.snippet(sn.id)
                .unwrap_or((&empty, SnippetType::Computation, Bits::default()));
        let closed = fa.closure(seed, &excluded);
        let unknown = closed.syms.contains(UNKNOWN);

        // Intra-procedural scope: walk enclosing loops innermost-out.
        let varies = |l: &&LoopId| fa.varies_in(**l, &closed.names);
        let scope_len = if unknown {
            0
        } else {
            sn.enclosing.iter().take_while(|l| !varies(l)).count()
        };
        let function_scope_fixed = !unknown && scope_len == sn.enclosing.len();

        // Global judgment. Snippets inside recursive functions have no
        // reliable iteration context.
        let params = || deps::params(program, &closed.syms);
        let globally_fixed = function_scope_fixed
            && !closed.syms.intersects(&volatile)
            && params().all(|p| fixed_params[sn.func].contains(&p))
            && !recursive[sn.func];
        let rank_dependent = closed.syms.contains(RANK)
            || (function_scope_fixed && params().any(|p| rank_params[sn.func].contains(&p)));

        verdicts.push(SnippetVerdict {
            ty,
            deps: fa.use_set(program, &closed),
            scope_len,
            function_scope_fixed,
            globally_fixed,
            fixed_across_processes: globally_fixed && !rank_dependent,
            snippet: sn,
        });
    }

    let mut by_loop = vec![u32::MAX; program.loop_count as usize];
    let mut by_call = vec![u32::MAX; program.call_count as usize];
    for (i, v) in verdicts.iter().enumerate() {
        let slot = match v.snippet.id {
            SnippetId::Loop(l) => by_loop.get_mut(l.0 as usize),
            SnippetId::Call(c) => by_call.get_mut(c.0 as usize),
        };
        if let Some(slot) = slot {
            *slot = i as u32;
        }
    }

    let summaries = program.functions.iter().zip(&func_analyses);
    Identified {
        summaries: summaries
            .filter_map(|(f, fa)| Some((f.name.clone(), fa.boundary.as_ref()?.summary(program))))
            .collect(),
        volatile_globals: deps::global_names(program, &volatile).collect(),
        verdicts,
        func_analyses,
        callgraph,
        fixed_params,
        rank_params,
        by_loop,
        by_call,
    }
}

/// Compute the two parameter fixpoints: globally-fixed (iteration-invariant
/// at every call site) and rank-tainted (may carry rank-derived values).
fn param_fixpoints(
    program: &Program,
    func_analyses: &[FuncAnalysis],
    recursive: &[bool],
    volatile: &Bits,
) -> (Vec<BTreeSet<usize>>, Vec<BTreeSet<usize>>) {
    // Optimistic start: all params fixed, none rank-tainted. Recursive
    // functions: nothing can be trusted.
    let mut fixed: Vec<BTreeSet<usize>> = program
        .functions
        .iter()
        .map(|f| (0..f.params.len()).collect())
        .collect();
    let mut ranky = vec![BTreeSet::new(); fixed.len()];
    for fi in (0..fixed.len()).filter(|&fi| recursive[fi]) {
        std::mem::swap(&mut fixed[fi], &mut ranky[fi]);
    }

    // An argument's closure does not depend on the fixpoint's state, so
    // each is judged once: it is invariant if it contains no unknown, is
    // assigned in no loop enclosing the call, reads no volatile global and
    // its caller is not recursive (an untrusted caller) — and then it is
    // fixed while every caller parameter it reads is.
    struct Arg {
        caller: usize,
        callee: usize,
        index: usize,
        invariant: bool,
        rank: bool,
        params: Vec<usize>,
    }
    let mut args = Vec::new();
    for (caller, fa) in func_analyses.iter().enumerate() {
        for call in &fa.user_calls {
            for (index, arg) in call.args.iter().enumerate() {
                let closed = fa.closure(arg, &Bits::default());
                let invariant = !closed.syms.contains(UNKNOWN)
                    && !call.outer.is_some_and(|l| fa.varies_in(l, &closed.names))
                    && !closed.syms.intersects(volatile)
                    && !recursive[caller];
                args.push(Arg {
                    caller,
                    callee: call.callee,
                    index,
                    invariant,
                    rank: closed.syms.contains(RANK),
                    params: deps::params(program, &closed.syms).collect(),
                });
            }
        }
    }

    loop {
        let mut changed = false;
        for a in &args {
            let arg_fixed = a.invariant && a.params.iter().all(|p| fixed[a.caller].contains(p));
            if !arg_fixed && fixed[a.callee].remove(&a.index) {
                changed = true;
            }
            let arg_rank = a.rank || a.params.iter().any(|p| ranky[a.caller].contains(p));
            if arg_rank && ranky[a.callee].insert(a.index) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (fixed, ranky)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisConfig;
    use vsensor_lang::compile;

    fn run(src: &str) -> (Program, Identified) {
        let p = compile(src).unwrap();
        let id = identify(&p, &AnalysisConfig::default());
        (p, id)
    }

    /// The paper's Figure 4 program, the canonical example: Call-1
    /// (`foo(n,k)`) is a v-sensor of Loop-2 but not Loop-1; Call-2
    /// (`foo(k,n)`) is a v-sensor of neither; Loop-3 (count loop) is a
    /// v-sensor of Loop-1; Loop-5 is a v-sensor of Loop-4 and globally.
    const FIGURE4: &str = r#"
        global int GLBV = 40;
        fn foo(int x, int y) -> int {
            int value = 0;
            for (i = 0; i < x; i = i + 1) {
                value = value + y;
                for (j = 0; j < 10; j = j + 1) { value = value - 1; }
            }
            if (x > GLBV) { value = value - x * y; }
            return value;
        }
        fn main() {
            int count = 0;
            for (n = 0; n < 100; n = n + 1) {
                for (k = 0; k < 10; k = k + 1) {
                    foo(n, k);
                    foo(k, n);
                }
                for (k2 = 0; k2 < 10; k2 = k2 + 1) { count = count + 1; }
                mpi_barrier();
            }
        }
    "#;

    fn call_verdicts<'i>(p: &Program, id: &'i Identified, callee: &str) -> Vec<&'i SnippetVerdict> {
        let _ = p;
        id.verdicts
            .iter()
            .filter(|v| v.snippet.callee == callee)
            .collect()
    }

    #[test]
    fn figure4_call1_is_vsensor_of_inner_loop_only() {
        let (p, id) = run(FIGURE4);
        let foos = call_verdicts(&p, &id, "foo");
        assert_eq!(foos.len(), 2);
        // Call-1: foo(n, k) — x=n is fixed within the k loop, varies in n.
        let c1 = foos[0];
        assert_eq!(c1.scope_len, 1, "fixed w.r.t. k loop only: {c1:?}");
        assert!(c1.is_vsensor());
        assert!(!c1.function_scope_fixed);
        assert!(!c1.globally_fixed);
        // Call-2: foo(k, n) — x=k varies in the innermost loop already.
        let c2 = foos[1];
        assert_eq!(c2.scope_len, 0, "{c2:?}");
        assert!(!c2.is_vsensor());
    }

    #[test]
    fn figure4_count_loop_is_global_vsensor() {
        let (_, id) = run(FIGURE4);
        // The count loop: `for (k2 = 0; k2 < 10; ...)` — constant trip.
        let v = id
            .verdicts
            .iter()
            .find(|v| {
                matches!(v.snippet.id, SnippetId::Loop(_))
                    && v.snippet.func == 1
                    && v.snippet.depth == 1
                    && v.ty == SnippetType::Computation
                    && v.scope_len >= 1
            })
            .expect("count loop verdict");
        assert!(v.globally_fixed, "{v:?}");
        assert!(v.fixed_across_processes);
    }

    #[test]
    fn figure4_inner_foo_loop5_fixed_in_foo() {
        let (p, id) = run(FIGURE4);
        // Loop-5 analogue: the `j` loop inside foo (trip 10, constant).
        let foo_idx = p.function_index("foo").unwrap();
        let j_loop = id
            .verdicts
            .iter()
            .find(|v| {
                v.snippet.func == foo_idx
                    && matches!(v.snippet.id, SnippetId::Loop(_))
                    && v.snippet.depth == 1
            })
            .unwrap();
        assert!(j_loop.function_scope_fixed, "{j_loop:?}");
        assert!(j_loop.globally_fixed, "constant workload everywhere");
        // Loop-4 analogue: the `i` loop — trip depends on param x, which
        // varies at call sites.
        let i_loop = id
            .verdicts
            .iter()
            .find(|v| {
                v.snippet.func == foo_idx
                    && matches!(v.snippet.id, SnippetId::Loop(_))
                    && v.snippet.depth == 0
            })
            .unwrap();
        assert!(!i_loop.globally_fixed, "{i_loop:?}");
    }

    #[test]
    fn figure9_rank_dependence_detected() {
        let (_, id) = run(r#"
            fn main() {
                int rank = mpi_comm_rank();
                int count = 0;
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) {
                        if (rank % 2 == 1) { count = count + 1; }
                    }
                    for (k2 = 0; k2 < 10; k2 = k2 + 1) { count = count + 1; }
                }
            }
        "#);
        let loops: Vec<_> = id
            .verdicts
            .iter()
            .filter(|v| matches!(v.snippet.id, SnippetId::Loop(_)) && v.snippet.depth == 1)
            .collect();
        assert_eq!(loops.len(), 2);
        // Loop-1 (rank-dependent): fixed over iterations but not across
        // processes.
        assert!(loops[0].globally_fixed, "{:?}", loops[0]);
        assert!(!loops[0].fixed_across_processes);
        // Loop-2: fixed everywhere.
        assert!(loops[1].globally_fixed);
        assert!(loops[1].fixed_across_processes);
    }

    #[test]
    fn volatile_global_disqualifies() {
        let (_, id) = run(r#"
            global int LIMIT = 10;
            fn main() {
                int count = 0;
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < LIMIT; k = k + 1) { count = count + 1; }
                    LIMIT = LIMIT + 1;
                }
            }
        "#);
        assert!(id.volatile_globals.contains("LIMIT"));
        let inner = id
            .verdicts
            .iter()
            .find(|v| matches!(v.snippet.id, SnippetId::Loop(_)) && v.snippet.depth == 1)
            .unwrap();
        // Not even intra-fixed: LIMIT is assigned inside the outer loop.
        assert_eq!(inner.scope_len, 0);
        assert!(!inner.globally_fixed);
    }

    #[test]
    fn stable_global_is_fine() {
        let (_, id) = run(r#"
            global int LIMIT = 10;
            fn main() {
                int count = 0;
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < LIMIT; k = k + 1) { count = count + 1; }
                }
            }
        "#);
        assert!(id.volatile_globals.is_empty());
        let inner = id
            .verdicts
            .iter()
            .find(|v| matches!(v.snippet.id, SnippetId::Loop(_)) && v.snippet.depth == 1)
            .unwrap();
        assert!(inner.globally_fixed, "{inner:?}");
    }

    #[test]
    fn constant_arg_call_is_globally_fixed() {
        let (p, id) = run(r#"
            fn work(int n) {
                for (i = 0; i < n; i = i + 1) { compute(4); }
            }
            fn main() {
                for (t = 0; t < 50; t = t + 1) { work(64); }
            }
        "#);
        let work_idx = p.function_index("work").unwrap();
        assert!(id.fixed_params[work_idx].contains(&0));
        let call = id
            .verdicts
            .iter()
            .find(|v| v.snippet.callee == "work")
            .unwrap();
        assert!(call.globally_fixed, "{call:?}");
    }

    #[test]
    fn varying_arg_breaks_param_fixedness() {
        let (p, id) = run(r#"
            fn work(int n) {
                for (i = 0; i < n; i = i + 1) { compute(4); }
            }
            fn main() {
                for (t = 0; t < 50; t = t + 1) { work(t); }
            }
        "#);
        let work_idx = p.function_index("work").unwrap();
        assert!(!id.fixed_params[work_idx].contains(&0));
        let call = id
            .verdicts
            .iter()
            .find(|v| v.snippet.callee == "work")
            .unwrap();
        assert!(!call.globally_fixed);
        assert_eq!(call.scope_len, 0, "varies with t directly");
    }

    #[test]
    fn mixed_call_sites_one_varying_kills_param() {
        let (p, id) = run(r#"
            fn work(int n) {
                for (i = 0; i < n; i = i + 1) { compute(4); }
            }
            fn main() {
                for (t = 0; t < 50; t = t + 1) { work(64); }
                for (t = 0; t < 50; t = t + 1) { work(t); }
            }
        "#);
        let work_idx = p.function_index("work").unwrap();
        // One bad call site poisons the parameter for all sites (the
        // paper's condition quantifies over all invocations).
        assert!(!id.fixed_params[work_idx].contains(&0));
        // The loop *inside* work with constant trip would still be fine,
        // but the `i` loop is not.
        let i_loop = id
            .verdicts
            .iter()
            .find(|v| v.snippet.func == work_idx)
            .unwrap();
        assert!(!i_loop.globally_fixed);
    }

    #[test]
    fn rank_taint_propagates_through_params() {
        let (p, id) = run(r#"
            fn work(int n) {
                for (i = 0; i < 10; i = i + 1) { compute(n); }
            }
            fn main() {
                int r = mpi_comm_rank();
                for (t = 0; t < 50; t = t + 1) { work(r); }
            }
        "#);
        let work_idx = p.function_index("work").unwrap();
        assert!(id.rank_params[work_idx].contains(&0));
        let call = id
            .verdicts
            .iter()
            .find(|v| v.snippet.callee == "work")
            .unwrap();
        // Fixed over iterations (r is loop-invariant) but rank-dependent.
        assert!(call.globally_fixed, "{call:?}");
        assert!(!call.fixed_across_processes);
    }

    #[test]
    fn recursion_disables_global_fixedness() {
        let (p, id) = run(r#"
            fn rec(int n) -> int {
                for (i = 0; i < 10; i = i + 1) { compute(8); }
                if (n < 1) { return 0; }
                return rec(n - 1);
            }
            fn main() {
                for (t = 0; t < 5; t = t + 1) { rec(3); }
            }
        "#);
        let rec_idx = p.function_index("rec").unwrap();
        assert!(id.callgraph.recursive.contains(&rec_idx));
        for v in id.verdicts.iter().filter(|v| v.snippet.func == rec_idx) {
            assert!(!v.globally_fixed, "{v:?}");
        }
        // The call to rec from main is never-fixed (opaque).
        let call = id
            .verdicts
            .iter()
            .find(|v| v.snippet.callee == "rec")
            .unwrap();
        assert!(call.deps.has_unknown());
        assert!(!call.is_vsensor());
    }

    #[test]
    fn barrier_is_a_network_vsensor() {
        let (_, id) = run(r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) { mpi_barrier(); }
            }
        "#);
        let call = id
            .verdicts
            .iter()
            .find(|v| v.snippet.callee == "mpi_barrier")
            .unwrap();
        assert!(call.globally_fixed);
        assert_eq!(call.ty, SnippetType::Network);
    }

    #[test]
    fn message_size_must_be_invariant() {
        let (_, id) = run(r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    mpi_send(1, 4096, 0);
                    mpi_send(1, n * 8, 1);
                }
            }
        "#);
        let sends: Vec<_> = id
            .verdicts
            .iter()
            .filter(|v| v.snippet.callee == "mpi_send")
            .collect();
        assert!(sends[0].globally_fixed, "constant size: {:?}", sends[0]);
        assert!(!sends[1].globally_fixed, "varying size");
    }

    #[test]
    fn top_level_snippet_is_not_a_vsensor() {
        let (_, id) = run("fn main() { compute(10); }");
        assert!(!id.verdicts[0].is_vsensor(), "not inside a loop");
        // It is still trivially globally fixed (constant workload), which
        // selection ignores because it never repeats.
        assert!(id.verdicts[0].globally_fixed);
    }
}
