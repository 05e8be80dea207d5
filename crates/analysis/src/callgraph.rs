//! Program call graph (§3.5, Figure 10).
//!
//! Builds the user-function call graph, detects recursion with Tarjan's SCC
//! algorithm, removes recursive edges from analysis (functions on cycles
//! are treated like never-fixed externs, the conservative choice), and
//! produces a bottom-up (callee-before-caller) analysis order. MiniHPC has
//! no function pointers; the corresponding removal step in the paper is a
//! no-op here but recursion exercises the same machinery.

use std::collections::{HashMap, HashSet};
use vsensor_lang::{visit_calls, Program};

/// The processed call graph.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// `edges[f]` = indices of user functions called by function `f`
    /// (deduplicated, excluding edges into recursive SCCs).
    pub edges: Vec<Vec<usize>>,
    /// Function indices that participate in recursion (self- or mutual-).
    pub recursive: HashSet<usize>,
    /// Bottom-up order: every callee appears before its callers.
    /// Recursive functions are excluded.
    pub topo_order: Vec<usize>,
}

impl CallGraph {
    /// Build the graph for a program.
    pub fn build(program: &Program) -> Self {
        let n = program.functions.len();
        let index: HashMap<&str, usize> = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();

        let mut raw_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (edges, f) in raw_edges.iter_mut().zip(&program.functions) {
            visit_calls(&f.body, &mut |c| {
                if let Some(&ci) = index.get(c.callee.as_str()) {
                    if !edges.contains(&ci) {
                        edges.push(ci);
                    }
                }
            });
        }

        // Tarjan SCC to find recursion (any SCC of size > 1, or a
        // self-loop).
        let sccs = tarjan(&raw_edges);
        let mut recursive = HashSet::new();
        for scc in &sccs {
            if scc.len() > 1 {
                recursive.extend(scc.iter().copied());
            } else {
                let f = scc[0];
                if raw_edges[f].contains(&f) {
                    recursive.insert(f);
                }
            }
        }

        // Remove edges that touch recursive functions: callers treat those
        // callees as unknown externs, and recursive functions themselves
        // are not analyzed.
        let edges: Vec<Vec<usize>> = raw_edges
            .iter()
            .enumerate()
            .map(|(f, es)| {
                if recursive.contains(&f) {
                    Vec::new()
                } else {
                    es.iter()
                        .copied()
                        .filter(|c| !recursive.contains(c))
                        .collect()
                }
            })
            .collect();

        // Bottom-up topological order over the acyclic remainder.
        let mut order = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 in-progress, 2 done
        fn dfs(f: usize, edges: &[Vec<usize>], state: &mut [u8], order: &mut Vec<usize>) {
            if state[f] != 0 {
                return;
            }
            state[f] = 1;
            for &c in &edges[f] {
                dfs(c, edges, state, order);
            }
            state[f] = 2;
            order.push(f);
        }
        for f in 0..n {
            if !recursive.contains(&f) {
                dfs(f, &edges, &mut state, &mut order);
            }
        }

        CallGraph {
            edges,
            recursive,
            topo_order: order,
        }
    }

    /// Transitive closure of callees of `f` (over the pruned graph),
    /// including `f` itself.
    pub fn reachable_from(&self, f: usize) -> HashSet<usize> {
        let mut seen = HashSet::new();
        let mut stack = vec![f];
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                stack.extend(self.edges[x].iter().copied());
            }
        }
        seen
    }
}

/// Iterative Tarjan SCC.
fn tarjan(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut counter = 0usize;

    // Explicit DFS stack: (node, edge cursor).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = edges[v].get(*cursor) {
                *cursor += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                // Done with v.
                if low[v] == index[v] {
                    // v is on the stack (pushed when first visited, and
                    // only an SCC root's pop removes it): pop down to it.
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsensor_lang::compile;

    #[test]
    fn topo_order_is_bottom_up() {
        let p = compile(
            r#"
            fn leaf() {}
            fn mid() { leaf(); }
            fn main() { mid(); leaf(); }
            "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let pos = |name: &str| {
            let idx = p.function_index(name).unwrap();
            g.topo_order.iter().position(|&f| f == idx).unwrap()
        };
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("main"));
        assert!(g.recursive.is_empty());
    }

    #[test]
    fn self_recursion_detected_and_pruned() {
        let p = compile(
            r#"
            fn fact(int n) -> int {
                if (n < 2) { return 1; }
                return n * fact(n - 1);
            }
            fn main() { fact(5); }
            "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let fact = p.function_index("fact").unwrap();
        let main = p.function_index("main").unwrap();
        assert!(g.recursive.contains(&fact));
        assert!(!g.topo_order.contains(&fact));
        assert!(g.edges[main].is_empty(), "edge into recursive fn pruned");
    }

    #[test]
    fn mutual_recursion_detected() {
        let p = compile(
            r#"
            fn even(int n) -> int { if (n == 0) { return 1; } return odd(n - 1); }
            fn odd(int n) -> int { if (n == 0) { return 0; } return even(n - 1); }
            fn main() { even(4); }
            "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        assert!(g.recursive.contains(&p.function_index("even").unwrap()));
        assert!(g.recursive.contains(&p.function_index("odd").unwrap()));
        assert!(!g.recursive.contains(&p.function_index("main").unwrap()));
    }

    #[test]
    fn reachable_includes_transitive_callees() {
        let p = compile(
            r#"
            fn a() {}
            fn b() { a(); }
            fn main() { b(); }
            "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let reach = g.reachable_from(p.function_index("main").unwrap());
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn extern_calls_do_not_create_edges() {
        let p = compile("fn main() { compute(1); mpi_barrier(); }").unwrap();
        let g = CallGraph::build(&p);
        assert!(g.edges[0].is_empty());
    }

    #[test]
    fn diamond_graph_orders_correctly() {
        let p = compile(
            r#"
            fn d() {}
            fn b() { d(); }
            fn c() { d(); }
            fn main() { b(); c(); }
            "#,
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let pos = |name: &str| {
            let idx = p.function_index(name).unwrap();
            g.topo_order.iter().position(|&f| f == idx).unwrap()
        };
        assert!(pos("d") < pos("b"));
        assert!(pos("d") < pos("c"));
        assert!(pos("b") < pos("main"));
        assert!(pos("c") < pos("main"));
    }
}
