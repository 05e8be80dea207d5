//! Dependency propagation (§3.2): per-function use-define analysis.
//!
//! For every function we compute, in one walk over its statement tree:
//!
//! * **flows** — a one-step influence map `var → deps`: everything that
//!   flows into any assignment of the variable, including *control
//!   dependence* (an assignment under `if (c)` also depends on `c`'s
//!   variables) — the flow-insensitive use-define chains of the paper;
//! * **snippet seeds** — for every candidate snippet, the variables its
//!   *control expressions* read directly: loop bounds, branch conditions,
//!   and workload-determining call arguments (substituted through callee
//!   boundaries, §3.3);
//! * **loop-assigned sets** — for every loop, the variables written
//!   anywhere in its body (plus its own induction variable and the globals
//!   written by callees), which is what "changes over iterations" means;
//! * the function's **boundary** — workload/return dependencies in terms
//!   of parameters, globals, rank and unknown, used by callers.
//!
//! A snippet `S` is then a v-sensor of an enclosing loop `L` iff the
//! closure of its seed intersects neither `L`'s assigned set nor any
//! disqualifying symbol — the judgment itself lives in [`crate::identify`].
//!
//! ## Representation
//!
//! Each name a function touches gets a dense *slot* when the walk first
//! meets it; each base symbol is an *atom* (`Unknown`, `Rank`, one per
//! program global, then one per parameter). A `Deps` is two `Bits`, so
//! unions, intersections and the closure are word operations. Each
//! expression is walked once, and what a loop learns goes to the innermost
//! open loop, folded outward when it closes (an enclosing loop contains
//! its inner ones). Strings return only in the [`UseSet`]s handed out.
//!
//! ## Soundness notes
//!
//! The analysis is name-based and flow-insensitive, which is conservative:
//! a variable assigned *anywhere* in a loop is treated as varying across
//! all its iterations. Induction variables of `for` loops contained in a
//! snippet are *reinitialization-safe* (their entry values cannot influence
//! the snippet) and are excluded from its dependency set — but only when
//! the name is unambiguous (used solely as an induction variable of loops
//! inside the snippet); ambiguous names stay in, erring toward "not
//! fixed", which can only suppress sensors, never fabricate them.

use crate::snippets::{SnippetId, SnippetType};
use crate::symbols::{Bits, Symbol, UseSet};
use crate::AnalysisConfig;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use vsensor_lang::{Block, CallId, CallSite, Expr, LValue, LoopId, Name, Program, Stmt};

/// Atom of [`Symbol::Unknown`].
pub(crate) const UNKNOWN: u32 = 0;
/// Atom of [`Symbol::Rank`].
pub(crate) const RANK: u32 = 1;
/// Atom of the first program global; the function's parameters follow the
/// last global.
const FIRST_GLOBAL: u32 = 2;

fn param_atom(program: &Program, i: usize) -> u32 {
    FIRST_GLOBAL + (program.globals.len() + i) as u32
}

pub(crate) fn all_globals(program: &Program) -> Bits {
    (0..program.globals.len() as u32)
        .map(|g| FIRST_GLOBAL + g)
        .collect()
}

/// The symbol an atom stands for.
fn symbol(program: &Program, atom: u32) -> Symbol {
    match atom {
        UNKNOWN => Symbol::Unknown,
        RANK => Symbol::Rank,
        _ => {
            let i = (atom - FIRST_GLOBAL) as usize;
            match program.globals.get(i) {
                Some(g) => Symbol::Global(g.name.clone()),
                None => Symbol::Param(i - program.globals.len()),
            }
        }
    }
}

fn symbols(program: &Program, atoms: &Bits) -> BTreeSet<Symbol> {
    atoms.iter().map(|a| symbol(program, a)).collect()
}

/// The global names among `atoms`.
pub(crate) fn global_names<'p>(
    program: &'p Program,
    atoms: &'p Bits,
) -> impl Iterator<Item = Name> + 'p {
    atoms.iter().filter_map(|a| match symbol(program, a) {
        Symbol::Global(g) => Some(g),
        _ => None,
    })
}

/// The parameter indices among `atoms`.
pub(crate) fn params<'b>(program: &Program, atoms: &'b Bits) -> impl Iterator<Item = usize> + 'b {
    let first = param_atom(program, 0);
    atoms
        .iter()
        .filter(move |&a| a >= first)
        .map(move |a| (a - first) as usize)
}

/// Boundary summary of a function, as `Identified::summaries` reports it.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// What the function's total workload depends on, in boundary terms
    /// (params / globals / rank / unknown only — no local names).
    pub workload: UseSet,
    /// What the function's return value depends on, in boundary terms.
    pub returns: UseSet,
    /// Globals written by the function or its callees.
    pub globals_written: BTreeSet<Name>,
    /// Function (transitively) performs network operations.
    pub contains_net: bool,
    /// Function (transitively) performs I/O operations.
    pub contains_io: bool,
    /// Function is recursive or otherwise unanalyzable.
    pub opaque: bool,
}

/// A dependency set: base symbols as atoms, local names as slots.
#[derive(Clone, Debug, Default)]
pub(crate) struct Deps {
    /// Atoms.
    pub(crate) syms: Bits,
    /// Slots.
    pub(crate) names: Bits,
}

impl Deps {
    fn absorb(&mut self, other: &Deps) {
        self.syms.union_with(&other.syms);
        self.names.union_with(&other.names);
    }
}

/// Whether code performs network and I/O operations.
#[derive(Clone, Copy, Debug, Default)]
struct Flags {
    net: bool,
    io: bool,
}

impl Flags {
    fn merge(&mut self, other: Flags) {
        self.net |= other.net;
        self.io |= other.io;
    }

    /// Network has priority over I/O.
    fn ty(self) -> SnippetType {
        match self {
            Flags { net: true, .. } => SnippetType::Network,
            Flags { io: true, .. } => SnippetType::Io,
            _ => SnippetType::Computation,
        }
    }
}

/// A function's boundary in atom form: what its callers substitute.
#[derive(Clone, Debug, Default)]
pub(crate) struct Boundary {
    workload: Bits,
    returns: Bits,
    /// Globals written by the function or its callees.
    globals_written: Bits,
    flags: Flags,
    opaque: bool,
}

impl Boundary {
    /// Conservative boundary of a recursive function: workload and return
    /// depend on every parameter and on something unknown, and it may
    /// write any global.
    pub(crate) fn opaque(program: &Program, param_count: usize) -> Self {
        let params = (0..param_count).map(|i| param_atom(program, i));
        let deps: Bits = std::iter::once(UNKNOWN).chain(params).collect();
        Boundary {
            workload: deps.clone(),
            returns: deps,
            globals_written: all_globals(program),
            flags: Flags::default(),
            opaque: true,
        }
    }

    /// The string form.
    pub(crate) fn summary(&self, program: &Program) -> Summary {
        let boundary = |atoms: &Bits| UseSet {
            names: BTreeSet::new(),
            symbols: symbols(program, atoms),
        };
        Summary {
            workload: boundary(&self.workload),
            returns: boundary(&self.returns),
            globals_written: global_names(program, &self.globals_written).collect(),
            contains_net: self.flags.net,
            contains_io: self.flags.io,
            opaque: self.opaque,
        }
    }
}

/// Everything the walk learns about one function.
#[derive(Clone, Debug, Default)]
pub struct FuncAnalysis {
    /// Slot → name: every name the function touches, in first-touch order.
    pub names: Vec<Name>,
    /// Per slot: one-step influence, plus the name's own atom when it is a
    /// parameter or an unshadowed global.
    flows: Vec<Deps>,
    /// Loops in pre-order.
    loops: Vec<LoopFacts>,
    /// Statement-position calls, in walk order.
    call_snippets: Vec<CallSnippet>,
    /// Every call of a user function (for the parameter fixpoints).
    pub(crate) user_calls: Vec<UserCall>,
    /// `(slot, loop)` for every induction binding of a slot that has no
    /// plain definition; `loop` is a pre-order index.
    inductions: Vec<(u32, u32)>,
    /// Globals written directly (atoms).
    pub(crate) global_writes: Bits,
    /// What callers substitute; `None` until the function is analyzed.
    pub(crate) boundary: Option<Boundary>,
}

/// What a loop (or the whole body) accumulates while open. An enclosing
/// frame contains everything its inner ones do, so the walk fills the
/// innermost and folds it outward when it closes.
#[derive(Clone, Debug, Default)]
struct Frame {
    seed: Deps,
    flags: Flags,
    /// Slots assigned anywhere within, including induction variables and
    /// the globals callees write.
    assigned: Bits,
    /// Globals written by callees within (atoms), folded into `assigned`
    /// once every slot of the function exists.
    callee_writes: Bits,
}

impl Frame {
    fn fold(&mut self, inner: &Frame) {
        self.seed.absorb(&inner.seed);
        self.flags.merge(inner.flags);
        self.assigned.union_with(&inner.assigned);
        self.callee_writes.union_with(&inner.callee_writes);
    }
}

#[derive(Clone, Debug)]
struct LoopFacts {
    id: LoopId,
    /// One past the pre-order index of the last loop it contains.
    end: u32,
    frame: Frame,
}

#[derive(Clone, Debug)]
struct CallSnippet {
    id: CallId,
    seed: Deps,
    ty: SnippetType,
}

/// A call of a user function, as the parameter fixpoints see it.
#[derive(Clone, Debug)]
pub(crate) struct UserCall {
    pub(crate) callee: usize,
    /// One-step dependency set of each argument.
    pub(crate) args: Vec<Deps>,
    /// The outermost loop enclosing the call in its function: its assigned
    /// set contains every inner one's.
    pub(crate) outer: Option<LoopId>,
}

/// Position of `id` in `items`, which are in ID order when the IDs follow
/// the source (as lowering's do); any other order costs a scan.
fn find<T, K: Ord + Copy>(items: &[T], id: K, key: impl Fn(&T) -> K) -> Option<usize> {
    let sorted = items.binary_search_by_key(&id, &key).ok();
    sorted.or_else(|| items.iter().position(|x| key(x) == id))
}

impl FuncAnalysis {
    /// Seed, type and reinitialization-safe slots of a snippet; `None` for
    /// snippets the walk never saw (those of recursive functions).
    pub(crate) fn snippet(&self, id: SnippetId) -> Option<(&Deps, SnippetType, Bits)> {
        match id {
            SnippetId::Loop(l) => {
                let i = find(&self.loops, l, |f| f.id)?;
                let facts = &self.loops[i];
                let safe = self.reinit_safe(i as u32..facts.end);
                Some((&facts.frame.seed, facts.frame.flags.ty(), safe))
            }
            SnippetId::Call(c) => {
                let facts = &self.call_snippets[find(&self.call_snippets, c, |f| f.id)?];
                Some((&facts.seed, facts.ty, Bits::default()))
            }
        }
    }

    /// Induction slots with no plain definition whose every binding loop
    /// lies in `within` (pre-order indices).
    fn reinit_safe(&self, within: Range<u32>) -> Bits {
        let bound = self.inductions.iter();
        let outside: Bits = bound
            .clone()
            .filter(|(_, l)| !within.contains(l))
            .map(|b| b.0)
            .collect();
        bound
            .map(|b| b.0)
            .filter(|&s| !outside.contains(s))
            .collect()
    }

    /// Transitively close `seed` over the flow map. An `excluded`
    /// (reinitialization-safe) slot is neither kept nor followed — see the
    /// module-level soundness notes.
    pub(crate) fn closure(&self, seed: &Deps, excluded: &Bits) -> Deps {
        let mut out = Deps {
            syms: seed.syms.clone(),
            names: Bits::default(),
        };
        let mut seen = seed.names.clone();
        let mut work: Vec<u32> = seed.names.iter().collect();
        while let Some(slot) = work.pop() {
            if excluded.contains(slot) {
                continue;
            }
            out.names.insert(slot);
            if let Some(step) = self.flows.get(slot as usize) {
                out.syms.union_with(&step.syms);
                work.extend(step.names.iter().filter(|&s| seen.insert(s)));
            }
        }
        out
    }

    /// Whether any of `names` is assigned within loop `id` (a loop the walk
    /// never saw assigns nothing).
    pub(crate) fn varies_in(&self, id: LoopId, names: &Bits) -> bool {
        find(&self.loops, id, |f| f.id)
            .is_some_and(|i| self.loops[i].frame.assigned.intersects(names))
    }

    /// Names assigned anywhere within loop `id`.
    pub(crate) fn assigned_in(&self, id: LoopId) -> impl Iterator<Item = &Name> + '_ {
        let facts = find(&self.loops, id, |f| f.id).map(|i| &self.loops[i]);
        let slots = facts.into_iter().flat_map(|f| f.frame.assigned.iter());
        slots.filter_map(|s| self.names.get(s as usize))
    }

    /// The string form of `deps`.
    pub(crate) fn use_set(&self, program: &Program, deps: &Deps) -> UseSet {
        let names = deps.names.iter().filter_map(|s| self.names.get(s as usize));
        UseSet {
            names: names.cloned().collect(),
            symbols: symbols(program, &deps.syms),
        }
    }
}

/// What every function walk consults about the rest of the program.
pub(crate) struct Context<'a> {
    program: &'a Program,
    config: &'a AnalysisConfig,
    functions: HashMap<&'a str, usize>,
    globals: HashMap<&'a str, u32>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(program: &'a Program, config: &'a AnalysisConfig) -> Self {
        let functions = program.functions.iter().enumerate();
        let globals = program.globals.iter().enumerate();
        Context {
            program,
            config,
            functions: functions.map(|(i, f)| (f.name.as_str(), i)).collect(),
            globals: globals
                .map(|(g, v)| (v.name.as_str(), FIRST_GLOBAL + g as u32))
                .collect(),
        }
    }

    /// A callee's boundary atoms in the caller's terms: each parameter atom
    /// becomes the matching argument's dependencies.
    fn substitute(&self, atoms: &Bits, args: &[Deps]) -> Deps {
        let first_param = param_atom(self.program, 0);
        let mut out = Deps::default();
        for a in atoms.iter() {
            if a < first_param {
                out.syms.insert(a);
            } else if let Some(d) = args.get((a - first_param) as usize) {
                out.absorb(d);
            }
        }
        out
    }
}

/// Analyze function `func`, given the analyses of the functions it calls.
pub(crate) fn analyze_function<'a>(
    cx: &'a Context<'a>,
    analyses: &'a [FuncAnalysis],
    func: usize,
) -> FuncAnalysis {
    let f = &cx.program.functions[func];
    let mut w = Walker {
        cx,
        analyses,
        out: FuncAnalysis::default(),
        slots: HashMap::new(),
        global: Vec::new(),
        local: Bits::default(),
        plain: Bits::default(),
        induction: Vec::new(),
        open: Vec::new(),
        control: Deps::default(),
        body: Frame::default(),
        return_seed: Deps::default(),
    };
    let params: Vec<u32> = f.params.iter().map(|(n, _)| w.slot(n)).collect();
    for &p in &params {
        w.local.insert(p);
    }
    w.walk_block(&f.body);
    w.finish(&params)
}

/// State of the walk over one function.
struct Walker<'a> {
    cx: &'a Context<'a>,
    analyses: &'a [FuncAnalysis],
    out: FuncAnalysis,
    slots: HashMap<&'a str, u32>,
    /// Per slot: its atom, if the name is a program global.
    global: Vec<Option<u32>>,
    /// Slots declared local so far: params, declarations, induction vars.
    local: Bits,
    /// Slots with at least one plain (non-induction) definition.
    plain: Bits,
    /// `(slot, loop)` for every induction binding.
    induction: Vec<(u32, u32)>,
    /// Open loops, outermost first (pre-order indices).
    open: Vec<u32>,
    /// Control-dependence context: union of the enclosing conditions.
    control: Deps,
    /// The whole body, as one snippet: the function's boundary.
    body: Frame,
    return_seed: Deps,
}

impl<'a> Walker<'a> {
    fn slot(&mut self, name: &'a Name) -> u32 {
        let next = self.out.names.len() as u32;
        let slot = *self.slots.entry(name.as_str()).or_insert(next);
        if slot == next {
            self.out.names.push(name.clone());
            self.out.flows.push(Deps::default());
            self.global
                .push(self.cx.globals.get(name.as_str()).copied());
        }
        slot
    }

    fn innermost(&mut self) -> &mut Frame {
        match self.open.last() {
            Some(&l) => &mut self.out.loops[l as usize].frame,
            None => &mut self.body,
        }
    }

    fn walk_block(&mut self, block: &'a Block) {
        for stmt in &block.stmts {
            self.walk_stmt(stmt);
        }
    }

    /// Record a control-dependency contribution and what it performs.
    fn contribute(&mut self, dep: &Deps, flags: Flags) {
        let frame = self.innermost();
        frame.seed.absorb(dep);
        frame.flags.merge(flags);
    }

    /// Record a plain assignment to `slot` with dependency `dep` (the
    /// control context is added here).
    fn assign(&mut self, slot: u32, mut dep: Deps) {
        dep.absorb(&self.control);
        self.out.flows[slot as usize].absorb(&dep);
        self.plain.insert(slot);
        self.innermost().assigned.insert(slot);
        if let Some(g) = self.global[slot as usize] {
            if !self.local.contains(slot) {
                self.out.global_writes.insert(g);
            }
        }
    }

    fn walk_stmt(&mut self, stmt: &'a Stmt) {
        match stmt {
            Stmt::Decl { name, init, .. } => {
                let slot = self.slot(name);
                self.local.insert(slot);
                let dep = init.as_ref().map(|e| self.expr(e)).unwrap_or_default();
                self.assign(slot, dep);
            }
            Stmt::ArrayDecl { name, len, .. } => {
                let slot = self.slot(name);
                self.local.insert(slot);
                let dep = self.expr(len);
                self.assign(slot, dep);
            }
            Stmt::Assign { target, value, .. } => {
                let mut dep = self.expr(value);
                if let LValue::Index { index, .. } = target {
                    self.expr_into(index, &mut dep);
                }
                let slot = self.slot(target.base());
                self.assign(slot, dep);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let cdep = self.expr(cond);
                self.contribute(&cdep, Flags::default());
                let saved = self.control.clone();
                self.control.absorb(&cdep);
                self.walk_block(then_blk);
                self.walk_block(else_blk);
                self.control = saved;
            }
            Stmt::Loop {
                id,
                var,
                init,
                cond,
                step,
                body,
                ..
            } => self.walk_loop(*id, var, [init, cond, step], body),
            Stmt::Call(c) => {
                self.call(c, true);
            }
            Stmt::Return { value, .. } => {
                let mut dep = value.as_ref().map(|e| self.expr(e)).unwrap_or_default();
                dep.absorb(&self.control);
                self.return_seed.absorb(&dep);
            }
            // Break/continue alter how often later statements run, not how
            // much work one execution of any snippet does; the governing
            // branch condition already contributed when its `if` was
            // walked, so the early exit itself adds nothing.
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
            Stmt::Tick(_) | Stmt::Tock(_) => {}
        }
    }

    fn walk_loop(&mut self, id: LoopId, var: &'a Name, bounds: [&'a Expr; 3], body: &'a Block) {
        // The loop's control contribution: the trip count, determined by
        // init/cond/step, which run before the loop opens.
        let mut cdep = Deps::default();
        for e in bounds {
            self.expr_into(e, &mut cdep);
        }
        let index = self.out.loops.len() as u32;
        self.out.loops.push(LoopFacts {
            id,
            end: index + 1,
            frame: Frame::default(),
        });
        self.open.push(index);
        // Its own control expressions count toward its seed too (the
        // induction variable is excluded at closure time).
        self.contribute(&cdep, Flags::default());
        let slot = self.slot(var);
        self.local.insert(slot);
        self.induction.push((slot, index));
        self.out.flows[slot as usize].absorb(&cdep);
        self.innermost().assigned.insert(slot);

        let saved = self.control.clone();
        self.control.absorb(&cdep);
        self.walk_block(body);
        self.control = saved;
        self.open.pop();

        // Seal the loop and fold it into whatever encloses it.
        let end = self.out.loops.len() as u32;
        let done = &mut self.out.loops[index as usize];
        done.end = end;
        let inner = done.frame.clone();
        self.innermost().fold(&inner);
    }

    fn expr(&mut self, e: &'a Expr) -> Deps {
        let mut out = Deps::default();
        self.expr_into(e, &mut out);
        out
    }

    /// Dependency set of an expression: variable names plus, for nested
    /// calls, the substituted *return* dependencies of the callee.
    fn expr_into(&mut self, e: &'a Expr, out: &mut Deps) {
        match e {
            Expr::Int(_) | Expr::Float(_) => {}
            Expr::Var(n) => {
                let slot = self.slot(n);
                out.names.insert(slot);
            }
            Expr::Index { name, index } => {
                let slot = self.slot(name);
                out.names.insert(slot);
                self.expr_into(index, out);
            }
            Expr::Unary { operand, .. } => self.expr_into(operand, out),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr_into(lhs, out);
                self.expr_into(rhs, out);
            }
            Expr::Call(c) => {
                let returns = self.call(c, false);
                out.absorb(&returns);
            }
        }
    }

    /// Process a call site: walk each argument once, substitute the
    /// callee's boundary for the call's workload and return value, record
    /// the call, and return the return-value dependency. `as_snippet` is
    /// true in statement position (only those are v-sensor candidates);
    /// nested calls still contribute workload to enclosing snippets.
    fn call(&mut self, c: &'a CallSite, as_snippet: bool) -> Deps {
        let args: Vec<Deps> = c.args.iter().map(|a| self.expr(a)).collect();
        let (cx, analyses) = (self.cx, self.analyses);
        let unknown = || {
            let mut d = Deps::default();
            d.syms.insert(UNKNOWN);
            d
        };
        let user = cx.functions.get(c.callee.as_str()).copied();
        let (workload, returns, flags) = match user {
            Some(f) => match analyses.get(f).and_then(|fa| fa.boundary.as_ref()) {
                Some(b) => {
                    self.innermost()
                        .callee_writes
                        .union_with(&b.globals_written);
                    let workload = cx.substitute(&b.workload, &args);
                    (workload, cx.substitute(&b.returns, &args), b.flags)
                }
                // A user function not analyzed yet (recursive, pruned
                // from the bottom-up order): conservative.
                None => {
                    let all = all_globals(cx.program);
                    self.innermost().callee_writes.union_with(&all);
                    (unknown(), unknown(), Flags::default())
                }
            },
            None => match cx.config.externs.get(&c.callee) {
                Some(b) => {
                    let mut workload = Deps::default();
                    if b.never_fixed {
                        workload.syms.insert(UNKNOWN);
                    }
                    let dest = if cx.config.comm_dest_matters {
                        &b.dest_args[..]
                    } else {
                        &[]
                    };
                    for &i in b.workload_args.iter().chain(dest) {
                        if let Some(d) = args.get(i) {
                            workload.absorb(d);
                        }
                    }
                    let mut returns = Deps::default();
                    if b.returns_rank {
                        returns.syms.insert(RANK);
                    }
                    if b.returns_unknown {
                        returns.syms.insert(UNKNOWN);
                    } else if !b.returns_rank {
                        // Deterministic function of its arguments.
                        for d in &args {
                            returns.absorb(d);
                        }
                    }
                    let (net, io) = (b.ty == SnippetType::Network, b.ty == SnippetType::Io);
                    (workload, returns, Flags { net, io })
                }
                // Undescribed extern: never-fixed (§3.5).
                None => (unknown(), unknown(), Flags::default()),
            },
        };

        if as_snippet {
            // The enclosing control context is *not* part of a call's
            // seed: conditions around a snippet gate whether it executes,
            // not how much work one execution does.
            self.out.call_snippets.push(CallSnippet {
                id: c.id,
                seed: workload.clone(),
                ty: flags.ty(),
            });
        }
        self.contribute(&workload, flags);
        if let Some(callee) = user {
            let outer = self.open.first().map(|&l| self.out.loops[l as usize].id);
            self.out.user_calls.push(UserCall {
                callee,
                args,
                outer,
            });
        }
        returns
    }

    fn finish(mut self, params: &[u32]) -> FuncAnalysis {
        let program = self.cx.program;
        // A name's own atom joins its flow step, so a closure picks up
        // parameters and unshadowed globals as it meets their names. A
        // repeated parameter name binds the last of them.
        let mut bound = Bits::default();
        for (i, &slot) in params.iter().enumerate().rev() {
            if bound.insert(slot) {
                let atom = param_atom(program, i);
                self.out.flows[slot as usize].syms.insert(atom);
            }
        }
        for (slot, g) in self.global.iter().enumerate() {
            if let Some(g) = g.filter(|_| !self.local.contains(slot as u32)) {
                self.out.flows[slot].syms.insert(g);
            }
        }
        // Callee-written globals join a loop's assigned set by name, so
        // they wait until every name the function touches has its slot.
        for frame in self.out.loops.iter_mut().map(|l| &mut l.frame) {
            for (slot, g) in self.global.iter().enumerate() {
                if g.is_some_and(|g| frame.callee_writes.contains(g)) {
                    frame.assigned.insert(slot as u32);
                }
            }
        }
        let plain = &self.plain;
        self.induction.retain(|&(s, _)| !plain.contains(s));
        self.out.inductions = self.induction;

        let all = self.out.reinit_safe(0..u32::MAX);
        let mut globals_written = self.out.global_writes.clone();
        globals_written.union_with(&self.body.callee_writes);
        self.out.boundary = Some(Boundary {
            workload: self.out.closure(&self.body.seed, &all).syms,
            returns: self.out.closure(&self.return_seed, &all).syms,
            globals_written,
            flags: self.body.flags,
            opaque: false,
        });
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identify;
    use vsensor_lang::compile;

    fn analyze_one(src: &str, fname: &str) -> (Program, FuncAnalysis) {
        let p = compile(src).unwrap();
        let config = AnalysisConfig::default();
        let cx = Context::new(&p, &config);
        let fa = analyze_function(&cx, &[], p.function_index(fname).unwrap());
        (p, fa)
    }

    fn names<'f>(fa: &'f FuncAnalysis, slots: &Bits) -> Vec<&'f str> {
        slots
            .iter()
            .map(|s| fa.names[s as usize].as_str())
            .collect()
    }

    fn flow<'f>(fa: &'f FuncAnalysis, name: &str) -> Vec<&'f str> {
        let slot = fa.names.iter().position(|n| n == name).unwrap();
        names(fa, &fa.flows[slot].names)
    }

    /// A snippet's seed, closed with its own induction exclusions.
    fn closed(fa: &FuncAnalysis, id: SnippetId) -> Deps {
        let (seed, _, excluded) = fa.snippet(id).unwrap();
        fa.closure(seed, &excluded)
    }

    fn first_call(fa: &FuncAnalysis) -> SnippetId {
        SnippetId::Call(fa.call_snippets[0].id)
    }

    #[test]
    fn flows_capture_direct_and_control_deps() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                int a = 1;
                int b = a + 2;
                int c = 0;
                if (b > 0) { c = 5; }
            }
            "#,
            "main",
        );
        assert!(flow(&fa, "b").contains(&"a"));
        // Control dependence: c assigned under `b > 0`.
        assert!(flow(&fa, "c").contains(&"b"));
    }

    #[test]
    fn loop_assigned_includes_nested_and_induction() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                int t = 0;
                for (n = 0; n < 10; n = n + 1) {
                    t = t + 1;
                    for (k = 0; k < 5; k = k + 1) { t = t + 2; }
                }
            }
            "#,
            "main",
        );
        let outer: Vec<&Name> = fa.assigned_in(LoopId(0)).collect();
        assert!(outer.contains(&&Name::new("t")));
        assert!(outer.contains(&&Name::new("n")), "own induction var counts");
        assert!(
            outer.contains(&&Name::new("k")),
            "nested induction var counts"
        );
    }

    #[test]
    fn snippet_seed_of_fixed_loop_is_empty_after_closure() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) { compute(3); }
                }
            }
            "#,
            "main",
        );
        // Inner loop is LoopId(1). Its seed mentions k (cond/step), which
        // the closure excludes as reinit-safe.
        let c = closed(&fa, SnippetId::Loop(LoopId(1)));
        assert!(c.names.iter().next().is_none(), "closed = {c:?}");
        assert!(c.syms.iter().next().is_none());
    }

    #[test]
    fn varying_bound_stays_in_closure() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < n; k = k + 1) { compute(3); }
                }
            }
            "#,
            "main",
        );
        let c = closed(&fa, SnippetId::Loop(LoopId(1)));
        assert!(names(&fa, &c.names).contains(&"n"));
    }

    #[test]
    fn rank_taints_through_assignment() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                int r = mpi_comm_rank();
                int cnt = 0;
                for (n = 0; n < 10; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) {
                        if (r % 2 == 1) { cnt = cnt + 1; }
                    }
                }
            }
            "#,
            "main",
        );
        let c = closed(&fa, SnippetId::Loop(LoopId(1)));
        assert!(c.syms.contains(RANK), "closed = {c:?}");
    }

    #[test]
    fn summary_workload_in_boundary_terms() {
        // Figure 4's foo: workload depends on param x and global GLBV only.
        let (p, fa) = analyze_one(
            r#"
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
            "#,
            "foo",
        );
        let s = fa.boundary.unwrap().summary(&p);
        assert!(s.workload.symbols.contains(&Symbol::Param(0)), "{s:?}");
        assert!(
            !s.workload.symbols.contains(&Symbol::Param(1)),
            "y does not affect workload: {s:?}"
        );
        assert!(s.workload.symbols.contains(&Symbol::Global("GLBV".into())));
        assert!(s.workload.names.is_empty() && s.returns.names.is_empty());
    }

    #[test]
    fn extern_workload_args_substituted() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                int sz = 4096;
                for (n = 0; n < 10; n = n + 1) {
                    mpi_send(1, sz, 0);
                }
            }
            "#,
            "main",
        );
        // The send call's seed depends on sz (workload arg), not on the
        // destination (static rule off by default).
        let (seed, _, _) = fa.snippet(first_call(&fa)).unwrap();
        assert!(names(&fa, &seed.names).contains(&"sz"));
        let c = fa.closure(seed, &Bits::default());
        assert!(c.syms.iter().next().is_none(), "sz is a constant: {c:?}");
    }

    #[test]
    fn comm_dest_static_rule_adds_dest_args() {
        let p = compile(
            r#"
            fn main() {
                for (n = 0; n < 10; n = n + 1) {
                    mpi_send(n % 4, 64, 0);
                }
            }
            "#,
        )
        .unwrap();
        let seed_names = |rule: bool| {
            let config = AnalysisConfig {
                comm_dest_matters: rule,
                ..AnalysisConfig::default()
            };
            let fa = analyze_function(&Context::new(&p, &config), &[], 0);
            let (seed, _, _) = fa.snippet(first_call(&fa)).unwrap();
            names(&fa, &seed.names)
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
        };
        // Without the rule, destination n%4 is ignored; with it, it is
        // part of the workload.
        assert!(!seed_names(false).contains(&"n".to_string()));
        assert!(seed_names(true).contains(&"n".to_string()));
    }

    #[test]
    fn unknown_extern_is_never_fixed() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                for (n = 0; n < 10; n = n + 1) { mystery(5); }
            }
            "#,
            "main",
        );
        let (seed, _, _) = fa.snippet(first_call(&fa)).unwrap();
        assert!(seed.syms.contains(UNKNOWN));
    }

    #[test]
    fn snippet_types_classified() {
        let (p, fa) = analyze_one(
            r#"
            fn main() {
                for (n = 0; n < 10; n = n + 1) {
                    for (k = 0; k < 4; k = k + 1) { compute(8); }
                    mpi_alltoall(1024);
                    io_write(512);
                }
            }
            "#,
            "main",
        );
        let ty = |l| fa.snippet(SnippetId::Loop(LoopId(l))).unwrap().1;
        assert_eq!(ty(1), SnippetType::Computation);
        // The outer loop contains network ops → Network (priority).
        assert_eq!(ty(0), SnippetType::Network);
        let s = fa.boundary.unwrap().summary(&p);
        assert!(s.contains_net);
        assert!(s.contains_io);
    }

    #[test]
    fn while_loop_with_persistent_var_is_not_reinit_safe() {
        let (_, fa) = analyze_one(
            r#"
            fn main() {
                int x = 0;
                for (n = 0; n < 10; n = n + 1) {
                    while (x < 10) { x = x + 1; }
                }
            }
            "#,
            "main",
        );
        // The while loop (LoopId 1) uses x, which is assigned inside the
        // outer loop — so x must remain in its closure.
        let c = closed(&fa, SnippetId::Loop(LoopId(1)));
        assert!(names(&fa, &c.names).contains(&"x"));
        // And x is in the outer loop's assigned set → correctly not fixed.
        assert!(fa.varies_in(LoopId(0), &c.names));
    }

    #[test]
    fn global_write_recorded() {
        let (p, fa) = analyze_one(
            r#"
            global int G = 0;
            fn main() {
                for (n = 0; n < 3; n = n + 1) { G = G + 1; }
            }
            "#,
            "main",
        );
        assert!(global_names(&p, &fa.global_writes).any(|g| g == "G"));
        assert!(fa.assigned_in(LoopId(0)).any(|n| n == "G"));
        let s = fa.boundary.unwrap().summary(&p);
        assert!(s.globals_written.contains("G"));
    }

    #[test]
    fn callee_global_write_reaches_a_later_read_in_the_loop() {
        let (_, id) = {
            let p = compile(
                r#"
                global int G = 4;
                fn bump() { G = G + 1; }
                fn main() {
                    for (n = 0; n < 3; n = n + 1) {
                        bump();
                        for (k = 0; k < G; k = k + 1) { compute(1); }
                    }
                }
                "#,
            )
            .unwrap();
            let id = identify(&p, &AnalysisConfig::default());
            (p, id)
        };
        let inner = id
            .verdicts
            .iter()
            .find(|v| v.snippet.id == SnippetId::Loop(LoopId(1)))
            .unwrap();
        assert_eq!(inner.scope_len, 0, "G is written by bump() in L0");
    }

    /// `y = f(f(…f(1)…))` walks every argument once: a 64-deep nest
    /// analyzes (in a debug build, in well under a second) to the verdicts
    /// of its 3-deep twin.
    #[test]
    fn nested_call_arguments_are_walked_once() {
        let verdicts = |depth: usize| {
            let nest = format!("{}1{}", "f(".repeat(depth), ")".repeat(depth));
            let p = compile(&format!(
                "fn f(int x) -> int {{ compute(x); return x + 1; }}
                 fn main() {{
                     int y = 0;
                     for (t = 0; t < 4; t = t + 1) {{ y = {nest}; g(y); compute(3); }}
                 }}"
            ))
            .unwrap();
            let started = std::time::Instant::now();
            let id = identify(&p, &AnalysisConfig::default());
            assert!(started.elapsed().as_secs() < 5, "depth {depth}");
            let shape = |v: &crate::identify::SnippetVerdict| {
                let kind = matches!(v.snippet.id, SnippetId::Call(_));
                let flags = (v.function_scope_fixed, v.globally_fixed);
                (kind, v.ty, v.scope_len, flags, v.deps.clone())
            };
            id.verdicts.iter().map(shape).collect::<Vec<_>>()
        };
        assert_eq!(verdicts(64), verdicts(3));
    }
}
