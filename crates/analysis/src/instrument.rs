//! Instrumentation pass (§4, Figure 3).
//!
//! Wraps every selected snippet in `Tick(sensor)` / `Tock(sensor)` IR
//! statements and emits the sensor table the runtime needs: type, location,
//! rank-invariance. Sensor IDs are dense and assigned in program order, so
//! they are stable across builds of the same source.

use crate::identify::Identified;
use crate::select::Selection;
use crate::snippets::{SnippetId, SnippetType};
use vsensor_lang::{Block, Name, Program, SensorId, Span, Stmt};

/// Everything the runtime needs to know about one instrumented sensor.
#[derive(Clone, Debug)]
pub struct SensorMeta {
    /// Runtime sensor ID (dense, 0-based).
    pub sensor: SensorId,
    /// Which snippet it wraps.
    pub snippet: SnippetId,
    /// Component type (selects the performance matrix it feeds).
    pub ty: SnippetType,
    /// Containing function name.
    pub func: Name,
    /// Source location of the snippet.
    pub span: Span,
    /// Loop-nesting depth at the snippet.
    pub depth: usize,
    /// Workload identical across processes (eligible for inter-process
    /// comparison, §3.4/§5.4).
    pub process_invariant: bool,
}

/// An instrumented program plus its sensor table.
#[derive(Clone, Debug)]
pub struct Instrumented {
    /// The program with Tick/Tock statements inserted.
    pub program: Program,
    /// Sensor table, indexed by `SensorId.0`.
    pub sensors: Vec<SensorMeta>,
}

impl Instrumented {
    /// Look up sensor metadata.
    pub fn sensor(&self, id: SensorId) -> &SensorMeta {
        &self.sensors[id.0 as usize]
    }

    /// Counts of instrumented sensors per type, `(comp, net, io)` — the
    /// "Instrumentation number and type" column of Table 1.
    pub fn type_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for s in &self.sensors {
            match s.ty {
                SnippetType::Computation => c.0 += 1,
                SnippetType::Network => c.1 += 1,
                SnippetType::Io => c.2 += 1,
            }
        }
        c
    }
}

/// Apply the instrumentation: returns a transformed copy of the program and
/// the sensor table. A chosen snippet without a verdict (a selection made
/// for another program) is not instrumented.
pub fn instrument(
    program: &Program,
    identified: &Identified,
    selection: &Selection,
) -> Instrumented {
    // Assign sensor IDs in deterministic (selection) order; `sensor_of` is
    // indexed like `identified.verdicts`.
    let mut sensor_of = vec![None; identified.verdicts.len()];
    let mut sensors = Vec::with_capacity(selection.chosen.len());
    for &sid in &selection.chosen {
        let Some(at) = identified.position(sid) else {
            continue;
        };
        let v = &identified.verdicts[at];
        let sensor = SensorId(sensors.len() as u32);
        sensor_of[at] = Some(sensor);
        sensors.push(SensorMeta {
            sensor,
            snippet: sid,
            ty: v.ty,
            func: program.functions[v.snippet.func].name.clone(),
            span: v.snippet.span,
            depth: v.snippet.depth,
            process_invariant: v.fixed_across_processes,
        });
    }
    let sensor = |stmt: &Stmt| {
        let id = match stmt {
            Stmt::Loop { id, .. } => SnippetId::Loop(*id),
            Stmt::Call(c) => SnippetId::Call(c.id),
            _ => return None,
        };
        sensor_of[identified.position(id)?]
    };

    let mut out = program.clone();
    for f in &mut out.functions {
        rewrite_block(&mut f.body, &sensor);
    }

    Instrumented {
        program: out,
        sensors,
    }
}

fn rewrite_block(block: &mut Block, sensor: &impl Fn(&Stmt) -> Option<SensorId>) {
    // Recurse first so nested structures are rewritten (selection
    // guarantees no probe lands inside a selected snippet, but the rewrite
    // itself is general).
    for stmt in &mut block.stmts {
        match stmt {
            Stmt::Loop { body, .. } => rewrite_block(body, sensor),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                rewrite_block(then_blk, sensor);
                rewrite_block(else_blk, sensor);
            }
            _ => {}
        }
    }
    if block.stmts.iter().all(|s| sensor(s).is_none()) {
        return;
    }
    let mut new_stmts = Vec::with_capacity(block.stmts.len() + 2);
    for stmt in std::mem::take(&mut block.stmts) {
        match sensor(&stmt) {
            Some(sensor) => {
                new_stmts.push(Stmt::Tick(sensor));
                new_stmts.push(stmt);
                new_stmts.push(Stmt::Tock(sensor));
            }
            None => new_stmts.push(stmt),
        }
    }
    block.stmts = new_stmts;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use vsensor_lang::{compile, printer};

    fn instrument_src(src: &str) -> Instrumented {
        let p = compile(src).unwrap();
        analyze(&p, &AnalysisConfig::default()).instrumented
    }

    #[test]
    fn probes_wrap_selected_loop() {
        let inst = instrument_src(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) { compute(4); }
                }
            }
            "#,
        );
        assert_eq!(inst.sensors.len(), 1);
        let printed = printer::print_program(&inst.program);
        assert!(printed.contains("vs_tick(0);"), "{printed}");
        assert!(printed.contains("vs_tock(0);"));
        // Probe sits around the inner loop, inside the outer one.
        let tick_pos = printed.find("vs_tick").unwrap();
        let outer_pos = printed.find("for (n").unwrap();
        let inner_pos = printed.find("for (k").unwrap();
        assert!(outer_pos < tick_pos && tick_pos < inner_pos);
    }

    #[test]
    fn sensor_table_records_types() {
        let inst = instrument_src(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < 16; k = k + 1) { compute(8); }
                    mpi_alltoall(4096);
                    io_write(1024);
                }
            }
            "#,
        );
        let (comp, net, io) = inst.type_counts();
        assert_eq!((comp, net, io), (1, 1, 1));
    }

    #[test]
    fn tick_tock_balanced_in_ir() {
        let inst = instrument_src(
            r#"
            fn work() { for (j = 0; j < 4; j = j + 1) { compute(1); } }
            fn main() {
                for (n = 0; n < 10; n = n + 1) {
                    work();
                    for (k = 0; k < 4; k = k + 1) { compute(2); }
                    mpi_barrier();
                }
            }
            "#,
        );
        let text = vsensor_lang::printer::print_program(&inst.program);
        let ticks = text.matches("vs_tick(").count();
        let tocks = text.matches("vs_tock(").count();
        assert_eq!(ticks, tocks);
        assert_eq!(ticks, inst.sensors.len());
    }

    #[test]
    fn uninstrumented_program_unchanged() {
        let src = r#"
            fn main() {
                int x = 0;
                for (n = 0; n < 100; n = n + 1) { x = x + n; }
            }
        "#;
        // The loop body is a bare statement (not a candidate) and the loop
        // itself has no enclosing loop — nothing selected.
        let p = compile(src).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        assert!(a.instrumented.sensors.is_empty());
        assert_eq!(a.instrumented.program, p);
    }

    #[test]
    fn process_invariance_flag_propagates() {
        let inst = instrument_src(
            r#"
            fn main() {
                int r = mpi_comm_rank();
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) {
                        if (r % 2 == 1) { compute(64); }
                    }
                    for (j = 0; j < 10; j = j + 1) { compute(64); }
                }
            }
            "#,
        );
        assert_eq!(inst.sensors.len(), 2);
        let flags: Vec<bool> = inst.sensors.iter().map(|s| s.process_invariant).collect();
        assert_eq!(flags, vec![false, true]);
    }
}
