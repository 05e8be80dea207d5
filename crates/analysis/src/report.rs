//! Compile-time analysis summary (the left half of Table 1).

use crate::identify::Identified;
use crate::instrument::Instrumented;
use std::fmt;
use vsensor_lang::Program;

/// Counts the paper reports per program in Table 1 (compile-time columns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Lines of (printed) source code.
    pub loc: usize,
    /// Candidate snippets (loops + calls).
    pub snippets: usize,
    /// Snippets identified as v-sensors (fixed w.r.t. at least their
    /// innermost enclosing loop).
    pub identified_vsensors: usize,
    /// Snippets fixed through the whole program (global v-sensors).
    pub global_vsensors: usize,
    /// Instrumented sensors: computation type.
    pub instrumented_comp: usize,
    /// Instrumented sensors: network type.
    pub instrumented_net: usize,
    /// Instrumented sensors: IO type.
    pub instrumented_io: usize,
}

impl AnalysisReport {
    /// Total instrumented sensors.
    pub fn instrumented_total(&self) -> usize {
        self.instrumented_comp + self.instrumented_net + self.instrumented_io
    }

    /// The "87Comp+5Net"-style cell of Table 1.
    pub fn instrumentation_cell(&self) -> String {
        let mut parts = Vec::new();
        if self.instrumented_comp > 0 {
            parts.push(format!("{}Comp", self.instrumented_comp));
        }
        if self.instrumented_net > 0 {
            parts.push(format!("{}Net", self.instrumented_net));
        }
        if self.instrumented_io > 0 {
            parts.push(format!("{}IO", self.instrumented_io));
        }
        if parts.is_empty() {
            "0".to_string()
        } else {
            parts.join("+")
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loc={} snippets={} v-sensors={} global={} instrumented={}",
            self.loc,
            self.snippets,
            self.identified_vsensors,
            self.global_vsensors,
            self.instrumentation_cell()
        )
    }
}

/// Build the report from the analysis results.
pub fn summarize(
    program: &Program,
    identified: &Identified,
    instrumented: &Instrumented,
) -> AnalysisReport {
    let mut loc = LineCounter::default();
    // Counting lines cannot fail.
    let _ = vsensor_lang::printer::write_program(program, &mut loc);
    let (comp, net, io) = instrumented.type_counts();
    AnalysisReport {
        loc: loc.lines + usize::from(loc.open),
        snippets: identified.verdicts.len(),
        identified_vsensors: identified
            .verdicts
            .iter()
            .filter(|v| v.is_vsensor())
            .count(),
        global_vsensors: identified
            .verdicts
            .iter()
            .filter(|v| v.globally_fixed && v.snippet.in_loop())
            .count(),
        instrumented_comp: comp,
        instrumented_net: net,
        instrumented_io: io,
    }
}

/// A `fmt::Write` sink that counts the non-blank lines written to it (a
/// final line without a newline included). Bytes suffice: ASCII
/// whitespace is the only whitespace the printer emits, and every line it
/// emits that is not blank has `;`, `{` or `}` on it.
#[derive(Default)]
struct LineCounter {
    lines: usize,
    /// The current line has a non-whitespace character.
    open: bool,
}

impl fmt::Write for LineCounter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            if b == b'\n' {
                self.lines += usize::from(self.open);
                self.open = false;
            } else if !b.is_ascii_whitespace() {
                self.open = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use vsensor_lang::compile;

    #[test]
    fn report_counts_are_consistent() {
        let p = compile(
            r#"
            fn main() {
                for (n = 0; n < 100; n = n + 1) {
                    for (k = 0; k < 10; k = k + 1) { compute(4); }
                    for (k2 = 0; k2 < n; k2 = k2 + 1) { compute(4); }
                    mpi_barrier();
                }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let r = &a.report;
        // Snippets: 3 loops + 3 calls (compute x2, barrier) = 6.
        assert_eq!(r.snippets, 6);
        assert!(r.identified_vsensors >= r.global_vsensors);
        assert!(r.global_vsensors >= r.instrumented_total());
        assert!(r.loc > 0);
        assert_eq!(r.instrumented_net, 1, "{r}");
        // The fixed k loop, plus the constant compute(4) call that
        // selection finds inside the varying k2 loop.
        assert_eq!(r.instrumented_comp, 2, "{r}");
    }

    #[test]
    fn loc_counts_the_printed_non_blank_lines() {
        let p = compile(
            "global int G = 1;\nfn f(int x) -> int { return x; }\nfn main() { if (G > 0) { f(2); } else { G = 0; } }",
        )
        .unwrap();
        let printed = vsensor_lang::printer::print_program(&p);
        let expected = printed.lines().filter(|l| !l.trim().is_empty()).count();
        assert_eq!(analyze(&p, &AnalysisConfig::default()).report.loc, expected);
        assert_eq!(expected, 11, "{printed}");
    }

    #[test]
    fn instrumentation_cell_format() {
        let r = AnalysisReport {
            loc: 10,
            snippets: 5,
            identified_vsensors: 3,
            global_vsensors: 3,
            instrumented_comp: 7,
            instrumented_net: 5,
            instrumented_io: 0,
        };
        assert_eq!(r.instrumentation_cell(), "7Comp+5Net");
        let none = AnalysisReport {
            instrumented_comp: 0,
            instrumented_net: 0,
            ..r
        };
        assert_eq!(none.instrumentation_cell(), "0");
    }
}
