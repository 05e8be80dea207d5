//! End-to-end tests for `break` / `continue`.

use vsensor_lang::{compile, printer, Stmt};

#[test]
fn break_and_continue_parse_and_lower() {
    let p = compile(
        r#"
        fn main() {
            int hits = 0;
            for (i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 10) { break; }
                hits = hits + 1;
            }
        }
        "#,
    )
    .unwrap();
    let text = vsensor_lang::printer::print_program(&p);
    assert!(
        text.contains("break;") && text.contains("continue;"),
        "{text}"
    );
}

#[test]
fn break_continue_round_trip_through_printer() {
    let src = r#"
        fn main() {
            for (i = 0; i < 10; i = i + 1) {
                if (i == 5) { break; }
                if (i == 2) { continue; }
                compute(1);
            }
        }
    "#;
    let p1 = compile(src).unwrap();
    let printed = printer::print_program(&p1);
    assert!(printed.contains("break;"));
    assert!(printed.contains("continue;"));
    let p2 = compile(&printed).unwrap();
    assert_eq!(printed, printer::print_program(&p2));
}

#[test]
fn break_outside_loop_still_parses() {
    // Syntactically valid; the interpreter rejects it at run time.
    let p = compile("fn main() { break; }").unwrap();
    assert!(matches!(p.functions[0].body.stmts[0], Stmt::Break { .. }));
}
