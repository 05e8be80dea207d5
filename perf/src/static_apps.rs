//! `static-apps`: the static module and the front-end alone.
//!
//! The 8 Table-1 apps plus `btio` and the two interpreted-kernel variants
//! (11 programs) go through `lexer::lex → parser::parse → lower::lower →
//! analysis::analyze → printer::print_program → interp::bytecode::compile`.
//! One repetition is 300 passes (3,300 programs); nothing is simulated.

use crate::harness::{Ctx, Fingerprint, Outcome};
use crate::sampler;
use crate::spans::{self, Recorder, Request};
use std::hint::black_box;
use vsensor_analysis::{identify, instrument, report, select, AnalysisConfig};
use vsensor_apps::{all_apps, btio, cg, ft, Params};
use vsensor_interp::bytecode;
use vsensor_lang::{lexer, lower, parser, printer};

const PASSES: usize = 300;
const WARM_UP_PASSES: usize = 30;

/// Set-up: generate the 11 sources. The seed moves the iteration counts
/// written into them (never the programs' structure), so the text the
/// front-end sees differs per seed while every count stays comparable.
fn sources(seed: u64) -> Vec<String> {
    let p = Params::bench();
    let p = p.with_iters(p.iters + (seed % 16) as u32);
    let mut apps = all_apps(p);
    apps.push(btio::generate(p));
    apps.push(cg::generate_interpreted(p));
    apps.push(ft::generate_interpreted(p));
    apps.into_iter().map(|a| a.source).collect()
}

/// Exact counts of one pass over the sources, and what it printed.
#[derive(Default, PartialEq, Eq, Debug)]
struct PassOutput {
    tokens: usize,
    snippets: usize,
    sensors: usize,
    code_len: usize,
    printed: Vec<String>,
}

/// One pass, each stage a span when `rec` is given. The traced pass calls
/// the four public stages of `analyze` itself so each gets its own span;
/// the untraced one calls `analyze`, as `Pipeline` does.
fn pass(
    sources: &[String],
    config: &AnalysisConfig,
    rec: Option<(&Recorder, Request)>,
) -> PassOutput {
    let mut out = PassOutput::default();
    for source in sources {
        macro_rules! stage {
            ($name:literal, $call:expr) => {
                match rec {
                    Some((rec, request)) => rec.span($name, request, || $call),
                    None => $call,
                }
            };
        }
        let tokens = stage!("lang.lex", lexer::lex(source)).expect("generated source lexes");
        out.tokens += tokens.len();
        let unit = stage!("lang.parse", parser::parse(tokens, source)).expect("and parses");
        let program = stage!("lang.lower", lower::lower(&unit)).expect("and lowers");
        let (instrumented, summary) = match rec {
            None => {
                let analysis = vsensor_analysis::analyze(&program, config);
                (analysis.instrumented, analysis.report)
            }
            Some(_) => stage!("analysis.analyze", {
                let identified = stage!("analysis.identify", identify::identify(&program, config));
                let selected = stage!(
                    "analysis.select",
                    select::select(&program, &identified, &config.selection)
                );
                let instrumented = stage!(
                    "analysis.instrument",
                    instrument::instrument(&program, &identified, &selected)
                );
                let summary = report::summarize(&program, &identified, &instrumented);
                (instrumented, summary)
            }),
        };
        out.snippets += summary.snippets;
        out.sensors += summary.instrumented_total();
        let printed = stage!("lang.print", printer::print_program(&instrumented.program));
        let compiled = stage!("interp.compile", bytecode::compile(&instrumented.program));
        out.code_len += compiled.code_len();
        out.printed.push(printed);
    }
    black_box(out)
}

fn fingerprint(out: &PassOutput) -> u64 {
    let mut h = Fingerprint::default();
    h.add(&(out.tokens, out.snippets, out.sensors, out.code_len));
    h.add(&out.printed);
    h.finish()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = AnalysisConfig::default();
    let (sources, setup) = sampler::sample_setup(|| sources(ctx.seed));
    out.set_median("setup_s", &setup);

    // Untimed: what a pass prints must be a program again, and the staged
    // pass the traced run times must produce what `analyze` produces.
    let reference = pass(&sources, &config, None);
    for printed in &reference.printed {
        out.check(vsensor_lang::compile(printed).is_ok(), || {
            "a printed instrumented source does not recompile".into()
        });
    }
    let probe = Recorder::default();
    let staged = pass(&sources, &config, Some((&probe, Request::Repetition(0))));
    out.check(staged == reference, || {
        "the staged analysis differs from analysis::analyze".into()
    });

    for _ in 0..WARM_UP_PASSES {
        pass(&sources, &config, None);
    }
    let (budget, min_reps) = ctx.untraced_plan();
    let reps = sampler::repeat(budget, min_reps, |_| {
        sampler::timed(|| {
            let mut last = PassOutput::default();
            for _ in 0..PASSES {
                last = pass(&sources, &config, None);
            }
            fingerprint(&last)
        })
    });
    let walls: Vec<f64> = reps.iter().map(|(_, wall)| *wall).collect();
    out.set_median("wall_s", &walls);
    out.count((reps.len() * PASSES * sources.len()) as u64, 0, "programs");
    out.check(
        reps.iter().all(|(fp, _)| *fp == fingerprint(&reference)),
        || "repetitions are not bit-identical in counts and printed source".into(),
    );

    if ctx.traced {
        traced(ctx, &sources, &config, &reference, &mut out);
    }
    out
}

fn traced(
    ctx: &Ctx,
    sources: &[String],
    config: &AnalysisConfig,
    reference: &PassOutput,
    out: &mut Outcome,
) {
    let untraced_wall = out.get("wall_s");
    let rec = Recorder::default();
    let (budget, min_reps) = ctx.traced_plan();
    let mut last_spans = Vec::new();
    let reps = sampler::repeat(budget, min_reps, |i| {
        let request = Request::Repetition(i as u32);
        let ((), wall) = sampler::timed(|| {
            rec.span("harness.rep", request, || {
                for _ in 0..PASSES {
                    pass(sources, config, Some((&rec, request)));
                }
            })
        });
        last_spans = rec.drain();
        wall
    });
    out.set_median("traced_wall_s", &reps);
    let traced_wall = out.get("traced_wall_s");
    out.set(
        "trace_overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );

    // Mean self time per program of each stage, from the last repetition.
    let programs = (PASSES * sources.len()) as f64;
    let totals = spans::self_time_by_name(&last_spans, &spans::self_times(&last_spans));
    let total = |name: &str| spans::total_of(&totals, name);
    let inclusive = |name: &str| spans::inclusive_ns(&last_spans, name);
    for (metric, span) in [
        ("lang.lex_us", "lang.lex"),
        ("lang.parse_us", "lang.parse"),
        ("lang.lower_us", "lang.lower"),
        ("lang.print_us", "lang.print"),
        ("analysis.identify_us", "analysis.identify"),
        ("analysis.select_us", "analysis.select"),
        ("analysis.instrument_us", "analysis.instrument"),
        ("interp.compile_us", "interp.compile"),
    ] {
        out.set(metric, total(span) / programs / 1e3);
    }
    out.set(
        "analysis.analyze_us",
        inclusive("analysis.analyze") / programs / 1e3,
    );
    out.set("lang.tokens", reference.tokens as f64);
    out.set("analysis.snippets", reference.snippets as f64);
    out.set("analysis.sensors", reference.sensors as f64);
    out.set("interp.code_len", reference.code_len as f64);
    let rep_wall = inclusive("harness.rep");
    out.set("residual_pct", total("harness.rep") / rep_wall * 100.0);
    out.spans = last_spans;
}
