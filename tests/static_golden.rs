//! Golden fingerprints of the static module's output.
//!
//! Every verdict, the selection, the sensor table, the report, the printed
//! instrumented program and the `explain_all` text of a fixed corpus are
//! hashed into one constant per corpus group. Any change to what the
//! static module computes — as opposed to how it computes it — moves a
//! constant. The hash is FNV-1a over a canonical text rendering, so the
//! constants hold in debug and release builds alike.
//!
//! Corpus: the eleven programs of the `static-apps` benchmark workload at
//! `Params::test()` and `Params::bench()`, `examples/programs/*.mh`, and
//! 96 programs drawn from a fixed-seed generator with the grammar of
//! `tests/analysis_oracle.rs` plus productions for globals, `while` loops,
//! nested value calls, rank-addressed sends, a callee that writes a
//! global, and recursion. The generated
//! programs run under the default configuration and under one with the
//! communication-destination rule, each pinned by its own constant.

use std::fmt::Write as _;
use vsensor_repro::analysis::{explain, identify, instrument, report, select, AnalysisConfig};
use vsensor_repro::apps::{all_apps, btio, cg, ft, Params};
use vsensor_repro::lang::{compile, printer};

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Canonical rendering of everything the static module produces for one
/// program under one configuration.
fn render(src: &str, config: &AnalysisConfig) -> String {
    let program = compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let identified = identify(&program, config);
    let selection = select::select(&program, &identified, &config.selection);
    let instrumented = instrument(&program, &identified, &selection);
    let summary = report::summarize(&program, &identified, &instrumented);
    let analysis = vsensor_repro::analysis::analyze(&program, config);
    assert_eq!(analysis.report, summary, "analyze and its stages disagree");

    let mut out = String::new();
    for v in &identified.verdicts {
        let _ = writeln!(
            out,
            "{:?} {} {} {} {} {} {:?} {:?}",
            v.snippet.id,
            v.ty,
            v.scope_len,
            v.function_scope_fixed,
            v.globally_fixed,
            v.fixed_across_processes,
            v.deps.names,
            v.deps.symbols,
        );
    }
    let _ = writeln!(out, "chosen {:?}", selection.chosen);
    for s in &instrumented.sensors {
        let _ = writeln!(out, "{s:?}");
    }
    let _ = writeln!(out, "{summary:?}");
    out.push_str(&printer::print_program(&instrumented.program));
    out.push_str(&explain::explain_all(&program, &identified));
    out
}

fn fingerprint(sources: &[String], configs: &[AnalysisConfig]) -> u64 {
    let mut all = String::new();
    for src in sources {
        for config in configs {
            all.push_str(&render(src, config));
        }
    }
    fnv1a(all.as_bytes())
}

/// The eleven programs of the `static-apps` workload.
fn static_apps(p: Params) -> Vec<String> {
    let mut apps = all_apps(p);
    apps.push(btio::generate(p));
    apps.push(cg::generate_interpreted(p));
    apps.push(ft::generate_interpreted(p));
    apps.into_iter().map(|a| a.source).collect()
}

/// SplitMix64: a fixed, dependency-free stream for the generated corpus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn leaf(rng: &mut Rng) -> String {
    match rng.range(0, 6) {
        0 => format!("compute({});", rng.range(1, 2000)),
        1 => format!("mem_access({});", rng.range(1, 2000)),
        2 => "acc = acc + 1;".into(),
        3 => "acc = acc * 2 - 1;".into(),
        4 => format!("mpi_allreduce({});", rng.range(1, 64) * 8),
        _ => "mpi_barrier();".into(),
    }
}

/// One statement: the oracle's weights (leaf 4, fixed loop 2, the rest 1)
/// followed by the extra productions, each of weight 1.
fn stmt(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 {
        return leaf(rng);
    }
    let d = depth;
    match rng.range(0, 18) {
        0..=3 => leaf(rng),
        4 | 5 => {
            let n = rng.range(1, 6);
            let body = stmt(rng, d - 1);
            format!("for (v{d} = 0; v{d} < {n}; v{d} = v{d} + 1) {{ {body} }}")
        }
        6 => format!("if (acc % 3 == 0) {{ {} }}", stmt(rng, d - 1)),
        7 => format!("if (rank % 2 == 1) {{ compute({}); }}", rng.range(1, 1000)),
        8 => {
            let (cut, n) = (rng.range(1, 8), rng.range(1, 500));
            format!(
                "for (w{d} = 0; w{d} < 10; w{d} = w{d} + 1) {{ \
                 if (w{d} == {cut}) {{ break; }} compute({n}); }}"
            )
        }
        9 => format!("helper{}({});", rng.range(1, 3), rng.range(1, 100)),
        10 => format!("helper{}(acc % 7);", rng.range(1, 3)),
        11 => "G = G + 1;".into(),
        12 => format!("for (g{d} = 0; g{d} < G; g{d} = g{d} + 1) {{ compute(5); }}"),
        13 => format!(
            "while (acc < {}) {{ acc = acc + 1; {} }}",
            rng.range(1, 50),
            stmt(rng, d - 1)
        ),
        14 => format!(
            "acc = acc + helper3(helper3({})); mpi_send(rank % 4, helper3({}), 0);",
            rng.range(1, 9),
            rng.range(1, 9)
        ),
        15 => "bump();".into(),
        16 => "helper1(helper3(acc % 5));".into(),
        _ => format!("acc = acc + rec({});", rng.range(1, 5)),
    }
}

fn generated_program(rng: &mut Rng) -> String {
    let count = rng.range(1, 5);
    let stmts: Vec<String> = (0..count).map(|_| stmt(rng, 2)).collect();
    let iters = rng.range(2, 20);
    format!(
        r#"
        global int G = 3;
        fn helper1(int n) {{
            for (h = 0; h < n; h = h + 1) {{ compute(64); }}
        }}
        fn helper2(int n) {{
            compute(100);
            if (n > 50) {{ mem_access(200); }}
        }}
        fn helper3(int n) -> int {{ return n * 2; }}
        fn bump() {{ G = G + 1; }}
        fn rec(int n) -> int {{
            if (n < 1) {{ return 0; }}
            compute(n);
            return rec(n - 1);
        }}
        fn main() {{
            int rank = mpi_comm_rank();
            int acc = 0;
            for (it = 0; it < {iters}; it = it + 1) {{
                {}
            }}
        }}
        "#,
        stmts.join("\n                ")
    )
}

#[test]
fn static_apps_at_test_scale() {
    let sources = static_apps(Params::test());
    let got = fingerprint(&sources, &[AnalysisConfig::default()]);
    assert_eq!(
        got, 0xf597_d421_a13e_16b6,
        "static-apps @ Params::test(): {got:#018x}"
    );
}

#[test]
fn static_apps_at_bench_scale() {
    let sources = static_apps(Params::bench());
    let got = fingerprint(&sources, &[AnalysisConfig::default()]);
    assert_eq!(
        got, 0xbd82_778c_2f9e_b549,
        "static-apps @ Params::bench(): {got:#018x}"
    );
}

#[test]
fn example_programs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mh"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let sources: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    let got = fingerprint(&sources, &[AnalysisConfig::default()]);
    assert_eq!(got, 0xe638_084c_541c_0765, "examples/programs: {got:#018x}");
}

#[test]
fn generated_programs() {
    let mut rng = Rng(0x5eed_0f57_a71c);
    let sources: Vec<String> = (0..96).map(|_| generated_program(&mut rng)).collect();
    let got = fingerprint(&sources, &[AnalysisConfig::default()]);
    assert_eq!(got, 0x1a83_4b80_7718_d6c7, "generated corpus: {got:#018x}");
    let dest = AnalysisConfig {
        comm_dest_matters: true,
        ..AnalysisConfig::default()
    };
    let got = fingerprint(&sources, &[dest]);
    assert_eq!(
        got, 0x2121_0117_c7e1_118f,
        "generated corpus, comm_dest_matters: {got:#018x}"
    );
}
