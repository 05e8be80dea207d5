//! Every name the documentation cites is live code.
//!
//! README.md, DESIGN.md, EXPERIMENTS.md and the verify skill describe the
//! tree by name. A name that outlives its code makes a document describe
//! a design that is gone, so this test reads each inline code span of
//! those files (fenced blocks are skipped) and holds two rules:
//!
//! * a word that looks like a repo path — it ends in `.rs`, `.md`,
//!   `.toml`, `.json`, `.jsonl` or `.yml`, or starts with `crates/`,
//!   `tests/`, `src/`, `examples/`, `perf/` or `.github/` — must exist
//!   (`*` and `{a,b}` expand as in a shell; a bare file name may live in
//!   any directory; a `:line` suffix is ignored);
//! * every Rust name in a span — a segment of an `a::b` path, a name
//!   followed by `(`, a name with an `_`, or an UpperCamelCase name — must
//!   occur as a whole word in a `.rs`, `.toml` or `.yml` file under
//!   `crates`, `src`, `tests`, `examples`, `perf` or `.github`.
//!
//! [`EXEMPT`] lists the generated artifact names and foreign symbols the
//! documents may cite, each with its reason. `perf/README.md` is not read:
//! its text is refreshed together with the benchmark it describes.

mod common;

use common::{files_under, idents, repo_root, word_index, WordIndex};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose inline code spans must name live code.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Where live code is looked for.
const CODE_DIRS: &[&str] = &["crates", "src", "tests", "examples", "perf", ".github"];
const CODE_EXTENSIONS: &[&str] = &["rs", "toml", "yml"];

const PATH_PREFIXES: &[&str] = &[
    "crates/",
    "tests/",
    "src/",
    "examples/",
    "perf/",
    ".github/",
];
const PATH_SUFFIXES: &[&str] = &[".rs", ".md", ".toml", ".json", ".jsonl", ".yml"];

/// Names the documents may cite although no file of the tree holds them.
const EXEMPT: &[(&str, &str)] = &[
    (
        "BENCH_<suite>.json",
        "the pattern of the four committed gate baselines",
    ),
    (
        "trace.json",
        "written by `repro trace --out DIR`, not committed",
    ),
    (
        "out/trace.json",
        "written by `repro trace --out out/`, not committed",
    ),
    (
        "perf/target/release/perf",
        "the benchmark binary, a build output",
    ),
];

/// This file names exempt and deliberately missing names; it is not
/// evidence that they exist.
const SELF: &str = "tests/docs_name_live_code.rs";

/// Every whole word of the code corpus.
fn code_words(root: &Path, files: &[PathBuf]) -> WordIndex {
    let texts: Vec<(&Path, String)> = files
        .iter()
        .filter(|file| {
            file.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| CODE_EXTENSIONS.contains(&e))
                && file.as_path() != Path::new(SELF)
        })
        .map(|file| {
            let text = fs::read_to_string(root.join(file)).unwrap_or_default();
            (file.as_path(), text)
        })
        .collect();
    word_index(texts.iter().map(|(file, text)| (*file, text.as_str())))
}

/// The inline code spans of a Markdown text, outside fenced blocks, with
/// runs of whitespace (a span may wrap) collapsed to one space.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|span| !span.is_empty())
        .collect()
}

/// Expand one level of shell braces: `a/{b,c}.rs` → `a/b.rs`, `a/c.rs`.
fn expand_braces(pattern: &str) -> Vec<String> {
    match (pattern.find('{'), pattern.find('}')) {
        (Some(open), Some(close)) if open < close => pattern[open + 1..close]
            .split(',')
            .flat_map(|alt| {
                expand_braces(&format!(
                    "{}{alt}{}",
                    &pattern[..open],
                    &pattern[close + 1..]
                ))
            })
            .collect(),
        _ => vec![pattern.to_string()],
    }
}

/// Shell-style match of one path component; `*` matches any run.
fn component_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .any(|i| name.is_char_boundary(i) && component_matches(tail, &name[i..]))
        }
    }
}

/// Whether some path matching the glob `pattern` exists under `dir`.
fn glob_exists(dir: &Path, pattern: &str) -> bool {
    let (first, rest) = match pattern.split_once('/') {
        Some((first, rest)) => (first, Some(rest).filter(|r| !r.is_empty())),
        None => (pattern, None),
    };
    let next = |path: PathBuf| match rest {
        Some(rest) => glob_exists(&path, rest),
        None => path.exists(),
    };
    if !first.contains('*') {
        return next(dir.join(first));
    }
    fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|entry| {
            entry
                .file_name()
                .to_str()
                .is_some_and(|name| component_matches(first, name))
                && next(entry.path())
        })
    })
}

fn is_path(word: &str) -> bool {
    PATH_PREFIXES.iter().any(|p| word.starts_with(p))
        || PATH_SUFFIXES
            .iter()
            .any(|s| word.len() > s.len() && word.ends_with(s))
}

/// Whether a cited path exists: relative to the repo root, or — for a
/// bare file name — anywhere under the code directories.
fn path_exists(root: &Path, files: &[PathBuf], path: &str) -> bool {
    expand_braces(path).iter().all(|p| {
        glob_exists(root, p)
            || (!p.contains('/')
                && files.iter().any(|f| {
                    f.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| component_matches(p, n))
                }))
    })
}

/// Whether an identifier token is a Rust name the rules hold: part of an
/// `a::b` path, a call, a name with `_`, or UpperCamelCase.
fn is_rust_name(word: &str, next: Option<char>, in_path: bool) -> bool {
    if word.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let camel = word.starts_with(|c: char| c.is_ascii_uppercase())
        && word.chars().any(|c| c.is_ascii_lowercase());
    in_path || next == Some('(') || word.contains('_') || camel
}

/// Everything a document cites that the tree does not hold.
fn dead_names(doc: &str, root: &Path, files: &[PathBuf], words: &WordIndex) -> Vec<String> {
    let exempt = |name: &str| EXEMPT.iter().any(|(e, _)| *e == name);
    let mut dead = Vec::new();
    for span in code_spans(doc) {
        if exempt(&span) {
            continue;
        }
        for word in span.split(' ') {
            let trimmed = word.trim_matches(|c: char| "(),;'\"".contains(c));
            // `path.rs::item` cites a file and an item in it.
            let (path, names) = match trimmed.split_once("::") {
                Some((head, item)) if is_path(head) => (Some(head), item),
                _ if is_path(trimmed) => (Some(trimmed), ""),
                _ => (None, word),
            };
            if let Some(path) = path {
                let path = path.split(':').next().unwrap_or(path);
                if !exempt(path) && !path_exists(root, files, path) {
                    dead.push(format!("path `{path}` (in `{span}`)"));
                }
            }
            for (start, token) in idents(names) {
                let end = start + token.len();
                let in_path = names[end..].starts_with("::") || names[..start].ends_with("::");
                let next = names[end..].chars().next();
                if is_rust_name(token, next, in_path)
                    && !exempt(token)
                    && !words.contains_key(token)
                {
                    dead.push(format!("name `{token}` (in `{span}`)"));
                }
            }
        }
    }
    dead
}

#[test]
fn every_name_the_docs_cite_is_live_code() {
    let root = repo_root();
    let files = files_under(&root, CODE_DIRS);
    let words = code_words(&root, &files);
    assert!(
        words.contains_key("AnalysisServer") && words.contains_key("resume_vm"),
        "the code corpus under {CODE_DIRS:?} was not read"
    );
    let mut dead = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        dead.extend(
            dead_names(&text, &root, &files, &words)
                .into_iter()
                .map(|d| format!("{doc}: {d}")),
        );
    }
    assert!(
        dead.is_empty(),
        "documents cite code that does not exist:\n  {}",
        dead.join("\n  ")
    );
}

#[test]
fn a_dead_name_and_a_dead_path_are_caught() {
    let root = repo_root();
    let files = files_under(&root, CODE_DIRS);
    let words = code_words(&root, &files);
    let doc = "Live: `AnalysisServer::catch_up`, `crates/{interp,simmpi}/src/*.rs`, \
               `vm.rs`, `tests/vm_equivalence.rs::run_one`.\n\
               Dead: `no_such_fn_xyz()`, `crates/nowhere.rs`, `NoSuchType`.\n\
               ```\n`fenced_names_are_not_read`\n```\n";
    let dead = dead_names(doc, &root, &files, &words);
    assert_eq!(
        dead,
        [
            "name `no_such_fn_xyz` (in `no_such_fn_xyz()`)",
            "path `crates/nowhere.rs` (in `crates/nowhere.rs`)",
            "name `NoSuchType` (in `NoSuchType`)",
        ]
    );
}

#[test]
fn every_exemption_is_still_needed() {
    let root = repo_root();
    let files = files_under(&root, CODE_DIRS);
    let words = code_words(&root, &files);
    let cited: BTreeSet<String> = DOCS
        .iter()
        .flat_map(|doc| code_spans(&fs::read_to_string(root.join(doc)).unwrap_or_default()))
        .flat_map(|span| {
            let mut cited: Vec<String> = span.split(' ').map(str::to_string).collect();
            cited.extend(idents(&span).into_iter().map(|(_, w)| w.to_string()));
            cited.push(span);
            cited
        })
        .collect();
    for (name, reason) in EXEMPT {
        assert!(
            cited.contains(*name),
            "exemption `{name}` ({reason}) is cited by no document"
        );
        let missing = if is_path(name) {
            !path_exists(&root, &files, name)
        } else {
            idents(name) == [(0, *name)] && !words.contains_key(*name)
        };
        assert!(
            missing,
            "exemption `{name}` ({reason}) is not needed: the tree holds it, or the rules do not check it"
        );
    }
}
