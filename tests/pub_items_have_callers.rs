//! Every public item of a product crate has a caller.
//!
//! A `pub` item that nothing outside its own file names is surface with
//! no user: it costs lines, docs and review and answers no one. This test
//! finds every `pub fn`, `struct`, `enum`, `const`, `trait`, `type` and
//! `static` (associated items included) that a product crate's `src`
//! defines outside `#[cfg(test)]`, and holds one rule: some other file
//! must name it, as a whole word, in code outside `#[cfg(test)]`.
//!
//! Code is what remains of a `.rs` file once comments, string and
//! character literals, `#[cfg(test)]` items and `use` declarations are
//! blanked, and the names an item definition introduces are not uses.
//! Callers may live in any `crates/*/src` (the `bench` harness and the
//! `oracle` the equivalence tests compare against included), in `src/`,
//! `examples/` or `perf/src/`. Tests are not callers: an item only they
//! reach is test surface in the product, and a test computes what it needs
//! from other public data.
//!
//! The scan is by name, so a name shared by two items can hide one of
//! them; it never flags an item that has a caller. [`EXEMPT`] lists the
//! items the rule holds wrongly, each with its reason. There are two kinds:
//! a type that a live `pub` signature names, and an item an integration
//! suite needs because no other public data can stand in for it (the
//! fault-plan builders the fault suites inject with, the death mask and
//! the statistic a golden fingerprint reads). An item only its own crate's
//! unit tests reach is never exempt.

mod common;

use common::{files_under, idents, repo_root, word_index, WordIndex};
use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose `src` is product code.
const PRODUCT_CRATES: &[&str] = &[
    "analysis",
    "apps",
    "baselines",
    "cluster",
    "core",
    "interp",
    "lang",
    "runtime",
    "simmpi",
    "viz",
];

/// Where callers are looked for.
const CALLER_DIRS: &[&str] = &["crates", "src", "examples", "perf/src"];

/// Item kinds the rule holds, as the keyword after `pub`.
const KINDS: &[&str] = &["fn", "struct", "enum", "const", "trait", "type", "static"];

/// Public items no other file names, each with the reason it stays public.
const EXEMPT: &[(&str, &str)] = &[
    ("ChangePoint", "the return type of `stats::detect_shift`"),
    (
        "CollectiveError",
        "the error type of `CollectiveSlot::register`",
    ),
    (
        "DeathCause",
        "the type of the pub field `DeathRecord::cause`",
    ),
    (
        "DegradationWindow",
        "the element type of `NetworkConfig::degradations`",
    ),
    (
        "ExternBehavior",
        "the type `ExternModels::register` takes and `get` returns",
    ),
    (
        "FwqSample",
        "the type `FwqProbe::sample` returns and `detect` takes",
    ),
    (
        "Histogram",
        "the return type of `MetricsRegistry::histogram`",
    ),
    (
        "IngestSession",
        "the return type of `AnalysisServer::session`",
    ),
    (
        "ProbeOutcome",
        "the return type of `SensorRuntime::tick` and `tock`",
    ),
    ("Reason", "the element type `analysis::explain` returns"),
    ("SensorMeta", "the element type of `Instrumented::sensors`"),
    (
        "ServiceError",
        "the error type of `AnalysisService::register` and its peers",
    ),
    ("ShardLoad", "the element type of `ServerLoad::shards`"),
    ("SnippetKind", "the type of the pub field `Snippet::kind`"),
    ("SnippetVerdict", "the type `Identified::verdict` returns"),
    ("Stage", "the type of the pub field `LangError::stage`"),
    (
        "dead_from",
        "`tests/fail_stop.rs` checks the dead node is masked; its empty cells cannot show it",
    ),
    (
        "pa",
        "`ValidationStats::pa` feeds the `event_equivalence` golden fingerprint",
    ),
    (
        "with_outage",
        "the only way to plan a server outage; the fault suites inject one",
    ),
    (
        "with_rank_death",
        "the only way to plan one rank's fail-stop; the fault suites inject one",
    ),
];

/// One `pub` item: its name and the file that defines it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Item {
    name: String,
    file: PathBuf,
}

/// Blank `out[from..to]` with spaces, keeping line breaks.
fn blank(out: &mut [u8], from: usize, to: usize) {
    let to = to.min(out.len());
    for c in &mut out[from..to] {
        if *c != b'\n' {
            *c = b' ';
        }
    }
}

/// Where `pat` next starts at or after `from` (the end of `b` if never).
fn find(b: &[u8], from: usize, pat: &[u8]) -> usize {
    b.get(from..)
        .and_then(|rest| rest.windows(pat.len()).position(|w| w == pat))
        .map_or(b.len(), |p| from + p)
}

/// The end of the comment or literal that starts at `b[i]`, if one does.
fn literal_end(b: &[u8], i: usize) -> Option<usize> {
    let rest = &b[i..];
    let after_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
    if rest.starts_with(b"//") {
        return Some(find(b, i, b"\n"));
    }
    if rest.starts_with(b"/*") {
        return Some(find(b, i + 2, b"*/") + 2);
    }
    let raw = usize::from(rest.starts_with(b"r")) + 2 * usize::from(rest.starts_with(b"br"));
    if raw > 0 && !after_ident {
        let hashes = b[i + raw..].iter().take_while(|&&c| c == b'#').count();
        if b.get(i + raw + hashes) == Some(&b'"') {
            let close = [&b"\""[..], &vec![b'#'; hashes]].concat();
            return Some(find(b, i + raw + hashes + 1, &close) + close.len());
        }
    }
    if rest.starts_with(b"\"") {
        let mut k = i + 1;
        while k < b.len() && b[k] != b'"' {
            k += if b[k] == b'\\' { 2 } else { 1 };
        }
        return Some(k + 1);
    }
    // A character literal; a lifetime or label is code.
    match rest {
        [b'\'', b'\\', ..] => Some(find(b, i + 2, b"'") + 1),
        [b'\'', _, b'\'', ..] => Some(i + 3),
        _ => None,
    }
}

/// The tokens of blanked source: identifiers and single punctuation
/// characters, each with its byte range.
fn tokens(text: &str) -> Vec<(usize, usize, &str)> {
    let mut out = Vec::new();
    let mut chars = text.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let mut end = i + c.len_utf8();
        if c.is_ascii_alphanumeric() || c == '_' {
            while let Some(&(j, d)) = chars.peek() {
                if !(d.is_ascii_alphanumeric() || d == '_') {
                    break;
                }
                end = j + 1;
                chars.next();
            }
        } else if c.is_whitespace() {
            continue;
        }
        out.push((i, end, &text[i..end]));
    }
    out
}

/// The index just past the item that starts at token `start`: its body's
/// closing brace, or its `;`.
fn item_end(toks: &[(usize, usize, &str)], start: usize) -> usize {
    let mut depth = 0usize;
    for (k, tok) in toks.iter().enumerate().skip(start) {
        match tok.2 {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "}" if depth <= 1 => return k + 1,
            "}" => depth -= 1,
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    toks.len()
}

/// Rust source as the rule reads it: comments, literals, `#[cfg(test)]`
/// items and `use` declarations blanked.
fn live_code(src: &str) -> String {
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    while i < out.len() {
        match literal_end(&out, i) {
            Some(end) => {
                blank(&mut out, i, end);
                i = end;
            }
            None => i += 1,
        }
    }
    let text = String::from_utf8_lossy(&out).into_owned();
    let toks = tokens(&text);
    let mut k = 0;
    while k < toks.len() {
        let cfg_test = toks[k..]
            .iter()
            .take(7)
            .map(|t| t.2)
            .eq(["#", "[", "cfg", "(", "test", ")", "]"]);
        let is_use = toks[k].2 == "use"
            && (k == 0 || matches!(toks[k - 1].2, ";" | "{" | "}" | "]" | "pub" | ")"));
        if cfg_test || is_use {
            let end = item_end(&toks, k + if cfg_test { 7 } else { 0 });
            blank(&mut out, toks[k].0, toks[end - 1].1);
            k = end;
        } else {
            k += 1;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The `pub` items live code defines, and the same code with each
/// definition's own name blanked (a definition is not a use).
fn pub_items(live: &str) -> (Vec<String>, String) {
    let toks = tokens(live);
    let mut items = Vec::new();
    let mut out = live.as_bytes().to_vec();
    for (k, tok) in toks.iter().enumerate() {
        if !KINDS.contains(&tok.2)
            || tok.2 == "const" && toks.get(k + 1).is_some_and(|t| t.2 == "fn")
        {
            continue;
        }
        let Some(name) = toks
            .get(k + 1)
            .filter(|t| idents(t.2).len() == 1 && t.2 != "_")
        else {
            continue;
        };
        if tok.2 == "const" && toks.get(k + 2).is_some_and(|t| t.2 != ":") {
            continue;
        }
        blank(&mut out, name.0, name.1);
        let public = toks[..k]
            .iter()
            .rev()
            .take_while(|t| matches!(t.2, "const" | "unsafe" | "async" | "extern" | "pub"))
            .any(|t| t.2 == "pub");
        if public {
            items.push(name.2.to_string());
        }
    }
    (items, String::from_utf8_lossy(&out).into_owned())
}

/// Every product `pub` item, and the caller index over all caller code.
fn scan(sources: &[(PathBuf, String)]) -> (Vec<Item>, WordIndex) {
    let mut items = Vec::new();
    let mut code = Vec::new();
    for (file, src) in sources {
        let (defined, uses) = pub_items(&live_code(src));
        let product = PRODUCT_CRATES
            .iter()
            .any(|c| file.starts_with(Path::new("crates").join(c).join("src")));
        if product {
            items.extend(defined.into_iter().map(|name| Item {
                name,
                file: file.clone(),
            }));
        }
        code.push((file.as_path(), uses));
    }
    let index = word_index(code.iter().map(|(file, text)| (*file, text.as_str())));
    items.sort();
    items.dedup();
    (items, index)
}

/// Whether a file other than the item's own names it.
fn has_caller(item: &Item, index: &WordIndex) -> bool {
    index
        .get(&item.name)
        .is_some_and(|files| files.iter().any(|f| *f != item.file))
}

fn tree_sources() -> Vec<(PathBuf, String)> {
    let root = repo_root();
    files_under(&root, CALLER_DIRS)
        .into_iter()
        .filter(|f| {
            f.extension().is_some_and(|e| e == "rs")
                && (!f.starts_with("crates")
                    || f.components()
                        .nth(2)
                        .is_some_and(|c| c.as_os_str() == "src"))
        })
        .map(|f| {
            let text = fs::read_to_string(root.join(&f))
                .unwrap_or_else(|e| panic!("{}: {e}", f.display()));
            (f, text)
        })
        .collect()
}

#[test]
fn every_product_pub_item_has_a_caller() {
    let (items, index) = scan(&tree_sources());
    assert!(
        items.iter().any(|i| i.name == "AnalysisServer") && items.len() > 100,
        "the product crates' sources were not read"
    );
    let uncalled: Vec<String> = items
        .iter()
        .filter(|item| !has_caller(item, &index) && !EXEMPT.iter().any(|(e, _)| *e == item.name))
        .map(|item| format!("{} ({})", item.name, item.file.display()))
        .collect();
    assert!(
        uncalled.is_empty(),
        "{} public items have no caller outside their own file; delete them or narrow them to \
         `pub(crate)`/private:\n  {}",
        uncalled.len(),
        uncalled.join("\n  ")
    );
}

#[test]
fn an_uncalled_item_is_caught() {
    let lib = r#"
        //! Docs name `doc_only_xyz` and [`doc_only_xyz`].
        pub fn called() {}
        pub fn no_caller_xyz() {}
        pub(crate) fn crate_only_xyz() {}
        pub struct Field { pub field_xyz: u8 }
        pub const fn const_fn_xyz() {}
        pub const LIMIT_XYZ: u8 = 1;
        pub fn doc_only_xyz() {}
        pub fn string_only_xyz() {}
        pub fn test_only_xyz() {}
        pub fn use_only_xyz() {}
        impl Field {
            pub fn method_xyz(&self) -> char { '{' }
        }
        fn private_xyz() { no_caller_xyz(); }
    "#;
    let user = r#"
        use crate::lib::{use_only_xyz, Field};
        fn main(f: Field) {
            called();
            let _ = f.method_xyz() + LIMIT_XYZ + const_fn_xyz();
            println!("string_only_xyz");
            crate_only_xyz();
        }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t() { test_only_xyz(); }
        }
    "#;
    let sources = [
        (PathBuf::from("crates/runtime/src/lib.rs"), lib.to_string()),
        (PathBuf::from("crates/bench/src/user.rs"), user.to_string()),
    ];
    let (items, index) = scan(&sources);
    let uncalled: Vec<&str> = items
        .iter()
        .filter(|item| !has_caller(item, &index))
        .map(|item| item.name.as_str())
        .collect();
    assert_eq!(
        uncalled,
        [
            "doc_only_xyz",
            "no_caller_xyz",
            "string_only_xyz",
            "test_only_xyz",
            "use_only_xyz"
        ]
    );
}

#[test]
fn every_exemption_is_still_needed() {
    let (items, index) = scan(&tree_sources());
    for (name, reason) in EXEMPT {
        let defined: Vec<&Item> = items.iter().filter(|i| i.name == *name).collect();
        assert!(
            !defined.is_empty(),
            "exemption `{name}` ({reason}) names no product `pub` item"
        );
        assert!(
            defined.iter().any(|i| !has_caller(i, &index)),
            "exemption `{name}` ({reason}) is not needed: it has a caller"
        );
    }
}
