//! The file walk and word index shared by the tests that hold the tree to
//! itself: `docs_name_live_code.rs` (every name a document cites exists)
//! and `pub_items_have_callers.rs` (every public item has a caller).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dirs` (build output skipped), as paths relative to
/// `root`.
pub fn files_under(root: &Path, dirs: &[&str]) -> Vec<PathBuf> {
    fn walk(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(root.join(rel)) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let rel = rel.join(&name);
            let Ok(kind) = entry.file_type() else {
                continue;
            };
            if kind.is_dir() {
                if name != "target" {
                    walk(root, &rel, out);
                }
            } else {
                out.push(rel);
            }
        }
    }
    let mut out = Vec::new();
    for dir in dirs {
        walk(root, Path::new(dir), &mut out);
    }
    out.sort();
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The identifier tokens of `text`, each with its byte offset.
pub fn idents(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (start, is_ident_char(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                out.push((s, &text[s..i]));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, &text[s..]));
    }
    out
}

/// Each whole word of a corpus, with the files that hold it.
pub type WordIndex = BTreeMap<String, BTreeSet<PathBuf>>;

/// Index the words of `(file, text)` pairs.
pub fn word_index<'a>(texts: impl IntoIterator<Item = (&'a Path, &'a str)>) -> WordIndex {
    let mut index = WordIndex::new();
    for (file, text) in texts {
        for (_, word) in idents(text) {
            index
                .entry(word.to_string())
                .or_default()
                .insert(file.to_path_buf());
        }
    }
    index
}
