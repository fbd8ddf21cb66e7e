//! The unreached-`pub fn` census: every `pub fn` under `src/` or
//! `crates/*/src` must be named, as a whole word, by some other `.rs`
//! file under `src`, `crates`, `tests`, `examples` or `perfbench` (build
//! output under any `target` directory excluded). A public function that
//! nothing else names is unused surface: delete it, or make it private if
//! its own file calls it.
//!
//! A word is a maximal run of alphanumeric characters and `_`, so the
//! check reads names the way `\bname\b` does. It counts words, not
//! calls: a name that also appears elsewhere as a field or a local hides.
//! A re-export (`pub use …;`, `pub(crate) use …;`) names a function
//! without reading it, so those statements are stripped before counting.

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, skipping `target` directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The distinct words of `text`.
fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Whether a word starts at byte `at` of `text`.
fn starts_word(text: &str, at: usize) -> bool {
    text[..at]
        .chars()
        .next_back()
        .map_or(true, |c| !(c.is_alphanumeric() || c == '_'))
}

/// The names declared as `pub fn <name>` in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices("pub fn ") {
        let rest = &text[at + "pub fn ".len()..];
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if starts_word(text, at) && end > 0 {
            names.push(&rest[..end]);
        }
    }
    names
}

/// `text` without its `pub use …;` and `pub(crate) use …;` statements.
fn without_reexports(text: &str) -> String {
    let mut kept = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = ["pub use ", "pub(crate) use "]
        .iter()
        .filter_map(|pattern| {
            rest.match_indices(pattern)
                .map(|(at, _)| at)
                .find(|&at| starts_word(rest, at))
        })
        .min()
    {
        kept.push_str(&rest[..start]);
        let end = rest[start..]
            .find(';')
            .map_or(rest.len(), |end| start + end + 1);
        rest = &rest[end..];
    }
    kept.push_str(rest);
    kept
}

#[test]
fn every_pub_fn_is_named_by_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut readers = Vec::new();
    for dir in ["src", "crates", "tests", "examples", "perfbench"] {
        rust_files(&root.join(dir), &mut readers);
    }
    readers.sort();
    let texts: Vec<(PathBuf, String)> = readers
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("readable source");
            (path, without_reexports(&text))
        })
        .collect();
    // How many files name each word.
    let mut named_by: HashMap<&str, usize> = HashMap::new();
    for (_, text) in &texts {
        for word in words(text) {
            *named_by.entry(word).or_default() += 1;
        }
    }
    let is_source = |path: &Path| {
        let rel = path.strip_prefix(root).expect("under the root");
        let parts: Vec<_> = rel.components().map(|c| c.as_os_str()).collect();
        parts.first().is_some_and(|p| *p == "src")
            || (parts.len() > 2 && parts[0] == "crates" && parts[2] == "src")
    };
    let mut unreached = Vec::new();
    for (path, text) in texts.iter().filter(|(path, _)| is_source(path)) {
        for name in pub_fns(text) {
            // The declaring file names it once; any other file is a reader.
            if named_by[name] < 2 {
                let rel = path.strip_prefix(root).expect("under the root");
                unreached.push(format!("{}::{name}", rel.display()));
            }
        }
    }
    assert!(
        unreached.is_empty(),
        "{} pub fn that no other file names:\n{}",
        unreached.len(),
        unreached.join("\n")
    );
}

#[test]
fn the_census_reads_words_and_declarations() {
    assert_eq!(
        words("a.pub_fn(x1) + é_2"),
        BTreeSet::from(["a", "pub_fn", "x1", "é_2"])
    );
    assert_eq!(
        pub_fns("pub fn a() {}\npub(crate) fn b() {}\nrepub fn c() {}\n    pub fn d_1<T>()"),
        ["a", "d_1"]
    );
    // A re-export is not a reader; a call after it is.
    let text = "pub use m::{\n    a, b,\n};\npub(crate) use n::c;\nrepub use d;\nfn e() { b() }";
    assert_eq!(without_reexports(text), "\n\nrepub use d;\nfn e() { b() }");
    assert_eq!(
        words(&without_reexports(text)),
        BTreeSet::from(["b", "d", "e", "fn", "repub", "use"])
    );
}
