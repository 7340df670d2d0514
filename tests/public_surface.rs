//! The public surface shows only what is used: every `pub fn` name in
//! `crates/*/src` must appear in some file other than its own, across the
//! crates' sources, tests and benches, the examples, the facade and its
//! tests, and the frozen benchmark's sources. A name nothing else mentions
//! is either dead or only its own module's, and should go or lose its
//! `pub`. Names ending `_reference` or `_naive` are exempt: they are the
//! reference twins the equivalence suites hold the fast paths to.
//!
//! The check is textual (whole identifiers, comments included), so it
//! counts names, not paths: two types' methods of one name pass together.
//! That is its blind spot. About two in five `pub fn`s share a name with
//! another (`len`, `new`, `is_empty`; `KernelCost::then` beside
//! `Option::then`), and a dead one hides behind a live namesake.
//!
//! The compiler resolves what this test cannot. On a scratch copy of the
//! repository, with stable Rust and no other tool:
//!
//! 1. Put `#[deprecated(note = "@<file>:<line>@")]` above every `pub fn`
//!    line in `crates/*/src`, one note per definition.
//! 2. Run `cargo check --workspace --all-targets --message-format=json`,
//!    then the same in `bench_e2e/` (about 6 s together).
//! 3. Each `deprecated` diagnostic is one call site; its note names the
//!    definition. Drop the sites inside `use` items (re-exports), then
//!    sort the rest by where they are: the definition's own file, its
//!    file's `#[cfg(test)]` module, another crate source, an integration
//!    test, a bench, an example, or `bench_e2e`.
//!
//! A definition with no site, or with sites only in its own unit tests,
//! should go; one with sites only in its own file should lose its `pub`.
//! An `is_empty` stays while its type keeps a public `len` (clippy's
//! `len_without_is_empty`). `cargo check` compiles no doc test, so grep
//! the doc examples for a name before deleting it.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively; nothing when it is absent.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The identifiers of `text`.
fn identifiers(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The names declared `pub fn` in `text`.
fn pub_fns(text: &str) -> Vec<&str> {
    text.match_indices("pub fn ")
        .filter(|&(at, _)| {
            at == 0 || !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
        })
        .filter_map(|(at, m)| {
            let rest = &text[at + m.len()..];
            let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
            (end > 0).then(|| &rest[..end])
        })
        .collect()
}

#[test]
fn every_pub_fn_in_the_crates_is_named_outside_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    let mut others = Vec::new();
    for krate in fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        rust_files(&krate.path().join("src"), &mut sources);
        for dir in ["tests", "benches"] {
            rust_files(&krate.path().join(dir), &mut others);
        }
    }
    for dir in ["examples", "src", "tests", "bench_e2e/src"] {
        rust_files(&root.join(dir), &mut others);
    }
    assert!(
        !sources.is_empty(),
        "no crate sources under {}",
        root.display()
    );

    let texts: Vec<(PathBuf, String)> = sources
        .iter()
        .chain(&others)
        .map(|p| (p.clone(), fs::read_to_string(p).expect("readable source")))
        .collect();
    let words: Vec<HashSet<&str>> = texts.iter().map(|(_, t)| identifiers(t)).collect();

    // Name -> the crate sources declaring it.
    let mut declared: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (i, (_, text)) in texts.iter().enumerate().take(sources.len()) {
        for name in pub_fns(text) {
            declared.entry(name).or_default().insert(i);
        }
    }
    let unused: Vec<String> = declared
        .iter()
        .filter(|(name, _)| !name.ends_with("_reference") && !name.ends_with("_naive"))
        .filter(|(name, owners)| {
            !words
                .iter()
                .enumerate()
                .any(|(i, w)| !owners.contains(&i) && w.contains(*name))
        })
        .map(|(name, owners)| {
            let files: Vec<String> = owners
                .iter()
                .map(|&i| {
                    texts[i]
                        .0
                        .strip_prefix(root)
                        .unwrap_or(&texts[i].0)
                        .display()
                        .to_string()
                })
                .collect();
            format!("{name} ({})", files.join(", "))
        })
        .collect();
    assert!(
        unused.is_empty(),
        "{} pub fn name(s) appear in no file but their own; delete them or \
         drop their `pub`:\n  {}",
        unused.len(),
        unused.join("\n  ")
    );
}
