//! The document catalogue is kept honest mechanically, the way
//! `help_sync` keeps the CLI table honest.
//!
//! * Every `mcio.<name>.v<N>` schema named in non-test workspace source
//!   has a row in the "Documents" table of `docs/observability.md`, and
//!   every row names a schema the source still knows.
//! * Documents are written once: outside `crates/obs/src/doc.rs` no
//!   non-test source hand-writes a `"schema": "mcio.` member, calls the
//!   JSON escaper, or reads a JSON number on its own. (Exempt, because
//!   they handle the Chrome trace-event format rather than a document:
//!   the rest of `crates/obs`, the DES engine's trace oracle, and
//!   `TraceModel::from_chrome_json`.)
//!
//! "Non-test source" is what `scripts/code_lines.sh` counts: the part
//! of each `crates/*/src/**/*.rs` above its first `#[cfg(test)]`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(path relative to the repo, non-test text)` of every source file.
fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = repo();
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        walk(
            &krate.expect("directory entry").path().join("src"),
            &mut files,
        );
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("source is UTF-8");
            let code = match text.find("#[cfg(test)]") {
                Some(at) => text[..at].to_string(),
                None => text,
            };
            let rel = path.strip_prefix(&root).expect("under the repo");
            (rel.to_str().expect("UTF-8 path").to_string(), code)
        })
        .collect()
}

/// Every `mcio.<name>.v<N>` in `text` (`<name>` is `[a-z_]+`).
fn schemas_in(text: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for (at, _) in text.match_indices("mcio.") {
        let rest = &text[at + 5..];
        let name = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c == '_'))
            .unwrap_or(rest.len());
        let Some(version) = rest[name..].strip_prefix(".v") else {
            continue;
        };
        let digits = version
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(version.len());
        if name > 0 && digits > 0 {
            found.insert(text[at..at + 5 + name + 2 + digits].to_string());
        }
    }
    found
}

#[test]
fn documents_table_lists_exactly_the_schemas_in_the_source() {
    let doc = std::fs::read_to_string(repo().join("docs/observability.md")).expect("doc exists");
    let table: BTreeSet<String> = doc
        .lines()
        .filter(|l| l.starts_with("| `mcio."))
        .flat_map(|l| schemas_in(l.split('|').nth(1).expect("first column")))
        .collect();
    let source: BTreeSet<String> = sources()
        .iter()
        .flat_map(|(_, code)| schemas_in(code))
        .collect();
    assert!(
        table.len() >= 12,
        "the Documents table was found: {table:?}"
    );
    let undocumented: Vec<_> = source.difference(&table).collect();
    let stale: Vec<_> = table.difference(&source).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/observability.md \"Documents\" table is out of sync with the source: \
         missing rows for {undocumented:?}, stale rows for {stale:?}"
    );
}

#[test]
fn documents_are_written_and_read_in_one_place() {
    let mut offences = Vec::new();
    for (path, code) in sources() {
        let chrome_trace = path.starts_with("crates/obs/")
            || path == "crates/des/src/engine.rs"
            || path == "crates/analyze/src/trace_model.rs";
        for (needle, allowed) in [
            ("\\\"schema\\\": \\\"mcio.", path == "crates/obs/src/doc.rs"),
            ("\"schema\": \"mcio.", path == "crates/obs/src/doc.rs"),
            ("escape_json(", chrome_trace),
            ("as_f64", chrome_trace),
        ] {
            if !allowed && code.contains(needle) {
                offences.push(format!("{path}: `{needle}`"));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "documents go through mcio_obs::doc (Writer / Reader), found: {offences:#?}"
    );
}
