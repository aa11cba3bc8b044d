//! The document, metric and trace-lane catalogues are kept honest
//! mechanically, the way `help_sync` keeps the CLI table honest.
//!
//! * Every `mcio.<name>.v<N>` schema named in non-test workspace source
//!   has a row in the "Documents" table of `docs/observability.md`, and
//!   every row names a schema the source still knows.
//! * Documents are written once: outside `crates/obs/src/doc.rs` no
//!   non-test source hand-writes a `"schema": "mcio.` member, calls the
//!   JSON escaper, or reads a JSON number on its own (the rest of
//!   `crates/obs` may: it holds the JSON parser, the metrics exporters
//!   and the Chrome-trace codec), and outside `crates/obs/src/trace.rs`
//!   none writes a Chrome trace event. The codec itself reads events
//!   off the tokenizer: it neither calls `json::parse` nor names
//!   `JsonValue`.
//! * Metrics are declared once: every name literal a recording method
//!   of `Registry` is called with in non-test source is a row of
//!   `mcio_obs::catalogue::METRICS` under that method's kind, every row
//!   is recorded somewhere, and the "Metric reference" tables of
//!   `docs/observability.md` list the same (name, kind, unit) rows.
//! * Trace lanes are declared once: the "Unified trace" table lists
//!   exactly `catalogue::LANES`, `PID_*` is defined in the catalogue
//!   only, and outside `crates/obs` nothing names a trace process by
//!   hand or calls a registry `describe`.
//! * Machines are built once: outside `crates/core/src/exec_sim.rs`
//!   (the executor) and `crates/core/src/tuner.rs` (the calibration
//!   probe) no non-test source constructs a `Simulation`, a `Fabric` or
//!   a `Pfs`, so every run inherits both engines, faults, traces and
//!   `analyze` from the one lowering.
//! * Direction is data: the only `match` arms on `Rw::Write` /
//!   `Rw::Read` are the four in `crates/pfs/src/client.rs` (`Rw::name`,
//!   `Rw::flow`, the OST bandwidth, the head and tail of a request);
//!   planner, executor and fault transforms order things with
//!   `Rw::flow` instead of forking on the direction.
//! * A plan's bytes travel in one place: within `crates/core/src`, the
//!   one `.send(` and the one `.recv(` are the rank-role walk's in
//!   `crates/core/src/exec_mpi.rs`, which both threaded executors and
//!   `mpiio::CollFile` call, and that file compares no direction either.
//!
//! "Non-test source" is what `scripts/code_lines.sh` counts: the part
//! of each `crates/*/src/**/*.rs` above its first `#[cfg(test)]`.

use mcio_obs::catalogue::{Kind, LANES, METRICS};
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

/// Two listings of the same things name the same things, or the
/// failure lists what each side has alone.
fn assert_in_sync(what: &str, listed: &BTreeSet<String>, source: &BTreeSet<String>) {
    let missing: Vec<_> = source.difference(listed).collect();
    let stale: Vec<_> = listed.difference(source).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "{what} is out of sync with the source: missing {missing:#?}, stale {stale:#?}"
    );
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
        table.len() >= 11,
        "the Documents table was found: {table:?}"
    );
    assert_in_sync("docs/observability.md \"Documents\" table", &table, &source);
}

#[test]
fn documents_are_written_and_read_in_one_place() {
    let mut offences = Vec::new();
    for (path, code) in sources() {
        let in_obs = path.starts_with("crates/obs/");
        let is_codec = path == "crates/obs/src/trace.rs";
        for (needle, allowed) in [
            ("\\\"schema\\\": \\\"mcio.", path == "crates/obs/src/doc.rs"),
            ("\"schema\": \"mcio.", path == "crates/obs/src/doc.rs"),
            ("escape_json_into(", in_obs),
            ("as_f64", in_obs),
            ("\\\"ph\\\":\\\"X\\\"", is_codec),
            ("json::parse(", !is_codec),
            ("JsonValue", !is_codec),
        ] {
            if !allowed && code.contains(needle) {
                offences.push(format!("{path}: `{needle}`"));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "documents go through mcio_obs::doc (Writer / Reader) and the Chrome trace through \
         mcio_obs::trace, which builds no JSON tree; found: {offences:#?}"
    );
}

fn observability_doc() -> String {
    std::fs::read_to_string(repo().join("docs/observability.md")).expect("doc exists")
}

/// The table cells of every `| a | b | ...` row between the heading
/// `from` and the next `## ` heading.
fn table_rows(doc: &str, from: &str) -> Vec<Vec<String>> {
    let section = &doc[doc.find(from).expect("section exists") + from.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| "))
        .map(|l| {
            l.split('|')
                .map(|cell| cell.trim().trim_matches('`').to_string())
                .collect()
        })
        .collect()
}

/// `(name, kind)` of every `.inc("name"`-style call: a recording method
/// of `Registry` applied to a string literal.
fn recorded_in(code: &str) -> Vec<(String, Kind)> {
    let mut found = Vec::new();
    for (method, kind) in [
        (".inc(", Kind::Counter),
        (".set_gauge(", Kind::Gauge),
        (".max_gauge(", Kind::Gauge),
        (".observe(", Kind::Histogram),
        (".merge_histogram(", Kind::Histogram),
    ] {
        for (at, _) in code.match_indices(method) {
            let Some(literal) = code[at + method.len()..].trim_start().strip_prefix('"') else {
                continue;
            };
            let name = &literal[..literal.find('"').expect("closed literal")];
            found.push((name.to_string(), kind));
        }
    }
    found
}

#[test]
fn recorded_metric_names_are_exactly_the_catalogue() {
    let mut recorded = BTreeSet::new();
    for (path, code) in sources() {
        if path.starts_with("crates/obs/") {
            continue;
        }
        for (name, kind) in recorded_in(&code) {
            recorded.insert(format!("{name} as {}", kind.label()));
        }
    }
    let catalogued: BTreeSet<String> = METRICS
        .iter()
        .map(|m| format!("{} as {}", m.name, m.kind.label()))
        .collect();
    assert_in_sync("mcio_obs::catalogue::METRICS", &catalogued, &recorded);
}

#[test]
fn metric_reference_lists_exactly_the_catalogue() {
    let row = |name: &str, kind: &str, unit: &str| format!("{name} | {kind} | {unit}");
    let documented: BTreeSet<String> = table_rows(&observability_doc(), "## Metric reference")
        .iter()
        .filter(|cells| cells[0].contains('.'))
        .map(|cells| row(&cells[0], &cells[1], &cells[2]))
        .collect();
    let catalogued: BTreeSet<String> = METRICS
        .iter()
        .map(|m| row(m.name, m.kind.label(), m.unit))
        .collect();
    assert_in_sync(
        "docs/observability.md \"Metric reference\" (name | kind | unit)",
        &documented,
        &catalogued,
    );
}

#[test]
fn unified_trace_section_lists_exactly_the_lanes() {
    let documented: Vec<(String, String)> = table_rows(&observability_doc(), "## Unified trace")
        .iter()
        .filter(|cells| cells[0].parse::<u64>().is_ok())
        .map(|cells| (cells[0].clone(), cells[1].clone()))
        .collect();
    let lanes: Vec<(String, String)> = LANES
        .iter()
        .map(|lane| (lane.pid.to_string(), lane.process.to_string()))
        .collect();
    assert_eq!(documented, lanes, "docs/observability.md \"Unified trace\"");
}

#[test]
fn metrics_and_lanes_are_declared_in_one_place() {
    let mut offences = Vec::new();
    for (path, code) in sources() {
        let in_obs = path.starts_with("crates/obs/");
        for (needle, allowed) in [
            ("processes.push(", in_obs),
            ("const PID_", path == "crates/obs/src/catalogue.rs"),
        ] {
            if !allowed && code.contains(needle) {
                offences.push(format!("{path}: `{needle}`"));
            }
        }
        // `Straggler::describe()` / `ReplanAction::describe()` take no
        // argument; the deleted registry method took three.
        if code.matches(".describe(").count() != code.matches(".describe()").count() {
            offences.push(format!("{path}: `.describe(` with arguments"));
        }
    }
    assert!(
        offences.is_empty(),
        "metric text and trace lanes come from mcio_obs::catalogue (record under the name, \
         `Trace::name_lane(PID_*)`), found: {offences:#?}"
    );
}

#[test]
fn machines_are_built_in_one_place() {
    let builders = ["crates/core/src/exec_sim.rs", "crates/core/src/tuner.rs"];
    let mut offences = Vec::new();
    for (path, code) in sources() {
        if builders.contains(&path.as_str()) {
            continue;
        }
        // Doc comments may show the constructors in an example.
        for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
            for needle in [
                "Simulation::new(",
                "Simulation::with_policy(",
                "Fabric::build(",
                "Pfs::build(",
            ] {
                if line.contains(needle) {
                    offences.push(format!("{path}: `{needle}`"));
                }
            }
        }
    }
    assert!(
        offences.is_empty(),
        "a plan runs through exec_sim::execute (simulate / simulate_observed / simulate_faulted / \
         run_multitenant), which builds the one Simulation, Fabric and Pfs; found: {offences:#?}"
    );
}

#[test]
fn direction_is_matched_in_one_place() {
    let allowed = vec![("crates/pfs/src/client.rs".to_string(), 8)];
    let mut found = Vec::new();
    for (path, code) in sources() {
        let code_lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
        let arms: usize = code_lines
            .map(|l| {
                ["Rw::Write =>", "Rw::Read =>", "Rw::Write if", "Rw::Read if"]
                    .iter()
                    .map(|arm| l.matches(arm).count())
                    .sum::<usize>()
            })
            .sum();
        if arms > 0 {
            found.push((path, arms));
        }
    }
    assert_eq!(
        found, allowed,
        "a read is a write walked backwards: order the pair with `Rw::flow` \
         (`Message::agg`, the phase order in `exec_sim::Lowering::lower_round`) instead of \
         matching on the direction"
    );
}

#[test]
fn plan_bytes_travel_in_one_place() {
    let walk = "crates/core/src/exec_mpi.rs";
    let mut found = Vec::new();
    for (path, code) in sources() {
        if !path.starts_with("crates/core/src/") {
            continue;
        }
        let code: Vec<&str> = code
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect();
        let count = |needle: &str| code.iter().map(|l| l.matches(needle).count()).sum();
        let (sends, recvs): (usize, usize) = (count(".send("), count(".recv("));
        if sends + recvs > 0 {
            found.push((path.clone(), sends, recvs));
        }
        if path == walk {
            assert_eq!(
                count("== Rw::") + count("!= Rw::"),
                0,
                "the walk orders its hops with `Rw::flow`, it does not compare directions"
            );
        }
    }
    assert_eq!(
        found,
        vec![(walk.to_string(), 1, 1)],
        "every rank role of a plan runs through `exec_mpi::walk`: a second send/recv loop is a \
         second copy of it"
    );
}
