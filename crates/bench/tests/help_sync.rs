//! The README's CLI table is the flag table's rendering, byte for
//! byte, and every command prints its own table under `--help` — so a
//! new flag or command fails here until the README knows about it.

use mcio_bench::cli::{self, Command, MCIO_CLI};

fn help_of(exe: &str, args: &[&str]) -> String {
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{exe} {args:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn readme_cli_table_is_the_flag_tables_rendering() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md is readable from crates/bench");
    let table = cli::readme_table(MCIO_CLI);
    assert!(
        readme.contains(&table),
        "README.md's CLI table is stale; replace it with this rendering:\n{table}"
    );
}

#[test]
fn every_command_prints_its_table_under_help() {
    let mcio_cli = env!("CARGO_BIN_EXE_mcio_cli");
    for c in MCIO_CLI {
        assert_eq!(help_of(mcio_cli, &[c.word(), "--help"]), c.help());
    }
    let top = help_of(mcio_cli, &["--help"]);
    for c in MCIO_CLI {
        let row = format!("  {:<12} {}\n", c.word(), c.summary);
        assert!(top.contains(&row), "{top}");
    }
    assert!(top.ends_with(&MCIO_CLI[0].help()), "bare flags are `run`");

    let suites: [(&str, Command); 5] = [
        (env!("CARGO_BIN_EXE_perf_suite"), cli::PERF_SUITE),
        (env!("CARGO_BIN_EXE_fault_suite"), cli::FAULT_SUITE),
        (
            env!("CARGO_BIN_EXE_contention_suite"),
            cli::CONTENTION_SUITE,
        ),
        (
            env!("CARGO_BIN_EXE_adaptation_suite"),
            cli::ADAPTATION_SUITE,
        ),
        (env!("CARGO_BIN_EXE_scheduler_suite"), cli::SCHEDULER_SUITE),
    ];
    for (exe, table) in suites {
        assert_eq!(help_of(exe, &["--help"]), table.help());
    }
}
