//! What the gate suites (`fault_suite`, `contention_suite`,
//! `adaptation_suite`) share: the sweep → print-in-canonical-order →
//! fail-on-first-violation loop and the written-bytes oracle.

use crate::cli;
use mcio_core::{exec_fn, CollectivePlan};
use mcio_pfs::SparseFile;

/// A violated suite assertion: `{suite}: FAILED: {msg}` on stderr, exit 1.
pub fn fail(suite: &str, msg: &str) -> ! {
    cli::fail(suite, 1, &format!("FAILED: {msg}"))
}

/// What one cell hands the canonical-order loop: its status line, its
/// contract violations, and whatever the suite keeps of the run.
pub struct CellOutcome<T> {
    /// The cell's stdout line.
    pub line: String,
    /// Violated assertions; the first one fails the suite.
    pub errors: Vec<String>,
    /// The run, for the suite's document and cross-cell gates.
    pub run: T,
}

/// Fan `cells` across `jobs` worker threads, then — in cell order, no
/// matter which worker finished first — print each cell's line and
/// [`fail`] on its first violation. Stdout and the exit code are
/// therefore identical at any thread count.
pub fn run_cells<C: Sync, T: Send>(
    suite: &str,
    jobs: usize,
    cells: &[C],
    run: impl Fn(&C) -> CellOutcome<T> + Sync,
) -> Vec<T> {
    let keep = |outcome: CellOutcome<T>| {
        println!("{}", outcome.line);
        if let Some(e) = outcome.errors.first() {
            fail(suite, e);
        }
        outcome.run
    };
    let outcomes = mcio_sweep::sweep(jobs, cells, run);
    outcomes.into_iter().map(keep).collect()
}

/// The first `len` bytes of the file `plan` writes, through the
/// byte-correct reference executor.
pub fn written_bytes(plan: &CollectivePlan, len: u64) -> Result<Vec<u8>, String> {
    let mut file = SparseFile::new();
    exec_fn::execute_write(plan, &mut file)
        .map_err(|e| format!("executed plan does not deliver its bytes: {e}"))?;
    Ok(file.read_vec(0, len as usize))
}
