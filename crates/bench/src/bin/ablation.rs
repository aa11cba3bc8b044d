//! Ablation study: which of the memory-conscious design's components
//! (DESIGN.md §5) buys how much, on the Figure-7 IOR configuration —
//! the rows of [`mcio_bench::exhibits::ablation`] at 4 MiB and 32 MiB
//! and of [`mcio_bench::exhibits::remerging`].

use mcio_bench::exhibits::{ablation, remerging, SIGMA_SEEDS};
use mcio_bench::format_bytes;

fn main() {
    for buf in [4 << 20, 32 << 20] {
        let a = ablation(buf);
        println!(
            "\n== ablation at nominal buffer {} (two-phase baseline {:.0} MiB/s) ==",
            format_bytes(a.buffer),
            a.baseline
        );
        for r in &a.components {
            let (label, gain) = (&r.label, r.gain());
            println!("{label:<42} {:>8.1} MiB/s  ({gain:+.1}% vs baseline)", r.mc);
        }
        for r in &a.settings {
            let (label, gain) = (&r.label, r.gain());
            println!(
                "{label}: baseline {:>7.1}, MC {:>7.1} ({gain:+.1}%)",
                r.baseline, r.mc
            );
        }
        for s in &a.sigma {
            let (mean, min, max) = s.gain();
            println!(
                "  memory stddev {:.2}: mean of {SIGMA_SEEDS} seeds {mean:+.1}% \
                 (min {min:+.1}%, max {max:+.1}%)",
                s.stddev
            );
        }
    }

    println!("\n== remerging under starved nodes (2-node groups, 16 MiB nominal) ==");
    let rows = remerging();
    println!(
        "{:<35}{:>8.1} MiB/s",
        "two-phase baseline", rows[0].baseline
    );
    for r in &rows {
        let (label, gain) = (&r.label, r.gain());
        println!("{label:<35} {:>7.1} MiB/s  ({gain:+.1}%)", r.mc);
    }
}
