//! The paper's claims, and this reproduction's ablation and scaling
//! claims, as assertions on the rows the exhibit binaries print
//! (`mcio_bench::exhibits` — never a binary, never `docs/results/`).
//!
//! Every assertion is a direction plus a band sized from the committed
//! `docs/results/*.txt`; the number a band was sized from is quoted
//! next to it. Figure 6 takes 2.1 s in a release build and 73 s in a
//! debug one, so its test runs in release only: the `exhibits` CI job
//! runs this file with `cargo test --release -p mcio-bench --test
//! paper_claims -- --include-ignored`. The 64/128-node scaling points
//! stay out of this file; the same job regenerates and diffs all of
//! `docs/results/`.

use mcio_bench::exhibits::{ablation, figure, remerging, scaling, Ablation, Figure, FIGURES};
use mcio_bench::improvement_pct;
use std::ops::Range;

const MIB: u64 = 1 << 20;

/// The figure's claim, writing then reading: memory-conscious beats
/// two-phase by more than `floor` percent at every buffer of the sweep,
/// its average gain lies in the direction's band, and the gap at the
/// smallest buffer is more than twice the gap at the largest. Returns
/// each direction's gains, smallest buffer first.
fn mc_wins_at_every_buffer(f: &Figure, floor: f64, averages: [Range<f64>; 2]) -> [Vec<f64>; 2] {
    let ([write, read], [write_band, read_band]) = (figure(f), averages);
    [(write, write_band), (read, read_band)].map(|((rw, tp, mc), band)| {
        let gains: Vec<f64> = tp
            .iter()
            .zip(&mc)
            .map(|(a, b)| improvement_pct(a.timing.bandwidth_mibs, b.timing.bandwidth_mibs))
            .collect();
        for (p, gain) in tp.iter().zip(&gains) {
            assert!(
                *gain > floor,
                "{} {}: {} B buffer: {gain:+.1}%",
                f.name,
                rw.name(),
                p.buffer
            );
        }
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        assert!(
            band.contains(&avg),
            "{} {} average {avg:+.1}%",
            f.name,
            rw.name()
        );
        assert!(
            gains[0] > 2.0 * gains[gains.len() - 1],
            "{} {}: the gap should widen as buffers shrink: {gains:?}",
            f.name,
            rw.name()
        );
        gains
    })
}

/// Figure 6, coll_perf on 120 processes (docs/results/fig6.txt: write
/// +72.7 % at 2 MiB → +16.2 % at 128 MiB, read +75.3 % → +29.7 %;
/// averages +48.1 % / +58.3 %). The gap peaks at 4 MiB, not at the
/// smallest buffer, in both directions.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "73 s in a debug build: run with --release -- --include-ignored"
)]
fn fig6_mc_beats_two_phase_at_every_buffer() {
    mc_wins_at_every_buffer(&FIGURES[0], 10.0, [30.0..70.0, 35.0..85.0]);
}

/// Figure 7: memory-conscious beats two-phase at every buffer of the
/// sweep, writing and reading, and the gap is widest where memory is
/// scarcest (docs/results/fig7.txt: write +204.2 % at 2 MiB → +27.1 %
/// at 128 MiB, read +205.1 % → +40.4 %; averages +85.6 % / +98.3 %).
#[test]
fn fig7_mc_beats_two_phase_at_every_buffer() {
    mc_wins_at_every_buffer(&FIGURES[1], 10.0, [50.0..130.0, 50.0..130.0]);
}

/// Figure 8, IOR on 1,080 processes: memory-conscious wins at every
/// buffer, and the gap shrinks at every step up the sweep
/// (docs/results/fig8.txt: write +88.3 % at 2 MiB → +2.9 % at 128 MiB,
/// read +92.1 % → +5.8 %; averages +33.1 % / +36.6 %).
#[test]
fn fig8_mc_beats_two_phase_at_every_buffer() {
    for gains in mc_wins_at_every_buffer(&FIGURES[2], 0.0, [20.0..50.0, 22.0..55.0]) {
        assert!(
            gains.windows(2).all(|w| w[0] > w[1]),
            "the gap should widen at every halving of the buffer: {gains:?}"
        );
    }
}

fn component<'a>(a: &'a Ablation, needle: &str) -> &'a mcio_bench::exhibits::Row {
    let row = a.components.iter().find(|r| r.label.contains(needle));
    row.unwrap_or_else(|| panic!("no `{needle}` row in {:?}", a.components))
}

/// The ablation at both buffers (docs/results/ablation.txt):
/// * the full design wins (+139.7 % at 4 MiB, +35.5 % at 32 MiB);
/// * a single aggregation group is *below the baseline* (−26.6 %,
///   −33.6 %) — group division is what the gain stands on;
/// * `N_ah ∈ {1, 2, 4}` is flat when OST-bound (2105 / 2076 / 2076 and
///   2256 / 2267 / 2267 MiB/s: within 1.4 %);
/// * blind placement keeps most of the gain (+117.7 % of +139.7 %):
///   memory awareness is the smaller share;
/// * the 12-seed σ mean rises from 0.20 to 0.50 (+122.7 → +157.6 % and
///   +31.3 → +38.0 %) while single seeds spread ±40 points.
#[test]
fn ablation_components_and_sigma_trend() {
    for (buf, full_band) in [(4 * MIB, 100.0..180.0), (32 * MIB, 20.0..50.0)] {
        let a = ablation(buf);
        let full = component(&a, "(full)");
        assert!(
            full_band.contains(&full.gain()),
            "{buf}: full {:+.1}%",
            full.gain()
        );

        let single = component(&a, "single group");
        assert!(
            (-50.0..-10.0).contains(&single.gain()),
            "{buf}: single group {:+.1}% should sit below the baseline",
            single.gain()
        );

        let blind = component(&a, "blind");
        assert!(
            blind.gain() > 0.75 * full.gain() && blind.mc <= full.mc,
            "{buf}: blind {:+.1}% vs full {:+.1}%",
            blind.gain(),
            full.gain()
        );

        let nah: Vec<f64> = a
            .components
            .iter()
            .filter(|r| r.label.contains("N_ah"))
            .map(|r| r.mc)
            .collect();
        assert_eq!(nah.len(), 3);
        let (lo, hi) = nah
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        assert!(hi / lo < 1.03, "{buf}: N_ah rows not flat: {nah:?}");

        let means: Vec<f64> = a.sigma.iter().map(|s| s.gain().0).collect();
        assert!(
            means[2] > means[0] + 3.0,
            "{buf}: σ means {means:?} should rise from 0.20 to 0.50"
        );
        if buf == 4 * MIB {
            let (_, min, max) = a.sigma[1].gain();
            assert!(
                max - min > 40.0,
                "per-seed spread {min:+.1}..{max:+.1} is the caveat"
            );
        }
    }
}

/// Remerging on the two-starved-nodes machine (ablation.txt: +348.8 %
/// with `Mem_min = buf/2`, +12.8 % with `Mem_min = 0`).
#[test]
fn remerging_is_worth_a_factor_when_nodes_starve() {
    let [with, without] = remerging();
    assert!(
        with.mc >= 3.0 * with.baseline,
        "with remerging: {:+.1}%",
        with.gain()
    );
    assert!(
        (0.0..=30.0).contains(&without.gain()),
        "without remerging: {:+.1}%",
        without.gain()
    );
}

/// The advantage grows with scale (scaling.txt: +271.4 % → +347.5 % →
/// +482.8 % over 8 → 16 → 32 nodes; +671.5 % and +1,363.6 % at 64 and
/// 128 stay in the `exhibits` CI job).
#[test]
fn scaling_gain_grows_with_node_count() {
    let gains: Vec<f64> = scaling(&[8, 16, 32])
        .iter()
        .map(|p| improvement_pct(p.tp.bandwidth_mibs, p.mc.bandwidth_mibs))
        .collect();
    assert!(gains[0] > 150.0, "{gains:?}");
    assert!(
        gains.windows(2).all(|w| w[1] > w[0] * 1.15),
        "not strictly increasing: {gains:?}"
    );
}
