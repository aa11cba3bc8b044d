//! Beyond the paper's evaluation: the scalability trend its conclusion
//! projects. The same IOR collective at growing scale, on the Table-1
//! 2018 exascale design where memory per core is ~10 MB — the
//! memory-conscious advantage should grow with scale (the paper only
//! shows two points, 120 and 1080).

use mcio_bench::exhibits::{scaling, SCALING_NODES};
use mcio_bench::improvement_pct;
use mcio_core::Strategy;

fn main() {
    println!("IOR interleaved on the exascale-2018 design, 8 MiB per process");
    println!("(per-core memory ~10 MB; nominal aggregation buffer 4 MiB)\n");
    println!(
        "{:>8} {:>8} {:>16} {:>20} {:>14}",
        "nodes", "ranks", "two-phase MiB/s", "mem-conscious MiB/s", "improvement"
    );
    let points = scaling(&SCALING_NODES);
    for p in &points {
        println!(
            "{:>8} {:>8} {:>16.1} {:>20.1} {:>13.1}%",
            p.nodes,
            p.ranks,
            p.tp.bandwidth_mibs,
            p.mc.bandwidth_mibs,
            improvement_pct(p.tp.bandwidth_mibs, p.mc.bandwidth_mibs),
        );
    }
    println!(
        "\n(phase attribution at the largest point; per-group chains run \
         concurrently,\n so attribution sums can exceed wall-clock elapsed)"
    );
    let largest = points.last().expect("the study has points");
    for (strategy, t) in Strategy::BOTH.into_iter().zip([&largest.tp, &largest.mc]) {
        println!(
            "{:>18}: elapsed {}, exchange {}, io {}",
            strategy.label(),
            t.elapsed,
            t.exchange_time,
            t.io_time,
        );
    }
}
