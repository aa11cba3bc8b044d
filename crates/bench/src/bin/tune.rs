//! §3's empirical parameter determination, run against the machine
//! model: the saturating per-aggregator message size `Msg_ind`, the
//! per-node aggregator count `N_ah`, and the group message size
//! `Msg_group` ("we empirically determined ... We leave the examination
//! of these optimal values to a future study").

use mcio_bench::format_bytes;
use mcio_core::Rw;

fn main() {
    for (machine, rw, t) in mcio_bench::exhibits::tune() {
        if rw == Rw::Write {
            println!("== machine: {machine} ==");
        }
        println!(
            "  {:>5}: Msg_ind = {:>8}, N_ah = {}, Msg_group = {:>8}",
            rw.name(),
            format_bytes(t.msg_ind),
            t.nah,
            format_bytes(t.msg_group),
        );
    }
}
