//! The paper's Table 1: "Potential exascale computer design and its
//! relationship to current HPC designs" (after Vetter et al.), as a data
//! model with the projection arithmetic the introduction builds on.

use std::fmt;

/// One column of Table 1: a full-system design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemDesign {
    /// Year of the design point.
    pub year: u32,
    /// System peak, flop/s.
    pub system_peak_flops: f64,
    /// Power, watts.
    pub power_watts: f64,
    /// System memory, bytes.
    pub system_memory_bytes: f64,
    /// Node performance, flop/s.
    pub node_performance_flops: f64,
    /// Node memory bandwidth, bytes/s.
    pub node_memory_bw: f64,
    /// Node concurrency (cores per node).
    pub node_concurrency: f64,
    /// Interconnect bandwidth, bytes/s.
    pub interconnect_bw: f64,
    /// System size, nodes.
    pub system_size_nodes: f64,
    /// Total concurrency (cores in the system).
    pub total_concurrency: f64,
    /// Storage capacity, bytes.
    pub storage_bytes: f64,
    /// I/O bandwidth, bytes/s.
    pub io_bw: f64,
}

impl SystemDesign {
    /// Table 1's 2010 column.
    pub fn year_2010() -> Self {
        SystemDesign {
            year: 2010,
            system_peak_flops: 2e15,
            power_watts: 6e6,
            system_memory_bytes: 0.3e15,
            node_performance_flops: 0.125e12,
            node_memory_bw: 25e9,
            node_concurrency: 12.0,
            interconnect_bw: 1.5e9,
            system_size_nodes: 20e3,
            total_concurrency: 225e3,
            storage_bytes: 15e15,
            io_bw: 0.2e12,
        }
    }

    /// Table 1's 2018 column (projected exascale design).
    pub fn year_2018() -> Self {
        SystemDesign {
            year: 2018,
            system_peak_flops: 1e18,
            power_watts: 20e6,
            system_memory_bytes: 10e15,
            node_performance_flops: 10e12,
            node_memory_bw: 400e9,
            node_concurrency: 1000.0,
            interconnect_bw: 50e9,
            system_size_nodes: 1e6,
            total_concurrency: 1e9,
            storage_bytes: 300e15,
            io_bw: 20e12,
        }
    }

    /// Memory per core, bytes.
    pub fn memory_per_core(&self) -> f64 {
        self.system_memory_bytes / self.total_concurrency
    }

    /// Off-chip memory bandwidth per core, bytes/s.
    pub fn memory_bw_per_core(&self) -> f64 {
        self.node_memory_bw / self.node_concurrency
    }
}

/// The pairwise comparison the paper prints: 2010 vs 2018 with the factor
/// change per row, plus the memory-per-core projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1 {
    /// The "current design" column.
    pub from: SystemDesign,
    /// The projected design column.
    pub to: SystemDesign,
}

impl Table1 {
    /// The table exactly as printed in the paper (2010 → 2018).
    pub fn paper() -> Self {
        Table1 {
            from: SystemDesign::year_2010(),
            to: SystemDesign::year_2018(),
        }
    }

    /// Factor change of system memory, `f_m`.
    pub fn memory_factor(&self) -> f64 {
        self.to.system_memory_bytes / self.from.system_memory_bytes
    }

    /// Factor change of system size (nodes), `f_s`.
    pub fn system_size_factor(&self) -> f64 {
        self.to.system_size_nodes / self.from.system_size_nodes
    }

    /// Factor change of node concurrency, `f_n`.
    pub fn node_concurrency_factor(&self) -> f64 {
        self.to.node_concurrency / self.from.node_concurrency
    }

    /// The paper's memory-per-core projection: `f_m / (f_s · f_n)`.
    ///
    /// For the printed table this is `33.3 / (50 · 83.3) ≈ 0.008`: memory
    /// per core *shrinks* by two orders of magnitude, into megabytes.
    pub fn memory_per_core_factor(&self) -> f64 {
        self.memory_factor() / (self.system_size_factor() * self.node_concurrency_factor())
    }

    /// Factor change of off-chip bandwidth per core (also shrinks).
    pub fn memory_bw_per_core_factor(&self) -> f64 {
        self.to.memory_bw_per_core() / self.from.memory_bw_per_core()
    }

    /// All rows of the printed table: (label, from-value, to-value,
    /// factor), using the same display units as the paper.
    pub fn rows(&self) -> Vec<(String, String, String, f64)> {
        fn row(
            label: &str,
            from: f64,
            to: f64,
            fmt_value: impl Fn(f64) -> String,
        ) -> (String, String, String, f64) {
            (label.to_string(), fmt_value(from), fmt_value(to), to / from)
        }
        let f = &self.from;
        let t = &self.to;
        vec![
            row(
                "System Peak",
                f.system_peak_flops,
                t.system_peak_flops,
                |v| {
                    if v >= 1e18 {
                        format!("{:.0} Ef/s", v / 1e18)
                    } else {
                        format!("{:.0} Pf/s", v / 1e15)
                    }
                },
            ),
            row("Power", f.power_watts, t.power_watts, |v| {
                format!("{:.0} MW", v / 1e6)
            }),
            row(
                "System Memory",
                f.system_memory_bytes,
                t.system_memory_bytes,
                |v| format!("{:.1} PB", v / 1e15),
            ),
            row(
                "Node Performance",
                f.node_performance_flops,
                t.node_performance_flops,
                |v| format!("{:.3} Tf/s", v / 1e12),
            ),
            row("Node Memory BW", f.node_memory_bw, t.node_memory_bw, |v| {
                format!("{:.0} GB/s", v / 1e9)
            }),
            row(
                "Node Concurrency",
                f.node_concurrency,
                t.node_concurrency,
                |v| format!("{v:.0} CPUs"),
            ),
            row(
                "Interconnect BW",
                f.interconnect_bw,
                t.interconnect_bw,
                |v| format!("{:.1} GB/s", v / 1e9),
            ),
            row(
                "System Size (nodes)",
                f.system_size_nodes,
                t.system_size_nodes,
                |v| {
                    if v >= 1e6 {
                        format!("{:.0} M nodes", v / 1e6)
                    } else {
                        format!("{:.0} K nodes", v / 1e3)
                    }
                },
            ),
            row(
                "Total Concurrency",
                f.total_concurrency,
                t.total_concurrency,
                |v| {
                    if v >= 1e9 {
                        format!("{:.0} B", v / 1e9)
                    } else {
                        format!("{:.0} K", v / 1e3)
                    }
                },
            ),
            row("Storage", f.storage_bytes, t.storage_bytes, |v| {
                format!("{:.0} PB", v / 1e15)
            }),
            row("I/O Bandwidth", f.io_bw, t.io_bw, |v| {
                format!("{:.1} TB/s", v / 1e12)
            }),
        ]
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<22} {:>14} {:>14} {:>14}",
            "", self.from.year, self.to.year, "Factor Change"
        )?;
        for (label, from, to, factor) in self.rows() {
            writeln!(f, "{label:<22} {from:>14} {to:>14} {factor:>14.0}")?;
        }
        writeln!(
            f,
            "{:<22} {:>14} {:>14} {:>14.4}",
            "Memory / core",
            format!("{:.2} GB", self.from.memory_per_core() / 1e9),
            format!("{:.1} MB", self.to.memory_per_core() / 1e6),
            self.memory_per_core_factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_match_paper() {
        let t = Table1::paper();
        // Paper's printed factor column (within rounding).
        assert!((t.memory_factor() - 33.3).abs() < 0.1);
        assert!((t.system_size_factor() - 50.0).abs() < 1e-9);
        assert!((t.node_concurrency_factor() - 83.3).abs() < 0.1);
    }

    #[test]
    fn memory_per_core_drops_to_megabytes() {
        let t = Table1::paper();
        // f_m / (f_s * f_n) ≈ 0.008: two orders of magnitude reduction.
        let factor = t.memory_per_core_factor();
        assert!(factor < 0.01, "factor = {factor}");
        assert!(factor > 0.005, "factor = {factor}");
        // 2018 memory per core is ~10 MB.
        let mpc = t.to.memory_per_core();
        assert!((mpc - 10e6).abs() < 1e6, "mpc = {mpc}");
        // 2010 memory per core was ~1.3 GB.
        assert!(t.from.memory_per_core() > 1e9);
    }

    #[test]
    fn per_core_bandwidth_shrinks() {
        let t = Table1::paper();
        assert!(t.memory_bw_per_core_factor() < 0.2);
        assert!(t.to.memory_bw_per_core() < t.from.memory_bw_per_core());
    }

    #[test]
    fn rows_cover_all_eleven_lines() {
        let t = Table1::paper();
        let rows = t.rows();
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].0, "System Peak");
        assert_eq!(rows[0].3, 500.0);
        assert_eq!(rows[10].0, "I/O Bandwidth");
    }

    #[test]
    fn display_renders() {
        let s = format!("{}", Table1::paper());
        assert!(s.contains("System Peak"));
        assert!(s.contains("Factor Change"));
        assert!(s.contains("Memory / core"));
    }
}
