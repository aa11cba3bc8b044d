//! The `mcio.prof.v1` sidecar document.
//!
//! One JSON object with a `schema` stamp and two strictly separated
//! sections:
//!
//! * `deterministic` — engine counters only ([`DetCell`] per labelled
//!   simulation plus a folded `total`). Byte-identical across runs and
//!   across `--jobs` values; CI diffs this section between invocations.
//! * `host` — wall-clock phase table, events/sec, allocator stats,
//!   sweep-worker utilization. Varies run to run by construction and
//!   must never be byte-compared.
//!
//! The renderer emits both sections with stable key order so the
//! *deterministic* bytes — [`ProfReport::deterministic_json`] — are a
//! well-defined diffing target on their own.

use crate::alloc;
use crate::profiler::{PhaseRow, Prof};
use mcio_des::EngineProfile;
use mcio_obs::doc::{Reader, Writer};
use mcio_obs::json;

/// The schema stamp of the sidecar document.
pub const PROF_SCHEMA: &str = "mcio.prof.v1";

/// One deterministic cell: the engine profile of one labelled
/// simulation (a perf-suite cell, a sweep grid point, an observed run).
#[derive(Debug, Clone, PartialEq)]
pub struct DetCell {
    /// Cell label, e.g. `fig8/memory-conscious` or `run/two-phase`.
    pub label: String,
    /// The run's deterministic engine counters.
    pub engine: EngineProfile,
}

/// Utilization of one sweep worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRow {
    /// Worker index, `0..jobs`.
    pub worker: u64,
    /// Wall time the worker spent inside cells, nanoseconds.
    pub busy_ns: u64,
    /// Cells the worker completed.
    pub tasks: u64,
}

/// Allocator statistics for the host section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocReport {
    /// Whether the counting allocator was installed.
    pub enabled: bool,
    /// Total allocations.
    pub total_allocs: u64,
    /// Total bytes allocated (ignoring frees).
    pub total_bytes: u64,
    /// Peak live heap bytes — the RSS proxy.
    pub peak_bytes: u64,
}

/// The host (wall-clock) section: everything that may differ between
/// two runs of the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSection {
    /// Wall time from profiler start to report build, nanoseconds.
    pub wall_ns: u64,
    /// Engine events fired per wall-clock second spent in `des-run`
    /// scopes (0 when no DES time was recorded) — the throughput
    /// headline the fair-sharing rewrite is measured against.
    pub events_per_sec: f64,
    /// The aggregated phase table, sorted by path.
    pub phases: Vec<PhaseRow>,
    /// Allocator statistics (zeros unless `count-alloc` was on).
    pub alloc: AllocReport,
    /// Per-worker sweep utilization, when the producer ran a pool.
    pub workers: Vec<WorkerRow>,
}

/// The `mcio.prof.v1` document. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfReport {
    /// Deterministic engine-counter cells, in producer order.
    pub cells: Vec<DetCell>,
    /// The host section.
    pub host: HostSection,
}

impl ProfReport {
    /// Assemble the report from a profiler, the deterministic cells,
    /// and optional plan-cache / worker data. Reads the allocator
    /// counters and the profiler's phase table at this moment.
    pub fn build(prof: &Prof, cells: Vec<DetCell>, workers: Vec<WorkerRow>) -> Self {
        let phases = prof.phases();
        let total_fired: u64 = cells.iter().map(|c| c.engine.events_fired).sum();
        // Events/sec against wall time inside `des-run` scopes; cells
        // run concurrently, so sum of per-scope inclusive time is the
        // right denominator for per-core throughput.
        let des_ns: u64 = phases
            .iter()
            .filter(|r| r.path.rsplit('/').next() == Some("des-run"))
            .map(|r| r.inclusive_ns)
            .sum();
        let a = alloc::stats();
        ProfReport {
            cells,
            host: HostSection {
                wall_ns: prof.wall_ns(),
                events_per_sec: events_per_sec(total_fired, des_ns),
                phases,
                alloc: AllocReport {
                    enabled: a.enabled,
                    total_allocs: a.total_allocs,
                    total_bytes: a.total_bytes,
                    peak_bytes: a.peak_bytes,
                },
                workers,
            },
        }
    }

    /// The fold of every cell's engine profile (see
    /// [`EngineProfile::merge`]).
    pub fn total(&self) -> EngineProfile {
        let mut total = EngineProfile::default();
        for c in &self.cells {
            total.merge(&c.engine);
        }
        total
    }

    /// The members of the `deterministic` section: one row per cell and
    /// the folded total.
    fn write_deterministic(&self, w: &mut Writer) {
        w.rows("cells", &self.cells, |r, c| {
            r.text("label", &c.label);
            write_engine(r, &c.engine);
        });
        w.inline("total", |t| write_engine(t, &self.total()));
    }

    /// Render the `deterministic` section alone, canonical bytes — the
    /// diffing target for CI and the determinism tests. No trailing
    /// newline: `mcio_cli prof --det` prints it as one line-terminated
    /// value.
    pub fn deterministic_json(&self) -> String {
        let mut w = Writer::document();
        self.write_deterministic(&mut w);
        let mut out = w.finish();
        out.pop();
        out
    }

    /// Render the full document.
    pub fn render(&self) -> String {
        let host = &self.host;
        let mut w = Writer::flush_left();
        w.schema(PROF_SCHEMA);
        w.block("deterministic", |w| self.write_deterministic(w));
        w.block("host", |w| {
            w.uint("wall_ns", host.wall_ns);
            w.float("events_per_sec", host.events_per_sec, 3);
            w.rows("phases", &host.phases, |r, p| {
                r.text("path", &p.path);
                r.uint("count", p.count);
                r.uint("inclusive_ns", p.inclusive_ns);
                r.uint("exclusive_ns", p.exclusive_ns);
                r.uint("alloc_bytes", p.alloc_bytes);
                r.uint("allocs", p.allocs);
            });
            w.inline("alloc", |a| {
                a.flag("enabled", host.alloc.enabled);
                a.uint("total_allocs", host.alloc.total_allocs);
                a.uint("total_bytes", host.alloc.total_bytes);
                a.uint("peak_bytes", host.alloc.peak_bytes);
            });
            if !host.workers.is_empty() {
                w.rows("workers", &host.workers, |r, x| {
                    r.uint("worker", x.worker);
                    r.uint("busy_ns", x.busy_ns);
                    r.uint("tasks", x.tasks);
                });
            }
        });
        w.finish()
    }

    /// Parse a rendered document back. Errors are one-line reasons.
    pub fn from_json(text: &str) -> Result<ProfReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let doc = Reader::new(&doc, "profile");
        doc.schema(&[PROF_SCHEMA])?;
        let cells = doc.child("deterministic")?.rows("cells", |c| {
            Ok(DetCell {
                label: c.text("label")?.to_string(),
                engine: read_engine(c)?,
            })
        })?;
        let host = doc.child("host")?;
        let phases = host.rows("phases", |p| {
            Ok(PhaseRow {
                path: p.text("path")?.to_string(),
                count: p.uint("count")?,
                inclusive_ns: p.uint("inclusive_ns")?,
                exclusive_ns: p.uint("exclusive_ns")?,
                alloc_bytes: p.uint("alloc_bytes")?,
                allocs: p.uint("allocs")?,
            })
        })?;
        let alloc = host.child("alloc")?;
        // Absent when the producer ran no worker pool.
        let workers = host.opt("workers", |host, key| {
            host.rows(key, |w| {
                Ok(WorkerRow {
                    worker: w.uint("worker")?,
                    busy_ns: w.uint("busy_ns")?,
                    tasks: w.uint("tasks")?,
                })
            })
        })?;
        Ok(ProfReport {
            cells,
            host: HostSection {
                wall_ns: host.uint("wall_ns")?,
                events_per_sec: host.float("events_per_sec")?,
                phases,
                alloc: AllocReport {
                    enabled: alloc.flag("enabled")?,
                    total_allocs: alloc.uint("total_allocs")?,
                    total_bytes: alloc.uint("total_bytes")?,
                    peak_bytes: alloc.uint("peak_bytes")?,
                },
                workers: workers.unwrap_or_default(),
            },
        })
    }

    /// Human-readable rendering: the deterministic totals, the top-`n`
    /// phases by exclusive wall time, and the host headlines.
    pub fn render_pretty(&self, top: usize) -> String {
        let mut out = String::new();
        let t = self.total();
        out.push_str(&format!(
            "deterministic: {} cell(s), {} events fired / {} scheduled / {} cancelled\n\
             engine: heap high-water {}, ready high-water {}, {} activities, {} resources\n",
            self.cells.len(),
            t.events_fired,
            t.events_scheduled,
            t.events_cancelled,
            t.heap_high_water,
            t.ready_high_water,
            t.activities,
            t.resources,
        ));
        if !t.class_max_queue.is_empty() {
            let classes: Vec<String> = t
                .class_max_queue
                .iter()
                .map(|(c, d)| format!("{c} {d}"))
                .collect();
            out.push_str(&format!("class max queue: {}\n", classes.join(", ")));
        }
        out.push_str(&format!(
            "host: wall {:.3} ms, {:.0} events/sec{}\n",
            self.host.wall_ns as f64 / 1e6,
            self.host.events_per_sec,
            if self.host.alloc.enabled {
                format!(
                    ", peak heap {:.1} MiB ({} allocs)",
                    self.host.alloc.peak_bytes as f64 / (1024.0 * 1024.0),
                    self.host.alloc.total_allocs,
                )
            } else {
                String::new()
            },
        ));
        if !self.host.workers.is_empty() {
            let busy: u64 = self.host.workers.iter().map(|w| w.busy_ns).sum();
            out.push_str(&format!(
                "workers: {} threads, {:.3} ms busy total\n",
                self.host.workers.len(),
                busy as f64 / 1e6,
            ));
        }
        let mut rows: Vec<&PhaseRow> = self.host.phases.iter().collect();
        rows.sort_by(|a, b| {
            b.exclusive_ns
                .cmp(&a.exclusive_ns)
                .then(a.path.cmp(&b.path))
        });
        rows.truncate(top);
        if !rows.is_empty() {
            out.push_str(&format!(
                "\n{:<32} {:>6} {:>14} {:>14}\n",
                "phase (top by exclusive)", "count", "exclusive ms", "inclusive ms"
            ));
            for r in rows {
                out.push_str(&format!(
                    "{:<32} {:>6} {:>14.3} {:>14.3}\n",
                    r.path,
                    r.count,
                    r.exclusive_ns as f64 / 1e6,
                    r.inclusive_ns as f64 / 1e6,
                ));
            }
        }
        out
    }
}

/// Events per wall-clock second; 0 when no wall time was recorded.
pub fn events_per_sec(events: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        events as f64 / (wall_ns as f64 / 1e9)
    }
}

/// The members of one engine profile, into the object `w` is in.
fn write_engine(w: &mut Writer, e: &EngineProfile) {
    w.uint("events_scheduled", e.events_scheduled);
    w.uint("events_fired", e.events_fired);
    w.uint("events_cancelled", e.events_cancelled);
    w.uint("heap_high_water", e.heap_high_water);
    w.uint("ready_high_water", e.ready_high_water);
    w.uint("activities", e.activities);
    w.uint("resources", e.resources);
    w.inline("class_max_queue", |q| {
        for (class, depth) in &e.class_max_queue {
            q.uint(class, *depth);
        }
    });
}

fn read_engine(r: Reader<'_>) -> Result<EngineProfile, String> {
    let queue = r.child("class_max_queue")?;
    Ok(EngineProfile {
        events_scheduled: r.uint("events_scheduled")?,
        events_fired: r.uint("events_fired")?,
        events_cancelled: r.uint("events_cancelled")?,
        heap_high_water: r.uint("heap_high_water")?,
        ready_high_water: r.uint("ready_high_water")?,
        activities: r.uint("activities")?,
        resources: r.uint("resources")?,
        class_max_queue: queue
            .keys()
            .map(|class| Ok((class.to_string(), queue.uint(class)?)))
            .collect::<Result<_, String>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfReport {
        let prof = Prof::enabled();
        {
            let _p = prof.scope("plan");
            let _d = prof.scope("des-run");
        }
        let cells = vec![
            DetCell {
                label: "fig6/two-phase".into(),
                engine: EngineProfile {
                    events_scheduled: 100,
                    events_fired: 100,
                    events_cancelled: 0,
                    heap_high_water: 12,
                    ready_high_water: 7,
                    activities: 40,
                    resources: 9,
                    class_max_queue: vec![("membus".into(), 3), ("ost".into(), 17)],
                },
            },
            DetCell {
                label: "fig6/memory-conscious".into(),
                engine: EngineProfile {
                    events_scheduled: 90,
                    events_fired: 90,
                    events_cancelled: 0,
                    heap_high_water: 30,
                    ready_high_water: 2,
                    activities: 41,
                    resources: 9,
                    class_max_queue: vec![("membus".into(), 5)],
                },
            },
        ];
        ProfReport::build(
            &prof,
            cells,
            vec![WorkerRow {
                worker: 0,
                busy_ns: 999,
                tasks: 2,
            }],
        )
    }

    #[test]
    fn total_folds_cells() {
        let r = sample();
        let t = r.total();
        assert_eq!(t.events_fired, 190);
        assert_eq!(t.heap_high_water, 30, "high waters take the max");
        assert_eq!(t.activities, 81);
        assert_eq!(
            t.class_max_queue,
            vec![("membus".to_string(), 5), ("ost".to_string(), 17)]
        );
    }

    #[test]
    fn round_trips_through_json() {
        let mut r = sample();
        r.cells[0].label.push_str("\twith\ncontrols");
        let text = r.render();
        let back = ProfReport::from_json(&text).expect("parses");
        assert_eq!(back.cells, r.cells);
        assert_eq!(back.host.phases, r.host.phases);
        assert_eq!(back.host.workers, r.host.workers);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    /// The host section is wall-clock, so no run can be a golden; a
    /// literal report pins the whole document's bytes instead —
    /// top-level keys in column 0, the optional `workers` key present,
    /// then absent.
    #[test]
    fn literal_report_renders_fixed_bytes() {
        let mut r = ProfReport {
            cells: vec![DetCell {
                label: "a\"b".into(),
                engine: EngineProfile {
                    events_scheduled: 5,
                    events_fired: 4,
                    events_cancelled: 1,
                    heap_high_water: 3,
                    ready_high_water: 2,
                    activities: 6,
                    resources: 7,
                    class_max_queue: vec![("membus".into(), 1), ("ost".into(), 2)],
                },
            }],
            host: HostSection {
                wall_ns: 1000,
                events_per_sec: 1234.5,
                phases: vec![PhaseRow {
                    path: "plan/des-run".into(),
                    count: 2,
                    inclusive_ns: 30,
                    exclusive_ns: 20,
                    alloc_bytes: 64,
                    allocs: 3,
                }],
                alloc: AllocReport {
                    enabled: true,
                    total_allocs: 9,
                    total_bytes: 512,
                    peak_bytes: 256,
                },
                workers: vec![WorkerRow {
                    worker: 0,
                    busy_ns: 999,
                    tasks: 2,
                }],
            },
        };
        let engine = "\"events_scheduled\": 5, \"events_fired\": 4, \"events_cancelled\": 1, \
                      \"heap_high_water\": 3, \"ready_high_water\": 2, \"activities\": 6, \
                      \"resources\": 7, \"class_max_queue\": {\"membus\": 1, \"ost\": 2}";
        let det = format!(
            "{{\n  \"cells\": [\n    {{\"label\": \"a\\\"b\", {engine}}}\n  ],\n  \
             \"total\": {{{engine}}}\n}}"
        );
        assert_eq!(r.deterministic_json(), det);
        assert_eq!(
            r.render(),
            format!(
                "{{\n\"schema\": \"mcio.prof.v1\",\n\"deterministic\": {det},\n\"host\": {{\n  \
                 \"wall_ns\": 1000,\n  \"events_per_sec\": 1234.500,\n  \"phases\": [\n    \
                 {{\"path\": \"plan/des-run\", \"count\": 2, \"inclusive_ns\": 30, \
                 \"exclusive_ns\": 20, \"alloc_bytes\": 64, \"allocs\": 3}}\n  ],\n  \
                 \"alloc\": {{\"enabled\": true, \"total_allocs\": 9, \"total_bytes\": 512, \
                 \"peak_bytes\": 256}},\n  \"workers\": [\n    \
                 {{\"worker\": 0, \"busy_ns\": 999, \"tasks\": 2}}\n  ]\n}}\n}}\n"
            )
        );
        r.cells.clear();
        r.host.phases.clear();
        r.host.workers.clear();
        assert_eq!(
            r.render(),
            "{\n\"schema\": \"mcio.prof.v1\",\n\"deterministic\": {\n  \"cells\": [\n  ],\n  \
             \"total\": {\"events_scheduled\": 0, \"events_fired\": 0, \"events_cancelled\": 0, \
             \"heap_high_water\": 0, \"ready_high_water\": 0, \"activities\": 0, \
             \"resources\": 0, \"class_max_queue\": {}}\n},\n\"host\": {\n  \
             \"wall_ns\": 1000,\n  \"events_per_sec\": 1234.500,\n  \"phases\": [\n  ],\n  \
             \"alloc\": {\"enabled\": true, \"total_allocs\": 9, \"total_bytes\": 512, \
             \"peak_bytes\": 256}\n}\n}\n"
        );
    }

    #[test]
    fn deterministic_json_ignores_host_data() {
        let a = sample();
        let mut b = sample();
        b.host.wall_ns = 1;
        b.host.events_per_sec = 0.0;
        b.host.phases.clear();
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn integer_fields_must_be_integers() {
        let text = sample().render();
        for bad in ["-5", "1.5", "1e300"] {
            for (key, value) in [("events_fired", "100"), ("busy_ns", "999")] {
                let from = format!("\"{key}\": {value}");
                assert!(text.contains(&from), "{text}");
                let broken = text.replacen(&from, &format!("\"{key}\": {bad}"), 1);
                let err = ProfReport::from_json(&broken).expect_err(bad);
                assert!(err.contains(&format!("`{key}`")), "{bad}: {err}");
                assert!(!err.contains('\n'), "{err}");
            }
        }
    }

    /// Sidecars written while `host` still carried a `plan_cache` block
    /// keep loading: the reader ignores keys it does not know.
    #[test]
    fn old_sidecars_with_unknown_host_keys_still_load() {
        let text = sample().render();
        let old = text.replacen(
            "  \"workers\": [",
            "  \"plan_cache\": {\"hits\": 3, \"misses\": 2, \"distinct_plans\": 2, \
             \"plan_wall_ns\": 77},\n  \"workers\": [",
            1,
        );
        assert!(old.contains("plan_cache"));
        assert_eq!(ProfReport::from_json(&old).expect("parses").render(), text);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ProfReport::from_json("[]").is_err());
        assert!(ProfReport::from_json("{\"schema\": \"mcio.sweep.v1\"}").is_err());
        assert!(ProfReport::from_json("not json").is_err());
    }

    #[test]
    fn pretty_lists_top_phases() {
        let text = sample().render_pretty(5);
        assert!(text.contains("events fired"));
        assert!(text.contains("plan/des-run"));
    }
}
