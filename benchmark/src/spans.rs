//! In-memory spans around every call the harness makes into a layer.
//!
//! A span is (name, start, end, parent, unit); the unit is the set-up
//! pass or op it belongs to. Spans are kept in memory and written as
//! Chrome-trace JSON when the workload ends. A switched-off recorder
//! (the timed run) reads no clock and stores nothing.
//!
//! A layer's *self time* is its span minus the part its child spans
//! cover; summing self times by span name inside one unit gives the
//! per-op phase table, and whatever is left on the structural spans
//! (`op`, `setup`, `cell.*`) is the unattributed residual.

use mcio_prof::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Allocation figures are inclusive deltas of the
/// counting allocator (zeros without the `count-alloc` feature).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and self allocations by span name inside one unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitSums {
    /// Name of the unit's root span (`setup` or `op`).
    pub root: &'static str,
    /// Duration of the root span.
    pub wall_ns: u64,
    /// Allocations / bytes allocated inside the root span.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub self_allocs: BTreeMap<&'static str, u64>,
    pub self_alloc_bytes: BTreeMap<&'static str, u64>,
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            // Reserved up front so the recorder's own growth stays out
            // of the spans' allocation deltas.
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::with_capacity(16),
            unit: 0,
        }
    }

    /// Pause or resume recording (first and checked ops run unrecorded).
    /// Returns the previous state.
    pub fn set_on(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.on, on)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span. `None`
    /// when recording is off; hand the result to [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        // The opening allocator reading is parked in the span until
        // `end` turns it into a delta.
        let a0 = alloc::snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
            allocs: a0.allocs,
            alloc_bytes: a0.bytes,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` opened (spans close innermost first).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_ns = self.now_ns();
        let a1 = alloc::snapshot();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.allocs = a1.allocs - s.allocs;
        s.alloc_bytes = a1.bytes - s.alloc_bytes;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Run `f` as the root span of a new unit (one set-up pass or op).
    pub fn unit<T>(&mut self, root: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.unit += 1;
        self.span(root, f)
    }

    /// Add a child of the innermost open span whose duration was
    /// measured elsewhere (the simulator's own `Observe.prof` scopes).
    /// Children are laid end to end from the parent's start; only the
    /// duration is a measurement.
    pub fn synth(&mut self, name: &'static str, dur_ns: u64) {
        if !self.on {
            return;
        }
        let parent = *self.open.last().expect("synth needs an open span");
        let start_ns = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            unit: self.unit,
            allocs: 0,
            alloc_bytes: 0,
        });
    }

    /// Self time and self allocations by span name, one entry per unit
    /// in recording order.
    pub fn unit_sums(&self) -> Vec<UnitSums> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        let mut child_bytes = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
                child_allocs[p] += s.allocs;
                child_bytes[p] += s.alloc_bytes;
            }
        }
        let mut units: BTreeMap<u32, UnitSums> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let u = units.entry(s.unit).or_default();
            if s.parent.is_none() {
                u.root = s.name;
                u.wall_ns = s.dur_ns();
                u.allocs = s.allocs;
                u.alloc_bytes = s.alloc_bytes;
            }
            *u.self_ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(child_ns[i]);
            *u.self_allocs.entry(s.name).or_default() += s.allocs.saturating_sub(child_allocs[i]);
            *u.self_alloc_bytes.entry(s.name).or_default() +=
                s.alloc_bytes.saturating_sub(child_bytes[i]);
        }
        units.into_values().collect()
    }

    /// The spans as Chrome-trace JSON (`ph: "X"`, microsecond stamps).
    /// The layer — the span name up to its first dot — is the category.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
                 \"unit\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.unit,
                s.allocs,
                s.alloc_bytes,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding hand-made spans `(name, start, end, parent)`,
    /// all in unit 1.
    fn recorder_of(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut rec = Recorder::new(true);
        rec.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                unit: 1,
                allocs: 0,
                alloc_bytes: 0,
            })
            .collect();
        rec
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) > a [10,60) > { b [10,30), b [40,50) }; op > c [70,90).
        let rec = recorder_of(&[
            ("op", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 10, 30, Some(1)),
            ("b", 40, 50, Some(1)),
            ("c", 70, 90, Some(0)),
        ]);
        let units = rec.unit_sums();
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert_eq!((u.root, u.wall_ns), ("op", 100));
        assert_eq!(u.self_ns["op"], 30, "100 - a(50) - c(20)");
        assert_eq!(u.self_ns["a"], 20, "50 - both b spans");
        assert_eq!(u.self_ns["b"], 30, "siblings of one name add up");
        assert_eq!(u.self_ns["c"], 20);
        assert_eq!(u.self_ns.values().sum::<u64>(), u.wall_ns);
    }

    #[test]
    fn spans_nest_by_call_structure_and_units_stay_apart() {
        let mut rec = Recorder::new(true);
        for _ in 0..2 {
            rec.unit("op", |rec| {
                rec.span("outer", |rec| {
                    rec.span("inner", |_| ());
                    rec.synth("measured", 5);
                    rec.synth("measured", 7);
                });
            });
        }
        assert_eq!(rec.spans.len(), 10);
        let names: Vec<_> = rec.spans[..5].iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "outer", "inner", "measured", "measured"]);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(1));
        assert_eq!(rec.spans[3].parent, Some(1));
        // Synthesized children are laid end to end.
        assert_eq!(rec.spans[4].start_ns, rec.spans[3].end_ns);
        let units = rec.unit_sums();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].self_ns["measured"], 12);
        assert_eq!(units[1].self_ns["measured"], 12);
        assert!(rec
            .chrome_json()
            .contains("\"name\": \"inner\", \"cat\": \"inner\""));
    }

    #[test]
    fn a_switched_off_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.unit("op", |rec| rec.span("a", |_| 7));
        rec.synth("x", 1);
        assert_eq!(v, 7);
        assert!(rec.spans.is_empty());
        assert!(rec.unit_sums().is_empty());
    }
}
