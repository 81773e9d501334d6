//! In-memory spans for the traced run.
//!
//! A span is opened and closed around each public call the benchmark
//! makes (site → page → call). Where the program itself returns a
//! breakdown of a call (`StageTimes`, solver timings), that breakdown is
//! attached as child spans that carry a duration but no start. Spans are
//! kept in memory and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::{json_obj, json_str, num};

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch; `None` for a breakdown
    /// child reported by the program.
    pub start_ns: Option<u64>,
    pub dur_ns: u64,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// The id returned by [`Tracer::open`] on a disabled tracer.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            start_ns: Some(self.epoch.elapsed().as_nanos() as u64),
            dur_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns.unwrap_or(end);
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span id (for attaching breakdown children).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.open(name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Attaches a breakdown child of measured duration `dur` to `parent`.
    pub fn child(&mut self, parent: usize, name: &'static str, dur: Duration) {
        if !self.enabled || parent == NO_SPAN {
            return;
        }
        self.spans.push(Span {
            parent: Some(parent),
            name,
            start_ns: None,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Duration of a closed span, in nanoseconds (0 when disabled).
    pub fn dur_ns(&self, id: usize) -> u64 {
        if id == NO_SPAN {
            0
        } else {
            self.spans[id].dur_ns
        }
    }
}

/// Self times of a span set by name: each span's duration minus its
/// children's durations, summed over the spans of that name.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl LayerTotals {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }
}

/// Self times by name, and the consistency check: every span's children
/// must sum to no more than the span itself. Returns the totals and the
/// spans that violate the check (with the excess, in nanoseconds).
pub fn layer_totals(spans: &[Span]) -> (LayerTotals, Vec<(usize, u64)>) {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns;
        }
    }
    let mut totals = LayerTotals::default();
    let mut violations = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if child_sum[i] > s.dur_ns {
            violations.push((i, child_sum[i] - s.dur_ns));
        }
        *totals.self_ns.entry(s.name).or_default() += s.dur_ns.saturating_sub(child_sum[i]);
    }
    (totals, violations)
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let line = json_obj(&[
            ("id", id.to_string()),
            (
                "parent",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ),
            ("name", json_str(s.name)),
            (
                "start_ns",
                s.start_ns.map_or("null".to_string(), |t| t.to_string()),
            ),
            ("dur_ns", num(s.dur_ns as f64)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                parent: None,
                name: "run",
                start_ns: Some(0),
                dur_ns: 100,
            },
            Span {
                parent: Some(0),
                name: "a",
                start_ns: Some(10),
                dur_ns: 60,
            },
            Span {
                parent: Some(1),
                name: "b",
                start_ns: None,
                dur_ns: 20,
            },
        ];
        let (t, bad) = layer_totals(&spans);
        assert!(bad.is_empty());
        assert_eq!(t.self_ns["run"], 40);
        assert_eq!(t.self_ns["a"], 40);
        assert_eq!(t.self_ns["b"], 20);
    }

    #[test]
    fn oversized_children_are_reported() {
        let spans = vec![
            Span {
                parent: None,
                name: "a",
                start_ns: Some(0),
                dur_ns: 10,
            },
            Span {
                parent: Some(0),
                name: "b",
                start_ns: None,
                dur_ns: 12,
            },
        ];
        assert_eq!(layer_totals(&spans).1, vec![(0, 2)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.span("x", || 3);
        t.child(id, "y", Duration::from_nanos(5));
        assert_eq!(v, 3);
        assert!(t.spans().is_empty());
    }
}
