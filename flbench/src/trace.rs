//! In-memory spans: name, start, end, parent, and a trace id (a round or
//! a check-in). Spans are kept in a `Vec` while the run goes and written
//! out once it ends, so recording one costs a clock read and a push.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover; [`self_times`] computes it and
//! [`layer_table`] sums it per span name.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The round or check-in the span belongs to.
    pub trace_id: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing, so untraced runs
/// pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, trace_id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` opened.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.ns(Instant::now());
        self.spans[id].end_ns = end_ns;
        if let Some(pos) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(pos);
        }
    }

    /// Runs `f` inside a span nested under the innermost open one.
    pub fn time<R>(&mut self, name: &'static str, trace_id: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, trace_id);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere (the live client boundary,
    /// where one thread multiplexes many devices and intervals overlap).
    pub fn record(
        &mut self,
        name: &'static str,
        trace_id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            trace_id,
        });
        Some(id)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

/// Sums spans per name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += own;
    }
    table
}

/// The span dump: one JSON object per line.
pub fn dump_spans(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.trace_id
        );
    }
    out
}

/// The self-time table as aligned text, heaviest self time first.
pub fn render_table(table: &BTreeMap<&'static str, LayerRow>) -> String {
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<28} {:>10} {:>14} {:>14} {:>12}\n",
        "span", "count", "total_ms", "self_ms", "self_us/call"
    );
    for (name, row) in rows {
        let per_call = row.self_ns as f64 / row.count.max(1) as f64 / 1e3;
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>14.3} {:>14.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6,
            per_call
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // root [0, 100): children [10, 30) and [20, 50) overlap, so they
        // cover [10, 50) = 40; a child poking past the root's end counts
        // only up to 100; a grandchild never counts against the root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 12, 28, Some(1)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20 - 16, 30, 30, 16]);
        let table = layer_table(&spans);
        assert_eq!(table["root"].self_ns, 50);
        assert_eq!(table["a"].total_ns, 20);
        assert_eq!(table["a.inner"].count, 1);
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 7);
        let inner = tracer.time("inner", 7, || 5);
        assert_eq!(inner, 5);
        tracer.end(outer);
        let after = tracer.begin("after", 8);
        tracer.end(after);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("x", 1);
        tracer.time("y", 1, || ());
        tracer.end(id);
        assert!(tracer.spans().is_empty());
    }
}
