//! Spans around the harness's own calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it, and the
//! cell it belongs to. Spans are kept in memory and written out once,
//! at exit, as Chrome trace-event JSON. A span's *self time* is its
//! duration minus the part of that interval its children cover, so the
//! self times of a tree sum to the root span. Inside a cell there are
//! no spans yet (scoped timers inside `sim`/`core` are a later issue);
//! the in-cell split the report prints is an estimate and says so.

use numa_metrics::Json;
use std::time::Instant;

/// One finished (or still open) span. Times are nanoseconds since the
/// tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The call the span wraps (`JobSpec::run`, `Simulator::run`, ...).
    pub name: String,
    /// The cell the call belongs to; empty outside any cell.
    pub cell: String,
    /// Index of the causing span; `None` for a root.
    pub parent: Option<usize>,
    /// Start.
    pub start_ns: u64,
    /// End (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. A disabled tracer costs one branch per call, so
/// untraced repetitions run the same harness code as traced ones.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `cell`, child of the
    /// innermost open span.
    pub fn span<R>(&mut self, name: &str, cell: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            cell: cell.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        r
    }

    /// Adds an already finished span (timed on another thread, such as
    /// a farm worker) as a child of the innermost open span.
    pub fn record(&mut self, name: &str, cell: &str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                cell: cell.to_string(),
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end).max(self.ns(start)),
            });
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the span itself. Overlapping children are
/// counted once, a child reaching outside its parent only for the part
/// inside.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed by span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64, usize)> {
    let mut by_name: Vec<(String, u64, usize)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += t;
                row.2 += 1;
            }
            None => by_name.push((s.name.clone(), t, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_name
}

/// Total duration of the root spans.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum()
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto). Complete (`"X"`) events, microsecond timestamps; the
/// span's id, parent, cell and self time ride in `args`, `meta`
/// becomes the document's `metadata` member.
pub fn chrome_trace(workload: &str, spans: &[Span], meta: Json) -> Json {
    let events: Vec<Json> = spans
        .iter()
        .zip(self_times(spans))
        .enumerate()
        .map(|(id, (s, self_ns))| {
            Json::obj()
                .field("name", s.name.as_str())
                .field("cat", workload)
                .field("ph", "X")
                .field("ts", s.start_ns as f64 / 1e3)
                .field("dur", s.duration_ns() as f64 / 1e3)
                .field("pid", 1u64)
                .field("tid", 1u64)
                .field(
                    "args",
                    Json::obj()
                        .field("id", id)
                        .field("parent", s.parent)
                        .field("cell", s.cell.as_str())
                        .field("self_us", self_ns as f64 / 1e3),
                )
        })
        .collect();
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
        .field("metadata", meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: format!("s{start_ns}"),
            cell: String::new(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root 0..100 > a 10..60 > b 20..30
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), root_ns(&spans));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children 10..50 and 30..70 cover 10..70; a third, 40..45, is
        // inside both.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 40, 45),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn zero_length_and_out_of_range_children() {
        // A zero-length child covers nothing; a child reaching past its
        // parent counts only for the part inside.
        let spans = [
            span(None, 10, 110),
            span(Some(0), 50, 50),
            span(Some(0), 100, 150),
            span(Some(0), 0, 20),
        ];
        assert_eq!(self_times(&spans), vec![80, 0, 50, 20]);
        assert_eq!(self_times(&[span(None, 5, 5)]), vec![0]);
    }

    #[test]
    fn a_recorded_tree_sums_to_its_root() {
        let mut t = Tracer::on();
        t.span("root", "", |t| {
            t.span("a", "c1", |t| {
                t.span("b", "c1", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            let (s, e) = (Instant::now(), Instant::now());
            t.record("worker", "c2", s, e);
            t.span("c", "c2", |_| {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(self_times(spans).iter().sum::<u64>(), root_ns(spans));
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name.len(), 5);
        assert_eq!(by_name[0].0, "b", "the sleeping leaf owns the time");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", "", |_| 7), 7);
        t.record("y", "", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_documents_are_valid_json() {
        let mut t = Tracer::on();
        t.span("root \"quoted\"", "cell/1 t=4", |t| {
            t.span("leaf", "", |_| {})
        });
        let doc = chrome_trace("w", t.spans(), Json::obj().field("seed", 7u64));
        let text = doc.to_string_flat();
        numa_metrics::validate(&text).unwrap();
        assert!(text.contains("\"traceEvents\":[{"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"parent\":null"));
        assert!(text.contains("\"parent\":0"));
    }
}
