//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The library is not instrumented for this: the traced run replays one
//! query's pipeline through the public calls, one span per call, all kept in
//! memory until the run ends. A layer's *self time* is its span minus the
//! part of it that its child spans cover.

use crate::json::Json;
use pbds_core::telemetry::clock::Stopwatch;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query share its id.
    pub query_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder: the traced run has one client.
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; the innermost open span becomes
    /// its parent. Returns `f`'s result and the span's duration in ns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover, clipped to the span itself — overlapping
/// children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per span name: `(calls, total self time in ns)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
    }
    by_name
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start", Json::Num(s.start_ns as f64)),
                    ("end", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("query_id", Json::Num(s.query_id as f64)),
                ])
            })
            .collect(),
    )
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
            query_id: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("serve", 0, 100, None),
            span("lower", 10, 30, Some(0)),
            span("execute", 40, 90, Some(0)),
            span("scan", 45, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 25, 25]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("inside-a", 20, 30, Some(0)),
            // A child that outlives its parent only covers the shared part.
            span("late", 90, 150, Some(0)),
        ];
        // Union of [10,60] ∪ [40,80] ∪ [20,30] ∪ [90,100] covers 80 ns.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_groups_by_name() {
        let mut tracer = Tracer::new();
        let (value, outer_ns) = tracer.span("outer", 7, |t| {
            let (a, _) = t.span("inner", 7, |_| 1);
            let (b, _) = t.span("inner", 7, |_| 2);
            a + b
        });
        assert_eq!(value, 3);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.query_id == 7));
        assert_eq!(spans[0].duration_ns(), outer_ns);
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name["inner"].0, 2);
        let total_self: u64 = by_name.values().map(|(_, ns)| ns).sum();
        assert_eq!(total_self, spans[0].duration_ns());
    }
}
