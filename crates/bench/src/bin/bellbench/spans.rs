//! Spans recorded from the benchmark's side of each layer boundary. They stay
//! in memory during a traced run and are written out once at its end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer: what, when, on behalf of which query, and the
/// span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Query id of spans that belong to no single query (set-up, snapshots).
pub const NO_QUERY: u32 = u32::MAX;

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; it is closed by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, query: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
        });
        id
    }

    /// End span `id`; returns its duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
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

/// Totals of one span name over a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let self_ns = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += own;
    }
    out
}

/// The trace file: one JSON object, spans in recording order.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + 64);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
    );
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
            span.name, span.start_ns, span.end_ns
        );
        match span.parent {
            Some(parent) => {
                let _ = write!(out, "{parent}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"query\":");
        if span.query == NO_QUERY {
            out.push_str("null}");
        } else {
            let _ = write!(out, "{}}}", span.query);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("pipeline", 0, 100, None),
            span("kmeans", 10, 40, Some(0)),
            span("generate", 50, 90, Some(0)),
            span("scope", 55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 35, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            // Starts before and ends after the parent: clipped to it.
            span("c", 190, 260, Some(0)),
            span("d", 50, 90, Some(0)),
        ];
        // Cover: [110,170) ∪ [190,200) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("pipeline", 0, 100, None),
            span("kmeans", 10, 40, Some(0)),
            span("pipeline", 100, 160, None),
            span("kmeans", 110, 120, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["pipeline"],
            SpanTotals {
                count: 2,
                total_ns: 160,
                self_ns: 120
            }
        );
        assert_eq!(totals["kmeans"].self_ns, 40);
    }

    #[test]
    fn tracer_records_nesting_and_serializes() {
        let mut tracer = Tracer::new();
        let outer = tracer.open("outer", None, 7);
        let inner = tracer.open("inner", Some(outer), 7);
        tracer.close(inner);
        tracer.close(outer);
        let setup = tracer.open("setup", None, NO_QUERY);
        tracer.close(setup);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = to_json("w", spans);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0,\"query\":7}"));
        assert!(json.contains("\"parent\":null,\"query\":null}"));
    }
}
