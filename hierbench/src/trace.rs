//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and request id. Spans stay in
//! memory while the run measures and are written as JSON lines when it
//! ends. Calls made once per sample are not spans (millions of them
//! would swamp what they measure); their time is summed into counters at
//! the same call sites instead.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per span site.

use std::io::{self, Write};
use std::time::Instant;

use crate::stats::{self, Interval};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start: u64,
    /// Nanoseconds since the trace origin; `0` while open.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request this span serves; spans of one request share it.
    pub request: u64,
}

impl Span {
    fn interval(&self) -> Interval {
        Interval {
            start: self.start,
            end: self.end,
        }
    }
}

/// Opaque handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new request: later spans carry its id until the next.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now();
        while let Some(top) = self.stack.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end = now;
            }
            if top == id {
                break;
            }
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ms) of every span called `name`: its duration minus
    /// the part its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let children: Vec<Interval> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::interval)
                    .collect();
                stats::self_time(s.interval(), &children) as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_requests() {
        let mut t = Tracer::new(true);
        let round = t.begin("round");
        t.next_request();
        let tick = t.begin("tick");
        t.end(tick);
        t.next_request();
        let scan = t.begin("scan");
        t.end(scan);
        t.end(round);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[1].request, s[2].request), (1, 2));
        assert!(s.iter().all(|x| x.end >= x.start));
        let self_ms = t.self_times("round")[0];
        assert!(self_ms <= (s[0].end - s[0].start) as f64 / 1e6);
        let mut out = Vec::new();
        t.write(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
