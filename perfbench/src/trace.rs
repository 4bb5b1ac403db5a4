//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A single-threaded span recorder. Spans nest strictly (each ends
/// before its parent), so a span's self time is its duration minus the
/// durations of its direct children.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>, request: u64) {
        let span = Span {
            name: name.into(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let id = self.open.pop().expect("end() matches a begin()");
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Renames the innermost open span, closes it and returns its
    /// duration in ns: for spans whose name depends on their outcome.
    pub fn end_as(&mut self, name: &str) -> u64 {
        let id = *self.open.last().expect("end_as() matches a begin()");
        self.spans[id].name = name.to_string();
        self.end()
    }

    /// Records a finished top-level span with explicit bounds: for work
    /// that overlaps other spans on the same thread, such as pipelined
    /// requests.
    pub fn record(&mut self, name: &str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: impl Into<String>, request: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name.clone()).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(children);
        }
        out
    }

    /// All spans as JSON lines: name, start, end (ns from the run's
    /// start), parent span index and request id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// A self-time table: one row per span name, with its share of `total_ns`.
pub fn self_time_table(rows: &BTreeMap<String, u64>, total_ns: u64) -> String {
    let mut out = format!("{:<34} {:>12} {:>8}\n", "layer (span)", "self ms", "share");
    let mut sorted: Vec<_> = rows.iter().collect();
    sorted.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (name, ns) in sorted {
        let share = if total_ns > 0 {
            *ns as f64 / total_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{name:<34} {:>12.3} {:>7.1}%",
            *ns as f64 / 1e6,
            share * 100.0
        );
    }
    out
}
