//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(id, parent, name, start, end)`, times in seconds since the
//! run's origin. Spans live in memory while the workload runs and are
//! written out once, when it ends. A disabled tracer records nothing, so
//! the untraced episodes of a traced run execute the same code as an
//! untraced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start: f64,
    end: f64,
}

impl Span {
    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with open spans");
        self.enabled = on;
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start,
            end: start,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end = self.secs(Instant::now());
    }

    /// Records an already-finished span under the innermost open span,
    /// for intervals timed by a callback (a round between two observer
    /// snapshots).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        let (start, end) = (self.secs(start), self.secs(end));
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start,
            end,
        });
    }

    /// Durations of every finished span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Per span name: `(count, total seconds, self seconds)`. A span's
    /// self time is its duration minus its children's; children of one
    /// span never overlap, since the benchmark runs them one after another.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
            e.2 += s.duration() - child[s.id];
        }
        out
    }

    /// The spans as JSON lines, then one `self_times` line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id": {}, "parent": {}, "name": "{}", "start_s": {}, "end_s": {}}}"#,
                s.id, parent, s.name, s.start, s.end
            );
        }
        let entries: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, (count, total, own))| {
                format!(r#""{name}": {{"count": {count}, "total_s": {total}, "self_s": {own}}}"#)
            })
            .collect();
        let _ = writeln!(out, r#"{{"self_times": {{{}}}}}"#, entries.join(", "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_enabled(true);
        let outer = t.begin("outer");
        let a = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let b = Instant::now();
        t.record("inner", a, b);
        t.end(outer);
        let times = t.self_times();
        let (_, total, own) = times["outer"];
        let inner = times["inner"].1;
        assert!((total - own - inner).abs() < 1e-9);
        assert!(inner > 0.004);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let s = t.begin("x");
        t.end(s);
        assert!(s.is_none());
        assert!(t.durations("x").is_empty());
    }
}
