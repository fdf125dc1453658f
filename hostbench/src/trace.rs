//! In-memory spans recorded by the harness around calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end, and the span that was open when
//! it began. Spans stay in memory and are summarised when the run ends;
//! a layer's self time is its spans' time minus the time covered by
//! their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = Instant::now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = end;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let dur = (s.end - s.start).as_secs_f64();
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur;
            t.self_s += dur - child;
        }
        out
    }

    /// The span summary printed when the run ends.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in self.totals() {
            let _ = writeln!(
                s,
                "{:<28} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        let outer = tr.enter("outer");
        spin(2);
        tr.time("inner", || spin(5));
        tr.time("inner", || spin(5));
        tr.exit(outer);
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_s >= 0.010);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-9);
        assert!(outer.self_s >= 0.002 && outer.self_s < inner.total_s);
        assert_eq!(tr.durations("inner").len(), 2);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        let mut tr = Tracer::new();
        let a = tr.enter("a");
        let _b = tr.enter("b");
        tr.exit(a);
    }
}
