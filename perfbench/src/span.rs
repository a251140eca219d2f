//! In-memory spans around the benchmark's own calls into each crate.
//!
//! Every timed call goes through [`Tracer::span`], which always
//! measures the call's host duration (the untraced run needs run-call
//! durations for its MIPS figures) and, when tracing is on, also
//! records a [`Span`] with its parent. Spans stay in memory until the
//! run ends, when [`Tracer::to_json`] serializes them in one go.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `pipeline.run`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (`u64::MAX` for set-up).
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Totals of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Number of calls.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_s: f64,
    /// Smallest self time of any single span, seconds.
    pub min_self_s: f64,
}

impl Totals {
    /// Mean duration per call, seconds (0 when never called).
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s / self.calls as f64
        }
    }
}

/// The span recorder. With `enabled == false` it only measures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Operation id of spans recorded outside any operation.
pub const SETUP_OP: u64 = u64::MAX;

impl Tracer {
    /// A tracer; records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: SETUP_OP,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (already recorded spans are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags subsequent spans with an operation id.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f`, returning its result and host duration; records a span
    /// named `name` when tracing is on.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let value = f(self);
            return (value, start.elapsed());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: 0,
            dur_ns: 0,
        });
        self.stack.push(index);
        let start = Instant::now();
        let value = f(self);
        let dur = start.elapsed();
        self.stack.pop();
        let span = &mut self.spans[index];
        span.start_ns = duration_ns(start.duration_since(self.origin));
        span.dur_ns = duration_ns(dur);
        (value, dur)
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals including self time.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let self_s = (span.dur_ns as f64 - children as f64) * 1e-9;
            let t = out.entry(span.name).or_insert(Totals {
                min_self_s: f64::INFINITY,
                ..Totals::default()
            });
            t.calls += 1;
            t.total_s += span.dur_ns as f64 * 1e-9;
            t.self_s += self_s;
            t.min_self_s = t.min_self_s.min(self_s);
        }
        out
    }

    /// Serializes the spans as a JSON array (one object per span).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let op = if s.op == SETUP_OP {
                "null".to_owned()
            } else {
                s.op.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"op\":{op},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.start_ns, s.dur_ns
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            std::thread::sleep(Duration::from_millis(1));
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(outer.total_s >= inner.total_s);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert!(outer.min_self_s >= 0.0);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_measures_without_recording() {
        let mut t = Tracer::new(false);
        let (v, d) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(t.spans().is_empty());
    }
}
