//! The benchmark's own spans: timed from outside the program, around its
//! calls into each crate, kept in memory and written once at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `serve.client.single` or `core.extract`.
    pub name: String,
    /// Operation the span belongs to (spans of one request share it).
    pub op: u64,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
}

/// An in-memory span log. A disabled log records nothing, so untraced
/// calls pay one branch.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records iff `enabled`, timed from `origin`.
    #[must_use]
    pub fn new(enabled: bool, origin: Instant) -> Self {
        SpanLog {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// Whether the log records.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// An empty log with the same switch and origin, for another thread.
    #[must_use]
    pub fn fork(&self) -> SpanLog {
        SpanLog::new(self.enabled, self.origin)
    }

    /// Time `f` as span `name` of operation `op`.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            op,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Append another thread's log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Render as JSON lines, one span per line.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}
