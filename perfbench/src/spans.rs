//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code around calls into the simulator's crates and
//! written out once, when the run ends.

use crate::stats::{self_times, Span};
use std::fmt::Write as _;
use std::time::Instant;

/// Records spans against a shared origin. A disabled tracer records
/// nothing, so the untraced run pays one branch per call.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    pub const NONE: SpanId = SpanId(None);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer::with_origin(Instant::now(), enabled)
    }

    /// A tracer for another thread, sharing this one's time origin.
    pub fn with_origin(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`.
    pub fn begin(&mut self, name: &str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            request,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, 0);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links;
    /// its root spans become children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent.0,
            };
            self.spans.push(s);
        }
    }

    /// Total self time, in nanoseconds, of the spans called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Every span as one JSON object per line, with its self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns, parent, s.request
            );
        }
        out
    }
}
