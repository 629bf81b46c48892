//! Structured runner telemetry: progress events behind a [`Reporter`].
//!
//! The experiment runner used to narrate progress with ad-hoc
//! `eprintln!`; this module replaces that with typed [`ProgressEvent`]s
//! dispatched to a [`Reporter`] implementation chosen by the user
//! (`--progress quiet|plain|json` on the binaries):
//!
//! - [`QuietReporter`] — drops everything; stderr stays byte-clean.
//! - [`WarningsOnlyReporter`] — the library default: warnings still
//!   reach stderr (a silently missing artifact would be worse), all
//!   narration is dropped.
//! - [`PlainReporter`] — human progress lines with per-point timing and
//!   an ETA extrapolated from completed points.
//! - [`JsonLinesReporter`] — one JSON object per line, for driving a
//!   sweep from another program.
//!
//! Reporters are `Send + Sync` and internally locked: worker threads
//! report concurrently, lines never interleave.

use slicc_common::{json_f64, push_json_str};
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One telemetry event from the experiment runner.
#[derive(Clone, Debug, PartialEq)]
pub enum ProgressEvent {
    /// A batch of points was submitted.
    BatchStarted {
        /// Requests in the batch (including duplicates/cached).
        points: usize,
        /// Distinct points that will simulate fresh.
        fresh: usize,
    },
    /// A fresh point began simulating.
    PointStarted {
        /// 1-based index among the batch's fresh points.
        index: usize,
        /// Fresh points in the batch.
        total: usize,
        /// Human point label (workload/mode/tasks/seed).
        label: String,
    },
    /// A fresh point completed.
    PointFinished {
        /// 1-based index among the batch's fresh points.
        index: usize,
        /// Fresh points in the batch.
        total: usize,
        /// Human point label.
        label: String,
        /// Wall-clock nanoseconds the simulation took.
        wall_ns: u64,
        /// Simulated instructions per wall-clock second.
        sim_ips: f64,
    },
    /// A fresh point failed.
    PointFailed {
        /// 1-based index among the batch's fresh points.
        index: usize,
        /// Fresh points in the batch.
        total: usize,
        /// Human point label.
        label: String,
        /// The rendered error.
        error: String,
    },
    /// A fresh point was abandoned by cooperative cancellation (Ctrl-C
    /// or [`ProgressEvent::PointFailed`]'s graceful sibling: no error,
    /// the caller asked the run to stop).
    PointCancelled {
        /// 1-based index among the batch's fresh points.
        index: usize,
        /// Fresh points in the batch.
        total: usize,
        /// Human point label.
        label: String,
    },
    /// A request was served from the run cache.
    PointCached {
        /// Human point label.
        label: String,
    },
    /// The batch finished.
    BatchFinished {
        /// Points simulated fresh.
        fresh: usize,
        /// Requests served from the cache.
        cached: usize,
        /// Points that failed.
        failed: usize,
    },
    /// A resource-pressure snapshot from the runner's governance layer
    /// (bounded run cache, admission control): emitted at batch end and
    /// whenever a submission is shed, so operators and `--progress json`
    /// consumers can watch queue depth, cache residency, and shed counts
    /// without polling.
    Pressure {
        /// Submissions waiting for an execution slot.
        queue_depth: usize,
        /// Fresh simulations currently executing.
        inflight: usize,
        /// Bytes resident in the bounded run cache.
        cache_bytes: u64,
        /// The run cache's byte budget.
        cache_budget: u64,
        /// Entries resident in the run cache.
        cache_entries: usize,
        /// Submissions shed by admission control so far (process total).
        shed: u64,
    },
    /// A frozen metrics snapshot (registry exposition): emitted at batch
    /// end when metrics capture is on, so `--progress json` consumers
    /// get the full counter/gauge/histogram surface inline without
    /// waiting for `--metrics-out` files.
    Metrics {
        /// The name-sorted snapshot.
        snapshot: crate::metrics::MetricsSnapshot,
    },
    /// A `slicc-serve` lifecycle transition: the server started
    /// listening, began draining (stopped accepting, waiting for
    /// in-flight work), or finished draining. Lets `--progress json`
    /// consumers follow a daemon's life the same way they follow a
    /// batch's.
    ServerState {
        /// The state name: `listening`, `draining`, or `drained`.
        state: String,
        /// Connections open at the transition.
        connections: usize,
        /// Human detail (bind address, drain cause, final counts).
        detail: String,
    },
    /// Informational narration (file written, figure done, ...).
    Note {
        /// The message.
        message: String,
    },
    /// Something degraded but the run continues (missing obs data,
    /// ...).
    Warning {
        /// The message.
        message: String,
    },
}

/// Receives [`ProgressEvent`]s; implementations decide presentation.
pub trait Reporter: Send + Sync {
    /// Handles one event.
    fn report(&self, event: ProgressEvent);
}

/// Drops every event. `--progress quiet`: stderr stays byte-clean.
pub struct QuietReporter;

impl Reporter for QuietReporter {
    fn report(&self, _event: ProgressEvent) {}
}

/// Forwards only [`ProgressEvent::Warning`] to its writer; drops all
/// narration. The library default: embedding code keeps a quiet stderr
/// without losing degradation warnings.
pub struct WarningsOnlyReporter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl WarningsOnlyReporter {
    /// Warnings to stderr.
    pub fn stderr() -> Self {
        WarningsOnlyReporter { out: Mutex::new(Box::new(std::io::stderr())) }
    }

    /// Warnings to an arbitrary writer (tests).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        WarningsOnlyReporter { out: Mutex::new(w) }
    }
}

impl Reporter for WarningsOnlyReporter {
    fn report(&self, event: ProgressEvent) {
        if let ProgressEvent::Warning { message } = event {
            if let Ok(mut out) = self.out.lock() {
                let _ = writeln!(out, "warning: {message}");
            }
        }
    }
}

struct PlainState {
    out: Box<dyn Write + Send>,
    started: Option<Instant>,
    total: usize,
    done: usize,
}

/// Human progress lines with per-point timing and a running ETA.
pub struct PlainReporter {
    state: Mutex<PlainState>,
}

impl PlainReporter {
    /// Progress to stderr (the conventional progress channel; stdout
    /// stays machine-parseable).
    pub fn stderr() -> Self {
        PlainReporter::to_writer(Box::new(std::io::stderr()))
    }

    /// Progress to an arbitrary writer (tests).
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        PlainReporter { state: Mutex::new(PlainState { out, started: None, total: 0, done: 0 }) }
    }
}

impl Reporter for PlainReporter {
    fn report(&self, event: ProgressEvent) {
        let Ok(mut s) = self.state.lock() else { return };
        match event {
            ProgressEvent::BatchStarted { points, fresh } => {
                s.started = Some(Instant::now());
                s.total = fresh;
                s.done = 0;
                if fresh > 1 {
                    let cached = points - fresh.min(points);
                    let _ =
                        writeln!(s.out, "simulating {fresh} point(s) ({cached} served from cache)");
                }
            }
            ProgressEvent::PointStarted { .. } | ProgressEvent::PointCached { .. } => {}
            ProgressEvent::PointFinished { total, label, wall_ns, sim_ips, .. } => {
                s.done += 1;
                let eta = match (s.started, s.total > s.done) {
                    (Some(t0), true) => {
                        let per = t0.elapsed().as_secs_f64() / s.done as f64;
                        format!("  eta {:.0}s", per * (s.total - s.done) as f64)
                    }
                    _ => String::new(),
                };
                let done = s.done;
                let _ = writeln!(
                    s.out,
                    "[{done}/{total}] {label}: {:.2}s ({:.1} M sim-ips){eta}",
                    wall_ns as f64 / 1e9,
                    sim_ips / 1e6,
                );
            }
            ProgressEvent::PointFailed { total, label, error, .. } => {
                s.done += 1;
                let done = s.done;
                let _ = writeln!(s.out, "[{done}/{total}] {label}: FAILED: {error}");
            }
            ProgressEvent::PointCancelled { total, label, .. } => {
                s.done += 1;
                let done = s.done;
                let _ = writeln!(s.out, "[{done}/{total}] {label}: cancelled");
            }
            ProgressEvent::BatchFinished { fresh, cached, failed } => {
                if fresh > 1 || failed > 0 {
                    let secs = s.started.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
                    let _ = writeln!(
                        s.out,
                        "batch done: {fresh} simulated, {cached} cached, {failed} failed in {secs:.1}s"
                    );
                }
            }
            ProgressEvent::Pressure {
                queue_depth,
                inflight,
                cache_bytes,
                cache_budget,
                cache_entries,
                shed,
            } => {
                // Routine snapshots stay quiet on the human reporter;
                // sheds are worth a line.
                if shed > 0 {
                    let _ = writeln!(
                        s.out,
                        "pressure: {shed} shed, {inflight} in flight, {queue_depth} queued, \
                         cache {cache_bytes}/{cache_budget} B ({cache_entries} entries)"
                    );
                }
            }
            ProgressEvent::Metrics { snapshot } => {
                // The full exposition is machine payload; the human
                // reporter just notes how much was captured.
                let _ = writeln!(s.out, "metrics: {} series captured", snapshot.samples.len());
            }
            ProgressEvent::ServerState { state, connections, detail } => {
                let _ = writeln!(s.out, "server {state} ({connections} connection(s)): {detail}");
            }
            ProgressEvent::Note { message } => {
                let _ = writeln!(s.out, "{message}");
            }
            ProgressEvent::Warning { message } => {
                let _ = writeln!(s.out, "warning: {message}");
            }
        }
    }
}

/// One JSON object per event per line (machine consumption).
pub struct JsonLinesReporter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesReporter {
    /// JSON lines to stderr (stdout stays the report channel).
    pub fn stderr() -> Self {
        JsonLinesReporter::to_writer(Box::new(std::io::stderr()))
    }

    /// JSON lines to an arbitrary writer (tests).
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        JsonLinesReporter { out: Mutex::new(w) }
    }
}

impl Reporter for JsonLinesReporter {
    fn report(&self, event: ProgressEvent) {
        let mut line = String::from("{\"event\": ");
        match &event {
            ProgressEvent::BatchStarted { points, fresh } => {
                line.push_str(&format!(
                    "\"batch_started\", \"points\": {points}, \"fresh\": {fresh}"
                ));
            }
            ProgressEvent::PointStarted { index, total, label } => {
                line.push_str(&format!(
                    "\"point_started\", \"index\": {index}, \"total\": {total}, \"label\": "
                ));
                push_json_str(&mut line, label);
            }
            ProgressEvent::PointFinished { index, total, label, wall_ns, sim_ips } => {
                line.push_str(&format!(
                    "\"point_finished\", \"index\": {index}, \"total\": {total}, \"label\": "
                ));
                push_json_str(&mut line, label);
                line.push_str(&format!(
                    ", \"wall_ns\": {wall_ns}, \"sim_ips\": {}",
                    json_f64(*sim_ips)
                ));
            }
            ProgressEvent::PointFailed { index, total, label, error } => {
                line.push_str(&format!(
                    "\"point_failed\", \"index\": {index}, \"total\": {total}, \"label\": "
                ));
                push_json_str(&mut line, label);
                line.push_str(", \"error\": ");
                push_json_str(&mut line, error);
            }
            ProgressEvent::PointCancelled { index, total, label } => {
                line.push_str(&format!(
                    "\"point_cancelled\", \"index\": {index}, \"total\": {total}, \"label\": "
                ));
                push_json_str(&mut line, label);
            }
            ProgressEvent::PointCached { label } => {
                line.push_str("\"point_cached\", \"label\": ");
                push_json_str(&mut line, label);
            }
            ProgressEvent::BatchFinished { fresh, cached, failed } => {
                line.push_str(&format!(
                    "\"batch_finished\", \"fresh\": {fresh}, \"cached\": {cached}, \"failed\": {failed}"
                ));
            }
            ProgressEvent::Pressure {
                queue_depth,
                inflight,
                cache_bytes,
                cache_budget,
                cache_entries,
                shed,
            } => {
                line.push_str(&format!(
                    "\"pressure\", \"queue_depth\": {queue_depth}, \"inflight\": {inflight}, \
                     \"cache_bytes\": {cache_bytes}, \"cache_budget\": {cache_budget}, \
                     \"cache_entries\": {cache_entries}, \"shed\": {shed}"
                ));
            }
            ProgressEvent::Metrics { snapshot } => {
                line.push_str("\"metrics\", \"snapshot\": ");
                line.push_str(&snapshot.to_json());
            }
            ProgressEvent::ServerState { state, connections, detail } => {
                line.push_str("\"server_state\", \"state\": ");
                push_json_str(&mut line, state);
                line.push_str(&format!(", \"connections\": {connections}, \"detail\": "));
                push_json_str(&mut line, detail);
            }
            ProgressEvent::Note { message } => {
                line.push_str("\"note\", \"message\": ");
                push_json_str(&mut line, message);
            }
            ProgressEvent::Warning { message } => {
                line.push_str("\"warning\", \"message\": ");
                push_json_str(&mut line, message);
            }
        }
        line.push('}');
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{line}");
        }
    }
}

/// The `--progress` choice on the binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgressKind {
    /// No output at all.
    Quiet,
    /// Human progress lines (default).
    Plain,
    /// One JSON object per line.
    Json,
}

impl ProgressKind {
    /// Parses a `--progress` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quiet" => Some(ProgressKind::Quiet),
            "plain" => Some(ProgressKind::Plain),
            "json" => Some(ProgressKind::Json),
            _ => None,
        }
    }

    /// The canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            ProgressKind::Quiet => "quiet",
            ProgressKind::Plain => "plain",
            ProgressKind::Json => "json",
        }
    }

    /// Builds the stderr-backed reporter for this kind.
    pub fn reporter(self) -> std::sync::Arc<dyn Reporter> {
        match self {
            ProgressKind::Quiet => std::sync::Arc::new(QuietReporter),
            ProgressKind::Plain => std::sync::Arc::new(PlainReporter::stderr()),
            ProgressKind::Json => std::sync::Arc::new(JsonLinesReporter::stderr()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer that appends into a shared buffer.
    #[derive(Clone)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture() -> (Shared, Arc<StdMutex<Vec<u8>>>) {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        (Shared(Arc::clone(&buf)), buf)
    }

    fn finished(index: usize) -> ProgressEvent {
        ProgressEvent::PointFinished {
            index,
            total: 2,
            label: format!("p{index}"),
            wall_ns: 1_000_000_000,
            sim_ips: 2_000_000.0,
        }
    }

    #[test]
    fn quiet_reporter_emits_nothing() {
        // QuietReporter has no writer at all; this is a compile/behavior
        // smoke so the variant stays wired.
        QuietReporter.report(finished(1));
    }

    #[test]
    fn warnings_only_forwards_warnings_and_drops_narration() {
        let (w, buf) = capture();
        let r = WarningsOnlyReporter::to_writer(Box::new(w));
        r.report(ProgressEvent::Note { message: "chatty".into() });
        r.report(finished(1));
        r.report(ProgressEvent::Warning { message: "disk full".into() });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(out, "warning: disk full\n");
    }

    #[test]
    fn plain_reporter_reports_progress_counts_and_timing() {
        let (w, buf) = capture();
        let r = PlainReporter::to_writer(Box::new(w));
        r.report(ProgressEvent::BatchStarted { points: 3, fresh: 2 });
        r.report(finished(1));
        r.report(ProgressEvent::PointFailed {
            index: 2,
            total: 2,
            label: "p2".into(),
            error: "boom".into(),
        });
        r.report(ProgressEvent::BatchFinished { fresh: 2, cached: 1, failed: 1 });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(out.contains("simulating 2 point(s) (1 served from cache)"), "got: {out}");
        assert!(out.contains("[1/2] p1: 1.00s"), "got: {out}");
        assert!(out.contains("eta"), "first of two points must extrapolate an ETA, got: {out}");
        assert!(out.contains("[2/2] p2: FAILED: boom"), "got: {out}");
        assert!(out.contains("1 failed"), "got: {out}");
    }

    #[test]
    fn json_lines_are_one_object_per_event() {
        let (w, buf) = capture();
        let r = JsonLinesReporter::to_writer(Box::new(w));
        r.report(ProgressEvent::BatchStarted { points: 1, fresh: 1 });
        r.report(ProgressEvent::PointCached { label: "a \"quoted\" label".into() });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\": \"batch_started\""));
        assert!(lines[1].contains("\\\"quoted\\\""), "labels must be escaped, got: {out}");
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn cancel_events_render_on_both_verbose_reporters() {
        let (w, buf) = capture();
        let r = PlainReporter::to_writer(Box::new(w));
        r.report(ProgressEvent::PointCancelled { index: 1, total: 2, label: "p1".into() });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(out.contains("[1/2] p1: cancelled"), "got: {out}");

        let (w, buf) = capture();
        let r = JsonLinesReporter::to_writer(Box::new(w));
        r.report(ProgressEvent::PointCancelled { index: 1, total: 2, label: "p1".into() });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "got: {out}");
        assert!(
            lines[0].starts_with("{\"event\": \"point_cancelled\", \"index\": 1"),
            "got: {out}"
        );
    }

    #[test]
    fn pressure_snapshots_render_on_json_and_only_sheds_on_plain() {
        let snapshot = ProgressEvent::Pressure {
            queue_depth: 3,
            inflight: 2,
            cache_bytes: 4096,
            cache_budget: 8192,
            cache_entries: 7,
            shed: 0,
        };
        let (w, buf) = capture();
        let r = JsonLinesReporter::to_writer(Box::new(w));
        r.report(snapshot.clone());
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(out.starts_with("{\"event\": \"pressure\""), "got: {out}");
        for field in [
            "\"queue_depth\": 3",
            "\"inflight\": 2",
            "\"cache_bytes\": 4096",
            "\"cache_budget\": 8192",
            "\"cache_entries\": 7",
            "\"shed\": 0",
        ] {
            assert!(out.contains(field), "missing {field} in: {out}");
        }

        // The human reporter stays quiet for routine snapshots and
        // narrates once submissions are actually being shed.
        let (w, buf) = capture();
        let r = PlainReporter::to_writer(Box::new(w));
        r.report(snapshot);
        assert!(buf.lock().unwrap().is_empty(), "a routine snapshot must not narrate");
        r.report(ProgressEvent::Pressure {
            queue_depth: 3,
            inflight: 2,
            cache_bytes: 4096,
            cache_budget: 8192,
            cache_entries: 7,
            shed: 5,
        });
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(out.contains("pressure: 5 shed"), "got: {out}");
    }

    #[test]
    fn metrics_event_embeds_the_snapshot_on_json_and_counts_on_plain() {
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("runs_total", "runs").add(2);
        reg.gauge("queue_len", "depth").set(1);
        let event = ProgressEvent::Metrics { snapshot: reg.snapshot() };

        let (w, buf) = capture();
        let r = JsonLinesReporter::to_writer(Box::new(w));
        r.report(event.clone());
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(
            out.starts_with("{\"event\": \"metrics\", \"snapshot\": {\"metrics\": ["),
            "got: {out}"
        );
        assert!(out.contains("\"name\": \"runs_total\""), "got: {out}");
        assert_eq!(out.lines().count(), 1, "one line per event");

        let (w, buf) = capture();
        let r = PlainReporter::to_writer(Box::new(w));
        r.report(event);
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(out, "metrics: 2 series captured\n");
    }

    #[test]
    fn server_state_renders_on_both_verbose_reporters() {
        let event = ProgressEvent::ServerState {
            state: "draining".into(),
            connections: 3,
            detail: "SIGTERM received".into(),
        };
        let (w, buf) = capture();
        PlainReporter::to_writer(Box::new(w)).report(event.clone());
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(out, "server draining (3 connection(s)): SIGTERM received\n");

        let (w, buf) = capture();
        JsonLinesReporter::to_writer(Box::new(w)).report(event);
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(
            out.starts_with("{\"event\": \"server_state\", \"state\": \"draining\""),
            "got: {out}"
        );
        assert!(out.contains("\"connections\": 3"), "got: {out}");
    }

    #[test]
    fn progress_kind_parses_its_names() {
        for kind in [ProgressKind::Quiet, ProgressKind::Plain, ProgressKind::Json] {
            assert_eq!(ProgressKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ProgressKind::parse("loud"), None);
    }
}
