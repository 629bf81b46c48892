//! Chrome `trace_event` JSON export.
//!
//! Renders a recorded event timeline as the JSON Object Format that
//! `chrome://tracing` and Perfetto load directly: one track (`tid`) per
//! simulated core, the running thread as a duration slice (`B`/`E`),
//! migrations / steals / segment boundaries / misses as instant events,
//! and miss-path stalls as `X` complete events. Timestamps map one
//! simulated cycle to one microsecond — the `ts` axis *is* the cycle
//! axis.
//!
//! The exporter pairs slices defensively: a `ThreadStart` with a slice
//! already open closes it first, and any slice still open at the end of
//! the timeline (a ring overwrote its start, or the run was aborted) is
//! closed at the last seen cycle. The emitted document therefore always
//! has balanced `B`/`E` pairs, whatever window of the run the rings
//! kept.

use crate::event::{EventKind, TraceEvent};
use slicc_common::{push_json_str, Cycle};
use std::fmt::Write as _;

/// Run identity stamped into the trace's metadata events.
#[derive(Clone, Debug)]
pub struct TraceMeta {
    /// Workload name.
    pub workload: String,
    /// Scheduler-mode label.
    pub mode: String,
    /// Core count (tracks are emitted for all of them).
    pub cores: usize,
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter { out: String::from("{\n\"traceEvents\": [\n"), first: true }
    }

    /// Appends one event object; `fields` is the pre-rendered interior.
    fn push(&mut self, fields: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(fields);
        self.out.push('}');
    }

    fn finish(mut self, meta: &TraceMeta) -> String {
        self.out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"workload\": ");
        push_json_str(&mut self.out, &meta.workload);
        self.out.push_str(", \"mode\": ");
        push_json_str(&mut self.out, &meta.mode);
        let _ =
            write!(self.out, ", \"cores\": {}, \"clock\": \"1 cycle = 1 us\"}}\n}}\n", meta.cores);
        self.out
    }
}

fn slice_begin(w: &mut TraceWriter, tid: usize, ts: Cycle, name: &str) {
    let mut f = String::new();
    f.push_str("\"name\": ");
    push_json_str(&mut f, name);
    let _ = write!(f, ", \"ph\": \"B\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}");
    w.push(&f);
}

fn slice_end(w: &mut TraceWriter, tid: usize, ts: Cycle) {
    w.push(&format!("\"ph\": \"E\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}"));
}

fn instant(w: &mut TraceWriter, tid: usize, ts: Cycle, name: &str, cat: &str, args: &str) {
    let mut f = String::new();
    f.push_str("\"name\": ");
    push_json_str(&mut f, name);
    f.push_str(", \"cat\": ");
    push_json_str(&mut f, cat);
    let _ = write!(f, ", \"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": {tid}, \"ts\": {ts}");
    if !args.is_empty() {
        let _ = write!(f, ", \"args\": {{{args}}}");
    }
    w.push(&f);
}

/// Renders `events` (a cycle-ordered timeline, e.g. from
/// `EventSink::drain`) as a Chrome `trace_event` JSON document.
pub fn chrome_trace_json(events: &[TraceEvent], meta: &TraceMeta) -> String {
    let mut w = TraceWriter::new();

    // Track naming metadata: the process is the run, each tid is a core.
    {
        let mut f = String::new();
        f.push_str("\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": {\"name\": ");
        push_json_str(&mut f, &format!("slicc {} [{}]", meta.workload, meta.mode));
        f.push('}');
        w.push(&f);
    }
    for c in 0..meta.cores {
        let mut f = String::new();
        let _ = write!(f, "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {c}, \"args\": {{\"name\": ");
        push_json_str(&mut f, &format!("core {c}"));
        f.push('}');
        w.push(&f);
    }

    // Per-core open running-slice state for defensive B/E pairing. Sized
    // to the events actually present, so a `meta.cores` that undercounts
    // the machine degrades to unnamed tracks rather than a panic.
    let tracks = events.iter().map(|e| e.core.index() + 1).max().unwrap_or(0).max(meta.cores);
    let mut open: Vec<bool> = vec![false; tracks];
    let mut last_cycle: Cycle = 0;
    for ev in events {
        let tid = ev.core.index();
        let ts = ev.cycle;
        last_cycle = last_cycle.max(ts);
        match ev.kind {
            EventKind::ThreadStart { thread } => {
                if open[tid] {
                    slice_end(&mut w, tid, ts);
                }
                slice_begin(&mut w, tid, ts, &format!("T{thread}"));
                open[tid] = true;
            }
            EventKind::ThreadComplete { thread } => {
                if open[tid] {
                    slice_end(&mut w, tid, ts);
                    open[tid] = false;
                }
                instant(&mut w, tid, ts, &format!("T{thread} done"), "thread", "");
            }
            EventKind::Migration { thread, from: _, to, reason } => {
                if open[tid] {
                    slice_end(&mut w, tid, ts);
                    open[tid] = false;
                }
                instant(
                    &mut w,
                    tid,
                    ts,
                    &format!("migrate T{thread} -> core {}", to.index()),
                    "migration",
                    &format!("\"to\": {}, \"reason\": \"{}\"", to.index(), reason.name()),
                );
            }
            EventKind::ContextSwitch { thread } => {
                if open[tid] {
                    slice_end(&mut w, tid, ts);
                    open[tid] = false;
                }
                instant(&mut w, tid, ts, &format!("switch T{thread}"), "context-switch", "");
            }
            EventKind::Miss { level, kind, class } => {
                let args = match class {
                    Some(c) => format!(
                        "\"level\": \"{}\", \"kind\": \"{}\", \"class\": \"{}\"",
                        level.name(),
                        kind.name(),
                        c.name()
                    ),
                    None => {
                        format!("\"level\": \"{}\", \"kind\": \"{}\"", level.name(), kind.name())
                    }
                };
                instant(&mut w, tid, ts, &format!("{} miss", level.name()), "miss", &args);
            }
            EventKind::Stall { cycles } => {
                // The stall ended at the stamp; render it as a complete
                // slice covering the cycles it occupied.
                let dur = Cycle::from(cycles);
                let start = ts.saturating_sub(dur);
                w.push(&format!(
                    "\"name\": \"stall\", \"cat\": \"stall\", \"ph\": \"X\", \"pid\": 0, \
                     \"tid\": {tid}, \"ts\": {start}, \"dur\": {dur}"
                ));
            }
            EventKind::SegmentBoundary { thread, segment } => {
                instant(
                    &mut w,
                    tid,
                    ts,
                    &format!("seg {segment}"),
                    "segment",
                    &format!("\"thread\": {thread}, \"segment\": {segment}"),
                );
            }
            EventKind::Steal { victim, victim_queue } => {
                instant(
                    &mut w,
                    tid,
                    ts,
                    &format!("steal from core {}", victim.index()),
                    "steal",
                    &format!("\"victim\": {}, \"victim_queue\": {victim_queue}", victim.index()),
                );
            }
            EventKind::WatchdogFired { heap_steps } => {
                instant(
                    &mut w,
                    tid,
                    ts,
                    "watchdog fired",
                    "watchdog",
                    &format!("\"heap_steps\": {heap_steps}"),
                );
            }
        }
    }
    // Close slices orphaned by ring overwrite or an aborted run.
    for (tid, is_open) in open.iter().enumerate() {
        if *is_open {
            slice_end(&mut w, tid, last_cycle);
        }
    }

    w.finish(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MigrationReason, MissKind, MissLevel};
    use slicc_common::CoreId;

    fn meta() -> TraceMeta {
        TraceMeta { workload: "TPC-C-1".to_string(), mode: "SLICC".to_string(), cores: 2 }
    }

    fn ev(core: u16, cycle: Cycle, kind: EventKind) -> TraceEvent {
        TraceEvent { core: CoreId::new(core), cycle, kind }
    }

    #[test]
    fn emits_balanced_slices_and_named_tracks() {
        let events = vec![
            ev(0, 10, EventKind::ThreadStart { thread: 7 }),
            ev(
                0,
                50,
                EventKind::Migration {
                    thread: 7,
                    from: CoreId::new(0),
                    to: CoreId::new(1),
                    reason: MigrationReason::Matched,
                },
            ),
            ev(1, 60, EventKind::ThreadStart { thread: 7 }),
            ev(1, 90, EventKind::ThreadComplete { thread: 7 }),
        ];
        let json = chrome_trace_json(&events, &meta());
        assert_eq!(
            json.matches("\"ph\": \"B\"").count(),
            json.matches("\"ph\": \"E\"").count(),
            "B/E must balance:\n{json}"
        );
        assert!(json.contains("\"name\": \"core 0\""));
        assert!(json.contains("migrate T7 -> core 1"));
        assert!(json.contains("\"reason\": \"matched\""));
        assert!(json.contains("\"traceEvents\""));
        // Every string the writer emits is brace-free, so well-formedness
        // reduces to brace/bracket balance over the whole document.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn orphaned_open_slices_are_closed_at_the_end() {
        // Start with no matching end: the aborted-run shape.
        let events = vec![ev(0, 5, EventKind::ThreadStart { thread: 1 })];
        let json = chrome_trace_json(&events, &meta());
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
    }

    #[test]
    fn stalls_render_as_complete_events_with_duration() {
        let events = vec![
            ev(0, 100, EventKind::Stall { cycles: 40 }),
            ev(
                1,
                110,
                EventKind::Miss { level: MissLevel::L1I, kind: MissKind::Fetch, class: None },
            ),
        ];
        let json = chrome_trace_json(&events, &meta());
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ts\": 60, \"dur\": 40"));
        assert!(json.contains("L1I miss"));
    }
}
