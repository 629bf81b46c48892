//! The event sink: per-core rings behind one recording façade.
//!
//! Recording is gated at run time: a sink constructed
//! [`EventSink::disabled`] answers [`EventSink::is_enabled`] with one
//! load+test, which is all a non-observed run ever pays.
//!
//! High-frequency events (cache misses) additionally pass through a
//! deterministic 1-in-N sampler ([`EventSink::record_sampled`]): the
//! counter is per core and advances on every *eligible* event, so the
//! same simulation records the same sample set on every host.

use crate::event::{EventKind, TraceEvent};
use crate::ring::EventRing;
use slicc_common::{CoreId, Cycle};

/// Records typed sim-time events into per-core overwrite-oldest rings.
#[derive(Clone, Debug)]
pub struct EventSink {
    rings: Vec<EventRing>,
    sample_every: u64,
    /// Per-core count of sample-eligible events seen so far.
    sample_seen: Vec<u64>,
    enabled: bool,
}

impl EventSink {
    /// A sink that records nothing (the default for every simulation that
    /// did not ask for tracing).
    pub fn disabled() -> Self {
        EventSink { rings: Vec::new(), sample_every: 1, sample_seen: Vec::new(), enabled: false }
    }

    /// A recording sink: one ring of `capacity` events per core, keeping
    /// every 1-in-`sample_every` high-frequency event (clamped ≥ 1).
    pub fn new(cores: usize, capacity: usize, sample_every: u64) -> Self {
        EventSink {
            rings: (0..cores).map(|_| EventRing::new(capacity)).collect(),
            sample_every: sample_every.max(1),
            sample_seen: vec![0; cores],
            enabled: true,
        }
    }

    /// Whether recording is on.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event unconditionally (migrations, thread lifecycle,
    /// watchdog — the rare, individually meaningful ones).
    #[inline]
    pub fn record(&mut self, core: CoreId, cycle: Cycle, kind: EventKind) {
        if self.enabled {
            self.rings[core.index()].push(TraceEvent { core, cycle, kind });
        }
    }

    /// Records one high-frequency event through the deterministic 1-in-N
    /// sampler: the first eligible event on each core is kept, then every
    /// `sample_every`-th after it. Returns whether this event was kept,
    /// so companion events (a miss's stall) can ride the same decision.
    #[inline]
    pub fn record_sampled(&mut self, core: CoreId, cycle: Cycle, kind: EventKind) -> bool {
        if self.enabled {
            let seen = &mut self.sample_seen[core.index()];
            let keep = (*seen).is_multiple_of(self.sample_every);
            *seen += 1;
            if keep {
                self.rings[core.index()].push(TraceEvent { core, cycle, kind });
            }
            return keep;
        }
        false
    }

    /// The configured 1-in-N sampling period.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Events overwritten across all rings (ring capacity exceeded).
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(EventRing::dropped).sum()
    }

    /// Events recorded across all rings, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.rings.iter().map(EventRing::total_recorded).sum()
    }

    /// All held events, merged across cores into one deterministic
    /// timeline: ascending cycle, ties broken by core id then per-core
    /// record order.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let events = self.snapshot();
        self.rings = Vec::new();
        self.sample_seen = Vec::new();
        self.enabled = false;
        events
    }

    /// A non-consuming copy of [`EventSink::drain`]'s timeline.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut keyed: Vec<(Cycle, usize, usize, TraceEvent)> = Vec::new();
        for (c, ring) in self.rings.iter().enumerate() {
            for (pos, ev) in ring.iter().enumerate() {
                keyed.push((ev.cycle, c, pos, *ev));
            }
        }
        keyed.sort_by_key(|&(cycle, core, pos, _)| (cycle, core, pos));
        keyed.into_iter().map(|(_, _, _, ev)| ev).collect()
    }

    /// The most recent `k` events of the merged timeline (for diagnostic
    /// snapshots: "what was the machine doing when it hung?").
    pub fn recent(&self, k: usize) -> Vec<TraceEvent> {
        let all = self.snapshot();
        let skip = all.len().saturating_sub(k);
        all[skip..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MissKind, MissLevel};

    fn miss() -> EventKind {
        EventKind::Miss { level: MissLevel::L1I, kind: MissKind::Fetch, class: None }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = EventSink::disabled();
        assert!(!s.is_enabled());
        s.record(CoreId::new(0), 1, miss());
        assert!(!s.record_sampled(CoreId::new(0), 2, miss()));
        assert!(s.drain().is_empty());
    }

    #[test]
    fn sampling_keeps_first_then_every_nth_deterministically() {
        let run = || {
            let mut s = EventSink::new(1, 64, 4);
            for cycle in 0..10 {
                s.record_sampled(CoreId::new(0), cycle, miss());
            }
            s.drain()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "sampling must be deterministic");
        let cycles: Vec<u64> = a.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 4, 8], "first eligible event, then every 4th");
    }

    #[test]
    fn merged_timeline_is_cycle_ordered_with_core_tiebreak() {
        let mut s = EventSink::new(2, 8, 1);
        s.record(CoreId::new(1), 5, miss());
        s.record(CoreId::new(0), 5, miss());
        s.record(CoreId::new(0), 2, miss());
        let timeline = s.snapshot();
        let keys: Vec<(u64, u16)> = timeline.iter().map(|e| (e.cycle, e.core.raw())).collect();
        assert_eq!(keys, vec![(2, 0), (5, 0), (5, 1)]);
        assert_eq!(s.recent(2).len(), 2);
        assert_eq!(s.recent(2)[1], timeline[2]);
    }
}
