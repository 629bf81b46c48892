//! Resource governance for simulation-as-a-service: the bounded,
//! byte-weighted, LRU-evicting run cache, the admission policy, and the
//! submission handle a server holds.
//!
//! The [`Runner`] memoizes completed points so repeated requests are
//! free, coalesces concurrent requests for one point onto a single
//! flight, and sheds submissions beyond its admission policy
//! ([`Runner::submit`]). This module supplies the pieces it governs
//! with:
//!
//! - [`BoundedResultCache`] — the run cache itself, weighted by each
//!   entry's [`result_weight`] (a closed-form byte count of its metrics,
//!   plus any in-memory observation payload) and bounded by a configurable byte
//!   budget ([`Runner::set_cache_bytes`], `--cache-bytes`). Inserting
//!   past the budget evicts least-recently-used entries; the budget is
//!   never exceeded.
//! - [`ServiceConfig`] — the admission policy of [`Runner::submit`]:
//!   execution slots and wait-queue depth. Submissions beyond both are
//!   shed with a typed [`RunError::Overloaded`] carrying a retry-after
//!   hint instead of queueing without bound.
//! - [`SimService`] — a handle over a shared [`Runner`] that installs a
//!   [`ServiceConfig`] and forwards submissions to it.
//! - [`PressureSnapshot`] — the observable state of the cache and the
//!   admission policy (queue depth, in-flight count, cache residency,
//!   shed count), surfaced through the [`slicc_obs::Reporter`] telemetry as
//!   [`ProgressEvent::Pressure`] and queryable directly.
//!
//! None of this governance enters [`RunRequest::stable_key`], exactly
//! like observation and deadline config before it (DESIGN.md §12): a
//! byte budget, a queue limit, or an eviction can change *whether* and
//! *when* a result is served from memory, never *what* a finished run
//! computed. The golden-digest suite pins that invariant.

use crate::error::RunError;
use crate::metrics::RunMetrics;
use crate::runner::{RunRequest, RunResult, Runner};
use slicc_obs::{Epoch, ProgressEvent, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;

/// Default run-cache byte budget: 64 MiB. Generous enough that every
/// paper sweep (bare metrics results are a few hundred bytes each) is
/// effectively unbounded, small enough that a long-lived service cannot
/// grow without limit. Override with [`Runner::set_cache_bytes`] /
/// `--cache-bytes`.
pub const DEFAULT_CACHE_BYTES: u64 = 64 << 20;

/// Per-entry overhead charged on top of the metrics bytes (a tag, the
/// 8-byte key, a 4-byte length and an 8-byte hash), so an entry's weight
/// is "what this result costs to keep", not zero for empty metrics.
const ENTRY_OVERHEAD: u64 = 1 + 8 + 4 + 8;

/// The fixed part of [`metrics_bytes`]: wall time and sim-ips (8 + 8),
/// the two string length prefixes (4 + 4), 36 counters at 8 bytes each
/// (15 run totals, 8 core-stat, 3 NoC, 5 L2 and 5 DRAM counters), the
/// presence tags of the three optional fields (3), and three `f64` means
/// (24).
const METRICS_FIXED_BYTES: u64 = 8 + 8 + 4 + 4 + 36 * 8 + 3 + 3 * 8;

/// The bytes a compact encoding of `m` occupies: every counter at 8
/// bytes, strings length-prefixed, optional fields tagged. A
/// platform-independent stand-in for the result's memory cost, fixed so
/// that eviction order and every governance byte count stay put.
fn metrics_bytes(m: &RunMetrics) -> u64 {
    let breakdowns = u64::from(m.i_breakdown.is_some()) + u64::from(m.d_breakdown.is_some());
    METRICS_FIXED_BYTES
        + (m.workload.len() + m.mode.len()) as u64
        + 24 * breakdowns
        + 8 * u64::from(m.bloom_accuracy.is_some())
}

/// The byte weight of one cached result: `ENTRY_OVERHEAD`, its
/// `metrics_bytes`, and the in-memory footprint of any observation
/// artifacts it carries (event trace, interval series). Observation
/// payloads dominate when present — an observed run with a deep event
/// ring weighs thousands of entries' worth of bare metrics — which is
/// exactly why they must be charged.
pub fn result_weight(result: &RunResult) -> u64 {
    let mut weight = ENTRY_OVERHEAD + metrics_bytes(&result.metrics);
    if let Some(obs) = &result.obs {
        weight += (obs.events.len() * std::mem::size_of::<TraceEvent>()) as u64;
        if let Some(series) = &obs.series {
            weight += (series.epochs.len() * std::mem::size_of::<Epoch>()) as u64;
        }
    }
    weight
}

/// One resident cache entry, threaded into the intrusive LRU list by
/// key (`prev` toward the MRU end, `next` toward the LRU end).
struct CacheEntry {
    result: RunResult,
    weight: u64,
    prev: Option<u64>,
    next: Option<u64>,
}

/// A bounded, byte-weighted, LRU-evicting map from
/// [`RunRequest::stable_key`] to [`RunResult`].
///
/// Every entry is charged its [`result_weight`]; inserting past
/// [`BoundedResultCache::max_bytes`] evicts from the least-recently-used
/// end until the new entry fits. Reads ([`BoundedResultCache::get`])
/// promote to most-recently-used. A result heavier than the entire
/// budget is never admitted (the caller still holds it; it just is not
/// memoized). The structure is a plain `HashMap` plus an intrusive
/// doubly-linked list of keys — O(1) insert/get/evict, no external
/// dependencies.
pub struct BoundedResultCache {
    max_bytes: u64,
    bytes: u64,
    evictions: u64,
    map: HashMap<u64, CacheEntry>,
    /// Most-recently-used key.
    head: Option<u64>,
    /// Least-recently-used key (the eviction end).
    tail: Option<u64>,
}

impl BoundedResultCache {
    /// An empty cache with a budget of `max_bytes`.
    pub fn new(max_bytes: u64) -> Self {
        BoundedResultCache {
            max_bytes,
            bytes: 0,
            evictions: 0,
            map: HashMap::new(),
            head: None,
            tail: None,
        }
    }

    /// The configured byte budget.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Bytes currently resident. Never exceeds
    /// [`BoundedResultCache::max_bytes`].
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted over the cache's lifetime (including inserts too
    /// heavy to ever become resident, which count as self-evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Rebudgets the cache, evicting LRU-first if the new budget is
    /// smaller than the resident set.
    pub fn set_max_bytes(&mut self, max_bytes: u64) {
        self.max_bytes = max_bytes;
        self.evict_to(max_bytes);
    }

    /// Whether `key` is resident (no LRU promotion).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// The resident result for `key`, promoted to most-recently-used.
    pub fn get(&mut self, key: u64) -> Option<&RunResult> {
        if !self.map.contains_key(&key) {
            return None;
        }
        self.detach(key);
        self.push_front(key);
        Some(&self.map[&key].result)
    }

    /// Inserts (or replaces) `key`, evicting LRU entries until the new
    /// entry fits. Returns whether the entry is resident afterwards
    /// (false only when it alone outweighs the whole budget).
    pub fn insert(&mut self, key: u64, result: RunResult) -> bool {
        let weight = result_weight(&result);
        if self.map.contains_key(&key) {
            self.remove(key);
        }
        if weight > self.max_bytes {
            // Too heavy to ever fit: count the refusal as an eviction of
            // itself so thrash under a tiny budget is visible in stats.
            self.evictions += 1;
            return false;
        }
        self.evict_to(self.max_bytes - weight);
        self.map.insert(key, CacheEntry { result, weight, prev: None, next: None });
        self.bytes += weight;
        self.push_front(key);
        true
    }

    /// Removes `key`, returning whether it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        if !self.map.contains_key(&key) {
            return false;
        }
        self.detach(key);
        let entry = self.map.remove(&key).expect("checked resident");
        self.bytes -= entry.weight;
        true
    }

    /// Evicts least-recently-used entries until at most `budget` bytes
    /// are resident.
    fn evict_to(&mut self, budget: u64) {
        while self.bytes > budget {
            let victim = self.tail.expect("bytes > 0 implies a tail entry");
            self.remove(victim);
            self.evictions += 1;
        }
    }

    /// Unlinks `key` from the LRU list (the map entry stays).
    fn detach(&mut self, key: u64) {
        let (prev, next) = {
            let e = &self.map[&key];
            (e.prev, e.next)
        };
        match prev {
            Some(p) => self.map.get_mut(&p).expect("linked prev exists").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.map.get_mut(&n).expect("linked next exists").prev = prev,
            None => self.tail = prev,
        }
        let e = self.map.get_mut(&key).expect("detaching a resident key");
        e.prev = None;
        e.next = None;
    }

    /// Links `key` in at the most-recently-used end.
    fn push_front(&mut self, key: u64) {
        let old_head = self.head;
        {
            let e = self.map.get_mut(&key).expect("pushing a resident key");
            e.prev = None;
            e.next = old_head;
        }
        if let Some(h) = old_head {
            self.map.get_mut(&h).expect("old head exists").prev = Some(key);
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
    }
}

/// The observable state of the governance layer at one instant: what an
/// operator needs to tell "healthy", "hot", and "shedding" apart.
/// Surfaced as [`ProgressEvent::Pressure`] on the runner's [`Reporter`]
/// and queryable via [`Runner::pressure`].
///
/// [`Reporter`]: slicc_obs::Reporter
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PressureSnapshot {
    /// Submissions waiting for an execution slot.
    pub queue_depth: usize,
    /// Fresh simulations in flight, submitted or batched.
    pub inflight: usize,
    /// Bytes resident in the bounded run cache.
    pub cache_bytes: u64,
    /// The run cache's byte budget.
    pub cache_budget: u64,
    /// Entries resident in the run cache.
    pub cache_entries: usize,
    /// Submissions shed by admission control so far (process total).
    pub shed: u64,
}

impl PressureSnapshot {
    /// Renders this snapshot as its telemetry event.
    pub fn event(&self) -> ProgressEvent {
        ProgressEvent::Pressure {
            queue_depth: self.queue_depth,
            inflight: self.inflight,
            cache_bytes: self.cache_bytes,
            cache_budget: self.cache_budget,
            cache_entries: self.cache_entries,
            shed: self.shed,
        }
    }
}

/// The admission policy of [`Runner::submit`], installed on the runner
/// by [`SimService::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Fresh submissions allowed to simulate concurrently (clamped to at
    /// least 1). Coalesced waiters, cache hits and batches do not
    /// consume slots.
    pub max_inflight: usize,
    /// Submissions allowed to *wait* for a slot before further arrivals
    /// are shed with [`RunError::Overloaded`]. Zero means "never queue":
    /// anything beyond the in-flight slots is shed immediately.
    pub queue_limit: usize,
}

/// A resource-governed submission front door over a shared [`Runner`]:
/// the handle a long-lived server exposes to its clients.
///
/// The runner does all the work — [`Runner::submit`] documents the
/// resolution order (memoized → coalesced → admitted → queued → shed) —
/// and this handle installs the sizing policy on it.
pub struct SimService {
    runner: Arc<Runner>,
}

impl SimService {
    /// A service over `runner`, whose submissions are admitted per `cfg`.
    /// The policy lives on the runner, so a later service over the same
    /// runner replaces it.
    pub fn new(runner: Arc<Runner>, cfg: ServiceConfig) -> Self {
        runner.set_admission(cfg);
        SimService { runner }
    }

    /// The shared runner (stats, cancellation, governance knobs).
    pub fn runner(&self) -> &Arc<Runner> {
        &self.runner
    }

    /// The runner's current pressure ([`Runner::pressure`]).
    pub fn pressure(&self) -> PressureSnapshot {
        self.runner.pressure()
    }

    /// Submits one request, blocking until it resolves
    /// ([`Runner::submit`]).
    pub fn submit(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        self.runner.submit(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use slicc_trace::{TraceScale, Workload};
    use std::time::Duration;

    fn tiny_request(seed: u64) -> RunRequest {
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test()).with_seed(seed)
    }

    /// A synthetic result whose weight is controlled through the
    /// workload-name string (charged byte for byte).
    fn padded_result(pad: usize) -> RunResult {
        let mut result = RunResult {
            metrics: Default::default(),
            digest: 0,
            wall: Duration::from_millis(1),
            sim_ips: 0.0,
            from_cache: false,
            obs: None,
        };
        result.metrics.workload = "w".repeat(pad);
        result
    }

    #[test]
    fn weights_charge_the_serialized_size_and_obs_payloads() {
        let small = padded_result(1);
        let big = padded_result(1000);
        assert!(result_weight(&big) >= result_weight(&small) + 999);

        let mut observed = padded_result(1);
        let event = TraceEvent {
            core: slicc_common::CoreId::new(0),
            cycle: 0,
            kind: slicc_obs::EventKind::ThreadStart { thread: 0 },
        };
        observed.obs = Some(slicc_obs::Observation {
            events: vec![event; 100],
            dropped_events: 0,
            series: None,
        });
        assert!(
            result_weight(&observed)
                >= result_weight(&small) + 100 * std::mem::size_of::<TraceEvent>() as u64,
            "an event trace must weigh what it occupies"
        );
    }

    #[test]
    fn metrics_bytes_match_the_pinned_closed_form() {
        use slicc_cache::MissBreakdown;
        // An empty SLICC result: the fixed part plus the mode name.
        let empty = RunMetrics { mode: "SLICC".into(), ..Default::default() };
        assert_eq!(metrics_bytes(&empty), 344);
        // Every optional field but the D-side breakdown present.
        let dense = RunMetrics {
            workload: "TPC-C-1".into(),
            mode: "SLICC".into(),
            i_breakdown: Some(MissBreakdown { compulsory: 37, conflict: 38, capacity: 39 }),
            bloom_accuracy: Some(0.25),
            ..Default::default()
        };
        assert_eq!(metrics_bytes(&dense), 383);
        // Counter values never change the weight, only which fields exist.
        let busy = RunMetrics { instructions: u64::MAX, cycles: 7, ..dense.clone() };
        assert_eq!(metrics_bytes(&busy), 383);
        let both = RunMetrics { d_breakdown: dense.i_breakdown, ..dense };
        assert_eq!(metrics_bytes(&both), 383 + 24);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_recency() {
        let unit = result_weight(&padded_result(16));
        let mut cache = BoundedResultCache::new(unit * 3);
        for key in 0..3u64 {
            assert!(cache.insert(key, padded_result(16)));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), unit * 3);
        assert_eq!(cache.evictions(), 0);

        // Touch key 0 so key 1 is now least-recently-used.
        assert!(cache.get(0).is_some());
        assert!(cache.insert(3, padded_result(16)));
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.contains(1), "the LRU entry must be the victim");
        assert!(cache.contains(0) && cache.contains(2) && cache.contains(3));
        assert!(cache.bytes() <= cache.max_bytes());
    }

    #[test]
    fn an_entry_heavier_than_the_budget_is_refused_not_overflowed() {
        let mut cache = BoundedResultCache::new(64);
        assert!(!cache.insert(1, padded_result(4096)));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.evictions(), 1, "the refusal is a self-eviction in stats");
    }

    #[test]
    fn replacing_a_key_recharges_its_weight() {
        let mut cache = BoundedResultCache::new(1 << 20);
        cache.insert(1, padded_result(16));
        let light = cache.bytes();
        cache.insert(1, padded_result(512));
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > light, "the replacement's weight must be charged");
        cache.insert(1, padded_result(16));
        assert_eq!(cache.bytes(), light, "shrinking back must refund the difference");
    }

    #[test]
    fn rebudgeting_down_evicts_to_fit() {
        let unit = result_weight(&padded_result(16));
        let mut cache = BoundedResultCache::new(unit * 4);
        for key in 0..4u64 {
            cache.insert(key, padded_result(16));
        }
        cache.set_max_bytes(unit * 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() <= cache.max_bytes());
        assert!(cache.contains(2) && cache.contains(3), "the newest entries survive");
    }

    #[test]
    fn service_serves_cache_hits_without_consuming_slots() {
        let runner = Arc::new(Runner::new(1));
        let service =
            SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 0 });
        let req = tiny_request(1);
        let first = service.submit(&req).expect("fresh point completes");
        assert!(!first.from_cache);
        let second = service.submit(&req).expect("memoized point is served");
        assert!(second.from_cache);
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.coalesced_hits, 0);
        assert_eq!(stats.shed_points, 0);
    }

    #[test]
    fn a_stampede_coalesces_to_exactly_one_simulation() {
        let runner = Arc::new(Runner::new(2));
        let service = SimService::new(
            Arc::clone(&runner),
            ServiceConfig { max_inflight: 2, queue_limit: 16 },
        );
        let req = tiny_request(2);
        let reference = req.try_execute().expect("reference run completes");

        let digests: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| service.submit(&req).map(|r| r.metrics.digest())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap().expect("submission completes")).collect()
        });
        for digest in &digests {
            assert_eq!(*digest, reference.metrics.digest(), "coalesced results must be identical");
        }
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 1, "one simulation no matter how many clients");
        assert_eq!(
            stats.cache_hits + stats.coalesced_hits,
            7,
            "every duplicate is served, not simulated: {stats:?}"
        );
        assert_eq!(service.pressure().inflight, 0, "all slots released");
    }

    #[test]
    fn overload_sheds_with_a_typed_rejection_and_recovers() {
        use crate::config::InjectedFault;
        let runner = Arc::new(Runner::new(1));
        let service =
            SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 0 });
        // A slow point holds the only slot long enough for the shed to be
        // deterministic.
        let slow_config = SimConfig {
            fault_injection: Some(InjectedFault::SlowConsumer { delay_ms: 400 }),
            ..SimConfig::tiny_test()
        };
        let slow = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), slow_config);

        std::thread::scope(|scope| {
            let occupant = scope.spawn(|| service.submit(&slow));
            // Wait until the slow submission actually holds the slot.
            while service.pressure().inflight == 0 {
                std::thread::yield_now();
            }
            let err = service
                .submit(&tiny_request(3))
                .expect_err("with the slot held and no queue, arrivals must shed");
            match &err {
                RunError::Overloaded { retry_after, inflight, limit, .. } => {
                    assert!(*retry_after > Duration::ZERO);
                    assert_eq!(*inflight, 1);
                    assert_eq!(*limit, 0);
                }
                other => panic!("expected Overloaded, got {other}"),
            }
            assert!(err.is_overload());
            occupant.join().unwrap().expect("the slow point itself completes");
        });

        // Recovery: the same request is admitted once the slot frees.
        let recovered = service.submit(&tiny_request(3)).expect("post-overload submission");
        assert!(!recovered.from_cache);
        let stats = runner.stats();
        assert_eq!(stats.shed_points, 1);
        assert_eq!(service.pressure().shed, 1);
    }

    #[test]
    fn queued_submissions_wait_instead_of_shedding() {
        let runner = Arc::new(Runner::new(1));
        let service =
            SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 8 });
        let reqs: Vec<RunRequest> = (10..14).map(tiny_request).collect();
        let service = &service;
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                reqs.iter().map(|req| scope.spawn(move || service.submit(req))).collect();
            for h in handles {
                h.join().unwrap().expect("queued submissions complete");
            }
        });
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 4, "all distinct points simulate");
        assert_eq!(stats.shed_points, 0, "a roomy queue sheds nothing");
        let p = service.pressure();
        assert_eq!((p.queue_depth, p.inflight), (0, 0));
    }
}
