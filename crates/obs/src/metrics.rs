//! Lock-light typed metrics: registry, instruments, and exposition.
//!
//! Three pieces:
//!
//! - **Instruments** — [`Counter`] (monotonic), [`Gauge`] (last-write),
//!   and [`Histogram`] (fixed log2 buckets). Handles are `Arc`-backed
//!   and `Clone`; every update is a relaxed atomic op with no lock, so
//!   hot paths pay one RMW per record. [`Log2Hist`] is the plain
//!   (non-atomic) twin for single-owner accumulation.
//! - **Registry** — [`MetricsRegistry`] maps names to instruments. The
//!   registry lock is taken only at registration and snapshot time
//!   (cold paths); recording never touches it.
//! - **Exposition** — [`MetricsSnapshot`] is a deterministic,
//!   name-sorted point-in-time copy, rendered as a Prometheus-style
//!   text dump ([`MetricsSnapshot::to_prometheus`]) or a JSON object
//!   ([`MetricsSnapshot::to_json`]) built on `slicc_common::json`.
//!
//! Like the rest of `slicc-obs`, nothing here feeds back into the
//! simulation: metrics observe results, they never produce them. The
//! golden-digest suite pins that contract.

use slicc_common::push_json_str;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets: bucket 0 holds exact zeros, bucket `i`
/// (1..=30) holds `2^(i-1) <= v < 2^i`, and bucket 31 is the overflow
/// catch-all for `v >= 2^30`.
pub const HIST_BUCKETS: usize = 32;

/// The bucket index a value lands in.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`None` for the unbounded last
/// bucket). Bucket 0 covers only zero; bucket `i` covers values up to
/// `2^i - 1`.
#[inline]
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

// ---------------------------------------------------------------------------
// Plain (single-owner) histogram

/// A plain fixed-log2-bucket histogram for single-owner accumulation:
/// one owner records into it without any atomics, then hands it off
/// wholesale ([`Histogram::absorb`]).
#[derive(Clone, PartialEq, Eq)]
pub struct Log2Hist {
    /// Per-bucket counts (see [`log2_bucket`] for the bucket layout).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total values recorded.
    pub count: u64,
    /// Exact sum of all recorded values (wrapping on overflow).
    pub sum: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl fmt::Debug for Log2Hist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Elide the mostly-zero bucket array: show only occupied buckets.
        let occupied: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
            .collect();
        f.debug_struct("Log2Hist")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("buckets", &occupied)
            .finish()
    }
}

impl Log2Hist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The point-in-time copy used by exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot { buckets: self.buckets.to_vec(), count: self.count, sum: self.sum }
    }
}

// ---------------------------------------------------------------------------
// Atomic instruments

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a free-standing counter (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Creates a free-standing gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A concurrent fixed-log2-bucket histogram handle. Cloning shares the
/// underlying cells; recording is three relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram(Arc<HistCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistCells::new()))
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

impl Histogram {
    /// Creates a free-standing histogram (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Folds a finished plain histogram in wholesale (bucket-for-bucket).
    pub fn absorb(&self, h: &Log2Hist) {
        for (cell, &c) in self.0.buckets.iter().zip(h.buckets.iter()) {
            if c != 0 {
                cell.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(h.count, Ordering::Relaxed);
        self.0.sum.fetch_add(h.sum, Ordering::Relaxed);
    }

    /// The point-in-time copy used by exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry

#[derive(Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Registered {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A lock-light metrics registry.
///
/// Registration hands out `Arc`-backed instrument handles; the internal
/// lock guards only the name table, so recording through a handle never
/// contends with anything. Registering the same name twice returns the
/// *same* underlying instrument (and panics on a kind clash — that is a
/// programmer error, not a runtime condition).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Vec<Registered>>>,
}

fn assert_valid_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(head_ok && tail_ok, "invalid metric name {name:?}: want [a-zA-Z_][a-zA-Z0-9_]*");
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        assert_valid_name(name);
        let mut table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = table.iter().find(|r| r.name == name) {
            return existing.instrument.clone();
        }
        let instrument = make();
        table.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Registers (or re-opens) a monotonic counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or re-opens) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or re-opens) a log2-bucket histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, || Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut samples: Vec<MetricSample> = table
            .iter()
            .map(|r| MetricSample {
                name: r.name.clone(),
                help: r.help.clone(),
                value: match &r.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Snapshot + exposition

/// A histogram's frozen state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

/// One frozen metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One named frozen metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A deterministic (name-sorted) point-in-time copy of a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All samples, sorted by name.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.samples.iter().find(|s| s.name == name).map(|s| &s.value)
    }

    /// Scalar (counter or gauge) value by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// Renders the Prometheus-style text exposition: `# HELP` / `# TYPE`
    /// preamble per metric, cumulative `_bucket{le="..."}` series plus
    /// `_sum` / `_count` for histograms.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            if !s.help.is_empty() {
                out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
            }
            out.push_str(&format!("# TYPE {} {}\n", s.name, s.value.kind()));
            match &s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{} {v}\n", s.name));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, c) in h.buckets.iter().enumerate() {
                        cumulative += c;
                        match bucket_bound(i) {
                            Some(le) => out.push_str(&format!(
                                "{}_bucket{{le=\"{le}\"}} {cumulative}\n",
                                s.name
                            )),
                            None => out.push_str(&format!(
                                "{}_bucket{{le=\"+Inf\"}} {cumulative}\n",
                                s.name
                            )),
                        }
                    }
                    out.push_str(&format!("{}_sum {}\n", s.name, h.sum));
                    out.push_str(&format!("{}_count {}\n", s.name, h.count));
                }
            }
        }
        out
    }

    /// Renders the JSON snapshot:
    /// `{"metrics": [{"name", "type", "help", ...value fields}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            push_json_str(&mut out, &s.name);
            out.push_str(", \"type\": \"");
            out.push_str(s.value.kind());
            out.push_str("\", \"help\": ");
            push_json_str(&mut out, &s.help);
            match &s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!(", \"value\": {v}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(", \"count\": {}, \"sum\": {}", h.count, h.sum));
                    out.push_str(", \"buckets\": [");
                    let mut cumulative = 0u64;
                    for (bi, c) in h.buckets.iter().enumerate() {
                        if bi > 0 {
                            out.push_str(", ");
                        }
                        cumulative += c;
                        match bucket_bound(bi) {
                            Some(le) => out.push_str(&format!(
                                "{{\"le\": \"{le}\", \"count\": {cumulative}}}"
                            )),
                            None => out.push_str(&format!(
                                "{{\"le\": \"+Inf\", \"count\": {cumulative}}}"
                            )),
                        }
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicc_common::SplitMix64;

    #[test]
    fn bucket_layout_covers_the_domain() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound(0), Some(0));
        assert_eq!(bucket_bound(1), Some(1));
        assert_eq!(bucket_bound(2), Some(3));
        assert_eq!(bucket_bound(HIST_BUCKETS - 1), None);
    }

    #[test]
    fn prop_every_value_lands_in_a_bucket_containing_it() {
        let mut rng = SplitMix64::new(0x511cc);
        for _ in 0..10_000 {
            // Spread values across all magnitudes by masking with a
            // random width.
            let width = rng.next_u64() % 64;
            let v = rng.next_u64() >> width;
            let b = log2_bucket(v);
            // Lower edge: everything below this bucket is smaller.
            if b > 0 {
                let below = bucket_bound(b - 1).unwrap();
                assert!(v > below, "{v} should exceed bucket {b}'s lower edge {below}");
            }
            // Upper edge: the value is within the inclusive bound.
            if let Some(le) = bucket_bound(b) {
                assert!(v <= le, "{v} should be <= bucket {b}'s bound {le}");
            }
        }
    }

    #[test]
    fn prop_histogram_count_sum_and_buckets_reconcile() {
        let mut rng = SplitMix64::new(0xfeed);
        let mut plain = Log2Hist::new();
        let atomic = Histogram::new();
        let mut expect_sum = 0u64;
        const N: u64 = 4_096;
        for _ in 0..N {
            let v = rng.next_u64() >> (rng.next_u64() % 64);
            plain.record(v);
            atomic.record(v);
            expect_sum = expect_sum.wrapping_add(v);
        }
        for snap in [plain.snapshot(), atomic.snapshot()] {
            assert_eq!(snap.count, N);
            assert_eq!(snap.sum, expect_sum);
            assert_eq!(snap.buckets.iter().sum::<u64>(), N, "buckets must partition the count");
        }
        assert_eq!(plain.snapshot(), atomic.snapshot());
    }

    #[test]
    fn prop_absorb_equals_recording_directly() {
        let mut rng = SplitMix64::new(0xabcd);
        let mut plain = Log2Hist::new();
        let direct = Histogram::new();
        for _ in 0..1_000 {
            let v = rng.next_u64() % 1_000_000;
            plain.record(v);
            direct.record(v);
        }
        let absorbed = Histogram::new();
        absorbed.absorb(&plain);
        assert_eq!(absorbed.snapshot(), direct.snapshot());
    }

    #[test]
    fn plain_merge_adds_bucketwise() {
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        for v in [0, 1, 5, 1024] {
            a.record(v);
        }
        for v in [3, 5, 1 << 40] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count, 7);
        assert_eq!(merged.sum, a.sum + b.sum);
        assert_eq!(merged.buckets[log2_bucket(5)], 2);
    }

    #[test]
    fn counters_sum_exactly_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t_total", "test counter");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(reg.snapshot().value("t_total"), Some(40_000));
    }

    #[test]
    fn reregistration_shares_the_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("shared", "");
        let b = reg.counter("shared", "ignored on reopen");
        a.add(3);
        b.add(4);
        assert_eq!(reg.snapshot().value("shared"), Some(7));
        assert_eq!(reg.snapshot().samples.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("clash", "");
        reg.gauge("clash", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new().counter("bad-name", "");
    }

    #[test]
    fn prop_snapshot_is_name_sorted_regardless_of_registration_order() {
        let mut rng = SplitMix64::new(0x0ddba11);
        let reg = MetricsRegistry::new();
        let mut names: Vec<String> = (0..50).map(|i| format!("m_{:02}", i)).collect();
        // Fisher–Yates shuffle with the deterministic PRNG.
        for i in (1..names.len()).rev() {
            names.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for n in &names {
            reg.counter(n, "");
        }
        let snap = reg.snapshot();
        let got: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got, want, "snapshot must be name-sorted");
        // And a second snapshot is byte-identical.
        assert_eq!(snap, reg.snapshot());
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("runs_total", "completed runs").add(17);
        reg.gauge("queue_len", "current depth").set(3);
        let h = reg.histogram("latency_nanos", "collect latency");
        for v in [0, 1, 7, 900, 1 << 35] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_text_has_the_expected_shape() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE runs_total counter\nruns_total 17\n"));
        assert!(text.contains("# TYPE queue_len gauge\nqueue_len 3\n"));
        assert!(text.contains("# TYPE latency_nanos histogram\n"));
        assert!(text.contains("latency_nanos_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("latency_nanos_count 5\n"));
        // Cumulative bucket counts must be monotone non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must be monotone: {line}");
            last = v;
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("line must be name value");
            assert!(!name.is_empty());
            value.parse::<f64>().expect("value must be numeric");
        }
    }

    #[test]
    fn json_snapshot_is_valid_and_complete() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"metrics\": ["));
        assert!(json.contains("\"name\": \"runs_total\", \"type\": \"counter\""));
        assert!(json.contains("\"value\": 17"));
        assert!(json.contains("\"le\": \"+Inf\", \"count\": 5"));
        // Balanced braces/brackets — a cheap structural validity check
        // (full parsing happens in the CI smoke lane with python).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
