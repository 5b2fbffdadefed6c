//! The metric registry: counters, gauges, and fixed-bucket histograms,
//! registered once by static name and recorded into per-thread shards.
//!
//! # Sharding and determinism
//!
//! Every recording thread owns a private shard (a thread-local vector
//! indexed by metric id), so the hot path is a plain unsynchronized
//! add — no locks, no atomics, no false sharing. When a thread exits,
//! its shard is folded into a global *retired* accumulator under a
//! mutex (the only lock in the subsystem, taken once per thread
//! lifetime and at scrape time).
//!
//! [`snapshot`] merges the retired accumulator with the calling
//! thread's live shard. Because every merge operation is commutative
//! and associative over integers — counters and histogram buckets add,
//! gauges take the maximum — the merged result is independent of which
//! thread observed which event and of the order shards are folded, so
//! a `--jobs N` run scrapes the same snapshot regardless of work
//! stealing. (This is also why histogram sums are integral: an `f64`
//! sum would make the merge order observable.)
//!
//! Worker threads must call [`flush_thread`] before they are joined
//! (the engine pool does this for its workers), so a scrape performed
//! after a parallel phase sees every worker's contribution.
//! Thread-exit folding also happens as a backstop, but cannot be
//! relied on for scrape completeness: [`std::thread::scope`] may
//! return before a finished thread's TLS destructors have run. A
//! shard held by a still-running foreign thread is invisible until it
//! flushes or exits; scrape from the thread that drove the work.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Master switch for metric recording. Off = every recording call is a
/// single relaxed load and an early return (the "no-op sink").
static METRICS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables metric recording process-wide. Defaults to on.
pub fn set_metrics_enabled(on: bool) {
    METRICS_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// What a registered metric is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    /// Upper bucket bounds (inclusive), strictly increasing; an
    /// implicit overflow bucket follows the last bound.
    Histogram(&'static [u64]),
}

struct MetricDef {
    name: &'static str,
    kind: MetricKind,
}

/// Per-shard storage, indexed by metric id. Entries are only
/// meaningful for the id's registered kind.
#[derive(Default)]
struct ShardData {
    counters: Vec<u64>,
    gauges: Vec<f64>,
    gauge_set: Vec<bool>,
    hists: Vec<Option<HistData>>,
}

#[derive(Clone)]
struct HistData {
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl ShardData {
    fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    fn ensure(&mut self, id: usize) {
        if self.counters.len() <= id {
            self.counters.resize(id + 1, 0);
            self.gauges.resize(id + 1, 0.0);
            self.gauge_set.resize(id + 1, false);
            self.hists.resize(id + 1, None);
        }
    }

    /// Folds `src` into `self`. Commutative and associative: counters
    /// and histogram buckets add, gauges take the maximum.
    fn merge(&mut self, src: &ShardData) {
        self.ensure(src.counters.len().saturating_sub(1));
        for (i, &c) in src.counters.iter().enumerate() {
            self.counters[i] += c;
        }
        for (i, &g) in src.gauges.iter().enumerate() {
            if src.gauge_set[i] {
                if self.gauge_set[i] {
                    self.gauges[i] = self.gauges[i].max(g);
                } else {
                    self.gauges[i] = g;
                    self.gauge_set[i] = true;
                }
            }
        }
        for (i, h) in src.hists.iter().enumerate() {
            if let Some(h) = h {
                match &mut self.hists[i] {
                    Some(dst) => {
                        for (d, s) in dst.buckets.iter_mut().zip(&h.buckets) {
                            *d += s;
                        }
                        dst.count += h.count;
                        dst.sum += h.sum;
                    }
                    slot @ None => *slot = Some(h.clone()),
                }
            }
        }
    }
}

struct Global {
    defs: Vec<MetricDef>,
    by_name: HashMap<&'static str, u32>,
    retired: ShardData,
}

fn global() -> MutexGuard<'static, Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            Mutex::new(Global {
                defs: Vec::new(),
                by_name: HashMap::new(),
                retired: ShardData::default(),
            })
        })
        .lock()
        // The registry holds plain data; a panic elsewhere while the
        // lock was held cannot leave it inconsistent, so poisoning is
        // recoverable.
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct ThreadShard {
    data: ShardData,
}

impl ThreadShard {
    /// Moves this shard's accumulated values into the global
    /// accumulator.
    fn fold(&mut self) {
        if !self.data.is_empty() {
            let data = std::mem::take(&mut self.data);
            global().retired.merge(&data);
        }
    }
}

impl Drop for ThreadShard {
    fn drop(&mut self) {
        self.fold();
    }
}

/// Folds the calling thread's shard into the global accumulator
/// immediately. Worker threads must call this (via
/// [`crate::flush_thread`]) before they are joined: `thread::scope`
/// can return before a finished thread's TLS destructors run, so
/// destructor-time folding alone would race with [`snapshot`].
pub fn flush_thread() {
    let _ = SHARD.try_with(|s| s.borrow_mut().fold());
}

thread_local! {
    static SHARD: RefCell<ThreadShard> = RefCell::new(ThreadShard {
        data: ShardData::default(),
    });
}

/// Runs `f` on the calling thread's shard; silently drops the record
/// if the shard is unavailable (thread teardown).
fn with_shard(f: impl FnOnce(&mut ShardData)) {
    let _ = SHARD.try_with(|s| f(&mut s.borrow_mut().data));
}

fn register(name: &'static str, kind: MetricKind) -> u32 {
    let mut g = global();
    if let Some(&id) = g.by_name.get(name) {
        assert!(
            g.defs[id as usize].kind == kind,
            "metric {name:?} re-registered with a different kind"
        );
        return id;
    }
    let id = u32::try_from(g.defs.len()).expect("metric id space");
    g.defs.push(MetricDef { name, kind });
    g.by_name.insert(name, id);
    id
}

/// A monotonic counter handle. Cheap to copy; obtain once via
/// [`Counter::register`] (or the [`counter!`](crate::counter) macro,
/// which caches the handle in a local static).
#[derive(Clone, Copy, Debug)]
pub struct Counter(u32);

impl Counter {
    /// Registers (or looks up) the counter named `name`.
    pub fn register(name: &'static str) -> Counter {
        Counter(register(name, MetricKind::Counter))
    }

    /// Adds `n` to the counter on the calling thread's shard.
    #[inline]
    pub fn add(self, n: u64) {
        if n == 0 || !metrics_enabled() {
            return;
        }
        with_shard(|s| {
            s.ensure(self.0 as usize);
            s.counters[self.0 as usize] += n;
        });
    }

    /// Adds one.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }
}

/// A high-water gauge handle: shards record the last value they saw
/// and the scrape merges shards by maximum, so the snapshot value is
/// deterministic under work stealing. Use for configuration values
/// and high-water marks, not for quantities that must sum.
#[derive(Clone, Copy, Debug)]
pub struct Gauge(u32);

impl Gauge {
    /// Registers (or looks up) the gauge named `name`.
    pub fn register(name: &'static str) -> Gauge {
        Gauge(register(name, MetricKind::Gauge))
    }

    /// Records `v` on the calling thread's shard.
    #[inline]
    pub fn set(self, v: f64) {
        if !metrics_enabled() {
            return;
        }
        with_shard(|s| {
            s.ensure(self.0 as usize);
            s.gauges[self.0 as usize] = v;
            s.gauge_set[self.0 as usize] = true;
        });
    }
}

/// A fixed-bucket histogram handle over integral observations
/// (counts, sizes, nanoseconds). Bounds are inclusive upper limits;
/// observations above the last bound land in an implicit overflow
/// bucket. Sums are integral so the cross-shard merge stays exactly
/// order-independent.
#[derive(Clone, Copy, Debug)]
pub struct Histogram(u32, &'static [u64]);

impl Histogram {
    /// Registers (or looks up) the histogram named `name` with the
    /// given bucket bounds (strictly increasing). Re-registration must
    /// use identical bounds.
    pub fn register(name: &'static str, bounds: &'static [u64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name:?} bounds must be strictly increasing"
        );
        let id = register(name, MetricKind::Histogram(bounds));
        {
            // Re-registration must not silently change the bucketing.
            let g = global();
            match g.defs[id as usize].kind {
                MetricKind::Histogram(existing) => {
                    assert_eq!(existing, bounds, "histogram {name:?} bounds changed");
                }
                _ => unreachable!("registered as histogram"),
            }
        }
        Histogram(id, bounds)
    }

    /// Records one observation of `v`. The bounds ride in the handle,
    /// so this touches only the thread-local shard.
    #[inline]
    pub fn observe(self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        let bounds = self.1;
        with_shard(|s| {
            s.ensure(self.0 as usize);
            let h = s.hists[self.0 as usize].get_or_insert_with(|| HistData {
                buckets: vec![0; bounds.len() + 1],
                count: 0,
                sum: 0,
            });
            let slot = bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len());
            h.buckets[slot] += 1;
            h.count += 1;
            h.sum = h.sum.saturating_add(v);
        });
    }
}

/// Caches a [`Counter`] handle in a local static and returns it.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Counter> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::Counter::register($name))
    }};
}

/// Caches a [`Gauge`] handle in a local static and returns it.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Gauge> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::Gauge::register($name))
    }};
}

/// Caches a [`Histogram`] handle in a local static and returns it.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: std::sync::OnceLock<$crate::metrics::Histogram> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::Histogram::register($name, $bounds))
    }};
}

/// One merged histogram in a [`Snapshot`]. Also usable as a
/// stand-alone shard value: [`HistogramSnapshot::merge`] is the exact
/// operation the scrape applies across per-thread shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// `bounds.len() + 1` bucket counts (last = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty histogram over `bounds`.
    pub fn empty(bounds: &[u64]) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation (same bucketing rule as the live
    /// [`Histogram`] handle).
    pub fn observe(&mut self, v: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds `other` into `self`: bucket counts, count, and sum add.
    /// Commutative and associative, so any fold order over any
    /// partition of observations yields the same result.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (d, s) in self.buckets.iter_mut().zip(&other.buckets) {
            *d += s;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// One metric's merged value in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Maximum gauge value across shards (0.0 if never set).
    Gauge(f64),
    /// Merged histogram.
    Histogram(HistogramSnapshot),
}

/// A deterministic point-in-time view of every registered metric,
/// merged across all retired shards plus the calling thread's shard.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → merged value, ordered by name.
    pub metrics: BTreeMap<&'static str, MetricValue>,
}

impl Snapshot {
    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Counter total for `name`, 0 if absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Gauge value for `name`, 0.0 if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    /// The counters and histograms accumulated since `since`
    /// (field-wise saturating difference); gauges keep their current
    /// value. Use to attribute registry activity to one run when the
    /// process hosts several.
    pub fn delta(&self, since: &Snapshot) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|(&name, v)| {
                let out = match (v, since.metrics.get(name)) {
                    (MetricValue::Counter(n), Some(MetricValue::Counter(m))) => {
                        MetricValue::Counter(n.saturating_sub(*m))
                    }
                    (MetricValue::Histogram(h), Some(MetricValue::Histogram(g)))
                        if h.bounds == g.bounds =>
                    {
                        let mut d = h.clone();
                        for (b, o) in d.buckets.iter_mut().zip(&g.buckets) {
                            *b = b.saturating_sub(*o);
                        }
                        d.count = d.count.saturating_sub(g.count);
                        d.sum = d.sum.saturating_sub(g.sum);
                        MetricValue::Histogram(d)
                    }
                    _ => v.clone(),
                };
                (name, out)
            })
            .collect();
        Snapshot { metrics }
    }

    /// The snapshot without wall-clock-derived metrics (names ending
    /// in `_ns` or `_seconds`) — the subset that must be bit-identical
    /// across repeat runs at a fixed `--jobs`.
    pub fn without_durations(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .filter(|(name, _)| !crate::names::is_duration(name))
                .map(|(&n, v)| (n, v.clone()))
                .collect(),
        }
    }

    /// Serializes the snapshot as the flat metrics JSON document (see
    /// the crate docs for the schema).
    pub fn to_json(&self) -> String {
        self.to_json_namespaced("")
    }

    /// Like [`Snapshot::to_json`], but with every metric name prefixed
    /// `<ns>.` — the serving layer uses this to publish per-job deltas
    /// (`job.<id>.engine_commits`, …) alongside daemon-wide totals
    /// without the names colliding. An empty namespace adds no prefix.
    pub fn to_json_namespaced(&self, ns: &str) -> String {
        let prefix = if ns.is_empty() {
            String::new()
        } else {
            format!("{ns}.")
        };
        let mut out = String::from("{\n  \"version\": 1,\n  \"metrics\": {");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{prefix}{name}\": ");
            match v {
                MetricValue::Counter(n) => {
                    let _ = write!(out, "{{ \"type\": \"counter\", \"value\": {n} }}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(
                        out,
                        "{{ \"type\": \"gauge\", \"value\": {} }}",
                        json_f64(*g)
                    );
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{ \"type\": \"histogram\", \"bounds\": {:?}, \"buckets\": {:?}, \"count\": {}, \"sum\": {} }}",
                        h.bounds, h.buckets, h.count, h.sum
                    );
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Formats a finite f64 as a JSON number (JSON has no NaN/inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Scrapes every registered metric: the retired accumulator (all
/// exited threads) merged with the calling thread's live shard.
pub fn snapshot() -> Snapshot {
    let mut merged = ShardData::default();
    let defs: Vec<(&'static str, MetricKind)> = {
        let g = global();
        merged.merge(&g.retired);
        g.defs.iter().map(|d| (d.name, d.kind)).collect()
    };
    // The TLS borrow nests outside the registry lock (released above)
    // so a concurrent thread exit cannot deadlock against us.
    let _ = SHARD.try_with(|s| merged.merge(&s.borrow().data));
    let mut metrics = BTreeMap::new();
    for (id, (name, kind)) in defs.iter().enumerate() {
        merged.ensure(id);
        let v = match kind {
            MetricKind::Counter => MetricValue::Counter(merged.counters[id]),
            MetricKind::Gauge => MetricValue::Gauge(if merged.gauge_set[id] {
                merged.gauges[id]
            } else {
                0.0
            }),
            MetricKind::Histogram(bounds) => MetricValue::Histogram(match &merged.hists[id] {
                Some(h) => HistogramSnapshot {
                    bounds: bounds.to_vec(),
                    buckets: h.buckets.clone(),
                    count: h.count,
                    sum: h.sum,
                },
                None => HistogramSnapshot::empty(bounds),
            }),
        };
        metrics.insert(*name, v);
    }
    Snapshot { metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_deterministically() {
        let c = Counter::register("obs.test.counter_a");
        let before = snapshot().counter("obs.test.counter_a");
        c.add(3);
        c.inc();
        // Scoped worker threads fold their contributions in with an
        // explicit flush: `thread::scope` can return before their TLS
        // destructors run.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    c.add(10);
                    crate::flush_thread();
                });
            }
        });
        let after = snapshot().counter("obs.test.counter_a");
        assert_eq!(after - before, 44);
    }

    #[test]
    fn gauges_merge_by_max() {
        let g = Gauge::register("obs.test.gauge_a");
        g.set(2.0);
        std::thread::scope(|s| {
            s.spawn(|| {
                g.set(5.0);
                crate::flush_thread();
            });
            s.spawn(|| {
                g.set(3.0);
                crate::flush_thread();
            });
        });
        assert!(snapshot().gauge("obs.test.gauge_a") >= 5.0);
    }

    #[test]
    fn histogram_buckets_are_inclusive_with_overflow() {
        let h = Histogram::register("obs.test.hist_a", &[1, 10, 100]);
        let base = snapshot();
        for v in [0, 1, 2, 10, 11, 100, 1000] {
            h.observe(v);
        }
        let snap = snapshot().delta(&base);
        match snap.get("obs.test.hist_a") {
            Some(MetricValue::Histogram(hist)) => {
                assert_eq!(hist.buckets, vec![2, 2, 2, 1]);
                assert_eq!(hist.count, 7);
                assert_eq!(hist.sum, 1124);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let c = Counter::register("obs.test.counter_delta");
        c.add(7);
        let mid = snapshot();
        c.add(5);
        let d = snapshot().delta(&mid);
        assert_eq!(d.counter("obs.test.counter_delta"), 5);
    }

    #[test]
    fn without_durations_drops_wall_clock_names() {
        Counter::register("obs.test.work_ns").add(1);
        Counter::register("obs.test.work_items").add(1);
        let snap = snapshot().without_durations();
        assert!(snap.get("obs.test.work_ns").is_none());
        assert!(snap.get("obs.test.work_items").is_some());
    }

    #[test]
    fn snapshot_json_shape() {
        Counter::register("obs.test.json_counter").add(2);
        let json = snapshot().to_json();
        let v = crate::json::parse(&json).expect("exporter emits valid JSON");
        assert_eq!(v.get("version").and_then(|v| v.as_f64()), Some(1.0));
        assert!(v
            .get("metrics")
            .and_then(|m| m.get("obs.test.json_counter"))
            .is_some());
    }

    #[test]
    fn namespaced_json_prefixes_every_name() {
        Counter::register("obs.test.ns_counter").add(1);
        let json = snapshot().to_json_namespaced("job.j42");
        let v = crate::json::parse(&json).expect("valid JSON");
        let metrics = v.get("metrics").expect("metrics object");
        assert!(metrics.get("job.j42.obs.test.ns_counter").is_some());
        assert!(metrics.get("obs.test.ns_counter").is_none());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        Counter::register("obs.test.kind_clash");
        Gauge::register("obs.test.kind_clash");
    }
}
