//! Hierarchical span tracing: RAII guards with nanosecond timestamps,
//! parent/child linkage, and per-thread track ids, recorded into
//! bounded per-thread ring buffers.
//!
//! Tracing is off by default — [`Span::enter`] then costs one relaxed
//! load. When enabled (CLI `--trace-out`, or [`set_tracing_enabled`]),
//! each completed span becomes one [`TraceEvent`] in the recording
//! thread's private buffer; a full buffer *drops the event and counts
//! it* (the `obs.trace.dropped` counter) rather than blocking or
//! reallocating, so the hot path never stalls on the tracer. Worker
//! threads fold their buffers into a global collector via
//! [`flush_thread`] before they are joined (thread-exit folding alone
//! is not enough: `thread::scope` can return before TLS destructors
//! run), and [`drain`] merges the collector with the calling thread's
//! buffer into one deterministically sorted event list.
//!
//! Track ids are assigned per thread on first use: the driving thread
//! and every worker get their own track, which is what makes pool
//! phases legible as parallel lanes in Perfetto. Name a track with
//! [`set_track_name`].

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACK: AtomicU32 = AtomicU32::new(1);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Default per-thread event-buffer capacity.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Enables or disables span recording process-wide. Defaults to off.
pub fn set_tracing_enabled(on: bool) {
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Replaces the per-thread event-buffer capacity (applies to threads
/// that have not yet recorded an event).
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(16), Ordering::Relaxed);
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: Cow<'static, str>,
    /// Track (per-thread lane) the span ran on.
    pub track: u32,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Unique span id.
    pub id: u64,
    /// Enclosing span's id on the same thread, 0 at the root.
    pub parent: u64,
}

struct Collector {
    events: Vec<TraceEvent>,
    track_names: Vec<(u32, String)>,
}

fn collector() -> std::sync::MutexGuard<'static, Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR
        .get_or_init(|| {
            Mutex::new(Collector {
                events: Vec::new(),
                track_names: Vec::new(),
            })
        })
        .lock()
        // The collector holds plain data; a panic elsewhere while the
        // lock was held cannot leave it inconsistent, so poisoning is
        // recoverable.
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct ThreadTrace {
    track: u32,
    stack: Vec<u64>,
    ring: Vec<TraceEvent>,
    dropped: u64,
}

impl ThreadTrace {
    fn track(&mut self) -> u32 {
        if self.track == 0 {
            self.track = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
        }
        self.track
    }
}

impl ThreadTrace {
    /// Moves this buffer's contents into the global collector.
    fn fold(&mut self) {
        if self.dropped > 0 {
            DROPPED.fetch_add(self.dropped, Ordering::Relaxed);
            self.dropped = 0;
        }
        if !self.ring.is_empty() {
            let mut c = collector();
            c.events.append(&mut self.ring);
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.fold();
    }
}

/// Folds the calling thread's recorded events into the global
/// collector immediately. Worker threads must call this (via
/// [`crate::flush_thread`]) before they are joined: `thread::scope`
/// can return before a finished thread's TLS destructors run, so
/// destructor-time folding alone would race with [`drain`].
pub fn flush_thread() {
    let _ = TRACE.try_with(|t| t.borrow_mut().fold());
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = const { RefCell::new(ThreadTrace {
        track: 0,
        stack: Vec::new(),
        ring: Vec::new(),
        dropped: 0,
    }) };
}

/// Names the calling thread's track in trace exports (e.g.
/// `"worker-3"`). Cheap no-op while tracing is disabled.
pub fn set_track_name(name: impl Into<String>) {
    if !tracing_enabled() {
        return;
    }
    let track = TRACE
        .try_with(|t| t.borrow_mut().track())
        .unwrap_or_default();
    if track != 0 {
        let mut c = collector();
        if !c.track_names.iter().any(|(t, _)| *t == track) {
            c.track_names.push((track, name.into()));
        }
    }
}

/// An RAII span guard: records one [`TraceEvent`] covering its
/// lifetime when dropped. While tracing is disabled, construction and
/// drop are a relaxed load each.
#[must_use = "a span measures its guard's lifetime"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    name: Cow<'static, str>,
    start_ns: u64,
    id: u64,
    parent: u64,
}

impl Span {
    /// Opens a span named `name`, child of the innermost open span on
    /// this thread.
    #[inline]
    pub fn enter(name: impl Into<Cow<'static, str>>) -> Span {
        if !tracing_enabled() {
            return Span(None);
        }
        Span::enter_slow(name.into())
    }

    /// Opens a recording span, or, when the thread's buffer is already
    /// full, counts the event as dropped and returns an inert span: no
    /// span id, stack push or clock read. A buffer only empties when it
    /// is drained or folded, so a span entered full would be dropped at
    /// its end anyway, unless a drain came in between.
    fn enter_slow(name: Cow<'static, str>) -> Span {
        // A thread whose trace is already torn down records nothing,
        // so its spans are inert too.
        let opened = TRACE
            .try_with(|t| {
                let mut t = t.borrow_mut();
                if t.ring.len() >= RING_CAPACITY.load(Ordering::Relaxed) {
                    t.dropped += 1;
                    return None;
                }
                let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
                let parent = t.stack.last().copied().unwrap_or(0);
                t.stack.push(id);
                Some((id, parent))
            })
            .ok()
            .flatten();
        Span(opened.map(|(id, parent)| SpanInner {
            name,
            start_ns: now_ns(),
            id,
            parent,
        }))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let dur_ns = now_ns().saturating_sub(inner.start_ns);
        let _ = TRACE.try_with(|t| {
            let mut t = t.borrow_mut();
            if t.stack.last() == Some(&inner.id) {
                t.stack.pop();
            }
            let track = t.track();
            if t.ring.len() < RING_CAPACITY.load(Ordering::Relaxed) {
                t.ring.push(TraceEvent {
                    name: inner.name,
                    track,
                    start_ns: inner.start_ns,
                    dur_ns,
                    id: inner.id,
                    parent: inner.parent,
                });
            } else {
                t.dropped += 1;
            }
        });
    }
}

/// Everything [`drain`] returns: the recorded events, track names, and
/// the overflow count.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// All recorded events, sorted by (track, start, id).
    pub events: Vec<TraceEvent>,
    /// Track id → display name, where assigned.
    pub track_names: Vec<(u32, String)>,
    /// Events dropped because a thread's buffer was full.
    pub dropped: u64,
}

/// Takes every recorded event out of the tracer: the global collector
/// (exited threads) plus the calling thread's buffer. Events are
/// sorted by (track, start, id) so repeated exports are stable.
pub fn drain() -> TraceDump {
    let mut dump = TraceDump::default();
    {
        let mut c = collector();
        dump.events.append(&mut c.events);
        dump.track_names = c.track_names.clone();
    }
    let _ = TRACE.try_with(|t| {
        let mut t = t.borrow_mut();
        dump.events.append(&mut t.ring);
        dump.dropped += t.dropped;
        t.dropped = 0;
    });
    dump.dropped += DROPPED.swap(0, Ordering::Relaxed);
    dump.events.sort_by_key(|e| (e.track, e.start_ns, e.id));
    dump
}

/// Caches nothing but reads nicely at call sites:
/// `let _s = obs::span!("core.phase.atpg");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing tests share the process-global tracer; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_tracing_enabled(false);
        drop(Span::enter("quiet"));
        assert!(drain().events.iter().all(|e| e.name != "quiet"));
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let _g = lock();
        set_tracing_enabled(true);
        {
            let _outer = Span::enter("outer");
            let _inner = Span::enter("inner");
        }
        set_tracing_enabled(false);
        let dump = drain();
        let outer = dump.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = dump.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.track, outer.track);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns + 1_000);
    }

    #[test]
    fn worker_threads_get_their_own_tracks() {
        let _g = lock();
        set_tracing_enabled(true);
        {
            let _root = Span::enter("root");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        set_track_name("worker");
                        drop(Span::enter("work"));
                        flush_thread();
                    });
                }
            });
        }
        set_tracing_enabled(false);
        let dump = drain();
        let root_track = dump.events.iter().find(|e| e.name == "root").unwrap().track;
        let worker_tracks: std::collections::BTreeSet<u32> = dump
            .events
            .iter()
            .filter(|e| e.name == "work")
            .map(|e| e.track)
            .collect();
        assert_eq!(worker_tracks.len(), 2, "one track per worker");
        assert!(!worker_tracks.contains(&root_track));
        assert!(dump
            .track_names
            .iter()
            .any(|(t, n)| worker_tracks.contains(t) && n == "worker"));
    }

    /// A span entered on a full buffer is inert, so the split between
    /// recorded and dropped events is what dropping at the span's end
    /// gave, and recorded spans keep their parents.
    #[test]
    fn full_buffer_spans_are_inert() {
        let _g = lock();
        set_ring_capacity(16);
        set_tracing_enabled(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                let outer = Span::enter("outer");
                for _ in 0..40 {
                    let _child = Span::enter("child");
                    drop(Span::enter("leaf"));
                }
                // Buffer full: inert, and its stack push never happens.
                assert!(Span::enter("late").0.is_none());
                drop(outer);
                flush_thread();
            });
        });
        set_tracing_enabled(false);
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        let dump = drain();
        let mine: Vec<&TraceEvent> = dump
            .events
            .iter()
            .filter(|e| ["outer", "child", "leaf", "late"].contains(&e.name.as_ref()))
            .collect();
        // Eight child/leaf pairs fill the buffer; the other 32 pairs,
        // `late` and `outer` (full when it ends) are dropped.
        assert_eq!(mine.len(), 16, "{mine:?}");
        assert_eq!(dump.dropped, 32 * 2 + 2);
        let children: Vec<&&TraceEvent> = mine.iter().filter(|e| e.name == "child").collect();
        assert_eq!(children.len(), 8);
        let outer = children[0].parent;
        assert_ne!(outer, 0);
        assert!(children.iter().all(|c| c.parent == outer));
        for leaf in mine.iter().filter(|e| e.name == "leaf") {
            assert!(
                children
                    .iter()
                    .any(|c| c.id == leaf.parent && c.id < leaf.id),
                "leaf {} has parent {}",
                leaf.id,
                leaf.parent
            );
        }
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let _g = lock();
        set_ring_capacity(16);
        set_tracing_enabled(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..100 {
                    drop(Span::enter("burst"));
                }
                flush_thread();
            });
        });
        set_tracing_enabled(false);
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        let dump = drain();
        let kept = dump.events.iter().filter(|e| e.name == "burst").count();
        assert_eq!(kept, 16);
        assert!(dump.dropped >= 84);
    }
}
