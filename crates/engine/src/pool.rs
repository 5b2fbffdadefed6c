//! Scoped worker pool with per-task panic isolation.
//!
//! Each parallel phase hands the pool a slice of items; every item is
//! one task. Workers take the next unclaimed item from a shared atomic
//! cursor, one at a time, so a slow item holds up only its own worker
//! and there is nothing to plan or steal. Results are returned
//! positionally, so callers see a deterministic layout regardless of
//! which worker computed what.
//!
//! The pool uses [`std::thread::scope`], so tasks may borrow from the
//! caller's stack (the shared netlist snapshot, estimator, etc.).
//! Per-worker mutable context (solver arenas, what-if scratch) is owned
//! by the caller, one slot per worker, and lent to that worker for each
//! phase: a proof arena's cached miter base survives from one phase to
//! the next exactly as it does in a single-threaded loop.
//!
//! # Panic isolation
//!
//! Every task executes under [`std::panic::catch_unwind`]. A task that
//! panics is *quarantined*: its slot stays `None` in the positional
//! result vector and the caller decides how to recover (recompute, skip,
//! or treat conservatively). The panicking worker's context may have
//! been poisoned mid-update, so it is discarded and rebuilt via
//! `make_ctx` — a logical respawn that keeps the OS thread. This holds
//! at every width: one worker runs its tasks inline on the caller's
//! thread under the same isolation.
//! After [`MAX_WORKER_LOSSES`] contained panics in one phase the pool
//! stops trusting parallel execution: workers stop claiming items and
//! whatever no worker claimed runs sequentially, in index order, on the
//! caller's thread (still panic-isolated). Each degradation event
//! increments both the pool's own [`PoolResilience`] counters and the
//! matching `engine.resilience.*` registry metrics.

use powder_faults::{fires, FaultState, SITE_WORKER_PANIC};
use powder_obs as obs;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Contained worker panics tolerated per phase before the pool degrades
/// to sequential draining.
pub const MAX_WORKER_LOSSES: usize = 3;

/// Degradation-event counters for one pool instance, cumulative across
/// every phase it runs. The obs registry carries the same events
/// process-wide; these exist so a single run can report *its own*
/// resilience record even when other pools share the process.
#[derive(Debug, Default)]
pub struct PoolResilience {
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
    quarantined_batches: AtomicU64,
    degraded_phases: AtomicU64,
}

impl PoolResilience {
    /// Worker panics caught and contained.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Worker contexts rebuilt after a contained panic.
    pub fn worker_respawns(&self) -> u64 {
        self.worker_respawns.load(Ordering::Relaxed)
    }

    /// Tasks (one item each) whose results were lost to a panic.
    pub fn quarantined_batches(&self) -> u64 {
        self.quarantined_batches.load(Ordering::Relaxed)
    }

    /// Phases that fell back to sequential draining.
    pub fn degraded_phases(&self) -> u64 {
        self.degraded_phases.load(Ordering::Relaxed)
    }
}

/// A fixed-width worker pool. Threads are spawned per call and joined
/// before it returns; the type carries the worker count, the optional
/// fault-injection plan, and the resilience counters.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    jobs: usize,
    faults: Option<Arc<FaultState>>,
    resilience: Arc<PoolResilience>,
}

impl WorkerPool {
    /// A pool that runs phases on `jobs` workers (minimum 1).
    pub fn new(jobs: usize) -> Self {
        WorkerPool {
            jobs: jobs.max(1),
            faults: None,
            resilience: Arc::new(PoolResilience::default()),
        }
    }

    /// Installs a fault-injection plan: each executed task becomes one
    /// occurrence of the `worker-panic` site.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultState>>) -> Self {
        self.faults = faults;
        self
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// This pool's cumulative degradation record.
    pub fn resilience(&self) -> &PoolResilience {
        &self.resilience
    }

    /// Records one contained task panic, rebuilds the panicking worker's
    /// context (it may have been left half-updated), and reports whether
    /// the phase should degrade to sequential draining.
    fn contain_panic<C>(
        &self,
        losses: &AtomicUsize,
        ctx: &mut C,
        make_ctx: &impl Fn() -> C,
    ) -> bool {
        obs::counter!(obs::names::RESILIENCE_WORKER_PANICS).inc();
        obs::counter!(obs::names::RESILIENCE_QUARANTINED_BATCHES).inc();
        obs::counter!(obs::names::RESILIENCE_WORKER_RESPAWNS).inc();
        self.resilience
            .worker_panics
            .fetch_add(1, Ordering::Relaxed);
        self.resilience
            .quarantined_batches
            .fetch_add(1, Ordering::Relaxed);
        self.resilience
            .worker_respawns
            .fetch_add(1, Ordering::Relaxed);
        *ctx = make_ctx();
        losses.fetch_add(1, Ordering::Relaxed) + 1 >= MAX_WORKER_LOSSES
    }

    /// Runs `work` on every item, one task per item, and returns the
    /// results positionally: slot `i` holds the result for `items[i]`,
    /// or `None` if its task panicked and was quarantined.
    ///
    /// `label` names the stage in observability output: every task
    /// records one span under it, on the executing worker's own track,
    /// so pool phases render as parallel lanes.
    ///
    /// `ctxs` holds one mutable context per worker, owned by the caller
    /// and kept across calls: slot `w` is lent to worker `w`, and slots
    /// a wider phase needs are created with `make_ctx`, which also
    /// rebuilds a slot after a contained panic. With one worker (or one
    /// item) everything runs inline on the caller's thread — no spawn,
    /// identical results.
    pub fn run<T, R, C>(
        &self,
        label: &'static str,
        items: &[T],
        ctxs: &mut Vec<C>,
        make_ctx: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, &T) -> R + Sync,
    ) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        C: Send,
    {
        // One task, isolated from the worker loop. The `AssertUnwindSafe`
        // is justified by the recovery protocol: on `Err` the worker's
        // context is discarded and rebuilt, so no state observed after a
        // panic crossed the unwind boundary. Injected panics unwind via
        // `resume_unwind`, which skips the global panic hook — fault
        // drills don't spam stderr.
        let run_task = |ctx: &mut C, item: &T| -> std::thread::Result<R> {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _span = obs::span!(label);
                if fires(self.faults.as_ref(), SITE_WORKER_PANIC) {
                    std::panic::resume_unwind(Box::new("injected worker panic"));
                }
                work(ctx, item)
            }))
        };

        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let losses = AtomicUsize::new(0);
        let workers = self.jobs.min(items.len()).max(1);
        if ctxs.len() < workers {
            ctxs.resize_with(workers, &make_ctx);
        }
        // Runs the items from `from` on in index order on the caller's
        // thread.
        let drain = |ctx: &mut C, from: usize, out: &mut [Option<R>]| {
            for (i, slot) in out.iter_mut().enumerate().skip(from) {
                match run_task(ctx, &items[i]) {
                    Ok(r) => *slot = Some(r),
                    Err(_) => {
                        self.contain_panic(&losses, ctx, &make_ctx);
                    }
                }
            }
        };
        if workers == 1 {
            drain(&mut ctxs[0], 0, &mut out);
            return out;
        }

        // Every `fetch_add` below `items.len()` claims that item for the
        // worker that made it, so after the join the unclaimed items are
        // exactly those from `cursor` on. `Relaxed` suffices for the
        // cursor and the flags: they publish no other data, and results
        // reach this thread through the joins.
        let cursor = AtomicUsize::new(0);
        let degraded = AtomicBool::new(false);
        let results: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = ctxs[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, ctx)| {
                    let (cursor, degraded, losses) = (&cursor, &degraded, &losses);
                    let (make_ctx, run_task) = (&make_ctx, &run_task);
                    s.spawn(move || {
                        obs::set_track_name(format!("worker-{w}"));
                        let mut local: Vec<(usize, R)> = Vec::new();
                        while !degraded.load(Ordering::Relaxed) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            match run_task(ctx, item) {
                                Ok(r) => local.push((i, r)),
                                Err(_) => {
                                    if self.contain_panic(losses, ctx, make_ctx) {
                                        degraded.store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        // Fold this worker's observability buffers
                        // before the join: scrapes right after `run`
                        // must see every worker's counts.
                        obs::flush_thread();
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(local) => Some(local),
                    Err(_) => {
                        // A lost worker must not abort the phase: its
                        // unreported results stay `None` and the caller
                        // decides how to recover (recompute, quarantine,
                        // or treat conservatively).
                        obs::counter!(obs::names::RESILIENCE_WORKER_PANICS).inc();
                        self.resilience
                            .worker_panics
                            .fetch_add(1, Ordering::Relaxed);
                        None
                    }
                })
                .collect()
        });
        for (i, r) in results.into_iter().flatten() {
            out[i] = Some(r);
        }

        // Degraded phase: too many workers were lost to trust parallel
        // execution, so the items no worker claimed run sequentially
        // here — still panic-isolated, so even a deterministic poison
        // item only quarantines itself.
        let claimed = cursor.into_inner().min(items.len());
        if claimed < items.len() {
            obs::counter!(obs::names::RESILIENCE_DEGRADED_PHASES).inc();
            self.resilience
                .degraded_phases
                .fetch_add(1, Ordering::Relaxed);
            drain(&mut ctxs[0], claimed, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_faults::FaultPlan;
    use std::cell::Cell;

    #[test]
    fn results_are_positional_and_complete() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 4] {
            let pool = WorkerPool::new(jobs);
            let out = pool.run(
                "engine.stage.test",
                &items,
                &mut Vec::new(),
                || (),
                |_, &x| x * x,
            );
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, Some((i as u64) * (i as u64)), "jobs={jobs} item {i}");
            }
        }
    }

    #[test]
    fn per_worker_context_is_reused_within_a_worker() {
        // Single worker: the same context visits every item, so the
        // counter observes all of them in order.
        let items = [0u8; 6];
        let pool = WorkerPool::new(1);
        let out = pool.run(
            "engine.stage.test",
            &items,
            &mut Vec::new(),
            || Cell::new(0u32),
            |ctx, _| {
                ctx.set(ctx.get() + 1);
                ctx.get()
            },
        );
        let seen: Vec<u32> = out.into_iter().flatten().collect();
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn injected_panic_quarantines_only_its_item() {
        let items: Vec<u32> = (0..12).collect();
        for jobs in [1, 4] {
            // The second executed task panics; the other eleven complete.
            let faults = FaultPlan::parse("worker-panic=once:2")
                .unwrap()
                .into_state();
            let pool = WorkerPool::new(jobs).with_faults(Some(faults.clone()));
            let out = pool.run(
                "engine.stage.test",
                &items,
                &mut Vec::new(),
                || (),
                |_, &x| x,
            );
            let done = out.iter().filter(|r| r.is_some()).count();
            assert_eq!(done, 11, "jobs={jobs}: exactly one item lost");
            for (i, r) in out.iter().enumerate() {
                if let Some(v) = r {
                    assert_eq!(*v, i as u32);
                }
            }
            assert_eq!(pool.resilience().worker_panics(), 1);
            assert_eq!(pool.resilience().quarantined_batches(), 1);
            assert_eq!(pool.resilience().worker_respawns(), 1);
            assert_eq!(pool.resilience().degraded_phases(), 0);
            assert_eq!(faults.fired(SITE_WORKER_PANIC), 1);
        }
    }

    #[test]
    fn panicking_worker_rebuilds_its_context() {
        // Sequential pool, panic on the second task: the context that
        // visits the later items must be a fresh one, not the poisoned
        // original.
        let faults = FaultPlan::parse("worker-panic=once:2")
            .unwrap()
            .into_state();
        let pool = WorkerPool::new(1).with_faults(Some(faults));
        let out = pool.run(
            "engine.stage.test",
            &[0u8; 4],
            &mut Vec::new(),
            || Cell::new(0u32),
            |ctx, _| {
                ctx.set(ctx.get() + 1);
                ctx.get()
            },
        );
        assert_eq!(out, vec![Some(1), None, Some(1), Some(2)]);
        assert_eq!(pool.resilience().worker_respawns(), 1);
    }

    #[test]
    fn contexts_persist_across_calls_until_a_panic_rebuilds_them() {
        let items = [0u8; 4];
        let count = |ctx: &mut Cell<u32>, _: &u8| {
            ctx.set(ctx.get() + 1);
            ctx.get()
        };
        for jobs in [1, 2] {
            // Whichever worker takes which item, the contexts together
            // have seen every item of both calls.
            let pool = WorkerPool::new(jobs);
            let mut ctxs = Vec::new();
            for call in 1..=2 {
                pool.run(
                    "engine.stage.test",
                    &items,
                    &mut ctxs,
                    || Cell::new(0),
                    count,
                );
                assert_eq!(ctxs.len(), jobs);
                let seen: u32 = ctxs.iter().map(Cell::get).sum();
                assert_eq!(seen, 4 * call, "jobs={jobs} after call {call}");
            }
        }
        // The fifth executed task (the first of the second call) panics:
        // its context is rebuilt, so the count restarts.
        let faults = FaultPlan::parse("worker-panic=once:5")
            .unwrap()
            .into_state();
        let pool = WorkerPool::new(1).with_faults(Some(faults));
        let mut ctxs = Vec::new();
        let make = || Cell::new(0);
        let first = pool.run("engine.stage.test", &items, &mut ctxs, make, count);
        assert_eq!(first, vec![Some(1), Some(2), Some(3), Some(4)]);
        let second = pool.run("engine.stage.test", &items, &mut ctxs, make, count);
        assert_eq!(second, vec![None, Some(1), Some(2), Some(3)]);
        assert_eq!(pool.resilience().worker_respawns(), 1);
    }

    #[test]
    fn repeated_losses_degrade_to_sequential_drain() {
        // Panic on every task until the loss threshold trips, then the
        // sequential drain (still fault-injected) quarantines the rest
        // one by one: nothing completes, nobody aborts.
        let items: Vec<u32> = (0..40).collect();
        let faults = FaultPlan::parse("worker-panic=every:1")
            .unwrap()
            .into_state();
        let pool = WorkerPool::new(4).with_faults(Some(faults));
        let out = pool.run(
            "engine.stage.test",
            &items,
            &mut Vec::new(),
            || (),
            |_, &x| x,
        );
        assert!(out.iter().all(|r| r.is_none()));
        assert_eq!(pool.resilience().quarantined_batches(), 40);
        assert_eq!(pool.resilience().worker_panics(), 40);
        assert_eq!(pool.resilience().degraded_phases(), 1);
    }

    #[test]
    fn real_panics_in_work_are_contained_too() {
        let items: Vec<u32> = (0..6).collect();
        let pool = WorkerPool::new(1);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let out = pool.run(
            "engine.stage.test",
            &items,
            &mut Vec::new(),
            || (),
            |_, &x| {
                assert!(x != 3, "poison item");
                x
            },
        );
        std::panic::set_hook(prev);
        assert_eq!(out, vec![Some(0), Some(1), Some(2), None, Some(4), Some(5)]);
        assert_eq!(pool.resilience().worker_panics(), 1);
    }
}
