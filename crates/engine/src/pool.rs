//! Scoped work-stealing worker pool with panic isolation.
//!
//! Each parallel phase hands the pool a slice of items plus a batch
//! plan (lists of item indices — the optimizer batches candidates per
//! stem so one worker keeps cache-warm state for a stem's variants).
//! Batches are dealt round-robin onto per-worker deques; a worker pops
//! from the front of its own deque and steals from the back of others
//! when it runs dry. Results are returned positionally, so callers see
//! a deterministic layout regardless of which worker computed what.
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
//! Every batch executes under [`std::panic::catch_unwind`]. A batch
//! that panics is *quarantined*: its item slots stay `None` in the
//! positional result vector and the caller decides how to recover
//! (recompute, skip, or treat conservatively). The panicking worker's
//! context may have been poisoned mid-update, so it is discarded and
//! rebuilt via `make_ctx` — a logical respawn that keeps the OS thread.
//! This holds at every width: one worker runs its batches inline on the
//! caller's thread under the same isolation.
//! After [`MAX_WORKER_LOSSES`] contained panics in one phase the pool
//! stops trusting parallel execution: workers drain out and whatever
//! batches remain queued run sequentially on the caller's thread (still
//! panic-isolated). Each degradation event increments both the pool's
//! own [`PoolResilience`] counters and the matching
//! `engine.resilience.*` registry metrics.

use powder_faults::{fires, FaultState, SITE_WORKER_PANIC};
use powder_obs as obs;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

    /// Batches whose results were lost to a panic.
    pub fn quarantined_batches(&self) -> u64 {
        self.quarantined_batches.load(Ordering::Relaxed)
    }

    /// Phases that fell back to sequential draining.
    pub fn degraded_phases(&self) -> u64 {
        self.degraded_phases.load(Ordering::Relaxed)
    }
}

/// A fixed-width work-stealing pool. Threads are spawned per call and
/// joined before it returns; the type carries the worker count, the
/// optional fault-injection plan, and the resilience counters.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    jobs: usize,
    faults: Option<Arc<FaultState>>,
    resilience: Arc<PoolResilience>,
}

/// A worker panic may leave a queue mutex poisoned; the queue itself (a
/// deque of indices) is valid in every observable state, so recover the
/// guard instead of propagating the poison to healthy workers.
fn lock_queue(q: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
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

    /// Installs a fault-injection plan: each executed batch becomes one
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

    /// Records one contained batch panic, rebuilds the panicking
    /// worker's context (it may have been left half-updated), and
    /// reports whether the phase should degrade to sequential draining.
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

    /// Runs `work` over every index in `batches`, stealing across
    /// workers, and scatters results back by item index: slot `i` of
    /// the returned vector holds the result for `items[i]` (or `None`
    /// if no batch named `i`, or if the batch naming `i` panicked and
    /// was quarantined).
    ///
    /// `label` names the stage in observability output: every executed
    /// batch records one span under it (on the executing worker's own
    /// track, so pool phases render as parallel lanes) plus a
    /// batch-size histogram sample.
    ///
    /// `ctxs` holds one mutable context per worker, owned by the caller
    /// and kept across calls: slot `w` is lent to worker `w`, and slots
    /// a wider phase needs are created with `make_ctx`, which also
    /// rebuilds a slot after a contained panic. `work` receives the
    /// context together with the item index and item. With one worker
    /// (or one batch) everything runs inline on the caller's thread — no
    /// spawn, identical results.
    pub fn run_batches<T, R, C>(
        &self,
        label: &'static str,
        items: &[T],
        batches: &[Vec<u32>],
        ctxs: &mut Vec<C>,
        make_ctx: impl Fn() -> C + Sync,
        work: impl Fn(&mut C, u32, &T) -> R + Sync,
    ) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        C: Send,
    {
        let batch_hist = obs::histogram!(
            obs::names::ENGINE_BATCH_ITEMS,
            obs::names::BATCH_ITEMS_BOUNDS
        );
        // One batch's execution, isolated from the worker loop. The
        // `AssertUnwindSafe` is justified by the recovery protocol: on
        // `Err` the half-built result vector is dropped and the worker's
        // context is discarded and rebuilt, so no state observed after
        // a panic crossed the unwind boundary. Injected panics unwind
        // via `resume_unwind`, which skips the global panic hook — fault
        // drills don't spam stderr.
        let run_batch = |ctx: &mut C, batch: &[u32]| -> std::thread::Result<Vec<(u32, R)>> {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                let _span = obs::span!(label);
                batch_hist.observe(batch.len() as u64);
                if fires(self.faults.as_ref(), SITE_WORKER_PANIC) {
                    std::panic::resume_unwind(Box::new("injected worker panic"));
                }
                let mut done = Vec::with_capacity(batch.len());
                for &i in batch {
                    done.push((i, work(ctx, i, &items[i as usize])));
                }
                done
            }))
        };

        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let losses = AtomicUsize::new(0);
        let workers = self.jobs.min(batches.len().max(1));
        if ctxs.len() < workers {
            ctxs.resize_with(workers, &make_ctx);
        }
        // Runs the batches named by `order` on the caller's thread.
        let drain = |ctx: &mut C, order: &mut dyn Iterator<Item = usize>, out: &mut [Option<R>]| {
            for b in order {
                match run_batch(ctx, &batches[b]) {
                    Ok(done) => {
                        for (i, r) in done {
                            out[i as usize] = Some(r);
                        }
                    }
                    Err(_) => {
                        self.contain_panic(&losses, ctx, &make_ctx);
                    }
                }
            }
        };
        if workers <= 1 {
            drain(&mut ctxs[0], &mut (0..batches.len()), &mut out);
            return out;
        }

        // Deal batches round-robin; workers pop their own front and
        // steal others' backs. `pending` counts undealt batches so
        // idle workers know when to exit.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                Mutex::new(
                    (0..batches.len())
                        .filter(|b| b % workers == w)
                        .collect::<VecDeque<_>>(),
                )
            })
            .collect();
        let pending = AtomicUsize::new(batches.len());
        let degraded = AtomicBool::new(false);

        let results: Vec<Vec<(u32, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = ctxs[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, ctx)| {
                    let queues = &queues;
                    let pending = &pending;
                    let degraded = &degraded;
                    let losses = &losses;
                    let make_ctx = &make_ctx;
                    let run_batch = &run_batch;
                    s.spawn(move || {
                        obs::set_track_name(format!("worker-{w}"));
                        let mut local: Vec<(u32, R)> = Vec::new();
                        loop {
                            if degraded.load(Ordering::Relaxed) {
                                break;
                            }
                            let grabbed = {
                                let own = lock_queue(&queues[w]).pop_front();
                                own.or_else(|| {
                                    (1..workers).find_map(|d| {
                                        lock_queue(&queues[(w + d) % workers]).pop_back()
                                    })
                                })
                            };
                            match grabbed {
                                Some(b) => {
                                    pending.fetch_sub(1, Ordering::Relaxed);
                                    match run_batch(ctx, &batches[b]) {
                                        Ok(done) => local.extend(done),
                                        Err(_) => {
                                            if self.contain_panic(losses, ctx, make_ctx) {
                                                degraded.store(true, Ordering::Relaxed);
                                                break;
                                            }
                                        }
                                    }
                                }
                                None => {
                                    if pending.load(Ordering::Relaxed) == 0 {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        // Fold this worker's observability buffers
                        // before the join: scrapes right after
                        // run_batches must see every worker's counts.
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

        for worker_results in results {
            for (i, r) in worker_results {
                out[i as usize] = Some(r);
            }
        }

        // Degraded phase: too many workers were lost to trust parallel
        // execution, so whatever the fleeing workers left behind runs
        // sequentially here — still panic-isolated, so even a
        // deterministic poison batch only quarantines itself.
        let mut leftovers: Vec<usize> = queues
            .iter()
            .flat_map(|q| std::mem::take(&mut *lock_queue(q)))
            .collect();
        if !leftovers.is_empty() {
            leftovers.sort_unstable();
            obs::counter!(obs::names::RESILIENCE_DEGRADED_PHASES).inc();
            self.resilience
                .degraded_phases
                .fetch_add(1, Ordering::Relaxed);
            drain(&mut ctxs[0], &mut leftovers.into_iter(), &mut out);
        }
        out
    }
}

/// Groups item indices into batches by a key (e.g. the candidate's
/// stem gate), preserving first-seen key order and the item order
/// within each batch. Oversized groups are split at `max_batch`.
pub fn batch_by_key<K: PartialEq + Copy>(
    keys: impl IntoIterator<Item = (u32, K)>,
    max_batch: usize,
) -> Vec<Vec<u32>> {
    let max_batch = max_batch.max(1);
    let mut batches: Vec<(K, Vec<u32>)> = Vec::new();
    for (idx, key) in keys {
        match batches.last_mut() {
            Some((k, b)) if *k == key && b.len() < max_batch => b.push(idx),
            _ => batches.push((key, vec![idx])),
        }
    }
    batches.into_iter().map(|(_, b)| b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_faults::FaultPlan;
    use std::cell::Cell;

    #[test]
    fn results_are_positional_and_complete() {
        let items: Vec<u64> = (0..97).collect();
        let batches = batch_by_key(items.iter().map(|&i| (i as u32, i / 5)), 4);
        for jobs in [1, 4] {
            let pool = WorkerPool::new(jobs);
            let out = pool.run_batches(
                "engine.stage.test",
                &items,
                &batches,
                &mut Vec::new(),
                || (),
                |_, _, &x| x * x,
            );
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, Some((i as u64) * (i as u64)), "jobs={jobs} item {i}");
            }
        }
    }

    #[test]
    fn sparse_batches_leave_unnamed_slots_empty() {
        let items = [10u32, 20, 30];
        let pool = WorkerPool::new(4);
        let out = pool.run_batches(
            "engine.stage.test",
            &items,
            &[vec![2], vec![0]],
            &mut Vec::new(),
            || (),
            |_, _, &x| x + 1,
        );
        assert_eq!(out, vec![Some(11), None, Some(31)]);
    }

    #[test]
    fn per_worker_context_is_reused_within_a_worker() {
        // Single worker: the same context visits every item, so the
        // counter observes all of them in order.
        let items = [0u8; 6];
        let pool = WorkerPool::new(1);
        let out = pool.run_batches(
            "engine.stage.test",
            &items,
            &[vec![0, 1, 2], vec![3, 4, 5]],
            &mut Vec::new(),
            || Cell::new(0u32),
            |ctx, _, _| {
                ctx.set(ctx.get() + 1);
                ctx.get()
            },
        );
        let seen: Vec<u32> = out.into_iter().flatten().collect();
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn batch_by_key_groups_runs_and_splits_large_ones() {
        let keys = [(0u32, 7u32), (1, 7), (2, 7), (3, 9), (4, 7)];
        let batches = batch_by_key(keys, 2);
        assert_eq!(batches, vec![vec![0, 1], vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn injected_panic_quarantines_only_its_batch() {
        let items: Vec<u32> = (0..12).collect();
        let batches: Vec<Vec<u32>> = items.chunks(3).map(|c| c.to_vec()).collect();
        for jobs in [1, 2] {
            // Second executed batch panics; the other three complete.
            let faults = FaultPlan::parse("worker-panic=once:2")
                .unwrap()
                .into_state();
            let pool = WorkerPool::new(jobs).with_faults(Some(faults.clone()));
            let out = pool.run_batches(
                "engine.stage.test",
                &items,
                &batches,
                &mut Vec::new(),
                || (),
                |_, _, &x| x,
            );
            let done = out.iter().filter(|r| r.is_some()).count();
            assert_eq!(done, 9, "jobs={jobs}: exactly one 3-item batch lost");
            for (i, r) in out.iter().enumerate() {
                if let Some(v) = r {
                    assert_eq!(*v, i as u32);
                }
            }
            assert_eq!(pool.resilience().worker_panics(), 1);
            assert_eq!(pool.resilience().quarantined_batches(), 1);
            assert_eq!(pool.resilience().worker_respawns(), 1);
            assert_eq!(faults.fired(SITE_WORKER_PANIC), 1);
        }
    }

    #[test]
    fn panicking_worker_rebuilds_its_context() {
        // Sequential pool, panic on the first batch: the context that
        // visits later batches must be a fresh one, not the poisoned
        // original.
        let items = [0u8; 4];
        let faults = FaultPlan::parse("worker-panic=once:1")
            .unwrap()
            .into_state();
        let pool = WorkerPool::new(1).with_faults(Some(faults));
        let out = pool.run_batches(
            "engine.stage.test",
            &items,
            &[vec![0, 1], vec![2, 3]],
            &mut Vec::new(),
            || Cell::new(0u32),
            |ctx, _, _| {
                ctx.set(ctx.get() + 1);
                ctx.get()
            },
        );
        assert_eq!(out, vec![None, None, Some(1), Some(2)]);
    }

    #[test]
    fn contexts_persist_across_calls_until_a_panic_rebuilds_them() {
        let items = [0u8; 4];
        let batches: Vec<Vec<u32>> = (0..4).map(|i| vec![i]).collect();
        let count = |ctx: &mut Cell<u32>, _: u32, _: &u8| {
            ctx.set(ctx.get() + 1);
            ctx.get()
        };
        for jobs in [1, 2] {
            // Whichever worker takes which batch, the contexts together
            // have seen every item of both calls.
            let pool = WorkerPool::new(jobs);
            let mut ctxs = Vec::new();
            for call in 1..=2 {
                pool.run_batches(
                    "engine.stage.test",
                    &items,
                    &batches,
                    &mut ctxs,
                    || Cell::new(0),
                    count,
                );
                assert_eq!(ctxs.len(), jobs);
                let seen: u32 = ctxs.iter().map(Cell::get).sum();
                assert_eq!(seen, 4 * call, "jobs={jobs} after call {call}");
            }
        }
        // The fifth executed batch (the first of the second call) panics:
        // its context is rebuilt, so the count restarts.
        let faults = FaultPlan::parse("worker-panic=once:5")
            .unwrap()
            .into_state();
        let pool = WorkerPool::new(1).with_faults(Some(faults));
        let mut ctxs = Vec::new();
        let make = || Cell::new(0);
        let first = pool.run_batches(
            "engine.stage.test",
            &items,
            &batches,
            &mut ctxs,
            make,
            count,
        );
        assert_eq!(first, vec![Some(1), Some(2), Some(3), Some(4)]);
        let second = pool.run_batches(
            "engine.stage.test",
            &items,
            &batches,
            &mut ctxs,
            make,
            count,
        );
        assert_eq!(second, vec![None, Some(1), Some(2), Some(3)]);
        assert_eq!(pool.resilience().worker_respawns(), 1);
    }

    #[test]
    fn repeated_losses_degrade_to_sequential_drain() {
        // Panic on every batch execution until the loss threshold trips,
        // then the sequential drain (still fault-injected) quarantines
        // the rest one by one: nothing completes, nobody aborts.
        let items: Vec<u32> = (0..40).collect();
        let batches: Vec<Vec<u32>> = items.chunks(2).map(|c| c.to_vec()).collect();
        let faults = FaultPlan::parse("worker-panic=every:1")
            .unwrap()
            .into_state();
        let pool = WorkerPool::new(4).with_faults(Some(faults));
        let out = pool.run_batches(
            "engine.stage.test",
            &items,
            &batches,
            &mut Vec::new(),
            || (),
            |_, _, &x| x,
        );
        assert!(out.iter().all(|r| r.is_none()));
        assert_eq!(pool.resilience().quarantined_batches(), 20);
        assert_eq!(pool.resilience().degraded_phases(), 1);
        assert!(pool.resilience().worker_panics() >= MAX_WORKER_LOSSES as u64);
    }

    #[test]
    fn real_panics_in_work_are_contained_too() {
        let items: Vec<u32> = (0..6).collect();
        let batches: Vec<Vec<u32>> = items.iter().map(|&i| vec![i]).collect();
        let pool = WorkerPool::new(1);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let out = pool.run_batches(
            "engine.stage.test",
            &items,
            &batches,
            &mut Vec::new(),
            || (),
            |_, _, &x| {
                assert!(x != 3, "poison item");
                x
            },
        );
        std::panic::set_hook(prev);
        assert_eq!(out, vec![Some(0), Some(1), Some(2), None, Some(4), Some(5)]);
        assert_eq!(pool.resilience().worker_panics(), 1);
    }
}
