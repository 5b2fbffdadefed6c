//! The unified metric naming scheme: `<crate>.<subsystem>.<metric>`.
//!
//! Every counter the stack reports lives here as one constant, so the
//! same concept carries the same name no matter which code path
//! increments it — every analysis refresh, whether after a POWDER commit
//! or another pass's edit, is counted by `powder::AnalysisSession` under
//! the `core.analysis.*` names.
//!
//! Wall-clock-derived metrics end in `_ns` (or `_seconds`); everything
//! else is a deterministic function of the input netlist and
//! configuration, and is required to be bit-identical across repeat
//! runs at a fixed `--jobs` (see [`is_duration`]).

/// Whether a metric name denotes a wall-clock-derived quantity
/// (excluded from determinism comparisons).
pub fn is_duration(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with("_seconds")
}

// --- core.analysis.* — analysis refreshes (counted by the
// AnalysisSession every pass, the optimizer's loop included, runs on) ---

/// Whole-netlist simulations (initial materialization or stale patterns).
pub const ANALYSIS_SIM_FULL: &str = "core.analysis.sim_full";
/// Cone-local simulation refreshes after journaled edits.
pub const ANALYSIS_SIM_INCREMENTAL: &str = "core.analysis.sim_incremental";
/// Power estimators built by a full topological propagation.
pub const ANALYSIS_POWER_FULL: &str = "core.analysis.power_full";
/// Cone-local probability/contribution refreshes.
pub const ANALYSIS_POWER_INCREMENTAL: &str = "core.analysis.power_incremental";
/// Timing analyses built by a full forward/backward pass.
pub const ANALYSIS_STA_FULL: &str = "core.analysis.sta_full";
/// Incremental arrival/required repairs over dirty regions.
pub const ANALYSIS_STA_INCREMENTAL: &str = "core.analysis.sta_incremental";
/// Journal drains that triggered any refresh work.
pub const ANALYSIS_REFRESHES: &str = "core.analysis.refreshes";
/// Histogram of dirty-cone sizes (gates) per refresh.
pub const ANALYSIS_CONE_GATES: &str = "core.analysis.cone_gates";
/// Bucket bounds for [`ANALYSIS_CONE_GATES`].
pub const CONE_GATES_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

// --- core.optimizer.* — the POWDER loop itself ---

/// Candidate-generation rounds executed.
pub const OPTIMIZER_ROUNDS: &str = "core.optimizer.rounds";
/// Substitutions committed.
pub const OPTIMIZER_COMMITS: &str = "core.optimizer.commits";
/// ATPG permissibility checks demanded by the decision loop.
pub const OPTIMIZER_ATPG_CHECKS: &str = "core.optimizer.atpg_checks";
/// Candidates rejected by ATPG (counterexample or abort).
pub const OPTIMIZER_ATPG_REJECTIONS: &str = "core.optimizer.atpg_rejections";
/// The part of [`OPTIMIZER_ATPG_REJECTIONS`] whose proof aborted: it hit
/// its backtrack limit, a fault plan aborted it, or a quarantined worker
/// batch lost it.
pub const OPTIMIZER_ATPG_ABORTS: &str = "core.optimizer.atpg_aborts";
/// Candidates rejected by the delay constraint.
pub const OPTIMIZER_DELAY_REJECTIONS: &str = "core.optimizer.delay_rejections";

// --- engine.* — the parallel candidate-evaluation engine ---

/// Candidates fast-scored (PG_A + PG_B): those of the targets the
/// arbiter's ranking scanned.
pub const ENGINE_EVALUATED: &str = "engine.eval.evaluated";
/// Candidates dropped by the liveness/validity scan.
pub const ENGINE_FILTERED: &str = "engine.eval.filtered";
/// Full what-if gain evaluations (PG_C), incl. speculative.
pub const ENGINE_FULL_GAINS: &str = "engine.eval.full_gains";
/// ATPG proofs executed, incl. speculative.
pub const ENGINE_PROVED: &str = "engine.proof.proved";
/// Proofs consumed from the speculative cache without recomputation.
pub const ENGINE_SPECULATIVE_HITS: &str = "engine.proof.speculative_hits";
/// Cached results discarded by commit-footprint invalidation.
pub const ENGINE_INVALIDATED: &str = "engine.cache.invalidated";
/// Invalidated candidates re-evaluated after re-enqueue.
pub const ENGINE_RETRIED: &str = "engine.cache.retried";
/// Resolved worker count (gauge; max across runs).
pub const ENGINE_JOBS: &str = "engine.pool.jobs";
/// Histogram of pool batch sizes (items per batch).
pub const ENGINE_BATCH_ITEMS: &str = "engine.pool.batch_items";
/// Bucket bounds for [`ENGINE_BATCH_ITEMS`].
pub const BATCH_ITEMS_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];
/// Wall nanoseconds in the parallel full-gain stage.
pub const ENGINE_GAIN_NS: &str = "engine.stage.gain_ns";
/// Wall nanoseconds in the parallel ATPG proof stage.
pub const ENGINE_PROOF_NS: &str = "engine.stage.proof_ns";
/// Wall nanoseconds in the sequential commit arbiter.
pub const ENGINE_ARBITER_NS: &str = "engine.stage.arbiter_ns";

// --- engine.resilience.* — degradation events of the worker pool ---
//
// All-zero in a fault-free run: with fault injection disabled no worker
// ever panics, so these counters stay deterministic (trivially) at any
// `--jobs` value.

/// Worker panics caught and contained by the pool.
pub const RESILIENCE_WORKER_PANICS: &str = "engine.resilience.worker_panics";
/// Worker contexts rebuilt after a contained panic (logical respawns).
pub const RESILIENCE_WORKER_RESPAWNS: &str = "engine.resilience.worker_respawns";
/// Batches quarantined because their execution panicked.
pub const RESILIENCE_QUARANTINED_BATCHES: &str = "engine.resilience.quarantined_batches";
/// Pool phases that degraded to sequential draining after repeated
/// worker losses.
pub const RESILIENCE_DEGRADED_PHASES: &str = "engine.resilience.degraded_phases";

// --- core.guard.* — the transactional commit guard ---

/// Commits whose post-apply signature verification passed.
pub const GUARD_VERIFIED: &str = "core.guard.verified";
/// Commits whose verification could not run (no retained values).
pub const GUARD_SKIPPED: &str = "core.guard.skipped";
/// Post-apply signature mismatches detected.
pub const GUARD_MISMATCHES: &str = "core.guard.mismatches";
/// Transactional rollbacks performed after a mismatch.
pub const GUARD_ROLLBACKS: &str = "core.guard.rollbacks";
/// Mismatches escalated to an independent ATPG re-proof.
pub const GUARD_ESCALATIONS: &str = "core.guard.escalations";
/// Candidates quarantined after a failed verification.
pub const GUARD_QUARANTINED: &str = "core.guard.quarantined";
/// Runs cut short by the wall-clock deadline.
pub const OPTIMIZER_DEADLINE_HITS: &str = "core.optimizer.deadline_hits";

// --- core.window.* — the windowed large-netlist driver ---

/// Windows processed to completion by the windowed driver.
pub const WINDOW_PROCESSED: &str = "core.window.processed";
/// Substitutions committed inside windows.
pub const WINDOW_COMMITS: &str = "core.window.commits";
/// Windows in the most recent partition plan (gauge; max across
/// repartitions, deterministic at a fixed netlist and configuration).
pub const WINDOW_PLAN_SIZE: &str = "core.window.plan_size";

// --- netlist.arena.* — struct-of-arrays arena occupancy (gauges,
// sampled at run boundaries; len-based, so deterministic) ---

/// Arena slots allocated (live + dead).
pub const ARENA_SLOTS: &str = "netlist.arena.slots";
/// Live gates.
pub const ARENA_LIVE: &str = "netlist.arena.live";
/// Dead (swept, unreclaimed) slots.
pub const ARENA_DEAD: &str = "netlist.arena.dead";
/// Entries in the shared fanin pool (including tombstones).
pub const ARENA_FANIN_POOL: &str = "netlist.arena.fanin_pool";
/// Fanout branch connections across all live gates.
pub const ARENA_FANOUT_BRANCHES: &str = "netlist.arena.fanout_branches";
/// Bytes held by the dense columns and pools.
pub const ARENA_COLUMN_BYTES: &str = "netlist.arena.column_bytes";

// --- passes.* — the pass pipeline ---

/// Passes executed (one per pass per fixpoint iteration).
pub const PIPELINE_PASSES_RUN: &str = "passes.pipeline.passes_run";
/// Fixpoint iterations executed.
pub const PIPELINE_ITERATIONS: &str = "passes.pipeline.iterations";
/// Netlist edits committed by passes.
pub const PIPELINE_EDITS: &str = "passes.pipeline.edits";
/// ATPG permissibility checks issued by non-POWDER passes.
pub const PASSES_ATPG_CHECKS: &str = "passes.atpg.checks";
/// Ties the `redundancy` pass skipped because a retained simulation
/// pattern refutes them, so no ATPG check was issued for them.
pub const PASSES_SIM_REFUTED: &str = "passes.redundancy.sim_refuted";

// --- egraph.* — the equality-saturation pass ---

/// Cones translated into e-graphs.
pub const EGRAPH_CONES: &str = "egraph.saturate.cones";
/// Saturation sweeps across all cones.
pub const EGRAPH_ITERS: &str = "egraph.saturate.iters";
/// E-nodes created across all cones.
pub const EGRAPH_NODES: &str = "egraph.saturate.nodes";
/// Extracted rewrites applied and kept.
pub const EGRAPH_APPLIED: &str = "egraph.extract.applied";
/// Cones rejected without a kept or rolled-back rewrite; the sum of
/// the six `egraph.reject.*` reasons below.
pub const EGRAPH_REJECTED: &str = "egraph.extract.rejected";
/// Rejected: the root has no cone (dead, or no non-constant leaf).
pub const EGRAPH_REJECT_NO_CONE: &str = "egraph.reject.no_cone";
/// Rejected: the extractor found no implementable plan.
pub const EGRAPH_REJECT_NO_PLAN: &str = "egraph.reject.no_plan";
/// Rejected: the plan does not beat the cone's modelled cost.
pub const EGRAPH_REJECT_NO_GAIN: &str = "egraph.reject.no_gain";
/// Rejected: the plan's rule chain was quarantined earlier in the pass.
pub const EGRAPH_REJECT_QUARANTINED: &str = "egraph.reject.quarantined";
/// Rejected: the substitution is structurally invalid.
pub const EGRAPH_REJECT_INVALID: &str = "egraph.reject.invalid";
/// Rejected: the ATPG permissibility check aborted.
pub const EGRAPH_REJECT_ATPG_ABORT: &str = "egraph.reject.atpg_abort";
/// Every typed egraph reject reason.
pub const EGRAPH_REJECT_REASONS: [&str; 6] = [
    EGRAPH_REJECT_NO_CONE,
    EGRAPH_REJECT_NO_PLAN,
    EGRAPH_REJECT_NO_GAIN,
    EGRAPH_REJECT_QUARANTINED,
    EGRAPH_REJECT_INVALID,
    EGRAPH_REJECT_ATPG_ABORT,
];
/// Applied extractions rolled back by the guard.
pub const EGRAPH_ROLLBACKS: &str = "egraph.guard.rollbacks";
/// Rule chains quarantined after a guard refutation.
pub const EGRAPH_QUARANTINED: &str = "egraph.guard.quarantined";
/// E-nodes per saturated cone.
pub const EGRAPH_CONE_NODES: &str = "egraph.saturate.cone_nodes";
/// Histogram bounds for [`EGRAPH_CONE_NODES`].
pub const EGRAPH_CONE_NODES_BOUNDS: &[u64] = &[8, 16, 32, 64, 128, 256, 512, 1024];

// --- serve.* — the optimization daemon's robustness events ---
//
// All-zero in a healthy, unloaded daemon; they count the graceful
// degradations of the durability/overload layer (DESIGN.md §10).

/// Submits shed by admission control (queue at capacity).
pub const SERVE_SHED: &str = "serve.shed";
/// Client-side retries performed (backoff on overload / torn reads).
pub const SERVE_RETRIES: &str = "serve.retries";
/// Jobs whose durable state needed a quarantine + last-good (or
/// clean re-run) recovery at load time.
pub const SERVE_CORRUPT_RECOVERED: &str = "serve.corrupt_recovered";
/// Drains begun (SIGTERM, SIGINT, or the `shutdown` op).
pub const SERVE_DRAIN: &str = "serve.drain";

// --- obs.* — the tracer's own health ---

/// Trace events dropped because a thread's ring buffer was full.
pub const TRACE_DROPPED: &str = "obs.trace.dropped";

/// Span names used across the stack, so exports and validators agree.
pub mod span {
    /// Simulation phase of one POWDER round.
    pub const PHASE_SIMULATION: &str = "core.phase.simulation";
    /// Candidate generation phase.
    pub const PHASE_CANDIDATES: &str = "core.phase.candidates";
    /// Gain analysis phase (fast scoring + full what-if).
    pub const PHASE_GAIN: &str = "core.phase.gain";
    /// Delay-constraint checking.
    pub const PHASE_TIMING: &str = "core.phase.timing";
    /// ATPG permissibility proving.
    pub const PHASE_ATPG: &str = "core.phase.atpg";
    /// Commit + incremental analysis repair.
    pub const PHASE_APPLY: &str = "core.phase.apply";
    /// One candidate-generation round.
    pub const ROUND: &str = "core.phase.round";
    /// One window of the windowed large-netlist driver (contains the
    /// window's inner rounds).
    pub const WINDOW: &str = "core.phase.window";
    /// Whole pass pipeline.
    pub const PIPELINE: &str = "passes.pipeline";
    /// Per-pass span prefix: `passes.pass.<name>`.
    pub const PASS_PREFIX: &str = "passes.pass.";
    /// Session journal drain + analysis repair.
    pub const SESSION_REFRESH: &str = "passes.session.refresh";
    /// Session lazy full simulation.
    pub const SESSION_SIMULATE: &str = "passes.session.simulate";
    /// Session full STA (re)build.
    pub const SESSION_STA_BUILD: &str = "passes.session.sta_build";
    /// Session observability-mask sweep.
    pub const SESSION_OBSERVABILITY: &str = "passes.session.observability";
    /// ATPG check issued by a non-POWDER pass.
    pub const PASSES_ATPG_CHECK: &str = "passes.atpg.check";
    /// One cone's saturate→extract cycle in the egraph pass.
    pub const EGRAPH_CONE: &str = "egraph.cone";
    /// Pool stage span prefixes: `engine.stage.<stage>` (one span per
    /// batch, on the worker's own track). Full-gain stage batches.
    pub const STAGE_GAIN: &str = "engine.stage.gain";
    /// Proof stage batches.
    pub const STAGE_PROOF: &str = "engine.stage.proof";
}
