//! The `power_optimize` loop of the paper's Figure 5, at every worker
//! count.
//!
//! POWDER's inner loop spends almost all of its time on three pure
//! functions of the current netlist: fast `PG_A + PG_B` scoring, full
//! `PG_C` what-if analysis, and ATPG permissibility proofs. This module
//! runs those on a work-stealing [`WorkerPool`] against an immutable
//! netlist snapshot, while a sequential *commit arbiter* makes every
//! decision in one fixed order:
//!
//! 1. **Filter** — every surviving candidate is fast-scored, sharded
//!    into per-stem batches, then stable-sorted by score (the
//!    candidate's position in this ordering is its id for the round).
//! 2. **Gain** — full what-if gains for the arbiter's pre-selection
//!    window, plus a speculative lookahead when more than one worker
//!    can speculate, are computed on the pool; each result is memoized
//!    together with the [`Footprint`] of gates the computation read.
//! 3. **Proof** — when the arbiter needs an ATPG verdict it predicts
//!    the candidates that will reach ATPG next (assuming rejections,
//!    the common case) and proves the whole batch on per-worker
//!    [`CheckArena`]s that live for the whole run.
//! 4. **Arbitration** — the arbiter consumes memoized results in the
//!    paper's decision order: pre-selection scan, last-max tie-break,
//!    [`MIN_GAIN`] cut-off, live delay checks. Every memoized value is a
//!    pure function of the netlist and bit-identical to an in-place
//!    recomputation, so any `jobs` value commits the same
//!    substitutions in the same order. With one worker the pool runs
//!    every batch inline on the caller's thread.
//!
//! After each commit the edit journal's dirty region is widened to
//! [`DirtyBits`] and memo entries whose footprints intersect it are
//! dropped; disjoint results survive commits and round boundaries and
//! are consumed later without recomputation. Gains are invalidated by
//! the full write set (touched ∪ removed ∪ refreshed cone —
//! probabilities shift all the way downstream), proofs by the
//! structural subset (touched ∪ removed) only. Speculation depth tracks
//! the hardware threads actually available, not the requested worker
//! count — extra in-flight work only pays for itself on idle cores.

use crate::gain::{analyze_fast_with, analyze_full_with, GainScratch};
use crate::guard::{adaptive_backtrack, deadline_exceeded, guarded_apply};
use crate::optimizer::{
    candidate_alive, stop_requested, substitution_timing, DelayLimit, OptimizeConfig,
    RoundSnapshot, MIN_GAIN,
};
use crate::report::{
    AppliedSubstitution, GuardStats, OptimizeReport, PhaseTimes, QuarantinedCandidate, SubClass,
};
use crate::session::AnalysisSession;
use powder_atpg::{
    generate_candidates_scoped, CandidateScope, CheckArena, CheckOutcome, Substitution,
};
use powder_engine::{
    pool::batch_by_key, DirtyBits, EngineStats, Footprint, FootprintScratch, WorkerPool,
};
use powder_faults::{fires, SITE_ATPG_ABORT};
use powder_netlist::Netlist;
use powder_obs as obs;
use powder_power::PowerEstimator;
use powder_timing::{TimingAnalysis, TimingConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Per-stem batch ceiling for the cheap fast-scoring stage.
const FAST_BATCH: usize = 64;
/// Per-stem batch ceiling for full what-if gain evaluation.
const GAIN_BATCH: usize = 4;

/// Results memoized across rounds, keyed by candidate, each with the
/// footprint its computation read.
type Memo<V> = BTreeMap<Substitution, (Footprint, V)>;

/// The read footprint of one candidate: inclusive TFO of the rewired
/// sinks plus the stem and replacement sources, closed under TFI. This
/// covers every gate whose state `analyze_fast_with`, `analyze_full_with`,
/// or `CheckArena::check` consult for the candidate.
fn footprint_of(fs: &mut FootprintScratch, nl: &Netlist, sub: &Substitution) -> Footprint {
    let sinks = sub.rewired_branches(nl).into_iter().map(|(g, _)| g);
    let (b, c) = sub.sources();
    let stem = sub.substituted_stem(nl);
    let extras = [Some(stem), Some(b), c].into_iter().flatten();
    fs.candidate_footprint(nl, sinks, extras)
}

/// Predicts the candidate ids the arbiter will send to ATPG after
/// `first`, assuming every check rejects (rejection is the common case
/// and the only assumption under which the loop state — `consumed`
/// flags and the rejection budget — evolves without a netlist edit).
/// The prediction replays the arbiter's own scan on a cloned `consumed`
/// and stops as soon as a window member's gain is not memoized, the
/// best gain drops below [`MIN_GAIN`], or the rejection budget runs out —
/// under-prediction only shortens the speculative batch.
#[allow(clippy::too_many_arguments)]
fn plan_proof_batch(
    nl: &Netlist,
    scored: &[(Substitution, f64)],
    gains: &Memo<f64>,
    consumed: &[bool],
    quarantine: &BTreeSet<Substitution>,
    cursor: usize,
    first: usize,
    rejections: usize,
    sta: Option<&TimingAnalysis>,
    output_load: f64,
    config: &OptimizeConfig,
    max_batch: usize,
) -> Vec<usize> {
    let mut plan = vec![first];
    let mut pred_consumed = consumed.to_vec();
    let mut pred_cursor = cursor;
    let mut pred_rej = rejections + 1;
    while plan.len() < max_batch && pred_rej < config.max_rejections_per_round {
        while pred_cursor < scored.len() && pred_consumed[pred_cursor] {
            pred_cursor += 1;
        }
        let mut pre: Vec<usize> = Vec::with_capacity(config.preselect);
        let mut i = pred_cursor;
        while i < scored.len() && pre.len() < config.preselect {
            if !pred_consumed[i] {
                let s = &scored[i].0;
                if quarantine.contains(s) || !candidate_alive(nl, s) || !s.is_structurally_valid(nl)
                {
                    pred_consumed[i] = true;
                } else {
                    pre.push(i);
                }
            }
            i += 1;
        }
        if pre.is_empty() {
            break;
        }
        // Same selection rule as the arbiter: maximum gain, last
        // window member wins ties.
        let mut best: Option<(usize, f64)> = None;
        let mut complete = true;
        for &i in &pre {
            match gains.get(&scored[i].0) {
                Some(&(_, g)) => {
                    if best.is_none_or(|(_, bg)| g.total_cmp(&bg).is_ge()) {
                        best = Some((i, g));
                    }
                }
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            break;
        }
        let (bi, bg) = best.expect("window is non-empty");
        if bg <= MIN_GAIN {
            break;
        }
        pred_consumed[bi] = true;
        if let Some(sta_ref) = sta {
            let timing = substitution_timing(nl, sta_ref, &scored[bi].0, output_load);
            if !sta_ref.check_substitution(&timing) {
                pred_rej += 1;
                continue;
            }
        }
        plan.push(bi);
        pred_rej += 1;
    }
    plan
}

/// Runs POWDER on the session's whole netlist, or on the window `scope`
/// names (the windowed driver's inner runs), with `config.jobs` workers;
/// the decisions do not depend on the worker count. Every commit is
/// repaired by the session's own repair, so the session's analyses stay
/// consistent with the edited netlist throughout.
pub(crate) fn power_optimize(
    sess: &mut AnalysisSession,
    config: &OptimizeConfig,
    scope: Option<&CandidateScope>,
) -> OptimizeReport {
    let t0 = Instant::now();
    let stats_before = sess.stats;
    let jobs = powder_engine::resolve_jobs(config.jobs);
    let pool = WorkerPool::new(jobs).with_faults(config.faults.clone());
    obs::gauge!(obs::names::ENGINE_JOBS).set(jobs as f64);
    // A speculative proof batch covers the next few ATPG decisions; a
    // gain lookahead keeps those predictions computable. Depth tracks
    // the hardware threads actually available (capped by `jobs`):
    // speculation is free only while it fills otherwise-idle cores, so
    // an oversubscribed pool speculates as if it had `hardware`
    // workers instead of queueing work a commit then invalidates. One
    // such worker gets neither: a lookahead gain computed on the
    // arbiter's own core is mostly invalidated by the next commit.
    let spec_workers = jobs.min(powder_engine::hardware_threads());
    let (proof_batch, lookahead) = if spec_workers > 1 {
        let batch = (2 * spec_workers).max(4);
        (batch, config.preselect + batch + jobs)
    } else {
        (1, 0)
    };

    let initial_power = sess.est.circuit_power(&sess.nl);
    let initial_area = sess.nl.area();
    let output_load = config.power.output_load;

    let probe_cfg = TimingConfig {
        output_load,
        required_time: None,
    };
    let initial_delay = TimingAnalysis::new(&sess.nl, &probe_cfg).circuit_delay();
    let required_time = config.delay_limit.map(|dl| match dl {
        DelayLimit::Absolute(t) => t,
        DelayLimit::Factor(f) => f * initial_delay,
    });
    // A constrained run reads (and its commits repair) the session's
    // timing view at its required time; an unconstrained one drops any
    // cached view so that no commit repairs it for nothing.
    match required_time {
        Some(t) => {
            sess.timed_analyses(t);
        }
        None => sess.sta = None,
    }

    let mut applied: Vec<AppliedSubstitution> = Vec::new();
    let mut rounds = 0usize;
    let mut atpg_checks = 0usize;
    let mut atpg_rejections = 0usize;
    let mut delay_rejections = 0usize;
    let mut phase = PhaseTimes::default();
    let mut engine = EngineStats {
        jobs,
        ..EngineStats::default()
    };

    // Retained values (possibly carried in from an earlier pass) are
    // repaired over dirty cones after commits and fully regenerated
    // only when the pattern set itself changes (a learned ATPG
    // counterexample).
    let mut patterns_stale = false;
    // Per-worker scratch, kept for the whole run: gain scoring allocates
    // nothing per candidate, and a proof arena rebuilds its miter base
    // only when the netlist (or the window scope) changed.
    let mut fast_ctxs: Vec<GainScratch> = Vec::new();
    let mut gain_ctxs: Vec<(GainScratch, FootprintScratch)> = Vec::new();
    let mut proof_ctxs: Vec<CheckArena> = Vec::new();

    // Cross-round memoization, the loop's only result cache. Gains and
    // proofs are pure functions of the netlist restricted to their
    // footprint: the estimator's analytic probabilities never read the
    // pattern set, and neither does the permissibility miter. Candidate
    // generation regenerates largely the same substitutions every
    // round, so without a memo each round re-proves candidates whose
    // checks aborted earlier — burning the full backtrack budget again
    // for a verdict that cannot have changed. Entries are dropped when
    // a commit dirties their footprint, which keeps every consumed
    // value bit-identical to an in-place recomputation; `dropped` holds
    // the discarded keys until they are evaluated again.
    let mut gain_memo: Memo<f64> = BTreeMap::new();
    let mut proof_memo: Memo<CheckOutcome> = BTreeMap::new();
    let mut dropped: BTreeSet<Substitution> = BTreeSet::new();

    let mut guard_stats = GuardStats::default();
    let mut quarantined_list: Vec<QuarantinedCandidate> = Vec::new();
    let mut quarantine: BTreeSet<Substitution> = BTreeSet::new();
    let mut deadline_hit = false;
    let mut interrupted = false;

    for _round in 0..config.max_rounds.saturating_sub(config.rounds_offset) {
        if deadline_exceeded(config.deadline) {
            deadline_hit = true;
            obs::counter!(obs::names::OPTIMIZER_DEADLINE_HITS).inc();
            break;
        }
        if stop_requested(config.stop.as_ref()) {
            interrupted = true;
            break;
        }
        rounds += 1;
        let _round_span = obs::span!(obs::names::span::ROUND);
        obs::counter!(obs::names::OPTIMIZER_ROUNDS).inc();
        let t = Instant::now();
        if patterns_stale || sess.values.is_none() {
            let _span = obs::span!(obs::names::span::PHASE_SIMULATION);
            sess.values = None;
            sess.signatures();
            patterns_stale = false;
        }
        phase.simulation += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let cands = {
            let _span = obs::span!(obs::names::span::PHASE_CANDIDATES);
            let values = sess.values.as_ref().expect("simulated above");
            generate_candidates_scoped(&sess.nl, &sess.covers, values, &config.candidates, scope)
        };
        phase.candidates += t.elapsed().as_secs_f64();
        if cands.is_empty() {
            break;
        }

        // --- Stage 1: fast scoring, sharded per stem. ---
        let t = Instant::now();
        let fast: Vec<Option<f64>> = {
            let _span = obs::span!(obs::names::span::PHASE_GAIN);
            let nl_snap: &Netlist = &sess.nl;
            let est_ref: &PowerEstimator = &sess.est;
            let batches = batch_by_key(
                (0..cands.len() as u32).map(|i| (i, cands[i as usize].substituted_stem(nl_snap))),
                FAST_BATCH,
            );
            pool.run_batches(
                obs::names::span::STAGE_FILTER,
                &cands,
                &batches,
                &mut fast_ctxs,
                GainScratch::default,
                |gs, _, s| analyze_fast_with(nl_snap, est_ref, s, gs).fast(),
            )
        };
        // A quarantined worker batch leaves its slots `None`; those
        // candidates simply sit this round out (they reappear at the
        // next candidate generation).
        let mut scored: Vec<(Substitution, f64)> = cands
            .into_iter()
            .zip(fast)
            .filter_map(|(s, f)| f.map(|f| (s, f)))
            .collect();
        if scored.is_empty() {
            break;
        }
        scored.sort_by(|x, y| y.1.total_cmp(&x.1));
        let wall = t.elapsed().as_secs_f64();
        phase.gain += wall;
        engine.filter_seconds += wall;
        engine.evaluated += scored.len();
        obs::counter!(obs::names::ENGINE_FILTER_NS).add((wall * 1e9) as u64);
        obs::counter!(obs::names::ENGINE_EVALUATED).add(scored.len() as u64);

        let n = scored.len();
        let mut consumed = vec![false; n];

        let mut progress = false;
        let mut learned = false;
        let mut repeat_left = config.repeat;
        let mut rejections_this_round = 0usize;
        // Scan cursor: everything before it is consumed, so each inner
        // iteration resumes where the ranking left off instead of
        // rescanning the whole candidate list.
        let mut cursor = 0usize;
        let t_inner = Instant::now();
        let mut round_parallel_wall = 0.0f64;
        'inner: while repeat_left > 0 && rejections_this_round < config.max_rejections_per_round {
            if deadline_exceeded(config.deadline) {
                deadline_hit = true;
                obs::counter!(obs::names::OPTIMIZER_DEADLINE_HITS).inc();
                break 'inner;
            }
            if stop_requested(config.stop.as_ref()) {
                interrupted = true;
                break 'inner;
            }
            while cursor < n && consumed[cursor] {
                cursor += 1;
            }
            // Pre-select the next `preselect` live candidates.
            let mut pre: Vec<usize> = Vec::with_capacity(config.preselect);
            let mut i = cursor;
            while i < n && pre.len() < config.preselect {
                if !consumed[i] {
                    let s = &scored[i].0;
                    if quarantine.contains(s) {
                        consumed[i] = true;
                    } else if !candidate_alive(&sess.nl, s) || !s.is_structurally_valid(&sess.nl) {
                        consumed[i] = true;
                        engine.filtered += 1;
                        obs::counter!(obs::names::ENGINE_FILTERED).inc();
                    } else {
                        pre.push(i);
                    }
                }
                i += 1;
            }
            if pre.is_empty() {
                break 'inner;
            }

            // --- Stage 2: ensure gains for the window, speculate on
            // the candidates behind it. ---
            let mut want: Vec<Substitution> = pre
                .iter()
                .map(|&id| scored[id].0)
                .filter(|s| !gain_memo.contains_key(s))
                .collect();
            {
                let mut seen_live = 0usize;
                let mut j = i;
                while j < n && seen_live < lookahead {
                    if !consumed[j] {
                        let s = &scored[j].0;
                        if candidate_alive(&sess.nl, s) && s.is_structurally_valid(&sess.nl) {
                            seen_live += 1;
                            if !gain_memo.contains_key(s) {
                                want.push(*s);
                            }
                        }
                    }
                    j += 1;
                }
            }
            if !want.is_empty() {
                let t = Instant::now();
                let _span = obs::span!(obs::names::span::PHASE_GAIN);
                let results = {
                    let nl_snap: &Netlist = &sess.nl;
                    let est_ref: &PowerEstimator = &sess.est;
                    let batches = batch_by_key(
                        (0u32..)
                            .zip(&want)
                            .map(|(k, s)| (k, s.substituted_stem(nl_snap))),
                        GAIN_BATCH,
                    );
                    pool.run_batches(
                        obs::names::span::STAGE_GAIN,
                        &want,
                        &batches,
                        &mut gain_ctxs,
                        Default::default,
                        |(gs, fs), _, sub| {
                            let fp = footprint_of(fs, nl_snap, sub);
                            let g = analyze_full_with(nl_snap, est_ref, sub, gs).total();
                            (fp, g)
                        },
                    )
                };
                for (sub, r) in want.iter().zip(results) {
                    if let Some(r) = r {
                        if dropped.remove(sub) {
                            engine.retried += 1;
                            obs::counter!(obs::names::ENGINE_RETRIED).inc();
                        }
                        gain_memo.insert(*sub, r);
                    }
                }
                engine.full_gains += want.len();
                let wall = t.elapsed().as_secs_f64();
                phase.gain += wall;
                engine.gain_seconds += wall;
                round_parallel_wall += wall;
                obs::counter!(obs::names::ENGINE_FULL_GAINS).add(want.len() as u64);
                obs::counter!(obs::names::ENGINE_GAIN_NS).add((wall * 1e9) as u64);
            }

            // A quarantined gain batch can leave window members without
            // a result even after the ensure pass; skip those
            // conservatively and rebuild the window. With faults off
            // every wanted gain is present and this is dead code.
            let missing: Vec<usize> = pre
                .iter()
                .copied()
                .filter(|&id| !gain_memo.contains_key(&scored[id].0))
                .collect();
            if !missing.is_empty() {
                for id in missing {
                    consumed[id] = true;
                }
                continue 'inner;
            }
            let best = pre
                .iter()
                .map(|&id| (id, gain_memo[&scored[id].0].1))
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("pre-selection is non-empty");
            let (idx, gain) = best;
            if gain <= MIN_GAIN {
                // The most promising candidates no longer reduce power;
                // end this round (fresh candidates may still exist).
                break 'inner;
            }
            let sub = scored[idx].0;
            consumed[idx] = true;

            // check_delay (Section 3.4) — always live: timing state is
            // cheap to query and changes with every commit. The view is
            // rebuilt here if a guard rollback dropped it.
            if let Some(required) = required_time {
                let t = Instant::now();
                let ok = {
                    let _span = obs::span!(obs::names::span::PHASE_TIMING);
                    let (nl, _, sta) = sess.timed_analyses(required);
                    let timing = substitution_timing(nl, sta, &sub, output_load);
                    sta.check_substitution(&timing)
                };
                phase.timing += t.elapsed().as_secs_f64();
                if !ok {
                    delay_rejections += 1;
                    rejections_this_round += 1;
                    obs::counter!(obs::names::OPTIMIZER_DELAY_REJECTIONS).inc();
                    continue 'inner;
                }
            }

            // --- Stage 3: ATPG proofs (check_candidate), speculatively
            // batched. ---
            atpg_checks += 1;
            obs::counter!(obs::names::OPTIMIZER_ATPG_CHECKS).inc();
            if proof_memo.contains_key(&sub) {
                engine.speculative_hits += 1;
                obs::counter!(obs::names::ENGINE_SPECULATIVE_HITS).inc();
            } else {
                let t = Instant::now();
                let _span = obs::span!(obs::names::span::PHASE_ATPG);
                // A constrained run checked this candidate's delay just
                // above, so its timing view is present.
                let plan = plan_proof_batch(
                    &sess.nl,
                    &scored,
                    &gain_memo,
                    &consumed,
                    &quarantine,
                    cursor,
                    idx,
                    rejections_this_round,
                    sess.sta.as_ref(),
                    output_load,
                    config,
                    proof_batch,
                );
                let todo: Vec<Substitution> = plan
                    .iter()
                    .map(|&id| scored[id].0)
                    .filter(|s| !proof_memo.contains_key(s))
                    .collect();
                let results = {
                    let nl_snap: &Netlist = &sess.nl;
                    let bl = adaptive_backtrack(config.backtrack_limit, t0, config.deadline);
                    let faults = config.faults.clone();
                    // Windowed runs prove on window-local cones: the
                    // miter is cut at the scope boundary, so solver work
                    // is bounded by the window.
                    let sources = scope.map(|s| s.sources.as_slice());
                    // One proof per batch: proofs dominate the
                    // pipeline, so maximal stealing wins.
                    let batches: Vec<Vec<u32>> = (0..todo.len() as u32).map(|k| vec![k]).collect();
                    pool.run_batches(
                        obs::names::span::STAGE_PROOF,
                        &todo,
                        &batches,
                        &mut proof_ctxs,
                        CheckArena::new,
                        |arena, _, s| {
                            if fires(faults.as_ref(), SITE_ATPG_ABORT) {
                                CheckOutcome::Aborted
                            } else {
                                arena.check(nl_snap, s, bl, sources)
                            }
                        },
                    )
                };
                engine.proved += todo.len();
                for (s, r) in todo.iter().zip(results) {
                    if let Some(outcome) = r {
                        if dropped.remove(s) {
                            engine.retried += 1;
                            obs::counter!(obs::names::ENGINE_RETRIED).inc();
                        }
                        // Planned proofs have memoized gains, so the
                        // footprint is normally present; a quarantined
                        // gain batch is the exception, and such proofs
                        // are simply not memoized.
                        if let Some((fp, _)) = gain_memo.get(s) {
                            proof_memo.insert(*s, (fp.clone(), outcome));
                        }
                    }
                }
                let wall = t.elapsed().as_secs_f64();
                phase.atpg += wall;
                engine.proof_seconds += wall;
                round_parallel_wall += wall;
                obs::counter!(obs::names::ENGINE_PROVED).add(todo.len() as u64);
                obs::counter!(obs::names::ENGINE_PROOF_NS).add((wall * 1e9) as u64);
            }
            // A proof lost to a quarantined worker batch counts as an
            // abort: conservative rejection, never permission.
            let outcome = proof_memo
                .get(&sub)
                .map_or(CheckOutcome::Aborted, |(_, o)| o.clone());

            match outcome {
                CheckOutcome::Permissible => {
                    let t_apply = Instant::now();
                    let apply_span = obs::span!(obs::names::span::PHASE_APPLY);
                    let power_before = sess.est.total_power();
                    let area_before = sess.nl.area();
                    // Transactional apply: checkpoint, edit, repair the
                    // session's analyses over the dirty cone, whose
                    // re-simulation verifies the primary outputs; roll
                    // back and quarantine on mismatch. On the Err path
                    // the netlist (journal generation included) is
                    // bit-identical to before the apply, so no memoized
                    // result needs invalidating.
                    let guarded = guarded_apply(
                        sess,
                        &sub,
                        config.backtrack_limit,
                        config.faults.as_ref(),
                        &mut guard_stats,
                    );
                    let power_after = sess.est.total_power();
                    drop(apply_span);
                    phase.apply += t_apply.elapsed().as_secs_f64();
                    let region = match guarded {
                        Ok(region) => region,
                        Err(q) => {
                            quarantine.insert(q.substitution);
                            quarantined_list.push(q);
                            rejections_this_round += 1;
                            continue 'inner;
                        }
                    };
                    obs::counter!(obs::names::OPTIMIZER_COMMITS).inc();
                    applied.push(AppliedSubstitution {
                        substitution: sub,
                        class: SubClass::of(&sub),
                        power_saved: power_before - power_after,
                        area_delta: sess.nl.area() - area_before,
                    });
                    // A counterexample learned earlier this round grew
                    // the pattern set past the retained values.
                    #[cfg(test)]
                    crate::optimizer::cross_check_state(sess, !patterns_stale);
                    // Invalidate exactly the memoized results that read
                    // what this commit wrote. Gains read the
                    // estimator's probabilities, which shift all the
                    // way down the refreshed cone; proofs read only
                    // netlist *structure*, which changes at the
                    // touched and removed gates alone — every mutator
                    // journals each gate whose fanin or fanout list it
                    // edits, so a proof whose footprint misses that
                    // set would re-derive the identical miter and
                    // verdict, and keeps its memoized outcome.
                    let dirty = DirtyBits::from_commit(
                        region.touched().iter().copied(),
                        region.removed(),
                        &sess.cone,
                    );
                    let structural = DirtyBits::from_commit(
                        region.touched().iter().copied(),
                        region.removed(),
                        &[],
                    );
                    let before = gain_memo.len() + proof_memo.len();
                    gain_memo.retain(|s, (fp, _)| {
                        let keep = !fp.intersects(&dirty);
                        if !keep {
                            dropped.insert(*s);
                        }
                        keep
                    });
                    proof_memo.retain(|s, (fp, _)| {
                        let keep = !fp.intersects(&structural);
                        if !keep {
                            dropped.insert(*s);
                        }
                        keep
                    });
                    let inv = before - gain_memo.len() - proof_memo.len();
                    engine.invalidated += inv;
                    obs::counter!(obs::names::ENGINE_INVALIDATED).add(inv as u64);
                    repeat_left -= 1;
                    progress = true;
                }
                CheckOutcome::NotPermissible(witness) => {
                    atpg_rejections += 1;
                    rejections_this_round += 1;
                    obs::counter!(obs::names::OPTIMIZER_ATPG_REJECTIONS).inc();
                    // Teach the filter: the witness distinguishes
                    // circuits, so adding it to the pattern set kills
                    // this candidate class in future rounds. Memoized
                    // gains and proofs do not read the pattern set, so
                    // nothing invalidates. The retained values keep
                    // verifying this round's commits under the old
                    // set; masks under them would be stale.
                    sess.patterns.push_pattern(&witness);
                    sess.masks = None;
                    patterns_stale = true;
                    learned = true;
                }
                CheckOutcome::Aborted => {
                    atpg_rejections += 1;
                    rejections_this_round += 1;
                    obs::counter!(obs::names::OPTIMIZER_ATPG_REJECTIONS).inc();
                    obs::counter!(obs::names::OPTIMIZER_ATPG_ABORTS).inc();
                }
            }
        }
        let arbiter_wall = (t_inner.elapsed().as_secs_f64() - round_parallel_wall).max(0.0);
        engine.arbiter_seconds += arbiter_wall;
        obs::counter!(obs::names::ENGINE_ARBITER_NS).add((arbiter_wall * 1e9) as u64);
        if deadline_hit || interrupted {
            break;
        }
        // The round completed at a committed boundary: let the observer
        // (the checkpoint sink) see the state. Checkpoints taken here
        // are bit-identical at any `jobs`.
        if let Some(hook) = &config.round_hook {
            hook.call(RoundSnapshot {
                rounds_done: rounds,
                nl: &sess.nl,
                patterns: &sess.patterns,
                commits: applied.len(),
                required_time,
            });
        }
        // A round that only *learned* counterexamples still sharpened the
        // filter; re-generate candidates against the enlarged pattern set
        // before giving up.
        if !progress && !learned {
            break;
        }
    }

    // Retained values must match the pattern set exactly, and learned
    // counterexamples grew it past the buffer.
    if patterns_stale {
        sess.values = None;
    }

    // Fold the pool's containment counters into the run's engine stats.
    let resilience = pool.resilience();
    engine.worker_panics += resilience.worker_panics() as usize;
    engine.quarantined_batches += resilience.quarantined_batches() as usize;
    engine.degraded_phases += resilience.degraded_phases() as usize;

    let final_delay = TimingAnalysis::new(&sess.nl, &probe_cfg).circuit_delay();
    OptimizeReport {
        initial_power,
        final_power: sess.est.circuit_power(&sess.nl),
        initial_area,
        final_area: sess.nl.area(),
        initial_delay,
        final_delay,
        applied,
        rounds,
        atpg_checks,
        atpg_rejections,
        delay_rejections,
        cpu_seconds: t0.elapsed().as_secs_f64(),
        phase,
        incremental: sess.stats.delta(&stats_before),
        jobs,
        engine,
        guard: guard_stats,
        quarantined: quarantined_list,
        windows: Vec::new(),
        deadline_hit,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use crate::optimizer::{optimize, DelayLimit, OptimizeConfig};
    use powder_library::lib2;
    use powder_netlist::Netlist;
    use std::sync::Arc;

    fn redundant_circuit() -> Netlist {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let xor2 = lib.find_by_name("xor2").unwrap();
        let mut nl = Netlist::new("redundant", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", and2, &[b, a]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        let g4 = nl.add_cell("g4", xor2, &[g3, c]);
        nl.add_output("f", g4);
        nl
    }

    /// Four workers commit the exact substitution sequence of one worker
    /// and land on the same power, area, and delay.
    #[test]
    fn four_workers_decide_exactly_as_one() {
        for delay_limit in [None, Some(DelayLimit::Factor(1.5))] {
            let mut nl_seq = redundant_circuit();
            let mut nl_par = redundant_circuit();
            let cfg_seq = OptimizeConfig {
                jobs: 1,
                delay_limit,
                ..OptimizeConfig::default()
            };
            let cfg_par = OptimizeConfig {
                jobs: 4,
                ..cfg_seq.clone()
            };
            let r_seq = optimize(&mut nl_seq, &cfg_seq);
            let r_par = optimize(&mut nl_par, &cfg_par);
            nl_par.validate().unwrap();
            assert_eq!(r_par.jobs, 4);
            assert_eq!(r_seq.jobs, 1);
            let subs_seq: Vec<_> = r_seq.applied.iter().map(|a| a.substitution).collect();
            let subs_par: Vec<_> = r_par.applied.iter().map(|a| a.substitution).collect();
            assert_eq!(subs_seq, subs_par, "decision sequences diverged");
            assert_eq!(r_seq.final_power, r_par.final_power, "power diverged");
            assert_eq!(r_seq.final_area, r_par.final_area);
            assert_eq!(r_seq.final_delay, r_par.final_delay);
            assert_eq!(r_seq.atpg_checks, r_par.atpg_checks);
        }
    }

    /// Speculation pays off on the example: at least one proof is
    /// consumed from the cache without recomputation.
    #[test]
    fn pipeline_counters_are_populated() {
        let mut nl = redundant_circuit();
        let cfg = OptimizeConfig {
            jobs: 2,
            ..OptimizeConfig::default()
        };
        let report = optimize(&mut nl, &cfg);
        assert!(!report.applied.is_empty());
        assert!(report.engine.evaluated > 0);
        assert!(report.engine.full_gains > 0);
        assert!(report.engine.proved + report.engine.speculative_hits >= report.atpg_checks);
    }
}
