//! The transactional commit guard (resilience pillar 1) and the
//! deadline-pressure budget policy (pillar 3).
//!
//! Every committed substitution is ATPG-proven permissible *before* it
//! is applied — but the proof, the incremental analyses, and the apply
//! machinery are all software, and on a multi-hour run a single wrong
//! answer silently corrupts the output netlist. The guard makes each
//! commit transactional: a cheap session checkpoint over the edit's
//! conservative write set, the edit itself, then a post-apply
//! verification that rides the session's repair — its cone
//! re-simulation, independent of the proof, reports whether any primary
//! output changed its signature (a permissible substitution cannot
//! change any PO under any pattern). On mismatch the commit rolls back
//! bit-for-bit, the candidate is re-checked by ATPG at an escalated
//! budget to classify the failure, and it is quarantined for the rest of
//! the run.
//!
//! With fault injection disabled and a healthy stack the verification
//! always passes, so guarded runs stay bit-identical to unguarded ones;
//! the cost is one comparison per primary output the repair re-simulates
//! plus `O(write set)` gate clones per commit.

use crate::apply::apply_substitution;
use crate::report::{GuardStats, QuarantineReason, QuarantinedCandidate, SubClass};
use crate::session::AnalysisSession;
use powder_atpg::{check_substitution, CheckOutcome, Substitution};
use powder_faults::{fires, FaultState, SITE_VERIFY_MISMATCH};
use powder_netlist::{GateId, GateKind, Netlist};
use powder_obs as obs;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Multiplier on the configured backtrack budget when a verification
/// mismatch sends a candidate back to ATPG for classification.
const ESCALATION_FACTOR: usize = 4;

/// Smallest backtrack budget the deadline policy will shrink to.
const MIN_BACKTRACKS: usize = 16;

/// Conservative write set of applying `sub`: every pre-existing gate
/// whose record ([`apply_substitution`]) may mutate. Gates *created* by
/// the apply are handled by the checkpoint's id bound and need not be
/// listed.
///
/// The set covers, for each primitive the apply runs:
/// - `replace_fanin` / `replace_all_fanouts`: the stem, the rewired
///   sinks, and the replacement sources `b` (and `c`), whose fanout
///   lists gain branches;
/// - `sweep_from(stem)`: every gate the cascade might remove — the
///   fixpoint closure of "all fanouts lead into the removal set" seeded
///   at the stem (a superset of the post-edit dangling set, since
///   membership is judged against the *pre-edit* fanouts minus the
///   closure itself) — plus the fanins of each closure member, whose
///   fanout lists the sweep edits.
pub(crate) fn write_set(nl: &Netlist, sub: &Substitution) -> Vec<GateId> {
    let stem = sub.substituted_stem(nl);
    let (b, c) = sub.sources();
    let mut set: Vec<GateId> = Vec::with_capacity(16);
    set.push(stem);
    set.push(b);
    set.extend(c);
    set.extend(sub.rewired_branches(nl).into_iter().map(|(sink, _)| sink));

    // Potential sweep closure, seeded at the stem.
    let mut closure: Vec<GateId> = vec![stem];
    let mut member: BTreeSet<GateId> = closure.iter().copied().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for gi in 0..closure.len() {
            for &fi in nl.fanins(closure[gi]) {
                if member.contains(&fi)
                    || !matches!(nl.kind(fi), GateKind::Cell(_) | GateKind::Const(_))
                {
                    continue;
                }
                if nl
                    .fanouts(fi)
                    .iter()
                    .all(|conn| member.contains(&conn.gate))
                {
                    member.insert(fi);
                    closure.push(fi);
                    changed = true;
                }
            }
        }
    }
    for &g in &closure {
        set.extend(nl.fanins(g).iter().copied());
    }
    set.extend(closure);
    set.sort_unstable();
    set.dedup();
    set
}

/// Applies `sub` transactionally: checkpoint the write set, apply, and
/// repair the session's analyses (the repair every pass uses), whose
/// cone re-simulation reports whether a primary output's signature
/// changed. When retained simulation values exist, such a change (or
/// the `verify-mismatch` fault site) is a mismatch.
///
/// On success the caller proceeds exactly as after a bare apply. On a
/// mismatch the session rolls back to the checkpoint — the netlist
/// bit-for-bit (the journal generation included, so caches keyed by it
/// stay valid), probabilities and signatures repaired over the restored
/// cone, the timing view dropped — the candidate is re-proved at an
/// escalated ATPG budget to classify the failure, and the quarantine
/// record is returned.
pub(crate) fn guarded_apply(
    sess: &mut AnalysisSession,
    sub: &Substitution,
    backtrack_limit: usize,
    faults: Option<&Arc<FaultState>>,
    stats: &mut GuardStats,
) -> Result<(), QuarantinedCandidate> {
    let roots = write_set(&sess.nl, sub);
    let cp = sess.checkpoint(&roots);
    apply_substitution(&mut sess.nl, sub);
    let po_changed = sess.repair();

    if sess.values.is_none() {
        // No retained signatures to check against — count it so a run
        // that silently skipped every verification is visible.
        stats.skipped += 1;
        obs::counter!(obs::names::GUARD_SKIPPED).inc();
        return Ok(());
    }
    if !fires(faults, SITE_VERIFY_MISMATCH) && !po_changed {
        stats.verified += 1;
        obs::counter!(obs::names::GUARD_VERIFIED).inc();
        return Ok(());
    }

    stats.mismatches += 1;
    obs::counter!(obs::names::GUARD_MISMATCHES).inc();
    sess.rollback(cp);
    stats.rollbacks += 1;
    obs::counter!(obs::names::GUARD_ROLLBACKS).inc();

    // Independent re-proof at an escalated budget: was the original
    // Permissible verdict wrong, or did the incremental state drift?
    stats.escalations += 1;
    obs::counter!(obs::names::GUARD_ESCALATIONS).inc();
    let budget = backtrack_limit.saturating_mul(ESCALATION_FACTOR).max(1);
    let reason = match check_substitution(&sess.nl, sub, budget) {
        CheckOutcome::Permissible => QuarantineReason::Inconsistent,
        CheckOutcome::NotPermissible(_) => QuarantineReason::Refuted,
        CheckOutcome::Aborted => QuarantineReason::Unproven,
    };
    stats.quarantined += 1;
    obs::counter!(obs::names::GUARD_QUARANTINED).inc();
    Err(QuarantinedCandidate {
        substitution: *sub,
        class: SubClass::of(sub),
        reason,
    })
}

/// Per-proof ATPG budget under deadline pressure: the full `base`
/// budget while at least half of the run window remains, then a linear
/// ramp down to a floor of [`MIN_BACKTRACKS`]. Shrunk budgets make
/// proofs *abort* earlier, and aborts are always treated as rejections
/// — never as permission — so deadline pressure can only suppress
/// optimizations, not unsoundness. Without a deadline the budget is
/// exactly `base`, keeping deadline-free runs bit-identical.
pub(crate) fn adaptive_backtrack(base: usize, t0: Instant, deadline: Option<Instant>) -> usize {
    let Some(deadline) = deadline else {
        return base;
    };
    let floor = base.clamp(1, MIN_BACKTRACKS);
    let now = Instant::now();
    if now >= deadline {
        return floor;
    }
    let total = deadline.saturating_duration_since(t0).as_secs_f64();
    let left = deadline.saturating_duration_since(now).as_secs_f64();
    if total <= 0.0 {
        return base;
    }
    let frac = left / total;
    if frac >= 0.5 {
        base
    } else {
        ((base as f64 * 2.0 * frac) as usize).clamp(floor, base)
    }
}

/// Whether the run deadline has passed.
pub(crate) fn deadline_exceeded(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use powder_library::lib2;
    use std::time::Duration;

    #[test]
    fn write_set_covers_sweep_cascade() {
        // f = or(and(a,b), and(b,a)); substituting the OR's output by g1
        // sweeps g2 (and nothing else), mutating a's and b's fanouts.
        let lib = std::sync::Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", and2, &[b, a]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        let o = nl.add_output("f", g3);
        let sub = Substitution::Os2 {
            a: g3,
            b: g1,
            invert: false,
        };
        let ws = write_set(&nl, &sub);
        for needed in [a, b, g1, g2, g3, o] {
            assert!(ws.contains(&needed), "write set must cover {needed}");
        }
        // Rollback through the full apply restores the exact netlist.
        let _ = nl.drain_dirty();
        let gen_before = nl.generation();
        let blif_before = powder_netlist::blif::write_blif(&nl);
        let cp = nl.checkpoint(&ws);
        apply_substitution(&mut nl, &sub);
        assert!(!nl.is_live(g2), "apply swept the duplicate AND");
        nl.rollback(cp);
        nl.validate().unwrap();
        assert_eq!(nl.generation(), gen_before);
        assert_eq!(powder_netlist::blif::write_blif(&nl), blif_before);
    }

    /// An impermissible OS2 forced through the guard: in f = (a & b) | c,
    /// replacing the AND by c changes f wherever a & b & !c. The output
    /// comparison must catch it, roll back, classify it as refuted, and
    /// leave the netlist and its analyses exactly as they were.
    #[test]
    fn guard_rolls_back_a_changed_output() {
        let lib = std::sync::Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", or2, &[g1, c]);
        nl.add_output("f", g2);
        let mut sess = AnalysisSession::new(nl, SessionConfig::default());
        sess.signatures();
        let blif_before = powder_netlist::blif::write_blif(sess.netlist());
        let gen_before = sess.netlist().generation();
        let live: Vec<GateId> = sess.netlist().iter_live().collect();
        let probs = |sess: &AnalysisSession| -> Vec<u64> {
            live.iter()
                .map(|&g| sess.est.probability(g).to_bits())
                .collect()
        };
        let sigs = |sess: &AnalysisSession| -> Vec<Vec<u64>> {
            let values = sess.values.as_ref().expect("materialized");
            live.iter().map(|&g| values.get(g).to_vec()).collect()
        };
        let (probs_before, sigs_before) = (probs(&sess), sigs(&sess));

        let sub = Substitution::Os2 {
            a: g1,
            b: c,
            invert: false,
        };
        let mut stats = GuardStats::default();
        let q = guarded_apply(&mut sess, &sub, 1_000, None, &mut stats)
            .expect_err("the output changes, so the guard must refuse the commit");
        assert_eq!(q.reason, QuarantineReason::Refuted);
        assert_eq!((stats.mismatches, stats.rollbacks), (1, 1));

        sess.netlist().validate().unwrap();
        assert_eq!(
            powder_netlist::blif::write_blif(sess.netlist()),
            blif_before
        );
        assert_eq!(sess.netlist().generation(), gen_before);
        assert_eq!(
            probs(&sess),
            probs_before,
            "probabilities restored bit for bit"
        );
        assert_eq!(sigs(&sess), sigs_before, "signatures restored");
    }

    #[test]
    fn adaptive_backtrack_is_identity_without_deadline() {
        let t0 = Instant::now();
        assert_eq!(adaptive_backtrack(3_000, t0, None), 3_000);
    }

    #[test]
    fn adaptive_backtrack_shrinks_under_pressure() {
        let t0 = Instant::now() - Duration::from_secs(100);
        // 90% of the window elapsed: budget ramps toward the floor.
        let deadline = Some(t0 + Duration::from_secs(111));
        let b = adaptive_backtrack(3_000, t0, deadline);
        assert!(b < 3_000, "budget must shrink, got {b}");
        assert!(b >= MIN_BACKTRACKS);
        // Past the deadline: floor.
        let expired = Some(Instant::now() - Duration::from_secs(1));
        assert_eq!(adaptive_backtrack(3_000, t0, expired), MIN_BACKTRACKS);
        assert!(deadline_exceeded(expired));
        assert!(!deadline_exceeded(None));
    }
}
