//! The `egraph` pass: equality-saturation rewriting above the
//! substitution loop.
//!
//! Where POWDER's passes make single-signal moves, this pass rewrites
//! whole cones: for each cell-rooted, fanout-free cone it saturates an
//! e-graph under logic and library-remap rules, extracts the cheapest
//! implementation by switched capacitance, and — when the model
//! predicts a gain — materializes the extraction next to the old cone
//! and substitutes it in through the standard machinery:
//!
//! 1. the new structure is simulated and its signature must match the
//!    old root's under every retained pattern (a free counterexample
//!    check before any proving starts);
//! 2. the substitution is proven permissible by the ATPG oracle
//!    (`check_substitution`, the same cone-local miter POWDER uses);
//! 3. the edit is journaled through the session, so incremental
//!    power/sim/STA repair applies unchanged;
//! 4. the measured `Σ C·E` must actually drop — a commit whose global
//!    power regresses (the cone model is exact locally but blind to
//!    reconvergence outside the cone) is rolled back bit-for-bit
//!    through a [`SessionCheckpoint`], PR-5 guard style, and the rule
//!    chain that produced the plan is quarantined for the rest of the
//!    pass.
//!
//! Determinism: candidate roots are scanned in ascending gate id, the
//! e-graph and extractor are deterministic by construction, and no
//! decision depends on `--jobs`.

use powder::AnalysisSession;
use powder::Substitution;
use powder_atpg::{check_substitution, CheckOutcome};
use powder_egraph::{
    apply_plan, build_egraph, collect_cone, current_cost, extract, plan_const_needs,
    plan_root_is_existing, saturate, Cone, EgraphConfig, EgraphReport, Operand, Plan, RuleCache,
    MIN_GAIN,
};
use powder_netlist::{GateId, GateKind};
use powder_obs as obs;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Power-improvement threshold for accepting a committed rewrite,
/// matching the monotonicity epsilon used by the other passes.
const POWER_EPS: f64 = 1e-12;

/// Why one candidate cone did not produce a committed rewrite.
enum Verdict {
    /// Committed and kept (modelled cost delta attached).
    Kept(f64),
    /// Nothing to commit, for the reason given.
    Rejected(Reject),
    /// Applied or staged, then undone; the rule chain is quarantined.
    RolledBack(Vec<u8>),
}

/// Why a cone was rejected before anything was kept or rolled back.
#[derive(Clone, Copy)]
enum Reject {
    /// No cone at the root.
    NoCone,
    /// The extractor found no implementable plan.
    NoPlan,
    /// The plan does not beat the cone's modelled cost by [`MIN_GAIN`].
    NoGain,
    /// The plan's rule chain was quarantined earlier in the pass.
    Quarantined,
    /// The substitution is structurally invalid.
    Invalid,
    /// The ATPG permissibility check aborted.
    AtpgAbort,
}

impl Reject {
    /// Counts the rejection under its typed reason.
    fn count(self) {
        match self {
            Reject::NoCone => obs::counter!(obs::names::EGRAPH_REJECT_NO_CONE).inc(),
            Reject::NoPlan => obs::counter!(obs::names::EGRAPH_REJECT_NO_PLAN).inc(),
            Reject::NoGain => obs::counter!(obs::names::EGRAPH_REJECT_NO_GAIN).inc(),
            Reject::Quarantined => obs::counter!(obs::names::EGRAPH_REJECT_QUARANTINED).inc(),
            Reject::Invalid => obs::counter!(obs::names::EGRAPH_REJECT_INVALID).inc(),
            Reject::AtpgAbort => obs::counter!(obs::names::EGRAPH_REJECT_ATPG_ABORT).inc(),
        }
    }
}

/// The `egraph` pass: saturates every cell-rooted cone under `cfg`'s
/// bounds and commits the extractions that prove out, proving each with
/// `backtrack_limit`. A set `stop` flag ends the pass between cones.
/// Its edits are the report's `applied` rewrites.
pub(crate) fn egraph(
    sess: &mut AnalysisSession,
    cfg: &EgraphConfig,
    backtrack_limit: usize,
    stop: Option<&AtomicBool>,
) -> EgraphReport {
    let mut er = EgraphReport::default();
    // Library matches memoised for every cone of this run.
    let mut cache = RuleCache::new(Arc::clone(sess.netlist().library()));
    // Roots whose extraction the guard refuted, and the rule chains
    // that produced those plans: neither is tried again.
    let mut quarantined_roots: HashSet<GateId> = HashSet::new();
    let mut quarantined_chains: HashSet<Vec<u8>> = HashSet::new();
    let roots: Vec<GateId> = sess
        .netlist()
        .iter_live()
        .filter(|&g| matches!(sess.netlist().kind(g), GateKind::Cell(_)))
        .collect();
    for root in roots {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            break;
        }
        if !sess.netlist().is_live(root) || quarantined_roots.contains(&root) {
            continue;
        }
        let verdict = try_rewrite(
            sess,
            root,
            cfg,
            backtrack_limit,
            &quarantined_chains,
            &mut cache,
            &mut er,
        );
        match verdict {
            Verdict::Kept(delta) => {
                er.applied += 1;
                er.cost_delta += delta;
                obs::counter!(obs::names::EGRAPH_APPLIED).inc();
            }
            Verdict::Rejected(reason) => {
                er.rejected += 1;
                obs::counter!(obs::names::EGRAPH_REJECTED).inc();
                reason.count();
            }
            Verdict::RolledBack(chain) => {
                er.rollbacks += 1;
                obs::counter!(obs::names::EGRAPH_ROLLBACKS).inc();
                obs::counter!(obs::names::EGRAPH_QUARANTINED).inc();
                quarantined_roots.insert(root);
                quarantined_chains.insert(chain);
            }
        }
    }
    er
}

/// Runs the saturate→extract→prove→commit protocol on one root.
fn try_rewrite(
    sess: &mut AnalysisSession,
    root: GateId,
    cfg: &EgraphConfig,
    backtrack_limit: usize,
    quarantined_chains: &HashSet<Vec<u8>>,
    cache: &mut RuleCache,
    er: &mut EgraphReport,
) -> Verdict {
    let _span = obs::span!(obs::names::span::EGRAPH_CONE);
    // Saturate the cone and extract the cheapest implementation.
    let (cone, plan, old_cost) = {
        let (nl, est) = sess.analyses();
        let Some(cone) = collect_cone(nl, root) else {
            return Verdict::Rejected(Reject::NoCone);
        };
        let leaf_probs: Vec<f64> = cone.leaves.iter().map(|&l| est.probability(l)).collect();
        let mut cg = build_egraph(nl, &cone);
        let stats = saturate(&mut cg.eg, cfg, cache);
        er.cones += 1;
        er.iters += stats.iters;
        er.nodes += stats.nodes;
        er.saturated += usize::from(stats.saturated);
        obs::counter!(obs::names::EGRAPH_CONES).inc();
        obs::counter!(obs::names::EGRAPH_ITERS).add(stats.iters as u64);
        obs::counter!(obs::names::EGRAPH_NODES).add(stats.nodes as u64);
        obs::histogram!(
            obs::names::EGRAPH_CONE_NODES,
            obs::names::EGRAPH_CONE_NODES_BOUNDS
        )
        .observe(stats.nodes as u64);
        let old_cost = current_cost(nl, &cone, &cg, &leaf_probs);
        let Some(plan) = extract(&cg.eg, cg.root_class, &leaf_probs) else {
            return Verdict::Rejected(Reject::NoPlan);
        };
        (cone, plan, old_cost)
    };
    if old_cost - plan.cost <= MIN_GAIN {
        return Verdict::Rejected(Reject::NoGain);
    }
    if quarantined_chains.contains(&plan.rules) {
        return Verdict::Rejected(Reject::Quarantined);
    }

    commit_plan(sess, root, &cone, &plan, old_cost, backtrack_limit)
}

/// Stages the plan next to the old cone, proves the substitution, and
/// commits it — rolling everything back if any stage fails.
fn commit_plan(
    sess: &mut AnalysisSession,
    root: GateId,
    cone: &Cone,
    plan: &Plan,
    old_cost: f64,
    backtrack_limit: usize,
) -> Verdict {
    // Constant drivers the plan references must exist before the
    // checkpoint so a rollback never strands a dangling tie cell.
    let needs = plan_const_needs(plan);
    let mut consts: [Option<GateId>; 2] = [None, None];
    for value in [false, true] {
        if needs[usize::from(value)] {
            consts[usize::from(value)] = Some(find_or_add_const(sess, value));
        }
    }

    // Conservative write set: the cone interior is swept, its leaves
    // and constants gain/lose fanout branches, and the root's sinks are
    // rewired. New gates sit above the checkpoint's id bound.
    let mut roots: Vec<GateId> = cone.gates.clone();
    roots.extend(cone.leaves.iter().copied());
    for &g in &cone.gates {
        roots.extend(sess.netlist().fanins(g).iter().copied());
    }
    roots.extend(consts.iter().flatten().copied());
    roots.extend(sess.netlist().fanouts(root).iter().map(|c| c.gate));
    roots.sort_unstable();
    roots.dedup();
    let power_before = sess.power();
    let scp = sess.checkpoint(&roots);

    // Stage the extraction next to the old cone.
    let b = match plan.root {
        Operand::Leaf(i) => cone.leaves[i as usize],
        Operand::Const(v) => consts[usize::from(v)].expect("resolved above"),
        Operand::Step(_) => {
            debug_assert!(!plan_root_is_existing(plan));
            let prefix = format!("eg{}", root.0);
            apply_plan(sess.netlist_mut(), plan, &cone.leaves, consts, &prefix)
        }
    };

    // Free counterexample check: the staged structure must agree with
    // the old root on every retained pattern. A mismatch means the
    // saturation produced an unsound plan — quarantine its rule chain.
    if b != root {
        let (_, values) = sess.signatures();
        if values.get(b) != values.get(root) {
            sess.rollback(scp);
            return Verdict::RolledBack(plan.rules.clone());
        }
    }

    let sub = Substitution::Os2 {
        a: root,
        b,
        invert: false,
    };
    {
        let (nl, _) = sess.analyses();
        if !sub.is_structurally_valid(nl) {
            sess.rollback(scp);
            return Verdict::Rejected(Reject::Invalid);
        }
        obs::counter!(obs::names::PASSES_ATPG_CHECKS).inc();
        let outcome = {
            let _span = obs::span!(obs::names::span::PASSES_ATPG_CHECK);
            check_substitution(nl, &sub, backtrack_limit)
        };
        match outcome {
            CheckOutcome::Permissible => {}
            CheckOutcome::NotPermissible(_) => {
                // The miter found a distinguishing pattern the retained
                // set missed: the plan is functionally wrong.
                sess.rollback(scp);
                return Verdict::RolledBack(plan.rules.clone());
            }
            CheckOutcome::Aborted => {
                sess.rollback(scp);
                return Verdict::Rejected(Reject::AtpgAbort);
            }
        }
    }

    sess.apply(&sub);
    // Retire whatever the substitution's sweep left behind (staged
    // steps whose output went unused never had fanouts).
    for &g in cone.gates.iter().rev() {
        if sess.netlist().is_live(g) && sess.netlist().fanouts(g).is_empty() {
            sess.sweep_dangling(g);
        }
    }

    // Guard: the modelled gain must materialize globally. The cone
    // model is exact over its leaves but blind to correlations outside,
    // so a regression is possible — roll it back and quarantine.
    let power_after = sess.power();
    if power_after < power_before - POWER_EPS {
        Verdict::Kept(plan.cost - old_cost)
    } else {
        sess.rollback(scp);
        Verdict::RolledBack(plan.rules.clone())
    }
}

/// A live constant-`value` driver: reuses an existing constant gate of
/// that polarity or creates a tie cell.
fn find_or_add_const(sess: &mut AnalysisSession, value: bool) -> GateId {
    let nl = sess.netlist();
    let existing = nl
        .iter_live()
        .find(|&g| matches!(nl.kind(g), GateKind::Const(v) if v == value));
    match existing {
        Some(g) => g,
        None => {
            let name = format!("tie{}", u8::from(value));
            sess.netlist_mut().add_const(name, value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_pipeline, PassReport};
    use powder::{OptimizeConfig, SessionConfig};
    use powder_library::lib2;
    use powder_netlist::Netlist;
    use std::sync::Arc;

    /// The one-pass `egraph` pipeline at the default bounds and
    /// backtrack limit.
    fn run_default(sess: &mut AnalysisSession) -> PassReport {
        let mut pipeline =
            build_pipeline("egraph", &OptimizeConfig::default(), None).expect("valid spec");
        pipeline.run(sess).passes.remove(0)
    }

    /// `f = (a&b) | (a&c)`: factoring pulls `a` out, so the cone can be
    /// rebuilt as `a & (b|c)` — one fewer 2-input gate, strictly less
    /// input capacitance.
    fn factorable() -> Netlist {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("factorable", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", and2, &[a, c]);
        let g3 = nl.add_cell("g3", or2, &[g1, g2]);
        nl.add_output("f", g3);
        nl
    }

    #[test]
    fn egraph_pass_factors_shared_literal() {
        let mut sess = AnalysisSession::new(factorable(), SessionConfig::default());
        let before = sess.power();
        let report = run_default(&mut sess);
        let er = report.egraph.expect("egraph stats attached");
        assert!(er.cones > 0, "at least the output cone is explored");
        assert!(report.edits >= 1, "the factorable cone is rewritten");
        assert!(
            report.power_after < before - 1e-12,
            "power must strictly drop: {} -> {}",
            before,
            report.power_after
        );
        let nl = sess.into_netlist();
        nl.validate().unwrap();
    }

    #[test]
    fn egraph_pass_is_deterministic() {
        let run = || {
            let mut sess = AnalysisSession::new(factorable(), SessionConfig::default());
            let report = run_default(&mut sess);
            let nl = sess.into_netlist();
            (report.edits, powder_netlist::blif::write_blif(&nl))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn egraph_pass_never_increases_power() {
        // A circuit with nothing to gain must be left untouched.
        let lib = Arc::new(lib2());
        let inv = lib.find_by_name("inv1").unwrap();
        let mut nl = Netlist::new("inv_only", lib);
        let a = nl.add_input("a");
        let g = nl.add_cell("g", inv, &[a]);
        nl.add_output("f", g);
        let mut sess = AnalysisSession::new(nl, SessionConfig::default());
        let before = sess.power();
        let report = run_default(&mut sess);
        assert!(report.power_after <= before + 1e-12);
        sess.into_netlist().validate().unwrap();
    }
}
