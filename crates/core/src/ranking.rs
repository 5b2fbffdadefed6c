//! One round's candidate ranking, certified rank by rank.
//!
//! The arbiter reads a round's candidates in fast-score order: by
//! descending `PG_A + PG_B` (under `f64::total_cmp`), ties in generation
//! order. It reads only the first ranks (about 1 % of them on
//! `powder-small`), so [`Ranking`] builds that order lazily instead of
//! generating, scoring and sorting every candidate up front:
//!
//! 1. **Bound.** Every target of the round's [`CandidateScan`] (an OS
//!    stem or an IS branch) gets the [`bound`] of its own removal set's
//!    `PG_A`, which no candidate of the target can exceed.
//! 2. **Scan.** While the next rank is not certain, the unscanned target
//!    of highest bound is scanned, and its candidates are scored and
//!    queued by `(score, target index, emission index)`: the generator
//!    emits targets in index order and each target's candidates in
//!    emission order, so this key is the eager list's stable-sort order.
//! 3. **Certify.** The best queued candidate takes the next rank once
//!    its score is strictly above every unscanned target's bound: no
//!    candidate still to come can score as high, so none can precede it.
//!
//! Every rank therefore holds exactly the candidate and score the eager
//! generate → score → stable sort puts there. The ranking reads the
//! round-start state throughout — its scan owns a copy of the values,
//! and it owns clones of the netlist and the estimator — so ranks read
//! after a commit are those of the round's start, as the eager list's
//! were.

use crate::gain::{bound, TargetScorer};
use powder_atpg::{CandidateConfig, CandidateScan, CandidateScope, Substitution};
use powder_netlist::Netlist;
use powder_obs as obs;
use powder_power::PowerEstimator;
use powder_sim::{CellCovers, SimValues};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// A scored candidate waiting for its rank. The greatest is the one the
/// eager order puts first: highest score, then earliest generated.
struct Pending {
    score: f64,
    target: u32,
    emission: u32,
    sub: Substitution,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.target.cmp(&self.target))
            .then(other.emission.cmp(&self.emission))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// The candidates of one round in fast-score order, certified on demand
/// (see the module docs).
pub(crate) struct Ranking {
    scan: CandidateScan,
    /// The round-start netlist and estimator the scores read.
    nl: Netlist,
    est: PowerEstimator,
    scorer: TargetScorer,
    /// Targets by descending bound, ties by index; those from `next` on
    /// are unscanned.
    order: Vec<(f64, u32)>,
    next: usize,
    pending: BinaryHeap<Pending>,
    ranked: Vec<(Substitution, f64)>,
    buf: Vec<Substitution>,
    /// Seconds spent building the scan and scanning targets.
    pub(crate) scan_seconds: f64,
    /// Seconds spent snapshotting, bounding and scoring.
    pub(crate) score_seconds: f64,
    /// Candidates scored so far.
    pub(crate) evaluated: usize,
}

impl Ranking {
    /// Builds the round's scan of `nl` under `values` and bounds every
    /// target; nothing is scanned or scored yet.
    pub(crate) fn new(
        nl: &Netlist,
        covers: &CellCovers,
        values: &SimValues,
        est: &PowerEstimator,
        config: &CandidateConfig,
        scope: Option<&CandidateScope>,
    ) -> Self {
        let t = Instant::now();
        let scan = {
            let _span = obs::span!(obs::names::span::PHASE_CANDIDATES);
            CandidateScan::new(nl, covers, values, config, scope)
        };
        let scan_seconds = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _span = obs::span!(obs::names::span::PHASE_GAIN);
        let (nl, est) = (nl.clone(), est.clone());
        let mut scorer = TargetScorer::default();
        let mut order: Vec<(f64, u32)> = scan
            .targets()
            .iter()
            .zip(0u32..)
            .map(|(t, i)| (bound(scorer.start(&nl, &est, t.stem, t.branch)), i))
            .collect();
        order.sort_unstable_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
        Ranking {
            scan,
            nl,
            est,
            scorer,
            order,
            next: 0,
            pending: BinaryHeap::new(),
            ranked: Vec::new(),
            buf: Vec::new(),
            scan_seconds,
            score_seconds: t.elapsed().as_secs_f64(),
            evaluated: 0,
        }
    }

    /// The candidate at rank `i` and its fast score, certifying the ranks
    /// up to `i` first; `None` past the last candidate.
    pub(crate) fn get(&mut self, i: usize) -> Option<(Substitution, f64)> {
        while self.ranked.len() <= i {
            if !self.certify() {
                return None;
            }
        }
        Some(self.ranked[i])
    }

    /// The candidate at rank `i`, which must be certified already.
    pub(crate) fn at(&self, i: usize) -> Substitution {
        self.ranked[i].0
    }

    /// Certifies the next rank, scanning targets until its candidate is
    /// certain; `false` once every candidate is ranked.
    fn certify(&mut self) -> bool {
        loop {
            let certain = match (self.pending.peek(), self.order.get(self.next)) {
                (Some(p), Some(&(b, _))) => p.score.total_cmp(&b).is_gt(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return false,
            };
            if certain {
                let p = self.pending.pop().expect("peeked above");
                self.ranked.push((p.sub, p.score));
                return true;
            }
            self.scan_next();
        }
    }

    /// Scans the unscanned target of highest bound and queues its
    /// candidates, scored against the round-start state.
    fn scan_next(&mut self) {
        let t = self.order[self.next].1;
        self.next += 1;
        let t0 = Instant::now();
        self.buf.clear();
        self.scan.scan(t as usize, &mut self.buf);
        let t1 = Instant::now();
        if !self.buf.is_empty() {
            let target = self.scan.targets()[t as usize];
            self.scorer
                .start(&self.nl, &self.est, target.stem, target.branch);
            for (sub, e) in self.buf.iter().zip(0u32..) {
                self.pending.push(Pending {
                    score: self.scorer.fast(&self.nl, &self.est, sub),
                    target: t,
                    emission: e,
                    sub: *sub,
                });
            }
            self.evaluated += self.buf.len();
        }
        self.scan_seconds += (t1 - t0).as_secs_f64();
        self.score_seconds += t1.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::{analyze_fast_with, GainScratch};
    use crate::optimizer::candidate_alive;
    use crate::session::{AnalysisSession, SessionConfig};
    use crate::windowed::window_scope;
    use powder_atpg::generate_candidates_scoped;
    use powder_library::lib2;
    use powder_netlist::{partition_windows, WindowConfig};
    use proptest::prelude::*;
    use std::sync::Arc;

    const CIRCUITS: [&str; 6] = ["c8", "x1", "bw", "rd84", "apex7", "example2"];

    /// The order the ranking replaces: every candidate generated and
    /// fast-scored, then stable-sorted by descending score.
    fn eager(
        sess: &AnalysisSession,
        config: &CandidateConfig,
        scope: Option<&CandidateScope>,
    ) -> Vec<(Substitution, f64)> {
        let values = sess.values.as_ref().expect("simulated");
        let mut gs = GainScratch::default();
        let mut scored: Vec<(Substitution, f64)> =
            generate_candidates_scoped(&sess.nl, &sess.covers, values, config, scope)
                .into_iter()
                .map(|s| {
                    (
                        s,
                        analyze_fast_with(&sess.nl, &sess.est, &s, &mut gs).fast(),
                    )
                })
                .collect();
        scored.sort_by(|x, y| y.1.total_cmp(&x.1));
        scored
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Drained rank by rank, the ranking is the eager generate →
        /// score → stable sort, substitution and score bits alike: on
        /// suite circuits under random patterns, unscoped and in a random
        /// window, with commits on the live session between reads (the
        /// ranking keeps reading the round-start state).
        #[test]
        fn ranking_matches_eager_sort(
            circuit in 0usize..CIRCUITS.len(),
            seed in any::<u64>(),
            words in 1usize..4,
            windowed in any::<bool>(),
            knobs in any::<u64>(),
        ) {
            let nl = powder_benchmarks::build(CIRCUITS[circuit], Arc::new(lib2()))
                .expect("suite circuit");
            let mut sess = AnalysisSession::new(
                nl,
                SessionConfig { sim_words: words, seed, ..SessionConfig::default() },
            );
            sess.signatures();
            let scope = windowed.then(|| {
                let plan = partition_windows(&sess.nl, WindowConfig { size: 32, overlap: 4 });
                let w = &plan.windows[(knobs % plan.windows.len() as u64) as usize];
                window_scope(sess.nl.id_bound(), w).0
            });
            let config = CandidateConfig::default();
            let expect = eager(&sess, &config, scope.as_ref());
            let mut ranking = Ranking::new(
                &sess.nl,
                &sess.covers,
                sess.values.as_ref().expect("simulated"),
                &sess.est,
                &config,
                scope.as_ref(),
            );
            let mut commits = 0;
            let mut state = knobs;
            for (i, &(sub, score)) in expect.iter().enumerate() {
                let got = ranking.get(i);
                prop_assert!(got.is_some(), "rank {} of {} missing", i, expect.len());
                let (got_sub, got_score) = got.expect("checked");
                prop_assert_eq!(got_sub, sub, "rank {}", i);
                prop_assert_eq!(got_score.to_bits(), score.to_bits(), "rank {}", i);
                // Now and then, commit the candidate just read.
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                if commits < 3
                    && (state >> 59) == 0
                    && candidate_alive(&sess.nl, &sub)
                    && sub.is_structurally_valid(&sess.nl)
                {
                    sess.apply(&sub);
                    commits += 1;
                }
            }
            prop_assert!(ranking.get(expect.len()).is_none());
            prop_assert_eq!(ranking.evaluated, expect.len());
        }
    }
}
