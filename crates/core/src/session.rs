//! The analysis session: the one owner of a netlist and of every
//! analysis read by the passes and by the Fig. 5 loop.

use crate::apply::{apply_substitution, ApplyResult};
use crate::optimizer::{record_arena_gauges, OptimizeConfig};
use crate::report::OptimizeReport;
use powder_atpg::Substitution;
use powder_engine::SessionStats;
use powder_netlist::{ConeScratch, GateId, Netlist};
use powder_obs as obs;
use powder_power::{PowerConfig, PowerEstimator};
use powder_sim::{
    observability_sweep, resimulate_cone, simulate, CellCovers, ObservabilityMasks, Patterns,
    SimValues,
};
use powder_timing::{TimingAnalysis, TimingConfig};

/// Configuration of an [`AnalysisSession`]: the power model plus the
/// simulation volume and seed shared by every pass. For bit-identity
/// with a standalone [`crate::optimize`] run, derive it from the same
/// [`OptimizeConfig`] via [`SessionConfig::from_optimize`].
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Power model (output load, input probabilities).
    pub power: PowerConfig,
    /// Random simulation volume: `sim_words × 64` patterns.
    pub sim_words: usize,
    /// Seed for the random pattern generator.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::from_optimize(&OptimizeConfig::default())
    }
}

impl SessionConfig {
    /// The session parameters a standalone [`crate::optimize`] run with
    /// `config` uses.
    #[must_use]
    pub fn from_optimize(config: &OptimizeConfig) -> Self {
        SessionConfig {
            power: config.power.clone(),
            sim_words: config.sim_words,
            seed: config.seed,
        }
    }
}

/// A transactional checkpoint over the session's netlist *and* its
/// maintained analyses, produced by [`AnalysisSession::checkpoint`].
///
/// The caller contract matches [`Netlist::checkpoint`]: between
/// checkpoint and rollback, edits may only mutate gates in `roots` and
/// create new gates. [`AnalysisSession::rollback`] then restores the
/// netlist bit-for-bit and repairs the power estimator, retained
/// simulation values, and timing view over the restored region.
pub struct SessionCheckpoint {
    cp: powder_netlist::Checkpoint,
    roots: Vec<GateId>,
    id_bound: usize,
}

/// Owns a netlist together with every analysis the passes and the
/// Fig. 5 loop consult — simulation signatures and observability masks,
/// the power estimator, and timing — and keeps them consistent through
/// the netlist's edit journal: any edit made via
/// [`AnalysisSession::netlist_mut`] (or the mutating helpers) is
/// repaired lazily, over the dirty cone only, by the next analysis
/// access. POWDER's commits go through the same repair. No analysis is
/// rebuilt from scratch between edits (the masks excepted, see
/// [`AnalysisSession::observability`]); [`AnalysisSession::stats`]
/// counts exactly how often each analysis was fully rebuilt versus
/// incrementally refreshed.
pub struct AnalysisSession {
    pub(crate) nl: Netlist,
    pub(crate) config: SessionConfig,
    /// Per-cell cube covers for word-parallel simulation.
    pub(crate) covers: CellCovers,
    pub(crate) est: PowerEstimator,
    /// Grows by the ATPG counterexamples POWDER learns.
    pub(crate) patterns: Patterns,
    /// Retained simulation values under `patterns`; `None` until a
    /// reader materializes them.
    pub(crate) values: Option<SimValues>,
    /// Cached fixed-required-time timing view; `None` until a pass asks
    /// for one, dropped by a rollback and by an unconstrained POWDER run.
    pub(crate) sta: Option<TimingAnalysis>,
    /// Observability masks under the retained values; `None` until a
    /// pass asks for them, dropped by every edit.
    pub(crate) masks: Option<ObservabilityMasks>,
    cone_scratch: ConeScratch,
    /// The cone (topological order) of the current repair or rollback.
    cone: Vec<GateId>,
    /// The last [`AnalysisSession::delay`] answer, keyed by the
    /// netlist's `(generation, id_bound)` when it was computed.
    delay: Option<((u64, usize), f64)>,
    pub(crate) stats: SessionStats,
}

impl AnalysisSession {
    /// Takes ownership of `nl` and builds the initial analyses from its
    /// current state (one full power propagation; simulation values and
    /// timing stay lazy until a reader needs them).
    #[must_use]
    pub fn new(mut nl: Netlist, config: SessionConfig) -> Self {
        // The journal may hold construction records; the analyses below
        // are built from the current state, so tracking starts clean.
        nl.drain_dirty();
        obs::counter!(obs::names::ANALYSIS_POWER_FULL).inc();
        AnalysisSession {
            covers: CellCovers::new(nl.library()),
            est: PowerEstimator::new(&nl, &config.power),
            patterns: Patterns::random(nl.inputs().len(), config.sim_words.max(1), config.seed),
            values: None,
            nl,
            config,
            sta: None,
            masks: None,
            cone_scratch: ConeScratch::new(),
            cone: Vec::new(),
            delay: None,
            stats: SessionStats {
                full_power_builds: 1,
                ..SessionStats::default()
            },
        }
    }

    /// Rebuilds a session from checkpointed state: the restored netlist
    /// plus the pattern set as it stood mid-run (counterexamples
    /// learned before the checkpoint included). Simulation values are
    /// left unmaterialized — the first `signatures()` access runs one
    /// full simulation whose content is identical to the retained
    /// buffer the interrupted run carried, so every later decision
    /// reads the same bits.
    #[must_use]
    pub fn restore(nl: Netlist, config: SessionConfig, patterns: Patterns) -> Self {
        let mut sess = Self::new(nl, config);
        sess.patterns = patterns;
        sess
    }

    /// Read access to the netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// The session's simulation pattern set (grows as POWDER learns
    /// ATPG counterexamples; checkpoints must persist it).
    #[must_use]
    pub fn patterns(&self) -> &Patterns {
        &self.patterns
    }

    /// Mutable access to the netlist. Edit freely — every mutator
    /// journals what it touches, and the next analysis access repairs
    /// the analyses over exactly that dirty region.
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.nl
    }

    /// Dissolves the session, returning the optimized netlist.
    #[must_use]
    pub fn into_netlist(self) -> Netlist {
        self.nl
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Cumulative analysis-refresh counters since the session was built.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Drains the edit journal and repairs every materialized analysis
    /// over the dirty cone: power probabilities and the running total,
    /// retained simulation values, and the cached timing view. The
    /// observability masks are dropped instead (see
    /// [`AnalysisSession::observability`]). No-op when the journal is
    /// empty. All analysis accessors call this first, so passes rarely
    /// need to invoke it directly.
    pub fn refresh(&mut self) {
        self.repair();
    }

    /// [`AnalysisSession::refresh`], returning whether the
    /// re-simulation changed a primary output's signature (`false` when
    /// the journal was empty or no values are retained).
    pub(crate) fn repair(&mut self) -> bool {
        if !self.nl.has_pending_edits() {
            return false;
        }
        self.masks = None;
        let _span = obs::span!(obs::names::span::SESSION_REFRESH);
        self.stats.refreshes += 1;
        obs::counter!(obs::names::ANALYSIS_REFRESHES).inc();
        let region = self.nl.drain_dirty();
        self.cone.clear();
        self.cone_scratch
            .cone_topo(&self.nl, region.touched().iter().copied(), &mut self.cone);
        obs::histogram!(
            obs::names::ANALYSIS_CONE_GATES,
            obs::names::CONE_GATES_BOUNDS
        )
        .observe(self.cone.len() as u64);
        self.est.retire_gates(region.removed());
        self.est.update_cone(&self.nl, &self.cone);
        self.stats.incremental_power_updates += 1;
        obs::counter!(obs::names::ANALYSIS_POWER_INCREMENTAL).inc();
        let mut po_changed = false;
        if let Some(values) = self.values.as_mut() {
            po_changed = resimulate_cone(&self.nl, &self.covers, values, &self.cone);
            self.stats.incremental_resims += 1;
            obs::counter!(obs::names::ANALYSIS_SIM_INCREMENTAL).inc();
        }
        if let Some(sta) = self.sta.as_mut() {
            sta.update(&self.nl, &region, &self.cone);
            self.stats.incremental_sta_updates += 1;
            obs::counter!(obs::names::ANALYSIS_STA_INCREMENTAL).inc();
        }
        po_changed
    }

    /// The circuit's current switched capacitance `Σ C·E` (the metric
    /// POWDER minimises), read from the maintained estimator.
    pub fn power(&mut self) -> f64 {
        self.refresh();
        self.est.circuit_power(&self.nl)
    }

    /// The current circuit delay, from an unconstrained STA (required
    /// time floating at the circuit delay). The answer is kept with the
    /// netlist's `(generation, id_bound)`, so the STA is built only when
    /// the netlist changed since the last call.
    pub fn delay(&mut self) -> f64 {
        self.refresh();
        let key = (self.nl.generation(), self.nl.id_bound());
        if let Some((k, d)) = self.delay {
            if k == key {
                return d;
            }
        }
        self.stats.full_sta_builds += 1;
        obs::counter!(obs::names::ANALYSIS_STA_FULL).inc();
        let _span = obs::span!(obs::names::span::SESSION_STA_BUILD);
        let probe = TimingConfig {
            output_load: self.config.power.output_load,
            required_time: None,
        };
        let d = TimingAnalysis::new(&self.nl, &probe).circuit_delay();
        self.delay = Some((key, d));
        d
    }

    /// The netlist together with its refreshed power estimator — the
    /// borrow most passes need for gain analysis.
    pub fn analyses(&mut self) -> (&Netlist, &PowerEstimator) {
        self.refresh();
        (&self.nl, &self.est)
    }

    /// The netlist, estimator, and a timing analysis pinned to the given
    /// absolute required time. The timing view is cached: it is built in
    /// full only when the required time changes (or a rollback dropped
    /// it), and repaired incrementally over dirty regions otherwise.
    pub fn timed_analyses(
        &mut self,
        required_time: f64,
    ) -> (&Netlist, &PowerEstimator, &TimingAnalysis) {
        self.refresh();
        let rebuild = match &self.sta {
            Some(sta) => (sta.required_time() - required_time).abs() > 1e-12,
            None => true,
        };
        if rebuild {
            self.stats.full_sta_builds += 1;
            obs::counter!(obs::names::ANALYSIS_STA_FULL).inc();
            let _span = obs::span!(obs::names::span::SESSION_STA_BUILD);
            let cfg = TimingConfig {
                output_load: self.config.power.output_load,
                required_time: Some(required_time),
            };
            self.sta = Some(TimingAnalysis::new(&self.nl, &cfg));
        }
        (&self.nl, &self.est, self.sta.as_ref().expect("built above"))
    }

    /// The netlist with its simulation signatures under the session's
    /// pattern set, materializing them (one full simulation) on first
    /// use and refreshing them incrementally afterwards.
    pub fn signatures(&mut self) -> (&Netlist, &SimValues) {
        self.refresh();
        if self.values.is_none() {
            self.stats.full_resims += 1;
            obs::counter!(obs::names::ANALYSIS_SIM_FULL).inc();
            let _span = obs::span!(obs::names::span::SESSION_SIMULATE);
            self.values = Some(simulate(&self.nl, &self.covers, &self.patterns));
        }
        (&self.nl, self.values.as_ref().expect("materialized above"))
    }

    /// The netlist, its simulation signatures, and the observability
    /// masks of every stem and branch under them, from one
    /// [`observability_sweep`] over the whole netlist. The masks are
    /// built on first use and dropped by every edit: an edit changes the
    /// observability of its whole transitive fanin, so they are rebuilt
    /// rather than repaired.
    pub fn observability(&mut self) -> (&Netlist, &SimValues, &ObservabilityMasks) {
        self.signatures();
        let values = self.values.as_ref().expect("materialized by signatures()");
        let masks = self.masks.get_or_insert_with(|| {
            let _span = obs::span!(obs::names::span::SESSION_OBSERVABILITY);
            observability_sweep(&self.nl, &self.covers, values, None)
        });
        (&self.nl, values, masks)
    }

    /// Applies a proven substitution and repairs the analyses over its
    /// dirty cone.
    pub fn apply(&mut self, sub: &Substitution) -> ApplyResult {
        let result = apply_substitution(&mut self.nl, sub);
        self.refresh();
        result
    }

    /// Exchanges the cell of `g` (same function, same pin order) and
    /// repairs the analyses over the dirty cone.
    pub fn swap_gate_cell(&mut self, g: GateId, cell: powder_library::CellId) {
        crate::resize::swap_cell(&mut self.nl, g, cell);
        self.refresh();
    }

    /// Sweeps `seed` and everything upstream that becomes dangling,
    /// repairing the analyses; returns the removed gates.
    pub fn sweep_dangling(&mut self, seed: GateId) -> Vec<GateId> {
        let removed = self.nl.sweep_from(seed);
        if !removed.is_empty() {
            self.refresh();
        }
        removed
    }

    /// Captures a transactional checkpoint covering `roots` (see
    /// [`Netlist::checkpoint`] for the write-set contract). The journal
    /// is drained first so the analyses and the checkpoint describe the
    /// same state.
    #[must_use]
    pub fn checkpoint(&mut self, roots: &[GateId]) -> SessionCheckpoint {
        self.refresh();
        SessionCheckpoint {
            cp: self.nl.checkpoint(roots),
            roots: roots.to_vec(),
            id_bound: self.nl.id_bound(),
        }
    }

    /// Rolls the netlist back to `scp` and repairs every materialized
    /// analysis over the restored region: gates created since the
    /// checkpoint are retired from the estimator, the restored cone is
    /// re-propagated and re-simulated, and the cached timing view and
    /// observability masks are dropped (the former cannot be repaired
    /// across a journal rewind, the latter are never repaired).
    pub fn rollback(&mut self, scp: SessionCheckpoint) {
        // The netlist rollback rewinds the journal, so analyses must be
        // consistent with the pre-rollback state first.
        self.refresh();
        let created: Vec<GateId> = (scp.id_bound..self.nl.id_bound())
            .map(|i| GateId(i as u32))
            .collect();
        self.nl.rollback(scp.cp);
        self.est.retire_gates(&created);
        self.cone.clear();
        let live_roots = scp.roots.iter().copied().filter(|&g| self.nl.is_live(g));
        self.cone_scratch
            .cone_topo(&self.nl, live_roots, &mut self.cone);
        self.est.update_cone(&self.nl, &self.cone);
        self.stats.incremental_power_updates += 1;
        obs::counter!(obs::names::ANALYSIS_POWER_INCREMENTAL).inc();
        if let Some(values) = self.values.as_mut() {
            resimulate_cone(&self.nl, &self.covers, values, &self.cone);
            self.stats.incremental_resims += 1;
            obs::counter!(obs::names::ANALYSIS_SIM_INCREMENTAL).inc();
        }
        self.sta = None;
        self.masks = None;
    }

    /// Runs the POWDER substitution loop (the windowed driver when
    /// `config` asks for windows, see
    /// [`OptimizeConfig::window_size`]) on the session: it reads the
    /// session's analyses and commits through the same repair every
    /// other pass uses, so they stay consistent with the edited netlist.
    /// On a fresh session this is the standalone [`crate::optimize`].
    pub fn run_powder(&mut self, config: &OptimizeConfig) -> OptimizeReport {
        self.refresh();
        let report = match crate::windowed::resolve_window_config(config, self.nl.live_gate_count())
        {
            Some(wcfg) => crate::windowed::optimize_windowed(self, config, wcfg),
            None => crate::arbiter::power_optimize(self, config, None),
        };
        record_arena_gauges(&self.nl);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_library::lib2;
    use std::sync::Arc;

    fn small_circuit() -> Netlist {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut nl = Netlist::new("t", lib);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_cell("g1", and2, &[a, b]);
        let g2 = nl.add_cell("g2", or2, &[g1, c]);
        nl.add_output("f", g2);
        nl
    }

    #[test]
    fn refresh_repairs_analyses_after_manual_edit() {
        let mut sess = AnalysisSession::new(small_circuit(), SessionConfig::default());
        let before = sess.power();
        let (_, values) = sess.signatures();
        assert!(values.words() > 0);

        // Rewire g2's second pin from c (probability 0.5) to g1
        // (probability 0.25), then compare every maintained analysis
        // against a from-scratch rebuild.
        let nl = sess.netlist_mut();
        let g2 = nl
            .iter_live()
            .find(|&g| nl.gate_name(g) == "g2")
            .expect("g2 exists");
        let g1 = nl
            .iter_live()
            .find(|&g| nl.gate_name(g) == "g1")
            .expect("g1 exists");
        nl.replace_fanin(g2, 1, g1);
        let after = sess.power();
        assert_ne!(before, after, "the rewiring changes Σ C·E");
        // Tie g1's second pin to a constant 1 added after the values
        // were materialized: g1 becomes a, and the constant's own words
        // must read all-ones.
        let nl = sess.netlist_mut();
        let one = nl.add_const("one", true);
        nl.replace_fanin(g1, 1, one);

        let fresh = PowerEstimator::new(sess.netlist(), &sess.config().power.clone());
        let (nl, est) = sess.analyses();
        for g in nl.iter_live() {
            assert!(
                (est.probability(g) - fresh.probability(g)).abs() < 1e-12,
                "probability of {} drifted",
                nl.gate_name(g)
            );
        }
        let covers = CellCovers::new(sess.netlist().library());
        let pats = powder_sim::Patterns::random(
            sess.netlist().inputs().len(),
            sess.config().sim_words,
            sess.config().seed,
        );
        let full = simulate(sess.netlist(), &covers, &pats);
        let (nl, values) = sess.signatures();
        for g in nl.iter_live() {
            assert_eq!(values.get(g), full.get(g), "retained values stale at {g}");
        }
        let stats = sess.stats();
        assert_eq!(stats.full_resims, 1, "one lazy materialization only");
        assert!(stats.incremental_resims >= 1);
        assert_eq!(stats.full_power_builds, 1, "initial build only");
    }

    #[test]
    fn rollback_restores_netlist_and_analyses() {
        let mut sess = AnalysisSession::new(small_circuit(), SessionConfig::default());
        let power_before = sess.power();
        let (_, values) = sess.signatures();
        assert!(values.words() > 0);
        let blif_before = powder_netlist::blif::write_blif(sess.netlist());

        let (g1, g2, c) = {
            let nl = sess.netlist();
            let find = |n: &str| nl.iter_live().find(|&g| nl.gate_name(g) == n).unwrap();
            (find("g1"), find("g2"), find("c"))
        };
        // Write set: g2's fanin is rewired (g2), g1 gains a branch (g1),
        // c loses one (c); the new gate needs no root entry.
        let scp = sess.checkpoint(&[g1, g2, c]);
        let and2 = sess.netlist().library().find_by_name("and2").unwrap();
        let extra = sess.netlist_mut().add_cell("extra", and2, &[g1, c]);
        sess.netlist_mut().replace_fanin(g2, 1, extra);
        assert_ne!(sess.power(), power_before);

        sess.rollback(scp);
        sess.netlist().validate().unwrap();
        assert_eq!(
            powder_netlist::blif::write_blif(sess.netlist()),
            blif_before
        );
        assert!(
            (sess.power() - power_before).abs() < 1e-12,
            "estimator repaired to the checkpointed state"
        );
        // Every maintained analysis must agree with a from-scratch one.
        let fresh = PowerEstimator::new(sess.netlist(), &sess.config().power.clone());
        let (nl, est) = sess.analyses();
        for g in nl.iter_live() {
            assert!(
                (est.probability(g) - fresh.probability(g)).abs() < 1e-12,
                "probability of {} drifted after rollback",
                nl.gate_name(g)
            );
        }
        let covers = CellCovers::new(sess.netlist().library());
        let pats = powder_sim::Patterns::random(
            sess.netlist().inputs().len(),
            sess.config().sim_words,
            sess.config().seed,
        );
        let full = simulate(sess.netlist(), &covers, &pats);
        let (nl, values) = sess.signatures();
        for g in nl.iter_live() {
            assert_eq!(
                values.get(g),
                full.get(g),
                "values stale at {g} after rollback"
            );
        }
    }

    #[test]
    fn delay_is_built_once_per_netlist_state() {
        let mut sess = AnalysisSession::new(small_circuit(), SessionConfig::default());
        let d = sess.delay();
        assert_eq!(sess.delay(), d);
        assert_eq!(sess.stats().full_sta_builds, 1, "no edit, no second build");
        let nl = sess.netlist_mut();
        let find = |n: &str| nl.iter_live().find(|&g| nl.gate_name(g) == n).unwrap();
        let (g1, g2) = (find("g1"), find("g2"));
        nl.replace_fanin(g2, 1, g1);
        let after = sess.delay();
        assert_eq!(sess.stats().full_sta_builds, 2, "an edit rebuilds");
        let probe = TimingConfig {
            output_load: sess.config().power.output_load,
            required_time: None,
        };
        let fresh = TimingAnalysis::new(sess.netlist(), &probe).circuit_delay();
        assert_eq!(after.to_bits(), fresh.to_bits());
        assert_eq!(sess.delay(), after);
        assert_eq!(sess.stats().full_sta_builds, 2);
    }

    #[test]
    fn timed_analyses_cache_by_required_time() {
        let mut sess = AnalysisSession::new(small_circuit(), SessionConfig::default());
        let d = sess.delay();
        let builds_before = sess.stats().full_sta_builds;
        sess.timed_analyses(d);
        sess.timed_analyses(d);
        assert_eq!(
            sess.stats().full_sta_builds,
            builds_before + 1,
            "second query with the same required time hits the cache"
        );
        sess.timed_analyses(d * 2.0);
        assert_eq!(sess.stats().full_sta_builds, builds_before + 2);
    }

    #[test]
    fn run_powder_matches_standalone_optimize() {
        let lib = Arc::new(lib2());
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let xor2 = lib.find_by_name("xor2").unwrap();
        let build = || {
            let mut nl = Netlist::new("redundant", lib.clone());
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let c = nl.add_input("c");
            let g1 = nl.add_cell("g1", and2, &[a, b]);
            let g2 = nl.add_cell("g2", and2, &[b, a]);
            let g3 = nl.add_cell("g3", or2, &[g1, g2]);
            let g4 = nl.add_cell("g4", xor2, &[g3, c]);
            nl.add_output("f", g4);
            nl
        };
        let cfg = OptimizeConfig {
            jobs: 1,
            ..OptimizeConfig::default()
        };
        let mut standalone_nl = build();
        let standalone = crate::optimize(&mut standalone_nl, &cfg);

        let mut sess = AnalysisSession::new(build(), SessionConfig::from_optimize(&cfg));
        let report = sess.run_powder(&cfg);
        let subs: Vec<_> = report.applied.iter().map(|s| s.substitution).collect();
        let subs_standalone: Vec<_> = standalone.applied.iter().map(|s| s.substitution).collect();
        assert_eq!(subs, subs_standalone, "decision sequences diverged");
        assert_eq!(report.final_power, standalone.final_power);
    }
}
