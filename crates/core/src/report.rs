//! Optimization reports and the per-class statistics behind Table 2.

use powder_atpg::Substitution;
use powder_engine::EngineStats;
use std::fmt;

/// The four substitution classes of the paper (inverted variants count
/// toward their base class).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum SubClass {
    /// Output substitution by an existing signal.
    Os2,
    /// Input (branch) substitution by an existing signal.
    Is2,
    /// Output substitution by a new two-input gate.
    Os3,
    /// Input substitution by a new two-input gate.
    Is3,
}

impl SubClass {
    /// All classes, in the paper's Table 2 order.
    pub const ALL: [SubClass; 4] = [SubClass::Os2, SubClass::Is2, SubClass::Os3, SubClass::Is3];

    /// Class of a substitution.
    #[must_use]
    pub fn of(sub: &Substitution) -> Self {
        match sub {
            Substitution::Os2 { .. } => SubClass::Os2,
            Substitution::Is2 { .. } => SubClass::Is2,
            Substitution::Os3 { .. } => SubClass::Os3,
            Substitution::Is3 { .. } => SubClass::Is3,
        }
    }
}

impl fmt::Display for SubClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SubClass::Os2 => "OS2",
            SubClass::Is2 => "IS2",
            SubClass::Os3 => "OS3",
            SubClass::Is3 => "IS3",
        };
        f.write_str(s)
    }
}

/// One committed substitution with its measured effect.
#[derive(Clone, Debug)]
pub struct AppliedSubstitution {
    /// The substitution that was performed.
    pub substitution: Substitution,
    /// Its class.
    pub class: SubClass,
    /// Measured power reduction (positive = saved).
    pub power_saved: f64,
    /// Measured area change (positive = grew).
    pub area_delta: f64,
}

/// Aggregated per-class effect (the rows of the paper's Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Number of substitutions committed.
    pub count: usize,
    /// Total power saved by this class.
    pub power_saved: f64,
    /// Total area change caused by this class (negative = shrank).
    pub area_delta: f64,
}

/// Wall-clock seconds the optimizer spent in each phase of its loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Logic simulation: initial/full passes plus post-commit cone
    /// resimulation.
    pub simulation: f64,
    /// Candidate generation (fault-simulation filtering).
    pub candidates: f64,
    /// Power-gain analysis: `PG_A + PG_B` scoring and full `PG_C`
    /// what-if re-estimation of pre-selected candidates.
    pub gain: f64,
    /// Static timing: per-candidate §3.4 checks plus post-commit
    /// arrival/required refreshes.
    pub timing: f64,
    /// Exact ATPG permissibility checks.
    pub atpg: f64,
    /// Committing substitutions: netlist edits, dirty-region drains,
    /// cone computation, and power bookkeeping.
    pub apply: f64,
}

impl PhaseTimes {
    /// Total seconds across all tracked phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.simulation + self.candidates + self.gain + self.timing + self.atpg + self.apply
    }

    /// Folds another breakdown into this one (used when merging
    /// per-window reports into the run total).
    pub fn accumulate(&mut self, other: &PhaseTimes) {
        self.simulation += other.simulation;
        self.candidates += other.candidates;
        self.gain += other.gain;
        self.timing += other.timing;
        self.atpg += other.atpg;
        self.apply += other.apply;
    }
}

/// How often each analysis was refreshed incrementally (over the dirty
/// cone of the committed edit) versus rebuilt from scratch. Only in-loop
/// refreshes are counted; the one-time initial constructions are not.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalStats {
    /// Full STA rebuilds after a committed substitution.
    pub full_sta_rebuilds: usize,
    /// Incremental STA updates over the dirty region.
    pub incremental_sta_updates: usize,
    /// Whole-netlist simulation passes.
    pub full_resims: usize,
    /// Post-commit cone resimulations into the retained value buffer.
    pub incremental_resims: usize,
    /// O(n) circuit-power scans performed for commit bookkeeping.
    pub full_power_rescans: usize,
    /// Incremental power updates (running-total adjustment over the
    /// dirty cone).
    pub incremental_power_updates: usize,
    /// Cross-checks of incremental state against from-scratch
    /// recomputation (only in `cross_check` mode).
    pub cross_checks: usize,
}

/// Commit-guard activity: every committed substitution passes through a
/// transactional checkpoint/verify cycle (see `guard.rs`), and these
/// counters record what the guard saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Commits whose post-apply verification passed.
    pub verified: usize,
    /// Commits applied without verification (no retained simulation
    /// values to check against).
    pub skipped: usize,
    /// Post-apply verifications that found a changed primary-output
    /// signature.
    pub mismatches: usize,
    /// Commits rolled back to their checkpoint.
    pub rollbacks: usize,
    /// Escalated ATPG re-proofs run to classify a mismatch.
    pub escalations: usize,
    /// Candidates quarantined for the rest of the run.
    pub quarantined: usize,
}

/// Why a candidate was quarantined after a verification mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The escalated ATPG re-proof refuted the original Permissible
    /// verdict: the substitution really was unsound.
    Refuted,
    /// The escalated re-proof still says Permissible, so the mismatch
    /// points at drifted incremental state (or an injected fault)
    /// rather than the candidate itself.
    Inconsistent,
    /// The escalated re-proof aborted on its budget; treated as unsound
    /// conservatively.
    Unproven,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuarantineReason::Refuted => "refuted",
            QuarantineReason::Inconsistent => "inconsistent",
            QuarantineReason::Unproven => "unproven",
        };
        f.write_str(s)
    }
}

/// A substitution the commit guard rolled back and barred from the run.
#[derive(Clone, Copy, Debug)]
pub struct QuarantinedCandidate {
    /// The offending substitution.
    pub substitution: Substitution,
    /// Its class.
    pub class: SubClass,
    /// The escalated re-proof's classification of the failure.
    pub reason: QuarantineReason,
}

/// Outcome of one window processed by the windowed driver (see
/// `OptimizeConfig::window_size`): the benchmark harness renders these
/// as per-window phase rows, and the scaling analysis reads the
/// core/scope sizes to verify the partitioner held its bounds.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// Position of the window in its plan (processing order).
    pub index: usize,
    /// Rewrite-target gates the window owned (its core).
    pub core_gates: usize,
    /// Gates visible to the window (core, halo, and boundary).
    pub scope_gates: usize,
    /// Substitutions committed inside the window.
    pub commits: usize,
    /// Power saved by this window's commits.
    pub power_saved: f64,
    /// Per-phase wall-clock breakdown of the window's inner run.
    pub phase: PhaseTimes,
    /// Wall-clock seconds the window took end to end.
    pub seconds: f64,
}

/// The result of running the optimizer on one circuit.
#[derive(Clone, Debug)]
pub struct OptimizeReport {
    /// `Σ C·E` before optimization.
    pub initial_power: f64,
    /// `Σ C·E` after optimization.
    pub final_power: f64,
    /// Total gate area before.
    pub initial_area: f64,
    /// Total gate area after.
    pub final_area: f64,
    /// Circuit delay before.
    pub initial_delay: f64,
    /// Circuit delay after.
    pub final_delay: f64,
    /// Every committed substitution, in order.
    pub applied: Vec<AppliedSubstitution>,
    /// Number of outer candidate-generation rounds executed.
    pub rounds: usize,
    /// Number of exact ATPG checks run.
    pub atpg_checks: usize,
    /// Exact checks rejected (non-permissible or aborted).
    pub atpg_rejections: usize,
    /// Candidates discarded by the delay constraint.
    pub delay_rejections: usize,
    /// Wall-clock seconds spent.
    pub cpu_seconds: f64,
    /// Per-phase wall-clock breakdown of `cpu_seconds`.
    pub phase: PhaseTimes,
    /// Incremental-versus-full refresh counters.
    pub incremental: IncrementalStats,
    /// Resolved worker count the run used (1 = inline on the caller's
    /// thread).
    pub jobs: usize,
    /// Candidate-evaluation pipeline counters and stage wall times.
    pub engine: EngineStats,
    /// Transactional commit-guard counters.
    pub guard: GuardStats,
    /// Candidates the guard rolled back and quarantined, in order.
    pub quarantined: Vec<QuarantinedCandidate>,
    /// Per-window rows when the windowed driver ran; empty for
    /// whole-netlist runs. In windowed mode [`OptimizeReport::rounds`]
    /// counts completed windows instead of candidate rounds.
    pub windows: Vec<WindowReport>,
    /// Whether the run stopped early because its wall-clock deadline
    /// expired (the report then describes the best-so-far netlist).
    pub deadline_hit: bool,
    /// Whether the run stopped early on a cooperative stop request
    /// (SIGINT, daemon drain, job cancellation). Like `deadline_hit`,
    /// the report then describes the best-so-far netlist.
    pub interrupted: bool,
}

impl OptimizeReport {
    /// Power reduction as a percentage of the initial power.
    #[must_use]
    pub fn power_reduction_percent(&self) -> f64 {
        if self.initial_power <= 0.0 {
            0.0
        } else {
            100.0 * (self.initial_power - self.final_power) / self.initial_power
        }
    }

    /// Area reduction as a percentage of the initial area.
    #[must_use]
    pub fn area_reduction_percent(&self) -> f64 {
        if self.initial_area <= 0.0 {
            0.0
        } else {
            100.0 * (self.initial_area - self.final_area) / self.initial_area
        }
    }

    /// Per-class totals (Table 2 input).
    #[must_use]
    pub fn class_stats(&self) -> [(SubClass, ClassStats); 4] {
        let mut out = SubClass::ALL.map(|c| (c, ClassStats::default()));
        for a in &self.applied {
            let slot = &mut out
                .iter_mut()
                .find(|(c, _)| *c == a.class)
                .expect("all classes present")
                .1;
            slot.count += 1;
            slot.power_saved += a.power_saved;
            slot.area_delta += a.area_delta;
        }
        out
    }
}

impl fmt::Display for OptimizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "power {:.3} -> {:.3} ({:+.1}%), area {:.0} -> {:.0} ({:+.1}%), delay {:.2} -> {:.2}",
            self.initial_power,
            self.final_power,
            -self.power_reduction_percent(),
            self.initial_area,
            self.final_area,
            -self.area_reduction_percent(),
            self.initial_delay,
            self.final_delay,
        )?;
        writeln!(
            f,
            "{} substitutions in {} rounds ({} ATPG checks, {} rejected, {} delay-rejected), {:.1}s",
            self.applied.len(),
            self.rounds,
            self.atpg_checks,
            self.atpg_rejections,
            self.delay_rejections,
            self.cpu_seconds,
        )?;
        writeln!(
            f,
            "refreshes: sta {}i/{}f, sim {}i/{}f, power {}i/{}f",
            self.incremental.incremental_sta_updates,
            self.incremental.full_sta_rebuilds,
            self.incremental.incremental_resims,
            self.incremental.full_resims,
            self.incremental.incremental_power_updates,
            self.incremental.full_power_rescans,
        )?;
        write!(
            f,
            "engine: jobs {}, {} scored, {} filtered, {} full gains, {} proofs \
             ({} speculative hits), {} invalidated, {} retried",
            self.jobs,
            self.engine.evaluated,
            self.engine.filtered,
            self.engine.full_gains,
            self.engine.proved,
            self.engine.speculative_hits,
            self.engine.invalidated,
            self.engine.retried,
        )?;
        write!(
            f,
            "\nguard: {} verified, {} skipped",
            self.guard.verified, self.guard.skipped
        )?;
        if self.guard.mismatches > 0 {
            write!(
                f,
                ", {} mismatches ({} rolled back, {} quarantined)",
                self.guard.mismatches, self.guard.rollbacks, self.guard.quarantined
            )?;
        }
        if self.engine.worker_panics > 0 || self.engine.degraded_phases > 0 {
            write!(
                f,
                "\nworkers: {} panics, {} batches quarantined, {} degraded phases",
                self.engine.worker_panics,
                self.engine.quarantined_batches,
                self.engine.degraded_phases
            )?;
        }
        if !self.windows.is_empty() {
            let core: usize = self.windows.iter().map(|w| w.core_gates).sum();
            write!(
                f,
                "\nwindows: {} processed covering {} core gates",
                self.windows.len(),
                core
            )?;
        }
        if self.deadline_hit {
            write!(f, "\ndeadline hit: best-so-far result emitted")?;
        }
        if self.interrupted {
            write!(f, "\ninterrupted: best-so-far result emitted")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powder_netlist::GateId;

    #[test]
    fn class_of_substitutions() {
        let os2 = Substitution::Os2 {
            a: GateId(0),
            b: GateId(1),
            invert: true,
        };
        assert_eq!(SubClass::of(&os2), SubClass::Os2);
        assert_eq!(SubClass::Os2.to_string(), "OS2");
    }

    #[test]
    fn report_percentages_and_stats() {
        let applied = vec![
            AppliedSubstitution {
                substitution: Substitution::Os2 {
                    a: GateId(0),
                    b: GateId(1),
                    invert: false,
                },
                class: SubClass::Os2,
                power_saved: 3.0,
                area_delta: -100.0,
            },
            AppliedSubstitution {
                substitution: Substitution::Is2 {
                    sink: GateId(2),
                    pin: 0,
                    b: GateId(1),
                    invert: false,
                },
                class: SubClass::Is2,
                power_saved: 1.0,
                area_delta: 50.0,
            },
        ];
        let r = OptimizeReport {
            initial_power: 10.0,
            final_power: 6.0,
            initial_area: 1000.0,
            final_area: 950.0,
            initial_delay: 5.0,
            final_delay: 5.0,
            applied,
            rounds: 1,
            atpg_checks: 2,
            atpg_rejections: 0,
            delay_rejections: 0,
            cpu_seconds: 0.1,
            phase: PhaseTimes::default(),
            incremental: IncrementalStats::default(),
            jobs: 1,
            engine: EngineStats::default(),
            guard: GuardStats {
                verified: 2,
                ..GuardStats::default()
            },
            quarantined: Vec::new(),
            windows: Vec::new(),
            deadline_hit: false,
            interrupted: false,
        };
        assert!((r.power_reduction_percent() - 40.0).abs() < 1e-12);
        assert!((r.area_reduction_percent() - 5.0).abs() < 1e-12);
        let stats = r.class_stats();
        assert_eq!(stats[0].1.count, 1);
        assert!((stats[0].1.power_saved - 3.0).abs() < 1e-12);
        assert_eq!(stats[1].1.count, 1);
        assert_eq!(stats[2].1.count, 0);
        let shown = r.to_string();
        assert!(shown.contains("substitutions"));
        assert!(shown.contains("guard: 2 verified, 0 skipped"));
        assert!(
            !shown.contains("deadline hit"),
            "deadline note only shown when the deadline fired"
        );
    }

    #[test]
    fn quarantine_reason_display() {
        assert_eq!(QuarantineReason::Refuted.to_string(), "refuted");
        assert_eq!(QuarantineReason::Inconsistent.to_string(), "inconsistent");
        assert_eq!(QuarantineReason::Unproven.to_string(), "unproven");
    }
}
