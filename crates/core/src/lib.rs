//! **POWDER** — power reduction after technology mapping by ATPG-based
//! structural transformations.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Rohfleisch, Kölbl, Wurth, DAC 1996): a post-mapping optimizer that
//! performs a sequence of *permissible signal substitutions* — OS2, IS2,
//! OS3 and IS3, plus their inverted-signal variants — each chosen to reduce
//! the circuit's switched capacitance `Σ C(i)·E(i)`, optionally under a
//! delay constraint.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | paper | here |
//! |---|---|
//! | power gain analysis, Eqs. (2)–(5) | [`gain::analyze_fast`], [`gain::analyze_full`] |
//! | `get_candidate_substitutions` | `powder_atpg::generate_candidates` |
//! | `select_power_red_subst` | the pre-selection + `PG_C` ranking in [`optimize`] |
//! | `check_delay` (§3.4) | `powder_timing::TimingAnalysis::check_substitution` |
//! | `check_candidate` (ATPG) | `powder_atpg::check_substitution` |
//! | `perform_substitution` | [`apply::apply_substitution`] |
//! | `power_estimate_update` | [`AnalysisSession::refresh`] (`PowerEstimator::update_cone` over the dirty cone) |
//! | Fig. 5 `power_optimize` | [`optimize`], [`AnalysisSession::run_powder`] |
//!
//! [`AnalysisSession`] owns the netlist and every analysis the loop reads
//! (power estimator, simulation patterns and signatures, timing view) and
//! repairs them over each edit's dirty cone; every commit of the loop goes
//! through that one repair, as do the edits of the passes in
//! `powder-passes`, which run on the same session. [`optimize`] is
//! [`AnalysisSession::run_powder`] on a fresh session.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use powder_library::lib2;
//! use powder_netlist::Netlist;
//! use powder::{optimize, OptimizeConfig};
//!
//! // Build a tiny mapped circuit with a redundant gate pair.
//! let lib = Arc::new(lib2());
//! let and2 = lib.find_by_name("and2").unwrap();
//! let or2 = lib.find_by_name("or2").unwrap();
//! let andn2 = lib.find_by_name("andn2").unwrap();
//! let mut nl = Netlist::new("demo", lib);
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g1 = nl.add_cell("g1", and2, &[a, b]);
//! let g2 = nl.add_cell("g2", andn2, &[a, b]);
//! let g3 = nl.add_cell("g3", or2, &[g1, g2]); // g3 == a
//! nl.add_output("f", g3);
//!
//! let report = optimize(&mut nl, &OptimizeConfig::default());
//! assert!(report.final_power <= report.initial_power);
//! nl.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
mod arbiter;
pub mod gain;
mod guard;
mod optimizer;
pub mod report;
pub mod resize;
mod session;
mod windowed;

pub use optimizer::{optimize, DelayLimit, OptimizeConfig, RoundHook, RoundSnapshot, MIN_GAIN};
pub use powder_atpg::{
    check_equivalence, CandidateConfig, CandidateScope, EquivOutcome, Substitution,
};
pub use powder_engine::{EngineStats, SessionStats};
pub use report::{
    AppliedSubstitution, ClassStats, GuardStats, OptimizeReport, PhaseTimes, QuarantineReason,
    QuarantinedCandidate, SubClass, WindowReport,
};
pub use session::{AnalysisSession, SessionCheckpoint, SessionConfig};
