//! Workspace facade for the POWDER reproduction.
//!
//! Re-exports the crates of the reproduction so examples and integration
//! tests can use one coherent namespace. See the individual crates for the
//! full APIs:
//!
//! * [`powder`] — the optimizer (the paper's contribution);
//! * [`powder_netlist`], [`powder_library`], [`powder_logic`] — the data
//!   model;
//! * [`powder_sim`], [`powder_power`], [`powder_timing`], [`powder_atpg`]
//!   — the engines;
//! * [`powder_passes`] — the pass pipeline (shared analysis session,
//!   the closed pass set, scripted pass sequences);
//! * [`powder_synth`], [`powder_benchmarks`] — the POSE-substitute flow and
//!   the benchmark suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use powder;
pub use powder_atpg;
pub use powder_benchmarks;
pub use powder_library;
pub use powder_logic;
pub use powder_netlist;
pub use powder_passes;
pub use powder_power;
pub use powder_sim;
pub use powder_synth;
pub use powder_timing;
