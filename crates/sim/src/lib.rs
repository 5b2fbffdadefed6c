//! Bit-parallel logic simulation for the POWDER reproduction.
//!
//! The ATPG-based candidate generation of the paper (Section 3.5,
//! `get_candidate_substitutions`, following refs \[2,5\]) is driven by random
//! pattern simulation:
//!
//! * [`Patterns`] — packed random input vectors, 64 per machine word;
//! * [`simulate`] — evaluates every gate, producing per-signal *signatures*;
//! * [`observability_sweep`] — exact per-pattern observability masks of
//!   every stem and branch (the bit-parallel equivalent of simulating the
//!   stuck-at fault pair at the signal) in one reverse-topological sweep:
//!   a per-pattern chain rule through each branch's sink, which is exact
//!   bit by bit, and explicit forward propagation only from stems with
//!   several fanouts, whose flips may reconverge and cancel. A scoped sweep
//!   counts a difference as observed once it reaches an in-scope primary
//!   output or any edge leaving the scope. [`stem_observability`] /
//!   [`branch_observability`] give one signal's masks from a sweep over
//!   its fanout cone;
//! * [`ones_fraction`] — Monte-Carlo signal probabilities used to
//!   cross-check the analytic estimator in `powder-power`.
//!
//! A candidate substitution `a ← b` survives filtering iff
//! `(sig(a) ^ sig(b)) & obs(a) == 0` on all simulated patterns — a
//! necessary condition for permissibility that the exact ATPG check then
//! confirms or refutes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod covers;
mod observe;
mod patterns;
#[cfg(test)]
mod proptests;
mod simulate;

pub use covers::CellCovers;
pub use observe::{
    branch_observability, observability_sweep, stem_observability, stem_observability_all,
    ObservabilityMasks,
};
pub use patterns::Patterns;
pub use simulate::{ones_fraction, resimulate_cone, simulate, SimValues};
