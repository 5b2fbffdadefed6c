//! ATPG engine for permissible-substitution discovery and proof.
//!
//! The paper identifies permissible signal substitutions with ATPG-based
//! methods (Section 3.2, refs \[2,5\]): a substitution is permissible iff the
//! function of the substituting signal is a permissible function of the
//! substituted signal — equivalently, iff no input vector can distinguish
//! the original circuit from the rewired one at any primary output.
//!
//! This crate provides both halves of that machinery:
//!
//! * [`generate_candidates`] — the fault-simulation-based filter behind the
//!   paper's `get_candidate_substitutions`: a candidate `a ← b` survives iff
//!   its signature difference is masked by `a`'s observability don't-cares
//!   on every simulated pattern;
//! * [`check_substitution`] — the exact proof behind `check_candidate`: a
//!   cone-local miter between the original and rewired transitive fanout is
//!   handed to a PODEM-style branch-and-bound circuit-SAT solver; `Unsat`
//!   proves permissibility, `Sat` yields a distinguishing input vector
//!   (which callers feed back into the pattern set), and hitting the
//!   backtrack limit reports `Aborted` — treated as "not permissible",
//!   exactly like the paper's aborted ATPG runs. [`CheckArena::check`] is
//!   the same proof with a cached base circuit, optionally cut at a window
//!   scope.
//!
//! One netlist encoder (`check::encode`) builds the node tables of both
//! the permissibility miter and [`check_equivalence`], and one call
//! (`SatBuilder::solve`) enters the solver.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use powder_library::lib2;
//! use powder_netlist::Netlist;
//! use powder_atpg::{check_substitution, CheckOutcome, Substitution};
//!
//! // f = (a & b) | (a & !b)  is just a: substituting the OR stem by a
//! // is permissible, and ATPG proves it.
//! let lib = Arc::new(lib2());
//! let and2 = lib.find_by_name("and2").unwrap();
//! let andn2 = lib.find_by_name("andn2").unwrap();
//! let or2 = lib.find_by_name("or2").unwrap();
//! let mut nl = Netlist::new("demo", lib);
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g1 = nl.add_cell("g1", and2, &[a, b]);
//! let g2 = nl.add_cell("g2", andn2, &[a, b]);
//! let g3 = nl.add_cell("g3", or2, &[g1, g2]);
//! nl.add_output("f", g3);
//!
//! let sub = Substitution::Os2 { a: g3, b: a, invert: false };
//! let outcome = check_substitution(&nl, &sub, 1_000);
//! assert!(matches!(outcome, CheckOutcome::Permissible));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod candidates;
mod check;
pub mod equiv;
#[cfg(test)]
mod proptests;
mod sat;
#[cfg(test)]
mod tests_support;

pub use candidates::{
    generate_candidates, generate_candidates_scoped, CandidateConfig, CandidateScope,
};
pub use check::{check_substitution, CheckArena, CheckOutcome, Substitution};
pub use equiv::{check_equivalence, EquivOutcome};
