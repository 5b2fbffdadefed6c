//! Standard-cell library model for the POWDER reproduction.
//!
//! The paper maps circuits with the MCNC `lib2.genlib` library and relies on
//! per-cell power and delay data: each cell carries a Boolean function, an
//! area, per-pin input capacitances, an intrinsic delay `τ` and a drive
//! resistance `R` (the linear delay model `D = τ + R·C` of Section 2).
//!
//! This crate provides:
//!
//! * [`Cell`] / [`Library`] — the in-memory model consumed by the netlist,
//!   mapper, power estimator and timing analyzer;
//! * [`genlib`] — a parser for the classic genlib format;
//! * [`lib2`] — a built-in library with the classic `lib2` cell set and the
//!   capacitance ratios the paper's Figure 2 example assumes (an XOR input
//!   pin loads its driver twice as much as an AND input pin).
//!
//! # Example
//!
//! ```
//! use powder_library::lib2;
//!
//! let lib = lib2();
//! let inv = lib.cell(lib.inverter()).expect("lib2 has an inverter");
//! assert_eq!(inv.inputs(), 1);
//! assert!(lib.find_by_name("nand2").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
pub mod expr;
pub mod genlib;
mod lib2_def;

pub use cell::{Cell, CellId, Library, Match, Pin, MAX_INDEXED_INPUTS};
pub use lib2_def::lib2;
pub use lib2_def::lib2x;
