//! Pass-pipeline architecture over the POWDER optimizer stack.
//!
//! The paper's flow (power-driven permissible substitutions after
//! technology mapping) is one transformation among several that read
//! the same expensive analyses: logic-simulation signatures, the
//! switched-capacitance power estimator, and static timing. This crate
//! factors that observation into two pieces:
//!
//! | type | role |
//! |------|------|
//! | [`AnalysisSession`] | owns the netlist plus every analysis, kept consistent through the edit journal (lazy, cone-local repair); defined in `powder`, whose Fig. 5 loop commits through the same repair, and re-exported here |
//! | [`Pipeline`] | runs a scripted pass sequence under one [`OptimizeConfig`](powder::OptimizeConfig), optionally to a fixpoint, and accounts per-pass effects |
//!
//! The pass set is closed: [`KNOWN_PASSES`] names `powder` (the paper's
//! Fig. 5 loop), `sweep` (constant propagation and duplicate merging
//! keyed on simulation signatures), `resize` (slack-constrained cell
//! downsizing), `redundancy` (ATPG redundancy removal), and `egraph`
//! (equality-saturation cone rewriting, DESIGN.md §9). The pipeline
//! runs each through one `match`, and every setting a pass reads comes
//! from the pipeline's one config: the backtrack limit, the stop flag
//! and deadline, and the POWDER parameters. Only the e-graph bounds and
//! the `resize` anchor sit beside it ([`build_pipeline_with`]). All
//! passes share one invariant: between passes, no analysis is ever
//! rebuilt from scratch. The session's
//! [`SessionStats`](powder_engine::SessionStats) counters prove it.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use powder_library::lib2;
//! use powder_netlist::Netlist;
//! use powder::OptimizeConfig;
//! use powder_passes::{build_pipeline, AnalysisSession, SessionConfig};
//!
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
//! let config = OptimizeConfig::default();
//! let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&config));
//! let mut pipeline = build_pipeline("sweep,powder,resize", &config, None).unwrap();
//! let report = pipeline.run(&mut sess);
//! assert!(report.final_power <= report.initial_power);
//! sess.into_netlist().validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod egraph;
pub mod integrity;
mod passes;
mod pipeline;

pub use checkpoint::{ResumePoint, RunCheckpoint, CHECKPOINT_MAGIC};
pub use pipeline::{
    build_pipeline, build_pipeline_with, validate_passes, CheckpointSink, PassReport, Pipeline,
    PipelineReport, KNOWN_PASSES,
};
pub use powder::{AnalysisSession, SessionCheckpoint, SessionConfig};
