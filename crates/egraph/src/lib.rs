//! Equality-saturation rewriting over mapped netlist cones.
//!
//! POWDER's substitution loop makes single-signal moves; this crate
//! batches whole families of structural rewrites. For each cell-rooted,
//! fanout-free cone it (1) translates the mapped logic into an e-graph
//! whose classes carry exact truth tables over the cone leaves,
//! (2) saturates under logic identities (commutativity, associativity,
//! De Morgan, factoring) and library-aware remap rules (cell ↔
//! decomposed subject-graph forms), then (3) extracts the cheapest
//! implementation by switched capacitance `Σ C·E` using pin caps from
//! the genlib model and activities from the caller's estimator.
//!
//! The crate is netlist-in/plan-out: the `egraph` pass in
//! `powder-passes` owns journaled application, the ATPG permissibility
//! oracle, and guard-style rollback/quarantine; see DESIGN.md §9.
//!
//! Everything here is deterministic — node tables are scanned in
//! insertion order, class ids count up in creation order, tie-breaks
//! are first-wins with a `1e-12` epsilon — so repeated runs and
//! different `--jobs` values produce identical rewrites.

pub mod cone;
pub mod extract;
pub mod graph;
mod hash;
#[cfg(test)]
mod proptests;
pub mod rules;
pub mod table;

pub use cone::{
    apply_plan, build_egraph, collect_cone, current_cost, plan_const_needs, plan_root_is_existing,
    Cone, ConeGraph, MAX_CONE_GATES,
};
pub use extract::{
    extract, signal_probability, transition_density, Operand, Plan, PlanStep, COST_EPS,
};
pub use graph::{ClassId, EGraph, NodeEntry, Op, RuleId, RULE_SEED};
pub use rules::{saturate, RuleCache, SaturationStats, RULE_NAMES};
pub use table::{ConeTable, MAX_CONE_LEAVES};

/// Minimum modelled `Σ C·E` gain before a rewrite is attempted.
pub const MIN_GAIN: f64 = 1e-9;

/// Saturation bounds of the egraph pass, carried from the CLI / job
/// spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EgraphConfig {
    /// Per-cone e-node budget (`--egraph-node-limit`).
    pub node_limit: usize,
    /// Per-cone saturation sweep limit (`--egraph-iters`).
    pub iter_limit: usize,
}

impl Default for EgraphConfig {
    fn default() -> Self {
        EgraphConfig {
            node_limit: 512,
            iter_limit: 6,
        }
    }
}

/// Aggregated statistics for one run of the egraph pass, surfaced in
/// bench per-pass rows and obs metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EgraphReport {
    /// Cones translated into e-graphs.
    pub cones: usize,
    /// Total saturation sweeps across cones.
    pub iters: usize,
    /// Total e-nodes created across cones.
    pub nodes: usize,
    /// Cones whose saturation reached a fixpoint within budget.
    pub saturated: usize,
    /// Extracted rewrites applied and kept.
    pub applied: usize,
    /// Rewrites rejected before application (no plan / no gain).
    pub rejected: usize,
    /// Rewrites rolled back by the guard (refuted or power regression).
    pub rollbacks: usize,
    /// Modelled `Σ C·E` delta of kept rewrites (negative is gain).
    pub cost_delta: f64,
}
