//! The named workloads and the inputs they run on.
//!
//! Circuits are fixed by name; the seed reaches the program only as the
//! simulation-pattern seed (the serve probe also takes its job order
//! from it). `Z5xp1`, `clip`, `C5315` and `des` are left out of every
//! workload: their generators gave different BLIF in two processes.

use powder::{DelayLimit, OptimizeConfig};

/// A named set of circuits and the pass script run on each, through
/// `read_blif` → `AnalysisSession` → `Pipeline::run` → `write_blif` at
/// `jobs = 1`.
pub struct Workload {
    pub name: &'static str,
    pub circuits: &'static [&'static str],
    /// The `--passes` script.
    pub passes: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    // The powder pass alone. Candidate generation is 70-87 % of its
    // time on every circuit here, each run commits 20-50 substitutions
    // over 5-10 rounds: where reusing work across rounds would show.
    // Small circuits, so that every circuit repeats many times a run.
    Workload {
        name: "powder-small",
        circuits: &["bw", "x1", "example2", "apex6", "x4", "apex7", "x3", "frg2"],
        passes: "powder",
    },
    // The whole pass script; `redundancy` and `egraph` dominate, so
    // candidate generation is a small share (the control for it).
    Workload {
        name: "pipeline-full",
        circuits: &["bw", "x1", "x3", "ex4", "example2"],
        passes: "sweep,egraph,powder,resize,redundancy",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The Table-1 settings (repeat 10, 1024 patterns, 3000 backtracks,
/// 40 rounds), delay-constrained to the input delay, at `jobs = 1`.
pub fn batch_config(seed: u64) -> OptimizeConfig {
    OptimizeConfig {
        seed,
        jobs: 1,
        ..powder_bench::experiment_config(Some(DelayLimit::Factor(1.0)))
    }
}

/// The pattern seed a run seeded with `seed` gives the program
/// (SplitMix64), kept below 2^53: the serve protocol carries seeds as
/// JSON numbers, which the daemon reads as `f64`.
pub fn pattern_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}
