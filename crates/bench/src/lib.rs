//! Shared harness code for the experiment binaries (`table1`, `table2`,
//! `figure6`, `ablation`, `glitch`).

use powder::{optimize, DelayLimit, OptimizeConfig, OptimizeReport};
use powder_library::{lib2, Library};
use powder_netlist::Netlist;
use powder_power::{PowerConfig, PowerEstimator};
use powder_sim::{simulate, CellCovers, Patterns};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::sync::Arc;

/// Initial metrics of a mapped circuit.
#[derive(Clone, Copy, Debug)]
pub struct InitialMetrics {
    /// Switched capacitance `Σ C·E`.
    pub power: f64,
    /// Total cell area.
    pub area: f64,
    /// Circuit delay.
    pub delay: f64,
}

/// One row of the Table 1 reproduction.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Initial power/area/delay.
    pub initial: InitialMetrics,
    /// Unconstrained POWDER run.
    pub unconstrained: OptimizeReport,
    /// Delay-constrained POWDER run (limit = initial delay).
    pub constrained: OptimizeReport,
    /// Whether both optimized netlists passed the random-pattern
    /// equivalence check against the original.
    pub equivalence_ok: bool,
}

/// The shared standard library instance.
#[must_use]
pub fn library() -> Arc<Library> {
    Arc::new(lib2())
}

/// Measures a netlist's initial power/area/delay under the default model.
#[must_use]
pub fn initial_metrics(nl: &Netlist) -> InitialMetrics {
    let est = PowerEstimator::new(nl, &PowerConfig::default());
    let sta = TimingAnalysis::new(nl, &TimingConfig::default());
    InitialMetrics {
        power: est.circuit_power(nl),
        area: nl.area(),
        delay: sta.circuit_delay(),
    }
}

/// Random-pattern equivalence check between two netlists with identical
/// input/output interfaces.
#[must_use]
pub fn equivalent_by_simulation(a: &Netlist, b: &Netlist, words: usize, seed: u64) -> bool {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return false;
    }
    let covers_a = CellCovers::new(a.library());
    let covers_b = CellCovers::new(b.library());
    let pats = Patterns::random(a.inputs().len(), words, seed);
    let va = simulate(a, &covers_a, &pats);
    let vb = simulate(b, &covers_b, &pats);
    a.outputs()
        .iter()
        .zip(b.outputs())
        .all(|(&oa, &ob)| va.get(oa) == vb.get(ob))
}

/// The optimizer configuration used by all experiments (`repeat = 10`,
/// 1024 random patterns, 3 000 backtracks), matching DESIGN.md §4.
#[must_use]
pub fn experiment_config(delay_limit: Option<DelayLimit>) -> OptimizeConfig {
    OptimizeConfig {
        delay_limit,
        sim_words: 16,
        max_rounds: 40,
        max_rejections_per_round: 100,
        ..OptimizeConfig::default()
    }
}

/// Runs both POWDER modes on a freshly built benchmark.
///
/// # Errors
///
/// Propagates unknown benchmark names.
pub fn run_table1_row(name: &str) -> Result<Table1Row, powder_benchmarks::BuildError> {
    let lib = library();
    let original = powder_benchmarks::build(name, lib)?;
    let initial = initial_metrics(&original);

    let mut nl_u = original.clone();
    let unconstrained = optimize(&mut nl_u, &experiment_config(None));

    let mut nl_c = original.clone();
    let constrained = optimize(&mut nl_c, &experiment_config(Some(DelayLimit::Factor(1.0))));

    let equivalence_ok = equivalent_by_simulation(&original, &nl_u, 32, 0xEC)
        && equivalent_by_simulation(&original, &nl_c, 32, 0xEC);

    Ok(Table1Row {
        name: name.to_string(),
        initial,
        unconstrained,
        constrained,
        equivalence_ok,
    })
}

/// Parses a `--circuits=a,b,c` / `--quick` selection from CLI args;
/// defaults to the full Table 1 suite.
#[must_use]
pub fn circuit_selection(args: &[String]) -> Vec<String> {
    for a in args {
        if let Some(list) = a.strip_prefix("--circuits=") {
            return list.split(',').map(str::to_string).collect();
        }
    }
    if args.iter().any(|a| a == "--quick") {
        return powder_benchmarks::tradeoff_names()
            .into_iter()
            .map(str::to_string)
            .collect();
    }
    powder_benchmarks::table1_names()
        .into_iter()
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_parsing() {
        let all = circuit_selection(&[]);
        assert_eq!(all.len(), 47);
        let quick = circuit_selection(&["--quick".to_string()]);
        assert_eq!(quick.len(), 18);
        let picked = circuit_selection(&["--circuits=rd84,bw".to_string()]);
        assert_eq!(picked, vec!["rd84", "bw"]);
    }

    #[test]
    fn equivalence_check_detects_difference() {
        let lib = library();
        let and2 = lib.find_by_name("and2").unwrap();
        let or2 = lib.find_by_name("or2").unwrap();
        let mut a = Netlist::new("a", lib.clone());
        let x = a.add_input("x");
        let y = a.add_input("y");
        let g = a.add_cell("g", and2, &[x, y]);
        a.add_output("f", g);
        let mut b = Netlist::new("b", lib);
        let x2 = b.add_input("x");
        let y2 = b.add_input("y");
        let g2 = b.add_cell("g", or2, &[x2, y2]);
        b.add_output("f", g2);
        assert!(equivalent_by_simulation(&a, &a.clone(), 4, 1));
        assert!(!equivalent_by_simulation(&a, &b, 4, 1));
    }

    #[test]
    fn smoke_one_row() {
        let row = run_table1_row("bw").unwrap();
        assert!(
            row.equivalence_ok,
            "bw optimization must be equivalence-preserving"
        );
        assert!(row.unconstrained.final_power <= row.initial.power + 1e-9);
        assert!(row.constrained.final_delay <= row.initial.delay + 1e-9);
    }
}
