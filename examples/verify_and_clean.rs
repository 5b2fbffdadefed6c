//! Verification-centric tour: build a deliberately redundant circuit, run
//! the redundancy-removal pass (paper ref [1]) and POWDER on one analysis
//! session, and prove the result equivalent with the formal checker —
//! then export the final netlist as structural Verilog.
//!
//! Run with: `cargo run --release --example verify_and_clean`

use powder::OptimizeConfig;
use powder_atpg::equiv::{check_equivalence, EquivOutcome};
use powder_library::lib2;
use powder_netlist::{verilog, Netlist};
use powder_passes::{build_pipeline, AnalysisSession, SessionConfig};
use std::sync::Arc;

fn main() {
    let lib = Arc::new(lib2());
    let and2 = lib.find_by_name("and2").expect("lib2 cell");
    let or2 = lib.find_by_name("or2").expect("lib2 cell");
    let andn2 = lib.find_by_name("andn2").expect("lib2 cell");

    // f = (a·b) | (a·!b) | (a·c)  — the consensus-laden classic; f == a
    // wherever c is irrelevant... precisely: f = a·(b + !b + c) = a.
    let mut nl = Netlist::new("cleanup_demo", lib);
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let t1 = nl.add_cell("t1", and2, &[a, b]);
    let t2 = nl.add_cell("t2", andn2, &[a, b]);
    let t3 = nl.add_cell("t3", and2, &[a, c]);
    let o1 = nl.add_cell("o1", or2, &[t1, t2]);
    let o2 = nl.add_cell("o2", or2, &[o1, t3]);
    nl.add_output("f", o2);
    let golden = nl.clone();
    println!("initial : {} cells, area {:.0}", nl.cell_count(), nl.area());

    let config = OptimizeConfig {
        backtrack_limit: 10_000,
        ..OptimizeConfig::default()
    };
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&config));
    let mut pipeline = build_pipeline("redundancy,powder", &config, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    let (red, powder_pass) = (&report.passes[0], &report.passes[1]);
    println!(
        "redundancy removal: {} pins tied, area −{:.0}",
        red.edits,
        red.area_before - red.area_after
    );

    let optimize = powder_pass.optimize.as_ref().expect("powder report");
    println!("POWDER  : {optimize}");
    let nl = sess.into_netlist();

    match check_equivalence(&golden, &nl, 100_000).expect("same interface") {
        EquivOutcome::Equivalent => println!("formal check: EQUIVALENT ✓"),
        EquivOutcome::Inequivalent { witness, output } => {
            panic!("BROKEN at output {output} under {witness:?}")
        }
        EquivOutcome::Unknown => println!("formal check: inconclusive (budget)"),
    }

    println!(
        "\n// final netlist as structural Verilog\n{}",
        verilog::write_verilog(&nl)
    );
}
