//! Integration tests of the extension passes (redundancy removal, gate
//! re-sizing, glitch measurement) composed with the main optimizer on
//! one analysis session.

use powder::OptimizeConfig;
use powder_library::lib2;
use powder_netlist::Netlist;
use powder_passes::{build_pipeline, AnalysisSession, PassReport, SessionConfig};
use powder_power::glitch::glitch_power;
use powder_power::{PowerConfig, PowerEstimator};
use powder_sim::{simulate, CellCovers, Patterns};
use powder_timing::{TimingAnalysis, TimingConfig};
use std::sync::Arc;

fn po_sigs(nl: &Netlist, pats: &Patterns) -> Vec<Vec<u64>> {
    let covers = CellCovers::new(nl.library());
    let vals = simulate(nl, &covers, pats);
    nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
}

fn power(nl: &Netlist) -> f64 {
    PowerEstimator::new(nl, &PowerConfig::default()).circuit_power(nl)
}

/// Runs the one-pass pipeline `pass` on `sess` under `cfg` (`resize`
/// anchored to the circuit delay when it starts).
fn run(sess: &mut AnalysisSession, pass: &str, cfg: &OptimizeConfig) -> PassReport {
    let mut pipeline = build_pipeline(pass, cfg, None).expect("valid spec");
    pipeline.run(sess).passes.remove(0)
}

/// The default configuration at the given ATPG backtrack limit.
fn limit(backtrack_limit: usize) -> OptimizeConfig {
    OptimizeConfig {
        backtrack_limit,
        ..OptimizeConfig::default()
    }
}

/// redundancy → POWDER → resize, all function-preserving, monotone power.
#[test]
fn full_pipeline_composes() {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build("t481", lib).expect("t481 builds");
    let pats = Patterns::random(nl.inputs().len(), 8, 77);
    let reference = po_sigs(&nl, &pats);
    let p0 = power(&nl);
    let cfg = OptimizeConfig {
        sim_words: 8,
        max_rounds: 10,
        ..OptimizeConfig::default()
    };
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));

    run(&mut sess, "redundancy", &limit(5_000));
    sess.netlist().validate().unwrap();
    assert_eq!(
        po_sigs(sess.netlist(), &pats),
        reference,
        "redundancy pass broke function"
    );
    let p1 = power(sess.netlist());
    assert!(
        p1 <= p0 + 1e-9,
        "redundancy removal must not increase power"
    );

    let report = run(&mut sess, "powder", &cfg);
    sess.netlist().validate().unwrap();
    assert_eq!(
        po_sigs(sess.netlist(), &pats),
        reference,
        "POWDER broke function"
    );
    let report = report.optimize.expect("powder report");
    assert!(report.final_power <= p1 + 1e-9);

    let rs = run(&mut sess, "resize", &cfg);
    sess.netlist().validate().unwrap();
    assert_eq!(
        po_sigs(sess.netlist(), &pats),
        reference,
        "resize broke function"
    );
    assert!(rs.power_saved() >= -1e-9);
}

/// Resize must never grow the circuit delay when no required time is given.
#[test]
fn resize_respects_delay() {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build("alu2", lib).expect("alu2 builds");
    let before = TimingAnalysis::new(&nl, &TimingConfig::default()).circuit_delay();
    let mut sess = AnalysisSession::new(nl, SessionConfig::default());
    run(&mut sess, "resize", &OptimizeConfig::default());
    let nl = sess.netlist();
    let after = TimingAnalysis::new(nl, &TimingConfig::default()).circuit_delay();
    assert!(after <= before + 1e-9, "{before} -> {after}");
}

/// Glitch measurement: total ≥ functional on every suite circuit sampled,
/// and POWDER does not increase functional event power.
#[test]
fn glitch_measurement_is_coherent() {
    let lib = Arc::new(lib2());
    for name in ["rd84", "bw", "C432"] {
        let nl = powder_benchmarks::build(name, lib.clone()).expect("builds");
        let covers = CellCovers::new(nl.library());
        let pats = Patterns::random(nl.inputs().len(), 8, 3);
        let rep = glitch_power(&nl, &covers, &pats, &PowerConfig::default());
        assert!(
            rep.total_power >= rep.functional_power - 1e-9,
            "{name}: {rep:?}"
        );
        assert!(rep.functional_power > 0.0, "{name}");
        assert!((0.0..1.0).contains(&rep.glitch_fraction()), "{name}");
    }
}

/// The redundancy pass is idempotent: a second run on the same session
/// makes no edit.
#[test]
fn redundancy_pass_idempotent() {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build("frg1", lib).expect("frg1 builds");
    let mut sess = AnalysisSession::new(nl, SessionConfig::default());
    run(&mut sess, "redundancy", &limit(3_000));
    let second = run(&mut sess, "redundancy", &limit(3_000));
    assert_eq!(second.edits, 0, "{second}");
}

/// With the multi-strength `lib2x` library, the re-sizing pass downsizes
/// x2 cells that have slack and keeps the ones that carry the critical
/// path.
#[test]
fn resize_with_multi_strength_library() {
    use powder_library::lib2x;
    let lib = Arc::new(lib2x());
    let nand2_x2 = lib.find_by_name("nand2_x2").unwrap();
    let inv1 = lib.find_by_name("inv1").unwrap();
    let mut nl = Netlist::new("t", lib);
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    // Off-critical: a strong NAND driving one inverter.
    let strong = nl.add_cell("strong", nand2_x2, &[a, b]);
    let o1 = nl.add_cell("o1", inv1, &[strong]);
    nl.add_output("f1", o1);
    // Critical: a long inverter chain.
    let mut chain = b;
    for i in 0..8 {
        chain = nl.add_cell(format!("c{i}"), inv1, &[chain]);
    }
    nl.add_output("f2", chain);

    let mut sess = AnalysisSession::new(nl, SessionConfig::default());
    let report = run(&mut sess, "resize", &OptimizeConfig::default());
    let nl = sess.into_netlist();
    nl.validate().unwrap();
    assert!(report.edits >= 1, "{report}");
    let mix: Vec<String> = nl
        .iter_live()
        .filter_map(|g| nl.cell_id(g))
        .map(|c| nl.library().cell_ref(c).name.clone())
        .collect();
    assert!(!mix.iter().any(|n| n == "nand2_x2"), "downsized: {mix:?}");
    assert!(mix.iter().any(|n| n == "nand2"), "{mix:?}");
}
