//! Functional round-trip tests of the ISCAS `.bench` format support:
//! netlist → bench text → remapped netlist must be *functionally*
//! equivalent (the representation is structural Boolean logic, so exact
//! structure is not preserved).

use powder_atpg::equiv::{check_equivalence, EquivOutcome};
use powder_library::lib2;
use powder_netlist::bench_fmt::{read_bench, write_bench};
use powder_netlist::Netlist;
use std::sync::Arc;

fn roundtrip_equivalent(nl: &Netlist) {
    let text = write_bench(nl);
    let back = read_bench(&text, nl.library().clone())
        .unwrap_or_else(|e| panic!("{}: {e}\n{text}", nl.name()));
    back.validate().unwrap();
    match check_equivalence(nl, &back, 50_000).expect("interfaces match") {
        EquivOutcome::Equivalent => {}
        EquivOutcome::Unknown => {
            // Beyond the formal engine's reach (wide binate miters);
            // fall back to heavy random simulation.
            use powder_sim::{simulate, CellCovers, Patterns};
            let pats = Patterns::random(nl.inputs().len(), 64, 0xBEEF);
            let ca = CellCovers::new(nl.library());
            let cb = CellCovers::new(back.library());
            let va = simulate(nl, &ca, &pats);
            let vb = simulate(&back, &cb, &pats);
            // Match outputs by name.
            for &oa in nl.outputs() {
                let ob = back
                    .outputs()
                    .iter()
                    .copied()
                    .find(|&o| back.gate_name(o) == nl.gate_name(oa))
                    .expect("output names survive");
                assert_eq!(
                    va.get(oa),
                    vb.get(ob),
                    "{}: output {} differs under simulation",
                    nl.name(),
                    nl.gate_name(oa)
                );
            }
        }
        other => panic!(
            "{}: round-trip not equivalent: {other:?}\n{text}",
            nl.name()
        ),
    }
}

#[test]
fn suite_circuits_roundtrip_through_bench() {
    let lib = Arc::new(lib2());
    for name in ["rd84", "C432", "frg1", "clip"] {
        let nl = powder_benchmarks::build(name, lib.clone()).expect("builds");
        roundtrip_equivalent(&nl);
    }
}

#[test]
fn every_lib2_cell_roundtrips() {
    let lib = Arc::new(lib2());
    for (cid, cell) in lib.iter() {
        let mut nl = Netlist::new(format!("cell_{}", cell.name), lib.clone());
        let ins: Vec<_> = (0..cell.inputs())
            .map(|i| nl.add_input(format!("x{i}")))
            .collect();
        let g = nl.add_cell("g", cid, &ins);
        nl.add_output("f", g);
        roundtrip_equivalent(&nl);
    }
}

#[test]
fn bench_of_optimized_circuit_still_equivalent() {
    use powder::{optimize, OptimizeConfig};
    let lib = Arc::new(lib2());
    let mut nl = powder_benchmarks::build("bw", lib).expect("builds");
    let _ = optimize(
        &mut nl,
        &OptimizeConfig {
            sim_words: 4,
            max_rounds: 4,
            ..OptimizeConfig::default()
        },
    );
    roundtrip_equivalent(&nl);
}
