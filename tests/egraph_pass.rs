//! Integration tests of the equality-saturation pass composed with the
//! substitution loop: `--passes egraph,powder` must be monotone in
//! Σ C·E, function-preserving, and bit-identical at any worker count.

use powder::{DelayLimit, OptimizeConfig};
use powder_egraph::{build_egraph, collect_cone, saturate, EgraphConfig, Op, RuleCache};
use powder_library::genlib::parse_genlib;
use powder_library::lib2;
use powder_netlist::blif::write_blif;
use powder_netlist::{GateId, GateKind, Netlist};
use powder_passes::{build_pipeline, AnalysisSession, PipelineReport, SessionConfig};
use powder_sim::{simulate, CellCovers, Patterns};
use std::sync::Arc;

fn po_sigs(nl: &Netlist, pats: &Patterns) -> Vec<Vec<u64>> {
    let covers = CellCovers::new(nl.library());
    let vals = simulate(nl, &covers, pats);
    nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
}

fn run_spec(nl: &Netlist, spec: &str, jobs: usize) -> (Netlist, PipelineReport) {
    let cfg = OptimizeConfig {
        jobs,
        sim_words: 8,
        delay_limit: Some(DelayLimit::Factor(1.2)),
        ..OptimizeConfig::default()
    };
    let mut sess = AnalysisSession::new(nl.clone(), SessionConfig::from_optimize(&cfg));
    let mut pipeline = build_pipeline(spec, &cfg, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    (sess.into_netlist(), report)
}

/// `egraph,powder` composes: every pass is monotone non-increasing in
/// the modelled Σ C·E, the result is function-preserving, and the
/// egraph pass reports its saturation accounting.
#[test]
fn egraph_then_powder_is_monotone_and_sound() {
    let lib = Arc::new(lib2());
    for name in ["rd84", "t481", "bw"] {
        let nl = powder_benchmarks::build(name, lib.clone()).expect("suite circuit");
        let pats = Patterns::random(nl.inputs().len(), 8, 0xE64A);
        let reference = po_sigs(&nl, &pats);

        let (out, report) = run_spec(&nl, "egraph,powder", 1);
        out.validate().unwrap();
        assert_eq!(po_sigs(&out, &pats), reference, "{name}: function broke");

        assert!(
            report.final_power <= report.initial_power + 1e-9,
            "{name}: pipeline increased power"
        );
        for pass in &report.passes {
            assert!(
                pass.power_after <= pass.power_before + 1e-9,
                "{name}: pass {} increased power ({} -> {})",
                pass.name,
                pass.power_before,
                pass.power_after
            );
        }
        let eg = report
            .passes
            .iter()
            .find(|p| p.name == "egraph")
            .expect("egraph pass ran");
        let er = eg.egraph.as_ref().expect("egraph stats attached");
        assert!(er.cones > 0, "{name}: no cones explored");
        assert!(
            er.cost_delta <= 1e-9,
            "{name}: kept rewrites must not raise modelled cost"
        );
    }
}

/// The pipeline's decisions are a deterministic function of the
/// netlist: `--jobs 1` and `--jobs 4` must produce bit-identical BLIF.
#[test]
fn egraph_powder_bit_identical_across_jobs() {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build("rd84", lib).expect("rd84 builds");
    let (out1, r1) = run_spec(&nl, "egraph,powder", 1);
    let (out4, r4) = run_spec(&nl, "egraph,powder", 4);
    assert_eq!(
        write_blif(&out1),
        write_blif(&out4),
        "worker count changed the result"
    );
    assert_eq!(r1.total_edits(), r4.total_edits());
    assert_eq!(r1.final_power, r4.final_power, "bit-identical power");
}

/// Running the egraph pass twice in a row converges: the second run
/// finds strictly fewer (or zero) rewrites and never undoes the first.
#[test]
fn egraph_pass_converges_under_fixpoint() {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build("bw", lib).expect("bw builds");
    let cfg = OptimizeConfig {
        jobs: 1,
        sim_words: 8,
        ..OptimizeConfig::default()
    };
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
    let mut pipeline = build_pipeline("egraph", &cfg, None)
        .expect("valid spec")
        .with_fixpoint(4);
    let report = pipeline.run(&mut sess);
    assert!(
        report.iterations <= 4,
        "fixpoint loop terminated by convergence or cap"
    );
    assert!(report.final_power <= report.initial_power + 1e-9);
    sess.into_netlist().validate().unwrap();
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Saturates every cell-rooted cone of `name` after `sweep` under
/// `cfg`; see [`cone_digest`].
fn saturated_cone_digest(name: &str, cfg: EgraphConfig) -> (usize, usize, u64) {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build(name, lib).expect("suite circuit");
    let (nl, _) = run_spec(&nl, "sweep", 1);
    cone_digest(&nl, cfg)
}

/// Saturates every cell-rooted cone of `nl` under `cfg`, folding each
/// cone's node table (op, children, class, rule) and
/// saturation stats into one digest. Returns the cone count, the total
/// e-node count and the digest.
fn cone_digest(nl: &Netlist, cfg: EgraphConfig) -> (usize, usize, u64) {
    let mut cache = RuleCache::new(Arc::clone(nl.library()));
    let mut h = Fnv::new();
    let (mut cones, mut nodes) = (0, 0);
    let roots: Vec<_> = nl
        .iter_live()
        .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
        .collect();
    for root in roots {
        let Some(cone) = collect_cone(nl, root) else {
            continue;
        };
        let mut cg = build_egraph(nl, &cone);
        let stats = saturate(&mut cg.eg, &cfg, &mut cache);
        let eg = &cg.eg;
        for entry in eg.node_entries() {
            let (tag, arg) = match entry.op {
                Op::Var(i) => (0, u64::from(i)),
                Op::Const(v) => (1, u64::from(v)),
                Op::Not => (2, 0),
                Op::And => (3, 0),
                Op::Or => (4, 0),
                Op::Xor => (5, 0),
                Op::Cell(c) => (6, u64::from(c.0)),
            };
            h.word(tag);
            h.word(arg);
            let children = eg.children(entry);
            h.word(children.len() as u64);
            for &c in children {
                h.word(u64::from(c.0));
            }
            h.word(u64::from(entry.class.0));
            h.word(u64::from(entry.rule));
        }
        for v in [stats.iters, stats.nodes, stats.classes] {
            h.word(v as u64);
        }
        h.word(u64::from(stats.saturated));
        cones += 1;
        nodes += stats.nodes;
    }
    (cones, nodes, h.0)
}

/// Pins the saturated e-graph of every cone, node for node. The node
/// budget can stop a sweep mid-way, so a rule matcher that adds the
/// same nodes in a different order changes what the tight budget keeps;
/// only a digest of the node table catches that.
#[test]
fn saturated_cone_graphs_are_pinned() {
    let tight = EgraphConfig {
        node_limit: 256,
        iter_limit: 4,
    };
    let cases = [
        (
            "bw",
            EgraphConfig::default(),
            (157, 31438, 0x99b1_0c82_9231_e577),
        ),
        ("bw", tight, (157, 16734, 0xdb97_d4a4_9852_4d09)),
        (
            "x3",
            EgraphConfig::default(),
            (145, 39532, 0xa296_d3c2_f2bf_d596),
        ),
        ("x3", tight, (145, 20510, 0x59b4_3b56_df91_cdb4)),
    ];
    for (name, cfg, want) in cases {
        let got = saturated_cone_digest(name, cfg);
        assert_eq!(got, want, "{name} under {cfg:?}: (cones, nodes, digest)");
    }
}

/// Small lib2 cells beside a 5-pin `and5` and a 6-pin `aoi33`: wider
/// than any lib2 cell, so the e-graph holds cell nodes of more than 4
/// children.
const WIDE_GENLIB: &str = "
GATE inv1   928  O=!a;                 PIN * INV 1.0 999 0.9 0.30 0.9 0.30
GATE nand2  1392 O=!(a*b);             PIN * INV 1.0 999 1.0 0.25 1.0 0.25
GATE nor2   1392 O=!(a+b);             PIN * INV 1.0 999 1.1 0.28 1.1 0.28
GATE and2   1856 O=a*b;                PIN * NONINV 1.0 999 1.6 0.25 1.6 0.25
GATE or2    1856 O=a+b;                PIN * NONINV 1.0 999 1.7 0.26 1.7 0.26
GATE xor2   2784 O=a*!b + !a*b;        PIN * UNKNOWN 2.0 999 1.9 0.30 1.9 0.30
GATE aoi21  1856 O=!(a*b + c);         PIN * INV 1.0 999 1.3 0.30 1.3 0.30
GATE oai21  1856 O=!((a+b) * c);       PIN * INV 1.0 999 1.3 0.30 1.3 0.30
GATE and5   3248 O=a*b*c*d*e;          PIN * NONINV 1.0 999 2.2 0.30 2.2 0.30
GATE aoi33  2784 O=!(a*b*c + d*e*f);   PIN * INV 1.0 999 1.7 0.34 1.7 0.34
";

/// Two outputs over 8 inputs whose cones mix `and5` and `aoi33` with
/// small lib2 cells.
fn wide_cell_netlist() -> Netlist {
    let lib = Arc::new(parse_genlib("wide", WIDE_GENLIB).expect("valid genlib"));
    let cell = |name: &str| lib.find_by_name(name).expect("library cell");
    let mut nl = Netlist::new("wide", Arc::clone(&lib));
    let x: Vec<GateId> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
    let n0 = nl.add_cell("n0", cell("inv1"), &[x[0]]);
    let n1 = nl.add_cell("n1", cell("inv1"), &[x[1]]);
    let a = nl.add_cell("a", cell("and5"), &[n0, n1, x[2], x[3], x[4]]);
    let o = nl.add_cell("o", cell("or2"), &[x[5], x[6]]);
    let w = nl.add_cell("w", cell("aoi33"), &[a, x[7], o, x[2], x[5], x[1]]);
    let y = nl.add_cell("y", cell("nand2"), &[w, x[3]]);
    nl.add_output("f", y);
    let m = nl.add_cell("m", cell("nand2"), &[x[4], x[6]]);
    let b = nl.add_cell("b", cell("and5"), &[m, x[0], x[7], x[5], x[3]]);
    nl.add_output("g", b);
    nl.validate().expect("valid netlist");
    nl
}

/// Pins the saturated e-graphs and the `egraph` pass output on cones
/// with 5- and 6-pin cells: cell composition and hash-consing must
/// handle every pin count, not just lib2's widest of 4.
#[test]
fn wide_cell_cones_are_pinned() {
    let nl = wide_cell_netlist();
    let got = cone_digest(&nl, EgraphConfig::default());
    assert_eq!(
        got,
        (8, 1923, 0x42d9_81b8_42c9_1bf7),
        "(cones, nodes, digest)"
    );

    let (out, report) = run_spec(&nl, "egraph", 1);
    let mut h = Fnv::new();
    for b in write_blif(&out).bytes() {
        h.word(u64::from(b));
    }
    let er = report.passes[0].egraph.expect("egraph stats attached");
    assert_eq!(
        (er.applied, h.0),
        (1, 0xad4f_f6d7_fc7c_9aa2),
        "(applied, output digest)"
    );
}
