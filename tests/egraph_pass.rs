//! Integration tests of the equality-saturation pass composed with the
//! substitution loop: `--passes egraph,powder` must be monotone in
//! Σ C·E, function-preserving, and bit-identical at any worker count.

use powder::{DelayLimit, OptimizeConfig};
use powder_egraph::{
    build_egraph, collect_cone, saturate, ConeLimits, Op, RuleCache, SaturationConfig,
};
use powder_library::lib2;
use powder_netlist::blif::write_blif;
use powder_netlist::{GateKind, Netlist};
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
/// `cfg`, folding each cone's node table (op, canonical children,
/// class, rule) and saturation stats into one digest. Returns the cone
/// count, the total e-node count and the digest.
fn saturated_cone_digest(name: &str, cfg: SaturationConfig) -> (usize, usize, u64) {
    let lib = Arc::new(lib2());
    let nl = powder_benchmarks::build(name, lib).expect("suite circuit");
    let (nl, _) = run_spec(&nl, "sweep", 1);
    let mut cache = RuleCache::new(Arc::clone(nl.library()));
    let mut h = Fnv::new();
    let (mut cones, mut nodes) = (0, 0);
    let roots: Vec<_> = nl
        .iter_live()
        .filter(|&g| matches!(nl.kind(g), GateKind::Cell(_)))
        .collect();
    for root in roots {
        let Some(cone) = collect_cone(&nl, root, &ConeLimits::default()) else {
            continue;
        };
        let mut cg = build_egraph(&nl, &cone);
        let stats = saturate(&mut cg.eg, &cfg, &mut cache);
        let eg = &cg.eg;
        for entry in eg.node_entries() {
            let (tag, arg) = match entry.node.op {
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
            h.word(entry.node.children.len() as u64);
            for &c in &entry.node.children {
                h.word(u64::from(eg.find_ref(c).0));
            }
            h.word(u64::from(eg.find_ref(entry.class).0));
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
    let tight = SaturationConfig {
        node_limit: 256,
        iter_limit: 4,
    };
    let cases = [
        (
            "bw",
            SaturationConfig::default(),
            (157, 31438, 0x99b1_0c82_9231_e577),
        ),
        ("bw", tight, (157, 16734, 0xdb97_d4a4_9852_4d09)),
        (
            "x3",
            SaturationConfig::default(),
            (145, 39532, 0xa296_d3c2_f2bf_d596),
        ),
        ("x3", tight, (145, 20510, 0x59b4_3b56_df91_cdb4)),
    ];
    for (name, cfg, want) in cases {
        let got = saturated_cone_digest(name, cfg);
        assert_eq!(got, want, "{name} under {cfg:?}: (cones, nodes, digest)");
    }
}
