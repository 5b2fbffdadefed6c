//! Integration tests of the pass pipeline: bit-identity of the
//! `powder` pass with the standalone optimizer entry point, the
//! zero-full-refresh guarantee for session-driven passes,
//! order-independence of the function/power invariants under arbitrary
//! pass permutations, and (release only) the exactness of the
//! `redundancy` pass's simulation filter and pinned outputs of the
//! benchmark's full pass script.

use powder::{optimize, OptimizeConfig};
use powder_library::lib2;
use powder_netlist::{blif::write_blif, GateId, Netlist};
use powder_passes::{build_pipeline, AnalysisSession, SessionConfig};
use powder_sim::{simulate, CellCovers, Patterns};
use proptest::prelude::*;
use std::sync::Arc;

fn bench_netlist(name: &str) -> Netlist {
    powder_benchmarks::build(name, Arc::new(lib2())).expect("known benchmark")
}

/// Builds a random mapped netlist from a recipe of bytes: `ops[i]` selects
/// a cell and two (or one) fanins among earlier signals.
fn random_netlist(inputs: usize, ops: &[(u8, u8, u8)]) -> Netlist {
    let lib = Arc::new(lib2());
    let cells: Vec<_> = [
        "and2", "or2", "nand2", "nor2", "xor2", "xnor2", "inv1", "andn2",
    ]
    .iter()
    .map(|n| lib.find_by_name(n).expect("lib2 cell"))
    .collect();
    let mut nl = Netlist::new("prop", lib);
    let mut signals: Vec<GateId> = (0..inputs).map(|i| nl.add_input(format!("x{i}"))).collect();
    for (k, (op, a, b)) in ops.iter().enumerate() {
        let cell = cells[*op as usize % cells.len()];
        let ca = signals[*a as usize % signals.len()];
        let cb = signals[*b as usize % signals.len()];
        let lib = nl.library().clone();
        let g = if lib.cell_ref(cell).inputs() == 1 {
            nl.add_cell(format!("g{k}"), cell, &[ca])
        } else {
            nl.add_cell(format!("g{k}"), cell, &[ca, cb])
        };
        signals.push(g);
    }
    let n = signals.len();
    for (i, &s) in signals[n.saturating_sub(3)..].iter().enumerate() {
        nl.add_output(format!("f{i}"), s);
    }
    nl
}

fn po_signatures(nl: &Netlist, pats: &Patterns) -> Vec<Vec<u64>> {
    let covers = CellCovers::new(nl.library());
    let vals = simulate(nl, &covers, pats);
    nl.outputs().iter().map(|&o| vals.get(o).to_vec()).collect()
}

/// The `k`-th permutation of the four pass names, via the factorial
/// number system (deterministic for a given index).
fn pass_order(k: usize) -> [&'static str; 4] {
    let names = ["sweep", "powder", "resize", "redundancy"];
    let mut avail: Vec<&str> = names.to_vec();
    let mut k = k % 24;
    let mut out = [""; 4];
    for (i, f) in [6usize, 2, 1, 1].into_iter().enumerate() {
        out[i] = avail.remove(k / f);
        k %= f;
    }
    out
}

/// A debug-build-friendly optimizer config (same trimming as
/// `tests/incremental.rs`): identical decision machinery, smaller
/// pattern volume and round budget.
fn small_config(jobs: usize) -> OptimizeConfig {
    OptimizeConfig {
        jobs,
        sim_words: 2,
        max_rounds: 8,
        repeat: 2,
        ..OptimizeConfig::default()
    }
}

/// `--passes powder` must reproduce the standalone `optimize()` run
/// bit for bit — same substitution decision sequence, same final
/// netlist — at one worker and at four.
#[test]
fn powder_pass_is_bit_identical_to_standalone_optimize() {
    for jobs in [1usize, 4] {
        let cfg = small_config(jobs);
        let mut standalone_nl = bench_netlist("c8");
        let standalone = optimize(&mut standalone_nl, &cfg);

        let mut sess =
            AnalysisSession::new(bench_netlist("c8"), SessionConfig::from_optimize(&cfg));
        let mut pipeline = build_pipeline("powder", &cfg, None).expect("valid spec");
        let report = pipeline.run(&mut sess);
        let opt = report.passes[0].optimize.as_ref().expect("powder report");

        let subs: Vec<_> = opt.applied.iter().map(|a| a.substitution).collect();
        let subs_standalone: Vec<_> = standalone.applied.iter().map(|a| a.substitution).collect();
        assert_eq!(
            subs, subs_standalone,
            "decision sequence diverged at jobs={jobs}"
        );
        assert_eq!(opt.final_power, standalone.final_power, "jobs={jobs}");
        assert_eq!(
            write_blif(&sess.into_netlist()),
            write_blif(&standalone_nl),
            "final netlist diverged at jobs={jobs}"
        );
    }
}

/// Session-driven resize and redundancy must ride the maintained
/// analyses: zero whole-netlist re-simulations and zero from-scratch
/// power-estimator builds between passes. This is the structural fix
/// over the legacy epilogues, which rebuilt both per call (resize even
/// per gate).
#[test]
fn pipeline_resize_and_redundancy_never_fully_refresh() {
    let cfg = small_config(1);
    let mut sess = AnalysisSession::new(bench_netlist("c8"), SessionConfig::from_optimize(&cfg));
    let mut pipeline =
        build_pipeline("sweep,powder,resize,redundancy", &cfg, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    for pass in &report.passes {
        if pass.name == "resize" || pass.name == "redundancy" {
            assert_eq!(
                pass.session.full_resims, 0,
                "{} performed a full re-simulation",
                pass.name
            );
            assert_eq!(
                pass.session.full_power_builds, 0,
                "{} rebuilt the power estimator",
                pass.name
            );
        }
    }
    assert_eq!(
        report.session.full_power_builds, 0,
        "no pass may rebuild the estimator; the session owns it"
    );
    sess.into_netlist()
        .validate()
        .expect("valid after pipeline");
}

/// Sweep must terminate on circuits with *false* constant suspicions —
/// gates whose random-pattern signature is all-zeros without the gate
/// being constant (k2's PLA terms are rarely-true, so plenty alias).
/// Regression: a failed tie left the scratch constant dangling, the
/// next iteration swept it as "progress", and the fixpoint loop
/// re-armed the same refuted suspicion forever.
#[test]
fn sweep_terminates_on_false_constant_suspicions() {
    let cfg = small_config(1);
    let nl = bench_netlist("k2");
    let pats = Patterns::random(nl.inputs().len(), cfg.sim_words, cfg.seed);
    let before = po_signatures(&nl, &pats);
    let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
    let mut pipeline = build_pipeline("sweep", &cfg, None).expect("valid spec");
    let report = pipeline.run(&mut sess);
    assert!(
        report.final_power <= report.initial_power + 1e-9,
        "sweep increased power"
    );
    let out = sess.into_netlist();
    out.validate().expect("valid after sweep");
    assert_eq!(po_signatures(&out, &pats), before, "sweep broke function");
}

/// An empty or unknown pass list is a configuration error.
#[test]
fn pipeline_spec_errors_are_reported() {
    let cfg = OptimizeConfig::default();
    assert!(build_pipeline("", &cfg, None).is_err());
    assert!(build_pipeline("powder,unknown", &cfg, None).is_err());
    assert!(
        build_pipeline("sweep, powder ,resize", &cfg, None).is_ok(),
        "whitespace tolerated"
    );
}

/// Checks on the benchmark's `pipeline-full` pass script. Release only:
/// the debug build takes minutes.
#[cfg(not(debug_assertions))]
mod bench_script {
    use super::*;
    use powder::{DelayLimit, Substitution};
    use powder_atpg::{check_substitution, CheckOutcome};
    use powder_egraph::EgraphConfig;
    use powder_netlist::blif::read_blif;
    use powder_netlist::{Conn, GateKind};
    use powder_passes::build_pipeline_with;
    use powder_timing::{TimingAnalysis, TimingConfig};

    /// The pattern seeds the repository benchmark (`perfbench`) derives from
    /// its run seeds 3 and 4.
    const BENCH_SEED_3: u64 = 1_021_869_836_427_313;
    const BENCH_SEED_4: u64 = 3_886_208_520_046_193;

    /// A suite circuit as the benchmark hands it to the program: generated,
    /// written to BLIF and read back.
    fn bench_input(name: &str) -> Netlist {
        let lib = powder_bench::library();
        let nl = powder_benchmarks::build(name, Arc::clone(&lib)).expect("suite circuit");
        read_blif(&write_blif(&nl), lib).expect("BLIF round trip")
    }

    /// The benchmark's configuration: Table-1 settings bound to the input
    /// delay, at `jobs = 1`.
    fn bench_config(seed: u64) -> OptimizeConfig {
        OptimizeConfig {
            seed,
            jobs: 1,
            ..powder_bench::experiment_config(Some(DelayLimit::Factor(1.0)))
        }
    }

    /// Runs `script` on `nl` as the benchmark does: [`bench_config`] at
    /// `jobs` workers, `resize` anchored to the input delay, default
    /// e-graph bounds.
    fn run_bench_script(nl: Netlist, script: &str, seed: u64, jobs: usize) -> AnalysisSession {
        let cfg = OptimizeConfig {
            jobs,
            ..bench_config(seed)
        };
        let probe = TimingConfig {
            output_load: cfg.power.output_load,
            required_time: None,
        };
        let required = TimingAnalysis::new(&nl, &probe).circuit_delay();
        let mut pipeline =
            build_pipeline_with(script, &cfg, Some(required), &EgraphConfig::default())
                .expect("valid spec");
        let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
        pipeline.run(&mut sess);
        sess
    }

    /// 64-bit FNV-1a, the benchmark's job hash.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Asserts that no cell pin × {0,1} tie the session's observability
    /// masks refute is permissible; returns how many the masks refuted.
    fn assert_refuted_ties_unprovable(
        sess: &mut AnalysisSession,
        backtrack_limit: usize,
        at: &str,
    ) -> usize {
        let (nl, values, masks) = sess.observability();
        let mut tied = nl.clone();
        let consts = [tied.add_const("t0", false), tied.add_const("t1", true)];
        let mut refuted = 0;
        for g in nl.iter_live() {
            if !matches!(nl.kind(g), GateKind::Cell(_)) {
                continue;
            }
            for (pin, &driver) in (0u32..).zip(nl.fanins(g)) {
                if matches!(nl.kind(driver), GateKind::Const(_)) {
                    continue;
                }
                let k = nl
                    .fanouts(driver)
                    .iter()
                    .position(|&c| c == Conn { gate: g, pin })
                    .expect("branch of its driver");
                let branch = masks.branch(driver, k).expect("branch mask");
                for value in [false, true] {
                    let tie = if value { u64::MAX } else { 0 };
                    let sig = values.get(driver);
                    if sig.iter().zip(branch).all(|(&s, &o)| (s ^ tie) & o == 0) {
                        continue;
                    }
                    refuted += 1;
                    let sub = Substitution::Is2 {
                        sink: g,
                        pin,
                        b: consts[usize::from(value)],
                        invert: false,
                    };
                    assert_ne!(
                        check_substitution(&tied, &sub, backtrack_limit),
                        CheckOutcome::Permissible,
                        "{at}: refuted tie of {}.{pin} to {value} is provable",
                        nl.gate_name(g)
                    );
                }
            }
        }
        refuted
    }

    /// The `redundancy` pass skips every tie a retained simulation pattern
    /// refutes, which is exact only if ATPG could never prove such a tie.
    /// Checked after each pass of the benchmark script up to `powder`, as
    /// single-pass pipelines on one session (the same decisions as the whole
    /// script). Stale signatures downstream of a constant added by `sweep`
    /// once made the masks refute provable ties on ex4.
    #[test]
    fn simulation_refuted_ties_are_never_provable() {
        let cfg = bench_config(BENCH_SEED_4);
        for name in ["bw", "x1", "ex4"] {
            let mut sess =
                AnalysisSession::new(bench_input(name), SessionConfig::from_optimize(&cfg));
            for pass in ["sweep", "egraph", "powder"] {
                build_pipeline_with(pass, &cfg, None, &EgraphConfig::default())
                    .expect("valid spec")
                    .run(&mut sess);
                let at = format!("{name} after {pass}");
                let refuted = assert_refuted_ties_unprovable(&mut sess, cfg.backtrack_limit, &at);
                assert!(refuted > 0, "{at}: the masks refuted no tie");
            }
        }
    }

    /// The full pass script's output on the benchmark's `pipeline-full`
    /// circuits, pinned: a speed-up of any pass must not move a decision.
    #[test]
    fn pipeline_full_outputs_are_pinned() {
        for (name, hash) in [
            ("bw", 0x49ed_7a51_06a4_3b2a_u64),
            ("x1", 0x532a_953e_5150_d6d6),
            ("x3", 0x3cee_5649_2aa5_0832),
            ("ex4", 0x95b1_8fb9_b35b_71b7),
            ("example2", 0xe647_af02_a5f4_ec4a),
        ] {
            let sess = run_bench_script(
                bench_input(name),
                "sweep,egraph,powder,resize,redundancy",
                BENCH_SEED_3,
                1,
            );
            let got = fnv1a(write_blif(sess.netlist()).as_bytes());
            assert_eq!(got, hash, "{name}: {got:#018x}");
        }
    }

    /// Scripts whose passes hand analyses to each other through the
    /// session, pinned: (a) `resize,powder,resize` bound to the input
    /// delay, where every pass reads the timing view at one required time;
    /// (b) the unconstrained full script at fixpoint 2, with no resize
    /// anchor, where no pass holds a timing view across its edits.
    #[test]
    fn session_sharing_outputs_are_pinned() {
        for (name, hash) in [
            ("bw", 0x1074_ae8e_0495_12a3_u64),
            ("x3", 0xe043_ee11_045b_5599),
            ("ex4", 0xcd0e_155c_35e8_d0b1),
        ] {
            let sess = run_bench_script(bench_input(name), "resize,powder,resize", BENCH_SEED_3, 1);
            let got = fnv1a(write_blif(sess.netlist()).as_bytes());
            assert_eq!(got, hash, "{name} resize,powder,resize: {got:#018x}");
        }
        let cfg = OptimizeConfig {
            delay_limit: None,
            ..bench_config(BENCH_SEED_3)
        };
        for (name, hash) in [
            ("bw", 0x7630_52e7_ceb2_0853_u64),
            ("ex4", 0x63dd_4b37_33ec_1c33),
        ] {
            let mut sess =
                AnalysisSession::new(bench_input(name), SessionConfig::from_optimize(&cfg));
            build_pipeline_with(
                "sweep,egraph,powder,resize,redundancy",
                &cfg,
                None,
                &EgraphConfig::default(),
            )
            .expect("valid spec")
            .with_fixpoint(2)
            .run(&mut sess);
            let got = fnv1a(write_blif(sess.netlist()).as_bytes());
            assert_eq!(got, hash, "{name} unconstrained at fixpoint 2: {got:#018x}");
        }
    }

    /// The `powder` pass alone on the benchmark's `powder-small` circuits,
    /// pinned at one and at four workers: the Fig. 5 loop must make the
    /// same decisions at every width.
    #[test]
    fn powder_small_outputs_are_pinned() {
        for (name, hash) in [
            ("bw", 0x1074_ae8e_0495_12a3_u64),
            ("x1", 0x9f13_745f_1348_4fc0),
            ("example2", 0xf302_c013_1f89_44ea),
            ("apex6", 0xfbff_9ae8_c2cb_bef5),
            ("x4", 0xfaa7_722b_b7e6_8b48),
            ("apex7", 0x22f5_931c_d02e_d62c),
            ("x3", 0xe043_ee11_045b_5599),
            ("frg2", 0xcde4_6e7c_7f2b_2f63),
        ] {
            for jobs in [1, 4] {
                let sess = run_bench_script(bench_input(name), "powder", BENCH_SEED_3, jobs);
                let got = fnv1a(write_blif(sess.netlist()).as_bytes());
                assert_eq!(got, hash, "{name} at jobs {jobs}: {got:#018x}");
            }
        }
    }

    /// The `powder` pass through the windowed driver (64-gate windows,
    /// 8-gate halos) on three `powder-small` circuits of about 200 cells
    /// or more, pinned at one and at four workers: window cuts, scoped
    /// candidates and window-scoped proofs must not move a decision.
    #[test]
    fn windowed_powder_outputs_are_pinned() {
        for (name, hash) in [
            ("apex6", 0x8e5d_99ef_caaf_6f64_u64),
            ("x3", 0x0fa8_88a9_c947_146b),
            ("frg2", 0x929d_cbe5_2fa5_1299),
        ] {
            for jobs in [1, 4] {
                let cfg = OptimizeConfig {
                    jobs,
                    window_size: Some(64),
                    window_overlap: Some(8),
                    ..bench_config(BENCH_SEED_3)
                };
                let mut sess =
                    AnalysisSession::new(bench_input(name), SessionConfig::from_optimize(&cfg));
                let report = build_pipeline_with("powder", &cfg, None, &EgraphConfig::default())
                    .expect("valid spec")
                    .run(&mut sess);
                let windows = report
                    .passes
                    .iter()
                    .filter_map(|p| p.optimize.as_ref())
                    .map(|r| r.windows.len())
                    .sum::<usize>();
                assert!(windows > 1, "{name}: {windows} window(s)");
                let got = fnv1a(write_blif(sess.netlist()).as_bytes());
                assert_eq!(got, hash, "{name} at jobs {jobs}: {got:#018x}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any permutation of the four passes over a random netlist must
    /// preserve every primary-output signature (exhaustive patterns)
    /// and never increase `Σ C·E`.
    #[test]
    fn any_pass_order_preserves_function_and_power(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..16),
        inputs in 2usize..5,
        perm in 0usize..24,
    ) {
        let nl = random_netlist(inputs, &ops);
        prop_assume!(nl.validate().is_ok());
        let pats = Patterns::exhaustive(inputs);
        let before = po_signatures(&nl, &pats);
        let cfg = small_config(1);
        let order = pass_order(perm);
        let mut sess = AnalysisSession::new(nl, SessionConfig::from_optimize(&cfg));
        let mut pipeline = build_pipeline(&order.join(","), &cfg, None).expect("valid spec");
        let report = pipeline.run(&mut sess);
        let out = sess.into_netlist();
        out.validate().expect("pipeline keeps netlist consistent");
        prop_assert_eq!(
            po_signatures(&out, &pats), before,
            "function broken by order {:?}", order
        );
        prop_assert!(
            report.final_power <= report.initial_power + 1e-9,
            "power increased {} -> {} under order {:?}",
            report.initial_power, report.final_power, order
        );
    }
}
