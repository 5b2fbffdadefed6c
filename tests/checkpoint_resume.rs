//! Checkpoint/resume correctness: a pipeline run interrupted at any
//! committed boundary and resumed from the persisted checkpoint must
//! land on a final netlist bit-identical to the uninterrupted run —
//! at `--jobs 1` and `--jobs 4`, with and without a delay limit.
//!
//! Every resume goes through the full durability path: the checkpoint
//! is serialized to its text format, parsed back (simulating a process
//! restart), the session is rebuilt from the embedded arena snapshot
//! and pattern set, and the pipeline re-enters at the recorded
//! position.

use powder::{DelayLimit, OptimizeConfig};
use powder_library::lib2;
use powder_netlist::write_snapshot;
use powder_passes::{
    build_pipeline, AnalysisSession, CheckpointSink, RunCheckpoint, SessionConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const SPEC: &str = "sweep,powder,resize";
const FIXPOINT: usize = 2;

fn small_config(jobs: usize) -> OptimizeConfig {
    OptimizeConfig {
        jobs,
        sim_words: 2,
        max_rounds: 8,
        repeat: 2,
        ..OptimizeConfig::default()
    }
}

fn session(cfg: &OptimizeConfig) -> AnalysisSession {
    let nl = powder_benchmarks::build("c8", Arc::new(lib2())).expect("c8 builds");
    AnalysisSession::new(nl, SessionConfig::from_optimize(cfg))
}

fn collecting_sink() -> (CheckpointSink, Arc<Mutex<Vec<RunCheckpoint>>>) {
    let store: Arc<Mutex<Vec<RunCheckpoint>>> = Arc::default();
    let sink_store = store.clone();
    let sink: CheckpointSink = Arc::new(move |cp| sink_store.lock().unwrap().push(cp));
    (sink, store)
}

/// Runs the reference pipeline to completion, returning the final arena
/// snapshot and every checkpoint emitted along the way.
fn uninterrupted(cfg: &OptimizeConfig) -> (String, Vec<RunCheckpoint>) {
    let mut sess = session(cfg);
    let (sink, store) = collecting_sink();
    let mut pipeline = build_pipeline(SPEC, cfg, None)
        .expect("valid spec")
        .with_fixpoint(FIXPOINT)
        .with_checkpoint_sink(Some(sink));
    let report = pipeline.run(&mut sess);
    assert!(!report.interrupted && !report.deadline_hit);
    sess.refresh();
    let final_snapshot = write_snapshot(sess.netlist());
    let checkpoints = store.lock().unwrap().clone();
    (final_snapshot, checkpoints)
}

/// Serializes `cp`, parses it back, restores a fresh session from it,
/// and runs the pipeline to completion from the recorded position.
fn resume_to_completion(cp: &RunCheckpoint, cfg: &OptimizeConfig) -> String {
    let restored = RunCheckpoint::from_text(&cp.to_text()).expect("checkpoint round-trips");
    assert_eq!(restored.position, cp.position);
    let mut sess = restored
        .restore_session(SessionConfig::from_optimize(cfg), Arc::new(lib2()))
        .expect("session restores");
    let mut pipeline = build_pipeline(SPEC, cfg, None)
        .expect("valid spec")
        .with_fixpoint(FIXPOINT)
        .with_resume(Some(restored.position));
    let report = pipeline.run(&mut sess);
    assert!(!report.interrupted && !report.deadline_hit);
    sess.refresh();
    write_snapshot(sess.netlist())
}

/// Resuming from *every* checkpoint of a run — round-level and
/// pass-level alike — must reproduce the uninterrupted final netlist
/// exactly, at one worker and at four.
#[test]
fn resume_from_every_checkpoint_is_bit_identical() {
    for jobs in [1usize, 4] {
        let cfg = small_config(jobs);
        let (reference, checkpoints) = uninterrupted(&cfg);
        assert!(
            checkpoints.iter().any(|cp| cp.position.mid_powder()),
            "run must exercise mid-POWDER checkpoints (jobs={jobs})"
        );
        assert!(
            checkpoints.iter().any(|cp| !cp.position.mid_powder()),
            "run must exercise pass-boundary checkpoints (jobs={jobs})"
        );
        for (i, cp) in checkpoints.iter().enumerate() {
            let resumed = resume_to_completion(cp, &cfg);
            assert_eq!(
                resumed, reference,
                "resume from checkpoint {i} (position {:?}) diverged at jobs={jobs}",
                cp.position
            );
        }
    }
}

/// Same, under a factor delay limit: the checkpoint pins the absolute
/// required time the interrupted pass resolved, so the resumed pass
/// optimizes against the same constraint instead of re-resolving the
/// factor against the already-optimized netlist.
#[test]
fn resume_under_delay_limit_pins_required_time() {
    let cfg = OptimizeConfig {
        delay_limit: Some(DelayLimit::Factor(1.1)),
        ..small_config(1)
    };
    let (reference, checkpoints) = uninterrupted(&cfg);
    let mid: Vec<_> = checkpoints
        .iter()
        .filter(|cp| cp.position.mid_powder())
        .collect();
    assert!(!mid.is_empty(), "need mid-POWDER checkpoints");
    for cp in &mid {
        assert!(
            cp.position.required_time.is_some(),
            "mid-POWDER checkpoint under a delay limit must pin the required time"
        );
    }
    for (i, cp) in checkpoints.iter().enumerate() {
        let resumed = resume_to_completion(cp, &cfg);
        assert_eq!(resumed, reference, "resume from checkpoint {i} diverged");
    }
}

/// Cooperative stop mid-run (the SIGINT / daemon-drain path): the
/// pipeline stops at the next committed boundary, flags the interrupt,
/// and the last persisted checkpoint resumes to the uninterrupted
/// result.
#[test]
fn stop_flag_interrupts_and_resume_completes() {
    let cfg = small_config(1);
    let (reference, all) = uninterrupted(&cfg);
    assert!(all.len() >= 3, "run too short to interrupt meaningfully");

    let stop = Arc::new(AtomicBool::new(false));
    let store: Arc<Mutex<Vec<RunCheckpoint>>> = Arc::default();
    let sink: CheckpointSink = {
        let stop = stop.clone();
        let store = store.clone();
        Arc::new(move |cp| {
            let mut store = store.lock().unwrap();
            store.push(cp);
            // Pull the plug partway through the run.
            if store.len() == 2 {
                stop.store(true, Ordering::Relaxed);
            }
        })
    };
    let mut sess = session(&cfg);
    let mut pipeline = build_pipeline(SPEC, &cfg, None)
        .expect("valid spec")
        .with_fixpoint(FIXPOINT)
        .with_checkpoint_sink(Some(sink))
        .with_stop(Some(stop));
    let report = pipeline.run(&mut sess);
    assert!(report.interrupted, "stop flag must be reported");

    let taken = store.lock().unwrap();
    assert!(taken.len() < all.len(), "interrupt cut the run short");
    // The interrupted state sits exactly at the last committed
    // checkpoint, and resuming from it completes the run.
    sess.refresh();
    assert_eq!(
        write_snapshot(sess.netlist()),
        taken.last().unwrap().netlist,
        "interrupted state must equal the last checkpoint"
    );
    let resumed = resume_to_completion(taken.last().unwrap(), &cfg);
    assert_eq!(resumed, reference, "resume after interrupt diverged");
}
