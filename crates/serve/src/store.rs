//! Durable job state: the on-disk layout that lets a killed daemon
//! resume in-flight work.
//!
//! Layout under the state directory:
//!
//! ```text
//! <state>/addr               last bound listen address (for clients)
//! <state>/corrupt/           quarantined artifacts that failed verification
//! <state>/<job-id>/job.json  sealed spec + phase (+ error), one line
//! <state>/<job-id>/job.json.prev       previous good job record
//! <state>/<job-id>/input.blif    submitted netlist, verbatim
//! <state>/<job-id>/checkpoint.txt  powder-checkpoint v2 (latest)
//! <state>/<job-id>/checkpoint.prev.txt  previous good checkpoint
//! <state>/<job-id>/out.blif      optimized netlist (terminal)
//! <state>/<job-id>/report.json   final report (terminal)
//! <state>/<job-id>/report.txt    human-readable report (terminal)
//! <state>/<job-id>/metrics.json  per-job obs delta (terminal)
//! ```
//!
//! Every write is atomic (`.tmp` + rename) so a crash never leaves a
//! half-written checkpoint; a resume sees either the previous
//! checkpoint or the new one, both of which are valid round
//! boundaries.
//!
//! Atomicity alone does not protect against what happens *after* the
//! rename — torn sectors, bit rot, truncation by a full disk. Both
//! durable record kinds therefore carry a CRC-32 (job records in a
//! [`powder_passes::integrity::seal`] envelope, checkpoints inline in
//! the `powder-checkpoint v2` format), every load verifies it, and a
//! record that fails verification is moved to `<state>/corrupt/`
//! (never deleted, never trusted) while the reader falls back to the
//! `.prev` copy kept from the preceding write. A job whose checkpoint
//! chain is wholly corrupt re-runs from its input — bit-identity is
//! preserved either way, because every committed checkpoint and the
//! clean start are all bit-identical resume points.
//!
//! The `store-torn-write` and `checkpoint-truncate` fault sites
//! corrupt the persisted bytes *post-rename* to prove all of the
//! above in CI.

use crate::job::{JobPhase, JobSpec};
use crate::protocol::JsonObj;
use powder_faults::{FaultState, SITE_CHECKPOINT_TRUNCATE, SITE_STORE_TORN_WRITE};
use powder_obs::json::{self, Value};
use powder_passes::integrity::{seal, unseal};
use powder_passes::RunCheckpoint;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Handle to the daemon's state directory.
#[derive(Clone, Debug)]
pub struct JobStore {
    root: PathBuf,
    faults: Option<Arc<FaultState>>,
}

/// A job re-discovered from disk at daemon startup.
#[derive(Debug)]
pub struct RecoveredJob {
    /// Job id (directory name).
    pub id: String,
    /// Persisted spec.
    pub spec: JobSpec,
    /// Phase at the time of the crash / shutdown.
    pub phase: JobPhase,
    /// Latest *verified* checkpoint text, if one was committed and
    /// survived verification (possibly the `.prev` fallback).
    pub checkpoint: Option<String>,
    /// Corrupt artifacts quarantined while recovering this job. When
    /// non-zero and the job is still runnable, the daemon counts a
    /// `serve.corrupt_recovered`.
    pub quarantined: usize,
}

/// Writes a file atomically via a `.tmp` sibling + rename.
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// Atomic write that first preserves the current file as `prev` — the
/// last-good copy the verified readers fall back to.
fn write_atomic_keep_prev(path: &Path, prev: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    if path.exists() {
        fs::rename(path, prev)?;
    }
    fs::rename(&tmp, path)
}

/// Truncates `path` to `keep_num / keep_den` of its size in place —
/// the fault harness's model of a torn sector / half-flushed page
/// discovered after the rename already landed.
fn tear_file(path: &Path, keep_num: usize, keep_den: usize) {
    if let Ok(data) = fs::read(path) {
        let keep = data.len() * keep_num / keep_den;
        let _ = fs::write(path, &data[..keep]);
    }
}

impl JobStore {
    /// Opens (creating if needed) a state directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<JobStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(JobStore { root, faults: None })
    }

    /// Arms the post-write corruption fault sites (`store-torn-write`,
    /// `checkpoint-truncate`) on this store handle.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<Arc<FaultState>>) -> JobStore {
        self.faults = faults;
        self
    }

    fn fault_fires(&self, site: &str) -> bool {
        powder_faults::fires(self.faults.as_ref(), site)
    }

    /// The state directory itself.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory for one job.
    #[must_use]
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Records the daemon's bound address for client discovery.
    pub fn write_addr(&self, addr: &str) -> io::Result<()> {
        write_atomic(&self.root.join("addr"), addr)
    }

    /// Reads the recorded daemon address, if any.
    pub fn read_addr(&self) -> Option<String> {
        fs::read_to_string(self.root.join("addr"))
            .ok()
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    }

    /// First available job id: `j<n>` with `n` one past the largest id
    /// already on disk, so ids stay unique across daemon restarts.
    pub fn next_id(&self) -> io::Result<u64> {
        let mut max = 0u64;
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            if let Some(n) = name
                .to_str()
                .and_then(|s| s.strip_prefix('j'))
                .and_then(|s| s.parse::<u64>().ok())
            {
                max = max.max(n);
            }
        }
        Ok(max + 1)
    }

    /// Persists a freshly submitted job: its directory, input netlist,
    /// and initial `queued` state.
    pub fn persist_new(&self, id: &str, spec: &JobSpec, netlist: &str) -> io::Result<()> {
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)?;
        write_atomic(&dir.join("input.blif"), netlist)?;
        self.write_state(id, spec, JobPhase::Queued, None)
    }

    /// Persists the job's spec + phase (the `job.json` line).
    pub fn write_state(
        &self,
        id: &str,
        spec: &JobSpec,
        phase: JobPhase,
        error: Option<&str>,
    ) -> io::Result<()> {
        let record = spec
            .encode(JsonObj::new().str("id", id).str("state", phase.as_str()))
            .opt_str("error", error)
            .finish();
        let dir = self.job_dir(id);
        write_atomic_keep_prev(
            &dir.join("job.json"),
            &dir.join("job.json.prev"),
            &seal(&record),
        )?;
        if self.fault_fires(SITE_STORE_TORN_WRITE) {
            tear_file(&dir.join("job.json"), 2, 3);
        }
        Ok(())
    }

    /// Persists the latest checkpoint text for a job, keeping the
    /// previous checkpoint as the last-good fallback.
    pub fn write_checkpoint(&self, id: &str, text: &str) -> io::Result<()> {
        let dir = self.job_dir(id);
        write_atomic_keep_prev(
            &dir.join("checkpoint.txt"),
            &dir.join("checkpoint.prev.txt"),
            text,
        )?;
        if self.fault_fires(SITE_CHECKPOINT_TRUNCATE) {
            tear_file(&dir.join("checkpoint.txt"), 1, 2);
        }
        Ok(())
    }

    /// Moves a file that failed verification into `<state>/corrupt/`,
    /// named `<job>.<file>`, for postmortem inspection. Never deletes.
    fn quarantine(&self, id: &str, path: &Path, why: &str) -> bool {
        let qdir = self.root.join("corrupt");
        if fs::create_dir_all(&qdir).is_err() {
            return false;
        }
        let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
            return false;
        };
        let dest = qdir.join(format!("{id}.{file}"));
        let moved = fs::rename(path, &dest).is_ok();
        if moved {
            eprintln!(
                "serve: quarantined {} -> {} ({why})",
                path.display(),
                dest.display()
            );
        }
        moved
    }

    /// Latest checkpoint text *with* integrity verification: tries
    /// `checkpoint.txt`, quarantines it on corruption and falls back
    /// to `checkpoint.prev.txt`, quarantining that too if it is also
    /// bad. Returns the surviving text plus how many corrupt copies
    /// were quarantined (0 on the happy path).
    pub fn read_checkpoint_verified(&self, id: &str) -> (Option<String>, usize) {
        let dir = self.job_dir(id);
        let mut quarantined = 0;
        for name in ["checkpoint.txt", "checkpoint.prev.txt"] {
            let path = dir.join(name);
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            match RunCheckpoint::verify_text(&text) {
                Ok(()) => return (Some(text), quarantined),
                Err(e) => {
                    if self.quarantine(id, &path, &e) {
                        quarantined += 1;
                    }
                }
            }
        }
        (None, quarantined)
    }

    /// The submitted netlist.
    pub fn read_input(&self, id: &str) -> io::Result<String> {
        fs::read_to_string(self.job_dir(id).join("input.blif"))
    }

    /// Persists the terminal artifacts of a finished job.
    pub fn write_result(
        &self,
        id: &str,
        out_blif: &str,
        report_json: &str,
        report_text: &str,
    ) -> io::Result<()> {
        let dir = self.job_dir(id);
        write_atomic(&dir.join("out.blif"), out_blif)?;
        write_atomic(&dir.join("report.json"), report_json)?;
        write_atomic(&dir.join("report.txt"), report_text)
    }

    /// The optimized netlist and report of a finished job.
    pub fn read_result(&self, id: &str) -> Option<(String, String)> {
        let dir = self.job_dir(id);
        let blif = fs::read_to_string(dir.join("out.blif")).ok()?;
        let report = fs::read_to_string(dir.join("report.json")).ok()?;
        Some((blif, report))
    }

    /// Persists the per-job metrics delta.
    pub fn write_job_metrics(&self, id: &str, metrics_json: &str) -> io::Result<()> {
        write_atomic(&self.job_dir(id).join("metrics.json"), metrics_json)
    }

    /// Reads and verifies a job's `job.json`: unseals + parses the
    /// current record, quarantining it and falling back to
    /// `job.json.prev` on corruption. Returns the parsed record plus
    /// how many corrupt copies were quarantined.
    #[allow(clippy::type_complexity)]
    pub fn read_state_verified(
        &self,
        id: &str,
    ) -> (Option<(JobSpec, JobPhase, Option<String>)>, usize) {
        let dir = self.job_dir(id);
        let mut quarantined = 0;
        for name in ["job.json", "job.json.prev"] {
            let path = dir.join(name);
            let Ok(raw) = fs::read_to_string(&path) else {
                continue;
            };
            let parsed = match unseal(&raw) {
                Ok(payload) => parse_state(payload),
                Err(e) => Err(e.to_string()),
            };
            match parsed {
                Ok(rec) => return (Some(rec), quarantined),
                Err(e) => {
                    if self.quarantine(id, &path, &e) {
                        quarantined += 1;
                    }
                }
            }
        }
        (None, quarantined)
    }

    /// Scans the state directory for jobs left behind by a previous
    /// daemon. Terminal jobs are returned for listing only;
    /// non-terminal jobs carry their checkpoint (if any) so the caller
    /// can re-enqueue them with resume.
    ///
    /// Every durable record is verified on the way in. A corrupt
    /// `job.json` falls back to the `.prev` record; a corrupt
    /// checkpoint falls back to the `.prev` checkpoint, and failing
    /// that the job re-runs cleanly from its input. Corrupt copies are
    /// quarantined to `<state>/corrupt/` — a job is never resurrected
    /// from bytes that failed verification. Only a job whose record
    /// chain is wholly unreadable is skipped (its files stay
    /// quarantined for inspection).
    pub fn recover(&self) -> io::Result<Vec<RecoveredJob>> {
        let mut jobs = Vec::new();
        let mut entries: Vec<_> = fs::read_dir(&self.root)?
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .collect();
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for entry in entries {
            let id = match entry.file_name().to_str() {
                Some(s) if s.starts_with('j') => s.to_string(),
                _ => continue,
            };
            let (state, state_quarantined) = self.read_state_verified(&id);
            let Some((spec, phase, _err)) = state else {
                if state_quarantined > 0 {
                    eprintln!("serve: skipping {id}: job record chain corrupt, quarantined");
                } // else: submit crashed before job.json landed
                continue;
            };
            let (checkpoint, cp_quarantined) = self.read_checkpoint_verified(&id);
            jobs.push(RecoveredJob {
                checkpoint,
                id,
                spec,
                phase,
                quarantined: state_quarantined + cp_quarantined,
            });
        }
        Ok(jobs)
    }
}

/// Parses a persisted `job.json` line back into spec + phase (+ error),
/// decoding the spec as a submit is ([`JobSpec::decode`]). The caller is
/// expected to have already stripped the seal envelope (see
/// [`powder_passes::integrity::unseal`]).
pub fn parse_state(text: &str) -> Result<(JobSpec, JobPhase, Option<String>), String> {
    let v = json::parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let phase = JobPhase::parse(
        v.get("state")
            .and_then(Value::as_str)
            .ok_or("missing \"state\"")?,
    )?;
    let spec = JobSpec::decode(&v).map_err(|e| e.to_string())?;
    let error = match v.get("error") {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    Ok((spec, phase, error))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> JobStore {
        let dir =
            std::env::temp_dir().join(format!("powder-serve-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        JobStore::open(dir).expect("open store")
    }

    /// A minimal checkpoint that passes verification.
    fn valid_checkpoint() -> String {
        RunCheckpoint {
            position: powder_passes::ResumePoint::default(),
            netlist: "x\n".to_string(),
            pattern_bits: Vec::new(),
            pattern_tail: 0,
        }
        .to_text()
    }

    #[test]
    fn state_round_trips_through_disk() {
        let store = temp_store("roundtrip");
        let spec = JobSpec {
            tenant: "acme".into(),
            priority: 3,
            passes: "sweep,powder".into(),
            fixpoint: 2,
            repeat: 4,
            patterns: 128,
            seed: 99,
            jobs: 2,
            delay_limit_percent: Some(10.0),
            deadline_secs: Some(5.0),
            window_size: Some(512),
            window_overlap: Some(64),
            egraph_node_limit: Some(256),
            egraph_iters: Some(4),
            job_key: Some("order-7".into()),
        };
        store.persist_new("j1", &spec, ".model m\n.end\n").unwrap();
        store
            .write_state("j1", &spec, JobPhase::Checkpointed, None)
            .unwrap();
        store.write_checkpoint("j1", &valid_checkpoint()).unwrap();

        let jobs = store.recover().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].id, "j1");
        assert_eq!(jobs[0].phase, JobPhase::Checkpointed);
        assert_eq!(jobs[0].spec, spec);
        assert_eq!(jobs[0].quarantined, 0);
        assert!(jobs[0]
            .checkpoint
            .as_deref()
            .unwrap()
            .starts_with("powder-checkpoint"));
        assert_eq!(store.read_input("j1").unwrap(), ".model m\n.end\n");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn seed_beyond_f64_precision_survives_submit_and_reload() {
        let line = r#"{"op":"submit","netlist":"x","seed":9007199254740993}"#;
        let crate::Request::Submit { spec, .. } = crate::parse_request(line).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(spec.seed, 9_007_199_254_740_993);
        let store = temp_store("big-seed");
        store.persist_new("j1", &spec, "x").unwrap();
        let jobs = store.recover().unwrap();
        assert_eq!(jobs[0].spec.seed, 9_007_199_254_740_993);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn out_of_range_fields_are_corrupt_not_cast() {
        for bad in [
            r#""seed":-1"#,
            r#""jobs":2.5"#,
            r#""priority":9223372036854775808"#,
        ] {
            let text = format!(r#"{{"state":"queued",{bad}}}"#);
            assert!(parse_state(&text).is_err(), "{bad} must not load");
        }
    }

    #[test]
    fn job_records_are_sealed_on_disk() {
        let store = temp_store("sealed");
        store.persist_new("j1", &JobSpec::default(), "x").unwrap();
        let raw = fs::read_to_string(store.job_dir("j1").join("job.json")).unwrap();
        assert!(raw.starts_with("powder-sealed v1 "), "got: {raw}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn torn_job_record_falls_back_to_prev_and_quarantines() {
        let store = temp_store("torn-state");
        let spec = JobSpec::default();
        store.persist_new("j1", &spec, "x").unwrap();
        // Second write creates job.json.prev, then tear the current.
        store
            .write_state("j1", &spec, JobPhase::Running, None)
            .unwrap();
        tear_file(&store.job_dir("j1").join("job.json"), 2, 3);

        let jobs = store.recover().unwrap();
        assert_eq!(jobs.len(), 1);
        // The .prev record holds the *previous* phase — stale but
        // verified, never garbage.
        assert_eq!(jobs[0].phase, JobPhase::Queued);
        assert_eq!(jobs[0].quarantined, 1);
        assert!(store.root().join("corrupt").join("j1.job.json").exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn unsealed_job_record_is_quarantined_for_prev() {
        let store = temp_store("unsealed-state");
        let spec = JobSpec::default();
        store.persist_new("j1", &spec, "x").unwrap();
        store
            .write_state("j1", &spec, JobPhase::Running, None)
            .unwrap();
        // A bare record with no seal header, as written before records
        // were sealed: it parses as JSON but is not trusted.
        let path = store.job_dir("j1").join("job.json");
        let raw = fs::read_to_string(&path).unwrap();
        fs::write(&path, unseal(&raw).unwrap()).unwrap();

        let jobs = store.recover().unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].phase, JobPhase::Queued, "read from job.json.prev");
        assert_eq!(jobs[0].quarantined, 1);
        assert!(store.root().join("corrupt").join("j1.job.json").exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn wholly_corrupt_job_is_skipped_not_resurrected() {
        let store = temp_store("corrupt-chain");
        store.persist_new("j1", &JobSpec::default(), "x").unwrap();
        tear_file(&store.job_dir("j1").join("job.json"), 1, 2);

        let jobs = store.recover().unwrap();
        assert!(jobs.is_empty(), "corrupt job must not come back runnable");
        assert!(store.root().join("corrupt").join("j1.job.json").exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_checkpoint_falls_back_to_prev() {
        let store = temp_store("cp-prev");
        let spec = JobSpec::default();
        store.persist_new("j1", &spec, "x").unwrap();
        store.write_checkpoint("j1", &valid_checkpoint()).unwrap();
        store.write_checkpoint("j1", &valid_checkpoint()).unwrap();
        tear_file(&store.job_dir("j1").join("checkpoint.txt"), 1, 2);

        let (text, quarantined) = store.read_checkpoint_verified("j1");
        assert!(text.is_some(), "must fall back to checkpoint.prev.txt");
        assert_eq!(quarantined, 1);
        assert!(store
            .root()
            .join("corrupt")
            .join("j1.checkpoint.txt")
            .exists());

        // Tear the fallback too: no checkpoint survives → clean re-run.
        tear_file(&store.job_dir("j1").join("checkpoint.prev.txt"), 1, 3);
        let (text, quarantined) = store.read_checkpoint_verified("j1");
        assert!(text.is_none());
        assert_eq!(quarantined, 1);
        let jobs = store.recover().unwrap();
        assert_eq!(jobs.len(), 1, "job survives as a clean re-run");
        assert!(jobs[0].checkpoint.is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn fault_sites_corrupt_post_write() {
        use powder_faults::FaultPlan;
        let faults = FaultPlan::parse("store-torn-write=once:1,checkpoint-truncate=once:1")
            .unwrap()
            .into_state();
        let store = temp_store("fault-sites").with_faults(Some(faults));
        let spec = JobSpec::default();
        store.persist_new("j1", &spec, "x").unwrap(); // fires torn-write
        store.write_checkpoint("j1", &valid_checkpoint()).unwrap(); // fires truncate

        let raw = fs::read_to_string(store.job_dir("j1").join("job.json")).unwrap();
        assert!(unseal(&raw).is_err(), "job.json must be torn");
        let cp = fs::read_to_string(store.job_dir("j1").join("checkpoint.txt")).unwrap();
        assert!(RunCheckpoint::verify_text(&cp).is_err());

        // Both records were first-writes (no .prev): recover must
        // quarantine and skip, never resurrect.
        let jobs = store.recover().unwrap();
        assert!(jobs.is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn next_id_skips_existing_jobs() {
        let store = temp_store("nextid");
        assert_eq!(store.next_id().unwrap(), 1);
        store.persist_new("j7", &JobSpec::default(), "x").unwrap();
        assert_eq!(store.next_id().unwrap(), 8);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn failed_jobs_keep_their_error() {
        let store = temp_store("error");
        let spec = JobSpec::default();
        store.persist_new("j1", &spec, "x").unwrap();
        store
            .write_state("j1", &spec, JobPhase::Failed, Some("boom: line 3"))
            .unwrap();
        let text = fs::read_to_string(store.job_dir("j1").join("job.json")).unwrap();
        let (_, phase, err) = parse_state(unseal(&text).unwrap()).unwrap();
        assert_eq!(phase, JobPhase::Failed);
        assert_eq!(err.as_deref(), Some("boom: line 3"));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn addr_round_trips() {
        let store = temp_store("addr");
        assert!(store.read_addr().is_none());
        store.write_addr("127.0.0.1:4217").unwrap();
        assert_eq!(store.read_addr().as_deref(), Some("127.0.0.1:4217"));
        let _ = fs::remove_dir_all(store.root());
    }
}
