//! Deterministic fault-injection harness for the resilience layer.
//!
//! Production code asks a shared [`FaultState`] whether a named *site*
//! should fail right now; the answer is a pure function of the parsed
//! [`FaultPlan`] and the number of times that site has been reached, so
//! a given plan string reproduces the exact same failure schedule on
//! every run. With no plan installed every query is a branch on a
//! `None` — the harness costs nothing in a fault-free build.
//!
//! Plans are comma-separated `site=trigger` clauses plus an optional
//! `seed=N` phase offset, e.g.:
//!
//! ```text
//! seed=1,worker-panic=every:5,atpg-abort=every:7,verify-mismatch=once:2
//! ```
//!
//! `every:K` fires on each occurrence whose 1-based count is congruent
//! to `seed` modulo `K`; `once:N` fires exactly on the `N`-th
//! occurrence. The CLI reads a plan from the `POWDER_FAULTS`
//! environment variable (see [`FaultPlan::from_env`]).
//!
//! Well-known site names used across the workspace live here as
//! constants so injectors and tests cannot drift apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Site name: a worker-pool batch panics mid-execution.
pub const SITE_WORKER_PANIC: &str = "worker-panic";
/// Site name: an ATPG permissibility check reports `Aborted`.
pub const SITE_ATPG_ABORT: &str = "atpg-abort";
/// Site name: the commit guard's post-apply signature check mismatches.
pub const SITE_VERIFY_MISMATCH: &str = "verify-mismatch";
/// Site name: the serve daemon dies abruptly mid-job (process exit
/// without drain), exercising checkpoint recovery on restart.
pub const SITE_SERVE_CRASH: &str = "serve-crash";
/// Site name: a persisted `job.json` record is torn after the atomic
/// rename lands (truncated to a prefix), exercising the store's
/// CRC-verified load + quarantine + last-good fallback on restart.
pub const SITE_STORE_TORN_WRITE: &str = "store-torn-write";
/// Site name: a committed checkpoint file is truncated post-write,
/// exercising checkpoint integrity verification and the fall-back to
/// the previous good checkpoint (or a clean re-run).
pub const SITE_CHECKPOINT_TRUNCATE: &str = "checkpoint-truncate";
/// Site name: a serve job's runner parks before its pipeline starts
/// until the job is cancelled, the daemon drains, or the job's
/// deadline passes, so tests can hold a runner busy without relying
/// on how long a job takes.
pub const SITE_SERVE_HOLD: &str = "serve-hold";

/// Every site name an injector in this workspace queries. A plan clause
/// naming anything else is a typo and is rejected at parse time.
pub const KNOWN_SITES: &[&str] = &[
    SITE_WORKER_PANIC,
    SITE_ATPG_ABORT,
    SITE_VERIFY_MISMATCH,
    SITE_SERVE_CRASH,
    SITE_STORE_TORN_WRITE,
    SITE_CHECKPOINT_TRUNCATE,
    SITE_SERVE_HOLD,
];

/// When a site's fault fires, as parsed from one plan clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Fire when `count % k == seed % k` (1-based occurrence count).
    Every(u64),
    /// Fire exactly on the `n`-th occurrence (1-based).
    Once(u64),
}

impl Trigger {
    fn fires(self, count: u64, seed: u64) -> bool {
        match self {
            Trigger::Every(k) => count % k == seed % k,
            Trigger::Once(n) => count == n,
        }
    }
}

/// A parsed fault plan: the seed offset plus one trigger per site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Phase offset applied to `every:K` triggers.
    pub seed: u64,
    /// `(site, trigger)` clauses in plan order.
    pub sites: Vec<(String, Trigger)>,
}

impl FaultPlan {
    /// Parses a plan string (`seed=N,site=every:K,site=once:N`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is not `key=value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|e| format!("bad fault seed {value:?}: {e}"))?;
                continue;
            }
            if !KNOWN_SITES.contains(&key) {
                return Err(format!(
                    "unknown fault site {key:?} (known sites: {})",
                    KNOWN_SITES.join(", ")
                ));
            }
            let trigger = match value.split_once(':') {
                Some(("every", k)) => {
                    let k: u64 = k
                        .parse()
                        .map_err(|e| format!("bad period in {clause:?}: {e}"))?;
                    if k == 0 {
                        return Err(format!("zero period in {clause:?}"));
                    }
                    Trigger::Every(k)
                }
                Some(("once", n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|e| format!("bad occurrence in {clause:?}: {e}"))?;
                    if n == 0 {
                        return Err(format!("occurrence counts are 1-based in {clause:?}"));
                    }
                    Trigger::Once(n)
                }
                _ => {
                    return Err(format!(
                        "fault trigger in {clause:?} must be `every:K` or `once:N`"
                    ))
                }
            };
            plan.sites.push((key.to_string(), trigger));
        }
        Ok(plan)
    }

    /// Reads a plan from the `POWDER_FAULTS` environment variable.
    /// Unset or empty → `Ok(None)`; a malformed value is an error so
    /// typos fail loudly instead of silently disabling injection.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("POWDER_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Wraps the plan in runtime counters, ready to thread through an
    /// optimizer run.
    pub fn into_state(self) -> Arc<FaultState> {
        let sites = self
            .sites
            .iter()
            .map(|(name, trigger)| SiteState {
                name: name.clone(),
                trigger: *trigger,
                occurrences: AtomicU64::new(0),
                fired: AtomicU64::new(0),
            })
            .collect();
        Arc::new(FaultState {
            seed: self.seed,
            sites,
        })
    }
}

#[derive(Debug)]
struct SiteState {
    name: String,
    trigger: Trigger,
    occurrences: AtomicU64,
    fired: AtomicU64,
}

/// A fault plan plus per-site occurrence counters, shared (via `Arc`)
/// by every component that hosts an injection site.
///
/// Counters are atomic so pool workers can query concurrently; the
/// *schedule* stays deterministic because each site is only ever
/// queried from a deterministic sequence of program points (the pool
/// fires per batch on the arbiter-ordered batch list, ATPG per proof in
/// plan order, verification per commit).
#[derive(Debug)]
pub struct FaultState {
    seed: u64,
    sites: Vec<SiteState>,
}

impl FaultState {
    /// Records one occurrence of `site` and reports whether the plan
    /// says this occurrence must fail. Sites absent from the plan never
    /// fire and keep no counters.
    pub fn should_fire(&self, site: &str) -> bool {
        let Some(s) = self.sites.iter().find(|s| s.name == site) else {
            return false;
        };
        let count = s.occurrences.fetch_add(1, Ordering::Relaxed) + 1;
        if s.trigger.fires(count, self.seed) {
            s.fired.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// How many times `site` has actually fired so far.
    pub fn fired(&self, site: &str) -> u64 {
        self.sites
            .iter()
            .find(|s| s.name == site)
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }

    /// How many times `site` has been reached (fired or not).
    pub fn occurrences(&self, site: &str) -> u64 {
        self.sites
            .iter()
            .find(|s| s.name == site)
            .map_or(0, |s| s.occurrences.load(Ordering::Relaxed))
    }
}

/// Queries an optional fault state: `None` (the production default)
/// never fires. Saves every host a `match` on the `Option`.
pub fn fires(state: Option<&Arc<FaultState>>, site: &str) -> bool {
    state.is_some_and(|s| s.should_fire(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let plan = FaultPlan::parse("seed=3, worker-panic=every:5,atpg-abort=once:2 ").unwrap();
        assert_eq!(plan.seed, 3);
        assert_eq!(
            plan.sites,
            vec![
                ("worker-panic".to_string(), Trigger::Every(5)),
                ("atpg-abort".to_string(), Trigger::Once(2)),
            ]
        );
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(FaultPlan::parse("worker-panic").is_err());
        assert!(FaultPlan::parse("worker-panic=always").is_err());
        assert!(FaultPlan::parse("worker-panic=every:0").is_err());
        assert!(FaultPlan::parse("worker-panic=once:0").is_err());
        assert!(FaultPlan::parse("seed=banana").is_err());
        assert!(FaultPlan::parse("").unwrap().sites.is_empty());
    }

    #[test]
    fn rejects_unknown_sites_naming_the_token() {
        let err = FaultPlan::parse("worker-pnic=every:5").unwrap_err();
        assert!(
            err.contains("\"worker-pnic\""),
            "error must name the bad site, got: {err}"
        );
        assert!(
            err.contains(SITE_WORKER_PANIC),
            "error must list the known sites, got: {err}"
        );
        let err = FaultPlan::parse("worker-panic=every:x").unwrap_err();
        assert!(
            err.contains("worker-panic=every:x"),
            "error must name the bad clause, got: {err}"
        );
    }

    #[test]
    fn every_known_site_parses() {
        for site in KNOWN_SITES {
            let plan = FaultPlan::parse(&format!("{site}=once:1")).unwrap();
            assert_eq!(plan.sites.len(), 1, "{site} must be accepted");
        }
    }

    #[test]
    fn every_fires_on_seeded_multiples() {
        let state = FaultPlan::parse("worker-panic=every:3")
            .unwrap()
            .into_state();
        let fired: Vec<bool> = (0..9)
            .map(|_| state.should_fire(SITE_WORKER_PANIC))
            .collect();
        // seed 0: occurrences 3, 6, 9 fire.
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(state.fired(SITE_WORKER_PANIC), 3);
        assert_eq!(state.occurrences(SITE_WORKER_PANIC), 9);
    }

    #[test]
    fn seed_shifts_the_phase() {
        let state = FaultPlan::parse("seed=1,atpg-abort=every:3")
            .unwrap()
            .into_state();
        let fired: Vec<bool> = (0..6).map(|_| state.should_fire(SITE_ATPG_ABORT)).collect();
        // seed 1: occurrences 1, 4 fire.
        assert_eq!(fired, vec![true, false, false, true, false, false]);
    }

    #[test]
    fn once_fires_exactly_once() {
        let state = FaultPlan::parse("verify-mismatch=once:2")
            .unwrap()
            .into_state();
        let fired: Vec<bool> = (0..5)
            .map(|_| state.should_fire(SITE_VERIFY_MISMATCH))
            .collect();
        assert_eq!(fired, vec![false, true, false, false, false]);
        assert_eq!(state.fired(SITE_VERIFY_MISMATCH), 1);
    }

    #[test]
    fn unplanned_sites_never_fire() {
        let state = FaultPlan::parse("worker-panic=every:1")
            .unwrap()
            .into_state();
        assert!(!state.should_fire(SITE_ATPG_ABORT));
        assert!(!fires(None, SITE_WORKER_PANIC));
        assert_eq!(state.occurrences(SITE_ATPG_ABORT), 0);
    }
}
