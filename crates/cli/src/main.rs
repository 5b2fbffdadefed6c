//! `powder` — command-line front end for the POWDER optimizer.
//!
//! ```text
//! powder optimize <in.blif> [-o out.blif] [--delay-limit PCT] [--library lib.genlib]
//!                 [--repeat N] [--patterns N] [--seed S] [--jobs N]
//!                 [--deadline-secs S] [--window-size W] [--window-overlap H]
//!                 [--passes LIST] [--fixpoint N]
//!                 [--egraph-node-limit N] [--egraph-iters N]
//!                 [--trace-out trace.json] [--metrics-out metrics.json]
//! powder synth    <in.pla>  [-o out.blif] [--library lib.genlib]   # two-level → mapped
//! powder stats    <in.blif> [--library lib.genlib]
//! powder equiv    <a.blif> <b.blif> [--library lib.genlib]   # exact equivalence proof
//! powder bench    <name>    [-o out.blif]      # dump a suite circuit as BLIF
//! powder list                                  # list suite circuits
//! powder serve    --state-dir DIR [--listen ADDR] [--max-active N]
//!                 [--threads N] [--library lib.genlib]    # optimization daemon
//!                 [--max-queued N] [--max-request-bytes N]
//!                 [--read-timeout-secs S] [--drain-deadline-secs S]
//! powder submit   <in.blif> (--addr HOST:PORT | --state-dir DIR)
//!                 [--tenant T] [--priority P] [--wait] [-o out.blif]
//!                 [--job-key KEY]   # idempotent resubmission
//!                 [optimize flags: --passes/--fixpoint/--repeat/--patterns/
//!                  --seed/--jobs/--delay-limit/--deadline-secs/
//!                  --window-size/--window-overlap/
//!                  --egraph-node-limit/--egraph-iters]
//! ```
//!
//! `--passes` takes a comma-separated pipeline over `sweep`, `powder`,
//! `resize`, `redundancy`, and `egraph` (default: `powder`);
//! `--fixpoint N` repeats the whole sequence up to `N` times, stopping
//! early once an iteration changes nothing. Unknown pass names are
//! rejected when the arguments are parsed, before any file is read.
//! `--egraph-node-limit`/`--egraph-iters` bound the `egraph`
//! pass's per-cone saturation (e-node budget and rewrite iterations).
//!
//! `--trace-out` enables span tracing and writes a Chrome/Perfetto
//! `trace_event` JSON file when the command finishes; `--metrics-out`
//! writes a flat JSON snapshot of the metric registry. Both work with
//! any command but only `optimize` produces interesting data.
//!
//! `--deadline-secs S` bounds an optimize run by wall-clock time: the
//! optimizer stops starting new work once the deadline passes and emits
//! the best netlist found so far (always valid and function-preserving).
//! Ctrl-C (SIGINT/SIGTERM) during `optimize` does the same: the run
//! stops at the next committed boundary and the best-so-far netlist is
//! still written. The `POWDER_FAULTS` environment variable installs a
//! deterministic fault-injection plan (see `powder-faults`) for
//! resilience testing.
//!
//! `powder serve` runs the multi-tenant optimization daemon (see the
//! `powder-serve` crate): jobs submitted with `powder submit` run the
//! exact pipeline `powder optimize` would, checkpoint at committed
//! round boundaries, and survive daemon restarts.
//!
//! Exit code 0 on success, 1 on DRC/IO/parse errors. Daemon-reported
//! failures from `powder submit` map the serve [`ErrorCode`] taxonomy
//! to distinct exit codes (`bad-request` 2, `not-found` 3,
//! `overloaded` 4, `too-large` 5, `timeout` 6, `draining` 7,
//! `corrupt` 8) so scripts can branch on *why* a submission failed.
//!
//! [`ErrorCode`]: powder_serve::ErrorCode

use powder::{check_equivalence, EquivOutcome};
use powder_faults::FaultPlan;
use powder_library::{genlib::parse_genlib, lib2, Library};
use powder_netlist::blif::{read_blif, write_blif};
use powder_netlist::Netlist;
use powder_passes::{AnalysisSession, SessionConfig};
use powder_power::{PowerConfig, PowerEstimator};
use powder_serve::job::{deadline_after, SpecError};
use powder_serve::JobSpec;
use powder_timing::{TimingAnalysis, TimingConfig};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Backtrack budget for `powder equiv` miter solves — generous because
/// an exact verdict matters more than latency here.
const EQUIV_BACKTRACK_LIMIT: usize = 1_000_000;

struct Options {
    positional: Vec<String>,
    output: Option<String>,
    library: Option<String>,
    /// The run (`optimize`) or job (`submit`): every run flag plus
    /// `--tenant`, `--priority` and `--job-key`.
    spec: JobSpec,
    /// Write a Chrome/Perfetto trace of the run here (enables tracing).
    trace_out: Option<String>,
    /// Write a JSON snapshot of the metric registry here.
    metrics_out: Option<String>,
    /// `serve`: listen address (default 127.0.0.1:0 = any free port).
    listen: Option<String>,
    /// `serve`/`submit`: durable state directory.
    state_dir: Option<String>,
    /// `serve`: concurrent jobs (runner threads).
    max_active: usize,
    /// `serve`: evaluation threads shared across jobs (0 = hardware).
    threads: usize,
    /// `serve`: admission-control queue bound (None = daemon default).
    max_queued: Option<usize>,
    /// `serve`: largest accepted request line in bytes.
    max_request_bytes: Option<usize>,
    /// `serve`: idle-connection reap deadline in seconds.
    read_timeout_secs: Option<f64>,
    /// `serve`: graceful-drain watchdog deadline in seconds.
    drain_deadline_secs: Option<f64>,
    /// `submit`: daemon address (overrides the state-dir addr file).
    addr: Option<String>,
    /// `submit`: block until the job finishes and fetch the result.
    wait: bool,
}

/// A CLI failure: the message printed to stderr plus the process exit
/// code. Local errors (I/O, parsing, DRC) exit 1; daemon-reported
/// failures carry the serve [`powder_serve::ErrorCode`] mapping so
/// scripts can distinguish `overloaded` from `bad-request`.
struct CliError {
    exit: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { exit: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        CliError {
            exit: 1,
            message: message.to_string(),
        }
    }
}

impl From<powder_serve::client::ClientError> for CliError {
    fn from(e: powder_serve::client::ClientError) -> CliError {
        CliError {
            exit: e.code.exit_code(),
            message: e.to_string(),
        }
    }
}

/// Parses a flag's value, naming the flag on failure.
fn num<T: FromStr>(flag: &str, raw: String) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// A refused [`JobSpec`] field, named by its flag.
fn flag_error(e: SpecError) -> String {
    format!("bad --{}: {}", e.field.replace('_', "-"), e.reason)
}

/// `secs` if [`deadline_after`] accepts it (the check `--deadline-secs`
/// gets from [`JobSpec::validate`]), else the refusal naming the flag of
/// `field`.
fn seconds(field: &'static str, secs: f64) -> Result<f64, String> {
    deadline_after(field, secs)
        .map(|_| secs)
        .map_err(flag_error)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        positional: Vec::new(),
        output: None,
        library: None,
        spec: JobSpec::default(),
        trace_out: None,
        metrics_out: None,
        listen: None,
        state_dir: None,
        max_active: 2,
        threads: 0,
        max_queued: None,
        max_request_bytes: None,
        read_timeout_secs: None,
        drain_deadline_secs: None,
        addr: None,
        wait: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        let mut val = || -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let spec = &mut o.spec;
        match flag {
            "-o" | "--output" => o.output = Some(val()?),
            "--library" => o.library = Some(val()?),
            "--delay-limit" => spec.delay_limit_percent = Some(num(flag, val()?)?),
            "--repeat" => spec.repeat = num(flag, val()?)?,
            "--patterns" => spec.patterns = num(flag, val()?)?,
            "--seed" => spec.seed = num(flag, val()?)?,
            "--jobs" => {
                spec.jobs = num(flag, val()?)?;
                if spec.jobs == 0 {
                    return Err(
                        "bad --jobs: 0 is not a worker count (omit the flag to auto-detect)".into(),
                    );
                }
            }
            "--deadline-secs" => spec.deadline_secs = Some(num(flag, val()?)?),
            "--window-size" => spec.window_size = Some(num(flag, val()?)?),
            "--window-overlap" => spec.window_overlap = Some(num(flag, val()?)?),
            "--passes" => spec.passes = val()?,
            "--fixpoint" => spec.fixpoint = num(flag, val()?)?,
            "--egraph-node-limit" => spec.egraph_node_limit = Some(num(flag, val()?)?),
            "--egraph-iters" => spec.egraph_iters = Some(num(flag, val()?)?),
            "--tenant" => spec.tenant = val()?,
            "--priority" => spec.priority = num(flag, val()?)?,
            "--job-key" => spec.job_key = Some(val()?),
            "--trace-out" => o.trace_out = Some(val()?),
            "--metrics-out" => o.metrics_out = Some(val()?),
            "--listen" => o.listen = Some(val()?),
            "--state-dir" => o.state_dir = Some(val()?),
            "--max-active" => {
                o.max_active = num(flag, val()?)?;
                if o.max_active == 0 {
                    return Err("bad --max-active: need at least one runner".into());
                }
            }
            "--threads" => o.threads = num(flag, val()?)?,
            "--max-queued" => {
                let n = num(flag, val()?)?;
                if n == 0 {
                    return Err("bad --max-queued: need at least one queue slot".into());
                }
                o.max_queued = Some(n);
            }
            "--max-request-bytes" => o.max_request_bytes = Some(num(flag, val()?)?),
            "--read-timeout-secs" => {
                o.read_timeout_secs = Some(seconds("read_timeout_secs", num(flag, val()?)?)?);
            }
            "--drain-deadline-secs" => {
                o.drain_deadline_secs = Some(seconds("drain_deadline_secs", num(flag, val()?)?)?);
            }
            "--addr" => o.addr = Some(val()?),
            "--wait" => o.wait = true,
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => o.positional.push(other.to_string()),
        }
    }
    // Unknown pass names and bad bounds fail here, before any file I/O.
    o.spec.validate().map_err(flag_error)?;
    Ok(o)
}

fn load_library(opts: &Options) -> Result<Arc<Library>, String> {
    match &opts.library {
        None => Ok(Arc::new(lib2())),
        Some(path) => {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_genlib(path, &src)
                .map(Arc::new)
                .map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// Commands that rewire signals need an inverter cell (inverted-signal
/// substitutions insert one); fail up front with the library's path
/// rather than panicking mid-optimization.
fn require_inverter(lib: &Library, opts: &Options) -> Result<(), String> {
    if lib.has_inverter() {
        Ok(())
    } else {
        let path = opts.library.as_deref().unwrap_or("<builtin>");
        Err(format!("{path}: library has no inverter cell"))
    }
}

fn load_netlist(path: &str, lib: Arc<Library>) -> Result<Netlist, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let nl = read_blif(&src, lib).map_err(|e| e.to_string())?;
    nl.validate().map_err(|e| e.to_string())?;
    Ok(nl)
}

fn print_stats(nl: &Netlist) {
    let est = PowerEstimator::new(nl, &PowerConfig::default());
    let sta = TimingAnalysis::new(nl, &TimingConfig::default());
    println!("circuit : {}", nl.name());
    println!("inputs  : {}", nl.inputs().len());
    println!("outputs : {}", nl.outputs().len());
    println!("cells   : {}", nl.cell_count());
    println!("area    : {:.0}", nl.area());
    println!(
        "power   : {:.4}  (Σ C·E, zero-delay)",
        est.circuit_power(nl)
    );
    println!("delay   : {:.2}", sta.circuit_delay());
    println!("{}", nl.stats());
}

fn emit(nl: &Netlist, output: Option<&str>) -> Result<(), String> {
    // Output format follows the file extension: .v → Verilog, .bench →
    // ISCAS bench, anything else → mapped BLIF.
    let text = match output {
        Some(p) if p.ends_with(".v") => powder_netlist::verilog::write_verilog(nl),
        Some(p) if p.ends_with(".bench") => powder_netlist::bench_fmt::write_bench(nl),
        _ => write_blif(nl),
    };
    match output {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Writes the `--trace-out` / `--metrics-out` files once the command
/// body has finished. The snapshot/drain run on the main thread, which
/// sees its own live buffers plus everything worker threads flushed.
fn write_observability(opts: &Options) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let json = powder_obs::export::chrome_trace_json(&powder_obs::drain());
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &opts.metrics_out {
        let json = powder_obs::snapshot().to_json();
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return Err(
            "usage: powder <optimize|synth|stats|equiv|bench|list|serve|submit> ...".into(),
        );
    };
    let opts = parse_args(&args[1..])?;
    if opts.trace_out.is_some() {
        powder_obs::set_tracing_enabled(true);
    }
    let result = match command.as_str() {
        "list" => {
            for name in powder_benchmarks::table1_names() {
                let info = powder_benchmarks::info(name).expect("known");
                println!(
                    "{name:<10} {:?}{}",
                    info.family,
                    if info.exact { " (exact)" } else { "" }
                );
            }
            for name in powder_benchmarks::scale_names() {
                let info = powder_benchmarks::scale_info(name).expect("known");
                println!(
                    "{name:<14} {} (~{} gates, scale suite)",
                    info.class, info.target_gates
                );
            }
            Ok(())
        }
        "bench" => {
            let name = opts
                .positional
                .first()
                .ok_or("bench requires a circuit name (see `powder list`)")?;
            let lib = load_library(&opts)?;
            let nl = powder_benchmarks::build(name, lib).map_err(|e| e.to_string())?;
            print_stats(&nl);
            emit(&nl, opts.output.as_deref())
        }
        "synth" => {
            let path = opts
                .positional
                .first()
                .ok_or("synth requires a .pla input file")?;
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let pla = powder_logic::pla::parse_pla(&src).map_err(|e| e.to_string())?;
            let lib = load_library(&opts)?;
            require_inverter(&lib, &opts)?;
            let spec = powder_synth::CircuitSpec::from_pla(path.as_str(), &pla);
            let nl = powder_synth::synthesize(&spec, lib, powder_synth::MapMode::Power)
                .map_err(|e| e.to_string())?;
            print_stats(&nl);
            emit(&nl, opts.output.as_deref())
        }
        "stats" => {
            let path = opts
                .positional
                .first()
                .ok_or("stats requires an input file")?;
            let lib = load_library(&opts)?;
            let nl = load_netlist(path, lib)?;
            print_stats(&nl);
            Ok(())
        }
        "equiv" => {
            let (a_path, b_path) = match opts.positional.as_slice() {
                [a, b] => (a, b),
                _ => return Err("equiv requires exactly two netlist files".into()),
            };
            let lib = load_library(&opts)?;
            let a = load_netlist(a_path, lib.clone())?;
            let b = load_netlist(b_path, lib)?;
            match check_equivalence(&a, &b, EQUIV_BACKTRACK_LIMIT).map_err(|e| e.to_string())? {
                EquivOutcome::Equivalent => {
                    println!("equivalent");
                    Ok(())
                }
                EquivOutcome::Inequivalent { witness, output } => {
                    let assignment: Vec<String> = a
                        .inputs()
                        .iter()
                        .zip(&witness)
                        .map(|(&pi, &v)| format!("{}={}", a.gate_name(pi), u8::from(v)))
                        .collect();
                    Err(format!(
                        "NOT equivalent: output {output:?} differs under {}",
                        assignment.join(" ")
                    ))
                }
                EquivOutcome::Unknown => {
                    Err("equivalence undetermined: solver hit the backtrack limit".into())
                }
            }
        }
        "optimize" => {
            let path = opts
                .positional
                .first()
                .ok_or("optimize requires an input file")?;
            let lib = load_library(&opts)?;
            require_inverter(&lib, &opts)?;
            let nl = load_netlist(path, lib)?;
            let faults = FaultPlan::from_env()
                .map_err(|e| format!("bad POWDER_FAULTS: {e}"))?
                .map(FaultPlan::into_state);
            if faults.is_some() {
                eprintln!("powder: deterministic fault injection active (POWDER_FAULTS)");
            }
            // Ctrl-C stops the run at the next committed boundary and
            // still writes the best-so-far netlist below.
            powder_serve::signal::install_stop_flag();
            let stop = Arc::new(AtomicBool::new(false));
            let _sig_guard = powder_serve::signal::forward_into(Arc::clone(&stop));
            let mut pipeline = opts
                .spec
                .pipeline(&nl, opts.spec.jobs, stop, faults)
                .map_err(flag_error)?;
            let mut sess =
                AnalysisSession::new(nl, SessionConfig::from_optimize(pipeline.config()));
            let report = pipeline.run(&mut sess);
            for pass in &report.passes {
                if let Some(opt) = &pass.optimize {
                    eprintln!("{opt}");
                }
            }
            eprintln!("{report}");
            if report.interrupted {
                eprintln!(
                    "powder: interrupted; writing the best netlist found so far \
                     (valid and function-preserving)"
                );
            }
            let nl = sess.into_netlist();
            nl.validate().map_err(|e| e.to_string())?;
            emit(&nl, opts.output.as_deref())
        }
        "serve" => {
            let lib = load_library(&opts)?;
            require_inverter(&lib, &opts)?;
            let state_dir = opts
                .state_dir
                .clone()
                .ok_or("serve requires --state-dir DIR")?;
            let faults = FaultPlan::from_env()
                .map_err(|e| format!("bad POWDER_FAULTS: {e}"))?
                .map(FaultPlan::into_state);
            if faults.is_some() {
                eprintln!("powder: deterministic fault injection active (POWDER_FAULTS)");
            }
            let mut cfg = powder_serve::ServeConfig::new(state_dir, lib);
            if let Some(listen) = &opts.listen {
                cfg.listen = listen.clone();
            }
            cfg.max_active = opts.max_active;
            cfg.threads = opts.threads;
            cfg.faults = faults;
            if let Some(n) = opts.max_queued {
                cfg.max_queued = n;
            }
            if let Some(n) = opts.max_request_bytes {
                cfg.max_request_bytes = n;
            }
            if let Some(secs) = opts.read_timeout_secs {
                cfg.read_timeout_secs = secs;
            }
            if let Some(secs) = opts.drain_deadline_secs {
                cfg.drain_deadline_secs = secs;
            }
            powder_serve::run(cfg)
        }
        "submit" => {
            cmd_submit(&opts)?;
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    if result.is_ok() {
        write_observability(&opts)?;
    }
    result.map_err(CliError::from)
}

/// `powder submit`: ship a netlist to the daemon, optionally wait for
/// the result. Returns [`CliError`] so daemon error codes become
/// distinct process exit codes; the client layer already retries
/// transient failures (overload shedding, drain, torn reads) with
/// deterministic backoff before anything surfaces here.
fn cmd_submit(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .positional
        .first()
        .ok_or("submit requires an input file")?;
    let netlist = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let addr = match &opts.addr {
        Some(a) => a.clone(),
        None => {
            let dir = opts
                .state_dir
                .as_deref()
                .ok_or("submit needs --addr HOST:PORT or --state-dir DIR")?;
            powder_serve::JobStore::open(dir)
                .map_err(|e| format!("state dir {dir}: {e}"))?
                .read_addr()
                .ok_or(format!("no addr file in {dir} (is the daemon running?)"))?
        }
    };
    let id = powder_serve::client::submit(&addr, &opts.spec, &netlist)?;
    eprintln!("submitted {id} to {addr}");
    if !opts.wait {
        println!("{id}");
        return Ok(());
    }
    let status = powder_serve::client::wait(&addr, &id, Duration::from_millis(200))?;
    match status.state.as_str() {
        "done" => {
            let (blif, report) = powder_serve::client::result(&addr, &id)?;
            eprintln!("{id}: done  {report}");
            match opts.output.as_deref() {
                Some(out) => std::fs::write(out, blif)
                    .map_err(|e| CliError::from(format!("cannot write {out}: {e}"))),
                None => {
                    print!("{blif}");
                    Ok(())
                }
            }
        }
        other => Err(CliError::from(match status.error {
            Some(e) => format!("{id} {other}: {e}"),
            None => format!("{id} ended {other}"),
        })),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("powder: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse_args(&args(&[
            "in.blif",
            "-o",
            "out.blif",
            "--delay-limit",
            "20",
            "--repeat",
            "5",
            "--patterns",
            "512",
            "--seed",
            "7",
            "--jobs",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["in.blif"]);
        assert_eq!(o.output.as_deref(), Some("out.blif"));
        assert_eq!(o.spec.delay_limit_percent, Some(20.0));
        assert_eq!(o.spec.repeat, 5);
        assert_eq!(o.spec.patterns, 512);
        assert_eq!(o.spec.seed, 7);
        assert_eq!(o.spec.jobs, 4);
    }

    #[test]
    fn parses_pass_pipeline_flags() {
        let o = parse_args(&args(&[
            "--passes",
            "sweep,powder,resize",
            "--fixpoint",
            "3",
        ]))
        .unwrap();
        assert_eq!(o.spec.passes, "sweep,powder,resize");
        assert_eq!(o.spec.fixpoint, 3);
        assert_eq!(parse_args(&[]).unwrap().spec.passes, "powder");
        assert!(parse_args(&args(&["--fixpoint", "x"])).is_err());
    }

    #[test]
    fn parses_window_flags() {
        let o = parse_args(&args(&["--window-size", "512", "--window-overlap", "64"])).unwrap();
        assert_eq!(o.spec.window_size, Some(512));
        assert_eq!(o.spec.window_overlap, Some(64));
        let o = parse_args(&[]).unwrap();
        assert!(o.spec.window_size.is_none() && o.spec.window_overlap.is_none());
    }

    #[test]
    fn rejects_bad_window_flags() {
        let err = parse_args(&args(&["--window-size", "0"])).err().unwrap();
        assert!(err.contains("--window-size"), "got: {err}");
        let err = parse_args(&args(&["--window-size", "64", "--window-overlap", "64"]))
            .err()
            .unwrap();
        assert!(err.contains("smaller than the window size"), "got: {err}");
        // Overlap without an explicit size is validated against the
        // automatic policy's window size.
        let err = parse_args(&args(&["--window-overlap", "4096"]))
            .err()
            .unwrap();
        assert!(err.contains("smaller than the window size"), "got: {err}");
        assert!(parse_args(&args(&["--window-overlap", "128"])).is_ok());
    }

    #[test]
    fn parses_observability_flags() {
        let o = parse_args(&args(&[
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.json"));
        let o = parse_args(&[]).unwrap();
        assert!(o.trace_out.is_none() && o.metrics_out.is_none());
        assert!(parse_args(&args(&["--trace-out"])).is_err());
    }

    #[test]
    fn unknown_pass_rejected_at_parse_time() {
        let err = parse_args(&args(&["--passes", "powder,frobnicate"]))
            .err()
            .unwrap();
        assert!(
            err.contains("frobnicate") && err.contains("egraph"),
            "error should name the bad pass and list the vocabulary: {err}"
        );
        assert!(parse_args(&args(&["--passes", "egraph,powder"])).is_ok());
    }

    #[test]
    fn parses_egraph_flags() {
        let o = parse_args(&args(&[
            "--egraph-node-limit",
            "256",
            "--egraph-iters",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.spec.egraph_node_limit, Some(256));
        assert_eq!(o.spec.egraph_iters, Some(4));
        // Absent flags keep the crate defaults.
        let o = parse_args(&[]).unwrap();
        assert!(o.spec.egraph_node_limit.is_none() && o.spec.egraph_iters.is_none());
    }

    #[test]
    fn rejects_zero_egraph_bounds() {
        let err = parse_args(&args(&["--egraph-node-limit", "0"]))
            .err()
            .unwrap();
        assert!(err.contains("--egraph-node-limit"), "got: {err}");
        let err = parse_args(&args(&["--egraph-iters", "0"])).err().unwrap();
        assert!(err.contains("--egraph-iters"), "got: {err}");
        assert!(parse_args(&args(&["--egraph-iters", "x"])).is_err());
    }

    #[test]
    fn jobs_defaults_to_auto() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.spec.jobs, 0, "0 means auto-resolve");
        assert!(parse_args(&args(&["--jobs", "x"])).is_err());
    }

    #[test]
    fn explicit_jobs_zero_is_rejected() {
        let Err(e) = parse_args(&args(&["--jobs", "0"])) else {
            panic!("--jobs 0 should be rejected");
        };
        assert!(e.contains("--jobs"), "{e}");
        assert!(parse_args(&args(&["--jobs", "-2"])).is_err());
    }

    #[test]
    fn deadline_secs_requires_positive_finite() {
        let o = parse_args(&args(&["--deadline-secs", "2.5"])).unwrap();
        assert_eq!(o.spec.deadline_secs, Some(2.5));
        let o = parse_args(&[]).unwrap();
        assert!(o.spec.deadline_secs.is_none());
        for bad in ["0", "-1", "inf", "nan", "soon", "1e300"] {
            assert!(
                parse_args(&args(&["--deadline-secs", bad])).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    /// Spans no deadline can hold are refused at parse time, naming the
    /// flag, instead of panicking when the run or the daemon converts
    /// them.
    #[test]
    fn second_spans_must_fit_a_deadline() {
        for flag in [
            "--deadline-secs",
            "--read-timeout-secs",
            "--drain-deadline-secs",
        ] {
            assert!(parse_args(&args(&[flag, "2.5"])).is_ok(), "{flag}");
            for bad in ["0", "-1", "inf", "1e300"] {
                let err = parse_args(&args(&[flag, bad])).err().unwrap();
                assert!(err.contains(flag), "{flag} {bad}: {err}");
            }
        }
    }

    #[test]
    fn missing_inverter_is_reported_with_path() {
        let lib = Library::new("noinv", Vec::new());
        let mut o = parse_args(&[]).unwrap();
        o.library = Some("x.genlib".into());
        let e = require_inverter(&lib, &o).err().unwrap();
        assert!(e.contains("x.genlib") && e.contains("no inverter"), "{e}");
        assert!(
            require_inverter(&lib2(), &o).is_ok(),
            "lib2 has an inverter"
        );
    }

    #[test]
    fn rejects_unknown_and_incomplete_options() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["-o"])).is_err());
        assert!(parse_args(&args(&["--delay-limit", "abc"])).is_err());
        // The removed pass aliases are unknown options; `--passes`
        // schedules those passes.
        for flag in ["--resize", "--redundancy"] {
            let err = parse_args(&args(&[flag])).err().unwrap();
            assert!(err.contains("unknown option"), "{flag}: {err}");
        }
    }

    #[test]
    fn default_library_loads() {
        let o = parse_args(&[]).unwrap();
        let lib = load_library(&o).unwrap();
        assert!(lib.len() > 10);
    }

    #[test]
    fn missing_library_file_is_error() {
        let o = parse_args(&args(&["--library", "/nonexistent.genlib"])).unwrap();
        assert!(load_library(&o).is_err());
    }
}
