//! The repository's benchmark: one command runs a named workload
//! through the public entry points of `integrated` and `mpsim`, checks
//! every job's output and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fc_eq8 --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --check --seed 1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `METRICS.md`). The last line of standard output
//! is one JSON object `{correct, attempted, failed, metrics}`.
//!
//! Each workload runs in a child process under a watchdog (a wall
//! deadline and an RSS cap); a breach kills the child and counts the
//! unfinished job as failed. `--check` runs every workload once on two
//! seeds, re-runs the P ≤ 16 workloads on the threaded mpsim backend
//! and asserts that virtual time and every count are identical, and
//! reproduces the known adaptive-policy defect under the watchdog.

mod layers;
mod report;
mod watchdog;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;
use workloads::{Kind, Prepared, Signature, NAMES};

/// Set-up is repeated at least this often per run, and until this much
/// set-up time has accumulated; the median is reported, so one slow
/// set-up does not move `setup_s`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--child" => args.child = true,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.check && args.workload.is_empty() {
        return Err(format!(
            "--workload is required, one of {}",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return watchdog::check_mode(args.seed);
    }
    if args.child {
        return child_main(&args);
    }
    if Kind::parse(&args.workload).is_none() {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    }
    let run = watchdog::supervise(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        None,
        watchdog::LIMITS,
    );
    for line in &run.report_lines {
        println!("{line}");
    }
    println!("{}", run.json);
    ExitCode::SUCCESS
}

/// The workload process: set-up, the timed closed loop, and (with
/// `--trace 1`) the traced per-layer pass. Speaks the line protocol
/// [`watchdog::supervise`] reads on standard output.
fn child_main(args: &Args) -> ExitCode {
    if args.workload == workloads::DEFECT_NAME {
        workloads::adaptive_defect_loop(args.seed);
        return ExitCode::SUCCESS;
    }
    let kind = Kind::parse(&args.workload).expect("supervisor validated the workload");
    match run_workload(kind, args) {
        Ok(outcome) => {
            println!("result {}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs one job, turning a panic into an error.
fn guarded_job(p: &Prepared) -> Result<workloads::JobOut, String> {
    match catch_unwind(AssertUnwindSafe(|| p.job())) {
        Ok(r) => r,
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .map_or("panic".to_string(), |s| format!("panic: {s}"))),
    }
}

/// Host time and outcome of every job in the timed phase.
pub struct TimedPhase {
    pub job_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub iters: usize,
    pub wall_s: f64,
}

/// Closed loop: the next job starts when the previous one returns,
/// until `seconds` have passed. Each job's signature must equal the
/// warm-up job's bit for bit.
fn timed_phase(p: &Prepared, reference: &Signature, seconds: f64) -> TimedPhase {
    let mut t = TimedPhase {
        job_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        iters: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        t.attempted += 1;
        let t0 = Instant::now();
        let out = guarded_job(p);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = out.and_then(|o| {
            let sig = Signature::of(&o.stats);
            if &sig != reference {
                Err(format!(
                    "signature {sig:?} differs from the first job's {reference:?}"
                ))
            } else {
                Ok(o.iters)
            }
        });
        match verdict {
            Ok(iters) => {
                t.iters += iters;
                t.job_ms.push(ms);
                println!("job ok {ms}");
            }
            Err(e) => {
                t.failed += 1;
                eprintln!("perfbench: job {} failed: {e}", t.attempted);
                println!("job fail {ms}");
            }
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

fn run_workload(kind: Kind, args: &Args) -> Result<Outcome, String> {
    // Set-up: inputs, planning, reference runs and one warm-up job,
    // several times; the last instance is kept.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut ready = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let t0 = Instant::now();
        let (p, warm) = Prepared::setup(kind, args.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some((p, warm));
    }
    let (p, warm) = ready.expect("at least one set-up ran");
    let reference = Signature::of(&warm.stats);
    println!("signature {}", reference.encode());

    let timed = timed_phase(&p, &reference, args.seconds);
    let mut lines = vec![format!("setup_s samples: {setup_s:?}")];
    let e2e = report::end_to_end(
        &timed,
        &reference,
        warm.iters,
        report::median(&setup_s),
        &mut lines,
    );
    let metrics = if args.trace {
        layers::traced_pass(
            &p,
            &timed,
            &reference,
            warm.iters,
            args.seed,
            args.seconds,
            &mut lines,
        )?
    } else {
        e2e
    };
    for l in &lines {
        println!("note {l}");
    }
    Ok(Outcome {
        correct: timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
    })
}
