//! The supervisor: runs a workload in a child process under a wall
//! deadline and an RSS cap, and the `--check` mode built on it.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::report::{proc_status_kb, Metric, Outcome};
use crate::workloads::{Kind, Signature, DEFECT_NAME, NAMES};

/// Watchdog limits for one workload process.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub wall_s: f64,
    pub rss_mb: f64,
}

/// Every workload run ends well within 180 s, and the largest peak
/// RSS measured is ~530 MB (`fc_eq8`: every rank initialises the full
/// model), so either limit is only reached by a defect.
pub const LIMITS: Limits = Limits {
    wall_s: 160.0,
    rss_mb: 2048.0,
};

/// How often the watchdog samples the child's wall time and RSS.
const POLL: Duration = Duration::from_millis(20);

/// What one supervised workload process produced.
pub struct Run {
    /// The JSON result line: the child's, or a failed one on a breach.
    pub json: String,
    /// Human-readable notes the child printed.
    pub report_lines: Vec<String>,
    pub jobs_ok: u64,
    pub jobs_failed: u64,
    /// The first job's virtual makespan and counts.
    pub signature: Option<Signature>,
    /// Why the watchdog ended the process, if it did.
    pub breach: Option<String>,
}

fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: Option<(&str, &str)>,
) -> std::io::Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.spawn()
}

/// Runs `workload` in a child process and watches it. A breach of
/// `limits` kills the child; the job it was running counts as failed.
pub fn supervise(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: Option<(&str, &str)>,
    limits: Limits,
) -> Run {
    let mut run = Run {
        json: String::new(),
        report_lines: Vec::new(),
        jobs_ok: 0,
        jobs_failed: 0,
        signature: None,
        breach: None,
    };
    let mut child = match spawn_child(workload, seed, seconds, trace, env) {
        Ok(c) => c,
        Err(e) => {
            run.breach = Some(format!("could not start the workload process: {e}"));
            run.json = failed_outcome(&run, trace).to_json();
            return run;
        }
    };
    let stdout = child.stdout.take().expect("child stdout is piped");
    let pid = child.id().to_string();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    let mut result = None;
    loop {
        match rx.recv_timeout(POLL) {
            Ok(line) => {
                if line.starts_with("job ok") {
                    run.jobs_ok += 1;
                } else if line.starts_with("job fail") {
                    run.jobs_failed += 1;
                } else if let Some(s) = line.strip_prefix("signature ") {
                    run.signature = Signature::parse(s);
                } else if let Some(s) = line.strip_prefix("note ") {
                    run.report_lines.push(s.to_string());
                } else if let Some(s) = line.strip_prefix("result ") {
                    result = Some(s.to_string());
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if run.breach.is_none() {
            let wall = start.elapsed().as_secs_f64();
            let rss_mb = proc_status_kb(&pid, "VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0);
            if wall > limits.wall_s {
                run.breach = Some(format!("wall deadline {} s passed", limits.wall_s));
            } else if rss_mb > limits.rss_mb {
                run.breach = Some(format!(
                    "RSS {rss_mb:.0} MB over the {} MB cap",
                    limits.rss_mb
                ));
            }
            if run.breach.is_some() {
                // Ignore the error: the child may have exited already.
                let _ = child.kill();
            }
        }
    }
    let status = child.wait();
    reader.join().expect("stdout reader thread panicked");
    match (result, &run.breach) {
        (Some(json), None) => run.json = json,
        _ => {
            if run.breach.is_none() {
                run.breach = Some(format!(
                    "workload process ended without a result ({status:?})"
                ));
            }
            run.json = failed_outcome(&run, trace).to_json();
        }
    }
    run
}

/// The result of a process that did not finish: its completed jobs,
/// plus the unfinished one counted as failed.
fn failed_outcome(run: &Run, trace: bool) -> Outcome {
    let units: &[(&str, &str)] = if trace {
        &crate::layers::METRIC_UNITS
    } else {
        &crate::report::E2E_UNITS
    };
    Outcome {
        correct: false,
        attempted: run.jobs_ok + run.jobs_failed + 1,
        failed: run.jobs_failed + 1,
        metrics: units.iter().map(|&(n, u)| Metric::new(n, u, 0.0)).collect(),
    }
}

/// Runs every workload once on `seed` and on a second seed, re-runs
/// the P ≤ 16 workloads on the threaded backend, and reproduces the
/// known adaptive-policy defect under the watchdog. Exits non-zero if a
/// workload fails or a virtual-time value or count differs between the
/// backends.
pub fn check_mode(seed: u64) -> ExitCode {
    let second = seed.wrapping_add(1);
    let mut ok = true;
    let mut verdict = |what: String, pass: bool| {
        println!("{} {what}", if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    };
    for name in NAMES {
        let kind = Kind::parse(name).expect("listed workload");
        let events = supervise(name, seed, 1.0, false, None, LIMITS);
        let clean = |r: &Run| r.breach.is_none() && r.jobs_failed == 0 && r.jobs_ok > 0;
        verdict(
            format!(
                "{name} seed {seed}: {} jobs ok, {} failed",
                events.jobs_ok, events.jobs_failed
            ),
            clean(&events),
        );
        let other = supervise(name, second, 1.0, false, None, LIMITS);
        verdict(
            format!(
                "{name} seed {second}: {} jobs ok, {} failed",
                other.jobs_ok, other.jobs_failed
            ),
            clean(&other),
        );
        if kind.ranks() <= 16 {
            let threads = supervise(
                name,
                seed,
                1.0,
                false,
                Some(("MPSIM_BACKEND", "threads")),
                LIMITS,
            );
            verdict(
                format!("{name}: virtual time and counts equal on the events and threads backends"),
                clean(&threads)
                    && events.signature.is_some()
                    && threads.signature == events.signature,
            );
        }
    }
    // FtTrainConfig::default()'s adaptive receive policy grows without
    // bound on this configuration; the watchdog must end it.
    let defect = supervise(
        DEFECT_NAME,
        seed,
        1.0,
        false,
        None,
        Limits {
            wall_s: 40.0,
            rss_mb: 1024.0,
        },
    );
    match &defect.breach {
        Some(why) => println!("KNOWN DEFECT reproduced, watchdog ended it: {why}"),
        None => println!("KNOWN DEFECT not reproduced: the adaptive-policy run finished"),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
