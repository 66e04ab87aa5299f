//! Metrics, their JSON line, and the end-to-end metrics of a run.

use std::fmt::Write as _;

use crate::workloads::Signature;
use crate::TimedPhase;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The result: the last line of standard output.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a metric that could not be
        // measured reads 0.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push('}');
    s
}

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
/// `vt_step_us` is on the virtual clock (unit `vus`, deterministic);
/// every other time is host time.
pub const E2E_UNITS: [(&str, &str); 6] = [
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("steps_per_s", "1/s"),
    ("vt_step_us", "vus"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, samples beyond)`. With fewer than eleven
/// samples it is the maximum, with none beyond.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (f64::NAN, 100.0, 0);
    }
    let idx = if n >= 11 { n - 11 } else { n - 1 };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n - 1 - idx)
}

/// High-water resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("self", "VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// A `kB` field of `/proc/<pid>/status`.
pub fn proc_status_kb(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The end-to-end metrics of an untraced timed phase.
pub fn end_to_end(
    t: &TimedPhase,
    reference: &Signature,
    iters_per_job: usize,
    setup_s: f64,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let (tail_ms, pct, beyond) = tail(&t.job_ms);
    lines.push(format!(
        "job_ms_tail is p{pct:.1} of {} jobs ({beyond} beyond it)",
        t.job_ms.len()
    ));
    lines.push(format!(
        "fail_frac = {}/{} (failed/attempted)",
        t.failed, t.attempted
    ));
    vec![
        Metric::new("job_ms_p50", "ms", median(&t.job_ms)),
        Metric::new("job_ms_tail", "ms", tail_ms),
        Metric::new("steps_per_s", "1/s", t.iters as f64 / t.wall_s),
        Metric::new(
            "vt_step_us",
            "vus",
            reference.makespan() / iters_per_job as f64 * 1e6,
        ),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}
