//! Order statistics, process memory and the two line formats the runner
//! prints (one for people, one for the driver).

use std::fmt::Write as _;

/// Median, quartiles and sample count of one metric's per-rep samples.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median (the reported value).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (at least one).
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            median: quantile(samples, 0.5),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
        }
    }

    /// A summary of one exact value.
    pub fn exact(value: f64) -> Self {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }
}

/// The `p`-quantile of `samples` by linear interpolation between order
/// statistics.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Geometric mean from a sum of natural logs.
pub fn geomean(ln_sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        (ln_sum / n as f64).exp()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Reported {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Which clock the metric reads.
    pub kind: crate::metrics::Kind,
    /// Value with spread.
    pub summary: Summary,
}

/// JSON has no NaN/inf; a layer that did not run reports 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Reported]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            finite(m.summary.median),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The same metrics with quartiles, sample counts and host/sim labels,
/// as one JSON object (embedded verbatim by `vxbench all`/`aa`).
pub fn detail_json(metrics: &[Reported]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \"kind\": \"{}\"}}",
            m.name,
            finite(m.summary.median),
            finite(m.summary.q1),
            finite(m.summary.q3),
            m.summary.n,
            m.unit,
            m.kind.label()
        );
    }
    s.push('}');
    s
}

/// Reads back `name → value` pairs from a [`result_line`]. Only that
/// exact shape is understood; anything else yields `None`.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut values = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name_start = rest[..open].rfind('"')? + 1;
        let name = rest[name_start..open].to_owned();
        let after = &rest[open + 13..];
        let value: f64 = after[..after.find(',')?].parse().ok()?;
        values.push((name, value));
        rest = &after[after.find('}')? + 1..];
    }
    Some(ParsedResult { correct, attempted, failed, values })
}

/// What [`parse_result_line`] recovers.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedResult {
    /// The run's `correct` flag.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(metric name, value)` in print order.
    pub values: Vec<(String, f64)>,
}
