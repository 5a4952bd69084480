//! `vxbench all` and `vxbench aa`: every workload in its own child
//! process, one after the other (the reference box has 2 vCPUs; nothing
//! runs beside a measurement), and the A/A comparison of two such suites
//! against the bounds of `BENCHMARK.json`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::measure::{parse_result_line, quantile, ParsedResult};
use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};

/// The seed runs use unless told otherwise. A claim made on it must also
/// hold on a seed not used while the change was written.
pub const DEFAULT_SEED: u64 = 11;

/// Flags of the suite commands.
pub struct SuiteArgs {
    /// First seed.
    pub seed: u64,
    /// Consecutive seeds each A/A side runs per workload (`aa` only).
    pub seeds: usize,
    /// Seconds each run measures for.
    pub seconds: u64,
    /// Where to write the machine-readable result.
    pub json: Option<PathBuf>,
    /// Run the traced pass too and put the span files here (`all` only).
    pub trace_dir: Option<PathBuf>,
    /// Product environment switches the process was started under
    /// (cleared before anything ran).
    pub cleared_env: Vec<(String, String)>,
}

/// What one child run printed.
struct Child {
    result: ParsedResult,
    /// The child's `detail {...}` object, verbatim.
    detail: String,
    /// The `sim_fingerprint` the detail line carries.
    fingerprint: String,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(d) => detail = Some(d.to_owned()),
            None => {
                if !line.starts_with('{') {
                    println!("{line}");
                }
                last = line;
            }
        }
    }
    if !output.status.success() {
        return Err(format!("{workload} (seed {seed}) exited with {}", output.status));
    }
    let result = parse_result_line(last)
        .ok_or_else(|| format!("{workload} (seed {seed}) printed no result line"))?;
    let detail = detail.unwrap_or_else(|| "{}".to_owned());
    let fingerprint = detail
        .split_once("\"sim_fingerprint\": \"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or(String::new(), |(fp, _)| fp.to_owned());
    Ok(Child { result, detail, fingerprint })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's spread rule), or `None` under two values.
fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The share of `a` by which `b` is worse, in the metric's direction.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn host_json(cleared_env: &[(String, String)]) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut env = String::new();
    for (i, name) in crate::PRODUCT_ENV.iter().enumerate() {
        let was = cleared_env.iter().find(|(n, _)| n == name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = match was {
            Some((_, v)) => write!(env, "{sep}\"{name}\": \"unset (cleared; was {v})\""),
            None => write!(env, "{sep}\"{name}\": \"unset\""),
        };
    }
    format!("{{\"nproc\": {nproc}, \"cpu_model\": \"{model}\", \"jobs\": 1, \"env\": {{{env}}}}}")
}

const MODEL_NOTE: &str = "unvalidated: the repository holds no hardware reference, so simulated statistics are model outputs and no accuracy figure is given";

fn write_json(path: Option<&PathBuf>, json: &str) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `vxbench all`: every workload once (and its traced pass with
/// `--trace DIR`), every metric printed by name with its unit.
///
/// # Errors
///
/// A child that crashed or printed no result.
pub fn all(args: &SuiteArgs) -> Result<bool, String> {
    let mut ok = true;
    let mut json = format!(
        "{{\"schema\": \"vxbench-all/1\", \"seed\": {}, \"seconds\": {}, \"host\": {}, \"model\": \"{MODEL_NOTE}\", \"workloads\": [",
        args.seed,
        args.seconds,
        host_json(&args.cleared_env)
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let run = run_child(w.name, args.seed, args.seconds, false, None)?;
        ok &= run.result.correct;
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n {{\"end_to_end\": {}", run.detail);
        if let Some(dir) = &args.trace_dir {
            let spans = dir.join(format!("{}.spans.json", w.name));
            let traced = run_child(w.name, args.seed, args.seconds, true, Some(&spans))?;
            ok &= traced.result.correct;
            let _ = write!(json, ", \"per_layer\": {}", traced.detail);
        }
        json.push('}');
    }
    json.push_str("\n]}\n");
    write_json(args.json.as_ref(), &json)?;
    println!("{}", if ok { "all workloads correct" } else { "SOME WORKLOAD WAS NOT CORRECT" });
    Ok(ok)
}

/// `vxbench aa`: the suite twice back to back on this binary, the
/// driver's acceptance rule applied to the pair — per workload and
/// end-to-end metric, side B's median (over `--seeds` seeds) may not be
/// worse than side A's by more than the bound, and with four or more
/// seeds neither side's quartile spread may exceed it; exact statistics
/// must be identical. One traced pass per workload supplies the layer
/// table.
///
/// # Errors
///
/// A child that crashed or printed no result.
pub fn aa(args: &SuiteArgs) -> Result<bool, String> {
    let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| args.seed + i).collect();
    let mut sides: Vec<Vec<Vec<Child>>> = Vec::new();
    for side in ["A", "B"] {
        let mut per_workload = Vec::new();
        for w in &WORKLOADS {
            let mut runs = Vec::new();
            for &seed in &seeds {
                println!("-- side {side}");
                runs.push(run_child(w.name, seed, args.seconds, false, None)?);
            }
            per_workload.push(runs);
        }
        sides.push(per_workload);
    }

    let mut breaches: Vec<String> = Vec::new();
    let mut json = format!(
        "{{\"schema\": \"vxbench-aa/1\", \"seeds\": {seeds:?}, \"seconds\": {}, \"host\": {}, \"model\": \"{MODEL_NOTE}\", \"rule\": \"b_worse_by <= bound; with >= 4 seeds also spread_a, spread_b <= bound (spread = (q3 - q1) / median over seeds, quartiles as Python statistics.quantiles n=4); sim_fingerprint and failures identical\", \"workloads\": [",
        args.seconds,
        host_json(&args.cleared_env)
    );
    let mut table = format!(
        "\nA/A: side B against side A, {} seed(s) per side\n{:<16} {:<20} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}\n",
        seeds.len(),
        "workload",
        "metric",
        "median A",
        "median B",
        "B worse",
        "spread A",
        "spread B",
        "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let (a_runs, b_runs) = (&sides[0][wi], &sides[1][wi]);
        let sep = if wi == 0 { "" } else { "," };
        let _ = write!(json, "{sep}\n {{\"name\": \"{}\", \"end_to_end\": {{", w.name);
        for (mi, def) in END_TO_END.iter().enumerate() {
            let values = |runs: &[Child]| -> Vec<f64> {
                runs.iter()
                    .map(|r| {
                        r.result.values.iter().find(|(n, _)| n == def.name).map_or(0.0, |v| v.1)
                    })
                    .collect()
            };
            let (a, b) = (values(a_runs), values(b_runs));
            let (ma, mb) = (quantile(&a, 0.5), quantile(&b, 0.5));
            let worse = worse_by(def, ma, mb);
            let spread = |v: &[f64], m: f64| {
                quartiles_exclusive(v).filter(|_| v.len() >= 4).map(|(q1, q3)| (q3 - q1) / m)
            };
            let (sa, sb) = (spread(&a, ma), spread(&b, mb));
            // The driver leaves the spread of `setup_s` out of its rule.
            let spread_bound = def.name != "setup_s";
            let ok = worse <= def.bound
                && (!spread_bound || [sa, sb].iter().all(|s| s.is_none_or(|s| s <= def.bound)));
            if !ok {
                breaches.push(format!("{} {}", w.name, def.name));
            }
            let show = |s: Option<f64>| s.map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
            let _ = writeln!(
                table,
                "{:<16} {:<20} {:>14.6} {:>14.6} {:>8.2}% {:>9} {:>9} {:>5.0}%{}",
                w.name,
                def.name,
                ma,
                mb,
                worse * 100.0,
                show(sa),
                show(sb),
                def.bound * 100.0,
                if ok { "" } else { "  BREACH" }
            );
            let num = |s: Option<f64>| s.map_or("null".to_owned(), |s| s.to_string());
            let sep = if mi == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"unit\": \"{}\", \"bound\": {}, \"a\": {a:?}, \"b\": {b:?}, \"median_a\": {ma}, \"median_b\": {mb}, \"b_worse_by\": {worse}, \"spread_a\": {}, \"spread_b\": {}, \"ok\": {ok}}}",
                def.name,
                def.unit,
                def.bound,
                num(sa),
                num(sb)
            );
        }
        json.push_str("}, \"runs_a\": [");
        for (side, runs) in [a_runs, b_runs].into_iter().enumerate() {
            if side == 1 {
                json.push_str("], \"runs_b\": [");
            }
            for (i, run) in runs.iter().enumerate() {
                let _ = write!(json, "{}{}", if i == 0 { "" } else { ", " }, run.detail);
            }
        }
        json.push(']');
        for (ra, rb) in a_runs.iter().zip(b_runs) {
            if ra.fingerprint != rb.fingerprint {
                breaches.push(format!("{} sim_fingerprint differs between sides", w.name));
            }
            for r in [ra, rb] {
                if !r.result.correct || r.result.failed != 0 {
                    breaches.push(format!("{} reported failures", w.name));
                }
            }
        }
        let traced = run_child(w.name, args.seed, args.seconds, true, None)?;
        if !traced.result.correct {
            breaches.push(format!("{} traced pass not correct", w.name));
        }
        let _ = write!(json, ", \"per_layer\": {}}}", traced.detail);
    }
    breaches.dedup();
    let list: Vec<String> = breaches.iter().map(|b| format!("\"{b}\"")).collect();
    let _ = write!(json, "\n], \"breaches\": [{}]}}\n", list.join(", "));
    print!("{table}");
    write_json(args.json.as_ref(), &json)?;
    if breaches.is_empty() {
        println!("A/A holds: every end-to-end metric of every workload within its bound");
    } else {
        println!("A/A BREACHED: {}", breaches.join("; "));
    }
    Ok(breaches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::quartiles_exclusive;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles_exclusive(&[8.0, 1.0, 4.0, 2.0]), Some((1.25, 7.0)));
        assert_eq!(quartiles_exclusive(&[1.0]), None);
    }
}
