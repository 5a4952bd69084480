//! `vxbench` — the repository's one benchmark: seven workloads, the
//! end-to-end metrics a user of the simulator waits on, and a per-layer
//! table from a separate traced pass. `README.md` beside this package
//! says what every name means; `BENCHMARK.json` at the repository root is
//! the contract a driver runs it under.
//!
//! ```text
//! vxbench --workload NAME --seed N --seconds S --trace 0|1   one run (driver contract)
//! vxbench all [--seed N] [--seconds S] [--json OUT] [--trace DIR]
//! vxbench aa  [--seed N] [--seeds K] [--seconds S] [--json OUT]
//! vxbench manifest                                           prints BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod drive;
mod layers;
mod measure;
mod metrics;
mod runner;
mod sample;
mod spans;
mod suite;
mod surface;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Environment switches of the product that would change what is
/// measured; the runner clears them and says what they were.
const PRODUCT_ENV: [&str; 2] = ["VORTEX_BLOCK_FUSION", "VORTEX_CAMPAIGN_CACHE"];

/// `--name value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// The package's own output directory (`benchmark/out`, ignored by git):
/// everything a run writes stays inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One run under the driver contract. A run that measured but found
/// wrong outputs still prints its result line (`"correct": false`) and
/// exits 0: the line is the report.
fn one_run(flags: &Flags) -> Result<(), String> {
    flags.only(&["workload", "seed", "seconds", "trace", "spans"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let kind = workloads::Kind::parse(name).ok_or_else(|| {
        let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let seed = flags.number("seed", suite::DEFAULT_SEED)?;
    let args = runner::RunArgs {
        kind,
        seed,
        seconds: flags.number("seconds", metrics::RUN_SECONDS as f64)?,
        trace,
        spans_path: flags
            .get("spans")
            .map_or_else(|| out_dir().join(format!("spans/{name}.json")), PathBuf::from),
        scratch: out_dir().join(format!("scratch-{name}-{}", std::process::id())),
    };
    let result = runner::run(&args)?;
    runner::print_table(&result);
    println!(
        "detail {{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"sim_fingerprint\": \"{:#018x}\", \"metrics\": {}}}",
        u8::from(trace),
        result.sim_fingerprint,
        measure::detail_json(&result.metrics)
    );
    println!(
        "{}",
        measure::result_line(result.correct, result.attempted, result.failed, &result.metrics)
    );
    Ok(())
}

/// Runs the command line; `Ok(false)` is a suite that ran and found a
/// workload incorrect or a bound breached.
fn dispatch(args: &[String], cleared_env: Vec<(String, String)>) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", args),
    };
    let flags = Flags::parse(rest)?;
    let suite_args = |flags: &Flags| -> Result<suite::SuiteArgs, String> {
        Ok(suite::SuiteArgs {
            seed: flags.number("seed", suite::DEFAULT_SEED)?,
            seeds: flags.number("seeds", 1usize)?.max(1),
            seconds: flags.number("seconds", metrics::RUN_SECONDS)?,
            json: flags.get("json").map(PathBuf::from),
            trace_dir: flags.get("trace").map(PathBuf::from),
            cleared_env,
        })
    };
    match command {
        "run" => one_run(&flags).map(|()| true),
        "all" => {
            flags.only(&["seed", "seconds", "json", "trace"])?;
            suite::all(&suite_args(&flags)?)
        }
        "aa" => {
            flags.only(&["seed", "seeds", "seconds", "json"])?;
            suite::aa(&suite_args(&flags)?)
        }
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        other => Err(format!("unknown command `{other}` (run, all, aa, manifest)")),
    }
}

fn main() -> ExitCode {
    let mut cleared_env = Vec::new();
    for name in PRODUCT_ENV {
        if let Ok(value) = std::env::var(name) {
            eprintln!("vxbench: {name}={value} cleared; runs use the product's defaults");
            std::env::remove_var(name);
            cleared_env.push((name.to_owned(), value));
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, cleared_env) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("vxbench: {e}");
            ExitCode::from(2)
        }
    }
}
