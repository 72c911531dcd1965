//! `ledger` — the one end-to-end + per-layer benchmark of `omc`.
//!
//! End-to-end numbers come from driving the real `omc` binary (bytes in,
//! stdout / manifest / transcript out) with tracing off. Per-layer
//! numbers come from a separate traced run that replays each workload's
//! pipeline in-process with a span around every call into a layer's
//! public function. README.md (beside this file) says why each workload
//! exists and which layer metric should move which end-to-end metric.
//!
//! ```text
//! ledger --omc target/release/omc [--workload NAME] [--seed N]
//!        [--seconds S] [--trace 0|1] [--check-counts] [--record FILE]
//! ledger --compare BASE.jsonl NEW.jsonl
//! ```

mod harness;
mod layers;
mod metrics;
mod report;
mod stats;
mod sys;
mod trace;
mod traced;
mod workloads;

use report::RunResult;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    omc: PathBuf,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_counts: bool,
    record: Option<PathBuf>,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: ledger --omc PATH [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--check-counts] [--record FILE]\n       ledger --compare BASE.jsonl NEW.jsonl";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        omc: PathBuf::from("target/release/omc"),
        workloads: Workload::ALL.to_vec(),
        seed: workloads::DEFAULT_SEED,
        seconds: 20.0,
        traced: false,
        check_counts: false,
        record: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--omc" => parsed.omc = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of: {})", known.join(", "))
                })?;
                parsed.workloads = vec![workload];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--check-counts" => parsed.check_counts = true,
            "--record" => parsed.record = Some(PathBuf::from(value()?)),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    // Counts only exist in the traced pass.
    parsed.traced |= parsed.check_counts;
    Ok(parsed)
}

/// Build products and scratch files live under the cargo target
/// directory, inside the checkout.
fn scratch_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ledger")
}

fn run_one(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let root = scratch_root();
    // Relative and short: a Unix socket path has ~100 bytes.
    let dir = root.join(format!("tmp/{}-{}", workload.name(), std::process::id()));
    let measured = if args.traced {
        let trace_file = root.join(format!("{}.trace.json", workload.name()));
        let measured = traced::run(
            workload,
            &args.omc,
            args.seed,
            args.seconds,
            &dir,
            &trace_file,
        )?;
        eprintln!("[chrome trace: {}]", trace_file.display());
        measured
    } else {
        harness::run(workload, &args.omc, args.seed, args.seconds, &dir)?
    };
    Ok(RunResult {
        workload,
        seed: args.seed,
        traced: args.traced,
        measured,
    })
}

/// `--check-counts`: a second traced pass must make exactly the counts
/// the first did.
fn counts_differ(first: &RunResult, second: &RunResult) -> Vec<String> {
    first
        .rows()
        .zip(second.rows())
        .filter(|((m, a), (_, b))| m.exact && a.to_bits() != b.to_bits())
        .map(|((m, a), (_, b))| format!("{}: {a} then {b}", m.name))
        .collect()
}

fn append_record(path: &Path, result: &RunResult) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| writeln!(file, "{}", result.record_json()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Several workloads: each in a ledger process of its own, given the
/// same flags and the same stdout, stderr and `--record` file. What one
/// workload leaves in the harness's heap (and so in the resident set its
/// children start from, see `sys::ChildUsage`) never reaches the next.
fn run_each_in_its_own_process(raw: &[String], workloads: &[Workload]) -> Result<bool, String> {
    let ledger = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_good = true;
    for workload in workloads {
        let status = std::process::Command::new(&ledger)
            .args(raw)
            .args(["--workload", workload.name()])
            .status()
            .map_err(|e| format!("cannot spawn {}: {e}", ledger.display()))?;
        all_good &= status.success();
    }
    Ok(all_good)
}

fn run(raw: &[String], args: &Args) -> Result<bool, String> {
    if let Some((base, new)) = &args.compare {
        let benchmark = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let (table, any_worse) = report::compare(&benchmark, base, new)?;
        print!("{table}");
        return Ok(!any_worse);
    }
    if !args.omc.exists() {
        return Err(format!(
            "{} not found — build it with `cargo build --release --bin omc`, or pass --omc",
            args.omc.display()
        ));
    }
    let &[workload] = args.workloads.as_slice() else {
        return run_each_in_its_own_process(raw, &args.workloads);
    };
    let result = run_one(workload, args)?;
    eprint!("{}", result.table());
    let mut all_good = result.measured.failed == 0;
    if args.check_counts {
        let again = run_one(workload, args)?;
        let differing = counts_differ(&result, &again);
        for line in &differing {
            eprintln!("   count differs between two traced passes — {line}");
        }
        if differing.is_empty() {
            eprintln!("   counts identical across two traced passes");
        }
        all_good &= differing.is_empty() && again.measured.failed == 0;
    }
    if let Some(path) = &args.record {
        append_record(path, &result)?;
    }
    println!("{}", result.result_json());
    Ok(all_good)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| run(&raw, &args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse("--omc x/omc --workload serve_warm --seed 42 --seconds 10 --trace 1")
            .expect("parses");
        assert_eq!(args.omc, PathBuf::from("x/omc"));
        assert_eq!(args.workloads, vec![Workload::ServeWarm]);
        assert_eq!((args.seed, args.seconds, args.traced), (42, 10.0, true));
        let all = parse("").expect("defaults");
        assert_eq!(all.workloads.len(), 6);
        assert_eq!(all.seed, workloads::DEFAULT_SEED);
        assert!(!all.traced);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--compare a.jsonl").is_err());
        assert!(parse("--compare a b").expect("two files").compare.is_some());
    }

    #[test]
    fn differing_counts_are_named() {
        let run = |steps: f64, solve_ms: f64| RunResult {
            workload: Workload::ServeWarm,
            seed: 1,
            traced: true,
            measured: report::Measured {
                values: BTreeMap::from([("solver.steps", steps), ("solver.solve_ms", solve_ms)]),
                ..report::Measured::default()
            },
        };
        // Times may differ; counts may not.
        assert!(counts_differ(&run(118.0, 3.0), &run(118.0, 4.0)).is_empty());
        assert_eq!(
            counts_differ(&run(118.0, 3.0), &run(119.0, 3.0)),
            vec!["solver.steps: 118 then 119"]
        );
    }
}
