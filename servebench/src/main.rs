//! `servebench` — end-to-end and per-layer benchmark of the shipped
//! `served` binary.
//!
//! ```text
//! servebench --workload <cold-read|hot-zipf|range-scan> --seed N --seconds S --trace 0|1
//! servebench --steadiness <workload> [--runs K] [--seconds S] [--first-seed N]
//! servebench --fault-rates K
//! ```
//!
//! Run it from the root of the repository (see `README.md` in this
//! directory). The last line of standard output of a workload run is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics, the
//! end-to-end ones with `--trace 0` and the per-layer ones with
//! `--trace 1`.

mod corpus;
mod faults;
mod report;
mod served;
mod stats;
mod steadiness;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Where runs keep their stores, relative to the repository root.
const WORK_DIR: &str = ".servebench_work";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steadiness: Option<Workload>,
    runs: usize,
    first_seed: u64,
    fault_rates: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        // `run_seconds` in BENCHMARK.json.
        seconds: 30,
        trace: false,
        steadiness: None,
        runs: 10,
        first_seed: 1,
        fault_rates: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let workload =
            |name: String| Workload::parse(&name).ok_or(format!("unknown workload {name}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value()?)?),
            "--seed" => args.seed = number(&value()?)?,
            "--seconds" => args.seconds = number(&value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steadiness" => args.steadiness = Some(workload(value()?)?),
            "--runs" => args.runs = number(&value()?)?,
            "--first-seed" => args.first_seed = number(&value()?)?,
            "--fault-rates" => args.fault_rates = Some(number(&value()?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if let Some(trials) = args.fault_rates {
            faults::rates(trials).map(|()| true)
        } else if let Some(w) = args.steadiness {
            steadiness::report(w, args.runs, args.seconds, args.first_seed)
        } else if let Some(w) = args.workload {
            run_workload(w, args.seed, args.seconds, args.trace)
        } else {
            Err("nothing to do: pass --workload, --steadiness or --fault-rates".to_string())
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("servebench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One run of a workload; prints the result line and returns whether the
/// outputs were correct.
fn run_workload(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let exe = match workload {
        Workload::RangeScan => None,
        Workload::ColdRead | Workload::HotZipf => Some(served::build()?),
    };
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let outcome = workloads::run(workload, seed, seconds, exe.as_deref(), &work);
    let outcome = outcome.and_then(|(mut record, recovered)| {
        let metrics = if trace {
            trace::replay(workload, seed, &mut record, recovered)?
        } else {
            report::end_to_end(&record)
        };
        Ok((record, metrics))
    });
    // Every store is closed by now; the directory can go.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let (record, metrics) = outcome?;
    for line in report::describe(&record) {
        eprintln!("{}: {line}", workload.name());
    }
    for problem in &record.problems {
        eprintln!("{}: INCORRECT: {problem}", workload.name());
    }
    let catalog = if trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let line = report::result_line(
        record.problems.is_empty(),
        record.attempted,
        record.failed,
        &metrics,
        catalog,
    );
    println!("{line}");
    Ok(line.starts_with("{\"correct\": true"))
}
