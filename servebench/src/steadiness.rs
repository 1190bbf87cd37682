//! The steadiness report: one workload run several times with different
//! seeds, each end-to-end metric summarised by its median, quartiles and
//! spread against the bound `BENCHMARK.json` gives it.

use crate::report::{self, END_TO_END};
use crate::stats;
use crate::workloads::Workload;
use std::process::{Command, Stdio};

/// Runs `workload` `runs` times (seeds `first_seed..`), each in a child
/// process exactly as a single run is made, and prints one row per
/// end-to-end metric. Returns whether every run was correct, failed the
/// same share of its operations, and kept every spread (but that of
/// `setup_s`) within its bound.
pub fn report(
    workload: Workload,
    runs: usize,
    seconds: u64,
    first_seed: u64,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let bounds = bounds()?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut steady = true;
    let mut shares = Vec::new();
    for seed in (first_seed..).take(runs) {
        let out = Command::new(&exe)
            .args(["--workload", workload.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning a run: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        println!("seed {seed}: {line}");
        if !out.status.success() || !line.starts_with("{\"correct\": true") {
            steady = false;
        }
        let attempted = report::parse_count(line, "attempted").unwrap_or(0);
        let failed = report::parse_count(line, "failed").unwrap_or(0);
        shares.push((failed, attempted));
        let metrics = report::parse_metrics(line);
        for (slot, &(name, _)) in values.iter_mut().zip(END_TO_END) {
            if let Some((_, v)) = metrics.iter().find(|(n, _)| n == name) {
                slot.push(*v);
            }
        }
    }
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (&(name, unit), samples) in END_TO_END.iter().zip(&values) {
        let median = stats::median(samples);
        let (q1, q3) = stats::quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
        let spread = stats::spread(samples).unwrap_or(f64::NAN);
        let bound = bounds
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, b)| b);
        // A spread within a third of the bound leaves room for the
        // machine to be noisier on another day.
        let verdict = if name == "setup_s" {
            "(median only)"
        } else if spread <= bound / 3.0 {
            "ok"
        } else if spread <= bound {
            "WIDE"
        } else {
            steady = false;
            "OVER"
        };
        println!(
            "{:<22} {q1:>12.4} {median:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6} {unit} {verdict} n={}",
            name,
            samples.len()
        );
    }
    // Failed operations must be the same share of attempted ones in every
    // run: compare the cross-multiplied counts exactly.
    let same_share = shares
        .windows(2)
        .all(|w| w[0].0 * w[1].1 == w[1].0 * w[0].1);
    println!("failed/attempted per run: {shares:?} same share: {same_share}");
    Ok(steady && same_share)
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json` (read
/// from the working directory, the repository root).
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let name_at = line.find("\"name\": \"")? + 9;
            let name = &line[name_at..name_at + line[name_at..].find('"')?];
            let bound_at = line.find("\"bound\": ")? + 9;
            let digits: String = line[bound_at..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            Some((name.to_string(), digits.parse().ok()?))
        })
        .collect())
}
