//! Metric names, the end-to-end metrics of a run, and the one-line JSON
//! result.

use crate::stats::{self, percentile};
use crate::workloads::RunRecord;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("wetlab_ms_per_block", "ms"),
    ("seq_reads_per_block", "count"),
    ("pcr_rounds_per_block", "count"),
    ("units_per_write", "count"),
    ("store_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of the traced run, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire_ms", "ms"),
    ("serve.update_job_ms", "ms"),
    ("service.window_wait_ms", "ms"),
    ("service.cache_hit_ratio", "ratio"),
    ("store.plan_ms", "ms"),
    ("store.read_batch_ms", "ms"),
    ("store.update_commit_ms", "ms"),
    ("persist.journal_ms", "ms"),
    ("persist.journal_bytes_per_update", "bytes"),
    ("compaction.maintenance_ms", "ms"),
    ("compaction.units_reclaimed_per_pass", "count"),
    ("index.prefix_cover_ms", "ms"),
    ("index.primers_per_range", "count"),
    ("sim.pcr_ms", "ms"),
    ("sim.species_skip_ratio", "ratio"),
    ("sim.anneal_calls_per_block", "count"),
    ("sim.binding_cache_hits_per_block", "count"),
    ("sim.sequence_ms", "ms"),
    ("pipeline.filter_ms", "ms"),
    ("pipeline.filter_match_ratio", "ratio"),
    ("pipeline.cluster_ms", "ms"),
    ("pipeline.clusters_per_block", "count"),
    ("pipeline.bma_ms", "ms"),
    ("pipeline.decode_rest_ms", "ms"),
    ("pipeline.fanout_efficiency", "ratio"),
    ("ecc.corrected_symbols_per_block", "count"),
    ("ecc.alternate_searches", "count"),
    ("trace.coverage", "ratio"),
];

/// Named metric values of one run.
pub type Metrics = Vec<(&'static str, f64)>;

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(record: &RunRecord) -> Metrics {
    let wetlab_blocks = record.stat("cache_misses").max(1) as f64;
    let ops = record.op_ms.len() as f64;
    vec![
        ("setup_s", stats::median(&record.setup_s)),
        ("ops_per_s", ops / record.elapsed_s),
        ("wetlab_ms_per_block", mean(&record.wetlab_ms_per_block)),
        (
            "seq_reads_per_block",
            record.stat("wetlab_reads_materialized") as f64 / wetlab_blocks,
        ),
        (
            "pcr_rounds_per_block",
            record.stat("rounds_executed") as f64 / wetlab_blocks,
        ),
        ("units_per_write", record.units_per_write),
        ("store_rss_mb", record.rss_mb),
    ]
}

/// The mean, or `NaN` (which fails the run) when the sample is too small
/// to carry a median either. A mean, not a median: `hot-zipf` misses fall
/// into modes by patch-chain length, and a median between two modes
/// jumped by a fifth with the share of each mode in a run.
fn mean(samples: &[f64]) -> f64 {
    if percentile(samples, 0.5).is_none() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Human-readable lines for standard error: every latency class with its
/// median and p90, each with its sample count, where the sample supports
/// them.
pub fn describe(record: &RunRecord) -> Vec<String> {
    let classes: [(&str, &[f64]); 6] = [
        ("op", &record.op_ms),
        ("wetlab per block", &record.wetlab_ms_per_block),
        ("cache hit", &record.hit_ms),
        ("update", &record.update_ms),
        ("maintenance", &record.maintenance_ms),
        ("setup", &record.setup_s),
    ];
    let mut lines = Vec::new();
    for (name, samples) in classes {
        if samples.is_empty() {
            continue;
        }
        let shown = |q: f64, label: &str| {
            percentile(samples, q).map_or(String::new(), |p| format!(" {label} {:.4}", p.value))
        };
        lines.push(format!(
            "{name}: n={} median {:.4}{}{}",
            samples.len(),
            stats::median(samples),
            shown(0.9, "p90"),
            shown(0.99, "p99"),
        ));
    }
    lines.push(format!(
        "attempted {} failed {} update retries {} elapsed {:.2} s",
        record.attempted, record.failed, record.update_retries, record.elapsed_s
    ));
    lines
}

/// The result line: `correct`, `attempted`, `failed` and every metric by
/// name with its unit. A metric that is not finite makes the run
/// incorrect (and prints as `null`).
pub fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalog: &[(&str, &str)],
) -> String {
    let mut fields = Vec::new();
    for &(name, unit) in catalog {
        let value = metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let text = match value {
            Some(v) if v.is_finite() => format!("{v}"),
            _ => {
                correct = false;
                "null".to_string()
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {text}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// `(name, value)` pairs of a result line's metrics.
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(start) = line.find("\"metrics\"") else {
        return out;
    };
    let mut rest = &line[start + 9..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name_start = rest[..open].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..open].to_string();
        let after = &rest[open + 13..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse() {
            out.push((name, v));
        }
        rest = &after[end..];
    }
    out
}

/// An integer field (`attempted`, `failed`) of a result line.
pub fn parse_count(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(section, name, unit)` of every metric line in `BENCHMARK.json`:
    /// the file holds one metric object per line.
    fn declared() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let field = |line: &str, key: &str| {
            let needle = format!("\"{key}\": \"");
            let rest = &line[line.find(&needle)? + needle.len()..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let mut section = String::new();
        let mut out = Vec::new();
        for line in text.lines() {
            for key in ["workloads", "end_to_end", "per_layer"] {
                if line.contains(&format!("\"{key}\":")) {
                    section = key.to_string();
                }
            }
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((section.clone(), name, unit));
            }
        }
        out
    }

    #[test]
    fn printed_metric_names_are_those_in_benchmark_json() {
        let declared = declared();
        let of = |section: &str| -> Vec<(String, String)> {
            declared
                .iter()
                .filter(|(s, _, _)| s == section)
                .map(|(_, n, u)| (n.clone(), u.clone()))
                .collect()
        };
        let own = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(of("end_to_end"), own(END_TO_END));
        assert_eq!(of("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn workload_names_are_those_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for w in crate::workloads::Workload::ALL {
            assert!(
                text.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())),
                "{} missing",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_round_trips_and_flags_missing_values() {
        let metrics: Metrics = vec![("setup_s", 0.8127), ("ops_per_s", 12.5)];
        let catalog = &END_TO_END[..2];
        let line = result_line(true, 1000, 3, &metrics, catalog);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 3,"));
        assert_eq!(
            parse_metrics(&line),
            vec![
                ("setup_s".to_string(), 0.8127),
                ("ops_per_s".to_string(), 12.5)
            ]
        );
        assert_eq!(parse_count(&line, "failed"), Some(3));
        let short = result_line(true, 1, 0, &metrics[..1].to_vec(), catalog);
        assert!(short.starts_with("{\"correct\": false"), "{short}");
        assert!(short.contains("\"ops_per_s\": {\"value\": null"));
    }
}
