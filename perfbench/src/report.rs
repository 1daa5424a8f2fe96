//! The metric vocabulary and the report every run prints: one line per
//! metric with its unit and sample count, the build and host facts, and
//! the closing JSON line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("plan_ms_p50", "ms"),
    ("plan_ms_p95", "ms"),
    ("plans_per_s", "1/s"),
    ("rtt_ms_p50", "ms"),
    ("cpu_ms_per_plan", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_time_s_gm", "s"),
    ("sim_money_tbs_gm", "TB.s"),
    ("ok_frac", "frac"),
    ("undegraded_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.overhead_ms_p50", "ms"),
    ("net.overhead_ms_p99", "ms"),
    ("net.client_codec_us_p50", "us"),
    ("net.reply_bytes_mean", "bytes"),
    ("net.error_frames", "count"),
    ("net.gen_late_ms_p99", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.plan_ms_p50", "ms"),
    ("service.plan_ms_p99", "ms"),
    ("service.shed", "count"),
    ("service.deadline_expired", "count"),
    ("optimizer.degraded.memo_cut", "count"),
    ("optimizer.degraded.idp_bridge", "count"),
    ("optimizer.degraded.randomized", "count"),
    ("optimizer.degraded.rule_based", "count"),
    ("coster.calls_per_plan", "count"),
    ("coster.ms_per_plan", "ms"),
    ("coster.batch_width_mean", "count"),
    ("coster.cache_hit_ratio", "ratio"),
    ("coster.memo_hits_per_plan", "count"),
    ("planner.ms_per_plan", "ms"),
    ("planner.self_ms_per_plan", "ms"),
    ("resource.iterations_per_plan", "count"),
    ("resource.self_ms_per_plan", "ms"),
    ("resource.cache_hit_rate", "ratio"),
    ("resource.cache_insertions", "count"),
    ("resource.cache_entries", "count"),
    ("resource.checkpoints", "count"),
    ("resource.checkpoint_ms", "ms"),
    ("resource.checkpoint_bytes", "bytes"),
    ("resource.load_ms", "ms"),
    ("cost.kernel_ms_per_plan", "ms"),
    ("cost.configs_per_plan", "count"),
    ("cost.ns_per_config", "ns"),
    ("cost.batch_calls_per_plan", "count"),
    ("cost.scalar_calls_per_plan", "count"),
    ("cost.qerror_p50", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Metric values gathered by one run, plus free-form notes (sample counts)
/// printed beside them.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.note(name, value, String::new());
    }

    /// Set a metric with a note, e.g. the samples behind a percentile.
    pub fn note(&mut self, name: &'static str, value: f64, note: String) {
        let prior = self.values.insert(name, (value, note));
        assert!(prior.is_none(), "metric {name} set twice");
    }

    /// Set a windowed percentile metric, noting its window count and the
    /// fewest samples any window had beyond its percentile.
    pub fn windowed(&mut self, name: &'static str, w: crate::stats::Windowed) {
        self.note(
            name,
            w.value,
            format!("windows={} min_beyond={}", w.windows, w.min_beyond),
        );
    }

    /// Set a percentile metric, noting its sample count and how many
    /// samples lie beyond it.
    pub fn pct(&mut self, name: &'static str, p: crate::stats::Pct) {
        self.note(
            name,
            p.value,
            format!("n={} beyond={}", p.samples, p.beyond),
        );
    }
}

/// The run's verdict and counts.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs are wrong (failed plans, parity breaks).
    pub problems: Vec<String>,
}

/// Print every metric of `spec` (each must have been set, and nothing
/// else), the facts line, and the closing JSON line.
pub fn print(spec: &[(&str, &str)], metrics: &Metrics, mut outcome: Outcome, facts: &str) {
    let extra: Vec<_> = metrics
        .values
        .keys()
        .filter(|k| !spec.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(
        extra.is_empty(),
        "metrics outside the reported set: {extra:?}"
    );
    for (name, (value, _)) in &metrics.values {
        if !value.is_finite() {
            outcome
                .problems
                .push(format!("metric {name} is not a finite number"));
        }
    }
    println!("facts {facts}");
    for problem in outcome.problems.iter().take(40) {
        println!("problem {problem}");
    }
    if outcome.problems.len() > 40 {
        println!("problem ... and {} more", outcome.problems.len() - 40);
    }
    let mut json = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let (value, note) = metrics
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("metric {name:<30} {value:>16.6} {unit:<6} {note}");
        // JSON has no NaN; a non-finite value already marked the run wrong.
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The string `field` of every entry of the list `key`.
    fn column(value: &Value, key: &str, field: &str) -> Vec<String> {
        let Value::Object(top) = value else {
            panic!("BENCHMARK.json is an object")
        };
        let Some((_, Value::Array(items))) = top.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        items
            .iter()
            .map(|item| match item {
                Value::Object(fields) => match fields.iter().find(|(k, _)| k == field) {
                    Some((_, Value::String(s))) => s.clone(),
                    other => panic!("{key}.{field}: {other:?}"),
                },
                other => panic!("{key} entry {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let value = serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("parses");
        for (key, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = spec.iter().map(|(_, u)| *u).collect();
            assert_eq!(column(&value, key, "name"), names);
            assert_eq!(column(&value, key, "unit"), units);
        }
        assert_eq!(column(&value, "workloads", "name"), crate::WORKLOADS);
    }

    #[test]
    fn every_metric_must_be_set_once() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        let twice = std::panic::catch_unwind(move || m.set("setup_s", 2.0));
        assert!(twice.is_err());
    }
}
