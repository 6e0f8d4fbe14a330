//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, printed last on standard output.

use crate::client::Checked;
use crate::stats::LatencySummary;
use std::fmt::Write as _;

/// Every end-to-end metric, with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics of a measured window, in [`END_TO_END`] order.
pub fn end_to_end(
    throughput: f64,
    latency: &LatencySummary,
    setup_s: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    let values =
        [throughput, latency.p50.ms(), latency.p90.ms(), latency.p99.ms(), setup_s, rss_mb];
    END_TO_END.iter().zip(values).map(|((name, unit), v)| Metric::new(name, v, unit)).collect()
}

/// One named figure with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// A finished run.
pub struct Outcome {
    pub checked: Checked,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(checked: Checked, metrics: Vec<Metric>) -> Outcome {
        Outcome { checked, metrics }
    }

    pub fn correct(&self) -> bool {
        self.checked.failed == 0 && self.checked.attempted > 0
    }

    /// The result line. Values keep every digit Rust's shortest
    /// round-trip formatting gives them.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.checked.attempted,
            self.checked.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let checked = Checked { attempted: 3, failed: 0, first_failure: None };
        let o = Outcome::new(checked, vec![Metric::new("setup_s", 0.8127, "s")]);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
