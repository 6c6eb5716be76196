//! The repository benchmark: end-to-end and per-layer measurements of
//! the pcelisp simulator, taken from outside by timing the calls this
//! crate makes into each layer's public functions (see README.md).

#![forbid(unsafe_code)]

mod calib;
mod cells;
mod golden;
mod inputs;
pub mod measure;
pub mod workloads;
mod world;

use std::fmt::Write as _;
use workloads::Report;

/// The result line: one JSON object with the outcome and every metric.
pub fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.ops.attempted,
        report.ops.failed
    );
    for (i, (name, unit, value, _)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// The human-readable lines printed before the result line: the digest,
/// the op counts, and every metric with its unit, median, quartiles and
/// sample count.
pub fn summary_lines(report: &Report) -> Vec<String> {
    let mut lines = vec![
        format!("digest = {:#018x}", report.ops.reference.unwrap_or(0)),
        format!("ops = {} count", report.ops.attempted),
        format!("failed_ops = {} count", report.ops.failed),
    ];
    for (name, unit, value, samples) in &report.metrics {
        if samples.len() > 1 {
            let (q1, _, q3) = samples.quartiles();
            lines.push(format!(
                "{name} = {value} {unit} (median of {}; q1 {q1}, q3 {q3})",
                samples.len()
            ));
        } else {
            lines.push(format!("{name} = {value} {unit}"));
        }
    }
    lines.extend(report.notes.iter().cloned());
    for p in report.ops.problems.iter().chain(&report.problems) {
        lines.push(format!("FAILED: {p}"));
    }
    lines
}
