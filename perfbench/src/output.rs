//! The result line and the printed diagnostics.

use std::fmt::Write as _;

use crate::osstat::{self, OsSample};
use crate::stats;
use crate::workloads::{Measured, Traced};

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// (p50, p99) of `samples`.
fn quantiles(samples: &[f64]) -> (f64, f64) {
    let mut xs = samples.to_vec();
    (
        stats::quantile(&mut xs, 0.5),
        stats::quantile(&mut xs, 0.99),
    )
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let (calib_p50, calib_p99) = quantiles(&m.calib_ms);
    vec![
        ("device_steps_per_s", m.device_steps_per_s, "1/s"),
        ("calib_ms_p50", calib_p50, "ms"),
        ("calib_ms_p99", calib_p99, "ms"),
        ("solves_per_s", m.solves_per_s, "1/s"),
        ("setup_s", m.setup_s, "s"),
        ("peak_rss_mb", osstat::peak_rss_mb(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(m: &Measured, t: &Traced) -> Vec<Metric> {
    let step = |name: &str| {
        t.per_step_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let step_ns: f64 = t.per_step_ns.iter().map(|(_, v)| v).sum();
    let c = &t.cal;
    let s = &t.serve;
    let (served_p50, served_p99) = quantiles(&m.served_ms);
    // OS figures: median over the untraced rounds.
    let os_median = |f: fn(&OsSample) -> f64| {
        let mut xs: Vec<f64> = m.os_rounds.iter().map(f).collect();
        stats::median(&mut xs)
    };
    vec![
        ("sim.step_ns", step_ns, "ns"),
        ("sim.self_ns", step("sim.self"), "ns"),
        ("workload.trace_ns", step("workload.trace"), "ns"),
        ("policy.decide_ns", step("policy.decide"), "ns"),
        ("profiler.observe_ns", step("profiler.observe"), "ns"),
        ("sim.steps", t.steps as f64, "count/round"),
        ("online.calibrations", c.count as f64, "count/round"),
        ("online.recalibrate_us_p50", c.recalibrate_us_p50, "us"),
        ("engine.similarity_us", c.similarity_us, "us"),
        ("calib.other_us", c.other_us, "us"),
        ("engine.sweeps", c.sweeps, "count"),
        ("engine.emd_solves", c.emd_solves, "count"),
        ("engine.memo_hit_ratio", c.memo_hit_ratio, "ratio"),
        ("pipeline.bellman_sweeps", c.bellman_sweeps, "count"),
        ("pipeline.incremental_ratio", c.incremental_ratio, "ratio"),
        ("os.sys_cpu_s", os_median(|o| o.sys_s), "s/round"),
        (
            "os.voluntary_ctx_switches",
            os_median(|o| o.voluntary_ctx as f64),
            "count/round",
        ),
        ("serve.submitted", s.submitted as f64, "count/round"),
        ("serve.admitted", s.admitted as f64, "count/round"),
        ("serve.replaced", s.replaced as f64, "count/round"),
        ("serve.coalesced", s.coalesced as f64, "count/round"),
        ("serve.completed", s.completed as f64, "count/round"),
        (
            "serve.solves_per_submission",
            stats::ratio(s.completed as f64, s.submitted as f64),
            "ratio",
        ),
        ("serve.served_ms_p50", served_p50, "ms"),
        ("serve.served_ms_p99", served_p99, "ms"),
        (
            "trace.unattributed_frac",
            t.ledger.unattributed_frac,
            "ratio",
        ),
        (
            "trace.overhead_frac",
            1.0 - stats::ratio(t.traced_rate, t.untraced_rate),
            "ratio",
        ),
    ]
}

/// The last line of standard output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values have no JSON form; none is expected, and a
        // null makes a broken measurement visible instead of hiding it.
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
