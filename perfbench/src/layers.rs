//! The per-layer ledger of a traced run: self time per seam, scaled up
//! where steps were sampled, against the measured whole.

use std::fmt::Write as _;

use crate::recorder::{Layer, Recording};
use crate::seams::CalStat;
use crate::stats;

/// Step accounting of the traced rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepCounts {
    /// Steps taken in the traced rounds.
    pub steps: u64,
    /// Of those, steps recorded with their seams.
    pub sampled: u64,
    /// Inline calibrations in the traced rounds.
    pub calibrations: u64,
    /// Of those, calibrations that ran on a sampled step.
    pub sampled_calibrations: u64,
    /// In-place cost a child span adds to its parent beyond its own
    /// duration, ns (see `fleet::Sampler`); `None` keeps the recorder's
    /// hot-loop calibration.
    pub child_cost_ns: Option<f64>,
}

/// One ledger row.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Seam name.
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Estimated self time over the traced rounds, ms (sampled seams
    /// scaled to every step).
    pub est_ms: f64,
}

/// The ledger: estimated self time per layer against the measured
/// whole (the traced rounds' wall time).
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Rows in [`Layer::ALL`] order, containers excluded.
    pub rows: Vec<LedgerRow>,
    /// Wall time of the traced rounds, ms.
    pub whole_ms: f64,
    /// `1 − Σ parts / whole`: the share of the measured whole no layer
    /// accounts for (negative when the parts overshoot it).
    pub unattributed_frac: f64,
    /// Mean per-step cost of each sampled seam, ns, on steps that ran
    /// no inline calibration.
    pub per_step_ns: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Build the ledger from a recording.
    pub fn new(rec: &Recording, counts: StepCounts) -> Self {
        let scale = |layer: Layer| -> f64 {
            if !layer.sampled() || counts.sampled == 0 {
                return 1.0;
            }
            if layer == Layer::Decide {
                // Calibrating decides are recorded under their own name,
                // every one of them.
                stats::ratio(
                    (counts.steps - counts.calibrations) as f64,
                    (counts.sampled - counts.sampled_calibrations) as f64,
                )
            } else {
                counts.steps as f64 / counts.sampled as f64
            }
        };
        let mut rows = Vec::new();
        let mut parts_ns = 0.0;
        for layer in Layer::ALL {
            if layer.container() {
                continue;
            }
            let agg = rec.agg[layer as usize];
            let est_ns = self_ns(rec, layer, counts) * scale(layer);
            parts_ns += est_ns;
            rows.push(LedgerRow {
                name: if layer == Layer::Step {
                    "sim.self"
                } else {
                    layer.name()
                },
                calls: agg.calls,
                est_ms: est_ns / 1e6,
            });
        }
        let whole_ns = rec.agg[Layer::Round as usize].total_ns;
        let per_step_ns = Layer::ALL
            .iter()
            .filter(|l| l.sampled())
            .map(|&l| {
                let denom = if l == Layer::Decide {
                    counts.sampled - counts.sampled_calibrations
                } else {
                    counts.sampled
                };
                let name = if l == Layer::Step {
                    "sim.self"
                } else {
                    l.name()
                };
                (name, stats::ratio(self_ns(rec, l, counts), denom as f64))
            })
            .collect();
        Ledger {
            rows,
            whole_ms: whole_ns / 1e6,
            unattributed_frac: stats::ratio(whole_ns - parts_ns, whole_ns),
            per_step_ns,
        }
    }

    /// Mean per-step self time of a sampled seam, ns (0 if unknown).
    pub fn per_step(&self, name: &str) -> f64 {
        self.per_step_ns
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The table as printed beside the metrics.
    pub fn table(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "layer ledger ({title}): whole {:.3} ms", self.whole_ms);
        let _ = writeln!(
            out,
            "  {:<26} {:>10} {:>12} {:>8}",
            "layer", "spans", "self ms", "share"
        );
        for r in &self.rows {
            if r.calls == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<26} {:>10} {:>12.3} {:>7.2}%",
                r.name,
                r.calls,
                r.est_ms,
                100.0 * stats::ratio(r.est_ms, self.whole_ms)
            );
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>10} {:>12.3} {:>7.2}%",
            "unattributed",
            "",
            self.whole_ms * self.unattributed_frac,
            100.0 * self.unattributed_frac
        );
        for (name, ns) in &self.per_step_ns {
            if *ns > 0.0 {
                let _ = writeln!(out, "  per sampled step: {name:<24} {ns:>10.1} ns");
            }
        }
        out
    }
}

/// A layer's summed self time with the in-place child-span cost
/// replacing the recorder's hot-loop estimate.
fn self_ns(rec: &Recording, layer: Layer, counts: StepCounts) -> f64 {
    let agg = rec.agg[layer as usize];
    let correction = counts.child_cost_ns.map_or(0.0, |c| c - rec.child_cost_ns);
    (agg.self_ns - agg.children as f64 * correction).max(0.0)
}

/// Calibration-path figures over a set of calibrations (all but the
/// counts are program-reported: `Calibrator::recalibrate` wall and the
/// similarity engine's `RunStats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CalFigures {
    /// Calibrations.
    pub count: u64,
    /// Median recalibrate wall, µs.
    pub recalibrate_us_p50: f64,
    /// Mean similarity-engine wall, µs.
    pub similarity_us: f64,
    /// Mean recalibrate minus similarity (profiler patch, theta ladder,
    /// final Bellman solve), µs.
    pub other_us: f64,
    /// Mean similarity sweeps.
    pub sweeps: f64,
    /// Mean exact EMD solves.
    pub emd_solves: f64,
    /// Memo hits over memo lookups.
    pub memo_hit_ratio: f64,
    /// Mean Bellman sweeps.
    pub bellman_sweeps: f64,
    /// Share of calibrations that patched their cached model.
    pub incremental_ratio: f64,
}

impl CalFigures {
    /// Summarise `cals`.
    pub fn of(cals: &[CalStat]) -> Self {
        let n = cals.len() as f64;
        let mean = |f: fn(&CalStat) -> f64| stats::ratio(cals.iter().map(f).sum(), n);
        let mut wall: Vec<f64> = cals.iter().map(|c| c.recalibrate_us).collect();
        let hits: usize = cals.iter().map(|c| c.cache_hits).sum();
        let solves: usize = cals.iter().map(|c| c.emd_solves).sum();
        CalFigures {
            count: cals.len() as u64,
            recalibrate_us_p50: stats::median(&mut wall),
            similarity_us: mean(|c| c.similarity_us),
            other_us: mean(|c| c.recalibrate_us - c.similarity_us),
            sweeps: mean(|c| c.sweeps as f64),
            emd_solves: mean(|c| c.emd_solves as f64),
            memo_hit_ratio: stats::ratio(hits as f64, (hits + solves) as f64),
            bellman_sweeps: mean(|c| c.bellman_sweeps as f64),
            incremental_ratio: mean(|c| f64::from(u8::from(c.incremental))),
        }
    }
}
