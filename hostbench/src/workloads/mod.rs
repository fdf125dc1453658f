//! The four untraced workloads and what they share.
//!
//! Every workload repeats a fixed unit of work — fixed iteration,
//! round, and kill-point counts — a number of times that depends only on
//! `--seconds`, never on elapsed time, so the same arguments always do
//! the same work. Each repetition re-creates the system under test, so
//! set-up is sampled once per repetition.

pub mod campaign;
pub mod live;
pub mod resume;
pub mod sharded;

use std::collections::BTreeSet;

use dma_core::checkpoint::fnv64;
use fuzz::FuzzReport;

use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile};
use crate::sys::peak_rss_mb;

/// Iterations in which a campaign boots its machine templates: the
/// executor picks config `iteration % 9`, and each of the nine templates
/// boots lazily on its first use. Set-up time counts construction plus
/// these iterations.
pub const WARMUP_ITERS: u64 = fuzz::NUM_CONFIGS as u64;

/// Repetitions for a run of `seconds`, given the nominal length of one
/// repetition on the reference host (2 vCPU). A pure function of the
/// arguments, so the amount of work never depends on host speed.
pub fn reps_for(seconds: u64, rep_seconds: f64, min_reps: usize) -> usize {
    ((seconds as f64 / rep_seconds).round() as usize).max(min_reps)
}

/// Fingerprint of everything deterministic in a report.
pub fn fingerprint(report: &FuzzReport) -> u64 {
    fnv64(report.to_json().as_bytes()) ^ fnv64(report.stats_json.as_bytes()).rotate_left(1)
}

/// Distinct Figure-1 taxonomy letters among a report's findings.
pub fn finding_classes(report: &FuzzReport) -> BTreeSet<char> {
    report
        .findings
        .iter()
        .map(|f| f.taxonomy.letter())
        .collect()
}

/// Per-run samples every workload collects.
#[derive(Default)]
pub struct Samples {
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Campaign iterations per wall-clock second, one per repetition.
    pub iters_per_s: Vec<f64>,
    /// Host time of each of the workload's blocking operations, ms.
    pub op_ms: Vec<f64>,
}

/// Fills in the result-line metrics every workload reports.
pub fn push_end_to_end(o: &mut Outcome, s: &Samples, coverage_bits: u32, classes: usize) {
    let reps = s.setup_s.len();
    let op_p50 = percentile(&s.op_ms, 50.0);
    o.checks.check(op_p50.is_some(), || {
        format!(
            "op_p50_ms needs at least 20 operations, got {}",
            s.op_ms.len()
        )
    });
    let ok_ratio = o.checks.ok_ratio();
    o.metrics.extend([
        Metric::new("setup_s", or_zero(&s.setup_s, median), "s", reps),
        Metric::new(
            "iters_per_s",
            or_zero(&s.iters_per_s, median),
            "1/s",
            s.iters_per_s.len(),
        ),
        Metric::new("op_p50_ms", op_p50.unwrap_or(0.0), "ms", s.op_ms.len()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
        Metric::new("coverage_bits", coverage_bits as f64, "count", 1),
        Metric::new("finding_classes", classes as f64, "count", 1),
        Metric::new("ok_ratio", ok_ratio, "ratio", o.attempted as usize),
    ]);
}

fn or_zero(values: &[f64], f: fn(&[f64]) -> f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        f(values)
    }
}

/// Adds a percentile of `samples` to the report details when the
/// sample count supports it.
pub fn push_percentile(
    o: &mut Outcome,
    name: &'static str,
    samples: &[f64],
    p: f64,
    scale: f64,
    unit: &'static str,
) {
    if let Some(v) = percentile(samples, p) {
        o.details
            .push(Metric::new(name, v * scale, unit, samples.len()));
    }
}
