//! `campaign`: one thread stepping one `fuzz::Campaign`, no disk, no
//! network.
//!
//! Execution dominates, and template clone is about half of exec host
//! time, so exec-layer gains show here while checkpoint and serve
//! changes must leave it unchanged. The campaign is long enough that
//! the ~25 admission steps (which also run the minimizer) sit far
//! beyond step p99 instead of straddling it.

use std::time::Instant;

use fuzz::{Campaign, CampaignConfig};

use super::{
    finding_classes, fingerprint, push_end_to_end, push_percentile, reps_for, Samples, WARMUP_ITERS,
};
use crate::report::{check_identical, Metric, Outcome};

/// Iterations per repetition.
const ITERS: u64 = 10_000;
/// Nominal seconds per repetition on the reference host.
const REP_SECONDS: f64 = 3.5;

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let mut s = Samples::default();
    let mut fingerprints = Vec::new();
    let mut last = None;
    for _ in 0..reps_for(seconds, REP_SECONDS, 3) {
        o.attempted += ITERS;
        let t0 = Instant::now();
        let mut c = match Campaign::new(CampaignConfig::new(seed, ITERS)) {
            Ok(c) => c,
            Err(e) => {
                o.error("Campaign::new", e);
                continue;
            }
        };
        if let Err(e) = c.run_until(WARMUP_ITERS) {
            o.error("campaign warm-up", e);
            continue;
        }
        s.setup_s.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        loop {
            let ts = Instant::now();
            match c.step() {
                Ok(true) => s.op_ms.push(ts.elapsed().as_secs_f64() * 1e3),
                Ok(false) => break,
                Err(e) => {
                    o.error("Campaign::step", e);
                    break;
                }
            }
        }
        s.iters_per_s
            .push((ITERS - WARMUP_ITERS) as f64 / t1.elapsed().as_secs_f64());
        match c.finish() {
            Ok(report) => {
                fingerprints.push(fingerprint(&report));
                last = Some(report);
            }
            Err(e) => o.error("Campaign::finish", e),
        }
    }

    check_identical(&mut o.checks, "campaign report", &fingerprints);
    let (bits, classes) = match &last {
        Some(r) => {
            let classes = finding_classes(r);
            o.checks.check(classes.len() == 4, || {
                format!("campaign found Figure-1 classes {classes:?}, expected a-d")
            });
            o.checks.check(r.execs == ITERS, || {
                format!("campaign ran {} execs, expected {ITERS}", r.execs)
            });
            o.details.extend([
                Metric::new("minimize_execs", r.minimize_execs as f64, "count", 1),
                Metric::new("corpus_entries", r.corpus.len() as f64, "count", 1),
                Metric::new(
                    "sim_cycles_per_iter",
                    r.total_cycles as f64 / r.execs as f64,
                    "cycles",
                    1,
                ),
            ]);
            (r.coverage_bits, classes.len())
        }
        None => (0, 0),
    };
    push_percentile(&mut o, "step_p50_us", &s.op_ms, 50.0, 1e3, "us");
    push_percentile(&mut o, "step_p99_us", &s.op_ms, 99.0, 1e3, "us");
    push_end_to_end(&mut o, &s, bits, classes);
    o
}
