//! `sharded`: `ShardedCampaign::run` with `threads = nproc` over
//! `2 × nproc` shards.
//!
//! The only workload in which `fuzz::shard`, the merge, and the
//! template clone's cross-core memory traffic matter; it carries the
//! `nproc`-thread throughput headline. Peak RSS depends on the thread
//! count for the same work, so memory is reported here too.

use std::time::Instant;

use fuzz::{ShardConfig, ShardedCampaign};

use super::{finding_classes, fingerprint, push_end_to_end, reps_for, Samples, WARMUP_ITERS};
use crate::report::{check_identical, Metric, Outcome};
use crate::sys::nproc;

/// Iterations per shard in one run.
const SHARD_ITERS: u64 = 600;
/// Runs per repetition, after its one set-up run.
const RUNS_PER_REP: usize = 5;
/// Nominal seconds per repetition (set-up run included) on the
/// reference host.
const REP_SECONDS: f64 = 3.0;

pub fn config(seed: u64, iters: u64) -> ShardConfig {
    let threads = nproc();
    ShardConfig::new(seed, iters, 2 * threads as u32, threads)
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let mut s = Samples::default();
    let mut fingerprints = Vec::new();
    let mut last = None;
    let shards = config(seed, 0).shards as u64;
    for _ in 0..reps_for(seconds, REP_SECONDS, 4) {
        o.attempted += 1;
        // Set-up: every shard boots its nine templates inside its first
        // nine iterations; run exactly those.
        let t0 = Instant::now();
        if let Err(e) = ShardedCampaign::new(config(seed, WARMUP_ITERS)).run() {
            o.error("ShardedCampaign::run (set-up)", e);
            continue;
        }
        s.setup_s.push(t0.elapsed().as_secs_f64());

        let mut walls = Vec::with_capacity(RUNS_PER_REP);
        for _ in 0..RUNS_PER_REP {
            o.attempted += 1;
            let t1 = Instant::now();
            match ShardedCampaign::new(config(seed, SHARD_ITERS)).run() {
                Ok(report) => {
                    walls.push(t1.elapsed().as_secs_f64());
                    fingerprints.push(fingerprint(&report));
                    last = Some(report);
                }
                Err(e) => o.error("ShardedCampaign::run", e),
            }
        }
        if walls.len() == RUNS_PER_REP {
            s.op_ms.extend(walls.iter().map(|w| w * 1e3));
            s.iters_per_s.push(
                (RUNS_PER_REP as u64 * shards * SHARD_ITERS) as f64 / walls.iter().sum::<f64>(),
            );
        }
    }

    check_identical(&mut o.checks, "merged sharded report", &fingerprints);
    let (bits, classes) = match &last {
        Some(r) => {
            o.checks.check(r.execs == shards * SHARD_ITERS, || {
                format!(
                    "sharded run merged {} execs, expected {}",
                    r.execs,
                    shards * SHARD_ITERS
                )
            });
            (r.coverage_bits, finding_classes(r).len())
        }
        None => (0, 0),
    };
    o.details.extend([
        Metric::new("threads", nproc() as f64, "count", 1),
        Metric::new("shards", shards as f64, "count", 1),
    ]);
    push_end_to_end(&mut o, &s, bits, classes);
    o
}
