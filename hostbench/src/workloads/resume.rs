//! `resume`: one thread, a campaign that checkpoints every 16
//! iterations into a fresh directory, dropped at fixed iterations and
//! brought back with `Campaign::resume`.
//!
//! Checkpoint writes and reads dominate, so gains in the checkpoint
//! store, `jsonr`, and snapshot layers show here; an exec-layer gain
//! shows only in `step_p50_us`. Kill points are fixed so every run
//! resumes from the same payload sizes with both A/B generations on
//! disk: a resume at an unpinned point measures a different cost each
//! run, because the payload grows with the campaign.

use std::path::Path;
use std::time::Instant;

use dma_core::checkpoint::SLOT_FILES;
use dma_core::shard_seed;
use fuzz::{Campaign, CampaignConfig, FuzzReport};

use super::{finding_classes, push_end_to_end, push_percentile, reps_for, Samples, WARMUP_ITERS};
use crate::report::{Metric, Outcome};
use crate::stats::mean;
use crate::sys::ScratchDir;

/// Iterations per repetition.
pub const ITERS: u64 = 560;
/// Checkpoint cadence (the CI cadence).
const EVERY: u64 = 16;
/// Iterations at which the campaign is dropped: 8 iterations past every
/// checkpoint from the second on, so a resume replays 8 lost
/// iterations, both generations always exist, and each repetition has
/// enough resumes for its own median.
pub fn kills() -> impl Iterator<Item = u64> {
    (2..ITERS / EVERY).map(|j| j * EVERY + 8)
}
/// Nominal seconds per repetition on the reference host.
const REP_SECONDS: f64 = 7.0;

fn config(seed: u64, dir: &Path) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(seed, ITERS);
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = EVERY;
    cfg
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let scratch = match ScratchDir::new("resume") {
        Ok(d) => d,
        Err(e) => {
            o.error("scratch directory", e);
            return o;
        }
    };
    let mut t = Timings::default();
    let mut payload_kb = Vec::new();
    let (mut bits, mut classes) = (0, 0);
    for rep in 0..reps_for(seconds, REP_SECONDS, 4) {
        // Resume cost grows faster than linearly with the payload, and
        // payload size differs by several percent between seeds, so each
        // repetition runs its own seed derived from `--seed` (repetition
        // 0 runs `--seed` itself) and the run pools over all of them.
        let rep_seed = shard_seed(seed, rep as u32);
        // The uninterrupted control the repetition must reproduce.
        let control = match Campaign::run(CampaignConfig::new(rep_seed, ITERS)) {
            Ok(r) => r,
            Err(e) => {
                o.error("uninterrupted control campaign", e);
                continue;
            }
        };
        if rep == 0 {
            (bits, classes) = (control.coverage_bits, finding_classes(&control).len());
        }
        let dir = match scratch.fresh(&format!("rep-{rep}")) {
            Ok(d) => d,
            Err(e) => {
                o.error("checkpoint directory", e);
                continue;
            }
        };
        o.attempted += ITERS + kills().count() as u64;
        match one_rep(&config(rep_seed, &dir), &mut t, &mut o) {
            Ok((report, kb)) => {
                payload_kb.push(kb);
                o.checks.check(report.to_json() == control.to_json(), || {
                    format!(
                        "repetition {rep} (seed {rep_seed}): resumed report differs from the \
                         uninterrupted one"
                    )
                });
            }
            Err(e) => o.error("resume repetition", e),
        }
    }

    push_percentile(&mut o, "resume_p50_ms", &t.s.op_ms, 50.0, 1.0, "ms");
    push_percentile(&mut o, "ckpt_p50_ms", &t.ckpt_ms, 50.0, 1.0, "ms");
    push_percentile(&mut o, "ckpt_p90_ms", &t.ckpt_ms, 90.0, 1.0, "ms");
    push_percentile(&mut o, "step_p50_us", &t.step_ms, 50.0, 1e3, "us");
    o.details.push(Metric::new(
        "checkpoint.payload_kb",
        mean(&payload_kb),
        "KB",
        payload_kb.len(),
    ));
    push_end_to_end(&mut o, &t.s, bits, classes);
    o
}

/// Samples of the resume workload: resumes are its operations; steps
/// split by whether they wrote a checkpoint.
#[derive(Default)]
struct Timings {
    s: Samples,
    step_ms: Vec<f64>,
    ckpt_ms: Vec<f64>,
}

/// One repetition: set-up, the campaign with its kills and resumes,
/// and the final report with the last checkpoint payload's size in KB.
fn one_rep(
    cfg: &CampaignConfig,
    t: &mut Timings,
    o: &mut Outcome,
) -> dma_core::Result<(FuzzReport, f64)> {
    let dir = cfg.checkpoint_dir.clone().expect("resume config has a dir");
    let t0 = Instant::now();
    let mut c = Campaign::new(cfg.clone())?;
    c.run_until(WARMUP_ITERS)?;
    t.s.setup_s.push(t0.elapsed().as_secs_f64());

    let t1 = Instant::now();
    let mut kills = kills().peekable();
    while c.next_iter() < ITERS {
        if kills.peek() == Some(&c.next_iter()) {
            let kill_at = kills.next().expect("peeked");
            drop(c);
            o.checks.check(both_generations(&dir), || {
                format!("kill at {kill_at}: A/B generations missing")
            });
            let tr = Instant::now();
            c = Campaign::resume(cfg.clone())?;
            let from = c.next_iter();
            c.step()?;
            t.s.op_ms.push(tr.elapsed().as_secs_f64() * 1e3);
            o.checks.check(from == kill_at - 8, || {
                format!(
                    "kill at {kill_at} resumed from {from}, expected {}",
                    kill_at - 8
                )
            });
            continue;
        }
        let ts = Instant::now();
        c.step()?;
        let ms = ts.elapsed().as_secs_f64() * 1e3;
        if c.next_iter() % EVERY == 0 {
            t.ckpt_ms.push(ms);
        } else {
            t.step_ms.push(ms);
        }
    }
    t.s.iters_per_s
        .push((ITERS - WARMUP_ITERS) as f64 / t1.elapsed().as_secs_f64());
    let payload_kb = c.snapshot_payload().len() as f64 / 1024.0;
    Ok((c.finish()?, payload_kb))
}

/// Both A/B slot files exist in `dir`.
fn both_generations(dir: &Path) -> bool {
    SLOT_FILES.iter().all(|f| dir.join(f).is_file())
}
