//! The traced run: per-layer host time, measured by spans the harness
//! records around calls into each layer's public functions.
//!
//! Every traced run executes the same fixed passes, whatever
//! `--workload` says, so each prints every per-layer metric:
//!
//! * campaign pass — the campaign loop rebuilt from `ExecContext` and
//!   `Corpus` calls, with a span per exec and per corpus decision; its
//!   counts must equal an untraced `Campaign` run of the same length,
//!   and its wall time against that run's is the tracing overhead;
//! * device probes — boot, clone and deliver per machine template, the
//!   allocator, both IOMMU invalidation modes, and the D-KASAN and
//!   channel-inference consumers of a recorded event stream;
//! * checkpoint pass — capture, parse, restore, save and load of the
//!   payload the `resume` workload's median kill point writes;
//! * serve pass — `Server::handle_line` in memory and the metric
//!   snapshot calls behind `stats`, then one TCP session of the `live`
//!   workload to split round time into handling and transport wait;
//! * shard pass — `run_shards` and `merge` of the `sharded` workload.

use std::time::Instant;

use devsim::{boot_model, BootSpec, DeviceModel};
use dma_core::vuln::DmaDirection;
use dma_core::{jsonr, shard_seed, CheckpointStore, CoverageMap, SimCtx};
use dma_lab::serve::{ConnState, Server};
use fuzz::{
    machine_config, snapshot, Campaign, CampaignConfig, ChannelInference, Corpus, ExecContext,
    ExecStatus, FuzzInput, ShardedCampaign, DEFAULT_WATCHDOG_BUDGET, EXEC_RECORDER_CAPACITY,
    NUM_CONFIGS,
};
use sim_iommu::{dma_map_single, dma_unmap_single, InvalidationMode, Iommu, IommuConfig};
use sim_mem::{MemConfig, MemorySystem};

use crate::report::{Metric, Outcome};
use crate::stats::{mean, median, percentile};
use crate::sys::ScratchDir;
use crate::trace::Tracer;
use crate::workloads::{live, resume, sharded, Samples};

/// Iterations of the traced campaign pass (and of its untraced twin).
const CAMPAIGN_ITERS: u64 = 2_000;
/// Calls per micro-probe measurement.
const PROBE_CALLS: usize = 20_000;
/// Repeats of each checkpoint-layer call.
const CKPT_REPEATS: usize = 5;
/// Iterations per shard in the shard pass.
const SHARD_ITERS: u64 = 250;

pub fn run(seed: u64) -> Outcome {
    let mut o = Outcome::default();
    let mut tr = Tracer::new();
    campaign_pass(&mut tr, &mut o, seed);
    device_probes(&mut tr, &mut o, seed);
    checkpoint_pass(&mut tr, &mut o, seed);
    serve_pass(&mut tr, &mut o, seed);
    shard_pass(&mut tr, &mut o, seed);
    o.notes.push(tr.summary());
    o
}

fn push(o: &mut Outcome, name: &'static str, value: f64, unit: &'static str, samples: usize) {
    o.metrics.push(Metric::new(name, value, unit, samples));
}

/// Mean of the spans named `name`, scaled from seconds.
fn mean_of(tr: &Tracer, name: &str, scale: f64) -> (f64, usize) {
    let d = tr.durations(name);
    (mean(&d) * scale, d.len())
}

/// The counts a campaign run must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub execs: u64,
    pub admissions: u64,
    pub coverage_bits: u32,
    pub minimize_execs: u64,
    pub total_cycles: u64,
}

/// The traced run is rejected unless its counts equal the untraced
/// run's report.
pub fn check_counts(o: &mut Outcome, traced: &Counts, untraced: &Counts) -> bool {
    o.checks.check(traced == untraced, || {
        format!("traced campaign counts {traced:?} differ from the untraced report's {untraced:?}")
    })
}

fn campaign_pass(tr: &mut Tracer, o: &mut Outcome, seed: u64) {
    // The untraced twin runs before and after the traced pass; the
    // overhead compares against the mean of the two, so neither side
    // alone pays for a cold start.
    o.attempted += 3 * CAMPAIGN_ITERS;
    let untraced_run = || {
        let t = Instant::now();
        Campaign::run(CampaignConfig::new(seed, CAMPAIGN_ITERS)).map(|r| (r, t.elapsed()))
    };
    let (untraced, before) = match untraced_run() {
        Ok(r) => r,
        Err(e) => return o.error("untraced Campaign::run", e),
    };

    let t1 = Instant::now();
    let mut cx = ExecContext::new();
    let mut corpus = Corpus::new();
    let mut global = CoverageMap::new();
    let mut counts = Counts {
        execs: 0,
        admissions: 0,
        coverage_bits: 0,
        minimize_execs: 0,
        total_cycles: 0,
    };
    let pass = tr.enter("campaign.pass");
    for it in 0..CAMPAIGN_ITERS {
        let input = FuzzInput::generate(seed, it);
        let out = match tr.time("fuzz.exec", || {
            cx.execute_with_budget(&input, DEFAULT_WATCHDOG_BUDGET)
        }) {
            Ok(out) => out,
            Err(e) => {
                tr.exit(pass);
                return o.error("ExecContext::execute_with_budget", e);
            }
        };
        counts.execs += 1;
        if out.status != ExecStatus::Completed {
            continue;
        }
        counts.total_cycles += out.cycles;
        match tr.time("fuzz.corpus", || {
            corpus.consider_with(Some(&mut cx), &input, &out, &mut global)
        }) {
            Ok(extra) => {
                counts.minimize_execs += extra as u64;
                counts.admissions += (extra > 0) as u64;
            }
            Err(e) => {
                tr.exit(pass);
                return o.error("Corpus::consider_with", e);
            }
        }
    }
    tr.exit(pass);
    let traced_s = t1.elapsed().as_secs_f64();
    let untraced_s = match untraced_run() {
        Ok((_, after)) => (before + after).as_secs_f64() / 2.0,
        Err(e) => return o.error("untraced Campaign::run", e),
    };
    counts.coverage_bits = global.count_ones();
    check_counts(
        o,
        &counts,
        &Counts {
            execs: untraced.execs,
            admissions: untraced.corpus.len() as u64,
            coverage_bits: untraced.coverage_bits,
            minimize_execs: untraced.minimize_execs,
            total_cycles: untraced.total_cycles,
        },
    );

    let exec = tr.durations("fuzz.exec");
    let n = exec.len();
    push(
        o,
        "fuzz.exec.execute_us_p50",
        percentile(&exec, 50.0).unwrap_or(0.0) * 1e6,
        "us",
        n,
    );
    push(
        o,
        "fuzz.exec.execute_us_p99",
        percentile(&exec, 99.0).unwrap_or(0.0) * 1e6,
        "us",
        n,
    );
    let (consider_us, considered) = mean_of(tr, "fuzz.corpus", 1e6);
    push(o, "fuzz.corpus.consider_us", consider_us, "us", considered);
    push(
        o,
        "fuzz.corpus.minimize_execs",
        counts.minimize_execs as f64,
        "count",
        1,
    );
    push(
        o,
        "fuzz.corpus.admit_ratio",
        counts.admissions as f64 / considered.max(1) as f64,
        "ratio",
        considered,
    );
    push(
        o,
        "sim.cycles_per_iter",
        untraced.total_cycles as f64 / untraced.execs as f64,
        "cycles",
        1,
    );
    push(
        o,
        "trace.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
        1,
    );
}

fn device_probes(tr: &mut Tracer, o: &mut Outcome, seed: u64) {
    // Boot, clone and deliver on every machine template.
    let mut templates = Vec::new();
    for config in 0..NUM_CONFIGS {
        o.attempted += 1;
        let cfg = machine_config(config, seed);
        match tr.time("devsim.boot", || {
            boot_model(cfg, BootSpec::Recorded(EXEC_RECORDER_CAPACITY))
        }) {
            Ok(m) => templates.push(m),
            Err(e) => return o.error("boot_model", e),
        }
    }
    let (mut hits, mut misses) = (0, 0);
    let mut delivered = 0;
    for t in &templates {
        for _ in 0..20 {
            drop(tr.time("devsim.clone", || t.clone_model()));
        }
        let mut m = t.clone_model();
        let before = iotlb(m.as_ref());
        for i in 0..8u64 {
            o.attempted += 1;
            let len = 64 + (i as usize % 7) * 192;
            // A full ring is a tolerated drop in the executor too; it
            // re-arms the receive path the same way.
            if tr
                .time("devsim.deliver", || m.deliver(len, i as u8))
                .is_ok()
            {
                delivered += 1;
            } else if let Err(e) = m.recover() {
                return o.error("DeviceModel::recover", e);
            }
        }
        let after = iotlb(m.as_ref());
        hits += after.0 - before.0;
        misses += after.1 - before.1;
    }
    o.checks
        .check(delivered > 0, || "no delivery succeeded".into());
    let (boot_ms, n) = mean_of(tr, "devsim.boot", 1e3);
    push(o, "devsim.boot_ms", boot_ms, "ms", n);
    let (clone_us, n) = mean_of(tr, "devsim.clone", 1e6);
    push(o, "devsim.clone_us", clone_us, "us", n);
    let (deliver_us, n) = mean_of(tr, "devsim.deliver", 1e6);
    push(o, "devsim.deliver_us", deliver_us, "us", n);
    push(
        o,
        "sim.iotlb_miss_ratio",
        misses as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );

    // Allocator: kmalloc + kfree pairs over four size classes.
    let mut ctx = SimCtx::new();
    let mut mem = MemorySystem::new(&MemConfig::default());
    o.attempted += PROBE_CALLS as u64;
    let r = tr.time("sim-mem.kmalloc_kfree", || {
        for i in 0..PROBE_CALLS {
            let kva = mem.kmalloc(&mut ctx, [64, 256, 1500, 4000][i % 4], "hostbench")?;
            mem.kfree(&mut ctx, kva)?;
        }
        Ok::<_, dma_core::DmaError>(())
    });
    if let Err(e) = r {
        return o.error("kmalloc/kfree", e);
    }
    let (pair_s, _) = mean_of(tr, "sim-mem.kmalloc_kfree", 1.0);
    push(
        o,
        "sim-mem.kmalloc_kfree_ns",
        pair_s * 1e9 / PROBE_CALLS as f64,
        "ns",
        PROBE_CALLS,
    );

    // IOMMU: map + unmap pairs of one 1500-byte buffer per mode.
    for (mode, span, metric) in [
        (
            InvalidationMode::Strict,
            "sim-iommu.strict",
            "sim-iommu.map_unmap_ns_strict",
        ),
        (
            InvalidationMode::Deferred,
            "sim-iommu.deferred",
            "sim-iommu.map_unmap_ns_deferred",
        ),
    ] {
        o.attempted += PROBE_CALLS as u64;
        match map_unmap(tr, span, mode) {
            Ok(()) => {
                let (s, _) = mean_of(tr, span, 1.0);
                push(o, metric, s * 1e9 / PROBE_CALLS as f64, "ns", PROBE_CALLS);
            }
            Err(e) => return o.error("dma_map_single/dma_unmap_single", e),
        }
    }

    // Oracle and inference over one recorded execution's events.
    let events = match recorded_events(seed) {
        Ok(ev) => ev,
        Err(e) => return o.error("recorded exec", e),
    };
    o.checks.check(!events.is_empty(), || {
        "recorded exec produced no events".into()
    });
    const PASSES: usize = 20;
    for _ in 0..PASSES {
        let mut d = dkasan::DKasan::new();
        tr.time("dkasan.process", || d.process(&events));
        let mut inf = ChannelInference::new();
        tr.time("infer.observe_all", || inf.observe_all(&events));
    }
    let per_event = 1e9 / events.len().max(1) as f64;
    let (s, n) = mean_of(tr, "dkasan.process", per_event);
    push(o, "dkasan.process_ns_per_event", s, "ns", n * events.len());
    let (s, n) = mean_of(tr, "infer.observe_all", per_event);
    push(o, "infer.observe_ns_per_event", s, "ns", n * events.len());
}

/// `(hits, misses)` of the IOTLB counters on a machine.
fn iotlb(m: &dyn DeviceModel) -> (u64, u64) {
    let metrics = &m.sim_ref().metrics;
    (
        metrics.counter("sim_iommu.iotlb.hit"),
        metrics.counter("sim_iommu.iotlb.miss"),
    )
}

fn map_unmap(tr: &mut Tracer, span: &'static str, mode: InvalidationMode) -> dma_core::Result<()> {
    let mut ctx = SimCtx::new();
    let mut mem = MemorySystem::new(&MemConfig::default());
    let mut iommu = Iommu::new(IommuConfig {
        mode,
        ..IommuConfig::default()
    });
    iommu.attach_device(1);
    let buf = mem.kmalloc(&mut ctx, 1500, "hostbench")?;
    tr.time(span, || {
        for _ in 0..PROBE_CALLS {
            let m = dma_map_single(
                &mut ctx,
                &mut iommu,
                &mem.layout,
                1,
                buf,
                1500,
                DmaDirection::FromDevice,
                "hostbench",
            )?;
            dma_unmap_single(&mut ctx, &mut iommu, &m)?;
            iommu.tick(&mut ctx);
        }
        Ok(())
    })
}

/// The event stream of one traced NIC session: boot, deliveries, IO
/// completion, a deferred flush, and teardown.
fn recorded_events(seed: u64) -> dma_core::Result<Vec<dma_core::Event>> {
    let mut model = boot_model(machine_config(0, seed), BootSpec::TracedBoot)?;
    for i in 0..24u64 {
        // Drops are part of the recorded behaviour; the stream is what
        // matters here.
        let _ = model.deliver(48 + (i as usize % 7) * 96, i as u8);
    }
    model.tick_ms(2);
    model.complete_io()?;
    model.tick_ms(11);
    model.teardown()?;
    Ok(model.sim().trace.drain())
}

fn checkpoint_pass(tr: &mut Tracer, o: &mut Outcome, seed: u64) {
    let scratch = match ScratchDir::new("layers") {
        Ok(d) => d,
        Err(e) => return o.error("scratch directory", e),
    };
    let store_dir = match scratch.fresh("store") {
        Ok(d) => d,
        Err(e) => return o.error("checkpoint directory", e),
    };
    // The state at the `resume` workload's median kill point.
    let kill_at = resume::kills()
        .nth(resume::kills().count() / 2)
        .expect("kill points");
    o.attempted += kill_at;
    let c = match Campaign::new(CampaignConfig::new(seed, resume::ITERS)).and_then(|mut c| {
        c.run_until(kill_at)?;
        Ok(c)
    }) {
        Ok(c) => c,
        Err(e) => return o.error("checkpointing campaign", e),
    };
    let mut payload = String::new();
    let mut restored = None;
    for _ in 0..CKPT_REPEATS {
        o.attempted += 3;
        payload = tr.time("snapshot.capture", || {
            snapshot::capture(c.config().seed, c.state())
        });
        match tr.time("jsonr.parse", || jsonr::parse(&payload)) {
            Ok(v) => {
                restored = tr.time("snapshot.restore", || snapshot::restore(&v));
            }
            Err(e) => return o.error("jsonr::parse of the checkpoint payload", e),
        }
    }
    match restored {
        Some((s, state)) => {
            let again = snapshot::capture(s, &state);
            o.checks.check(again == payload, || {
                "capture(restore(parse(payload))) differs from payload".into()
            });
        }
        None => {
            o.checks
                .check(false, || "snapshot::restore rejected the payload".into());
        }
    }
    let kb = payload.len() as f64 / 1024.0;

    let mut store = match CheckpointStore::open(&store_dir) {
        Ok(s) => s,
        Err(e) => return o.error("CheckpointStore::open", e),
    };
    // Fill both A/B slots first, as in a running campaign.
    for i in 0..2 + CKPT_REPEATS {
        o.attempted += 1;
        let r = if i < 2 {
            store.save(&payload)
        } else {
            tr.time("checkpoint.save", || store.save(&payload))
        };
        if let Err(e) = r {
            return o.error("CheckpointStore::save", e);
        }
    }
    for _ in 0..CKPT_REPEATS {
        o.attempted += 1;
        match tr.time("checkpoint.load", || store.load()) {
            Ok(Some(_)) => {}
            Ok(None) => {
                o.checks.check(false, || "load found no generation".into());
            }
            Err(e) => return o.error("CheckpointStore::load", e),
        }
    }

    let (v, n) = mean_of(tr, "snapshot.capture", 1e3);
    push(o, "snapshot.capture_ms", v, "ms", n);
    let (v, n) = mean_of(tr, "snapshot.restore", 1e3);
    push(o, "snapshot.restore_ms", v, "ms", n);
    let (v, n) = mean_of(tr, "jsonr.parse", 1e6);
    push(
        o,
        "jsonr.parse_us_per_kb",
        v / kb.max(f64::MIN_POSITIVE),
        "us/KB",
        n,
    );
    let (v, n) = mean_of(tr, "checkpoint.save", 1e3);
    push(o, "checkpoint.save_ms", v, "ms", n);
    let (v, n) = mean_of(tr, "checkpoint.load", 1e3);
    push(o, "checkpoint.load_ms", v, "ms", n);
    push(o, "checkpoint.payload_kb", kb, "KB", 1);
}

fn serve_pass(tr: &mut Tracer, o: &mut Outcome, seed: u64) {
    // Metric snapshot calls behind `stats`, on two shard campaigns.
    let mut snaps = Vec::new();
    for shard in 0..live::LIVE.shards {
        o.attempted += 200;
        let mut c = match Campaign::new(CampaignConfig::new(shard_seed(seed, shard), 200)) {
            Ok(c) => c,
            Err(e) => return o.error("Campaign::new", e),
        };
        if let Err(e) = c.run_to_end() {
            return o.error("Campaign::run_to_end", e);
        }
        for _ in 0..20 {
            let s = c.state();
            snaps.push(tr.time("metrics.snapshot", || s.metrics.snapshot(s.total_cycles)));
        }
    }
    let (a, b) = (snaps[0].clone(), snaps[snaps.len() - 1].clone());
    for _ in 0..20 {
        let mut merged = a.clone();
        tr.time("metrics.merge", || merged.merge(&b));
        drop(tr.time("metrics.diff", || merged.diff(&a)));
    }
    for (span, metric) in [
        ("metrics.snapshot", "metrics.snapshot_us"),
        ("metrics.merge", "metrics.merge_us"),
        ("metrics.diff", "metrics.diff_us"),
    ] {
        let (v, n) = mean_of(tr, span, 1e6);
        push(o, metric, v, "us", n);
    }

    // The live request cycle, handled in memory.
    let mut server = match Server::new(live::LIVE.serve_config(seed)) {
        Ok(s) => s,
        Err(e) => return o.error("Server::new", e),
    };
    let mut conn = ConnState::default();
    let mut out = Vec::new();
    server.handle_line(&live::LIVE.warmup_request(), &mut conn, &mut out);
    const SPANS: [&str; 3] = [
        "serve.handle.step",
        "serve.handle.stats",
        "serve.handle.health",
    ];
    for _ in 0..live::CYCLES {
        for (req, span) in live::LIVE.requests.iter().zip(SPANS) {
            o.attempted += 1;
            out.clear();
            tr.time(span, || server.handle_line(req, &mut conn, &mut out));
            let f = live::facts(&out);
            o.checks
                .check(f.ended && !f.error, || format!("in-memory {req}: {out:?}"));
        }
    }
    let mut handle_ms = [0.0; 3];
    for (i, (span, metric)) in SPANS
        .iter()
        .zip([
            "serve.handle_us_step",
            "serve.handle_us_stats",
            "serve.handle_us_health",
        ])
        .enumerate()
    {
        let (v, n) = mean_of(tr, span, 1e6);
        handle_ms[i] = v / 1e3;
        push(o, metric, v, "us", n);
    }

    // The same cycle over TCP: round time minus handling time is what
    // the transport adds.
    let mut s = Samples::default();
    o.attempted += live::CYCLES * live::LIVE.requests.len() as u64;
    let id = tr.enter("serve.tcp_session");
    let r = live::one_rep(&live::LIVE, seed, live::CYCLES, &mut s, o);
    tr.exit(id);
    if let Err(e) = r {
        return o.error("live session", e);
    }
    let waits: Vec<f64> = s
        .op_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| ms - handle_ms[i % 3])
        .collect();
    let stalled = s.op_ms.iter().filter(|&&ms| ms > live::STALL_MS).count();
    push(
        o,
        "serve.transport_wait_ms",
        median(&waits),
        "ms",
        waits.len(),
    );
    push(
        o,
        "serve.stalled_round_ratio",
        stalled as f64 / s.op_ms.len().max(1) as f64,
        "ratio",
        s.op_ms.len(),
    );
}

fn shard_pass(tr: &mut Tracer, o: &mut Outcome, seed: u64) {
    let sc = ShardedCampaign::new(sharded::config(seed, SHARD_ITERS));
    let expected = sc.config().shards as u64 * SHARD_ITERS;
    o.attempted += expected;
    let outcomes = match tr.time("shard.run_shards", || sc.run_shards(false)) {
        Ok(v) => v,
        Err(e) => return o.error("ShardedCampaign::run_shards", e),
    };
    match tr.time("shard.merge", || sc.merge(outcomes)) {
        Ok(report) => {
            o.checks.check(report.execs == expected, || {
                format!("merged {} execs, expected {expected}", report.execs)
            });
        }
        Err(e) => return o.error("ShardedCampaign::merge", e),
    }
    let (v, n) = mean_of(tr, "shard.run_shards", 1.0);
    push(o, "shard.run_shards_s", v, "s", n);
    let (v, n) = mean_of(tr, "shard.merge", 1e3);
    push(o, "shard.merge_ms", v, "ms", n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_mismatch_rejects_the_traced_run() {
        let untraced = Counts {
            execs: 100,
            admissions: 12,
            coverage_bits: 110,
            minimize_execs: 90,
            total_cycles: 5_000,
        };
        let mut ok = Outcome::default();
        assert!(check_counts(&mut ok, &untraced, &untraced));
        assert!(ok.correct());

        let mut planted = Outcome::default();
        let traced = Counts {
            admissions: 11,
            ..untraced
        };
        assert!(!check_counts(&mut planted, &traced, &untraced));
        assert!(!planted.correct());
        assert!(planted.checks.ok_ratio() < 1.0);
    }
}
