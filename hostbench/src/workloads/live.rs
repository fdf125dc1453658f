//! `live` and `live1`: a `dma_lab::serve::Server` on loopback TCP and
//! one closed-loop client cycling `step` (16 iterations), `stats`, and
//! `health`.
//!
//! The campaign advances in small steps between many metric reads, so
//! serve framing, metric snapshots, and the transport all sit on the
//! round trip. The client sends its next request only after the
//! previous one's end marker arrived, and uses a plain socket: no
//! `TCP_QUICKACK`, no pipelining. Whatever the server's write pattern
//! costs in transport stalls is therefore part of every round.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dma_core::checkpoint::fnv64;
use dma_lab::serve::{ServeConfig, Server, END_MARKER};

use super::{push_end_to_end, push_percentile, reps_for, Samples, WARMUP_ITERS};
use crate::report::{check_identical, Outcome};

/// A traffic mix: the server's shard count and the client's request
/// cycle, whose first request is always a 16-iteration `step`.
pub struct Mix {
    pub shards: u32,
    pub requests: [&'static str; 3],
}

/// Two shards stepped round-robin; a poller that asks for metric
/// deltas, so every `stats` merges two shard snapshots and diffs the
/// result against the connection's previous one.
pub const LIVE: Mix = Mix {
    shards: 2,
    requests: [
        "{\"req\":\"step\",\"n\":16}",
        "{\"req\":\"stats\",\"mode\":\"delta\"}",
        "{\"req\":\"health\"}",
    ],
};

/// The `dma-lab serve` default of one shard; a dashboard that asks for
/// the full snapshot every time, so frames are larger and no merge or
/// diff runs.
pub const LIVE1: Mix = Mix {
    shards: 1,
    requests: [
        "{\"req\":\"step\",\"n\":16}",
        "{\"req\":\"stats\"}",
        "{\"req\":\"health\"}",
    ],
};

/// Iterations one `step` request asks for.
const STEP_N: u64 = 16;
/// Request cycles per repetition; each is three rounds.
pub const CYCLES: u64 = 40;
/// Nominal seconds per repetition on the reference host.
const REP_SECONDS: f64 = 5.7;
/// Set-up samples per run: repetitions, then set-up-only sessions.
const SETUP_SAMPLES: usize = 15;
/// A round that waits longer than this has hit the transport stall.
pub const STALL_MS: f64 = 35.0;

impl Mix {
    /// The server configuration of one repetition: a budget of exactly
    /// the iterations the client will request.
    pub fn serve_config(&self, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(seed, WARMUP_ITERS + CYCLES * STEP_N / self.shards as u64);
        cfg.shards = self.shards;
        cfg
    }

    /// The warm-up request: the first nine iterations of every shard, in
    /// which each shard boots its templates.
    pub fn warmup_request(&self) -> String {
        format!(
            "{{\"req\":\"step\",\"n\":{}}}",
            WARMUP_ITERS * self.shards as u64
        )
    }
}

/// A plain closed-loop line client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads frames up to and including the one
    /// carrying the end marker.
    fn round(&mut self, req: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{req}\n").as_bytes())?;
        let mut frames = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let frame = line.trim_end().to_string();
            let last = frame.ends_with(END_MARKER);
            frames.push(frame);
            if last {
                return Ok(frames);
            }
        }
    }
}

/// What one round's frames must show: an end marker, no error frame,
/// and for a `step` the requested iteration count.
pub struct RoundFacts {
    pub ended: bool,
    pub error: bool,
    /// `stepped.ran`, for step rounds.
    pub ran: Option<u64>,
    /// Taxonomy letters of finding frames.
    pub taxonomies: Vec<char>,
    /// `coverage_bits` of a health frame.
    pub coverage_bits: Option<u64>,
}

pub fn facts(frames: &[String]) -> RoundFacts {
    let mut f = RoundFacts {
        ended: frames.last().is_some_and(|l| l.ends_with(END_MARKER)),
        error: false,
        ran: None,
        taxonomies: Vec::new(),
        coverage_bits: None,
    };
    for frame in frames {
        let kind = frame_kind(frame);
        f.error |= kind == Some("error") || kind.is_none();
        if matches!(kind, Some("stepped" | "finding" | "health")) {
            let Ok(v) = dma_core::jsonr::parse(frame) else {
                f.error = true;
                continue;
            };
            match kind {
                Some("stepped") => f.ran = v.u64_field("ran"),
                Some("health") => f.coverage_bits = v.u64_field("coverage_bits"),
                _ => f
                    .taxonomies
                    .extend(v.str_field("taxonomy").and_then(|t| t.chars().next())),
            }
        }
    }
    f
}

/// The `frame` field of a frame, which the server always writes first.
fn frame_kind(frame: &str) -> Option<&str> {
    let rest = frame.strip_prefix("{\"frame\":\"")?;
    rest.split('"').next()
}

pub fn run(mix: &Mix, seed: u64, seconds: u64) -> Outcome {
    let mut o = Outcome::default();
    let mut s = Samples::default();
    let mut transcripts = Vec::new();
    let mut bits = 0;
    let mut classes = std::collections::BTreeSet::new();
    for rep in 0..reps_for(seconds, REP_SECONDS, 3) {
        o.attempted += CYCLES * mix.requests.len() as u64;
        match one_rep(mix, seed, CYCLES, &mut s, &mut o) {
            Ok(rep_facts) => {
                transcripts.push(rep_facts.transcript);
                bits = rep_facts.coverage_bits;
                classes.extend(rep_facts.taxonomies);
            }
            Err(e) => o.error(&format!("live repetition {rep}"), e),
        }
    }
    // Set-up is a few tens of ms, so extra set-up-only sessions are
    // cheap and steady its median.
    while s.setup_s.len() < SETUP_SAMPLES && o.errors == 0 {
        o.attempted += 1;
        if let Err(e) = one_rep(mix, seed, 0, &mut s, &mut o) {
            o.error("live set-up session", e);
        }
    }
    check_identical(&mut o.checks, "live transcript", &transcripts);
    push_percentile(&mut o, "round_p50_ms", &s.op_ms, 50.0, 1.0, "ms");
    push_percentile(&mut o, "round_p90_ms", &s.op_ms, 90.0, 1.0, "ms");
    push_end_to_end(&mut o, &s, bits as u32, classes.len());
    o
}

pub struct RepFacts {
    transcript: u64,
    coverage_bits: u64,
    taxonomies: Vec<char>,
}

/// One session: set-up (server, connection, warm-up step), then
/// `cycles` request cycles whose round times land in `s.op_ms` in
/// request order.
pub fn one_rep(
    mix: &Mix,
    seed: u64,
    cycles: u64,
    s: &mut Samples,
    o: &mut Outcome,
) -> std::io::Result<RepFacts> {
    let t0 = Instant::now();
    let server = Server::new(mix.serve_config(seed))
        .map_err(|e| std::io::Error::other(format!("Server::new: {e:?}")))?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // The server runs on this thread and the client on a helper: the
    // campaigns' memory then lives in the main allocator arena and is
    // reused by the next repetition, instead of stranding a fresh
    // per-thread arena each time and inflating peak RSS.
    std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            let result = drive(mix, addr, t0, cycles, s, o);
            // Dropping the client (inside `drive`) ends the connection,
            // which ends `serve`; if the client never connected, a
            // throwaway connection unblocks the server's accept.
            if result.is_err() {
                let _ = TcpStream::connect(addr);
            }
            result
        });
        let served = server.serve(listener, Some(1));
        let facts = client.join().expect("client thread panicked")?;
        served?;
        Ok(facts)
    })
}

fn drive(
    mix: &Mix,
    addr: std::net::SocketAddr,
    t0: Instant,
    cycles: u64,
    s: &mut Samples,
    o: &mut Outcome,
) -> std::io::Result<RepFacts> {
    let mut client = Client::connect(addr)?;
    let warm = client.round(&mix.warmup_request())?;
    s.setup_s.push(t0.elapsed().as_secs_f64());
    let mut transcript = fnv64(warm.join("\n").as_bytes());
    let warm_facts = facts(&warm);
    o.checks.check(
        warm_facts.ended
            && !warm_facts.error
            && warm_facts.ran == Some(WARMUP_ITERS * mix.shards as u64),
        || format!("warm-up step: {warm:?}"),
    );
    let mut ran_total = 0;
    let mut coverage_bits = 0;
    let mut taxonomies = warm_facts.taxonomies;
    let t1 = Instant::now();
    for cycle in 0..cycles {
        for req in mix.requests {
            let tr = Instant::now();
            let frames = client.round(req)?;
            s.op_ms.push(tr.elapsed().as_secs_f64() * 1e3);
            let f = facts(&frames);
            o.checks.check(f.ended && !f.error, || {
                format!("cycle {cycle} {req}: missing end marker or error frame: {frames:?}")
            });
            ran_total += f.ran.unwrap_or(0);
            coverage_bits = f.coverage_bits.unwrap_or(coverage_bits);
            taxonomies.extend(f.taxonomies);
            transcript = transcript.rotate_left(5) ^ fnv64(frames.join("\n").as_bytes());
        }
    }
    if cycles > 0 {
        s.iters_per_s
            .push(ran_total as f64 / t1.elapsed().as_secs_f64());
    }
    o.checks.check(ran_total == cycles * STEP_N, || {
        format!(
            "stepped.ran added up to {ran_total}, expected {}",
            cycles * STEP_N
        )
    });
    Ok(RepFacts {
        transcript,
        coverage_bits,
        taxonomies,
    })
}
