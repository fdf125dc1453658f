//! Host-time benchmark for dma-lab.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload campaign|sharded|resume|live|live1 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the workload runs untraced and the result line
//! carries the end-to-end metrics; with `--trace 1` the layer-by-layer
//! traced run executes instead and the result line carries the
//! per-layer metrics. A human-readable table with units and sample
//! counts precedes the result line, which is always the last line of
//! standard output. See `hostbench/README.md` for the workloads, the
//! metrics, and what each layer metric is expected to move.

mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::Outcome;

/// Seed of the pinned campaign the repository's figures use.
const DEFAULT_SEED: u64 = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    Sharded,
    Resume,
    Live,
    Live1,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "campaign" => Workload::Campaign,
            "sharded" => Workload::Sharded,
            "resume" => Workload::Resume,
            "live" => Workload::Live,
            "live1" => Workload::Live1,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Sharded => "sharded",
            Workload::Resume => "resume",
            Workload::Live => "live",
            Workload::Live1 => "live1",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload campaign|sharded|resume|live|live1 \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome: Outcome = if args.trace {
        layers::run(args.seed)
    } else {
        match args.workload {
            Workload::Campaign => workloads::campaign::run(args.seed, args.seconds),
            Workload::Sharded => workloads::sharded::run(args.seed, args.seconds),
            Workload::Resume => workloads::resume::run(args.seed, args.seconds),
            Workload::Live => workloads::live::run(&workloads::live::LIVE, args.seed, args.seconds),
            Workload::Live1 => {
                workloads::live::run(&workloads::live::LIVE1, args.seed, args.seconds)
            }
        }
    };
    println!(
        "hostbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::nproc()
    );
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = args("--workload live --seed 3 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Live);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 12, true));
        let d = args("--workload campaign").unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload resume --seed x").is_err());
        assert!(args("--workload resume --trace 2").is_err());
        assert!(args("--workload resume --bogus 1").is_err());
        assert!(args("--workload resume --seed").is_err());
    }
}
