//! `hddbench`: closed-loop benchmark of the HDD scheduler.
//!
//! ```text
//! hddbench --workload <inventory|tree-readmostly>
//!          --seed <n> --seconds <s> --trace <0|1>
//! hddbench --smoke
//! ```
//!
//! Two workers drive pre-generated programs through
//! `sim::concurrent::run_concurrent`, each sending its next transaction
//! when the previous one finishes. A run repeats trials of a fixed
//! number of programs, each on a freshly set-up store, until `--seconds`
//! of driving time have passed, and reports medians over the trials.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs rounds of
//! plain, traced, mvto, log-captured and journaled trials and reports the
//! per-layer metrics. Every trial's output is checked. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--smoke` runs every workload at a small size in both modes and exits
//! non-zero unless every check passes and every metric is printed.

mod engine;
mod host;
mod metrics;
mod probe;
mod slots;
mod stats;
mod trace;
mod workload;

use engine::{Bench, Mode, Trial};
use metrics::{Round, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Kind;

/// Minimum measured trials in an untraced run, so its medians have
/// something to choose from.
const MIN_TRIALS: usize = 3;

/// Set-ups an untraced run aims for (trials included), and the time it
/// may spend on extra set-ups to get there.
const MIN_SETUPS: usize = 9;
const EXTRA_SETUP_BUDGET: Duration = Duration::from_secs(3);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Vec<Args>, String> {
    if argv.iter().any(|a| a == "--smoke") {
        return Ok(workload::ALL
            .into_iter()
            .flat_map(|kind| {
                [false, true].map(|trace| Args {
                    kind,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                })
            })
            .collect());
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(vec![Args {
        kind,
        seed,
        seconds,
        trace,
        smoke: false,
    }])
}

/// What a run prints last.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

/// Tally of every trial a run made, checked or not.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, t: &Trial) {
        self.attempted += t.offered;
        self.failed += t.failed();
    }
}

fn run(args: &Args, tmp: &std::path::Path) -> Outcome {
    let kind = args.kind;
    let scale = kind.scale(args.smoke);
    let programs = kind.programs(&scale, args.seed);
    let workload = kind.workload(&scale);
    let hierarchy = workload.hierarchy();
    let bench = Bench {
        kind,
        workload: workload.as_ref(),
        hierarchy: &hierarchy,
        tmp,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let names: &'static [(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let result = (|| -> Result<Vec<f64>, String> {
        // Warm-up: fault in the allocator's arenas and the code, untimed.
        let warm = bench.trial(Mode::Plain, &programs[..scale.warmup])?;
        tally.add(&warm);
        let mut setups = vec![warm.setup.as_secs_f64()];
        let mut measured = Duration::ZERO;
        if args.trace {
            let mut rounds = Vec::new();
            while rounds.is_empty() || measured < budget {
                let mut next = |mode, programs: &[_]| -> Result<Trial, String> {
                    let t = bench.trial(mode, programs)?;
                    tally.add(&t);
                    measured += t.run.elapsed;
                    Ok(t)
                };
                // Certifying a log costs far more than the run that made
                // it, so the log-captured leg uses the shorter certified
                // prefix, against a plain run of the same prefix.
                let prefix = &programs[..scale.certified];
                rounds.push(Round {
                    plain: next(Mode::Plain, &programs)?,
                    traced: next(Mode::Traced, &programs)?,
                    mvto: next(Mode::Mvto, &programs)?,
                    plain_prefix: next(Mode::Plain, prefix)?,
                    logged_prefix: next(Mode::Logged, prefix)?,
                    journaled: next(Mode::Journaled, &programs[..scale.journaled])?,
                });
            }
            Ok(metrics::per_layer(&rounds))
        } else {
            let mut trials = Vec::new();
            while trials.len() < MIN_TRIALS || measured < budget {
                let t = bench.trial(Mode::Plain, &programs)?;
                tally.add(&t);
                setups.push(t.setup.as_secs_f64());
                measured += t.run.elapsed;
                trials.push(t);
            }
            let rss = host::peak_rss_mb();
            let mut extra = Duration::ZERO;
            while setups.len() < MIN_SETUPS && extra < EXTRA_SETUP_BUDGET {
                let d = bench.setup_only()?;
                extra += d;
                setups.push(d.as_secs_f64());
            }
            // The certified run: the schedule log captured, then checked
            // for an acyclic MVSG and the partition-synchronisation rule.
            let cert = bench.trial(Mode::Logged, &programs[..scale.certified])?;
            tally.add(&cert);
            Ok(metrics::end_to_end(&trials, &setups, rss))
        }
    })();
    let (correct, values) = match result {
        Ok(values) => (true, values),
        Err(e) => {
            eprintln!("hddbench: check failed: {e}");
            (false, vec![0.0; names.len()])
        }
    };
    Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        names,
        values,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let runs = match parse_args(&argv) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hddbench: {e}");
            eprintln!(
                "usage: hddbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --smoke"
            );
            return ExitCode::from(2);
        }
    };
    // WAL files live in the working directory, never outside it.
    let tmp = PathBuf::from(".bench_tmp").join(format!("hddbench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("hddbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let fingerprint = host::fingerprint_json();
    let mut all_ok = true;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for args in &runs {
        let (steal0, t0) = (host::steal_seconds(), Instant::now());
        let out = run(args, &tmp);
        let steal_share =
            (host::steal_seconds() - steal0) / (cpus as f64 * t0.elapsed().as_secs_f64());
        println!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"steal_share\": {steal_share:.4}, \"host\": {fingerprint}}}",
            host::quote(args.kind.name()),
            args.seed,
            u8::from(args.trace)
        );
        println!(
            "{}",
            metrics::result_json(
                out.correct,
                out.attempted,
                out.failed,
                out.names,
                &out.values
            )
        );
        all_ok &= out.correct && out.attempted > 0;
    }
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
