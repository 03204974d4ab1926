//! `hdd-top` — a live terminal dashboard over a running HDD scheduler.
//!
//! Spawns the closed-loop concurrent driver over a bundled workload
//! (with `--chaos`, under a seeded fault plan of worker crashes, stalls
//! and delayed commits), enables the `obs` sidecar, and redraws the
//! gauge board — time-wall lag, per-class `I_old`, registry and
//! settled-cursor lag, MV-store chain depth and GC backlog,
//! reject-reason deltas and the cross-read staleness quantiles — at
//! `--hz` frames per second (default 4). On exit it can dump the final
//! state as Prometheus text exposition (`--prom out.prom`) and the
//! decision trace as a Chrome/Perfetto trace (`--chrome-trace
//! out.json`), both validated before the process exits.
//!
//! ```text
//! cargo run --release -p sim --bin hdd-top -- --workload synthetic --duration-s 10
//! cargo run --release -p sim --bin hdd-top -- --chaos --frames 8 --no-clear
//! cargo run --release -p sim --bin hdd-top -- --frames 4 --prom out.prom --chrome-trace out.json
//! ```

use chaos::plan::{ChaosConfig, FaultPlan};
use hdd::protocol::HddConfig;
use obs::{chrome_trace, prometheus_text_full, validate_chrome_trace, validate_prometheus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::dashboard::{Dashboard, ANSI_CLEAR};
use sim::factory::build_hdd_with_config;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::Scheduler;
use workloads::banking::Banking;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

const USAGE: &str = "\
hdd-top — live gauge dashboard over a running HDD scheduler

USAGE:
  hdd-top [--workload inventory|banking|synthetic] [--workers N]
          [--txns N] [--duration-s F] [--hz F] [--frames N] [--once]
          [--chaos] [--no-clear] [--prom PATH] [--chrome-trace PATH]

OPTIONS:
  --workload NAME    bundled workload to drive (default: inventory)
  --workers N        driver worker threads (default: 4)
  --txns N           programs per driver wave (default: 2000)
  --duration-s F     stop after F seconds (default: 10)
  --hz F             frames per second (default: 4)
  --frames N         stop after N frames (default: duration-bound)
  --once             drive one bounded wave, render a single frame to
                     stderr and print a snapshot JSON object on stdout
  --chaos            inject seeded worker faults (crash, stall, delay)
                     under a 5 ms transaction lease the watchdog enforces
  --no-clear         append frames instead of clearing the screen
  --prom PATH        on exit, write Prometheus text exposition to PATH
  --chrome-trace PATH  on exit, write a Chrome/Perfetto trace to PATH
";

/// Driver settings for one wave of `txns` programs. With a fault-plan
/// seed (`--chaos`) the wave runs under that seeded plan with a 5 s
/// per-program deadline; the plan also gives the wave the driver's
/// fault drain, so the watchdog reaps end-of-wave corpses.
fn wave_config(workers: usize, txns: usize, fault_seed: Option<u64>) -> ConcurrentConfig {
    ConcurrentConfig {
        workers,
        obs: true,
        verify: false,
        capture_log: false,
        txn_deadline: fault_seed.map(|_| Duration::from_secs(5)),
        faults: fault_seed
            .map(|seed| Arc::new(FaultPlan::generate(seed, txns, &ChaosConfig::default()))),
        ..ConcurrentConfig::default()
    }
}

struct Opts {
    workload: String,
    workers: usize,
    txns: usize,
    duration_s: f64,
    hz: f64,
    frames: Option<u64>,
    once: bool,
    chaos: bool,
    no_clear: bool,
    prom: Option<String>,
    chrome: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: "inventory".to_string(),
        workers: 4,
        txns: 2000,
        duration_s: 10.0,
        hz: 4.0,
        frames: None,
        once: false,
        chaos: false,
        no_clear: false,
        prom: None,
        chrome: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                o.workload = value(&args, i, "--workload")?;
                i += 1;
            }
            "--workers" => {
                o.workers = value(&args, i, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                i += 1;
            }
            "--txns" => {
                o.txns = value(&args, i, "--txns")?
                    .parse()
                    .map_err(|e| format!("--txns: {e}"))?;
                i += 1;
            }
            "--duration-s" => {
                o.duration_s = value(&args, i, "--duration-s")?
                    .parse()
                    .map_err(|e| format!("--duration-s: {e}"))?;
                i += 1;
            }
            "--hz" => {
                o.hz = value(&args, i, "--hz")?
                    .parse()
                    .map_err(|e| format!("--hz: {e}"))?;
                i += 1;
            }
            "--frames" => {
                o.frames = Some(
                    value(&args, i, "--frames")?
                        .parse()
                        .map_err(|e| format!("--frames: {e}"))?,
                );
                i += 1;
            }
            "--once" => o.once = true,
            "--chaos" => o.chaos = true,
            "--no-clear" => o.no_clear = true,
            "--prom" => {
                o.prom = Some(value(&args, i, "--prom")?);
                i += 1;
            }
            "--chrome-trace" => {
                o.chrome = Some(value(&args, i, "--chrome-trace")?);
                i += 1;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if o.hz <= 0.0 {
        return Err("--hz must be positive".to_string());
    }
    Ok(o)
}

fn build_workload(name: &str) -> Result<Box<dyn Workload + Send>, String> {
    match name {
        "inventory" => Ok(Box::new(Inventory::new(InventoryConfig {
            items: 32,
            ..InventoryConfig::default()
        }))),
        "banking" => Ok(Box::new(Banking::new(16))),
        "synthetic" => Ok(Box::new(Synthetic::new(SyntheticConfig::default()))),
        other => Err(format!(
            "unknown workload {other} (inventory|banking|synthetic)"
        )),
    }
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hdd-top: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut w = match build_workload(&opts.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("hdd-top: {e}");
            std::process::exit(2);
        }
    };
    let segment_names = w.segment_names();
    // Under --chaos a transaction lease arms the straggler watchdog:
    // without it a crashed worker's registry entry pins the time wall
    // for the rest of the run.
    let config = HddConfig {
        txn_lease: opts.chaos.then_some(Duration::from_millis(5)),
        ..HddConfig::default()
    };
    let (sched, _store, hierarchy) = build_hdd_with_config(w.as_ref(), config);
    // The driver also sets this per wave, but turning it on up front
    // means the very first frame already sees live gauges. The drift
    // sketch has its own switch and only hdd-top turns it on.
    sched.metrics().obs.set_enabled(true);
    sched.metrics().obs.drift.set_enabled(true);

    let faults = if opts.chaos { ", faults" } else { "" };
    let title = format!(
        "{} (concurrent driver{faults}, {} workers)",
        opts.workload, opts.workers
    );

    if opts.once {
        // One bounded wave, one frame (stderr), one JSON object
        // (stdout) — the machine-readable path for scripts and CI.
        let mut rng = StdRng::seed_from_u64(0x70D0_0001);
        let programs: Vec<_> = (0..opts.txns).map(|_| w.generate(&mut rng)).collect();
        let cfg = wave_config(opts.workers, opts.txns, opts.chaos.then_some(0x70D0_1000));
        run_concurrent(sched.as_ref(), programs, &cfg);
        sched.refresh_gauges_now();
        sched.refresh_drift_now();
        let mut dash =
            Dashboard::new(&title, segment_names.clone()).with_hierarchy(Arc::clone(&hierarchy));
        eprint!("{}", dash.frame(sched.metrics()));
        let m = sched.metrics().snapshot();
        println!(
            "{{\"workload\": \"{}\", \"commits\": {}, \"aborts\": {}, \"rejections\": {}, \
             \"gauges\": {}, \"drift\": {}, \"obs\": {}}}",
            opts.workload,
            m.commits,
            m.aborts,
            m.rejections,
            sched.metrics().obs.gauges.snapshot().to_json(),
            sched.metrics().obs.drift.snapshot().to_json(),
            sched.metrics().obs.snapshot().to_json(),
        );
        return;
    }

    let stop = AtomicBool::new(false);
    let mut frames_rendered = 0u64;

    std::thread::scope(|scope| {
        // Driver thread: seeded waves of programs until told to stop.
        // A wave is bounded (`--txns`), so stopping waits at most one
        // wave, never mid-transaction.
        let sched_ref = &sched;
        let stop_ref = &stop;
        let w = &mut w;
        let driver_opts = (opts.workers, opts.txns, opts.chaos);
        scope.spawn(move || {
            let (workers, txns, chaos_mode) = driver_opts;
            let mut rng = StdRng::seed_from_u64(0x70D0_0001);
            let mut wave = 0u64;
            // ordering: Relaxed — advisory stop flag; the generator may
            // run one extra wave after the store, which is harmless.
            while !stop_ref.load(Ordering::Relaxed) {
                let programs: Vec<_> = (0..txns).map(|_| w.generate(&mut rng)).collect();
                let cfg = wave_config(workers, txns, chaos_mode.then_some(0x70D0_1000 ^ wave));
                run_concurrent(sched_ref.as_ref(), programs, &cfg);
                wave += 1;
            }
        });

        // Sampler: redraw the board at --hz until the duration or frame
        // budget runs out.
        let mut dash =
            Dashboard::new(&title, segment_names.clone()).with_hierarchy(Arc::clone(&hierarchy));
        let interval = Duration::from_secs_f64(1.0 / opts.hz);
        let deadline = Instant::now() + Duration::from_secs_f64(opts.duration_s);
        loop {
            std::thread::sleep(interval);
            // Force a full gauge refresh (walls, registry, store scan)
            // so the frame is not waiting on the maintenance cadence.
            sched.refresh_gauges_now();
            let text = dash.frame(sched.metrics());
            let mut out = std::io::stdout().lock();
            if !opts.no_clear {
                let _ = out.write_all(ANSI_CLEAR.as_bytes());
            }
            let _ = out.write_all(text.as_bytes());
            let _ = out.flush();
            frames_rendered += 1;
            let frame_budget_hit = opts.frames.is_some_and(|f| frames_rendered >= f);
            if frame_budget_hit || Instant::now() >= deadline {
                break;
            }
        }
        // ordering: Relaxed — advisory stop flag (see the load above);
        // scope join provides the final synchronization.
        stop.store(true, Ordering::Relaxed);
    });

    // Final exports, validated before we claim success.
    let mut failed = false;
    sched.refresh_gauges_now();
    if let Some(path) = &opts.prom {
        let counters = sched.metrics().snapshot().counter_pairs();
        let text = prometheus_text_full(
            &counters,
            &sched.metrics().obs.snapshot(),
            &sched.metrics().obs.gauges.snapshot(),
            Some(&sched.metrics().obs.drift.snapshot()),
        );
        match validate_prometheus(&text) {
            Ok(stats) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("hdd-top: could not write {path}: {e}");
                    failed = true;
                } else {
                    println!(
                        "hdd-top: wrote {path} ({} families, {} samples)",
                        stats.families, stats.samples
                    );
                }
            }
            Err(e) => {
                eprintln!("hdd-top: generated Prometheus text is invalid: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.chrome {
        let events = sched.metrics().obs.trace.drain();
        let text = chrome_trace(&events);
        match validate_chrome_trace(&text) {
            Ok(n) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("hdd-top: could not write {path}: {e}");
                    failed = true;
                } else {
                    println!("hdd-top: wrote {path} ({n} trace events)");
                }
            }
            Err(e) => {
                eprintln!("hdd-top: generated Chrome trace is invalid: {e}");
                failed = true;
            }
        }
    }
    let m = sched.metrics().snapshot();
    println!(
        "hdd-top: {frames_rendered} frames, {} commits, {} aborts, {} rejections ({})",
        m.commits,
        m.aborts,
        m.rejections,
        m.rejection_breakdown()
    );
    if failed {
        std::process::exit(1);
    }
}
