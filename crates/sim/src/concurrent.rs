//! Multi-threaded closed-loop driver for wall-clock throughput runs.
//!
//! `workers` threads claim transaction programs off a shared slice via a
//! single atomic cursor — no queue mutex, no per-claim allocation — and
//! drive them to commit, retrying blocked operations under bounded
//! exponential backoff and restarting aborted ones. A coordinator thread
//! ticks the scheduler's maintenance hook until every worker exits.
//! Semantics match the deterministic driver; only the interleaving
//! source differs.

use crate::driver::RunStats;
use obs::{SpanEvent, SpanKind, Terminal, NO_CLASS};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::program::ReadCtx;
use txn_model::{
    CommitOutcome, DependencyGraph, GroupCommitWal, ReadOutcome, ScheduleEvent, Scheduler, Step,
    TxnProgram, WriteOutcome,
};

/// Concurrent driver configuration.
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Worker threads.
    pub workers: usize,
    /// Restart budget per program.
    pub max_restarts: usize,
    /// Maintenance tick interval.
    pub maintenance_interval: Duration,
    /// Verify serializability afterwards.
    pub verify: bool,
    /// Record schedule events. Turning this off disables the scheduler's
    /// log for the run (pure-throughput mode) and implies no
    /// verification.
    pub capture_log: bool,
    /// Enable the scheduler's observability sidecar for this run: the
    /// driver then records commit latency (claim → commit, retries
    /// included), per-operation service time, block-wait spans and
    /// backoff sleeps into `scheduler.metrics().obs`. Off by default —
    /// disabled recording costs one branch per claimed program.
    pub obs: bool,
    /// Per-transaction deadline, measured from program claim and
    /// spanning all retries. A program still blocked or restarting past
    /// its deadline is aborted and counted in
    /// [`RunStats::deadline_exceeded`] rather than spinning without
    /// bound (a wedged scheduler otherwise hangs the whole run). `None`
    /// disables the deadline.
    pub txn_deadline: Option<Duration>,
    /// Flight-recorder sampling stride, applied when `obs` is on: `N`
    /// traces every Nth transaction attempt fully (admission, op and
    /// wait spans, terminal) while the other N−1 run counter-only —
    /// including the scheduler's per-op decision traces, which follow
    /// the same stride. 0 (the default) leaves the recorder untouched:
    /// plain obs mode, exactly as before the flight recorder existed.
    pub flight_sample: u64,
    /// Group-commit WAL: when set, each worker journals its update
    /// transaction's redo events (`Begin`, accepted `Write`s, `Commit`)
    /// through the WAL after the in-memory commit and counts the commit
    /// only once its batch is durable — the *group-commit ack rule*.
    /// Read-only transactions skip the WAL. A submit that fails because
    /// the WAL crashed lands in [`ConcurrentStats::wal_lost`] instead of
    /// `committed`.
    pub wal: Option<Arc<GroupCommitWal>>,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            workers: 4,
            max_restarts: 100,
            maintenance_interval: Duration::from_micros(50),
            verify: true,
            capture_log: true,
            obs: false,
            txn_deadline: None,
            flight_sample: 0,
            wal: None,
        }
    }
}

/// True when a per-transaction deadline is set and has passed.
#[inline]
fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Bounded exponential backoff for Block outcomes: a few spin hints,
/// then sleeps doubling from 1 µs up to a 256 µs ceiling. Keeps blocked
/// workers off the contended state without unbounded busy-waiting (on
/// oversubscribed machines, plain `yield_now` thrashes the scheduler).
/// Returns the requested sleep (ZERO while still spinning) so callers
/// can account backoff pressure.
fn backoff(spins: u32) -> Duration {
    if spins <= 3 {
        std::hint::spin_loop();
        Duration::ZERO
    } else {
        let exp = (spins - 4).min(8); // 1 µs << 8 = 256 µs ceiling
        let d = Duration::from_micros(1u64 << exp);
        std::thread::sleep(d);
        d
    }
}

/// Run `f`, recording its wall time into `hist` when `on`.
#[inline]
fn timed<T>(on: bool, hist: &obs::LatencyRecorder, f: impl FnOnce() -> T) -> T {
    if on {
        let t = Instant::now();
        let r = f();
        hist.record(t.elapsed().as_nanos() as u64);
        r
    } else {
        f()
    }
}

/// Drop guard: the last worker to exit stops the maintenance ticker.
struct WorkerGuard<'a> {
    active: &'a AtomicUsize,
    done: &'a AtomicBool,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done.store(true, Ordering::Release);
        }
    }
}

/// Gate for oversubscribed stress/sweep legs: `Some(requested)` when the
/// host can meaningfully run `requested` workers (mild oversubscription
/// is the point of the high legs, so anything up to 8× the available
/// parallelism passes), `None` when the leg should be skipped — on a
/// 1–2 core machine a 16/32-worker leg measures scheduler thrash and
/// can run for minutes without saying anything about the protocol.
pub fn capped_workers(requested: usize) -> Option<usize> {
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (requested <= avail.saturating_mul(8)).then_some(requested)
}

/// Result of a concurrent run: the shared [`RunStats`] plus wall time.
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Common counters (steps counts operation attempts).
    pub stats: RunStats,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Committed transactions per second (durable commits only when a
    /// WAL is configured).
    pub throughput: f64,
    /// Commits whose durability ack failed because the WAL crashed
    /// (committed in memory, not on disk; excluded from `committed`).
    /// Always 0 without a WAL.
    pub wal_lost: usize,
}

/// Run `programs` across threads.
pub fn run_concurrent(
    scheduler: &dyn Scheduler,
    programs: Vec<TxnProgram>,
    cfg: &ConcurrentConfig,
) -> ConcurrentStats {
    if !cfg.capture_log {
        scheduler.log().set_enabled(false);
    }
    if cfg.obs {
        scheduler.metrics().obs.set_enabled(true);
    }
    if cfg.flight_sample > 0 {
        scheduler
            .metrics()
            .obs
            .flight
            .set_sample_every(cfg.flight_sample);
    }
    // One load up front: the flag is stable for the whole run, so the
    // disabled path costs a branch per operation, not an atomic load.
    let obs_on = scheduler.metrics().obs.enabled();
    let mobs = &scheduler.metrics().obs;
    // Sampled mode: every Nth transaction attempt gets the full span
    // treatment, the rest stay counter-only (op timing included — that
    // is what keeps sampled-mode overhead near the disabled baseline).
    let flight_on = obs_on && mobs.flight.active();
    let programs = &programs[..];
    let cursor = AtomicUsize::new(0);
    let restarts = AtomicUsize::new(0);
    let gave_up = AtomicUsize::new(0);
    let deadline_exceeded = AtomicUsize::new(0);
    let wal_lost = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let active_workers = AtomicUsize::new(cfg.workers);
    // Reference bindings so the worker closures can be `move` (they
    // need their worker index by value) while sharing the counters.
    let (cursor, restarts, gave_up, deadline_exceeded, wal_lost, done, active_workers) = (
        &cursor,
        &restarts,
        &gave_up,
        &deadline_exceeded,
        &wal_lost,
        &done,
        &active_workers,
    );
    let wal = cfg.wal.as_deref();

    let start = Instant::now();
    let (steps, committed) = std::thread::scope(|scope| {
        // Maintenance ticker: runs until every worker has exited, so a
        // worker blocked on maintenance-driven state (time-wall release,
        // lock queues) always makes progress eventually.
        scope.spawn(|| {
            // ordering: Relaxed — advisory stop flag; one extra iteration after the store is harmless.
            while !done.load(Ordering::Relaxed) {
                scheduler.maintenance();
                std::thread::sleep(cfg.maintenance_interval);
            }
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for wi in 0..cfg.workers {
            workers.push(scope.spawn(move || {
                let _guard = WorkerGuard {
                    active: active_workers,
                    done,
                };
                // Operation attempts and commits stay worker-local (no
                // shared cache line written per operation) and are
                // summed when the workers join.
                let mut steps = 0u64;
                let mut committed = 0usize;
                // Close a sampled flight (each begin is its own flight;
                // restarts begin fresh transactions, hence fresh
                // flights).
                let flight_end = |traced: bool, txn: u64, terminal: Terminal| {
                    if traced {
                        mobs.flight.push(SpanEvent::End {
                            txn,
                            at_ns: mobs.flight.now_ns(),
                            terminal,
                        });
                    }
                };
                loop {
                    // Claim the next program: one uncontended fetch_add.
                    // ordering: Relaxed — work-claim ticket; uniqueness comes from fetch_add atomicity and the claimed program is immutable.
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(program) = programs.get(idx) else {
                        break;
                    };
                    if obs_on {
                        // Driver-progress gauge for hdd-top: two relaxed
                        // stores, works for any scheduler (the board's
                        // global cells need no configuration).
                        mobs.gauges
                            .set_driver_progress(idx as u64 + 1, programs.len() as u64);
                    }
                    // Commit latency spans the whole program: claim to
                    // commit, across aborts/restarts.
                    let claimed_at = obs_on.then(Instant::now);
                    // The deadline spans the program's whole life too:
                    // restarts don't reset it.
                    let deadline = cfg.txn_deadline.map(|d| Instant::now() + d);
                    let mut tries = 0usize;
                    'retry: loop {
                        let handle = scheduler.begin(&program.profile);
                        // Admission: every attempt is its own flight
                        // (`begin` draws a fresh id); `admit` counts it
                        // and returns true when it falls on the stride.
                        let traced = flight_on
                            && mobs.flight.admit(
                                handle.id.0,
                                handle.class.map_or(NO_CLASS, |c| c.0),
                                wi as u32,
                            );
                        // In sampled mode, unsampled transactions skip
                        // op timing too (counter-only hot path).
                        let time_ops = obs_on && (!flight_on || traced);
                        // Redo events for the durability submit. A
                        // restart begins a fresh transaction and thus a
                        // fresh journal; read-only transactions skip
                        // the WAL.
                        let journal = wal.is_some() && handle.class.is_some();
                        let mut redo: Vec<ScheduleEvent> = Vec::new();
                        if journal {
                            redo.push(ScheduleEvent::Begin {
                                txn: handle.id,
                                start_ts: handle.start_ts,
                                class: handle.class,
                            });
                        }
                        let mut ctx = ReadCtx::default();
                        let mut pc = 0usize;
                        let mut spins = 0u32;
                        // Start of the current contiguous Block streak,
                        // plus its flight-clock twin and the portion
                        // actually slept (for the wait span).
                        let mut block_since: Option<Instant> = None;
                        let mut streak_start_ns: Option<u64> = None;
                        let mut streak_slept_ns = 0u64;
                        while pc < program.steps.len() {
                            steps += 1;
                            let span_start = traced.then(|| mobs.flight.now_ns());
                            let outcome_block = match &program.steps[pc] {
                                Step::Read(g) => match timed(time_ops, &mobs.op_service, || {
                                    scheduler.read(&handle, *g)
                                }) {
                                    ReadOutcome::Value(v) => {
                                        if let Some(s) = span_start {
                                            mobs.flight.push(SpanEvent::Op {
                                                txn: handle.id.0,
                                                kind: SpanKind::Read,
                                                segment: g.segment.0,
                                                key: g.key,
                                                start_ns: s,
                                                dur_ns: mobs.flight.now_ns().saturating_sub(s),
                                            });
                                        }
                                        ctx.record(*g, v);
                                        pc += 1;
                                        spins = 0;
                                        false
                                    }
                                    ReadOutcome::Block => true,
                                    ReadOutcome::Abort => {
                                        scheduler.abort(&handle);
                                        tries += 1;
                                        if past(deadline) {
                                            // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                            deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                            flight_end(
                                                traced,
                                                handle.id.0,
                                                Terminal::DeadlineExceeded,
                                            );
                                            break 'retry;
                                        }
                                        if tries > cfg.max_restarts {
                                            gave_up.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                                            flight_end(traced, handle.id.0, Terminal::GaveUp);
                                            break 'retry;
                                        }
                                        // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                        restarts.fetch_add(1, Ordering::Relaxed);
                                        flight_end(traced, handle.id.0, Terminal::Aborted);
                                        continue 'retry;
                                    }
                                },
                                Step::Write(g, src) => {
                                    let v = src.resolve(&ctx);
                                    let journaled = if journal {
                                        Some(Arc::new(v.clone()))
                                    } else {
                                        None
                                    };
                                    match timed(time_ops, &mobs.op_service, || {
                                        scheduler.write(&handle, *g, v)
                                    }) {
                                        WriteOutcome::Done => {
                                            if let Some(value) = journaled {
                                                redo.push(ScheduleEvent::Write {
                                                    txn: handle.id,
                                                    granule: *g,
                                                    version: handle.start_ts,
                                                    value,
                                                });
                                            }
                                            if let Some(s) = span_start {
                                                mobs.flight.push(SpanEvent::Op {
                                                    txn: handle.id.0,
                                                    kind: SpanKind::Write,
                                                    segment: g.segment.0,
                                                    key: g.key,
                                                    start_ns: s,
                                                    dur_ns: mobs.flight.now_ns().saturating_sub(s),
                                                });
                                            }
                                            pc += 1;
                                            spins = 0;
                                            false
                                        }
                                        WriteOutcome::Block => true,
                                        WriteOutcome::Abort => {
                                            scheduler.abort(&handle);
                                            tries += 1;
                                            if past(deadline) {
                                                // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                                deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                                flight_end(
                                                    traced,
                                                    handle.id.0,
                                                    Terminal::DeadlineExceeded,
                                                );
                                                break 'retry;
                                            }
                                            if tries > cfg.max_restarts {
                                                gave_up.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                                                flight_end(traced, handle.id.0, Terminal::GaveUp);
                                                break 'retry;
                                            }
                                            // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                            restarts.fetch_add(1, Ordering::Relaxed);
                                            flight_end(traced, handle.id.0, Terminal::Aborted);
                                            continue 'retry;
                                        }
                                    }
                                }
                            };
                            if outcome_block {
                                if past(deadline) {
                                    scheduler.abort(&handle);
                                    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                    deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                    flight_end(traced, handle.id.0, Terminal::DeadlineExceeded);
                                    break 'retry;
                                }
                                if obs_on && block_since.is_none() {
                                    block_since = Some(Instant::now());
                                    if traced {
                                        streak_start_ns = span_start;
                                        streak_slept_ns = 0;
                                    }
                                }
                                spins += 1;
                                let slept = backoff(spins);
                                if obs_on && !slept.is_zero() {
                                    mobs.backoff_sleep.record(slept.as_nanos() as u64);
                                    streak_slept_ns += slept.as_nanos() as u64;
                                }
                            } else if let Some(t) = block_since.take() {
                                let dur_ns = t.elapsed().as_nanos() as u64;
                                mobs.block_wait.record(dur_ns);
                                if let Some(s) = streak_start_ns.take() {
                                    mobs.flight.push(SpanEvent::Wait {
                                        txn: handle.id.0,
                                        start_ns: s,
                                        dur_ns,
                                        slept_ns: streak_slept_ns,
                                    });
                                }
                            }
                        }
                        // Commit loop.
                        let mut commit_spins = 0u32;
                        let mut commit_block_since: Option<Instant> = None;
                        let mut commit_streak_start_ns: Option<u64> = None;
                        let mut commit_streak_slept_ns = 0u64;
                        loop {
                            steps += 1;
                            let span_start = traced.then(|| mobs.flight.now_ns());
                            match timed(time_ops, &mobs.op_service, || scheduler.commit(&handle)) {
                                CommitOutcome::Committed(commit_ts) => {
                                    // Group-commit ack rule: the commit
                                    // counts only once its batch is on
                                    // disk.
                                    if journal {
                                        redo.push(ScheduleEvent::Commit {
                                            txn: handle.id,
                                            commit_ts,
                                        });
                                        match wal.expect("journal implies wal").submit(&redo) {
                                            Ok(Some(ack)) => mobs.gauges.record_wal_batch(
                                                ack.frames as u64,
                                                ack.bytes as u64,
                                                ack.fsync_ns,
                                            ),
                                            Ok(None) => {}
                                            Err(_) => {
                                                // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                                wal_lost.fetch_add(1, Ordering::Relaxed);
                                                flight_end(
                                                    traced,
                                                    handle.id.0,
                                                    Terminal::Committed,
                                                );
                                                break 'retry;
                                            }
                                        }
                                    }
                                    committed += 1;
                                    if let Some(t) = commit_block_since.take() {
                                        let dur_ns = t.elapsed().as_nanos() as u64;
                                        mobs.block_wait.record(dur_ns);
                                        if let Some(s) = commit_streak_start_ns.take() {
                                            mobs.flight.push(SpanEvent::Wait {
                                                txn: handle.id.0,
                                                start_ns: s,
                                                dur_ns,
                                                slept_ns: commit_streak_slept_ns,
                                            });
                                        }
                                    }
                                    if let Some(s) = span_start {
                                        mobs.flight.push(SpanEvent::Op {
                                            txn: handle.id.0,
                                            kind: SpanKind::Commit,
                                            segment: 0,
                                            key: 0,
                                            start_ns: s,
                                            dur_ns: mobs.flight.now_ns().saturating_sub(s),
                                        });
                                    }
                                    if let Some(t) = claimed_at {
                                        mobs.commit_latency.record(t.elapsed().as_nanos() as u64);
                                    }
                                    flight_end(traced, handle.id.0, Terminal::Committed);
                                    break 'retry;
                                }
                                CommitOutcome::Block => {
                                    if past(deadline) {
                                        scheduler.abort(&handle);
                                        // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                        deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                        flight_end(traced, handle.id.0, Terminal::DeadlineExceeded);
                                        break 'retry;
                                    }
                                    if obs_on && commit_block_since.is_none() {
                                        commit_block_since = Some(Instant::now());
                                        if traced {
                                            commit_streak_start_ns = span_start;
                                            commit_streak_slept_ns = 0;
                                        }
                                    }
                                    commit_spins += 1;
                                    let slept = backoff(commit_spins);
                                    if obs_on && !slept.is_zero() {
                                        mobs.backoff_sleep.record(slept.as_nanos() as u64);
                                        commit_streak_slept_ns += slept.as_nanos() as u64;
                                    }
                                }
                                CommitOutcome::Aborted => {
                                    tries += 1;
                                    if past(deadline) {
                                        // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                        deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                        flight_end(traced, handle.id.0, Terminal::DeadlineExceeded);
                                        break 'retry;
                                    }
                                    if tries > cfg.max_restarts {
                                        gave_up.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                                        flight_end(traced, handle.id.0, Terminal::GaveUp);
                                        break 'retry;
                                    }
                                    restarts.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                                    flight_end(traced, handle.id.0, Terminal::Aborted);
                                    continue 'retry;
                                }
                            }
                        }
                    }
                }
                (steps, committed)
            }));
        }
        workers.into_iter().fold((0, 0), |(steps, committed), w| {
            let (s, c) = w.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            (steps + s, committed + c)
        })
    });
    // ordering: Relaxed — advisory stop flag; the scope join below/above is the real synchronization.
    done.store(true, Ordering::Relaxed);
    let elapsed = start.elapsed();

    let mut stats = RunStats {
        committed,
        restarts: restarts.load(Ordering::Relaxed), // ordering: read after the worker scope joined
        gave_up: gave_up.load(Ordering::Relaxed),   // ordering: read after the worker scope joined
        deadline_exceeded: deadline_exceeded.load(Ordering::Relaxed), // ordering: read after the worker scope joined
        stalled: 0,
        steps,
        metrics: scheduler.metrics().snapshot(),
        serializable: None,
        cycle: None,
    };
    if cfg.verify && cfg.capture_log {
        let dg = DependencyGraph::from_log(scheduler.log());
        stats.cycle = dg.find_cycle();
        stats.serializable = Some(stats.cycle.is_none());
    }
    ConcurrentStats {
        throughput: committed as f64 / elapsed.as_secs_f64().max(1e-9),
        stats,
        elapsed,
        // ordering: Relaxed — read after the worker scope joined; the join edge orders every counter write before it.
        wal_lost: wal_lost.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_scheduler, SchedulerKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicU64;
    use workloads::banking::Banking;
    use workloads::inventory::{Inventory, InventoryConfig};
    use workloads::Workload;

    #[test]
    fn concurrent_hdd_banking_serializable() {
        let mut w = Banking::new(16);
        let mut rng = StdRng::seed_from_u64(9);
        let programs: Vec<_> = (0..200).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let out = run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
        assert_eq!(out.stats.gave_up, 0);
        assert_eq!(out.stats.committed, 200);
        assert_eq!(out.stats.serializable, Some(true), "{:?}", out.stats.cycle);
        assert!(out.throughput > 0.0);
    }

    #[test]
    fn concurrent_inventory_under_2pl_and_hdd() {
        for kind in [SchedulerKind::TwoPl, SchedulerKind::Hdd] {
            let mut w = Inventory::new(InventoryConfig {
                items: 16,
                ..InventoryConfig::default()
            });
            let mut rng = StdRng::seed_from_u64(21);
            let programs: Vec<_> = (0..150).map(|_| w.generate(&mut rng)).collect();
            let (sched, _store) = build_scheduler(kind, &w);
            let out = run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
            assert_eq!(
                out.stats.serializable,
                Some(true),
                "{} cycle: {:?}",
                kind.name(),
                out.stats.cycle
            );
            assert!(out.stats.committed > 0);
        }
    }

    #[test]
    fn wal_mode_journals_every_commit_durably() {
        use txn_model::{decode_wal, GroupCommitConfig};

        let dir = std::env::temp_dir().join(format!("sim-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.wal");
        let wal = Arc::new(
            GroupCommitWal::create(
                &path,
                GroupCommitConfig {
                    max_batch_frames: 8,
                    ..GroupCommitConfig::default()
                },
            )
            .unwrap(),
        );

        let mut w = Banking::new(16);
        let mut rng = StdRng::seed_from_u64(41);
        let programs: Vec<_> = (0..120).map(|_| w.generate(&mut rng)).collect();
        let (sched, store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 120);
        assert_eq!(out.wal_lost, 0);
        assert_eq!(out.stats.serializable, Some(true));

        // The on-disk WAL carries exactly one Commit per counted commit
        // and replays to the same balances the store holds.
        let bytes = std::fs::read(&path).unwrap();
        let (events, report) = decode_wal(&bytes).unwrap();
        assert!(!report.torn());
        let commits = events
            .iter()
            .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
            .count();
        assert_eq!(commits, 120);
        let replayed = mvstore::MvStore::new();
        w.seed(&replayed);
        mvstore::recover(&replayed, &events);
        assert_eq!(
            w.total_balance(&replayed),
            w.total_balance(store.as_ref()),
            "WAL replay reconstructs the committed state"
        );

        // Group commit amortized fsyncs: fewer batches than frames.
        let stats = wal.stats();
        assert!(stats.frames > stats.batches, "{stats:?}");
        let gauges = sched.metrics().obs.gauges.snapshot();
        assert_eq!(gauges.wal_batches, stats.batches);
        assert!(gauges.fsync_ns.count > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_mode_records_latencies_per_commit() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(13);
        let programs: Vec<_> = (0..80).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        let snap = sched.metrics().obs.snapshot();
        assert_eq!(out.stats.committed, 80);
        assert_eq!(
            snap.commit_latency.count, 80,
            "one commit-latency sample per committed program"
        );
        assert!(
            snap.op_service.count >= out.stats.steps,
            "every attempted operation is timed"
        );
        assert!(snap.commit_latency.p50() > 0);
    }

    #[test]
    fn flight_sampling_records_span_trees_that_all_terminate() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(17);
        let programs: Vec<_> = (0..60).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            flight_sample: 1,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 60);
        let fr = &sched.metrics().obs.flight;
        assert!(fr.admitted() >= 60, "every attempt is admitted");
        assert_eq!(fr.dropped(), 0, "small run must fit the ring");
        let log = obs::assemble(&fr.drain());
        assert_eq!(log.open, 0, "no span leaks: every flight terminates");
        let committed: Vec<_> = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(obs::Terminal::Committed))
            .collect();
        assert_eq!(committed.len(), 60);
        for f in &committed {
            assert!(
                f.ops.iter().any(|o| o.kind == obs::SpanKind::Commit),
                "committed flight without a commit span"
            );
            assert!(f.ops.len() >= 2, "reads/writes plus commit");
        }
        // The exporter renders the log and self-validates.
        let trace = obs::flight_chrome_trace(&log);
        assert!(obs::validate_chrome_trace(&trace).is_ok());
        // Phase breakdown accounts the committed flights.
        let phases = obs::PhaseBreakdown::of_commits(&log);
        assert_eq!(phases.flights, 60);
        assert!(phases.total_ns > 0);
    }

    #[test]
    fn flight_stride_keeps_unsampled_txns_counter_only() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(23);
        let programs: Vec<_> = (0..80).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            obs: true,
            flight_sample: 8,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 80);
        let fr = &sched.metrics().obs.flight;
        assert!(fr.admitted() >= 80);
        assert!(
            fr.sampled_count() < fr.admitted(),
            "stride 8 must leave most txns counter-only"
        );
        let snap = sched.metrics().obs.snapshot();
        assert!(
            snap.op_service.count < out.stats.steps,
            "unsampled txns skip op timing in sampled mode \
             ({} timed of {} steps)",
            snap.op_service.count,
            out.stats.steps
        );
        let log = obs::assemble(&fr.drain());
        assert_eq!(log.open, 0);
        assert_eq!(log.flights.len() as u64, fr.sampled_count());
    }

    #[test]
    fn obs_off_by_default_records_nothing() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(14);
        let programs: Vec<_> = (0..20).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        run_concurrent(sched.as_ref(), programs, &ConcurrentConfig::default());
        let snap = sched.metrics().obs.snapshot();
        assert_eq!(snap.commit_latency.count, 0);
        assert_eq!(snap.op_service.count, 0);
        assert_eq!(snap.trace_recorded, 0);
    }

    /// A scheduler wedged on every read — deterministic fixture for the
    /// deadline path (no real scheduler blocks forever on demand).
    struct Wedged {
        log: txn_model::ScheduleLog,
        metrics: txn_model::Metrics,
        ids: AtomicU64,
        aborts: AtomicUsize,
    }

    impl Wedged {
        fn new() -> Self {
            Wedged {
                log: txn_model::ScheduleLog::new(),
                metrics: txn_model::Metrics::default(),
                ids: AtomicU64::new(1),
                aborts: AtomicUsize::new(0),
            }
        }
    }

    impl Scheduler for Wedged {
        fn name(&self) -> &'static str {
            "wedged"
        }
        fn begin(&self, profile: &txn_model::TxnProfile) -> txn_model::TxnHandle {
            txn_model::TxnHandle {
                // ordering: Relaxed — id ticket; uniqueness comes from fetch_add atomicity, nothing is published with it.
                id: txn_model::TxnId(self.ids.fetch_add(1, Ordering::Relaxed)),
                start_ts: txn_model::Timestamp(0),
                class: profile.class,
            }
        }
        fn read(&self, _h: &txn_model::TxnHandle, _g: txn_model::GranuleId) -> ReadOutcome {
            ReadOutcome::Block
        }
        fn write(
            &self,
            _h: &txn_model::TxnHandle,
            _g: txn_model::GranuleId,
            _v: txn_model::Value,
        ) -> WriteOutcome {
            WriteOutcome::Done
        }
        fn commit(&self, _h: &txn_model::TxnHandle) -> CommitOutcome {
            CommitOutcome::Committed(txn_model::Timestamp(1))
        }
        fn abort(&self, _h: &txn_model::TxnHandle) {
            // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
            self.aborts.fetch_add(1, Ordering::Relaxed);
        }
        fn log(&self) -> &txn_model::ScheduleLog {
            &self.log
        }
        fn metrics(&self) -> &txn_model::Metrics {
            &self.metrics
        }
    }

    #[test]
    fn deadline_bounds_a_wedged_scheduler() {
        let mut w = Banking::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        let programs: Vec<_> = (0..8).map(|_| w.generate(&mut rng)).collect();
        let sched = Wedged::new();
        let cfg = ConcurrentConfig {
            workers: 2,
            txn_deadline: Some(Duration::from_millis(5)),
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(&sched, programs, &cfg);
        assert_eq!(out.stats.committed, 0, "every program starts with a read");
        assert_eq!(out.stats.deadline_exceeded, 8);
        assert_eq!(
            // ordering: Relaxed — read after the worker scope joined; the join edge orders every counter write before it.
            sched.aborts.load(Ordering::Relaxed),
            8,
            "abandoned transactions are aborted, not leaked"
        );
        assert!(out.elapsed < Duration::from_secs(10), "no unbounded spin");
    }

    #[test]
    fn deadline_off_changes_nothing() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(31);
        let programs: Vec<_> = (0..60).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            txn_deadline: Some(Duration::from_secs(60)),
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 60);
        assert_eq!(out.stats.deadline_exceeded, 0);
        assert_eq!(out.stats.serializable, Some(true));
    }

    #[test]
    fn capture_log_off_records_nothing_and_skips_verify() {
        let mut w = Banking::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let programs: Vec<_> = (0..50).map(|_| w.generate(&mut rng)).collect();
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            capture_log: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        assert_eq!(out.stats.committed, 50);
        assert_eq!(out.stats.serializable, None);
        assert!(sched.log().is_empty());
    }
}
