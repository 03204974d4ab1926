//! The fault-injecting concurrent driver.
//!
//! Mirrors the sim crate's concurrent driver — workers claim programs
//! off a shared cursor and drive them to commit with bounded backoff
//! and retry budgets — but consults a [`FaultPlan`] before each
//! operation and injects the planned fault. After the last worker
//! exits, the harness keeps ticking scheduler maintenance for a *drain*
//! period so the straggler watchdog can reap any corpse a crash left in
//! the activity registry; a monitor thread samples the
//! `timewalls_released` counter the whole time and reports the longest
//! wall-release gap it observed.

use crate::plan::{FaultKind, FaultPlan};
use obs::{FaultCode, SpanEvent, Terminal, TraceEvent, NO_CLASS};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use txn_model::program::ReadCtx;
use txn_model::{
    CommitOutcome, GroupCommitWal, ReadOutcome, ScheduleEvent, Scheduler, Step, TxnProgram,
    WriteOutcome,
};

/// Chaos run configuration.
#[derive(Debug, Clone)]
pub struct ChaosRunConfig {
    /// Worker threads.
    pub workers: usize,
    /// Restart budget per program.
    pub max_restarts: usize,
    /// Maintenance tick interval (watchdog reaping, wall release, GC).
    pub maintenance_interval: Duration,
    /// Per-program deadline spanning all retries; a program blocked or
    /// restarting past it is aborted and counted, never spun forever.
    pub txn_deadline: Duration,
    /// How long to keep ticking maintenance after the last worker
    /// exits, so the watchdog reaps stragglers crashed near the end.
    /// Make this comfortably larger than the scheduler's lease.
    pub drain: Duration,
    /// Wall-release monitor sampling interval.
    pub monitor_interval: Duration,
    /// Enable the scheduler's obs sidecar so injected faults land in
    /// the decision trace as [`TraceEvent::CrashPoint`] records.
    pub trace: bool,
    /// Flight-recorder sampling stride: when `trace` is on and this is
    /// non-zero, every Nth transaction attempt gets a span tree, and
    /// every terminal — including a crash fault's abandonment and the
    /// watchdog's reap — closes it. `0` leaves the recorder inert.
    pub flight_sample: u64,
    /// Group-commit WAL to journal update transactions through. When
    /// set, each worker submits its committed transaction's redo events
    /// and counts the commit only after the durability ack; a commit
    /// whose ack fails because the WAL crashed lands in
    /// [`ChaosReport::wal_lost`] instead.
    pub wal: Option<Arc<GroupCommitWal>>,
}

impl Default for ChaosRunConfig {
    fn default() -> Self {
        ChaosRunConfig {
            workers: 4,
            max_restarts: 100,
            maintenance_interval: Duration::from_micros(50),
            txn_deadline: Duration::from_secs(5),
            drain: Duration::from_millis(50),
            monitor_interval: Duration::from_micros(200),
            trace: true,
            flight_sample: 0,
            wal: None,
        }
    }
}

/// What a chaos run did and what the monitor observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Programs that committed.
    pub committed: usize,
    /// Abort-and-restart events.
    pub restarts: usize,
    /// Programs that exhausted their restart budget.
    pub gave_up: usize,
    /// Programs abandoned at their deadline.
    pub deadline_exceeded: usize,
    /// Crash faults fired (transactions abandoned without abort).
    pub crashed: usize,
    /// Stall faults fired.
    pub stalled: usize,
    /// Commit-delay faults fired.
    pub delayed: usize,
    /// Commits whose durability ack failed because the WAL crashed
    /// (the transaction committed in memory but is not on disk; it is
    /// *not* counted in `committed`). Always 0 without a WAL.
    pub wal_lost: usize,
    /// Counted commits that carried redo records through the WAL
    /// (update transactions; read-only commits have nothing to
    /// journal). Always 0 without a WAL.
    pub journaled: usize,
    /// Operation attempts across all workers.
    pub attempts: u64,
    /// Time walls released over the run (including the drain phase).
    pub wall_releases: u64,
    /// Longest observed gap between consecutive wall releases,
    /// including the tail from the last release to the end of the
    /// drain. When no wall was ever released this is the whole run —
    /// under HDD with a lease set, a bounded value is the proof that
    /// injected stragglers never wedged the time wall for good.
    pub max_release_gap: Duration,
    /// Wall-clock duration, drain included.
    pub elapsed: Duration,
}

/// Bounded exponential backoff for `Block` outcomes (same shape as the
/// sim driver: a few spin hints, then sleeps doubling to 256 µs).
fn backoff(spins: u32) {
    if spins <= 3 {
        std::hint::spin_loop();
    } else {
        let exp = (spins - 4).min(8);
        std::thread::sleep(Duration::from_micros(1u64 << exp));
    }
}

/// Run `programs` against `scheduler`, injecting `plan`'s faults.
pub fn run_chaos(
    scheduler: &dyn Scheduler,
    programs: Vec<TxnProgram>,
    plan: &FaultPlan,
    cfg: &ChaosRunConfig,
) -> ChaosReport {
    if cfg.trace {
        scheduler.metrics().obs.set_enabled(true);
        if cfg.flight_sample > 0 {
            scheduler
                .metrics()
                .obs
                .flight
                .set_sample_every(cfg.flight_sample);
        }
    }
    let mobs = &scheduler.metrics().obs;
    let flight_on = mobs.enabled() && mobs.flight.active();
    let walls = &scheduler.metrics().timewalls_released;
    let programs = &programs[..];
    let cursor = AtomicUsize::new(0);
    let committed = AtomicUsize::new(0);
    let restarts = AtomicUsize::new(0);
    let gave_up = AtomicUsize::new(0);
    let deadline_exceeded = AtomicUsize::new(0);
    let crashed = AtomicUsize::new(0);
    let stalled = AtomicUsize::new(0);
    let delayed = AtomicUsize::new(0);
    let wal_lost = AtomicUsize::new(0);
    let journaled = AtomicUsize::new(0);
    let attempts = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let active_workers = AtomicUsize::new(cfg.workers);
    // (releases observed, max gap) — written once by the monitor.
    let observed: Mutex<(u64, Duration)> = Mutex::new((0, Duration::ZERO));

    let start = Instant::now();
    std::thread::scope(|scope| {
        // Maintenance ticker: outlives the workers by `drain` so the
        // watchdog reaps end-of-run corpses (the controller below flips
        // `done`).
        scope.spawn(|| {
            // ordering: Relaxed — advisory stop flag; one extra iteration after the store is harmless.
            while !done.load(Ordering::Relaxed) {
                scheduler.maintenance();
                std::thread::sleep(cfg.maintenance_interval);
            }
        });
        // Controller: wait for the workers, run the drain, stop.
        scope.spawn(|| {
            while active_workers.load(Ordering::Acquire) > 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            std::thread::sleep(cfg.drain);
            done.store(true, Ordering::Release);
        });
        // Wall-release monitor.
        scope.spawn(|| {
            // A stale sum of the release counter only widens the observed gap.
            let mut last = walls.get();
            let mut last_change = Instant::now();
            let mut max_gap = Duration::ZERO;
            // ordering: Relaxed — advisory stop flag; one extra iteration after the store is harmless.
            while !done.load(Ordering::Relaxed) {
                let cur = walls.get();
                if cur != last {
                    max_gap = max_gap.max(last_change.elapsed());
                    last_change = Instant::now();
                    last = cur;
                }
                std::thread::sleep(cfg.monitor_interval);
            }
            max_gap = max_gap.max(last_change.elapsed());
            *observed
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = (last, max_gap);
        });
        // Re-bind shared state as references so worker closures can be
        // `move` (each also captures its worker index by value).
        let (
            cursor,
            committed,
            restarts,
            gave_up,
            deadline_exceeded,
            crashed,
            stalled,
            delayed,
            wal_lost,
            journaled,
            attempts,
            active_workers,
        ) = (
            &cursor,
            &committed,
            &restarts,
            &gave_up,
            &deadline_exceeded,
            &crashed,
            &stalled,
            &delayed,
            &wal_lost,
            &journaled,
            &attempts,
            &active_workers,
        );
        let wal = cfg.wal.as_deref();
        for wi in 0..cfg.workers {
            scope.spawn(move || {
                // Close a sampled flight with its terminal; a restart
                // begins a fresh transaction and thus a fresh flight.
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
                    // ordering: Relaxed — work-claim ticket; uniqueness comes from fetch_add atomicity and the claimed program is immutable.
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(program) = programs.get(idx) else {
                        active_workers.fetch_sub(1, Ordering::AcqRel);
                        break;
                    };
                    if mobs.enabled() {
                        // Driver-progress gauge for hdd-top --chaos.
                        mobs.gauges
                            .set_driver_progress(idx as u64 + 1, programs.len() as u64);
                    }
                    let fault = plan.faults.get(idx).copied().unwrap_or_default();
                    // The deadline spans the program's whole life;
                    // restarts don't reset it.
                    let deadline = Instant::now() + cfg.txn_deadline;
                    // A fault fires at most once per program, even
                    // across restarts.
                    let mut armed = !matches!(fault, FaultKind::None);
                    let mut tries = 0usize;
                    'retry: loop {
                        let handle = scheduler.begin(&program.profile);
                        let traced = flight_on
                            && mobs.flight.admit(
                                handle.id.0,
                                handle.class.map_or(NO_CLASS, |c| c.0),
                                wi as u32,
                            );
                        // Redo events for the durability submit; a
                        // restart begins a fresh transaction and thus a
                        // fresh journal. Read-only transactions never
                        // touch the WAL.
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
                        let mut ops = 0usize;
                        let mut spins = 0u32;
                        while pc < program.steps.len() {
                            // Fault point: before the next operation.
                            if armed {
                                match fault {
                                    FaultKind::Crash { after_ops } if ops >= after_ops => {
                                        mobs.emit(TraceEvent::CrashPoint {
                                            txn: handle.id.0,
                                            op_index: ops as u64,
                                            fault: FaultCode::Crash,
                                        });
                                        // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                        crashed.fetch_add(1, Ordering::Relaxed);
                                        // Abandon WITHOUT abort: pending
                                        // versions and the registry
                                        // entry stay behind. The flight
                                        // closes as Abandoned here; if
                                        // the watchdog later reaps the
                                        // corpse its Reaped terminal
                                        // wins (last terminal wins).
                                        flight_end(traced, handle.id.0, Terminal::Abandoned);
                                        break 'retry;
                                    }
                                    FaultKind::Stall { after_ops, micros } if ops >= after_ops => {
                                        mobs.emit(TraceEvent::CrashPoint {
                                            txn: handle.id.0,
                                            op_index: ops as u64,
                                            fault: FaultCode::Stall,
                                        });
                                        // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                        stalled.fetch_add(1, Ordering::Relaxed);
                                        armed = false;
                                        std::thread::sleep(Duration::from_micros(micros));
                                    }
                                    _ => {}
                                }
                            }
                            attempts.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                            let blocked = match &program.steps[pc] {
                                Step::Read(g) => match scheduler.read(&handle, *g) {
                                    ReadOutcome::Value(v) => {
                                        ctx.record(*g, v);
                                        pc += 1;
                                        ops += 1;
                                        spins = 0;
                                        false
                                    }
                                    ReadOutcome::Block => true,
                                    ReadOutcome::Abort => {
                                        scheduler.abort(&handle);
                                        tries += 1;
                                        if Instant::now() >= deadline {
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
                                    match scheduler.write(&handle, *g, v) {
                                        WriteOutcome::Done => {
                                            if let Some(value) = journaled {
                                                redo.push(ScheduleEvent::Write {
                                                    txn: handle.id,
                                                    granule: *g,
                                                    version: handle.start_ts,
                                                    value,
                                                });
                                            }
                                            pc += 1;
                                            ops += 1;
                                            spins = 0;
                                            false
                                        }
                                        WriteOutcome::Block => true,
                                        WriteOutcome::Abort => {
                                            scheduler.abort(&handle);
                                            tries += 1;
                                            if Instant::now() >= deadline {
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
                            if blocked {
                                if Instant::now() >= deadline {
                                    scheduler.abort(&handle);
                                    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                    deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                    flight_end(traced, handle.id.0, Terminal::DeadlineExceeded);
                                    break 'retry;
                                }
                                spins += 1;
                                backoff(spins);
                            }
                        }
                        // Fault point: between the last operation and
                        // the commit (covers `after_ops` past the end).
                        if armed {
                            match fault {
                                FaultKind::Crash { .. } => {
                                    mobs.emit(TraceEvent::CrashPoint {
                                        txn: handle.id.0,
                                        op_index: ops as u64,
                                        fault: FaultCode::Crash,
                                    });
                                    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                    crashed.fetch_add(1, Ordering::Relaxed);
                                    flight_end(traced, handle.id.0, Terminal::Abandoned);
                                    break 'retry;
                                }
                                FaultKind::Stall { micros, .. } => {
                                    mobs.emit(TraceEvent::CrashPoint {
                                        txn: handle.id.0,
                                        op_index: ops as u64,
                                        fault: FaultCode::Stall,
                                    });
                                    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                    stalled.fetch_add(1, Ordering::Relaxed);
                                    armed = false;
                                    std::thread::sleep(Duration::from_micros(micros));
                                }
                                FaultKind::DelayCommit { micros } => {
                                    mobs.emit(TraceEvent::CrashPoint {
                                        txn: handle.id.0,
                                        op_index: ops as u64,
                                        fault: FaultCode::DelayCommit,
                                    });
                                    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                    delayed.fetch_add(1, Ordering::Relaxed);
                                    armed = false;
                                    std::thread::sleep(Duration::from_micros(micros));
                                }
                                FaultKind::None => {}
                            }
                        }
                        let mut commit_spins = 0u32;
                        loop {
                            attempts.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                            match scheduler.commit(&handle) {
                                CommitOutcome::Committed(commit_ts) => {
                                    // Durability gate: the commit only
                                    // counts once its batch is on disk.
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
                                                // Committed in memory,
                                                // lost on disk: the WAL
                                                // crashed before the ack.
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
                                        // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                        journaled.fetch_add(1, Ordering::Relaxed);
                                    }
                                    // ordering: Relaxed — statistical counter; totals are read after the worker scope joins (the join edge orders them).
                                    committed.fetch_add(1, Ordering::Relaxed);
                                    flight_end(traced, handle.id.0, Terminal::Committed);
                                    break 'retry;
                                }
                                CommitOutcome::Block => {
                                    if Instant::now() >= deadline {
                                        scheduler.abort(&handle);
                                        deadline_exceeded.fetch_add(1, Ordering::Relaxed); // ordering: stat counter; the scope join orders the final read
                                        flight_end(traced, handle.id.0, Terminal::DeadlineExceeded);
                                        break 'retry;
                                    }
                                    commit_spins += 1;
                                    backoff(commit_spins);
                                }
                                CommitOutcome::Aborted => {
                                    tries += 1;
                                    if Instant::now() >= deadline {
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
            });
        }
    });
    let elapsed = start.elapsed();
    let (wall_releases, max_release_gap) = *observed
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    ChaosReport {
        // ordering: Relaxed — read after the worker scope joined; the join edge orders every counter write before it.
        committed: committed.load(Ordering::Relaxed),
        restarts: restarts.load(Ordering::Relaxed),
        gave_up: gave_up.load(Ordering::Relaxed),
        deadline_exceeded: deadline_exceeded.load(Ordering::Relaxed),
        crashed: crashed.load(Ordering::Relaxed),
        stalled: stalled.load(Ordering::Relaxed),
        delayed: delayed.load(Ordering::Relaxed),
        wal_lost: wal_lost.load(Ordering::Relaxed),
        journaled: journaled.load(Ordering::Relaxed),
        attempts: attempts.load(Ordering::Relaxed),
        wall_releases,
        max_release_gap,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdd::{AccessSpec, HddConfig, HddScheduler, Hierarchy};
    use mvstore::MvStore;
    use std::sync::Arc;
    use txn_model::{
        ClassId, DependencyGraph, GranuleId, LogicalClock, SegmentId, TxnProfile, Value,
    };

    /// Two-class chain: c0 writes s0; c1 writes s1 and reads s0.
    fn setup(lease: Option<Duration>) -> HddScheduler {
        let s = SegmentId;
        let hierarchy = Hierarchy::build(
            2,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
            ],
        )
        .unwrap();
        let store = Arc::new(MvStore::new());
        for k in 0..4 {
            store.seed(GranuleId::new(s(0), k), Value::Int(0));
            store.seed(GranuleId::new(s(1), k), Value::Int(0));
        }
        let config = HddConfig {
            txn_lease: lease,
            ..HddConfig::default()
        };
        HddScheduler::new(
            Arc::new(hierarchy),
            store,
            Arc::new(LogicalClock::new()),
            config,
        )
    }

    fn mixed_programs(n: usize) -> Vec<TxnProgram> {
        (0..n)
            .map(|i| {
                let k = (i % 4) as u64;
                if i % 2 == 0 {
                    TxnProgram::builder("c0-bump")
                        .read(GranuleId::new(SegmentId(0), k))
                        .write_computed(GranuleId::new(SegmentId(0), k), move |ctx| {
                            Value::Int(ctx.int(GranuleId::new(SegmentId(0), k)) + 1)
                        })
                        .build(TxnProfile::update(ClassId(0), vec![SegmentId(0)]))
                } else {
                    TxnProgram::builder("c1-mirror")
                        .read(GranuleId::new(SegmentId(0), k))
                        .write_computed(GranuleId::new(SegmentId(1), k), move |ctx| {
                            Value::Int(ctx.int(GranuleId::new(SegmentId(0), k)))
                        })
                        .build(TxnProfile::update(
                            ClassId(1),
                            vec![SegmentId(0), SegmentId(1)],
                        ))
                }
            })
            .collect()
    }

    #[test]
    fn clean_plan_commits_everything() {
        let sched = setup(Some(Duration::from_millis(20)));
        let programs = mixed_programs(40);
        let plan = FaultPlan::clean(programs.len());
        let report = run_chaos(&sched, programs, &plan, &ChaosRunConfig::default());
        assert_eq!(report.committed, 40);
        assert_eq!(report.crashed + report.stalled + report.delayed, 0);
        assert_eq!(report.gave_up + report.deadline_exceeded, 0);
        let dg = DependencyGraph::from_log(sched.log());
        assert_eq!(dg.find_cycle(), None);
    }

    #[test]
    fn crash_faults_are_reaped_and_the_run_stays_serializable() {
        let sched = setup(Some(Duration::from_millis(5)));
        let programs = mixed_programs(30);
        let mut plan = FaultPlan::clean(programs.len());
        plan.faults[3] = FaultKind::Crash { after_ops: 1 };
        plan.faults[11] = FaultKind::Crash { after_ops: 2 };
        let cfg = ChaosRunConfig {
            drain: Duration::from_millis(40),
            ..ChaosRunConfig::default()
        };
        let report = run_chaos(&sched, programs, &plan, &cfg);
        assert_eq!(report.crashed, 2);
        assert_eq!(report.committed, 28);
        let snap = sched.metrics().snapshot();
        assert!(
            snap.rej_watchdog_abort >= 2,
            "the watchdog must reap both corpses: {snap:?}"
        );
        assert_eq!(
            DependencyGraph::from_log(sched.log()).find_cycle(),
            None,
            "stitched log (crashes reaped as aborts) stays serializable"
        );
        assert!(
            report.max_release_gap < Duration::from_secs(5),
            "time wall resumed: gap {:?}",
            report.max_release_gap
        );
        let kinds: Vec<&str> = sched
            .metrics()
            .obs
            .trace
            .drain()
            .iter()
            .map(|(_, e)| e.kind())
            .collect();
        assert!(kinds.contains(&"crash-point"));
        assert!(kinds.contains(&"watchdog-abort"));
    }

    #[test]
    fn crash_flights_close_as_abandoned_or_reaped_with_no_open_spans() {
        let sched = setup(Some(Duration::from_millis(5)));
        let programs = mixed_programs(24);
        let mut plan = FaultPlan::clean(programs.len());
        plan.faults[2] = FaultKind::Crash { after_ops: 1 };
        plan.faults[9] = FaultKind::Crash { after_ops: 2 };
        let cfg = ChaosRunConfig {
            drain: Duration::from_millis(50),
            flight_sample: 1,
            ..ChaosRunConfig::default()
        };
        let report = run_chaos(&sched, programs, &plan, &cfg);
        assert_eq!(report.crashed, 2);
        let log = obs::assemble(&sched.metrics().obs.flight.drain());
        assert_eq!(log.open, 0, "every admitted flight must close");
        let crash_terminals = log
            .flights
            .iter()
            .filter(|f| {
                matches!(
                    f.terminal,
                    Some(Terminal::Abandoned) | Some(Terminal::Reaped)
                )
            })
            .count();
        assert!(
            crash_terminals >= report.crashed,
            "each crash closes its flight as Abandoned (or Reaped by the \
             watchdog): {crash_terminals} < {}",
            report.crashed
        );
        let committed_flights = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(Terminal::Committed))
            .count();
        assert_eq!(committed_flights, report.committed);
    }

    #[test]
    fn wal_gate_journals_every_counted_commit() {
        use crate::disk::{DiskFaultKind, DiskFaultPlan};
        use txn_model::{decode_wal, GroupCommitConfig};

        let dir = std::env::temp_dir().join(format!("chaos-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos.wal");

        // Fault: the disk tears batch 3 mid-write and the WAL crashes.
        let fault = DiskFaultPlan::fixed(3, DiskFaultKind::TornWrite { keep_pct: 40 });
        let wal = Arc::new(
            GroupCommitWal::with_fault(
                &path,
                GroupCommitConfig {
                    max_batch_frames: 4,
                    ..GroupCommitConfig::default()
                },
                Some(Box::new(fault)),
            )
            .unwrap(),
        );

        let sched = setup(Some(Duration::from_millis(20)));
        let programs = mixed_programs(40);
        let plan = FaultPlan::clean(programs.len());
        let cfg = ChaosRunConfig {
            wal: Some(Arc::clone(&wal)),
            ..ChaosRunConfig::default()
        };
        let report = run_chaos(&sched, programs, &plan, &cfg);

        assert!(wal.crashed(), "the torn write must crash the WAL");
        assert!(
            report.wal_lost > 0,
            "commits after the crash lose their ack"
        );
        assert_eq!(
            report.committed + report.wal_lost,
            40,
            "every program either counts as durable or as wal-lost: {report:?}"
        );
        assert_eq!(
            report.journaled, report.committed,
            "all programs here are updates, so every counted commit journals: {report:?}"
        );

        // Every *counted* commit is on disk: the acked prefix of the WAL
        // decodes and contains at least `committed` Commit events... not
        // exactly `committed` — the torn batch itself may carry acked
        // frames from earlier batches only, so the decodable prefix holds
        // every durable commit.
        let bytes = std::fs::read(&path).unwrap();
        let (events, wal_report) = decode_wal(&bytes).unwrap();
        assert!(wal_report.torn(), "the tail tears at the victim batch");
        let durable_commits = events
            .iter()
            .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
            .count();
        assert!(
            durable_commits >= report.committed,
            "durable commits {durable_commits} < counted {}",
            report.committed
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_and_delay_faults_resolve_without_leaks() {
        let sched = setup(Some(Duration::from_millis(10)));
        let programs = mixed_programs(20);
        let mut plan = FaultPlan::clean(programs.len());
        // Stall well past the lease: the watchdog reaps mid-sleep and
        // the worker retries as a fresh transaction.
        plan.faults[2] = FaultKind::Stall {
            after_ops: 1,
            micros: 30_000,
        };
        plan.faults[7] = FaultKind::DelayCommit { micros: 500 };
        let report = run_chaos(&sched, programs, &plan, &ChaosRunConfig::default());
        assert_eq!(report.stalled, 1);
        assert_eq!(report.delayed, 1);
        assert_eq!(
            report.committed, 20,
            "stalled program retries after the reap and still commits: {report:?}"
        );
        assert_eq!(DependencyGraph::from_log(sched.log()).find_cycle(), None);
    }
}
