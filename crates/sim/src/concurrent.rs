//! Multi-threaded closed-loop driver: the one driver behind every
//! wall-clock run, fault-injection soaks included.
//!
//! `workers` threads claim transaction programs off a shared slice via a
//! single atomic cursor — no queue mutex, no per-claim allocation — and
//! drive them to commit, retrying blocked operations under bounded
//! exponential backoff and restarting aborted ones. Every counter is
//! worker-local and summed when the workers join. Semantics match the
//! deterministic driver; only the interleaving source differs.
//!
//! The calling thread is the maintenance ticker: it calls the
//! scheduler's maintenance hook until every worker has finished
//! (normally or by panic) and, under a fault plan, for [`FAULT_DRAIN`]
//! more, so the straggler watchdog can reap corpses a crash left near
//! the end.
//! After each tick it samples `timewalls_released` and tracks the
//! longest gap between wall releases — the observable "the time wall
//! resumed within a bounded interval".
//!
//! With [`ConcurrentConfig::faults`] set, each claimed program reads its
//! [`FaultKind`] once, and a worker-local `armed` flag gates two fault
//! points: before each operation, and between the last operation and
//! the commit. *Crash* abandons the transaction without aborting it
//! (pending versions and the registry entry stay behind, as after a
//! killed process), *Stall* sleeps holding the registry entry,
//! *DelayCommit* sleeps before the commit; each emits a
//! [`TraceEvent::CrashPoint`] and fires at most once per program, across
//! restarts. Without a plan the per-operation cost is one branch on the
//! local flag.

use crate::driver::RunStats;
use chaos::{FaultKind, FaultPlan};
use obs::{FaultCode, Obs, SpanEvent, SpanKind, Terminal, TraceEvent, NO_CLASS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};
use txn_model::program::ReadCtx;
use txn_model::{
    CommitOutcome, DependencyGraph, GranuleId, GroupCommitWal, ReadOutcome, ScheduleEvent,
    Scheduler, Step, TxnProgram, WriteOutcome,
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
    /// backoff sleeps into `scheduler.metrics().obs`, and injected faults
    /// land in the decision trace. Off by default — disabled recording
    /// costs one branch per claimed program.
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
    /// Fault plan: `faults[i]` is injected into the worker running
    /// program `i` (see the module docs). Only meaningful against
    /// schedulers that survive abandonment, e.g. HDD with
    /// `HddConfig::txn_lease` set, and adds a [`FAULT_DRAIN`] to the run.
    pub faults: Option<Arc<FaultPlan>>,
}

/// How long the ticker keeps calling maintenance after the last worker
/// finishes when a fault plan is set, so the watchdog reaps stragglers
/// crashed near the end. Comfortably larger than the 5–20 ms leases the
/// fault-injection callers run under; runs without a plan get no drain.
pub const FAULT_DRAIN: Duration = Duration::from_millis(50);

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
            faults: None,
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

/// Faults fired over a run (see [`ConcurrentConfig::faults`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Crash faults: transactions abandoned without abort.
    pub crashed: usize,
    /// Stall faults.
    pub stalled: usize,
    /// Commit-delay faults.
    pub delayed: usize,
}

/// Result of a concurrent run: the shared [`RunStats`] plus wall time.
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Common counters (steps counts operation attempts).
    pub stats: RunStats,
    /// Wall-clock duration of the run, drain included.
    pub elapsed: Duration,
    /// Committed transactions per second (durable commits only when a
    /// WAL is configured).
    pub throughput: f64,
    /// Commits whose durability ack failed because the WAL crashed
    /// (committed in memory, not on disk; excluded from `committed`).
    /// Always 0 without a WAL.
    pub wal_lost: usize,
    /// Counted commits that carried redo records through the WAL
    /// (update transactions; read-only commits have nothing to
    /// journal). Always 0 without a WAL.
    pub journaled: usize,
    /// Faults fired by the plan. All zero without one.
    pub faults: FaultCounts,
    /// Time walls released over the run, drain included.
    pub wall_releases: u64,
    /// Longest gap between consecutive wall releases seen by the
    /// ticker, including the tail from the last release to the end of
    /// the drain (the whole run when no wall was released). Under HDD
    /// with a lease, a bounded value shows injected stragglers never
    /// wedged the time wall for good.
    pub max_release_gap: Duration,
}

/// Worker-local counters, summed when the workers join.
#[derive(Default)]
struct Tally {
    steps: usize,
    committed: usize,
    restarts: usize,
    gave_up: usize,
    deadline_exceeded: usize,
    wal_lost: usize,
    journaled: usize,
    faults: FaultCounts,
}

/// One contiguous run of `Block` outcomes: the backoff state, plus (with
/// obs on) its start and the portion slept, for the block-wait sample
/// and the flight's `Wait` span.
#[derive(Default)]
struct Streak {
    spins: u32,
    since: Option<Instant>,
    start_ns: Option<u64>,
    slept_ns: u64,
}

impl Streak {
    /// Count one `Block` (at flight time `span_start` when traced) and
    /// back off.
    fn block(&mut self, mobs: &Obs, obs_on: bool, span_start: Option<u64>) {
        if obs_on && self.since.is_none() {
            self.since = Some(Instant::now());
            self.start_ns = span_start;
            self.slept_ns = 0;
        }
        self.spins += 1;
        let slept = backoff(self.spins);
        if obs_on && !slept.is_zero() {
            mobs.backoff_sleep.record(slept.as_nanos() as u64);
            self.slept_ns += slept.as_nanos() as u64;
        }
    }

    /// End the streak — on progress and on every terminal alike — with
    /// one block-wait sample and, when traced, a `Wait` span.
    fn close(&mut self, mobs: &Obs, txn: u64) {
        self.spins = 0;
        if let Some(t) = self.since.take() {
            let dur_ns = t.elapsed().as_nanos() as u64;
            mobs.block_wait.record(dur_ns);
            if let Some(start_ns) = self.start_ns.take() {
                mobs.flight.push(SpanEvent::Wait {
                    txn,
                    start_ns,
                    dur_ns,
                    slept_ns: self.slept_ns,
                });
            }
        }
    }
}

/// One worker's view of the run plus its local tally.
struct Worker<'a> {
    sched: &'a dyn Scheduler,
    cfg: &'a ConcurrentConfig,
    mobs: &'a Obs,
    obs_on: bool,
    flight_on: bool,
    index: u32,
    tally: Tally,
}

impl Worker<'_> {
    /// Close a sampled flight (each begin is its own flight; restarts
    /// begin fresh transactions, hence fresh flights).
    fn flight_end(&self, traced: bool, txn: u64, terminal: Terminal) {
        if traced {
            self.mobs.flight.push(SpanEvent::End {
                txn,
                at_ns: self.mobs.flight.now_ns(),
                terminal,
            });
        }
    }

    /// Record a traced operation span started at `start`.
    fn op_span(&self, start: Option<u64>, txn: u64, kind: SpanKind, g: Option<GranuleId>) {
        if let Some(start_ns) = start {
            let (segment, key) = g.map_or((0, 0), |g| (g.segment.0, g.key));
            self.mobs.flight.push(SpanEvent::Op {
                txn,
                kind,
                segment,
                key,
                start_ns,
                dur_ns: self.mobs.flight.now_ns().saturating_sub(start_ns),
            });
        }
    }

    /// Drive one program to a terminal. Each attempt runs the operations
    /// and then the commit (step `pc == steps.len()`), retrying blocked
    /// steps under backoff; every abort — read, write, commit or a
    /// passed deadline — leaves the attempt into the one deadline →
    /// give-up → restart ladder.
    fn run_program(&mut self, program: &TxnProgram, fault: FaultKind) {
        let (sched, mobs) = (self.sched, self.mobs);
        // Commit latency and the deadline both span the whole program:
        // claim to commit, across aborts/restarts.
        let claimed_at = self.obs_on.then(Instant::now);
        let deadline = self.cfg.txn_deadline.map(|d| Instant::now() + d);
        // A fault fires at most once per program, even across restarts.
        let mut armed = fault != FaultKind::None;
        let mut tries = 0usize;
        loop {
            let handle = sched.begin(&program.profile);
            let txn = handle.id.0;
            // Admission: every attempt is its own flight (`begin` draws a
            // fresh id); `admit` counts it and returns true when it falls
            // on the stride.
            let class = handle.class.map_or(NO_CLASS, |c| c.0);
            let traced = self.flight_on && mobs.flight.admit(txn, class, self.index);
            // In sampled mode, unsampled transactions skip op timing too
            // (counter-only hot path).
            let time_ops = self.obs_on && (!self.flight_on || traced);
            let hist = &mobs.op_service;
            // Redo events for the durability submit; read-only
            // transactions skip the WAL.
            let wal = self.cfg.wal.as_deref().filter(|_| handle.class.is_some());
            let mut redo = Vec::new();
            if wal.is_some() {
                redo.push(ScheduleEvent::Begin {
                    txn: handle.id,
                    start_ts: handle.start_ts,
                    class: handle.class,
                });
            }
            let mut ctx = ReadCtx::default();
            let mut streak = Streak::default();
            let mut pc = 0usize;
            // One attempt; `break` means it aborted.
            loop {
                let at_commit = pc == program.steps.len();
                if armed && self.fault_point(fault, txn, pc, at_commit) {
                    armed = false;
                    // A crash abandons the transaction without abort.
                    if matches!(fault, FaultKind::Crash { .. }) {
                        self.flight_end(traced, txn, Terminal::Abandoned);
                        return;
                    }
                }
                self.tally.steps += 1;
                let span_start = traced.then(|| mobs.flight.now_ns());
                let progressed = match program.steps.get(pc) {
                    Some(Step::Read(g)) => {
                        match timed(time_ops, hist, || sched.read(&handle, *g)) {
                            ReadOutcome::Value(v) => {
                                self.op_span(span_start, txn, SpanKind::Read, Some(*g));
                                ctx.record(*g, v);
                                true
                            }
                            ReadOutcome::Block => false,
                            ReadOutcome::Abort => {
                                sched.abort(&handle);
                                break;
                            }
                        }
                    }
                    Some(Step::Write(g, src)) => {
                        let v = src.resolve(&ctx);
                        let journaled = wal.is_some().then(|| Arc::new(v.clone()));
                        match timed(time_ops, hist, || sched.write(&handle, *g, v)) {
                            WriteOutcome::Done => {
                                if let Some(value) = journaled {
                                    redo.push(ScheduleEvent::Write {
                                        txn: handle.id,
                                        granule: *g,
                                        version: handle.start_ts,
                                        value,
                                    });
                                }
                                self.op_span(span_start, txn, SpanKind::Write, Some(*g));
                                true
                            }
                            WriteOutcome::Block => false,
                            WriteOutcome::Abort => {
                                sched.abort(&handle);
                                break;
                            }
                        }
                    }
                    None => match timed(time_ops, hist, || sched.commit(&handle)) {
                        CommitOutcome::Committed(commit_ts) => {
                            streak.close(mobs, txn);
                            if wal.is_some() {
                                redo.push(ScheduleEvent::Commit {
                                    txn: handle.id,
                                    commit_ts,
                                });
                            }
                            if wal.is_none_or(|wal| self.durable(wal, &redo)) {
                                self.tally.committed += 1;
                                if let Some(t) = claimed_at {
                                    mobs.commit_latency.record(t.elapsed().as_nanos() as u64);
                                }
                            }
                            self.op_span(span_start, txn, SpanKind::Commit, None);
                            self.flight_end(traced, txn, Terminal::Committed);
                            return;
                        }
                        CommitOutcome::Block => false,
                        CommitOutcome::Aborted => break,
                    },
                };
                if progressed {
                    pc += 1;
                    streak.close(mobs, txn);
                } else if past(deadline) {
                    sched.abort(&handle);
                    break;
                } else {
                    streak.block(mobs, self.obs_on, span_start);
                }
            }
            streak.close(mobs, txn);
            tries += 1;
            let terminal = if past(deadline) {
                self.tally.deadline_exceeded += 1;
                Terminal::DeadlineExceeded
            } else if tries > self.cfg.max_restarts {
                self.tally.gave_up += 1;
                Terminal::GaveUp
            } else {
                self.tally.restarts += 1;
                Terminal::Aborted
            };
            self.flight_end(traced, txn, terminal);
            if terminal != Terminal::Aborted {
                return;
            }
        }
    }

    /// The group-commit ack rule: submit a committed transaction's redo
    /// events and report whether its batch is durable. A commit whose ack
    /// fails because the WAL crashed is counted as lost, not committed.
    fn durable(&mut self, wal: &GroupCommitWal, redo: &[ScheduleEvent]) -> bool {
        let Ok(ack) = wal.submit(redo) else {
            self.tally.wal_lost += 1;
            return false;
        };
        if let Some(a) = ack {
            let gauges = &self.mobs.gauges;
            gauges.record_wal_batch(a.frames as u64, a.bytes as u64, a.fsync_ns);
        }
        self.tally.journaled += 1;
        true
    }

    /// A fault point, reached with `ops` operations done (`at_commit`:
    /// between the last operation and the commit, where every armed
    /// fault is due). Fires `fault` if it is due — a stall or commit
    /// delay sleeps here — and returns whether it fired.
    fn fault_point(&mut self, fault: FaultKind, txn: u64, ops: usize, at_commit: bool) -> bool {
        let faults = &mut self.tally.faults;
        let (code, micros) = match fault {
            FaultKind::Crash { after_ops } if at_commit || ops >= after_ops => {
                faults.crashed += 1;
                (FaultCode::Crash, 0)
            }
            FaultKind::Stall { after_ops, micros } if at_commit || ops >= after_ops => {
                faults.stalled += 1;
                (FaultCode::Stall, micros)
            }
            FaultKind::DelayCommit { micros } if at_commit => {
                faults.delayed += 1;
                (FaultCode::DelayCommit, micros)
            }
            _ => return false,
        };
        self.mobs.emit(TraceEvent::CrashPoint {
            txn,
            op_index: ops as u64,
            fault: code,
        });
        if code != FaultCode::Crash {
            std::thread::sleep(Duration::from_micros(micros));
        }
        true
    }
}

/// The maintenance ticker: ticks until `done` and then, under a fault
/// plan, for [`FAULT_DRAIN`] more, so a worker blocked on maintenance-driven state (time-wall
/// release, lock queues, a watchdog reap) always makes progress
/// eventually. Returns the walls released and the longest gap between
/// releases, the tail to the end included.
fn tick(sched: &dyn Scheduler, cfg: &ConcurrentConfig, done: impl Fn() -> bool) -> (u64, Duration) {
    let walls = &sched.metrics().timewalls_released;
    let first = walls.get();
    let (mut last, mut last_change) = (first, Instant::now());
    let mut max_gap = Duration::ZERO;
    let drain = cfg.faults.as_ref().map_or(Duration::ZERO, |_| FAULT_DRAIN);
    let mut stop_at = None;
    while stop_at.is_none_or(|t| Instant::now() < t) {
        sched.maintenance();
        // A stale sum of the release counter only widens the gap.
        let cur = walls.get();
        if cur != last {
            let now = Instant::now();
            max_gap = max_gap.max(now - last_change);
            (last, last_change) = (cur, now);
        }
        std::thread::sleep(cfg.maintenance_interval);
        if stop_at.is_none() && done() {
            stop_at = Some(Instant::now() + drain);
        }
    }
    let max_gap = max_gap.max(last_change.elapsed());
    (last.saturating_sub(first), max_gap)
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
    let mobs = &scheduler.metrics().obs;
    if cfg.obs {
        mobs.set_enabled(true);
    }
    if cfg.flight_sample > 0 {
        mobs.flight.set_sample_every(cfg.flight_sample);
    }
    // One load up front: the flag is stable for the whole run, so the
    // disabled path costs a branch per operation, not an atomic load.
    let obs_on = mobs.enabled();
    // Sampled mode: every Nth transaction attempt gets the full span
    // treatment, the rest stay counter-only (op timing included — that
    // is what keeps sampled-mode overhead near the disabled baseline).
    let flight_on = obs_on && mobs.flight.active();
    let programs = &programs[..];
    let cursor = &AtomicUsize::new(0);

    let start = Instant::now();
    let (tallies, (wall_releases, max_release_gap)) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|wi| {
                scope.spawn(move || {
                    let mut worker = Worker {
                        sched: scheduler,
                        cfg,
                        mobs,
                        obs_on,
                        flight_on,
                        index: wi as u32,
                        tally: Tally::default(),
                    };
                    loop {
                        // Claim the next program: one uncontended fetch_add.
                        // ordering: Relaxed — work-claim ticket; uniqueness comes from fetch_add atomicity and the claimed program is immutable.
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(program) = programs.get(idx) else {
                            break;
                        };
                        if obs_on {
                            // Driver-progress gauge for hdd-top: two
                            // relaxed stores, works for any scheduler.
                            mobs.gauges
                                .set_driver_progress(idx as u64 + 1, programs.len() as u64);
                        }
                        let fault = cfg.faults.as_ref().and_then(|p| p.faults.get(idx));
                        worker.run_program(program, fault.copied().unwrap_or_default());
                    }
                    worker.tally
                })
            })
            .collect();
        let finished = || workers.iter().all(ScopedJoinHandle::is_finished);
        let ticks = tick(scheduler, cfg, finished);
        let tallies: Vec<Tally> = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        (tallies, ticks)
    });
    let elapsed = start.elapsed();
    let sum = |count: fn(&Tally) -> usize| tallies.iter().map(count).sum::<usize>();

    let mut stats = RunStats {
        committed: sum(|t| t.committed),
        restarts: sum(|t| t.restarts),
        gave_up: sum(|t| t.gave_up),
        deadline_exceeded: sum(|t| t.deadline_exceeded),
        stalled: 0,
        steps: sum(|t| t.steps) as u64,
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
        throughput: stats.committed as f64 / elapsed.as_secs_f64().max(1e-9),
        stats,
        elapsed,
        wal_lost: sum(|t| t.wal_lost),
        journaled: sum(|t| t.journaled),
        faults: FaultCounts {
            crashed: sum(|t| t.faults.crashed),
            stalled: sum(|t| t.faults.stalled),
            delayed: sum(|t| t.faults.delayed),
        },
        wall_releases,
        max_release_gap,
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

    use hdd::{AccessSpec, HddConfig, HddScheduler, Hierarchy};
    use txn_model::{SegmentId, Timestamp, TxnHandle, TxnProfile};

    /// A scheduler whose `read` follows a script indexed by the call
    /// number; writes and commits always succeed.
    struct Scripted {
        script: fn(usize) -> ReadOutcome,
        reads: AtomicUsize,
        log: txn_model::ScheduleLog,
        metrics: txn_model::Metrics,
        ids: AtomicU64,
    }

    impl Scripted {
        fn new(script: fn(usize) -> ReadOutcome) -> Self {
            Scripted {
                script,
                reads: AtomicUsize::new(0),
                log: txn_model::ScheduleLog::new(),
                metrics: txn_model::Metrics::default(),
                ids: AtomicU64::new(1),
            }
        }
    }

    impl Scheduler for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn begin(&self, profile: &txn_model::TxnProfile) -> TxnHandle {
            TxnHandle {
                // ordering: Relaxed — id ticket; uniqueness comes from fetch_add atomicity, nothing is published with it.
                id: txn_model::TxnId(self.ids.fetch_add(1, Ordering::Relaxed)),
                start_ts: Timestamp(0),
                class: profile.class,
            }
        }
        fn read(&self, _h: &TxnHandle, _g: GranuleId) -> ReadOutcome {
            // ordering: Relaxed — script cursor; uniqueness comes from fetch_add atomicity, nothing is published with it.
            (self.script)(self.reads.fetch_add(1, Ordering::Relaxed))
        }
        fn write(&self, _h: &TxnHandle, _g: GranuleId, _v: txn_model::Value) -> WriteOutcome {
            WriteOutcome::Done
        }
        fn commit(&self, _h: &TxnHandle) -> CommitOutcome {
            CommitOutcome::Committed(Timestamp(1))
        }
        fn abort(&self, _h: &TxnHandle) {}
        fn log(&self) -> &txn_model::ScheduleLog {
            &self.log
        }
        fn metrics(&self) -> &txn_model::Metrics {
            &self.metrics
        }
    }

    /// `n` read-only programs of one read each.
    fn single_reads(n: usize) -> Vec<TxnProgram> {
        (0..n)
            .map(|_| {
                TxnProgram::builder("one-read")
                    .read(GranuleId::new(SegmentId(0), 0))
                    .build(TxnProfile::read_only(vec![SegmentId(0)]))
            })
            .collect()
    }

    #[test]
    fn block_streaks_ending_in_abort_keep_their_wait() {
        // Per program: Block ×3, then Abort, then the retry's value.
        let sched = Scripted::new(|n| match n % 5 {
            0..=2 => ReadOutcome::Block,
            3 => ReadOutcome::Abort,
            _ => ReadOutcome::Value(Arc::new(txn_model::Value::Int(0))),
        });
        let cfg = ConcurrentConfig {
            workers: 1,
            obs: true,
            flight_sample: 1,
            verify: false,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(&sched, single_reads(6), &cfg);
        assert_eq!(out.stats.committed, 6);
        assert_eq!(out.stats.restarts, 6);
        let mobs = &sched.metrics().obs;
        assert_eq!(
            mobs.snapshot().block_wait.count,
            6,
            "one block-wait sample per streak, aborted streaks included"
        );
        let log = obs::assemble(&mobs.flight.drain());
        let aborted: Vec<_> = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(Terminal::Aborted))
            .collect();
        assert_eq!(aborted.len(), 6);
        for f in aborted {
            assert_eq!(f.waits.len(), 1, "aborted flight lost its Wait span");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_under_a_fault_plan() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sched = Scripted::new(|_| panic!("scripted scheduler bug"));
            let cfg = ConcurrentConfig {
                faults: Some(Arc::new(FaultPlan::clean(8))),
                verify: false,
                ..ConcurrentConfig::default()
            };
            let run =
                std::panic::AssertUnwindSafe(|| run_concurrent(&sched, single_reads(8), &cfg));
            tx.send(std::panic::catch_unwind(run).is_err()).ok();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the run hung after its workers panicked");
        assert!(panicked, "the worker panic must propagate to the caller");
    }

    /// Two-class chain: c0 writes s0; c1 writes s1 and reads s0.
    fn chain_hdd(lease: Option<Duration>) -> HddScheduler {
        let s = SegmentId;
        let hierarchy = Hierarchy::build(
            2,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
            ],
        )
        .unwrap();
        let store = Arc::new(mvstore::MvStore::new());
        for k in 0..4 {
            store.seed(GranuleId::new(s(0), k), txn_model::Value::Int(0));
            store.seed(GranuleId::new(s(1), k), txn_model::Value::Int(0));
        }
        let config = HddConfig {
            txn_lease: lease,
            ..HddConfig::default()
        };
        HddScheduler::new(
            Arc::new(hierarchy),
            store,
            Arc::new(txn_model::LogicalClock::new()),
            config,
        )
    }

    fn mixed_programs(n: usize) -> Vec<TxnProgram> {
        use txn_model::{ClassId, Value};
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

    /// The fault-injection tests' settings: obs on (injected faults land
    /// in the decision trace) and a 5 s deadline.
    fn chaos_cfg(plan: FaultPlan) -> ConcurrentConfig {
        ConcurrentConfig {
            obs: true,
            txn_deadline: Some(Duration::from_secs(5)),
            faults: Some(Arc::new(plan)),
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn clean_plan_commits_everything() {
        let sched = chain_hdd(Some(Duration::from_millis(20)));
        let programs = mixed_programs(40);
        let plan = FaultPlan::clean(programs.len());
        let out = run_concurrent(&sched, programs, &chaos_cfg(plan));
        assert_eq!(out.stats.committed, 40);
        assert_eq!(
            out.faults.crashed + out.faults.stalled + out.faults.delayed,
            0
        );
        assert_eq!(out.stats.gave_up + out.stats.deadline_exceeded, 0);
        let dg = DependencyGraph::from_log(sched.log());
        assert_eq!(dg.find_cycle(), None);
    }

    #[test]
    fn crash_faults_are_reaped_and_the_run_stays_serializable() {
        let sched = chain_hdd(Some(Duration::from_millis(5)));
        let programs = mixed_programs(30);
        let mut plan = FaultPlan::clean(programs.len());
        plan.faults[3] = FaultKind::Crash { after_ops: 1 };
        plan.faults[11] = FaultKind::Crash { after_ops: 2 };
        let out = run_concurrent(&sched, programs, &chaos_cfg(plan));
        assert_eq!(out.faults.crashed, 2);
        assert_eq!(out.stats.committed, 28);
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
            out.max_release_gap < Duration::from_secs(5),
            "time wall resumed: gap {:?}",
            out.max_release_gap
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
        let sched = chain_hdd(Some(Duration::from_millis(5)));
        let programs = mixed_programs(24);
        let mut plan = FaultPlan::clean(programs.len());
        plan.faults[2] = FaultKind::Crash { after_ops: 1 };
        plan.faults[9] = FaultKind::Crash { after_ops: 2 };
        let cfg = ConcurrentConfig {
            flight_sample: 1,
            ..chaos_cfg(plan)
        };
        let out = run_concurrent(&sched, programs, &cfg);
        assert_eq!(out.faults.crashed, 2);
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
            crash_terminals >= out.faults.crashed,
            "each crash closes its flight as Abandoned (or Reaped by the \
             watchdog): {crash_terminals} < {}",
            out.faults.crashed
        );
        let committed_flights = log
            .flights
            .iter()
            .filter(|f| f.terminal == Some(Terminal::Committed))
            .count();
        assert_eq!(committed_flights, out.stats.committed);
    }

    #[test]
    fn wal_gate_journals_every_counted_commit() {
        use chaos::{DiskFaultKind, DiskFaultPlan};
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

        let sched = chain_hdd(Some(Duration::from_millis(20)));
        let programs = mixed_programs(40);
        let plan = FaultPlan::clean(programs.len());
        let cfg = ConcurrentConfig {
            wal: Some(Arc::clone(&wal)),
            ..chaos_cfg(plan)
        };
        let out = run_concurrent(&sched, programs, &cfg);

        assert!(wal.crashed(), "the torn write must crash the WAL");
        assert!(out.wal_lost > 0, "commits after the crash lose their ack");
        assert_eq!(
            out.stats.committed + out.wal_lost,
            40,
            "every program either counts as durable or as wal-lost: {out:?}"
        );
        assert_eq!(
            out.journaled, out.stats.committed,
            "all programs here are updates, so every counted commit journals: {out:?}"
        );

        // Every *counted* commit is on disk: the torn batch itself may
        // carry acked frames from earlier batches only, so the decodable
        // prefix holds every durable commit.
        let bytes = std::fs::read(&path).unwrap();
        let (events, wal_report) = decode_wal(&bytes).unwrap();
        assert!(wal_report.torn(), "the tail tears at the victim batch");
        let durable_commits = events
            .iter()
            .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
            .count();
        assert!(
            durable_commits >= out.stats.committed,
            "durable commits {durable_commits} < counted {}",
            out.stats.committed
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_and_delay_faults_resolve_without_leaks() {
        let sched = chain_hdd(Some(Duration::from_millis(10)));
        let programs = mixed_programs(20);
        let mut plan = FaultPlan::clean(programs.len());
        // Stall well past the lease: the watchdog reaps mid-sleep and
        // the worker retries as a fresh transaction.
        plan.faults[2] = FaultKind::Stall {
            after_ops: 1,
            micros: 30_000,
        };
        plan.faults[7] = FaultKind::DelayCommit { micros: 500 };
        let out = run_concurrent(&sched, programs, &chaos_cfg(plan));
        assert_eq!(out.faults.stalled, 1);
        assert_eq!(out.faults.delayed, 1);
        assert_eq!(
            out.stats.committed, 20,
            "stalled program retries after the reap and still commits: {out:?}"
        );
        assert_eq!(DependencyGraph::from_log(sched.log()).find_cycle(), None);
    }
}
