//! The traced run's decorators: one around the `Scheduler` trait object
//! and, for hdd, one around the `Arc<dyn StorageBackend>` the scheduler
//! is built on. Both time every call from outside the program and share
//! one [`Tracer`], so a scheduler call's self time is its duration minus
//! the store time nested in it on the same thread.

use crate::probe::ns;
use crate::slots::Slots;
use hdd::Hierarchy;
use mvstore::{StorageBackend, VersionChain, VersionRecord};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;
use txn_model::{
    CommitOutcome, GranuleId, Metrics, ReadOutcome, ScheduleLog, Scheduler, Timestamp, TxnHandle,
    TxnId, TxnProfile, Value, WriteOutcome,
};

/// Scheduler calls, split the way the protocol splits them.
#[derive(Clone, Copy)]
pub enum Call {
    Begin,
    Commit,
    /// Reads of the transaction's own class (Protocol B).
    ReadB,
    /// Cross-class reads by update transactions (Protocol A).
    ReadA,
    /// Reads by read-only transactions (Protocol A or C).
    ReadRo,
    Write,
    Abort,
    Maintenance,
}
pub const CALLS: usize = 8;

/// Store calls worth telling apart.
#[derive(Clone, Copy)]
pub enum StoreCall {
    Chain,
    CommitWrites,
    Prune,
    Other,
}
pub const STORE_CALLS: usize = 4;

thread_local! {
    /// Store time spent on this thread so far, ns (only differences are
    /// used, so it never needs resetting).
    static STORE_NS: Cell<u64> = const { Cell::new(0) };
}

fn store_ns_so_far() -> u64 {
    STORE_NS.with(Cell::get)
}

/// What one thread saw.
#[derive(Default)]
pub struct TraceSlot {
    pub calls: [u64; CALLS],
    /// Self time per call kind, ns (nested store time excluded).
    pub self_ns: [u64; CALLS],
    /// Full call time per call kind, ns.
    pub total_ns: [u64; CALLS],
    /// Calls answered with `Block`.
    pub blocks: [u64; CALLS],
    pub store_calls: [u64; STORE_CALLS],
    pub store_ns: [u64; STORE_CALLS],
    /// First and last instant the thread was inside a traced call, as ns
    /// since the tracer was made (worker threads only).
    pub first_ns: Option<u64>,
    pub last_ns: u64,
    /// Time the tracer spent recording scheduler calls on this worker.
    pub trace_ns: u64,
    /// Commit instants, ns since the tracer was made.
    pub commit_at_ns: Vec<u64>,
    /// Update programs committed (the rest of `commit_at_ns` are
    /// read-only).
    pub update_commits: u64,
    /// Gaps from a committed update to this worker's next `begin`, ns.
    pub ack_wait_ns: Vec<u64>,
    last_update_commit: Option<Instant>,
}

impl TraceSlot {
    pub fn is_worker(&self) -> bool {
        self.calls[Call::Begin as usize] > 0
    }
}

/// Shared recorder for both decorators.
pub struct Tracer {
    epoch: Instant,
    slots: Slots<TraceSlot>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            slots: Slots::new(),
        }
    }

    /// Take what every thread recorded (once the run has joined).
    pub fn take(&self) -> Vec<TraceSlot> {
        self.slots.take_used()
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        ns(t - self.epoch)
    }
}

/// Decorator timing every scheduler call.
pub struct TracedScheduler<'a> {
    inner: &'a dyn Scheduler,
    hierarchy: &'a Hierarchy,
    tracer: &'a Tracer,
}

impl<'a> TracedScheduler<'a> {
    pub fn new(inner: &'a dyn Scheduler, hierarchy: &'a Hierarchy, tracer: &'a Tracer) -> Self {
        TracedScheduler {
            inner,
            hierarchy,
            tracer,
        }
    }

    /// Run `f` as one traced call of kind `call`. `blocked` tells from
    /// the result whether the call was answered with `Block`; `note`
    /// records anything else, given the result and the call's start and
    /// end.
    fn timed<R>(
        &self,
        call: Call,
        f: impl FnOnce() -> R,
        blocked: impl FnOnce(&R) -> bool,
        note: impl FnOnce(&mut TraceSlot, &R, Instant, Instant),
    ) -> R {
        let store0 = store_ns_so_far();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let total = ns(t1 - t0);
        let nested = store_ns_so_far() - store0;
        let was_blocked = blocked(&r);
        let worker = !matches!(call, Call::Maintenance);
        self.tracer.slots.with(|s| {
            let i = call as usize;
            s.calls[i] += 1;
            s.total_ns[i] += total;
            s.self_ns[i] += total.saturating_sub(nested);
            s.blocks[i] += u64::from(was_blocked);
            note(s, &r, t0, t1);
            if worker {
                s.first_ns.get_or_insert(self.tracer.since_epoch(t0));
                let end = Instant::now();
                s.last_ns = self.tracer.since_epoch(end);
                s.trace_ns += ns(end - t1);
            }
        });
        r
    }
}

impl Scheduler for TracedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        self.timed(
            Call::Begin,
            || self.inner.begin(profile),
            |_| false,
            |s, _, t0, _| {
                if let Some(t) = s.last_update_commit.take() {
                    s.ack_wait_ns.push(ns(t0 - t));
                }
            },
        )
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        let call = match h.class {
            None => Call::ReadRo,
            Some(c) if c == self.hierarchy.class_of(g.segment) => Call::ReadB,
            Some(_) => Call::ReadA,
        };
        self.timed(
            call,
            || self.inner.read(h, g),
            |r| matches!(r, ReadOutcome::Block),
            |_, _, _, _| {},
        )
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        self.timed(
            Call::Write,
            || self.inner.write(h, g, v),
            |r| matches!(r, WriteOutcome::Block),
            |_, _, _, _| {},
        )
    }

    fn commit(&self, h: &TxnHandle) -> CommitOutcome {
        self.timed(
            Call::Commit,
            || self.inner.commit(h),
            |r| matches!(r, CommitOutcome::Block),
            |s, r, _, t1| {
                if let CommitOutcome::Committed(_) = r {
                    s.commit_at_ns.push(self.tracer.since_epoch(t1));
                    if h.class.is_some() {
                        s.update_commits += 1;
                        s.last_update_commit = Some(t1);
                    }
                }
            },
        )
    }

    fn abort(&self, h: &TxnHandle) {
        self.timed(
            Call::Abort,
            || self.inner.abort(h),
            |()| false,
            |_, _, _, _| {},
        );
    }

    fn maintenance(&self) {
        self.timed(
            Call::Maintenance,
            || self.inner.maintenance(),
            |()| false,
            |_, _, _, _| {},
        );
    }

    fn log(&self) -> &ScheduleLog {
        self.inner.log()
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }
}

/// Decorator timing every storage call.
pub struct TracedStore {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl std::fmt::Debug for TracedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedStore")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl TracedStore {
    pub fn new(inner: Arc<dyn StorageBackend>, tracer: Arc<Tracer>) -> Self {
        TracedStore { inner, tracer }
    }

    /// Run `f` as one traced store call. The enclosing scheduler call's
    /// self time excludes both the call and its recording.
    fn timed<R>(&self, call: StoreCall, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        let d = ns(t0.elapsed());
        self.tracer.slots.with(|s| {
            s.store_calls[call as usize] += 1;
            s.store_ns[call as usize] += d;
        });
        let with_recording = ns(t0.elapsed());
        STORE_NS.with(|c| c.set(c.get() + with_recording));
        r
    }
}

impl StorageBackend for TracedStore {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn persistent(&self) -> bool {
        self.inner.persistent()
    }

    fn seed(&self, g: GranuleId, value: Value) {
        self.timed(StoreCall::Other, || self.inner.seed(g, value));
    }

    fn with_chain_dyn(&self, g: GranuleId, f: &mut dyn FnMut(&mut VersionChain)) {
        self.timed(StoreCall::Chain, || self.inner.with_chain_dyn(g, f));
    }

    fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        self.timed(StoreCall::CommitWrites, || {
            self.inner.commit_writes(writer, write_set);
        });
    }

    fn abort_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        self.timed(StoreCall::Other, || {
            self.inner.abort_writes(writer, write_set);
        });
    }

    fn put_versions(&self, batch: &[VersionRecord]) {
        self.timed(StoreCall::Other, || self.inner.put_versions(batch));
    }

    fn scan_chains(&self, f: &mut dyn FnMut(GranuleId, &VersionChain)) {
        self.timed(StoreCall::Other, || self.inner.scan_chains(f));
    }

    fn prune_before(&self, wm: Timestamp) -> usize {
        self.timed(StoreCall::Prune, || self.inner.prune_before(wm))
    }

    fn version_count(&self) -> usize {
        self.timed(StoreCall::Other, || self.inner.version_count())
    }

    fn granule_count(&self) -> usize {
        self.timed(StoreCall::Other, || self.inner.granule_count())
    }

    fn max_chain_len(&self) -> usize {
        self.timed(StoreCall::Other, || self.inner.max_chain_len())
    }

    fn sync(&self) -> std::io::Result<()> {
        self.timed(StoreCall::Other, || self.inner.sync())
    }
}
