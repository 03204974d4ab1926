//! The latency probe: the only decorator on an untraced run.
//!
//! It times each program from its first `begin` to its commit, restarts
//! included, with two clock reads per transaction. A program's first
//! `begin` is recognised by its profile: the driver passes the same
//! `&TxnProfile` on every restart of a program, so a new address on the
//! same thread means a new program.

use crate::slots::Slots;
use std::time::Instant;
use txn_model::{
    CommitOutcome, GranuleId, Metrics, ReadOutcome, ScheduleLog, Scheduler, TxnHandle, TxnProfile,
    Value, WriteOutcome,
};

/// What one worker saw.
#[derive(Default)]
pub struct ProbeSlot {
    program: usize,
    started: Option<Instant>,
    read_only: bool,
    /// Update-program latencies, ns.
    pub update_ns: Vec<u64>,
    /// Read-only-program latencies, ns.
    pub ro_ns: Vec<u64>,
    /// Update programs the scheduler committed.
    pub update_commits: u64,
    /// Read-only programs the scheduler committed.
    pub ro_commits: u64,
}

/// Decorator timing whole programs around the scheduler calls.
pub struct Probe<'a> {
    inner: &'a dyn Scheduler,
    slots: Slots<ProbeSlot>,
}

impl<'a> Probe<'a> {
    pub fn new(inner: &'a dyn Scheduler) -> Self {
        Probe {
            inner,
            slots: Slots::new(),
        }
    }

    /// The per-worker records, after the run.
    pub fn finish(self) -> Vec<ProbeSlot> {
        self.slots.take_used()
    }
}

impl Scheduler for Probe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&self, profile: &TxnProfile) -> TxnHandle {
        let key = std::ptr::from_ref(profile) as usize;
        self.slots.with(|s| {
            if s.program != key {
                s.program = key;
                s.started = Some(Instant::now());
                s.read_only = profile.is_read_only();
            }
        });
        self.inner.begin(profile)
    }

    fn read(&self, h: &TxnHandle, g: GranuleId) -> ReadOutcome {
        self.inner.read(h, g)
    }

    fn write(&self, h: &TxnHandle, g: GranuleId, v: Value) -> WriteOutcome {
        self.inner.write(h, g, v)
    }

    fn commit(&self, h: &TxnHandle) -> CommitOutcome {
        let out = self.inner.commit(h);
        if let CommitOutcome::Committed(_) = out {
            self.slots.with(|s| {
                let t = ns(s.started.take().expect("commit without a begin").elapsed());
                if s.read_only {
                    s.ro_commits += 1;
                    s.ro_ns.push(t);
                } else {
                    s.update_commits += 1;
                    s.update_ns.push(t);
                }
            });
        }
        out
    }

    fn abort(&self, h: &TxnHandle) {
        self.inner.abort(h);
    }

    fn maintenance(&self) {
        self.inner.maintenance();
    }

    fn log(&self) -> &ScheduleLog {
        self.inner.log()
    }

    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }
}

pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
