//! Structured protocol decision tracing.
//!
//! Schedulers emit [`TraceEvent`]s — *why* Protocol A chose a version,
//! why an operation was rejected, what a time-wall evaluation produced,
//! what GC reclaimed — into a [`TraceRing`]: bounded, thread-affine
//! stripes stamped with a global ticket, merged back into one
//! ticket-ordered stream on drain (the same shape as the striped
//! schedule log). Each stripe is a fixed-capacity ring: when full, the
//! oldest event of that stripe is overwritten and counted in
//! [`TraceRing::dropped`], so tracing a long run keeps the freshest
//! forensic window instead of growing without bound.
//!
//! Events carry raw integers (transaction ids, class indices, logical
//! timestamps) rather than `txn-model` newtypes: this crate sits below
//! `txn-model` so the `Metrics` struct can embed an [`Obs`](crate::Obs)
//! sidecar without a dependency cycle.

use mc::sync::{AtomicU64, Mutex, Ordering, ThreadStripe};
use std::collections::VecDeque;
use std::fmt;

/// Why a protocol rejected an operation (forcing an abort), or — for
/// [`RejectReason::WallViolation`] — why an unregistered read found a
/// state its bound proof forbids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A write arrived after a younger transaction already read or
    /// overwrote the granule (TO write rule).
    WriteTooLate,
    /// A read arrived after a younger transaction already overwrote the
    /// granule (basic-TO read rule).
    ReadTooLate,
    /// An unregistered (Protocol A / Protocol C) read found a pending
    /// version below its activity-link or time-wall bound — a state the
    /// bound proofs rule out. The read blocks rather than aborts, but
    /// any occurrence is counted loudly.
    WallViolation,
    /// Chosen as a deadlock victim (2PL family).
    DeadlockVictim,
    /// Aborted by the straggler watchdog: the transaction outlived its
    /// lease while holding an activity-registry entry, wedging
    /// `I_old`/`C_late` (and with them the time wall and GC watermark).
    WatchdogAbort,
}

impl RejectReason {
    /// Short stable label (tables, JSON).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::WriteTooLate => "write-too-late",
            RejectReason::ReadTooLate => "read-too-late",
            RejectReason::WallViolation => "wall-violation",
            RejectReason::DeadlockVictim => "deadlock-victim",
            RejectReason::WatchdogAbort => "watchdog-abort",
        }
    }
}

/// Which fault a fault plan injected at a [`TraceEvent::CrashPoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// Worker crashed mid-transaction (abandoned without abort).
    Crash,
    /// Worker stalled while holding an activity-registry entry.
    Stall,
    /// Worker delayed its commit.
    DelayCommit,
}

impl FaultCode {
    /// Short stable label (tables, JSON).
    pub fn label(self) -> &'static str {
        match self {
            FaultCode::Crash => "crash",
            FaultCode::Stall => "stall",
            FaultCode::DelayCommit => "delay-commit",
        }
    }
}

impl fmt::Display for FaultCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured protocol decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Protocol A served a cross-class read: transaction `txn` of class
    /// `reader_class` read `segment`/`key` in `target_class` with
    /// activity-link bound `bound` computed from `m` (the transaction's
    /// initiation time), and was served the version stamped `version`.
    CrossRead {
        /// Reading transaction id.
        txn: u64,
        /// The reader's class index.
        reader_class: u32,
        /// The class owning the segment read.
        target_class: u32,
        /// Segment index of the granule.
        segment: u32,
        /// Granule key.
        key: u64,
        /// Evaluation argument `m` (`I(t)`).
        m: u64,
        /// The `I_old` composition result: versions at or above it are
        /// invisible.
        bound: u64,
        /// Write timestamp of the version served.
        version: u64,
    },
    /// Protocol C served a read below a released time wall.
    WallRead {
        /// Reading transaction id.
        txn: u64,
        /// The class owning the segment read.
        target_class: u32,
        /// Segment index.
        segment: u32,
        /// Granule key.
        key: u64,
        /// The wall's anchor time `m`.
        anchor: u64,
        /// The wall component `E_s^i(m)` used as the read bound.
        bound: u64,
        /// Write timestamp of the version served.
        version: u64,
    },
    /// A protocol rule refused an operation.
    Reject {
        /// The refused transaction.
        txn: u64,
        /// Segment index of the granule involved.
        segment: u32,
        /// Granule key.
        key: u64,
        /// Reason code.
        reason: RejectReason,
    },
    /// An operation had to wait (`Block` outcome).
    Block {
        /// The waiting transaction.
        txn: u64,
        /// Segment index.
        segment: u32,
        /// Granule key.
        key: u64,
        /// True for writes, false for reads.
        write: bool,
    },
    /// The time-wall service released a wall.
    WallRelease {
        /// Anchor time `m` of the wall.
        anchor: u64,
        /// Release time `RT(TW)`.
        released_at: u64,
    },
    /// Garbage collection reclaimed a batch of versions.
    GcReclaim {
        /// The safe watermark used.
        watermark: u64,
        /// Versions reclaimed.
        reclaimed: u64,
    },
    /// The concurrent driver slept in exponential backoff.
    Backoff {
        /// Sleep length in nanoseconds.
        nanos: u64,
    },
    /// The straggler watchdog reaped a transaction past its lease.
    WatchdogAbort {
        /// The reaped transaction.
        txn: u64,
        /// Its initiation time `I(t)` (the registry entry retired).
        start: u64,
        /// How far past its deadline it was, in microseconds.
        overdue_micros: u64,
    },
    /// The concurrent driver's fault plan injected a fault into a worker.
    CrashPoint {
        /// The transaction the fault hit.
        txn: u64,
        /// Program step index at which the fault fired.
        op_index: u64,
        /// Which fault was injected.
        fault: FaultCode,
    },
    /// Crash recovery replayed a log into a fresh store + registry.
    RecoveryReplay {
        /// Events in the surviving log prefix.
        events: u64,
        /// Committed transactions redone.
        redone: u64,
        /// Uncommitted transactions rolled back by omission.
        rolled_back: u64,
        /// In-flight transactions closed with synthetic aborts so the
        /// rebuilt activity registry has no running intervals.
        in_flight_aborted: u64,
        /// Restored timestamp high-water mark (post-recovery ticks are
        /// strictly greater).
        high_water_mark: u64,
    },
    /// The drift sketch's fold crossed its trip threshold: the live
    /// workload mix has moved away from its EWMA baseline (see
    /// `obs::drift`); the advisor should re-derive the observed DHG.
    DriftTrip {
        /// Fold ordinal at which the trip fired.
        fold: u64,
        /// Combined drift score at the trip, milli-units (0..=1000).
        score_milli: u64,
        /// Trip threshold in force, milli-units.
        threshold_milli: u64,
        /// Class blamed for the wall floor at the trip, or `u32::MAX`
        /// when no wall had been released yet.
        dragger_class: u32,
    },
}

impl TraceEvent {
    /// Short stable kind label (JSON, tables).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CrossRead { .. } => "cross-read",
            TraceEvent::WallRead { .. } => "wall-read",
            TraceEvent::Reject { .. } => "reject",
            TraceEvent::Block { .. } => "block",
            TraceEvent::WallRelease { .. } => "wall-release",
            TraceEvent::GcReclaim { .. } => "gc-reclaim",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::WatchdogAbort { .. } => "watchdog-abort",
            TraceEvent::CrashPoint { .. } => "crash-point",
            TraceEvent::RecoveryReplay { .. } => "recovery-replay",
            TraceEvent::DriftTrip { .. } => "drift-trip",
        }
    }

    /// The transaction the event belongs to, if any.
    pub fn txn(&self) -> Option<u64> {
        match self {
            TraceEvent::CrossRead { txn, .. }
            | TraceEvent::WallRead { txn, .. }
            | TraceEvent::Reject { txn, .. }
            | TraceEvent::Block { txn, .. }
            | TraceEvent::WatchdogAbort { txn, .. }
            | TraceEvent::CrashPoint { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::CrossRead {
                txn,
                reader_class,
                target_class,
                segment,
                key,
                m,
                bound,
                version,
            } => write!(
                f,
                "t{txn} (class {reader_class}) cross-read D{segment}[{key}] of class \
                 {target_class}: A(m={m}) = {bound}, served version ts:{version}"
            ),
            TraceEvent::WallRead {
                txn,
                target_class,
                segment,
                key,
                anchor,
                bound,
                version,
            } => write!(
                f,
                "t{txn} wall-read D{segment}[{key}] of class {target_class}: \
                 E(m={anchor}) = {bound}, served version ts:{version}"
            ),
            TraceEvent::Reject {
                txn,
                segment,
                key,
                reason,
            } => write!(f, "t{txn} rejected at D{segment}[{key}]: {reason}"),
            TraceEvent::Block {
                txn,
                segment,
                key,
                write,
            } => write!(
                f,
                "t{txn} blocked on {} D{segment}[{key}]",
                if *write { "write" } else { "read" }
            ),
            TraceEvent::WallRelease {
                anchor,
                released_at,
            } => write!(f, "wall released: anchor ts:{anchor} at ts:{released_at}"),
            TraceEvent::GcReclaim {
                watermark,
                reclaimed,
            } => write!(f, "gc reclaimed {reclaimed} versions below ts:{watermark}"),
            TraceEvent::Backoff { nanos } => write!(f, "driver backoff sleep {nanos} ns"),
            TraceEvent::WatchdogAbort {
                txn,
                start,
                overdue_micros,
            } => write!(
                f,
                "watchdog reaped t{txn} (I={start}), {overdue_micros} µs past its lease"
            ),
            TraceEvent::CrashPoint {
                txn,
                op_index,
                fault,
            } => write!(f, "chaos injected {fault} into t{txn} at op {op_index}"),
            TraceEvent::RecoveryReplay {
                events,
                redone,
                rolled_back,
                in_flight_aborted,
                high_water_mark,
            } => write!(
                f,
                "recovery replayed {events} events: {redone} redone, {rolled_back} rolled \
                 back, {in_flight_aborted} in-flight aborted, clock resumed past \
                 ts:{high_water_mark}"
            ),
            TraceEvent::DriftTrip {
                fold,
                score_milli,
                threshold_milli,
                dragger_class,
            } => {
                write!(
                    f,
                    "drift tripped at fold {fold}: score {score_milli}\u{2030} >= \
                     {threshold_milli}\u{2030}, wall dragged by "
                )?;
                if *dragger_class == u32::MAX {
                    write!(f, "no class")
                } else {
                    write!(f, "class {dragger_class}")
                }
            }
        }
    }
}

/// Power-of-two stripe count.
const STRIPES: usize = 8;

/// Default events retained per stripe (freshest window; ~3 MB total at
/// the 48-byte event size).
pub const DEFAULT_STRIPE_CAPACITY: usize = 8192;

/// Allocator of stable per-thread stripe indices (deterministic model
/// thread ids under `--cfg mc`).
static STRIPE_OF_THREAD: ThreadStripe = ThreadStripe::new();

/// Bounded, ticket-stamped, thread-affine event ring (see module docs).
#[derive(Debug)]
pub struct TraceRing {
    stripes: Vec<Mutex<VecDeque<(u64, TraceEvent)>>>,
    seq: AtomicU64,
    dropped: AtomicU64,
    capacity: usize,
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_STRIPE_CAPACITY)
    }
}

impl TraceRing {
    /// A ring retaining at most `per_stripe` events per stripe.
    pub fn with_capacity(per_stripe: usize) -> Self {
        TraceRing {
            stripes: (0..STRIPES).map(|_| Mutex::new(VecDeque::new())).collect(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity: per_stripe.max(1),
        }
    }

    /// Append an event: draw a global ticket, push into the calling
    /// thread's stripe (uncontended in the steady state — each worker
    /// owns its stripe), evicting that stripe's oldest event when full.
    pub fn push(&self, ev: TraceEvent) {
        // ordering: Relaxed — ticket uniqueness from fetch_add atomicity;
        // the event payload is published by the stripe mutex below.
        let ticket = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripes[STRIPE_OF_THREAD.index_for_thread(STRIPES - 1)].lock();
        if stripe.len() >= self.capacity {
            stripe.pop_front();
            // ordering: Relaxed — statistical eviction counter.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        stripe.push_back((ticket, ev));
    }

    /// Events recorded over the ring's lifetime (including evicted ones).
    pub fn recorded(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.seq.load(Ordering::Relaxed)
    }

    /// Events evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        // ordering: Relaxed — advisory total, exact only at quiescence.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Take every retained event out of the ring, merged into one
    /// ticket-ordered stream (ascending; gaps mark evictions). Intended
    /// for quiescent moments — a drain concurrent with appends may miss
    /// in-flight tickets.
    pub fn drain(&self) -> Vec<(u64, TraceEvent)> {
        let mut all: Vec<(u64, TraceEvent)> = Vec::new();
        for s in &self.stripes {
            all.extend(s.lock().drain(..));
        }
        all.sort_unstable_by_key(|&(t, _)| t);
        all
    }

    /// Drop every retained event and zero the lifetime counters.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.lock().clear();
        }
        // ordering: Relaxed — counter reset between phases; racing pushes
        // land on either side, both acceptable.
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed); // ordering: phase reset, see note above
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_is_ticket_ordered() {
        let ring = TraceRing::with_capacity(64);
        for i in 0..50 {
            ring.push(TraceEvent::Backoff { nanos: i });
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 50);
        for w in drained.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(ring.recorded(), 50);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.drain().is_empty(), "drain removes events");
    }

    #[test]
    fn ring_keeps_the_freshest_window() {
        let ring = TraceRing::with_capacity(4);
        for i in 0..100u64 {
            ring.push(TraceEvent::Backoff { nanos: i });
        }
        let drained = ring.drain();
        // Single-threaded: one stripe in use, so exactly `capacity`
        // events survive and they are the newest ones.
        assert_eq!(drained.len(), 4);
        assert_eq!(ring.dropped(), 96);
        for (ticket, ev) in drained {
            assert!(ticket >= 96);
            assert!(matches!(ev, TraceEvent::Backoff { nanos } if nanos >= 96));
        }
    }

    #[test]
    fn concurrent_pushes_get_unique_tickets() {
        let ring = TraceRing::with_capacity(100_000);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..1000 {
                        ring.push(TraceEvent::Backoff {
                            nanos: t * 10_000 + i,
                        });
                    }
                });
            }
        });
        let drained = ring.drain();
        assert_eq!(drained.len(), 8000);
        for (i, w) in drained.windows(2).enumerate() {
            assert!(w[0].0 < w[1].0, "ticket order broken at {i}");
        }
        // Tickets are dense when nothing was evicted.
        assert_eq!(drained.last().unwrap().0, 7999);
    }

    #[test]
    fn wraparound_drain_is_monotone_and_untorn_under_8_threads() {
        // Overfill every stripe (8 threads × 3000 events into 256-slot
        // stripes), then drain: tickets must be strictly ascending with
        // no duplicates (no torn/double-counted events), every payload
        // must be internally consistent (thread tag and sequence agree
        // — a torn read would mix them), and the eviction arithmetic
        // must balance exactly.
        const PER_THREAD: u64 = 3000;
        const THREADS: u64 = 8;
        let ring = TraceRing::with_capacity(256);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // Payload encodes (thread, seq) redundantly in
                        // two fields so a torn event is detectable.
                        ring.push(TraceEvent::WatchdogAbort {
                            txn: t * PER_THREAD + i,
                            start: t,
                            overdue_micros: i,
                        });
                    }
                });
            }
        });
        let recorded = ring.recorded();
        let dropped = ring.dropped();
        assert_eq!(recorded, THREADS * PER_THREAD);
        assert!(dropped > 0, "test must actually wrap");
        let drained = ring.drain();
        assert_eq!(
            drained.len() as u64 + dropped,
            recorded,
            "every event is either retained or counted dropped"
        );
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<u64> = None;
        for (ticket, ev) in &drained {
            assert!(*ticket < recorded, "ticket out of range");
            assert!(seen.insert(*ticket), "duplicate ticket {ticket}");
            if let Some(p) = prev {
                assert!(p < *ticket, "not strictly ascending at {ticket}");
            }
            prev = Some(*ticket);
            match ev {
                TraceEvent::WatchdogAbort {
                    txn,
                    start,
                    overdue_micros,
                } => {
                    assert_eq!(
                        *txn,
                        start * PER_THREAD + overdue_micros,
                        "torn event payload"
                    );
                    assert!(*start < THREADS && *overdue_micros < PER_THREAD);
                }
                other => panic!("foreign event {other:?}"),
            }
        }
        // The ring retains at most STRIPES × capacity events, and keeps
        // a *fresh* window: the newest retained ticket must come from
        // the final stretch of the run (stripe eviction is pop-front).
        assert!(drained.len() <= 8 * 256);
        let newest = drained.last().expect("ring not empty").0;
        assert!(
            newest + (8 * 256) >= recorded,
            "newest retained ticket {newest} is stale (recorded {recorded})"
        );
    }

    #[test]
    fn display_renders_every_kind() {
        let evs = [
            TraceEvent::CrossRead {
                txn: 1,
                reader_class: 2,
                target_class: 0,
                segment: 0,
                key: 7,
                m: 10,
                bound: 8,
                version: 5,
            },
            TraceEvent::WallRead {
                txn: 2,
                target_class: 1,
                segment: 1,
                key: 3,
                anchor: 20,
                bound: 18,
                version: 9,
            },
            TraceEvent::Reject {
                txn: 3,
                segment: 0,
                key: 1,
                reason: RejectReason::WriteTooLate,
            },
            TraceEvent::Block {
                txn: 4,
                segment: 2,
                key: 2,
                write: true,
            },
            TraceEvent::WallRelease {
                anchor: 30,
                released_at: 31,
            },
            TraceEvent::GcReclaim {
                watermark: 25,
                reclaimed: 12,
            },
            TraceEvent::Backoff { nanos: 1024 },
            TraceEvent::WatchdogAbort {
                txn: 5,
                start: 40,
                overdue_micros: 1500,
            },
            TraceEvent::CrashPoint {
                txn: 6,
                op_index: 3,
                fault: FaultCode::Stall,
            },
            TraceEvent::RecoveryReplay {
                events: 100,
                redone: 10,
                rolled_back: 2,
                in_flight_aborted: 1,
                high_water_mark: 99,
            },
            TraceEvent::DriftTrip {
                fold: 7,
                score_milli: 410,
                threshold_milli: 250,
                dragger_class: 1,
            },
            TraceEvent::DriftTrip {
                fold: 8,
                score_milli: 300,
                threshold_milli: 250,
                dragger_class: u32::MAX,
            },
        ];
        for ev in evs {
            let s = format!("{ev}");
            assert!(!s.is_empty());
            assert!(!ev.kind().is_empty());
        }
    }
}
