//! Per-class transaction activity history: the inputs to `I_old` and
//! `C_late`.
//!
//! The activity-link machinery needs, for any past time `m`, the set of
//! transactions of a class *active at m* — `I(t) < m < C(t)`, where an
//! aborted transaction counts as active until its abort ("uncommitted and
//! un-aborted"). [`ClassActivity`] keeps the `(start, end)` intervals of a
//! class's transactions; [`ActivityRegistry`] is the per-class array.
//!
//! Evaluation at past times is well-defined because queries are only ever
//! issued with `m ≤ now`: a transaction still running at evaluation time
//! has `C(t) > now ≥ m`, so its activity at `m` is already determined.
//!
//! # Hot-path structure
//!
//! Initiation timestamps come from a monotonic clock, so under
//! [`ActivityRegistry::begin_with`] (which draws the timestamp *inside*
//! the class lock) inserts are pure appends — no binary search, no
//! memmove. Drawing the timestamp under the lock is also a correctness
//! requirement, not just a fast path: it makes `I_old(m)` immutable for
//! every `m ≤ now` (no transaction can later surface with a start below
//! an already-evaluated bound), which is what Protocol A's bound proof
//! assumes. A begin whose timestamp was drawn outside the lock could be
//! observed by a concurrent bound evaluation *after* the tick but
//! *before* the insert, yielding a bound above the newcomer's start —
//! and with it, reads that straddle another transaction's commit.
//!
//! Queries exploit a lazily-advanced **settled cursor**: the longest
//! prefix of (start-sorted) intervals in which every transaction has
//! ended. Each settled interval stores the maximum end time of the
//! prefix up to and including itself, a non-decreasing sequence. For a
//! query at `m` at or above the whole prefix's maximum, no settled
//! interval can still be active at `m`, so the scan starts at the
//! cursor. Below it, the query binary-searches the prefix maxima for the
//! first interval whose end exceeds `m`: every earlier interval ended at
//! or before `m`, and that one is the oldest candidate. Either way a
//! query costs O(log n + active window), not O(total history). The
//! instrumented scan counter counts the binary-search probes as well as
//! the intervals examined, which keeps this claim testable.
//!
//! History is pruned by garbage collection: an interval that ended before
//! the GC watermark can never again satisfy `end > m` for future queries.

use mc::sync::Mutex;
use std::cell::Cell;
use txn_model::{ClassId, Timestamp};

/// Outcome of a `C_late` evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CLate {
    /// The latest commit time of transactions active at `m` (or `m` when
    /// none were active).
    Time(Timestamp),
    /// Some transaction started at or before `m` is still running —
    /// `C_late(m)` is not yet computable (Section 5.1); retry later.
    NotComputable,
}

/// One transaction's activity interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    start: Timestamp,
    /// `None` while running; commit or abort time once ended.
    end: Option<Timestamp>,
    /// True when ended by commit (aborts contribute no commit time to
    /// `C_late` but bound activity exactly like commits).
    committed: bool,
    /// Maximum end time of `entries[..=i]`; written when the settled
    /// cursor passes this entry and meaningful only below it.
    max_end: Timestamp,
}

impl Interval {
    fn new(start: Timestamp, end: Option<Timestamp>, committed: bool) -> Self {
        Interval {
            start,
            end,
            committed,
            max_end: Timestamp::ZERO,
        }
    }
}

/// Activity history of a single transaction class.
#[derive(Debug, Default)]
pub struct ClassActivity {
    /// Sorted ascending by `start` (starts are unique clock ticks).
    entries: Vec<Interval>,
    /// Length of the longest all-ended prefix of `entries`.
    settled: usize,
    /// Number of entries still running (`end == None`).
    running: usize,
    /// Binary-search probes plus intervals examined by `i_old`/`c_late`
    /// since construction (instrumentation; `Cell` is fine — the struct
    /// lives in a mutex).
    scans: Cell<u64>,
}

impl ClassActivity {
    fn position(&self, start: Timestamp) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&start, |e| e.start)
    }

    /// Maximum end time within the settled prefix (`ZERO` when empty).
    fn settled_max_end(&self) -> Timestamp {
        self.settled
            .checked_sub(1)
            .map_or(Timestamp::ZERO, |i| self.entries[i].max_end)
    }

    /// Advance the settled cursor over every ended entry it now covers,
    /// recording each passed entry's prefix maximum end.
    fn advance_settled(&mut self) {
        let mut max_end = self.settled_max_end();
        while let Some(e) = self.entries.get_mut(self.settled) {
            let Some(end) = e.end else { break };
            max_end = max_end.max(end);
            e.max_end = max_end;
            self.settled += 1;
        }
    }

    /// Recompute all cursors and prefix maxima from scratch (cold paths:
    /// prune/absorb).
    fn rebuild_cursors(&mut self) {
        self.settled = 0;
        self.running = self.entries.iter().filter(|e| e.end.is_none()).count();
        self.advance_settled();
    }

    /// First entry index a query at `m` must examine, plus the
    /// binary-search probes spent finding it. Entries below the settled
    /// cursor have all ended at or before its maximum end, so at or above
    /// that maximum none can satisfy `end > m`. Below it, the prefix
    /// maxima are sorted: the first entry whose prefix maximum exceeds
    /// `m` is the first whose own end does, and no earlier entry can be
    /// active at `m`.
    fn scan_start(&self, m: Timestamp) -> (usize, u64) {
        if m >= self.settled_max_end() {
            return (self.settled, 0);
        }
        let mut probes = 0u64;
        let i = self.entries[..self.settled].partition_point(|e| {
            probes += 1;
            e.max_end <= m
        });
        (i, probes)
    }

    /// Record a transaction beginning at `start`.
    pub fn begin(&mut self, start: Timestamp) {
        self.running += 1;
        // Monotonic-clock fast path: strictly newer than everything seen.
        if self.entries.last().is_none_or(|l| start > l.start) {
            self.entries.push(Interval::new(start, None, false));
            return;
        }
        // Out-of-order insert (absorbed histories, tests).
        match self.position(start) {
            Ok(_) => panic!("duplicate initiation timestamp {start}"),
            Err(i) => {
                self.entries.insert(i, Interval::new(start, None, false));
                if i < self.settled {
                    // A running entry appeared inside the settled prefix.
                    self.rebuild_cursors();
                }
            }
        }
    }

    /// Record the end (commit or abort) of the transaction that began at
    /// `start`.
    pub fn end(&mut self, start: Timestamp, end: Timestamp, committed: bool) {
        if let Ok(i) = self.position(start) {
            debug_assert!(self.entries[i].end.is_none(), "transaction ended twice");
            self.entries[i].end = Some(end);
            self.entries[i].committed = committed;
            self.running -= 1;
            if i == self.settled {
                self.advance_settled();
            }
        } else {
            debug_assert!(false, "ending unknown transaction {start}");
        }
    }

    /// `I_old(m)`: the initiation time of the oldest transaction active at
    /// `m`, or `m` itself when none is active.
    pub fn i_old(&self, m: Timestamp) -> Timestamp {
        self.i_old_counted(m).0
    }

    /// [`i_old`](Self::i_old) plus the number of binary-search probes
    /// and intervals the evaluation examined — the per-call scan length
    /// behind the O(log n + active) claim, fed to the obs registry-scan
    /// histogram.
    pub fn i_old_counted(&self, m: Timestamp) -> (Timestamp, u64) {
        let (from, mut scanned) = self.scan_start(m);
        for e in &self.entries[from..] {
            scanned += 1;
            if e.start >= m {
                break; // sorted: no further entry can have start < m
            }
            if e.end.is_none_or(|end| end > m) {
                self.scans.set(self.scans.get() + scanned);
                return (e.start, scanned);
            }
        }
        self.scans.set(self.scans.get() + scanned);
        (m, scanned)
    }

    /// `C_late(m)`: the latest *end* time (commit or abort) of
    /// transactions active at `m` (`m` when none), or
    /// [`CLate::NotComputable`] while any transaction started at or
    /// before `m` is still running.
    ///
    /// The paper defines `C_late` over commit times; aborts must bound it
    /// too, because the inverse-pairing `I_old(C_late(x)) ≥ x` (the heart
    /// of Properties 2.1/2.2) quantifies over everything `I_old` counts
    /// as active — and an aborted transaction is active until its abort.
    /// Using the abort time is safe: it only pushes the wall later, past
    /// the point where the (version-less) aborted transaction is gone.
    pub fn c_late(&self, m: Timestamp) -> CLate {
        let mut max_end = m;
        let (from, mut scanned) = self.scan_start(m);
        for e in &self.entries[from..] {
            scanned += 1;
            if e.start > m {
                break;
            }
            match e.end {
                None => {
                    self.scans.set(self.scans.get() + scanned);
                    return CLate::NotComputable;
                }
                Some(end) => {
                    if e.start < m && end > m && end > max_end {
                        max_end = end;
                    }
                }
            }
        }
        self.scans.set(self.scans.get() + scanned);
        CLate::Time(max_end)
    }

    /// The initiation time of the oldest transaction still running, if
    /// any (GC watermark input).
    pub fn oldest_running(&self) -> Option<Timestamp> {
        if self.running == 0 {
            return None;
        }
        self.entries[self.settled..]
            .iter()
            .find(|e| e.end.is_none())
            .map(|e| e.start)
    }

    /// Drop intervals that ended before `wm`; they can never satisfy
    /// `end > m` for queries with `m ≥ wm`. Returns entries dropped.
    pub fn prune_ended_before(&mut self, wm: Timestamp) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.end.is_none_or(|end| end >= wm));
        let dropped = before - self.entries.len();
        if dropped > 0 {
            self.rebuild_cursors();
        }
        dropped
    }

    /// Number of retained intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no intervals are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True while any transaction of the class is running.
    pub fn has_running(&self) -> bool {
        self.running > 0
    }

    /// Probes plus intervals examined by `i_old`/`c_late` since
    /// construction.
    pub fn scan_count(&self) -> u64 {
        self.scans.get()
    }

    /// Live shape of this class's history (gauge-board sampling).
    pub fn stats(&self) -> ClassStats {
        ClassStats {
            intervals: self.entries.len(),
            settled: self.settled,
            running: self.running,
        }
    }

    /// Export all intervals as `(start, end, committed)` tuples
    /// (dynamic-restructuring registry hand-off).
    pub fn export(&self) -> Vec<(Timestamp, Option<Timestamp>, bool)> {
        self.entries
            .iter()
            .map(|e| (e.start, e.end, e.committed))
            .collect()
    }

    /// Absorb exported intervals (keeps the start-sorted invariant; used
    /// when classes are merged, where histories of several old classes
    /// union into one).
    pub fn absorb(&mut self, intervals: &[(Timestamp, Option<Timestamp>, bool)]) {
        for &(start, end, committed) in intervals {
            match self.position(start) {
                Ok(_) => {} // already present (idempotent hand-off)
                Err(i) => self.entries.insert(i, Interval::new(start, end, committed)),
            }
        }
        self.rebuild_cursors();
    }
}

/// A point-in-time view of one class's activity history shape, sampled
/// for the gauge board: interval and running counts plus the settled
/// cursor, whose lag ([`ClassStats::settled_lag`]) is the leading
/// indicator of `I_old`/`C_late` scan cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Intervals currently retained.
    pub intervals: usize,
    /// Length of the settled (all-ended) prefix.
    pub settled: usize,
    /// Entries still running (`end == None`).
    pub running: usize,
}

impl ClassStats {
    /// Intervals not yet behind the settled cursor — the portion a
    /// bound evaluation may still have to scan.
    pub fn settled_lag(&self) -> usize {
        self.intervals.saturating_sub(self.settled)
    }
}

/// Activity histories for every transaction class.
#[derive(Debug)]
pub struct ActivityRegistry {
    classes: Vec<Mutex<ClassActivity>>,
}

impl ActivityRegistry {
    /// A registry for `n_classes` classes.
    pub fn new(n_classes: usize) -> Self {
        ActivityRegistry {
            classes: (0..n_classes)
                .map(|_| Mutex::new(ClassActivity::default()))
                .collect(),
        }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Record a begin in `class`.
    pub fn begin(&self, class: ClassId, start: Timestamp) {
        self.classes[class.index()].lock().begin(start);
    }

    /// Draw an initiation timestamp from `tick` **while holding the class
    /// lock**, record the begin, and return the timestamp.
    ///
    /// This is the only begin entry point safe under concurrency: any
    /// bound evaluation (`i_old`) that could observe a time at or above
    /// the new start is serialized after the insert by the class lock, so
    /// `I_old(m)` stays immutable for `m ≤ now`. It also guarantees
    /// per-class monotone starts, making the insert a pure append.
    pub fn begin_with(&self, class: ClassId, tick: impl FnOnce() -> Timestamp) -> Timestamp {
        let mut c = self.classes[class.index()].lock();
        let start = tick();
        c.begin(start);
        start
    }

    /// Record a commit in `class`.
    pub fn commit(&self, class: ClassId, start: Timestamp, commit_ts: Timestamp) {
        self.classes[class.index()]
            .lock()
            .end(start, commit_ts, true);
    }

    /// Record an abort in `class`.
    pub fn abort(&self, class: ClassId, start: Timestamp, abort_ts: Timestamp) {
        self.classes[class.index()]
            .lock()
            .end(start, abort_ts, false);
    }

    /// Draw a termination timestamp from `tick` **while holding the
    /// class lock**, record the end, and return the timestamp.
    ///
    /// The end-side twin of [`begin_with`](Self::begin_with), and just as
    /// load-bearing: if the end timestamp is drawn *outside* the lock,
    /// there is a window where a transaction has terminated (its end
    /// timestamp exists, possibly below some `m`) but the registry still
    /// reports it active — so `I_old(m)` evaluates low now and high
    /// later, and two readers bounding off the *same* `m` pick versions
    /// in incompatible orders (a real dependency cycle at 8 workers).
    /// Ticking under the lock guarantees every entry an evaluator counts
    /// as "running, hence active at `m`" really does end at some
    /// `e > m`, making `I_old`/`C_late` exact functions of `m`.
    pub fn end_with(
        &self,
        class: ClassId,
        start: Timestamp,
        committed: bool,
        tick: impl FnOnce() -> Timestamp,
    ) -> Timestamp {
        let mut c = self.classes[class.index()].lock();
        let end = tick();
        c.end(start, end, committed);
        end
    }

    /// `I_old` of `class` at `m`.
    pub fn i_old(&self, class: ClassId, m: Timestamp) -> Timestamp {
        self.classes[class.index()].lock().i_old(m)
    }

    /// `I_old` of `class` at `m`, plus the probes and intervals examined.
    pub fn i_old_counted(&self, class: ClassId, m: Timestamp) -> (Timestamp, u64) {
        self.classes[class.index()].lock().i_old_counted(m)
    }

    /// `C_late` of `class` at `m`.
    pub fn c_late(&self, class: ClassId, m: Timestamp) -> CLate {
        self.classes[class.index()].lock().c_late(m)
    }

    /// The globally oldest running transaction's start, if any.
    pub fn oldest_running(&self) -> Option<Timestamp> {
        self.classes
            .iter()
            .filter_map(|c| c.lock().oldest_running())
            .min()
    }

    /// Prune all classes' histories; returns intervals dropped.
    pub fn prune_ended_before(&self, wm: Timestamp) -> usize {
        self.classes
            .iter()
            .map(|c| c.lock().prune_ended_before(wm))
            .sum()
    }

    /// Total retained intervals (diagnostics).
    pub fn interval_count(&self) -> usize {
        self.classes.iter().map(|c| c.lock().len()).sum()
    }

    /// Total probes plus intervals examined by `i_old`/`c_late` across
    /// all classes since construction (instrumentation for the
    /// O(log n + active) claim).
    pub fn scan_count(&self) -> u64 {
        self.classes.iter().map(|c| c.lock().scan_count()).sum()
    }

    /// Live shape of `class`'s history (one brief lock acquisition; the
    /// gauge-board refresh samples every class each maintenance tick).
    pub fn class_stats(&self, class: ClassId) -> ClassStats {
        self.classes[class.index()].lock().stats()
    }

    /// True while any transaction of `class` is running.
    pub fn class_has_running(&self, class: ClassId) -> bool {
        self.classes[class.index()].lock().has_running()
    }

    /// True while a transaction of `class` that started before `m` is
    /// still running (the time-wall release check).
    pub fn class_running_before(&self, class: ClassId, m: Timestamp) -> bool {
        self.classes[class.index()]
            .lock()
            .oldest_running()
            .is_some_and(|start| start < m)
    }

    /// Export one class's intervals.
    pub fn export_class(&self, class: ClassId) -> Vec<(Timestamp, Option<Timestamp>, bool)> {
        self.classes[class.index()].lock().export()
    }

    /// Absorb intervals into `class`.
    pub fn absorb_class(&self, class: ClassId, intervals: &[(Timestamp, Option<Timestamp>, bool)]) {
        self.classes[class.index()].lock().absorb(intervals);
    }

    /// Record the end of a transaction in `class` without requiring a
    /// prior `begin` in this registry (mirroring ends across epochs in
    /// dynamic restructuring). Idempotent: completes a running copied
    /// interval, inserts a completed one if absent, and leaves
    /// already-ended intervals alone.
    pub fn mirror_end(&self, class: ClassId, start: Timestamp, end: Timestamp, committed: bool) {
        let mut c = self.classes[class.index()].lock();
        match c.export().iter().find(|&&(s, _, _)| s == start) {
            Some(&(_, None, _)) => c.end(start, end, committed),
            Some(_) => {} // already ended
            None => c.absorb(&[(start, Some(end), committed)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn class_stats_track_running_and_settled_lag() {
        let r = ActivityRegistry::new(2);
        let c = ClassId(0);
        r.begin(c, Timestamp(1));
        r.begin(c, Timestamp(2));
        let s = r.class_stats(c);
        assert_eq!(s.intervals, 2);
        assert_eq!(s.running, 2);
        assert_eq!(s.settled, 0);
        assert_eq!(s.settled_lag(), 2);
        r.commit(c, Timestamp(1), Timestamp(3));
        r.commit(c, Timestamp(2), Timestamp(4));
        let s = r.class_stats(c);
        assert_eq!(s.running, 0);
        assert_eq!(s.settled, 2, "cursor advances over ended prefix");
        assert_eq!(s.settled_lag(), 0);
        assert_eq!(r.class_stats(ClassId(1)), ClassStats::default());
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    #[test]
    fn i_old_picks_oldest_active() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        a.begin(ts(10));
        a.end(ts(5), ts(8), true);
        // At m=9: t@5 ended at 8 (not active), t@10 not started.
        assert_eq!(a.i_old(ts(9)), ts(9));
        // At m=12: t@10 active.
        assert_eq!(a.i_old(ts(12)), ts(10));
        // At m=7: t@5 active (5 < 7 < 8).
        assert_eq!(a.i_old(ts(7)), ts(5));
        // Boundaries are strict: at m=5 t@5 not yet active; at m=8 ended.
        assert_eq!(a.i_old(ts(5)), ts(5));
        assert_eq!(a.i_old(ts(8)), ts(8));
    }

    #[test]
    fn i_old_with_running_txn() {
        let mut a = ClassActivity::default();
        a.begin(ts(3));
        assert_eq!(a.i_old(ts(100)), ts(3));
        assert_eq!(a.i_old(ts(3)), ts(3)); // strict start
        assert_eq!(a.i_old(ts(2)), ts(2));
    }

    #[test]
    fn i_old_never_exceeds_argument() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        a.end(ts(5), ts(20), true);
        for m in 0..25 {
            assert!(a.i_old(ts(m)) <= ts(m));
        }
    }

    #[test]
    fn aborted_txn_bounds_activity_and_c_late() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        a.end(ts(5), ts(9), false); // aborted at 9
                                    // Active for i_old purposes during (5, 9).
        assert_eq!(a.i_old(ts(7)), ts(5));
        assert_eq!(a.i_old(ts(10)), ts(10));
        // The abort end bounds C_late exactly like a commit would:
        // I_old(C_late(x)) ≥ x must hold for everything I_old counts.
        assert_eq!(a.c_late(ts(7)), CLate::Time(ts(9)));
        assert_eq!(a.i_old(ts(9)), ts(9)); // pairing inequality at work
    }

    #[test]
    fn c_late_takes_latest_commit_of_active() {
        let mut a = ClassActivity::default();
        a.begin(ts(2));
        a.begin(ts(4));
        a.end(ts(2), ts(10), true);
        a.end(ts(4), ts(8), true);
        // At m=5 both active; latest commit = 10.
        assert_eq!(a.c_late(ts(5)), CLate::Time(ts(10)));
        // At m=9 only t@2 active (4..8 ended).
        assert_eq!(a.c_late(ts(9)), CLate::Time(ts(10)));
        // At m=11 none active.
        assert_eq!(a.c_late(ts(11)), CLate::Time(ts(11)));
    }

    #[test]
    fn c_late_not_computable_while_running() {
        let mut a = ClassActivity::default();
        a.begin(ts(5));
        assert_eq!(a.c_late(ts(7)), CLate::NotComputable);
        assert_eq!(a.c_late(ts(5)), CLate::NotComputable); // started AT m
        assert_eq!(a.c_late(ts(4)), CLate::Time(ts(4))); // started after m
        a.end(ts(5), ts(9), true);
        assert_eq!(a.c_late(ts(7)), CLate::Time(ts(9)));
    }

    #[test]
    fn prune_drops_only_history() {
        let mut a = ClassActivity::default();
        a.begin(ts(1));
        a.end(ts(1), ts(2), true);
        a.begin(ts(3)); // still running
        a.begin(ts(4));
        a.end(ts(4), ts(6), true);
        assert_eq!(a.prune_ended_before(ts(5)), 1); // only (1,2)
        assert_eq!(a.len(), 2);
        // Queries at m >= watermark unaffected.
        assert_eq!(a.i_old(ts(5)), ts(3));
    }

    #[test]
    fn absorb_is_idempotent_and_sorted() {
        let mut a = ClassActivity::default();
        a.begin(ts(10));
        let intervals = vec![(ts(5), Some(ts(8)), true), (ts(12), None, false)];
        a.absorb(&intervals);
        a.absorb(&intervals); // idempotent
        assert_eq!(a.len(), 3);
        assert_eq!(a.i_old(ts(6)), ts(5));
        assert_eq!(a.i_old(ts(15)), ts(10)); // running copy at 10
        let exported = a.export();
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
    }

    #[test]
    fn mirror_end_completes_inserts_and_ignores() {
        let r = ActivityRegistry::new(1);
        let c = ClassId(0);
        // Completes a running copied interval.
        r.absorb_class(c, &[(ts(5), None, false)]);
        r.mirror_end(c, ts(5), ts(9), true);
        assert_eq!(r.c_late(c, ts(7)), CLate::Time(ts(9)));
        // Inserts a completed interval when absent.
        r.mirror_end(c, ts(20), ts(25), true);
        assert_eq!(r.i_old(c, ts(22)), ts(20));
        // Ignores an already-ended interval (no panic, no change).
        r.mirror_end(c, ts(5), ts(99), false);
        assert_eq!(r.c_late(c, ts(7)), CLate::Time(ts(9)));
    }

    #[test]
    fn class_has_running_tracks_lifecycle() {
        let r = ActivityRegistry::new(2);
        assert!(!r.class_has_running(ClassId(0)));
        r.begin(ClassId(0), ts(1));
        assert!(r.class_has_running(ClassId(0)));
        assert!(!r.class_has_running(ClassId(1)));
        r.abort(ClassId(0), ts(1), ts(2));
        assert!(!r.class_has_running(ClassId(0)));
    }

    #[test]
    fn registry_round_trip() {
        let r = ActivityRegistry::new(2);
        r.begin(ClassId(0), ts(1));
        r.begin(ClassId(1), ts(2));
        assert_eq!(r.oldest_running(), Some(ts(1)));
        r.commit(ClassId(0), ts(1), ts(5));
        assert_eq!(r.oldest_running(), Some(ts(2)));
        r.abort(ClassId(1), ts(2), ts(6));
        assert_eq!(r.oldest_running(), None);
        assert_eq!(r.i_old(ClassId(0), ts(3)), ts(1));
        assert_eq!(r.c_late(ClassId(0), ts(3)), CLate::Time(ts(5)));
        assert_eq!(r.interval_count(), 2);
        assert_eq!(r.prune_ended_before(ts(100)), 2);
    }

    #[test]
    fn begin_with_draws_monotone_starts_under_the_lock() {
        let r = ActivityRegistry::new(1);
        let clock = txn_model::LogicalClock::new();
        let mut starts = Vec::new();
        for _ in 0..100 {
            starts.push(r.begin_with(ClassId(0), || clock.tick()));
        }
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.interval_count(), 100);
    }

    /// The O(active) acceptance criterion: after histories settle (or are
    /// pruned), `i_old` cost is independent of how many transactions ever
    /// began — the scan touches only the active window.
    #[test]
    fn i_old_scan_cost_independent_of_history_length() {
        let probe = |total: u64| -> u64 {
            let mut a = ClassActivity::default();
            // `total` fully-ended transactions...
            for i in 0..total {
                let s = ts(2 * i + 1);
                a.begin(s);
                a.end(s, ts(2 * i + 2), true);
            }
            // ...plus a small live window.
            let now = 2 * total + 10;
            for k in 0..3 {
                a.begin(ts(now + k));
            }
            let before = a.scan_count();
            a.i_old(ts(now + 5));
            a.scan_count() - before
        };
        let small = probe(100);
        let large = probe(10_000);
        assert_eq!(
            small, large,
            "i_old must not rescan the ended prefix (scan cost {small} vs {large})"
        );
        assert!(small <= 4, "scan bounded by the active window, got {small}");
    }

    /// The below-cursor twin of the test above. A long transaction at
    /// the end of the settled prefix lifts `settled_max_end` above the
    /// whole history, so every query inside that history lands below the
    /// cursor. Each must binary-search the prefix maxima: at most
    /// ⌈log₂ n⌉ + active + 2 probes and examined intervals.
    #[test]
    fn below_cursor_scan_cost_is_logarithmic() {
        const ACTIVE: u64 = 3;
        let worst = |total: u64| -> u64 {
            let mut a = ClassActivity::default();
            // `total` non-overlapping intervals (3i+1, 3i+3)...
            for i in 0..total {
                let s = ts(3 * i + 1);
                a.begin(s);
                a.end(s, ts(3 * i + 3), true);
            }
            // ...one long one that ends far above all of them...
            let long = ts(3 * total + 1);
            a.begin(long);
            a.end(long, ts(10 * total), true);
            // ...and a small live window.
            for k in 0..ACTIVE {
                a.begin(ts(10 * total + 1 + k));
            }
            let n = total + 1;
            let bound = u64::from(u64::BITS - (n - 1).leading_zeros()) + ACTIVE + 2;
            let mut worst = 0;
            for i in (0..total).step_by((total / 50).max(1) as usize) {
                for m in [3 * i + 2, 3 * i + 3] {
                    let before = a.scan_count();
                    let want = if m % 3 == 2 { ts(3 * i + 1) } else { ts(m) };
                    assert_eq!(a.i_old(ts(m)), want, "I_old({m})");
                    let i_old_cost = a.scan_count() - before;
                    let want = if m % 3 == 2 { ts(3 * i + 3) } else { ts(m) };
                    assert_eq!(a.c_late(ts(m)), CLate::Time(want), "C_late({m})");
                    let c_late_cost = a.scan_count() - before - i_old_cost;
                    for cost in [i_old_cost, c_late_cost] {
                        assert!(cost <= bound, "n={n} m={m}: cost {cost} > bound {bound}");
                        worst = worst.max(cost);
                    }
                }
            }
            worst
        };
        let small = worst(100);
        let large = worst(10_000);
        assert!(
            large <= small + 7,
            "100× the history may add only log₂(100) probes ({small} vs {large})"
        );
    }

    /// Brute-force `I_old`/`C_late` straight from the definitions over
    /// a `start → end` map of every retained interval.
    fn reference(model: &BTreeMap<u64, Option<u64>>, m: u64) -> (Timestamp, CLate) {
        let active = |&(&s, e): &(&u64, &Option<u64>)| s < m && e.is_none_or(|e| e > m);
        let i_old = model.iter().find(active).map_or(m, |(&s, _)| s);
        let c_late = if model.range(..=m).any(|(_, e)| e.is_none()) {
            CLate::NotComputable
        } else {
            let latest = model.iter().filter(active).filter_map(|(_, e)| *e).max();
            CLate::Time(ts(latest.unwrap_or(m).max(m)))
        };
        (ts(i_old), c_late)
    }

    /// Seeded randomized equivalence: after random begin / commit /
    /// abort / absorb / mirror_end / prune sequences, `I_old(m)` and
    /// `C_late(m)` agree with the brute-force reference for every
    /// `m ≤ now` — both above the settled cursor and below it, where the
    /// prefix-maximum binary search answers.
    #[test]
    fn bounds_match_brute_force_reference() {
        use rand::prelude::*;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0xAC71_0000 + seed);
            let r = ActivityRegistry::new(1);
            let c = ClassId(0);
            let mut model: BTreeMap<u64, Option<u64>> = BTreeMap::new();
            // Skipped clock ticks, later inserted out of order.
            let mut holes: Vec<u64> = Vec::new();
            for now in 1..=150u64 {
                let running: Vec<u64> = model
                    .iter()
                    .filter(|(_, e)| e.is_none())
                    .map(|(&s, _)| s)
                    .collect();
                let hole =
                    (!holes.is_empty()).then(|| holes.swap_remove(rng.gen_range(0..holes.len())));
                match (rng.gen_range(0..12u32), hole) {
                    (0..=3, h) => {
                        holes.extend(h);
                        r.begin(c, ts(now));
                        model.insert(now, None);
                    }
                    (4..=6, h) if !running.is_empty() => {
                        holes.extend(h);
                        let s = running[rng.gen_range(0..running.len())];
                        match rng.gen_range(0..3u32) {
                            0 => r.commit(c, ts(s), ts(now)),
                            1 => r.abort(c, ts(s), ts(now)),
                            _ => r.mirror_end(c, ts(s), ts(now), true),
                        }
                        model.insert(s, Some(now));
                    }
                    (7, Some(h)) => {
                        let end = rng.gen_bool(0.7).then(|| rng.gen_range(h + 1..=now));
                        r.absorb_class(c, &[(ts(h), end.map(ts), rng.gen_bool(0.5))]);
                        model.insert(h, end);
                    }
                    (8, Some(h)) => {
                        let end = rng.gen_range(h + 1..=now);
                        r.mirror_end(c, ts(h), ts(end), rng.gen_bool(0.5));
                        model.insert(h, Some(end));
                    }
                    (9, h) => {
                        holes.extend(h);
                        // An already-ended interval: mirror_end ignores it.
                        if let Some((&s, _)) = model.iter().find(|(_, e)| e.is_some()) {
                            r.mirror_end(c, ts(s), ts(now), false);
                        }
                    }
                    (10, h) => {
                        holes.extend(h);
                        let wm = rng.gen_range(0..=now);
                        let before = model.len();
                        model.retain(|_, e| e.is_none_or(|e| e >= wm));
                        assert_eq!(r.prune_ended_before(ts(wm)), before - model.len());
                    }
                    (_, h) => {
                        holes.extend(h);
                        holes.push(now);
                    }
                }
                for m in 0..=now {
                    let (i_old, c_late) = reference(&model, m);
                    assert_eq!(
                        r.i_old(c, ts(m)),
                        i_old,
                        "seed {seed} now {now}: I_old({m})"
                    );
                    assert_eq!(
                        r.c_late(c, ts(m)),
                        c_late,
                        "seed {seed} now {now}: C_late({m})"
                    );
                }
            }
        }
    }

    /// Same independence claim via the registry + prune path.
    #[test]
    fn prune_resets_scan_window() {
        let r = ActivityRegistry::new(1);
        let c = ClassId(0);
        for i in 0..1000u64 {
            let s = ts(2 * i + 1);
            r.begin(c, s);
            r.commit(c, s, ts(2 * i + 2));
        }
        r.prune_ended_before(ts(5000));
        assert_eq!(r.interval_count(), 0);
        let before = r.scan_count();
        assert_eq!(r.i_old(c, ts(5001)), ts(5001));
        assert_eq!(r.scan_count() - before, 0, "nothing left to scan");
    }
}
