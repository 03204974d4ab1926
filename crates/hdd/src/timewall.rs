//! Time walls (Section 5.1–5.2): consistent per-segment version bounds
//! for ad-hoc read-only transactions.
//!
//! A time wall `TW(m, s)` is the vector of `E_s^i(m)` over all classes
//! `i`. Theorem 2: a read-only transaction that reads, from every segment
//! `D_i`, the latest version before `E_s^i(m)` observes a consistent
//! database state and induces no dependency-graph cycle.
//!
//! [`TimeWallService`] implements the paper's release protocol
//! (Section 5.2): walls are computed "at certain intervals" and released
//! to all read-only transactions that start before the next wall. The
//! anchor is a lowest-level class (per component, for forest-shaped
//! hierarchies) and the anchor time is the *current* time when the
//! computation first starts; if some `C_late` is not yet computable the
//! service retries the *same* pending wall until enough transactions
//! finish ("if it encounters any C_late function that it cannot compute,
//! it waits until it becomes computable"). It likewise waits while any
//! transaction that started below its own class's component is still
//! running (see [`TimeWallService::try_release`]).

use crate::activity::{ActivityFuncs, CLate};
use crate::analysis::Hierarchy;
use mc::sync::RwLock;
use std::sync::Arc;
use txn_model::{ClassId, Timestamp};

/// A released time wall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeWall {
    /// Anchor time `m` (one per component; all share the same `m`).
    pub anchor_time: Timestamp,
    /// Anchor class per component (the component's lowest class).
    pub anchors: Vec<ClassId>,
    /// `E_s^i(m)` per class index.
    pub components: Vec<Timestamp>,
    /// Release time `RT(TW)`.
    pub released_at: Timestamp,
}

impl TimeWall {
    /// The wall component for `class`.
    pub fn component(&self, class: ClassId) -> Timestamp {
        self.components[class.index()]
    }

    /// The smallest component (garbage-collection floor for readers
    /// pinned to this wall).
    pub fn floor(&self) -> Timestamp {
        self.components
            .iter()
            .copied()
            .min()
            .unwrap_or(Timestamp::MAX)
    }
}

/// Wall computation in progress (anchor time pinned at first attempt).
#[derive(Debug, Clone, Copy)]
struct Pending {
    anchor_time: Timestamp,
}

/// Computes and publishes time walls.
#[derive(Debug)]
pub struct TimeWallService {
    released: RwLock<Vec<Arc<TimeWall>>>,
    pending: RwLock<Option<Pending>>,
}

impl TimeWallService {
    /// An empty service (no wall released yet).
    pub fn new() -> Self {
        TimeWallService {
            released: RwLock::new(Vec::new()),
            pending: RwLock::new(None),
        }
    }

    /// Attempt to compute and release a wall anchored at (pending `m`, or
    /// `now` when starting fresh). Returns the released wall on success;
    /// `None` when some `C_late` is not yet computable, or some class
    /// still runs a transaction that started below the class's wall
    /// component (the pending anchor time is kept for the retry).
    pub fn try_release(
        &self,
        hierarchy: &Hierarchy,
        funcs: &ActivityFuncs<'_>,
        now: Timestamp,
        release_ts: impl FnOnce() -> Timestamp,
    ) -> Option<Arc<TimeWall>> {
        let m = {
            let mut pending = self.pending.write();
            match *pending {
                Some(p) => p.anchor_time,
                None => {
                    let p = Pending { anchor_time: now };
                    *pending = Some(p);
                    p.anchor_time
                }
            }
        };

        let n = hierarchy.class_count();
        let mut components = vec![Timestamp::MAX; n];
        let mut anchors = Vec::new();
        for comp in hierarchy.paths().components() {
            // Anchor: the component's first lowest-level class.
            let anchor = *comp
                .iter()
                .find(|&&v| hierarchy.paths().reduction().in_neighbors(v).is_empty())
                .expect("every finite DAG component has a minimal node");
            anchors.push(ClassId(anchor as u32));
            for &i in &comp {
                match funcs.e_fn(ClassId(anchor as u32), ClassId(i as u32), m) {
                    CLate::Time(t) => components[i] = t,
                    CLate::NotComputable => return None,
                }
            }
        }

        // A reader takes D_i's latest version below E^i, so every
        // class-i transaction that started below E^i must have finished
        // first: one still running could write under the wall after a
        // reader read past it, while the reader sees versions that
        // transaction precedes. Upward components (`I_old`) satisfy this
        // by construction; the anchor's own component (`m`) and
        // downward ones (`C_late` of the class above) do not, so the
        // release waits for those transactions as for an uncomputable
        // `C_late`.
        let registry = funcs.registry();
        if components
            .iter()
            .enumerate()
            .any(|(i, &e)| registry.class_running_before(ClassId(i as u32), e))
        {
            return None;
        }

        let wall = Arc::new(TimeWall {
            anchor_time: m,
            anchors,
            components,
            released_at: release_ts(),
        });
        self.released.write().push(Arc::clone(&wall));
        *self.pending.write() = None;
        Some(wall)
    }

    /// The newest wall with `RT(TW) < start` — the wall Protocol C assigns
    /// to a read-only transaction initiating at `start`.
    pub fn latest_released_before(&self, start: Timestamp) -> Option<Arc<TimeWall>> {
        self.released
            .read()
            .iter()
            .rev()
            .find(|w| w.released_at < start)
            .cloned()
    }

    /// The newest released wall, if any.
    pub fn latest(&self) -> Option<Arc<TimeWall>> {
        self.released.read().last().cloned()
    }

    /// The oldest retained released wall, if any. Used as a liveness
    /// fallback for readers that began before the first release: reading
    /// below *any* single wall is consistent (Theorem 2 does not mention
    /// the reader's initiation time), so a reader with no wall released
    /// before its start takes the earliest one released after it.
    pub fn earliest(&self) -> Option<Arc<TimeWall>> {
        self.released.read().first().cloned()
    }

    /// Number of released walls.
    pub fn released_count(&self) -> usize {
        self.released.read().len()
    }

    /// Snapshot of all retained released walls (experiment E9 measures
    /// anchor-to-release lag across them).
    pub fn released_all(&self) -> Vec<Arc<TimeWall>> {
        self.released.read().clone()
    }

    /// The anchor time of an in-progress wall computation, if any. The
    /// garbage collector must not reclaim state this computation still
    /// reads.
    pub fn pending_anchor(&self) -> Option<Timestamp> {
        self.pending.read().map(|p| p.anchor_time)
    }

    /// Drop all but the newest `keep` released walls (old walls are only
    /// needed while a read-only transaction pinned to them is running;
    /// the scheduler accounts for those via its GC floor).
    pub fn retire_old(&self, keep: usize) {
        let mut rel = self.released.write();
        let len = rel.len();
        if len > keep {
            rel.drain(..len - keep);
        }
    }
}

impl Default for TimeWallService {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityRegistry;
    use crate::analysis::AccessSpec;
    use txn_model::{LogicalClock, SegmentId};

    fn ts(t: u64) -> Timestamp {
        Timestamp(t)
    }

    /// Tree: 3 → 1 → 0, 4 → 1, 2 → 0.
    fn tree() -> Hierarchy {
        let s = SegmentId;
        Hierarchy::build(
            5,
            &[
                AccessSpec::new("c0", vec![s(0)], vec![]),
                AccessSpec::new("c1", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c2", vec![s(2)], vec![s(0)]),
                AccessSpec::new("c3", vec![s(3)], vec![s(1)]),
                AccessSpec::new("c4", vec![s(4)], vec![s(1)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn wall_release_when_idle() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(50));
        let svc = TimeWallService::new();
        let wall = svc
            .try_release(&h, &f, ts(50), || clock.tick())
            .expect("idle system: all E computable");
        // Idle: every component equals the anchor time.
        assert!(wall.components.iter().all(|&c| c == ts(50)));
        assert_eq!(wall.floor(), ts(50));
        assert_eq!(svc.released_count(), 1);
    }

    #[test]
    fn pending_anchor_is_retried_not_refreshed() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        // A running txn in the apex class 0 blocks the downward E steps.
        r.begin(ClassId(0), ts(5));
        let svc = TimeWallService::new();
        assert!(svc.try_release(&h, &f, ts(10), || clock.tick()).is_none());
        // Commit it; retry must use the ORIGINAL anchor time 10.
        r.commit(ClassId(0), ts(5), ts(20));
        clock.advance_past(ts(30));
        let wall = svc
            .try_release(&h, &f, ts(30), || clock.tick())
            .expect("computable now");
        assert_eq!(wall.anchor_time, ts(10));
    }

    #[test]
    fn release_waits_for_running_transactions_below_a_component() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        // Running in the anchor class (3) and in class 2, reached
        // downward from 0: neither component constrains them.
        r.begin(ClassId(3), ts(5));
        r.begin(ClassId(2), ts(6));
        let svc = TimeWallService::new();
        assert!(svc.try_release(&h, &f, ts(10), || clock.tick()).is_none());
        r.commit(ClassId(3), ts(5), ts(11));
        assert!(svc.try_release(&h, &f, ts(12), || clock.tick()).is_none());
        r.commit(ClassId(2), ts(6), ts(13));
        clock.advance_past(ts(13));
        let wall = svc
            .try_release(&h, &f, ts(14), || clock.tick())
            .expect("nothing runs below the wall now");
        assert_eq!(wall.anchor_time, ts(10), "the pending anchor is kept");
        // A transaction that started after the anchor never blocks it.
        r.begin(ClassId(3), ts(20));
        r.begin(ClassId(2), ts(21));
        clock.advance_past(ts(21));
        assert!(svc.try_release(&h, &f, ts(15), || clock.tick()).is_some());
    }

    #[test]
    fn latest_released_before_selects_correct_wall() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        let svc = TimeWallService::new();
        clock.advance_past(ts(10));
        let w1 = svc.try_release(&h, &f, ts(10), || clock.tick()).unwrap();
        clock.advance_past(ts(20));
        let w2 = svc.try_release(&h, &f, ts(20), || clock.tick()).unwrap();
        assert!(svc.latest_released_before(w1.released_at).is_none());
        assert_eq!(
            svc.latest_released_before(w1.released_at.succ())
                .unwrap()
                .anchor_time,
            w1.anchor_time
        );
        assert_eq!(
            svc.latest_released_before(ts(100)).unwrap().anchor_time,
            w2.anchor_time
        );
        assert_eq!(svc.latest().unwrap().anchor_time, w2.anchor_time);
    }

    #[test]
    fn retire_keeps_newest() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        let svc = TimeWallService::new();
        for t in [10u64, 20, 30] {
            clock.advance_past(ts(t));
            svc.try_release(&h, &f, ts(t), || clock.tick()).unwrap();
        }
        svc.retire_old(1);
        assert_eq!(svc.released_count(), 1);
        assert_eq!(svc.latest().unwrap().anchor_time, ts(30));
    }

    #[test]
    fn pending_anchor_visible_until_release() {
        let h = tree();
        let r = ActivityRegistry::new(5);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        r.begin(ClassId(0), ts(5)); // blocks C_late
        let svc = TimeWallService::new();
        assert_eq!(svc.pending_anchor(), None);
        assert!(svc.try_release(&h, &f, ts(10), || clock.tick()).is_none());
        assert_eq!(svc.pending_anchor(), Some(ts(10)));
        r.commit(ClassId(0), ts(5), ts(20));
        clock.advance_past(ts(30));
        assert!(svc.try_release(&h, &f, ts(30), || clock.tick()).is_some());
        assert_eq!(svc.pending_anchor(), None);
    }

    #[test]
    fn forest_hierarchy_gets_per_component_anchors() {
        let s = SegmentId;
        // Two components: 1 → 0 and 3 → 2.
        let h = Hierarchy::build(
            4,
            &[
                AccessSpec::new("a", vec![s(0)], vec![]),
                AccessSpec::new("b", vec![s(1)], vec![s(0)]),
                AccessSpec::new("c", vec![s(2)], vec![]),
                AccessSpec::new("d", vec![s(3)], vec![s(2)]),
            ],
        )
        .unwrap();
        let r = ActivityRegistry::new(4);
        let f = ActivityFuncs::new(&h, &r);
        let clock = LogicalClock::new();
        clock.advance_past(ts(10));
        let svc = TimeWallService::new();
        let wall = svc.try_release(&h, &f, ts(10), || clock.tick()).unwrap();
        assert_eq!(wall.anchors.len(), 2);
        assert!(wall.components.iter().all(|&c| c == ts(10)));
    }
}
