//! Crash recovery, end to end: run a real workload under HDD, crash at
//! arbitrary log prefixes, recover into a fresh store, and verify
//! atomicity and state equivalence independently of the recovery code.

use certify::certifier::certify_log;
use chaos::{FaultKind, FaultPlan};
use hdd::protocol::HddConfig;
use mvstore::{recover, MvStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::driver::{run_interleaved, DriverConfig};
use sim::factory::{build_hdd_with_config, build_scheduler, SchedulerKind};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use txn_model::{
    decode_events, encode_events, GranuleId, ScheduleEvent, Scheduler, Timestamp, TxnId, Value,
};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

/// Independent oracle: the expected latest committed value per granule
/// for a given log prefix.
fn expected_state(events: &[ScheduleEvent]) -> HashMap<GranuleId, (Timestamp, Value)> {
    let committed: std::collections::HashSet<TxnId> = events
        .iter()
        .filter_map(|e| match e {
            ScheduleEvent::Commit { txn, .. } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut state: HashMap<GranuleId, (Timestamp, Value)> = HashMap::new();
    for e in events {
        if let ScheduleEvent::Write {
            txn,
            granule,
            version,
            value,
        } = e
        {
            if committed.contains(txn) {
                let entry = state
                    .entry(*granule)
                    .or_insert((*version, (**value).clone()));
                if *version >= entry.0 {
                    *entry = (*version, (**value).clone());
                }
            }
        }
    }
    state
}

#[test]
fn recovery_at_any_crash_point_is_atomic_and_exact() {
    let mut w = Inventory::new(InventoryConfig {
        items: 8,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(61);
    let programs: Vec<_> = (0..120).map(|_| w.generate(&mut rng)).collect();
    let (sched, _live_store) = build_scheduler(SchedulerKind::Hdd, &w);
    let stats = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
    assert_eq!(stats.serializable, Some(true));

    let events = sched.log().events();
    assert!(events.len() > 100);

    // Crash at a spread of prefixes, including mid-transaction points.
    let points = [
        0,
        1,
        events.len() / 7,
        events.len() / 3,
        events.len() / 2,
        events.len() - 1,
        events.len(),
    ];
    for &crash in &points {
        let prefix = &events[..crash];
        let recovered = MvStore::new();
        w.seed(&recovered); // reload the initial image
        let report = recover(&recovered, prefix);

        let expected = expected_state(prefix);
        for (g, (_, v)) in &expected {
            assert_eq!(
                &recovered.latest_value(*g),
                v,
                "crash at {crash}: granule {g} diverged"
            );
        }
        // Atomicity: no value from an uncommitted transaction surfaced.
        // (expected_state only admits committed writers; equality above
        // plus this spot check on version counts covers it.)
        assert!(report.versions_installed >= expected.len());
    }
}

/// The full self-healing loop under the *concurrent* driver: a chaos
/// run crashes workers mid-transaction, the process "dies" leaving a
/// torn WAL tail, recovery rebuilds store + activity registry +
/// timestamp high-water mark, the workload resumes on the survivor,
/// and the stitched log certifies clean with no timestamp ever reused
/// across the crash boundary (Protocol B's safety condition).
#[test]
fn concurrent_crash_recover_resume_certifies() {
    let mut w = Inventory::new(InventoryConfig {
        items: 8,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(77);
    let programs: Vec<_> = (0..60).map(|_| w.generate(&mut rng)).collect();
    let config = HddConfig {
        txn_lease: Some(Duration::from_millis(5)),
        ..HddConfig::default()
    };
    let (sched, _store, hierarchy) = build_hdd_with_config(&w, config.clone());
    let mut plan = FaultPlan::clean(programs.len());
    plan.faults[5] = FaultKind::Crash { after_ops: 1 };
    plan.faults[20] = FaultKind::Crash { after_ops: 2 };
    let cfg = ConcurrentConfig {
        workers: 4,
        verify: false,
        obs: true,
        txn_deadline: Some(Duration::from_secs(5)),
        faults: Some(Arc::new(plan)),
        ..ConcurrentConfig::default()
    };
    let report = run_concurrent(sched.as_ref(), programs, &cfg);
    assert_eq!(report.faults.crashed, 2);
    assert_eq!(report.stats.committed, 58);

    // "Kill the process": the schedule log is the WAL image, and the
    // crash tore its tail mid-frame.
    let events = sched.log().events();
    let mut wal = encode_events(&events);
    wal.truncate(wal.len() - 5);
    let (survivors, wal_report) = decode_events(&wal);
    assert!(wal_report.torn(), "truncation must be detected");
    assert!(
        survivors.len() < events.len(),
        "the torn record must not be replayed"
    );

    // Recover into a fresh store and resume the scheduler: settled
    // registry state rebuilt, in-flight transactions closed with
    // synthetic aborts, clock advanced past the high-water mark.
    let store = Arc::new(MvStore::new());
    w.seed(store.as_ref());
    let (resumed, resume_report) = hdd::resume(Arc::clone(&hierarchy), store, &survivors, config);
    let hwm = resume_report.recovery.high_water_mark;
    assert!(resume_report.resumes_after.0 > hwm.0);

    // Resume the workload under the concurrent driver.
    let phase2: Vec<_> = (0..40).map(|_| w.generate(&mut rng)).collect();
    let out = run_concurrent(&resumed, phase2, &ConcurrentConfig::default());
    assert_eq!(out.stats.committed, 40);
    assert_eq!(out.stats.serializable, Some(true), "{:?}", out.stats.cycle);

    // The stitched log — pre-crash prefix, synthetic aborts, resumed
    // phase — certifies clean under the partition-synchronization rule.
    let cert = certify_log("hdd", resumed.log(), Some(&hierarchy));
    assert!(cert.ok(), "{}", cert.render());

    // No timestamp collision across the crash boundary: every
    // begin/commit/abort tick in the stitched log is globally unique,
    // and every post-recovery transaction starts above the watermark.
    let stitched = resumed.log().events();
    let stamps: Vec<u64> = stitched
        .iter()
        .filter_map(|ev| match ev {
            ScheduleEvent::Begin { start_ts, .. } => Some(start_ts.0),
            ScheduleEvent::Commit { commit_ts, .. } => Some(commit_ts.0),
            ScheduleEvent::Abort { abort_ts, .. } => Some(abort_ts.0),
            _ => None,
        })
        .collect();
    let distinct: HashSet<u64> = stamps.iter().copied().collect();
    assert_eq!(distinct.len(), stamps.len(), "timestamp reused after crash");
    let prefix = survivors.len() + resume_report.in_flight_aborted;
    for ev in &stitched[prefix..] {
        if let ScheduleEvent::Begin { start_ts, .. } = ev {
            assert!(
                start_ts.0 > hwm.0,
                "post-recovery begin at {} is not above the watermark {}",
                start_ts.0,
                hwm.0
            );
        }
    }
}

#[test]
fn recovered_store_supports_time_slices() {
    // After recovery, historical reads still work (version history is
    // rebuilt with original timestamps).
    let mut w = Inventory::new(InventoryConfig {
        items: 2,
        ..InventoryConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(62);
    let programs: Vec<_> = (0..60).map(|_| w.generate(&mut rng)).collect();
    let (sched, live_store) = build_scheduler(SchedulerKind::Hdd, &w);
    let _ = run_interleaved(sched.as_ref(), programs, &DriverConfig::default());
    let events = sched.log().events();

    let recovered = MvStore::new();
    w.seed(&recovered);
    recover(&recovered, &events);

    // Latest values agree with the live store for every seeded granule.
    for item in 0..2 {
        let g = Inventory::inventory_level(item);
        assert_eq!(recovered.latest_value(g), live_store.latest_value(g));
        // And an arbitrary historical slice agrees too.
        let mid = Timestamp(50);
        assert_eq!(
            recovered.value_as_of(g, mid),
            live_store.value_as_of(g, mid)
        );
    }
}
