//! E16 — chaos soak: self-healing under injected faults.
//!
//! A seeded soak over the inventory workload (the branching hierarchy
//! `3→2→1→0←4`, so a straggler in the shared class 0 genuinely wedges
//! time walls) with randomized fault schedules: worker crashes that
//! abandon transactions without aborting, stalls that outlive the
//! transaction lease, and delayed commits. The claims measured:
//!
//! * **Every surviving log certifies clean.** Crashed workers leave
//!   running registry intervals and pending versions; the straggler
//!   watchdog reaps them into real `Abort` events, so the full log —
//!   faults included — passes the offline certifier's dependency-cycle
//!   and partition-synchronization checks.
//! * **The time wall resumes within a bounded interval.** The driver's
//!   maintenance ticker samples `timewalls_released`; the longest
//!   release gap stays bounded (lease + reap latency), never "forever".
//! * **Crashes never leak open flight spans.** The soak runs with the
//!   flight recorder sampling every transaction; a crash fault closes
//!   its span tree as `Abandoned` at the fault point and the watchdog's
//!   reap overrides it with `Reaped`, so assembling the span stream
//!   after the drain finds zero open flights.
//! * **Recovery never reuses pre-crash timestamps.** Each run's log is
//!   encoded into the checksummed WAL format, its tail torn, decoded
//!   back (truncating at the first bad frame), and resumed via
//!   [`hdd::resume`] into a fresh store and registry; a second workload
//!   phase then runs on the survivor. The stitched log must certify
//!   clean and contain no duplicated begin/commit/abort timestamps —
//!   the restored high-water mark keeps Protocol B's "timestamps only
//!   grow" invariant across the crash.

use crate::concurrent::{run_concurrent, ConcurrentConfig};
use crate::factory::build_hdd_with_config;
use crate::report::Table;
use certify::certifier::certify_log;
use chaos::{ChaosConfig, FaultPlan};
use hdd::protocol::HddConfig;
use mvstore::MvStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use txn_model::{decode_events, encode_events, ScheduleEvent, Scheduler, TxnProgram};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

/// Transaction lease for the soak: short enough that reaps are fast,
/// long enough that healthy transactions never trip it.
const LEASE: Duration = Duration::from_millis(5);

/// Per-seed outcome tallies.
#[derive(Debug, Default)]
struct Tally {
    seeds: usize,
    committed: usize,
    crashed: usize,
    stalled: usize,
    delayed: usize,
    reaped: u64,
    certified: usize,
    torn: usize,
    recovered_certified: usize,
    ts_collisions: usize,
    max_gap: Duration,
    open_spans: usize,
    crash_spans: usize,
}

fn workload() -> Inventory {
    Inventory::new(InventoryConfig {
        items: 16,
        ..InventoryConfig::default()
    })
}

fn programs(w: &mut Inventory, rng: &mut StdRng, n: usize) -> Vec<TxnProgram> {
    (0..n).map(|_| w.generate(rng)).collect()
}

/// Begin/commit/abort timestamps of a log — the values that must stay
/// globally unique across a crash/recovery boundary.
fn end_point_timestamps(events: &[ScheduleEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|ev| match ev {
            ScheduleEvent::Begin { start_ts, .. } => Some(start_ts.0),
            ScheduleEvent::Commit { commit_ts, .. } => Some(commit_ts.0),
            ScheduleEvent::Abort { abort_ts, .. } => Some(abort_ts.0),
            _ => None,
        })
        .collect()
}

/// Tear the WAL's tail: odd seeds corrupt a byte near the end (the
/// checksum catches it), even seeds chop mid-frame.
fn tear(mut bytes: Vec<u8>, seed: u64) -> Vec<u8> {
    if bytes.len() < 32 {
        return bytes;
    }
    if seed % 2 == 1 {
        let idx = bytes.len() - 9;
        bytes[idx] ^= 0x5a;
        bytes
    } else {
        let keep = bytes.len() - bytes.len() / 7 - 3;
        bytes.truncate(keep);
        bytes
    }
}

/// One seed of the soak: chaos phase, certification, torn-tail
/// recovery, resumed phase, stitched certification.
fn soak_one(seed: u64, n: usize, tally: &mut Tally) {
    let mut w = workload();
    let mut rng = StdRng::seed_from_u64(seed);
    let config = HddConfig {
        txn_lease: Some(LEASE),
        ..HddConfig::default()
    };
    let (sched, _store, hierarchy) = build_hdd_with_config(&w, config.clone());

    let batch = programs(&mut w, &mut rng, n);
    let plan = FaultPlan::generate(
        seed,
        batch.len(),
        &ChaosConfig {
            crash_prob: 0.08,
            stall_prob: 0.08,
            delay_prob: 0.08,
            max_after_ops: 3,
            stall_micros: 2 * LEASE.as_micros() as u64,
            delay_micros: 300,
        },
    );
    let cfg = ConcurrentConfig {
        workers: 4,
        verify: false,
        obs: true,
        txn_deadline: Some(Duration::from_secs(5)),
        flight_sample: 1,
        faults: Some(Arc::new(plan)),
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), batch, &cfg);
    tally.seeds += 1;
    tally.committed += out.stats.committed;
    tally.crashed += out.faults.crashed;
    tally.stalled += out.faults.stalled;
    tally.delayed += out.faults.delayed;
    tally.reaped += sched.metrics().snapshot().rej_watchdog_abort;
    tally.max_gap = tally.max_gap.max(out.max_release_gap);
    if certify_log("hdd", sched.log(), Some(&hierarchy)).ok() {
        tally.certified += 1;
    }
    // Span-lifecycle invariant: every admitted flight must have closed
    // — crashes as Abandoned (or Reaped once the watchdog catches up),
    // everything else with its driver terminal.
    let flight_log = obs::assemble(&sched.metrics().obs.flight.drain());
    tally.open_spans += flight_log.open;
    tally.crash_spans += flight_log
        .flights
        .iter()
        .filter(|f| {
            matches!(
                f.terminal,
                Some(obs::Terminal::Abandoned) | Some(obs::Terminal::Reaped)
            )
        })
        .count();

    // Torn-tail recovery leg: WAL round trip with a damaged tail, then
    // resume and run a second phase on the survivor.
    let events = sched.log().events();
    let wal = tear(encode_events(&events), seed);
    let (survivors, wal_report) = decode_events(&wal);
    if wal_report.torn() {
        tally.torn += 1;
    }
    let store = Arc::new(MvStore::new());
    w.seed(store.as_ref());
    let (resumed, resume_report) = hdd::resume(Arc::clone(&hierarchy), store, &survivors, config);
    let phase2 = programs(&mut w, &mut rng, n / 2);
    let clean = ConcurrentConfig {
        flight_sample: 0,
        faults: Some(Arc::new(FaultPlan::clean(phase2.len()))),
        ..cfg
    };
    run_concurrent(&resumed, phase2, &clean);

    let stitched = resumed.log().events();
    let stamps = end_point_timestamps(&stitched);
    let distinct: HashSet<u64> = stamps.iter().copied().collect();
    tally.ts_collisions += stamps.len() - distinct.len();
    debug_assert!(resume_report.resumes_after.0 > resume_report.recovery.high_water_mark.0);
    if certify_log("hdd", resumed.log(), Some(&hierarchy)).ok() {
        tally.recovered_certified += 1;
    }
}

/// Run the soak.
pub fn run(quick: bool) -> Table {
    let (seeds, n) = if quick { (12, 30) } else { (200, 48) };
    let mut tally = Tally::default();
    for seed in 0..seeds {
        soak_one(seed as u64, n, &mut tally);
    }
    let mut table = Table::new(
        "E16 — chaos soak: crashes, stalls, torn logs, recovery (inventory)",
        &[
            "phase",
            "seeds",
            "committed",
            "crashed",
            "stalled",
            "delayed",
            "watchdog-reaps",
            "open-spans",
            "crash-spans",
            "torn-tails",
            "certified-ok",
            "ts-collisions",
            "max-wall-gap-ms",
        ],
    );
    table.row(&[
        "soak".to_string(),
        tally.seeds.to_string(),
        tally.committed.to_string(),
        tally.crashed.to_string(),
        tally.stalled.to_string(),
        tally.delayed.to_string(),
        tally.reaped.to_string(),
        tally.open_spans.to_string(),
        tally.crash_spans.to_string(),
        "-".to_string(),
        tally.certified.to_string(),
        "-".to_string(),
        tally.max_gap.as_millis().to_string(),
    ]);
    table.row(&[
        "recovery".to_string(),
        tally.seeds.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        tally.torn.to_string(),
        tally.recovered_certified.to_string(),
        tally.ts_collisions.to_string(),
        "-".to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_soak_certifies_and_heals() {
        let t = run(true);
        let cell = |row: &str, col: &str| t.cell(row, col).unwrap().to_string();
        let seeds: usize = cell("soak", "seeds").parse().unwrap();
        assert_eq!(
            cell("soak", "certified-ok"),
            seeds.to_string(),
            "every surviving log must certify clean"
        );
        assert_eq!(
            cell("recovery", "certified-ok"),
            seeds.to_string(),
            "every stitched post-recovery log must certify clean"
        );
        assert_eq!(cell("recovery", "ts-collisions"), "0");
        let crashed: usize = cell("soak", "crashed").parse().unwrap();
        let reaped: usize = cell("soak", "watchdog-reaps").parse().unwrap();
        assert!(crashed > 0, "the fault mix must actually crash workers");
        assert!(
            reaped >= crashed,
            "every crashed corpse must be reaped ({reaped} reaps, {crashed} crashes)"
        );
        assert_eq!(
            cell("soak", "open-spans"),
            "0",
            "crashes and reaps must close every sampled flight span"
        );
        let crash_spans: usize = cell("soak", "crash-spans").parse().unwrap();
        assert!(
            crash_spans >= crashed,
            "each crash must terminate its flight as Abandoned/Reaped \
             ({crash_spans} crash spans, {crashed} crashes)"
        );
        let torn: usize = cell("recovery", "torn-tails").parse().unwrap();
        assert!(torn > 0, "the tear must actually corrupt some WAL tails");
        let gap_ms: u64 = cell("soak", "max-wall-gap-ms").parse().unwrap();
        assert!(
            gap_ms < 30_000,
            "time wall must resume within a bounded interval (saw {gap_ms} ms)"
        );
    }
}
