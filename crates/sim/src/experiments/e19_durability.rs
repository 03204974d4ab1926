//! **E19 — durable tier: group-commit amortization, backend parity,
//! recovery cost, and the disk-fault soak** (no paper figure; ours).
//!
//! Four legs:
//!
//! 1. **Throughput vs fsync batch size.** The inventory workload on HDD
//!    with the group-commit WAL at `max_batch_frames` 1/4/16/64, plus a
//!    no-WAL baseline. Batch 1 fsyncs once per commit; larger batches
//!    amortize the sync across concurrent committers (the *group-commit
//!    ack rule*: a commit counts only once its batch is durable). Full
//!    runs emit `BENCH_e19.json` in the same line shape as
//!    `BENCH_hotpath.json`, so [`crate::baseline`] can scan it.
//! 2. **Backend parity.** The same run over the log-structured
//!    [`FileBackend`] instead of the in-memory
//!    store — what durable reads/writes cost without any WAL batching.
//! 3. **Recovery time vs log length.** Synthesized redo logs of growing
//!    length replayed through [`mvstore::recover`] into both backends.
//! 4. **Disk-fault soak.** Seeded chaos runs journal through a WAL whose
//!    "disk" betrays them mid-run ([`chaos::DiskFaultPlan`]: torn final
//!    write, lying fsync, kill before/after the write). The process
//!    state is dropped, recovery reads *only the on-disk bytes* — the
//!    torn WAL plus the file backend's segments — resumes via
//!    [`hdd::resume`], runs a second phase, and the stitched log must
//!    certify clean with no timestamp reuse. Except on lying-disk
//!    seeds, every acked commit must be on disk.

use crate::concurrent::{capped_workers, run_concurrent, ConcurrentConfig};
use crate::experiments::e02_inventory::batch;
use crate::factory::{build_hdd_on, build_scheduler, SchedulerKind};
use crate::report::{f2, Table};
use certify::certifier::certify_log;
use chaos::{ChaosConfig, DiskFaultKind, DiskFaultPlan, FaultPlan};
use hdd::protocol::HddConfig;
use mvstore::{FileBackend, FileBackendConfig, MvStore, StorageBackend, VersionRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::{
    decode_wal, ClassId, GranuleId, GroupCommitConfig, GroupCommitWal, ScheduleEvent, Scheduler,
    SegmentId, Timestamp, TxnId, Value,
};
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::Workload;

/// Transaction lease for the soak (mirrors E16).
const LEASE: Duration = Duration::from_millis(5);

/// A fresh private scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — id ticket; uniqueness comes from fetch_add atomicity.
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("e19-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One measured throughput cell.
#[derive(Debug, Clone)]
pub struct DurabilityPoint {
    /// Row label (`hdd`, `hdd-wal-b16`, `hdd-file`, ...).
    pub scheduler: String,
    /// Worker threads.
    pub workers: usize,
    /// Fsync batch-size bound (0 = no WAL).
    pub batch_frames: usize,
    /// Transactions committed (durably, when a WAL is configured).
    pub committed: usize,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Durable commits per second.
    pub commits_per_sec: f64,
    /// Fsync batches the WAL wrote (0 = no WAL).
    pub fsync_batches: u64,
}

/// One recovery-cost cell.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Backend replayed into (`memory` / `file`).
    pub backend: &'static str,
    /// Events in the replayed log.
    pub events: usize,
    /// Committed writes installed.
    pub redo_applied: u64,
    /// Replay wall time in milliseconds.
    pub recover_ms: f64,
}

fn workload() -> Inventory {
    Inventory::new(InventoryConfig {
        items: 16,
        ..InventoryConfig::default()
    })
}

/// Leg 1+2: throughput vs batch size, plus the file-backend row.
pub fn throughput_sweep(quick: bool) -> Vec<DurabilityPoint> {
    let n_txns = if quick { 200 } else { 8_000 };
    let workers = if quick { 2 } else { 8 };
    let Some(workers) = capped_workers(workers) else {
        return Vec::new();
    };
    let mut points = Vec::new();

    // No-WAL baseline: the trait-refactored in-memory path.
    {
        let (w, programs) = batch(n_txns, 0x00F1_9001);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        points.push(DurabilityPoint {
            scheduler: "hdd".to_string(),
            workers,
            batch_frames: 0,
            committed: out.stats.committed,
            elapsed_s: out.elapsed.as_secs_f64(),
            commits_per_sec: out.throughput,
            fsync_batches: 0,
        });
    }

    // Group-commit sweep: same workload, WAL ack-gated commits.
    for &batch_frames in &[1usize, 4, 16, 64] {
        let dir = scratch("wal");
        let wal = Arc::new(
            GroupCommitWal::create(
                &dir.join("run.wal"),
                GroupCommitConfig {
                    max_batch_frames: batch_frames,
                    ..GroupCommitConfig::default()
                },
            )
            .expect("create WAL"),
        );
        let (w, programs) = batch(n_txns, 0x00F1_9001);
        let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &w);
        let cfg = ConcurrentConfig {
            workers,
            wal: Some(Arc::clone(&wal)),
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        points.push(DurabilityPoint {
            scheduler: format!("hdd-wal-b{batch_frames}"),
            workers,
            batch_frames,
            committed: out.stats.committed,
            elapsed_s: out.elapsed.as_secs_f64(),
            commits_per_sec: out.throughput,
            fsync_batches: wal.stats().batches,
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    // File backend: every commit journaled + fsynced by the store
    // itself (no group commit) — the per-commit durability ceiling.
    {
        let dir = scratch("filestore");
        let backend: Arc<dyn StorageBackend> = Arc::new(
            FileBackend::open(&dir, FileBackendConfig::default()).expect("open file backend"),
        );
        let (w, programs) = batch(n_txns, 0x00F1_9001);
        let (sched, _hierarchy) = build_hdd_on(backend, &w, HddConfig::default());
        let cfg = ConcurrentConfig {
            workers,
            ..ConcurrentConfig::default()
        };
        let out = run_concurrent(sched.as_ref(), programs, &cfg);
        points.push(DurabilityPoint {
            scheduler: "hdd-file".to_string(),
            workers,
            batch_frames: 0,
            committed: out.stats.committed,
            elapsed_s: out.elapsed.as_secs_f64(),
            commits_per_sec: out.throughput,
            fsync_batches: 0,
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    points
}

/// Synthesize a committed-writes redo log with `txns` transactions.
fn synthetic_log(txns: usize) -> Vec<ScheduleEvent> {
    let mut events = Vec::with_capacity(txns * 3);
    for i in 0..txns as u64 {
        let txn = TxnId(i + 1);
        let ts = Timestamp(i + 1);
        let g = GranuleId::new(SegmentId(0), i % 64);
        events.push(ScheduleEvent::Begin {
            txn,
            start_ts: ts,
            class: Some(ClassId(0)),
        });
        events.push(ScheduleEvent::Write {
            txn,
            granule: g,
            version: ts,
            value: Arc::new(Value::Int(i as i64)),
        });
        events.push(ScheduleEvent::Commit {
            txn,
            commit_ts: Timestamp(i + 1_000_000),
        });
    }
    events
}

/// Leg 3: recovery wall time vs log length, both backends.
pub fn recovery_sweep(quick: bool) -> Vec<RecoveryPoint> {
    let sizes: &[usize] = if quick {
        &[100, 400]
    } else {
        &[1_000, 4_000, 16_000]
    };
    let mut points = Vec::new();
    for &txns in sizes {
        let events = synthetic_log(txns);
        let seeds: Vec<VersionRecord> = (0..64)
            .map(|k| VersionRecord {
                granule: GranuleId::new(SegmentId(0), k),
                ts: Timestamp(0),
                writer: TxnId(0),
                value: Arc::new(Value::Int(0)),
            })
            .collect();

        let mem = MvStore::new();
        mem.put_versions(&seeds);
        let t = Instant::now();
        let report = mvstore::recover(&mem, &events);
        points.push(RecoveryPoint {
            backend: "memory",
            events: events.len(),
            redo_applied: report.versions_installed as u64,
            recover_ms: t.elapsed().as_secs_f64() * 1e3,
        });

        let dir = scratch("recover");
        let file = FileBackend::open(&dir, FileBackendConfig::default()).expect("open backend");
        file.put_versions(&seeds);
        let t = Instant::now();
        let report = mvstore::recover(&file, &events);
        points.push(RecoveryPoint {
            backend: "file",
            events: events.len(),
            redo_applied: report.versions_installed as u64,
            recover_ms: t.elapsed().as_secs_f64() * 1e3,
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    points
}

/// Leg 4 tallies.
#[derive(Debug, Default)]
pub struct SoakTally {
    /// Seeds run.
    pub seeds: usize,
    /// Durably acked commits across phase-1 runs.
    pub committed: usize,
    /// Commits denied their ack because the WAL had crashed.
    pub wal_lost: usize,
    /// Seeds whose WAL actually crashed (the fault fired in time).
    pub disk_crashes: usize,
    /// Seeds whose on-disk WAL had a torn tail.
    pub torn_tails: usize,
    /// Worker crash faults injected (phase 1).
    pub worker_crashes: usize,
    /// Watchdog reaps across both phases.
    pub reaped: u64,
    /// Acked commits missing from disk on lying-fsync seeds (expected
    /// loss: the disk acked without persisting).
    pub lied_losses: usize,
    /// Acked commits missing from disk on any *other* seed — must be 0:
    /// the ack rule says a counted commit is on disk.
    pub ack_violations: usize,
    /// Stitched post-recovery logs that certified clean.
    pub recovered_certified: usize,
    /// Duplicate begin/commit/abort timestamps across the crash
    /// boundary — must be 0.
    pub ts_collisions: usize,
}

/// Begin/commit/abort timestamps of a log (uniqueness must survive the
/// crash boundary).
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

/// One seed of the disk-fault soak: journaled chaos phase, process
/// death, recovery from on-disk bytes alone, resumed phase, stitched
/// certification.
fn soak_one(seed: u64, n: usize, tally: &mut SoakTally) {
    let mut w = workload();
    let mut rng = StdRng::seed_from_u64(seed);
    let config = HddConfig {
        txn_lease: Some(LEASE),
        ..HddConfig::default()
    };
    let dir = scratch("soak");
    let wal_path = dir.join("run.wal");
    let data_dir = dir.join("data");

    // The WAL is the durability authority: the file backend journals
    // seeds (and recovery replays) but not live commits, so its
    // segments never get ahead of a torn WAL.
    let store_cfg = FileBackendConfig {
        log_commits: false,
        ..FileBackendConfig::default()
    };
    let disk_fault = DiskFaultPlan::generate(seed, 6);
    let lying_disk = matches!(disk_fault.kind, DiskFaultKind::DropFsync { .. });
    let wal = Arc::new(
        GroupCommitWal::with_fault(
            &wal_path,
            GroupCommitConfig {
                max_batch_frames: 4,
                ..GroupCommitConfig::default()
            },
            Some(Box::new(disk_fault)),
        )
        .expect("create WAL"),
    );
    let backend: Arc<dyn StorageBackend> =
        Arc::new(FileBackend::open(&data_dir, store_cfg.clone()).expect("open backend"));
    let (sched, hierarchy) = build_hdd_on(backend, &w, config.clone());

    // Phase 1: worker faults AND disk faults at once.
    let phase1: Vec<_> = (0..n).map(|_| w.generate(&mut rng)).collect();
    let plan = FaultPlan::generate(
        seed,
        phase1.len(),
        &ChaosConfig {
            crash_prob: 0.05,
            stall_prob: 0.05,
            delay_prob: 0.05,
            max_after_ops: 3,
            stall_micros: 2 * LEASE.as_micros() as u64,
            delay_micros: 300,
        },
    );
    let report = run_concurrent(
        sched.as_ref(),
        phase1,
        &ConcurrentConfig {
            workers: 4,
            verify: false,
            obs: true,
            txn_deadline: Some(Duration::from_secs(5)),
            wal: Some(Arc::clone(&wal)),
            faults: Some(Arc::new(plan)),
            ..ConcurrentConfig::default()
        },
    );
    tally.seeds += 1;
    tally.committed += report.stats.committed;
    tally.wal_lost += report.wal_lost;
    tally.worker_crashes += report.faults.crashed;
    tally.reaped += sched.metrics().snapshot().rej_watchdog_abort;
    if wal.crashed() {
        tally.disk_crashes += 1;
    }

    // Process death: every in-memory structure is gone. Only the two
    // on-disk artifacts survive.
    drop(sched);
    drop(wal);

    // Recovery from on-disk state alone: decode the torn WAL, reopen
    // the segments (which replay the journaled seeds), resume.
    let bytes = std::fs::read(&wal_path).expect("read WAL bytes");
    let (survivors, wal_report) = decode_wal(&bytes).expect("own WAL is never foreign");
    if wal_report.torn() {
        tally.torn_tails += 1;
    }
    let durable_commits = survivors
        .iter()
        .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
        .count();
    // Only journaled (update) commits owe the disk a record; read-only
    // commits count in `committed` but have nothing to persist.
    let missing = report.journaled.saturating_sub(durable_commits);
    if lying_disk {
        tally.lied_losses += missing;
    } else {
        tally.ack_violations += missing;
    }

    let backend2: Arc<dyn StorageBackend> =
        Arc::new(FileBackend::open(&data_dir, store_cfg).expect("reopen backend"));
    let (resumed, resume_report) =
        hdd::resume(Arc::clone(&hierarchy), backend2, &survivors, config);
    debug_assert!(resume_report.resumes_after > resume_report.recovery.high_water_mark);

    // Phase 2 on the survivor, clean.
    let phase2: Vec<_> = (0..n / 2).map(|_| w.generate(&mut rng)).collect();
    let clean = ConcurrentConfig {
        workers: 4,
        verify: false,
        obs: true,
        txn_deadline: Some(Duration::from_secs(5)),
        faults: Some(Arc::new(FaultPlan::clean(phase2.len()))),
        ..ConcurrentConfig::default()
    };
    run_concurrent(&resumed, phase2, &clean);
    tally.reaped += resumed.metrics().snapshot().rej_watchdog_abort;

    let stitched = resumed.log().events();
    let stamps = end_point_timestamps(&stitched);
    let distinct: HashSet<u64> = stamps.iter().copied().collect();
    tally.ts_collisions += stamps.len() - distinct.len();
    if certify_log("hdd", resumed.log(), Some(&hierarchy)).ok() {
        tally.recovered_certified += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Run the disk-fault soak over `seeds` seeds.
pub fn soak(seeds: u64, n: usize) -> SoakTally {
    let mut tally = SoakTally::default();
    for seed in 0..seeds {
        soak_one(seed, n, &mut tally);
    }
    tally
}

/// Serialize the throughput sweep as JSON (one `results` line per
/// point, same shape `crate::baseline` scans).
pub fn to_json(points: &[DurabilityPoint]) -> String {
    let mut s = String::from(
        "{\n  \"experiment\": \"durability\",\n  \"workload\": \"inventory\",\n  \"results\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheduler\": \"{}\", \"workers\": {}, \"batch_frames\": {}, \
             \"committed\": {}, \"elapsed_s\": {:.6}, \"commits_per_sec\": {:.1}, \
             \"fsync_batches\": {}}}{}\n",
            p.scheduler,
            p.workers,
            p.batch_frames,
            p.committed,
            p.elapsed_s,
            p.commits_per_sec,
            p.fsync_batches,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Run E19 and return the table. Full runs write `BENCH_e19.json`.
pub fn run(quick: bool) -> Table {
    let points = throughput_sweep(quick);
    if !quick && !points.is_empty() {
        if let Err(e) = std::fs::write("BENCH_e19.json", to_json(&points)) {
            eprintln!("warning: could not write BENCH_e19.json: {e}");
        }
    }
    let recovery = recovery_sweep(quick);
    let (seeds, n) = if quick { (12, 30) } else { (200, 48) };
    let tally = soak(seeds, n);

    let mut table = Table::new(
        "E19 — durable tier: group commit, backends, recovery, disk faults (inventory)",
        &["row", "a", "b", "c", "d", "e"],
    );
    for p in &points {
        table.row(&[
            format!("tput/{}", p.scheduler),
            format!("workers={}", p.workers),
            format!("batch={}", p.batch_frames),
            format!("committed={}", p.committed),
            format!("cps={}", f2(p.commits_per_sec)),
            format!("fsyncs={}", p.fsync_batches),
        ]);
    }
    for p in &recovery {
        table.row(&[
            format!("recover/{}/{}", p.backend, p.events),
            format!("events={}", p.events),
            format!("redo={}", p.redo_applied),
            format!("ms={}", f2(p.recover_ms)),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table.row(&[
        "soak".to_string(),
        format!("seeds={}", tally.seeds),
        format!("committed={}", tally.committed),
        format!("disk-crashes={}", tally.disk_crashes),
        format!("wal-lost={}", tally.wal_lost),
        format!("torn={}", tally.torn_tails),
    ]);
    table.row(&[
        "soak-verdict".to_string(),
        format!("certified={}", tally.recovered_certified),
        format!("ts-collisions={}", tally.ts_collisions),
        format!("ack-violations={}", tally.ack_violations),
        format!("lied-losses={}", tally.lied_losses),
        format!("reaped={}", tally.reaped),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_throughput_sweep_covers_the_grid() {
        let points = throughput_sweep(true);
        if points.is_empty() {
            return; // host below the worker cap
        }
        assert_eq!(points.len(), 6, "baseline + 4 batch sizes + file row");
        for p in &points {
            assert!(p.committed > 0, "{p:?}");
            assert!(p.commits_per_sec > 0.0, "{p:?}");
        }
        let b1 = points.iter().find(|p| p.batch_frames == 1).unwrap();
        assert!(
            b1.fsync_batches as usize >= b1.committed / 2,
            "batch=1 can only merge frames racing the same leader window: {b1:?}"
        );
        let json = to_json(&points);
        assert!(json.contains("\"scheduler\": \"hdd-wal-b16\""));
        assert!(
            crate::baseline::recorded_commits_per_sec_str(&json, "hdd-wal-b16", points[0].workers)
                .is_some(),
            "bench-gate scanner must parse the emitted rows"
        );
    }

    #[test]
    fn recovery_cost_grows_with_log_length_on_both_backends() {
        let points = recovery_sweep(true);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(p.redo_applied as usize, p.events / 3, "{p:?}");
        }
    }

    #[test]
    fn disk_fault_soak_recovers_from_disk_alone() {
        let tally = soak(12, 30);
        assert_eq!(tally.seeds, 12);
        assert_eq!(
            tally.recovered_certified, 12,
            "every stitched post-recovery log must certify clean: {tally:?}"
        );
        assert_eq!(tally.ts_collisions, 0, "{tally:?}");
        assert_eq!(
            tally.ack_violations, 0,
            "a counted commit missing from disk breaks the ack rule: {tally:?}"
        );
        assert!(
            tally.disk_crashes > 0,
            "the fault schedules must actually crash some WALs: {tally:?}"
        );
        assert!(tally.committed > 0, "{tally:?}");
    }
}
