//! One trial: set up a scheduler on a fresh store, run a fixed list of
//! programs through `sim::concurrent::run_concurrent`, and check what it
//! produced.
//!
//! Every scheduler, store and WAL is built through the repository's own
//! defaults (`build_scheduler`, `HddConfig::default()`,
//! `GroupCommitConfig::default()`, `ConcurrentConfig::default()`), so a
//! change to a default is measured rather than bypassed. The benchmark
//! sets only what defines a trial: two workers, the schedule log off
//! outside the certified run, and the WAL on the journaled trial.

use crate::probe::{Probe, ProbeSlot};
use crate::trace::{TraceSlot, TracedScheduler, TracedStore, Tracer};
use crate::workload::Kind;
use hdd::{HddConfig, HddScheduler, Hierarchy};
use mvstore::{MvStore, StorageBackend};
use sim::concurrent::{run_concurrent, ConcurrentConfig, ConcurrentStats};
use sim::factory::{build_scheduler, SchedulerKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txn_model::{
    decode_wal, GroupCommitConfig, GroupCommitStats, GroupCommitWal, LogicalClock, ScheduleEvent,
    Scheduler, TxnProgram,
};
use workloads::Workload;

/// Closed-loop clients: one per vCPU of the reference host.
pub const WORKERS: usize = 2;

/// How a trial is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// hdd behind the latency probe, schedule log off.
    Plain,
    /// hdd with the schedule log captured and certified afterwards.
    Logged,
    /// hdd behind the tracing decorators, schedule log off.
    Traced,
    /// As `Traced`, with every update journaled through the group-commit
    /// WAL and acknowledged only once its batch is synced.
    Journaled,
    /// The mvto baseline behind the latency probe, schedule log off.
    Mvto,
}

/// Everything the workload needs besides the programs.
pub struct Bench<'a> {
    pub kind: Kind,
    pub workload: &'a dyn Workload,
    pub hierarchy: &'a Hierarchy,
    /// Scratch directory for WAL files.
    pub tmp: &'a Path,
}

/// What one trial measured.
pub struct Trial {
    pub offered: usize,
    pub run: ConcurrentStats,
    pub setup: Duration,
    pub probe: Vec<ProbeSlot>,
    pub trace: Vec<TraceSlot>,
    pub wal: Option<GroupCommitStats>,
    /// The scheduler's always-on WAL fsync histogram.
    pub fsync: obs::HistogramSnapshot,
    pub versions_end: usize,
    pub granules_end: usize,
    /// Programs the scheduler committed, split update / read-only.
    pub update_commits: u64,
    pub ro_commits: u64,
}

impl Trial {
    /// Programs that did not commit durably.
    pub fn failed(&self) -> usize {
        let s = &self.run.stats;
        s.gave_up + s.deadline_exceeded + self.run.wal_lost
    }
}

struct Engine {
    sched: Box<dyn Scheduler>,
    store: Arc<MvStore>,
    wal: Option<Arc<GroupCommitWal>>,
    tracer: Option<Arc<Tracer>>,
}

impl Bench<'_> {
    fn setup(&self, mode: Mode, wal_path: &Path) -> Result<Engine, String> {
        let (sched, store, tracer): (Box<dyn Scheduler>, _, _) = match mode {
            Mode::Plain | Mode::Logged => {
                let (s, store) = build_scheduler(SchedulerKind::Hdd, self.workload);
                (s, store, None)
            }
            Mode::Mvto => {
                let (s, store) = build_scheduler(SchedulerKind::Mvto, self.workload);
                (s, store, None)
            }
            Mode::Traced | Mode::Journaled => {
                // `build_scheduler`'s hdd arm, with the backend wrapped.
                let store = Arc::new(MvStore::new());
                self.workload.seed(store.as_ref());
                let tracer = Arc::new(Tracer::new());
                let backend: Arc<dyn StorageBackend> =
                    Arc::new(TracedStore::new(store.clone(), Arc::clone(&tracer)));
                let s = HddScheduler::new(
                    Arc::new(self.workload.hierarchy()),
                    backend,
                    Arc::new(LogicalClock::new()),
                    HddConfig::default(),
                );
                (Box::new(s), store, Some(tracer))
            }
        };
        let wal = if mode == Mode::Journaled {
            let w = GroupCommitWal::create(wal_path, GroupCommitConfig::default())
                .map_err(|e| format!("cannot create WAL {}: {e}", wal_path.display()))?;
            Some(Arc::new(w))
        } else {
            None
        };
        Ok(Engine {
            sched,
            store,
            wal,
            tracer,
        })
    }

    /// Set up a plain engine and tear it down again; returns the set-up
    /// time.
    pub fn setup_only(&self) -> Result<Duration, String> {
        let wal_path = self.wal_path();
        let t0 = Instant::now();
        let engine = self.setup(Mode::Plain, &wal_path)?;
        let setup = t0.elapsed();
        drop(engine);
        self.remove_wal(&wal_path)?;
        Ok(setup)
    }

    fn wal_path(&self) -> PathBuf {
        self.tmp.join(format!("{}.wal", self.kind.name()))
    }

    fn remove_wal(&self, wal_path: &Path) -> Result<(), String> {
        match std::fs::remove_file(wal_path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                Err(format!("cannot remove {}: {e}", wal_path.display()))
            }
            _ => Ok(()),
        }
    }

    /// Run `programs` once in `mode` on a freshly set-up engine and check
    /// the outcome. `Err` names the first check that failed.
    pub fn trial(&self, mode: Mode, programs: &[TxnProgram]) -> Result<Trial, String> {
        let wal_path = self.wal_path();
        let t0 = Instant::now();
        let engine = self.setup(mode, &wal_path)?;
        let setup = t0.elapsed();
        let cfg = ConcurrentConfig {
            workers: WORKERS,
            capture_log: mode == Mode::Logged,
            wal: engine.wal.clone(),
            ..ConcurrentConfig::default()
        };
        let sched = engine.sched.as_ref();
        let work = programs.to_vec();
        let (run, probe, trace) = match &engine.tracer {
            Some(tracer) => {
                let traced = TracedScheduler::new(sched, self.hierarchy, tracer);
                let run = run_concurrent(&traced, work, &cfg);
                (run, Vec::new(), tracer.take())
            }
            None => {
                let probe = Probe::new(sched);
                let run = run_concurrent(&probe, work, &cfg);
                (run, probe.finish(), Vec::new())
            }
        };
        let (update_commits, ro_commits) = if trace.is_empty() {
            let u = probe.iter().map(|s| s.update_commits).sum::<u64>();
            (u, probe.iter().map(|s| s.ro_commits).sum::<u64>())
        } else {
            let all = trace
                .iter()
                .map(|s| s.commit_at_ns.len() as u64)
                .sum::<u64>();
            let u = trace.iter().map(|s| s.update_commits).sum::<u64>();
            (u, all - u)
        };
        let trial = Trial {
            offered: programs.len(),
            setup,
            probe,
            trace,
            wal: engine.wal.as_ref().map(|w| w.stats()),
            fsync: sched.metrics().obs.gauges.snapshot().fsync_ns,
            versions_end: engine.store.version_count(),
            granules_end: engine.store.granule_count(),
            update_commits,
            ro_commits,
            run,
        };
        self.check(mode, &engine, &trial, &wal_path)?;
        drop(engine);
        self.remove_wal(&wal_path)?;
        Ok(trial)
    }

    /// The output checks every trial must pass.
    fn check(&self, mode: Mode, engine: &Engine, t: &Trial, wal_path: &Path) -> Result<(), String> {
        let s = &t.run.stats;
        let name = self.kind.name();
        if s.committed + t.failed() != t.offered {
            return Err(format!(
                "{name}/{mode:?}: committed {} + failed {} != offered {}",
                s.committed,
                t.failed(),
                t.offered
            ));
        }
        let seen = t.update_commits + t.ro_commits;
        if seen != (s.committed + t.run.wal_lost) as u64 {
            return Err(format!(
                "{name}/{mode:?}: the decorator saw {seen} commits, the driver {}",
                s.committed + t.run.wal_lost
            ));
        }
        if self.kind == Kind::TreeReadMostly {
            // Each update increments exactly one counter from 0.
            let mut sum = 0i64;
            engine.store.for_each_chain(&mut |_, chain| {
                sum += chain.latest_committed().map_or(0, |v| v.value.as_int());
            });
            if sum != t.update_commits as i64 {
                return Err(format!(
                    "{name}/{mode:?}: counters sum to {sum}, but {} updates committed",
                    t.update_commits
                ));
            }
        }
        if engine.wal.is_some() {
            // Read the file as a crash would leave it: every acked
            // commit must already be on disk.
            let bytes = std::fs::read(wal_path)
                .map_err(|e| format!("cannot read {}: {e}", wal_path.display()))?;
            let (events, report) =
                decode_wal(&bytes).map_err(|e| format!("{name}: WAL does not decode: {e:?}"))?;
            let commits = events
                .iter()
                .filter(|e| matches!(e, ScheduleEvent::Commit { .. }))
                .count() as u64;
            let acked = t.update_commits - t.run.wal_lost as u64;
            if report.torn() || commits != acked {
                return Err(format!(
                    "{name}: WAL holds {commits} commits (torn: {}), {acked} were acked",
                    report.torn()
                ));
            }
        }
        if mode == Mode::Logged {
            let cert = certify::certify_log("hdd", engine.sched.log(), Some(self.hierarchy));
            if !cert.ok() || s.serializable != Some(true) {
                return Err(format!(
                    "{name}: certifier rejected the log: {}",
                    cert.render()
                ));
            }
        }
        Ok(())
    }
}
