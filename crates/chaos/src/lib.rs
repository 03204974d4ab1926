//! # chaos — deterministic fault plans for the HDD runtime
//!
//! Reproducible, seeded fault assignments. A [`FaultPlan`] says which
//! worker fault (if any) hits each transaction program; the concurrent
//! driver (`sim::concurrent::run_concurrent`) takes it as its optional
//! fault hook and injects it at two fault points, before each operation
//! and between the last operation and the commit:
//!
//! * **Crash** — the worker abandons its transaction mid-program
//!   *without* aborting it, leaving pending versions in the store and a
//!   running interval in the activity registry — exactly the wreckage a
//!   killed process leaves behind. Under HDD this wedges `C_late` (and
//!   with it the time wall and the GC watermark) until the straggler
//!   watchdog reaps the corpse.
//! * **Stall** — the worker sleeps mid-transaction while holding its
//!   registry entry, modelling a GC pause or a scheduling hiccup. If
//!   the stall outlives the transaction lease, the watchdog aborts the
//!   transaction out from under the sleeper, whose next operation then
//!   fails with `Abort` and retries as a fresh transaction.
//! * **DelayCommit** — the worker sleeps just before committing,
//!   stretching the transaction's activity interval.
//!
//! Faults are assigned per program by [`FaultPlan::generate`] from a
//! seed, so a failing schedule replays exactly. The driver's
//! maintenance ticker samples the scheduler's `timewalls_released`
//! counter and reports the longest gap between consecutive wall
//! releases — the observable measure of "the time wall resumed within
//! a bounded interval" that experiment E16 asserts on. [`disk`] holds
//! the matching seeded disk faults for the group-commit WAL.
//!
//! Plans are scheduler-agnostic but only meaningful against schedulers
//! that survive abandonment: run HDD with `HddConfig::txn_lease` set,
//! or crashed programs pin the registry forever.

#![warn(missing_docs)]

pub mod disk;
pub mod plan;

pub use disk::{DiskFaultKind, DiskFaultPlan};
pub use plan::{ChaosConfig, FaultKind, FaultPlan};
