//! # mvstore — multi-version storage substrate
//!
//! The paper assumes "the maintenance of a multi-version database"
//! (Section 1.2.2) and, for intra-class synchronization, "the basic
//! timestamp ordering protocol \[Bernstein80\] or the multi-version
//! timestamp ordering protocol \[Reed78\]" (Protocol B). This crate is that
//! substrate, shared by the HDD scheduler and by every baseline:
//!
//! * [`chain::VersionChain`] — a granule's committed/pending versions
//!   ordered by write timestamp, with the MVTO read/write rules and the
//!   per-granule read-timestamp bookkeeping basic TSO needs;
//! * [`backend::StorageBackend`] — the pluggable storage tier every
//!   scheduler talks to (get / put-version / scan / truncate), with two
//!   implementations:
//!   [`store::MvStore`] — a sharded concurrent in-memory map of granules
//!   to chains, with seeding and time-wall-driven garbage collection
//!   that sweeps only the chains holding old versions —
//!   and [`filestore::FileBackend`] — a zero-dependency log-structured
//!   durable tier (append-only checksummed segment files over an
//!   in-memory index, with crash-safe rotation);
//! * [`recovery`] — redo-only replay of a (possibly torn) schedule log
//!   into any backend;
//! * [`locktable::LockTable`] — shared/exclusive locks with FIFO waiters,
//!   upgrades, and waits-for deadlock detection (substrate for the 2PL
//!   family of baselines);
//! * [`hash::IntHasher`] — the multiply-xor hasher of the integer-keyed
//!   hot maps (the store's shards, the HDD transaction table).

#![warn(missing_docs)]

pub mod backend;
pub mod chain;
pub mod filestore;
pub mod hash;
pub mod locktable;
pub mod recovery;
pub mod store;

pub use backend::{StorageBackend, VersionRecord};
pub use chain::{MvtoReadResult, MvtoWriteResult, Version, VersionChain};
pub use filestore::{FileBackend, FileBackendConfig, OpenError};
pub use hash::{IntBuildHasher, IntHasher, IntMap};
pub use locktable::{LockMode, LockRequestResult, LockTable};
pub use recovery::{recover, RecoveryAnomalies, RecoveryReport, SkipKind, SkippedFrame};
pub use store::MvStore;
