//! The pluggable storage tier: [`StorageBackend`].
//!
//! Every scheduler in this workspace talks to its version store through
//! this object-safe trait instead of a concrete [`MvStore`], so the same
//! protocol code runs over the in-memory store (the default, and the
//! perf baseline) or the log-structured
//! [`FileBackend`](crate::filestore::FileBackend) (the durable tier).
//!
//! # Contract
//!
//! * **Get** — [`StorageBackend::with_chain_dyn`] grants exclusive
//!   access to a granule's [`VersionChain`] (creating an `Absent`-seeded
//!   chain on first touch, like `MvStore::with_chain`). All *pending*
//!   state created through it (uncommitted versions, read timestamps) is
//!   volatile by design: the redo discipline of `mvstore::recovery`
//!   reconstructs committed state from the log, and uncommitted state
//!   must *not* survive a crash.
//! * **Put** — [`StorageBackend::commit_writes`] is the durability
//!   point for a transaction's write set; a persistent backend must not
//!   return from it until the committed versions are recoverable.
//!   [`StorageBackend::put_versions`] batch-installs already-committed
//!   versions (recovery replay) with the same durability obligation.
//! * **Scan** — [`StorageBackend::scan_chains`] visits every chain
//!   (quiescent moments only; it may hold shard locks).
//! * **Truncate** — [`StorageBackend::prune_before`] is the GC
//!   watermark sweep. It visits only the chains that hold more than one
//!   version, so it costs O(such chains), not O(database). Persistent
//!   backends may treat it as advisory (a pruned version replayed after
//!   a crash is harmless: MVCC reads still select the correct snapshot
//!   and GC re-prunes).
//!
//! The generic conveniences (`with_chain`, `latest_value`,
//! `value_as_of`) live on `dyn StorageBackend` itself so call sites read
//! exactly as they did against the concrete `MvStore`.

use crate::chain::VersionChain;
use crate::store::MvStore;
use std::sync::Arc;
use txn_model::{GranuleId, Timestamp, TxnId, Value};

/// One committed version, ready for batch installation — the unit of the
/// trait's put-version API and of the file backend's segment records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionRecord {
    /// Granule the version belongs to.
    pub granule: GranuleId,
    /// Write timestamp of the version.
    pub ts: Timestamp,
    /// The version's value (shared, never copied).
    pub value: Arc<Value>,
    /// Creating transaction.
    pub writer: TxnId,
}

/// A multi-version storage tier (see the module docs for the contract).
///
/// Object-safe on purpose: schedulers hold an `Arc<dyn StorageBackend>`,
/// and `Arc<MvStore>` coerces into it at every existing constructor call
/// site.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// Backend name for reports ("memory", "file").
    fn name(&self) -> &'static str;

    /// True when committed state survives a process crash.
    fn persistent(&self) -> bool;

    /// Seed `g` with a committed initial version at [`Timestamp::ZERO`],
    /// replacing any existing chain (database population).
    fn seed(&self, g: GranuleId, value: Value);

    /// Run `f` with exclusive access to `g`'s chain, creating an
    /// `Absent`-seeded chain on first touch. Mutations made here are
    /// volatile (see module docs); durability happens at
    /// [`commit_writes`](Self::commit_writes) /
    /// [`put_versions`](Self::put_versions).
    fn with_chain_dyn(&self, g: GranuleId, f: &mut dyn FnMut(&mut VersionChain));

    /// Mark all of `writer`'s pending versions in `write_set` committed.
    /// This is the backend's durability point for the write set.
    fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]);

    /// Remove all of `writer`'s pending versions in `write_set`.
    fn abort_writes(&self, writer: TxnId, write_set: &[GranuleId]);

    /// Batch-install committed versions (recovery replay). Each record
    /// replaces any existing version at its timestamp — later log
    /// entries for the same version win, as redo replay requires.
    fn put_versions(&self, batch: &[VersionRecord]);

    /// Visit every chain (scan API; quiescent moments only).
    fn scan_chains(&self, f: &mut dyn FnMut(GranuleId, &VersionChain));

    /// Garbage-collect versions older than the watermark (keeping the
    /// snapshot version below it, per chain). Only chains holding more
    /// than one version can lose one, and only those are visited.
    /// Returns versions reclaimed from the in-memory image.
    fn prune_before(&self, wm: Timestamp) -> usize;

    /// Total number of versions held across all granules.
    fn version_count(&self) -> usize;

    /// Number of granules with a chain.
    fn granule_count(&self) -> usize;

    /// Length of the deepest version chain.
    fn max_chain_len(&self) -> usize;

    /// Flush any buffered durable state to stable storage. No-op for
    /// volatile backends.
    fn sync(&self) -> std::io::Result<()>;
}

impl StorageBackend for MvStore {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn persistent(&self) -> bool {
        false
    }

    fn seed(&self, g: GranuleId, value: Value) {
        MvStore::seed(self, g, value);
    }

    fn with_chain_dyn(&self, g: GranuleId, f: &mut dyn FnMut(&mut VersionChain)) {
        MvStore::with_chain(self, g, |c| f(c));
    }

    fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        MvStore::commit_writes(self, writer, write_set);
    }

    fn abort_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        MvStore::abort_writes(self, writer, write_set);
    }

    fn put_versions(&self, batch: &[VersionRecord]) {
        for r in batch {
            MvStore::with_chain(self, r.granule, |c| {
                c.remove_version_at(r.ts);
                c.install(r.ts, Arc::clone(&r.value), r.writer, true);
            });
        }
    }

    fn scan_chains(&self, f: &mut dyn FnMut(GranuleId, &VersionChain)) {
        MvStore::for_each_chain(self, f);
    }

    fn prune_before(&self, wm: Timestamp) -> usize {
        MvStore::prune_before(self, wm)
    }

    fn version_count(&self) -> usize {
        MvStore::version_count(self)
    }

    fn granule_count(&self) -> usize {
        MvStore::granule_count(self)
    }

    fn max_chain_len(&self) -> usize {
        MvStore::max_chain_len(self)
    }

    fn sync(&self) -> std::io::Result<()> {
        Ok(())
    }
}

impl dyn StorageBackend {
    /// Run `f` with exclusive access to `g`'s chain and return its
    /// result — the generic convenience over
    /// [`StorageBackend::with_chain_dyn`], so protocol code written
    /// against `MvStore::with_chain` reads unchanged against the trait
    /// object.
    pub fn with_chain<R>(&self, g: GranuleId, f: impl FnOnce(&mut VersionChain) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.with_chain_dyn(g, &mut |chain| {
            if let Some(f) = f.take() {
                out = Some(f(chain));
            }
        });
        out.expect("with_chain_dyn must invoke the closure exactly once")
    }

    /// The latest committed value of `g`, or `Value::Absent` (result
    /// inspection in tests and examples).
    pub fn latest_value(&self, g: GranuleId) -> Value {
        self.with_chain(g, |c| {
            c.latest_committed()
                .map_or(Value::Absent, |v| (*v.value).clone())
        })
    }

    /// The committed value of `g` as of logical time `ts` (exclusive) —
    /// `MvStore::value_as_of`, generalized over backends.
    pub fn value_as_of(&self, g: GranuleId, ts: Timestamp) -> Value {
        self.with_chain(g, |c| {
            c.latest_committed_before(ts)
                .map_or(Value::Absent, |v| (*v.value).clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txn_model::SegmentId;

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    #[test]
    fn mvstore_behind_the_trait_matches_direct_use() {
        let store: Arc<dyn StorageBackend> = Arc::new(MvStore::new());
        assert_eq!(store.name(), "memory");
        assert!(!store.persistent());
        store.seed(g(0, 1), Value::Int(7));
        assert_eq!(store.latest_value(g(0, 1)), Value::Int(7));
        store.with_chain(g(0, 1), |c| {
            c.mvto_write(Timestamp(5), Arc::new(Value::Int(50)), TxnId(3));
        });
        // Pending: not visible yet.
        assert_eq!(store.latest_value(g(0, 1)), Value::Int(7));
        store.commit_writes(TxnId(3), &[g(0, 1)]);
        assert_eq!(store.latest_value(g(0, 1)), Value::Int(50));
        assert_eq!(store.value_as_of(g(0, 1), Timestamp(5)), Value::Int(7));
        assert_eq!(store.version_count(), 2);
        assert_eq!(store.granule_count(), 1);
        assert_eq!(store.max_chain_len(), 2);
        store.sync().unwrap();
    }

    #[test]
    fn with_chain_returns_the_closure_result() {
        let store: Arc<dyn StorageBackend> = Arc::new(MvStore::new());
        store.seed(g(1, 1), Value::Int(1));
        let len = store.with_chain(g(1, 1), |c| c.len());
        assert_eq!(len, 1);
    }

    #[test]
    fn put_versions_batch_is_idempotent_and_later_wins() {
        let store: Arc<dyn StorageBackend> = Arc::new(MvStore::new());
        let rec = |ts: u64, val: i64| VersionRecord {
            granule: g(0, 1),
            ts: Timestamp(ts),
            value: Arc::new(Value::Int(val)),
            writer: TxnId(9),
        };
        store.put_versions(&[rec(3, 30), rec(5, 50)]);
        assert_eq!(store.latest_value(g(0, 1)), Value::Int(50));
        // Replaying the same version with different content wins.
        store.put_versions(&[rec(5, 55)]);
        assert_eq!(store.latest_value(g(0, 1)), Value::Int(55));
        assert_eq!(store.with_chain(g(0, 1), |c| c.len()), 3); // + Absent seed
    }

    #[test]
    fn scan_chains_visits_every_granule() {
        let store: Arc<dyn StorageBackend> = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(1));
        store.seed(g(1, 2), Value::Int(2));
        let mut seen = Vec::new();
        store.scan_chains(&mut |gr, chain| {
            seen.push((gr, chain.len()));
        });
        seen.sort();
        assert_eq!(seen, vec![(g(0, 1), 1), (g(1, 2), 1)]);
    }

    #[test]
    fn abort_and_prune_through_the_trait() {
        let store: Arc<dyn StorageBackend> = Arc::new(MvStore::new());
        store.seed(g(0, 1), Value::Int(0));
        store.with_chain(g(0, 1), |c| {
            c.mvto_write(Timestamp(2), Arc::new(Value::Int(2)), TxnId(1));
        });
        store.abort_writes(TxnId(1), &[g(0, 1)]);
        assert_eq!(store.version_count(), 1);
        for ts in 1..=4u64 {
            store.with_chain(g(0, 1), |c| {
                c.mvto_write(Timestamp(ts), Arc::new(Value::Int(ts as i64)), TxnId(ts));
                c.commit_writer(TxnId(ts));
            });
        }
        assert_eq!(store.prune_before(Timestamp(4)), 3);
    }
}
