//! The sharded multi-version store.
//!
//! [`MvStore`] maps [`GranuleId`]s to [`VersionChain`]s across a fixed
//! number of mutex-protected shards. All protocol logic lives in the
//! chains (and in the schedulers above); the store provides location,
//! seeding, per-granule critical sections, commit/abort cleanup across
//! a write set, and garbage collection.
//!
//! GC costs O(chains with more than one version), not O(database):
//! each shard keeps a *sweep list* of the granules whose chain held
//! more than one version when its last mutation ended, and
//! [`MvStore::prune_before`] walks only that list. Every mutation runs
//! inside [`MvStore::with_chain`], which appends the granule (once — a
//! queued flag sits beside the chain) while the shard lock is still
//! held. A single-version chain has nothing to reclaim, so the list
//! sweep reclaims exactly what a sweep of every chain would.

use crate::chain::VersionChain;
use crate::hash::IntMap;
use parking_lot::Mutex;
use txn_model::{GranuleId, Timestamp, TxnId, Value};

/// Power-of-two shard count, indexed by mask instead of `%`.
const SHARDS: usize = 64;

/// Fibonacci multiply-shift mixer over the granule's raw bits. A
/// `GranuleId` is `(segment, key)` with low entropy in both words;
/// multiplying by the 64-bit golden-ratio constant diffuses that into
/// the high bits, which the shift then selects. No hasher state is
/// constructed per access (the previous `DefaultHasher`-per-call did a
/// full SipHash setup and finalization on every chain touch).
#[inline]
fn shard_index(g: GranuleId) -> usize {
    let raw = (g.segment.0 as u64) << 48 ^ g.key;
    let mixed = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - SHARDS.trailing_zeros())) as usize & (SHARDS - 1)
}

/// A chain plus its sweep-list membership.
#[derive(Debug, Default)]
struct Slot {
    chain: VersionChain,
    /// True while the granule is on its shard's sweep list.
    queued: bool,
}

/// One shard: its chains and the GC sweep list over them.
#[derive(Debug, Default)]
struct Shard {
    chains: IntMap<GranuleId, Slot>,
    /// Granules whose chain may hold more than one version, each listed
    /// once (its slot is `queued`). A chain with one version or none is
    /// never listed after a sweep.
    sweep: Vec<GranuleId>,
}

/// A concurrent granule → version-chain map.
#[derive(Debug)]
pub struct MvStore {
    shards: Vec<Mutex<Shard>>,
}

impl MvStore {
    /// An empty store.
    pub fn new() -> Self {
        MvStore {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, g: GranuleId) -> &Mutex<Shard> {
        &self.shards[shard_index(g)]
    }

    /// Seed `g` with a committed initial version (write timestamp ZERO).
    /// Replaces any existing chain; intended for database population. A
    /// granule already on the sweep list stays listed (once) and leaves
    /// it at the next sweep.
    pub fn seed(&self, g: GranuleId, value: Value) {
        self.shard(g).lock().chains.entry(g).or_default().chain = VersionChain::seeded(value);
    }

    /// Run `f` with exclusive access to `g`'s chain, creating a seeded
    /// (`Value::Absent`) chain on first touch. Afterwards, still under
    /// the shard lock, a chain left with more than one version joins the
    /// sweep list.
    pub fn with_chain<R>(&self, g: GranuleId, f: impl FnOnce(&mut VersionChain) -> R) -> R {
        let mut shard = self.shard(g).lock();
        let shard = &mut *shard;
        let slot = shard.chains.entry(g).or_insert_with(|| Slot {
            chain: VersionChain::first_touch(),
            queued: false,
        });
        let out = f(&mut slot.chain);
        if !slot.queued && slot.chain.len() > 1 {
            slot.queued = true;
            shard.sweep.push(g);
        }
        out
    }

    /// Mark all of `writer`'s pending versions in `write_set` committed.
    pub fn commit_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        for &g in write_set {
            self.with_chain(g, |c| c.commit_writer(writer));
        }
    }

    /// Remove all of `writer`'s pending versions in `write_set`.
    pub fn abort_writes(&self, writer: TxnId, write_set: &[GranuleId]) {
        for &g in write_set {
            self.with_chain(g, |c| c.remove_writer_pending(writer));
        }
    }

    /// Garbage-collect: drop committed versions older than the watermark
    /// except the latest one below it, in every chain on the sweep list.
    /// Costs O(chains with more than one version); a chain pruned back
    /// to one version leaves the list. Returns total reclaimed.
    pub fn prune_before(&self, wm: Timestamp) -> usize {
        let mut reclaimed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let Shard { chains, sweep } = &mut *shard;
            sweep.retain(|g| {
                let slot = chains.get_mut(g).expect("listed granules keep their chain");
                reclaimed += slot.chain.prune_before(wm);
                slot.queued = slot.chain.len() > 1;
                slot.queued
            });
        }
        reclaimed
    }

    /// Total number of versions held across all granules.
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .chains
                    .values()
                    .map(|s| s.chain.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Number of granules with a chain.
    pub fn granule_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().chains.len()).sum()
    }

    /// Length of the deepest version chain — the gauge-board signal for
    /// "GC is falling behind on some hot granule". O(granules); sample
    /// it from maintenance ticks, not hot paths.
    pub fn max_chain_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .chains
                    .values()
                    .map(|s| s.chain.len())
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Visit every chain with its granule id (the scan API of the
    /// storage trait). Holds one shard lock at a time; intended for
    /// quiescent moments (gauges refresh, checkpointing, tests).
    pub fn for_each_chain(&self, f: &mut dyn FnMut(GranuleId, &VersionChain)) {
        for shard in &self.shards {
            for (g, slot) in &shard.lock().chains {
                f(*g, &slot.chain);
            }
        }
    }

    /// The latest committed value of `g` (for result inspection in tests
    /// and examples), or `Value::Absent`.
    pub fn latest_value(&self, g: GranuleId) -> Value {
        self.with_chain(g, |c| {
            c.latest_committed()
                .map_or(Value::Absent, |v| (*v.value).clone())
        })
    }

    /// The committed value of `g` as of logical time `ts` (exclusive):
    /// the latest committed version with write timestamp `< ts`.
    ///
    /// This is Reed's "arbitrary time slice" retrieval (the paper cites
    /// it in Section 1.3); it is only meaningful for times at or above
    /// the garbage-collection watermark — older slices may have been
    /// pruned down to their newest surviving version.
    pub fn value_as_of(&self, g: GranuleId, ts: Timestamp) -> Value {
        self.with_chain(g, |c| {
            c.latest_committed_before(ts)
                .map_or(Value::Absent, |v| (*v.value).clone())
        })
    }
}

impl Default for MvStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Test support: the full-sweep reference store and the sweep-list
/// invariant check, shared by the GC equivalence tests here and in
/// `filestore`.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::backend::VersionRecord;
    use std::collections::{BTreeMap, HashSet};
    use std::sync::Arc;

    /// A chain's observable state: `(ts, value, writer, committed, rts)`
    /// per version, plus the granule-level max read timestamp.
    pub(crate) type ChainImage = (Vec<(u64, Value, u64, bool, u64)>, u64);

    /// Every chain's image, keyed by granule.
    pub(crate) type StoreImage = BTreeMap<GranuleId, ChainImage>;

    pub(crate) fn chain_image(c: &VersionChain) -> ChainImage {
        let versions = c
            .versions()
            .iter()
            .map(|v| {
                let value = (*v.value).clone();
                (v.ts.raw(), value, v.writer.0, v.committed, v.rts.raw())
            })
            .collect();
        (versions, c.max_rts.raw())
    }

    /// The image of every chain in `store`.
    pub(crate) fn image(store: &MvStore) -> StoreImage {
        let mut out = BTreeMap::new();
        store.for_each_chain(&mut |g, c| {
            out.insert(g, chain_image(c));
        });
        out
    }

    /// The same operations as [`MvStore`] over one plain map, with the
    /// GC sweep visiting every chain (the behaviour the sweep list must
    /// reproduce).
    #[derive(Default)]
    pub(crate) struct FullSweepStore {
        chains: BTreeMap<GranuleId, VersionChain>,
    }

    impl FullSweepStore {
        pub(crate) fn seed(&mut self, g: GranuleId, value: Value) {
            self.chains.insert(g, VersionChain::seeded(value));
        }

        pub(crate) fn with_chain<R>(
            &mut self,
            g: GranuleId,
            f: impl FnOnce(&mut VersionChain) -> R,
        ) -> R {
            f(self
                .chains
                .entry(g)
                .or_insert_with(|| VersionChain::seeded(Value::Absent)))
        }

        pub(crate) fn commit_writes(&mut self, writer: TxnId, write_set: &[GranuleId]) {
            for &g in write_set {
                self.with_chain(g, |c| c.commit_writer(writer));
            }
        }

        pub(crate) fn abort_writes(&mut self, writer: TxnId, write_set: &[GranuleId]) {
            for &g in write_set {
                self.with_chain(g, |c| c.remove_writer_pending(writer));
            }
        }

        pub(crate) fn put_versions(&mut self, batch: &[VersionRecord]) {
            for r in batch {
                self.with_chain(r.granule, |c| {
                    c.remove_version_at(r.ts);
                    c.install(r.ts, Arc::clone(&r.value), r.writer, true);
                });
            }
        }

        pub(crate) fn prune_before(&mut self, wm: Timestamp) -> usize {
            self.chains.values_mut().map(|c| c.prune_before(wm)).sum()
        }

        pub(crate) fn version_count(&self) -> usize {
            self.chains.values().map(VersionChain::len).sum()
        }

        pub(crate) fn image(&self) -> StoreImage {
            self.chains
                .iter()
                .map(|(g, c)| (*g, chain_image(c)))
                .collect()
        }
    }

    /// Panics unless every shard's sweep list is exact: no granule is
    /// listed twice, a granule is listed iff its slot is `queued`, and
    /// every chain holding more than one version is listed.
    pub(crate) fn assert_sweep_lists_exact(store: &MvStore) {
        for shard in &store.shards {
            let shard = shard.lock();
            let mut listed = HashSet::new();
            for g in &shard.sweep {
                assert!(listed.insert(*g), "{g:?} listed twice");
            }
            for (g, slot) in &shard.chains {
                assert_eq!(slot.queued, listed.contains(g), "{g:?}: flag vs list");
                assert!(
                    slot.chain.len() <= 1 || slot.queued,
                    "{g:?} holds {} versions but is not listed",
                    slot.chain.len()
                );
            }
            assert_eq!(listed.len(), shard.sweep.len());
            assert!(listed.iter().all(|g| shard.chains.contains_key(g)));
        }
    }

    /// A tiny deterministic generator (splitmix64), so the randomized
    /// tests need no dependency and replay from their seed.
    pub(crate) struct SplitMix(pub(crate) u64);

    impl SplitMix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::MvtoWriteResult;
    use std::sync::Arc;
    use txn_model::SegmentId;

    fn g(seg: u32, key: u64) -> GranuleId {
        GranuleId::new(SegmentId(seg), key)
    }

    #[test]
    fn seed_and_read_back() {
        let s = MvStore::new();
        s.seed(g(0, 1), Value::Int(100));
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(100));
        assert_eq!(s.latest_value(g(0, 2)), Value::Absent);
        assert_eq!(s.granule_count(), 2); // touch created the second chain
    }

    #[test]
    fn commit_and_abort_sweeps() {
        let s = MvStore::new();
        let gs = [g(0, 1), g(0, 2)];
        for &gr in &gs {
            s.with_chain(gr, |c| {
                c.mvto_write(Timestamp(5), Arc::new(Value::Int(5)), TxnId(7));
            });
        }
        s.commit_writes(TxnId(7), &gs);
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(5));

        for &gr in &gs {
            s.with_chain(gr, |c| {
                c.mvto_write(Timestamp(8), Arc::new(Value::Int(8)), TxnId(9));
            });
        }
        s.abort_writes(TxnId(9), &gs);
        assert_eq!(s.latest_value(g(0, 1)), Value::Int(5));
    }

    #[test]
    fn gc_across_granules() {
        let s = MvStore::new();
        for key in 0..10 {
            s.seed(g(0, key), Value::Int(0));
            for ts in 1..5u64 {
                s.with_chain(g(0, key), |c| {
                    c.mvto_write(Timestamp(ts), Arc::new(Value::Int(ts as i64)), TxnId(ts));
                    c.commit_writer(TxnId(ts));
                });
            }
        }
        assert_eq!(s.version_count(), 50);
        assert_eq!(s.max_chain_len(), 5);
        let reclaimed = s.prune_before(Timestamp(4));
        // Per granule: versions {0,1,2,3,4}; keep ts=3 (latest <4) and 4.
        assert_eq!(reclaimed, 30);
        assert_eq!(s.version_count(), 20);
        assert_eq!(s.max_chain_len(), 2, "GC flattens the deepest chain");
        assert_eq!(MvStore::new().max_chain_len(), 0);
    }

    fn listed(s: &MvStore) -> usize {
        s.shards.iter().map(|sh| sh.lock().sweep.len()).sum()
    }

    #[test]
    fn sweep_list_tracks_multi_version_chains_only() {
        let s = MvStore::new();
        for key in 0..100 {
            s.seed(g(0, key), Value::Int(0));
        }
        assert_eq!(listed(&s), 0, "single-version chains are never listed");
        let write = |key: u64, ts: u64| {
            s.with_chain(g(0, key), |c| {
                c.mvto_write(Timestamp(ts), Arc::new(Value::Int(ts as i64)), TxnId(ts));
                c.commit_writer(TxnId(ts));
            });
        };
        write(3, 5);
        write(3, 6);
        write(4, 7);
        assert_eq!(listed(&s), 2, "each granule listed once");
        // Re-seeding a listed granule leaves it listed once; writing it
        // again must not list it a second time.
        s.seed(g(0, 3), Value::Int(1));
        reference::assert_sweep_lists_exact(&s);
        write(3, 8);
        assert_eq!(listed(&s), 2);
        reference::assert_sweep_lists_exact(&s);
        // A sweep that flattens a chain drops it from the list; one
        // that cannot (pending version above the snapshot) keeps it.
        s.with_chain(g(0, 4), |c| {
            c.mvto_write(Timestamp(9), Arc::new(Value::Int(9)), TxnId(9));
        });
        assert_eq!(s.prune_before(Timestamp(100)), 2);
        assert_eq!(listed(&s), 1, "g(0,4) still holds a pending version");
        reference::assert_sweep_lists_exact(&s);
        s.commit_writes(TxnId(9), &[g(0, 4)]);
        assert_eq!(s.prune_before(Timestamp(100)), 1);
        assert_eq!(listed(&s), 0);
        assert_eq!(s.version_count(), 100);
    }

    /// The GC equivalence check: a seeded random sequence of `seed`,
    /// protocol writes and reads, commit, abort, `put_versions` and
    /// `prune_before` against the sweep-list store and the full-sweep
    /// reference must reclaim the same counts and leave every chain
    /// equal after each step.
    #[test]
    fn sweep_list_gc_matches_full_sweep() {
        use crate::backend::{StorageBackend, VersionRecord};
        use reference::{assert_sweep_lists_exact, image, FullSweepStore, SplitMix};
        for seed in 0..24u64 {
            let mut rng = SplitMix(seed);
            let s = MvStore::new();
            let mut r = FullSweepStore::default();
            let mut next_ts = 1u64;
            let mut live: Vec<(u64, Vec<GranuleId>)> = Vec::new();
            for step in 0..1500 {
                let gr = g(rng.below(3) as u32, rng.below(6));
                let op = rng.below(100);
                match op {
                    0..=4 => {
                        let v = Value::Int(op as i64);
                        s.seed(gr, v.clone());
                        r.seed(gr, v);
                    }
                    5..=39 => {
                        if live.is_empty() || rng.below(3) == 0 {
                            live.push((next_ts, Vec::new()));
                            next_ts += 1;
                        }
                        let i = rng.below(live.len() as u64) as usize;
                        let (ts, ws) = &mut live[i];
                        let write = |c: &mut VersionChain| {
                            let v = Arc::new(Value::Int(step));
                            c.mvto_write(Timestamp(*ts), v, TxnId(*ts))
                        };
                        let got = s.with_chain(gr, write);
                        assert_eq!(got, r.with_chain(gr, write));
                        if got == MvtoWriteResult::Installed && !ws.contains(&gr) {
                            ws.push(gr);
                        }
                    }
                    40..=49 => {
                        let ts = Timestamp(rng.below(next_ts + 1));
                        let got = s.with_chain(gr, |c| c.mvto_read(ts));
                        assert_eq!(got, r.with_chain(gr, |c| c.mvto_read(ts)));
                    }
                    50..=72 if !live.is_empty() => {
                        let (ts, ws) = live.swap_remove(rng.below(live.len() as u64) as usize);
                        if op < 65 {
                            s.commit_writes(TxnId(ts), &ws);
                            r.commit_writes(TxnId(ts), &ws);
                        } else {
                            s.abort_writes(TxnId(ts), &ws);
                            r.abort_writes(TxnId(ts), &ws);
                        }
                    }
                    73..=82 => {
                        let batch: Vec<VersionRecord> = (0..=rng.below(3))
                            .map(|_| {
                                let ts = if rng.below(2) == 0 {
                                    next_ts += 1;
                                    next_ts - 1
                                } else {
                                    rng.below(next_ts)
                                };
                                VersionRecord {
                                    granule: g(rng.below(3) as u32, rng.below(6)),
                                    ts: Timestamp(ts),
                                    value: Arc::new(Value::Int(-(ts as i64))),
                                    writer: TxnId(ts),
                                }
                            })
                            .collect();
                        StorageBackend::put_versions(&s, &batch);
                        r.put_versions(&batch);
                    }
                    _ => {
                        let wm = Timestamp(rng.below(next_ts + 1));
                        assert_eq!(
                            s.prune_before(wm),
                            r.prune_before(wm),
                            "seed {seed} step {step}: reclaimed counts differ"
                        );
                    }
                }
                assert_eq!(
                    s.version_count(),
                    r.version_count(),
                    "seed {seed} step {step}"
                );
                assert_eq!(image(&s), r.image(), "seed {seed} step {step}");
                assert_sweep_lists_exact(&s);
            }
        }
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let s = Arc::new(MvStore::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for k in 0..100 {
                    s.with_chain(g(0, k % 10), |c| {
                        c.install(
                            Timestamp(t * 1000 + k + 1),
                            Arc::new(Value::Int(1)),
                            TxnId(t + 1),
                            true,
                        );
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.version_count(), 8 * 100 + 10); // + seeds
    }
}
