//! Multi-version storage: per-key version chains stamped with virtual-time
//! commit timestamps.
//!
//! The version store sits beside the record store. Writers still go through
//! strict 2PL and mutate the records map; at commit, [`StorageEngine`]
//! installs one [`ChainVersion`] per written key, all stamped with the same
//! commit instant. Snapshot readers never consult the records map (it holds
//! uncommitted writer data) — they resolve against the chain, visible-as-of
//! their snapshot timestamp, and acquire **no locks**.
//!
//! Garbage collection prunes chain prefixes no open snapshot can reach: for
//! each key, every version strictly older than the newest version visible at
//! the oldest open snapshot is dead. A single-version chain has nothing to
//! prune, so the store keeps a list of the keys whose chain holds more than
//! one version and a GC pass visits only those: its cost follows the number
//! of multi-version chains, not the table size. GC is triggered
//! deterministically (an install-count stride plus every snapshot close), so
//! replays stay bit-identical.
//!
//! [`StorageEngine`]: crate::engine::StorageEngine

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;

use crate::row::Row;
use crate::types::Key;

/// One committed version of one key.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainVersion {
    /// Monotonic per-key version number (v0 = bulk load), shared with the
    /// history recorder's numbering so the serializability checker sees one
    /// consistent version space.
    pub version: u64,
    /// Commit timestamp in virtual microseconds (0 for bulk-loaded rows).
    pub commit_ts: u64,
    /// The committed value (`None` = tombstone: the key was deleted).
    pub row: Option<Row>,
    /// FNV-1a fingerprint of the value (tombstone fingerprint for deletes).
    pub fingerprint: u64,
}

/// Version-store counters (GC effectiveness, chain growth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Versions installed by committed branches (excludes bulk load).
    pub versions_installed: u64,
    /// Versions reclaimed by garbage collection.
    pub versions_gced: u64,
    /// Number of GC passes run.
    pub gc_passes: u64,
    /// Chains examined by GC passes (each pass visits the multi-version
    /// chains only, so this does not grow with single-version keys).
    pub gc_chains_visited: u64,
}

/// Run a GC pass after this many installs (bounds chain growth between
/// snapshot closes; deterministic, so replay fingerprints are unaffected).
const GC_INSTALL_STRIDE: u64 = 64;

/// Per-key version chains plus the open-snapshot registry that bounds GC.
#[derive(Debug, Default)]
pub struct VersionStore {
    chains: RefCell<FxHashMap<Key, Vec<ChainVersion>>>,
    /// Keys whose chain holds more than one version, each once, in the order
    /// their chain last grew past one version: the only chains GC can prune.
    multi_version: RefCell<Vec<Key>>,
    /// Open snapshot timestamps → refcount (several branches may pin the
    /// same virtual instant).
    open_snapshots: RefCell<BTreeMap<u64, u64>>,
    installs_since_gc: Cell<u64>,
    stats: Cell<MvccStats>,
}

impl VersionStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for `additional` more chains before a bulk load.
    pub(crate) fn reserve(&self, additional: usize) {
        self.chains.borrow_mut().reserve(additional);
    }

    /// Install the bulk-loaded version 0 of a key (no GC accounting: load
    /// happens before any snapshot opens).
    pub fn load(&self, key: Key, row: Row, fingerprint: u64) {
        let replaced = self.chains.borrow_mut().insert(
            key,
            vec![ChainVersion {
                version: 0,
                commit_ts: 0,
                row: Some(row),
                fingerprint,
            }],
        );
        if replaced.is_some_and(|chain| chain.len() > 1) {
            self.multi_version.borrow_mut().retain(|k| *k != key);
        }
    }

    /// Append a committed version to a key's chain. The caller stamps every
    /// key of one commit with the same `commit_ts`, making the commit atomic
    /// in snapshot space.
    pub fn install(
        &self,
        key: Key,
        version: u64,
        commit_ts: u64,
        row: Option<Row>,
        fingerprint: u64,
    ) {
        let mut chains = self.chains.borrow_mut();
        let chain = chains.entry(key).or_default();
        chain.push(ChainVersion {
            version,
            commit_ts,
            row,
            fingerprint,
        });
        let len = chain.len();
        drop(chains);
        if len == 2 {
            self.multi_version.borrow_mut().push(key);
        }
        geotp_telemetry::observe(
            "storage.version_chain_len",
            "",
            0,
            Duration::from_micros(len as u64),
        );
        let mut stats = self.stats.get();
        stats.versions_installed += 1;
        self.stats.set(stats);
        let n = self.installs_since_gc.get() + 1;
        if n >= GC_INSTALL_STRIDE {
            self.installs_since_gc.set(0);
            self.gc();
        } else {
            self.installs_since_gc.set(n);
        }
    }

    /// Apply `f` to the newest version with `commit_ts <= ts` without
    /// cloning it, so a reader copies only the parts it needs. `None` when
    /// the key had no committed version visible at `ts`.
    pub(crate) fn visible_at<R>(
        &self,
        key: Key,
        ts: u64,
        f: impl FnOnce(&ChainVersion) -> R,
    ) -> Option<R> {
        self.chains
            .borrow()
            .get(&key)?
            .iter()
            .rev()
            .find(|v| v.commit_ts <= ts)
            .map(f)
    }

    /// The newest version with `commit_ts <= ts`, i.e. what a snapshot taken
    /// at `ts` observes. `None` when the key had no committed version yet.
    pub fn read_at(&self, key: Key, ts: u64) -> Option<ChainVersion> {
        self.visible_at(key, ts, ChainVersion::clone)
    }

    /// The newest committed version of a key (read-committed visibility).
    pub fn read_latest(&self, key: Key) -> Option<ChainVersion> {
        self.read_at(key, u64::MAX)
    }

    /// Register an open snapshot at `ts`, pinning versions it can reach
    /// against GC.
    pub fn open_snapshot(&self, ts: u64) {
        *self.open_snapshots.borrow_mut().entry(ts).or_insert(0) += 1;
    }

    /// Release one reference on the snapshot at `ts`; runs a GC pass when the
    /// snapshot fully closes (it may have been the GC horizon).
    pub fn close_snapshot(&self, ts: u64) {
        let fully_closed = {
            let mut open = self.open_snapshots.borrow_mut();
            match open.get_mut(&ts) {
                Some(count) if *count > 1 => {
                    *count -= 1;
                    false
                }
                Some(_) => {
                    open.remove(&ts);
                    true
                }
                None => false,
            }
        };
        if fully_closed {
            self.gc();
        }
    }

    /// The oldest open snapshot timestamp, if any (the GC horizon).
    pub fn oldest_open_snapshot(&self) -> Option<u64> {
        self.open_snapshots.borrow().keys().next().copied()
    }

    /// Length of a key's version chain (tests and telemetry audits).
    pub fn chain_len(&self, key: Key) -> usize {
        self.chains.borrow().get(&key).map_or(0, Vec::len)
    }

    /// Number of chains holding more than one version (the work list of the
    /// next GC pass).
    pub fn multi_version_chains(&self) -> usize {
        self.multi_version.borrow().len()
    }

    /// Version-store counters.
    pub fn stats(&self) -> MvccStats {
        self.stats.get()
    }

    /// Prune versions no open snapshot can reach: per key, everything
    /// strictly older than the newest version visible at the oldest open
    /// snapshot (or everything but the tip when no snapshot is open). Only
    /// multi-version chains are visited; a single-version chain has nothing
    /// older than its tip.
    pub fn gc(&self) {
        let horizon = self.oldest_open_snapshot().unwrap_or(u64::MAX);
        let mut reclaimed = 0u64;
        let mut chains = self.chains.borrow_mut();
        let mut multi_version = self.multi_version.borrow_mut();
        let visited = multi_version.len() as u64;
        multi_version.retain(|key| {
            let chain = chains
                .get_mut(key)
                .expect("a multi-version key has a chain");
            // Index of the newest version with commit_ts <= horizon; versions
            // before it are unreachable by any current or future snapshot.
            let keep_from = chain
                .iter()
                .rposition(|v| v.commit_ts <= horizon)
                .unwrap_or(0);
            if keep_from > 0 {
                reclaimed += keep_from as u64;
                chain.drain(..keep_from);
            }
            chain.len() > 1
        });
        drop((chains, multi_version));
        let mut stats = self.stats.get();
        stats.versions_gced += reclaimed;
        stats.gc_passes += 1;
        stats.gc_chains_visited += visited;
        self.stats.set(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TableId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn key(row: u64) -> Key {
        Key::new(TableId(0), row)
    }

    fn store_with_versions(ts_list: &[u64]) -> VersionStore {
        let store = VersionStore::new();
        store.load(key(1), Row::int(0), 1);
        for (i, ts) in ts_list.iter().enumerate() {
            store.install(key(1), (i + 1) as u64, *ts, Some(Row::int(i as i64)), 2);
        }
        store
    }

    #[test]
    fn read_at_resolves_snapshot_visibility() {
        let store = store_with_versions(&[100, 200, 300]);
        assert_eq!(store.read_at(key(1), 0).unwrap().version, 0);
        assert_eq!(store.read_at(key(1), 150).unwrap().version, 1);
        assert_eq!(store.read_at(key(1), 200).unwrap().version, 2);
        assert_eq!(store.read_at(key(1), 999).unwrap().version, 3);
        assert_eq!(store.read_latest(key(1)).unwrap().version, 3);
        assert!(store.read_at(key(9), 999).is_none());
    }

    #[test]
    fn gc_prunes_below_oldest_open_snapshot() {
        let store = store_with_versions(&[100, 200, 300]);
        store.open_snapshot(250); // sees version 2 (ts=200)
        store.gc();
        // Versions 0 (ts 0) and 1 (ts 100) are unreachable; 2 and 3 survive.
        assert_eq!(store.chain_len(key(1)), 2);
        assert_eq!(store.read_at(key(1), 250).unwrap().version, 2);
        // Closing the snapshot collapses the chain to the tip.
        store.close_snapshot(250);
        assert_eq!(store.chain_len(key(1)), 1);
        assert_eq!(store.read_latest(key(1)).unwrap().version, 3);
        assert!(store.stats().versions_gced >= 3);
    }

    #[test]
    fn snapshot_refcounts_pin_the_horizon() {
        let store = store_with_versions(&[100, 200]);
        store.open_snapshot(150);
        store.open_snapshot(150);
        store.close_snapshot(150);
        // One reference remains: version 1 (ts=100) must stay reachable.
        store.gc();
        assert_eq!(store.read_at(key(1), 150).unwrap().version, 1);
        store.close_snapshot(150);
        assert_eq!(store.chain_len(key(1)), 1);
    }

    #[test]
    fn tombstones_are_versions_too() {
        let store = store_with_versions(&[100]);
        store.install(key(1), 2, 200, None, crate::history::TOMBSTONE_FINGERPRINT);
        assert!(store.read_at(key(1), 150).unwrap().row.is_some());
        assert!(store.read_at(key(1), 250).unwrap().row.is_none());
    }

    /// Loads `table_rows` single-version keys, then runs 64 commits of two
    /// installs each over 10 hot keys, with a snapshot pinned across every
    /// 16 commits. Checks every GC pass against the multi-version chains at
    /// its start and returns the final counters.
    fn hot_commits_over(table_rows: u64) -> MvccStats {
        const HOT_KEYS: u64 = 10;
        let store = VersionStore::new();
        for row in 0..table_rows {
            store.load(key(row), Row::int(0), 0);
        }
        let mut versions = [0u64; HOT_KEYS as usize];
        let mut pinned = None;
        for commit in 0..64u64 {
            let ts = (commit + 1) * 10;
            if commit % 16 == 0 {
                store.open_snapshot(ts);
                pinned = Some(ts);
            }
            for hot in [commit % HOT_KEYS, (commit + 3) % HOT_KEYS] {
                versions[hot as usize] += 1;
                let grows_past_one = store.chain_len(key(hot)) == 1;
                let at_pass_start = store.multi_version_chains() + usize::from(grows_past_one);
                let before = store.stats();
                store.install(key(hot), versions[hot as usize], ts, Some(Row::int(1)), 1);
                assert_gc_pass_bounded(&store, before, at_pass_start);
            }
            if commit % 16 == 8 {
                let at_pass_start = store.multi_version_chains();
                let before = store.stats();
                store.close_snapshot(pinned.take().unwrap());
                assert_gc_pass_bounded(&store, before, at_pass_start);
            }
        }
        assert!(store.multi_version_chains() <= HOT_KEYS as usize);
        store.stats()
    }

    fn assert_gc_pass_bounded(store: &VersionStore, before: MvccStats, at_pass_start: usize) {
        let after = store.stats();
        if after.gc_passes > before.gc_passes {
            assert_eq!(after.gc_passes, before.gc_passes + 1);
            let visited = after.gc_chains_visited - before.gc_chains_visited;
            assert!(
                visited <= at_pass_start as u64,
                "a pass visited {visited} chains with {at_pass_start} multi-version chains"
            );
        }
    }

    #[test]
    fn gc_work_is_independent_of_single_version_keys() {
        let small = hot_commits_over(10_000);
        let large = hot_commits_over(1_000_000);
        assert_eq!(small, large);
        // Two stride passes (128 installs) plus four snapshot closes.
        assert_eq!(small.gc_passes, 6);
        assert!(small.versions_gced > 0);
        assert!(small.gc_chains_visited <= small.gc_passes * 10);
    }

    #[test]
    fn reloading_a_multi_version_key_leaves_the_gc_list() {
        let store = store_with_versions(&[100, 200]);
        assert_eq!(store.multi_version_chains(), 1);
        store.load(key(1), Row::int(7), 3);
        assert_eq!(store.multi_version_chains(), 0);
        store.install(key(1), 1, 300, Some(Row::int(8)), 4);
        assert_eq!(store.multi_version_chains(), 1);
    }

    /// The full-scan GC the incremental pass replaced: every pass walks every
    /// chain. Same triggers (install stride, full snapshot close).
    #[derive(Default)]
    struct FullScanStore {
        chains: BTreeMap<Key, Vec<ChainVersion>>,
        open_snapshots: BTreeMap<u64, u64>,
        installs_since_gc: u64,
        versions_gced: u64,
        gc_passes: u64,
    }

    impl FullScanStore {
        fn load(&mut self, key: Key, row: Row, fingerprint: u64) {
            let v0 = ChainVersion {
                version: 0,
                commit_ts: 0,
                row: Some(row),
                fingerprint,
            };
            self.chains.insert(key, vec![v0]);
        }

        fn install(&mut self, version: ChainVersion, key: Key) {
            self.chains.entry(key).or_default().push(version);
            self.installs_since_gc += 1;
            if self.installs_since_gc >= GC_INSTALL_STRIDE {
                self.installs_since_gc = 0;
                self.gc();
            }
        }

        fn close_snapshot(&mut self, ts: u64) {
            let count = self.open_snapshots.get_mut(&ts).unwrap();
            *count -= 1;
            if *count == 0 {
                self.open_snapshots.remove(&ts);
                self.gc();
            }
        }

        fn read_at(&self, key: Key, ts: u64) -> Option<&ChainVersion> {
            self.chains
                .get(&key)?
                .iter()
                .rev()
                .find(|v| v.commit_ts <= ts)
        }

        fn gc(&mut self) {
            let horizon = self
                .open_snapshots
                .keys()
                .next()
                .copied()
                .unwrap_or(u64::MAX);
            for chain in self.chains.values_mut() {
                let keep_from = chain
                    .iter()
                    .rposition(|v| v.commit_ts <= horizon)
                    .unwrap_or(0);
                self.versions_gced += keep_from as u64;
                chain.drain(..keep_from);
            }
            self.gc_passes += 1;
        }
    }

    fn assert_equivalent(store: &VersionStore, reference: &FullScanStore, keys: u64, step: &str) {
        let multi = (0..keys).filter(|k| store.chain_len(key(*k)) > 1).count();
        assert_eq!(store.multi_version_chains(), multi, "{step}: gc list");
        for k in 0..keys {
            let len = reference.chains.get(&key(k)).map_or(0, Vec::len);
            assert_eq!(store.chain_len(key(k)), len, "{step}: chain_len of key {k}");
            for ts in reference.open_snapshots.keys().chain([&u64::MAX]) {
                assert_eq!(
                    store.read_at(key(k), *ts).as_ref(),
                    reference.read_at(key(k), *ts),
                    "{step}: read_at({k}, {ts})"
                );
            }
        }
        let stats = store.stats();
        assert_eq!(
            stats.versions_gced, reference.versions_gced,
            "{step}: versions_gced"
        );
        assert_eq!(stats.gc_passes, reference.gc_passes, "{step}: gc_passes");
    }

    #[test]
    fn incremental_gc_matches_the_full_scan_reference() {
        const KEYS: u64 = 200;
        const OPS: usize = 250;
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let store = VersionStore::new();
            let mut reference = FullScanStore::default();
            // Three quarters of the keys are bulk-loaded; the rest first
            // appear through an install (a chain growing from zero).
            for k in 0..KEYS * 3 / 4 {
                store.load(key(k), Row::int(0), k);
                reference.load(key(k), Row::int(0), k);
            }
            let mut clock = 0u64;
            let mut open: Vec<u64> = Vec::new();
            for op in 0..OPS {
                clock += rng.gen_range(0..3u64);
                // Skewed key choice, so some chains grow long.
                let k = if rng.gen_bool(0.7) {
                    rng.gen_range(0..16u64)
                } else {
                    rng.gen_range(0..KEYS)
                };
                let step = format!("seed {seed} op {op}");
                match rng.gen_range(0..100u32) {
                    0..=4 => {
                        let value = rng.gen_range(0..1000i64);
                        store.load(key(k), Row::int(value), value as u64);
                        reference.load(key(k), Row::int(value), value as u64);
                    }
                    5..=59 => {
                        let next = reference.chains.get(&key(k)).and_then(|c| c.last());
                        let row = if rng.gen_bool(0.1) {
                            None
                        } else {
                            Some(Row::int(rng.gen_range(0..1000i64)))
                        };
                        let version = ChainVersion {
                            version: next.map_or(0, |v| v.version) + 1,
                            commit_ts: clock,
                            row,
                            fingerprint: rng.gen(),
                        };
                        store.install(
                            key(k),
                            version.version,
                            version.commit_ts,
                            version.row.clone(),
                            version.fingerprint,
                        );
                        reference.install(version, key(k));
                    }
                    60..=71 => {
                        store.open_snapshot(clock);
                        *reference.open_snapshots.entry(clock).or_insert(0) += 1;
                        open.push(clock);
                    }
                    72..=89 if !open.is_empty() => {
                        let ts = open.swap_remove(rng.gen_range(0..open.len()));
                        store.close_snapshot(ts);
                        reference.close_snapshot(ts);
                    }
                    _ => {
                        store.gc();
                        reference.gc();
                    }
                }
                assert_eq!(store.oldest_open_snapshot(), open.iter().min().copied());
                assert_equivalent(&store, &reference, KEYS, &step);
            }
            assert!(
                store.stats().versions_gced > 0,
                "seed {seed} never reclaimed"
            );
        }
    }
}
