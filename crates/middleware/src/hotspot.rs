//! Hotspot footprint: per-record statistics powering the high-contention
//! optimizations (paper §IV-C).
//!
//! For each hot record `r` the footprint maintains the four fields the paper
//! defines:
//!
//! * `w_lat(r)`  — weighted average latency of subtransactions completing
//!   operations on `r` (updated with Eq. 4),
//! * `t_cnt(r)`  — total number of transactions that have accessed `r`,
//! * `c_cnt(r)`  — number of committed transactions that accessed `r`,
//! * `a_cnt(r)`  — number of transactions currently accessing `r`.
//!
//! Records live in a hash map (every lookup is a point lookup, one probe
//! each) and an LRU queue evicts cold records so memory stays bounded.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::time::Duration;

use geotp_simrt::hash::FxHashMap;

use crate::ops::GlobalKey;

/// Statistics for one hot record.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HotRecordStats {
    /// Weighted average completion latency attributed to this record (seconds).
    pub w_lat: f64,
    /// Total transactions that accessed the record.
    pub t_cnt: u64,
    /// Committed transactions that accessed the record.
    pub c_cnt: u64,
    /// Transactions currently accessing the record.
    pub a_cnt: u64,
    /// Monotonic touch counter used for LRU eviction.
    last_touch: u64,
}

impl HotRecordStats {
    fn new(touch: u64) -> Self {
        Self {
            w_lat: 0.0,
            t_cnt: 0,
            c_cnt: 0,
            a_cnt: 0,
            last_touch: touch,
        }
    }

    /// The success ratio `c_cnt / t_cnt`, defaulting to 1 when unknown.
    pub fn success_ratio(&self) -> f64 {
        if self.t_cnt == 0 {
            1.0
        } else {
            self.c_cnt as f64 / self.t_cnt as f64
        }
    }
}

/// Configuration of the hotspot footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotConfig {
    /// Maximum number of records tracked before LRU eviction kicks in.
    pub capacity: usize,
    /// EWMA coefficient `α` of Eq. 4 (weight of the previous estimate).
    pub alpha: f64,
    /// Scale-down factor applied to forecasts before they feed the scheduler
    /// (the paper suggests scaling predictions down when they prove
    /// inaccurate, §IV-C).
    pub forecast_scale: f64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            capacity: 10_000,
            alpha: 0.7,
            forecast_scale: 1.0,
        }
    }
}

/// The hotspot footprint table.
pub struct HotspotFootprint {
    config: HotspotConfig,
    records: FxHashMap<GlobalKey, HotRecordStats>,
    /// LRU queue of `(key, touch)` entries, one per touch. An entry is stale
    /// once its record has been touched again (or evicted and re-inserted,
    /// which also stamps a later touch); stale entries are skipped on
    /// eviction.
    lru: VecDeque<(GlobalKey, u64)>,
    touch_counter: u64,
    evictions: u64,
    /// Reusable buffer for [`HotspotFootprint::on_subtxn_feedback`].
    feedback_scratch: Vec<f64>,
}

impl HotspotFootprint {
    /// Create a footprint with the given configuration.
    pub fn new(config: HotspotConfig) -> Self {
        Self {
            config,
            records: FxHashMap::default(),
            lru: VecDeque::new(),
            touch_counter: 0,
            evictions: 0,
            feedback_scratch: Vec::new(),
        }
    }

    /// Create a footprint with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(HotspotConfig::default())
    }

    /// Number of records currently tracked.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are tracked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of LRU evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Snapshot of a record's statistics.
    pub fn stats(&self, key: GlobalKey) -> Option<HotRecordStats> {
        self.records.get(&key).copied()
    }

    /// Bump the touch clock for `key` and apply `f` to its stats entry
    /// (creating it first if needed) — one hash probe per call.
    fn touch_with(&mut self, key: GlobalKey, f: impl FnOnce(&mut HotRecordStats)) {
        self.touch_counter += 1;
        let touch = self.touch_counter;
        let before = self.records.len();
        let entry = self
            .records
            .entry(key)
            .or_insert_with(|| HotRecordStats::new(touch));
        entry.last_touch = touch;
        f(entry);
        let inserted = self.records.len() != before;
        self.lru.push_back((key, touch));
        if inserted {
            self.maybe_evict();
        }
    }

    fn maybe_evict(&mut self) {
        while self.records.len() > self.config.capacity {
            let Some((candidate, touch)) = self.lru.pop_front() else {
                return;
            };
            // Evict only if this LRU entry is the record's latest touch and
            // nothing is currently accessing it. A record that was evicted
            // and re-inserted since carries a later touch, so its old entries
            // fail the check.
            if let Entry::Occupied(slot) = self.records.entry(candidate) {
                let stats = slot.get();
                if stats.last_touch == touch && stats.a_cnt == 0 {
                    slot.remove();
                    self.evictions += 1;
                }
            }
        }
    }

    /// Register that a transaction is about to access `keys`
    /// (increments `t_cnt` and `a_cnt`).
    pub fn on_access_start(&mut self, keys: &[GlobalKey]) {
        for key in keys {
            self.touch_with(*key, |entry| {
                entry.t_cnt += 1;
                entry.a_cnt += 1;
            });
        }
    }

    /// Feedback after one subtransaction completes: distribute its measured
    /// local execution latency across the records it accessed using the
    /// weighted-average update of Eq. 4.
    pub fn on_subtxn_feedback(&mut self, keys: &[GlobalKey], local_execution_latency: Duration) {
        if keys.is_empty() {
            return;
        }
        let lel = local_execution_latency.as_secs_f64();
        // Weight w_r = w_lat(r) / Σ w_lat(r_k); fall back to an even split when
        // no history exists yet. The per-key latencies are gathered once into
        // a reusable scratch buffer so each key costs one lookup for the sum
        // and one upsert for the update.
        let mut lats = std::mem::take(&mut self.feedback_scratch);
        lats.clear();
        lats.extend(
            keys.iter()
                .map(|k| self.records.get(k).map(|s| s.w_lat).unwrap_or(0.0)),
        );
        let sum: f64 = lats.iter().sum();
        let alpha = self.config.alpha;
        for (key, w_lat) in keys.iter().zip(&lats) {
            let weight = if sum > 0.0 {
                w_lat / sum
            } else {
                1.0 / keys.len() as f64
            };
            let observed = lel * weight;
            self.touch_with(*key, |entry| {
                if entry.w_lat == 0.0 {
                    entry.w_lat = observed;
                } else {
                    entry.w_lat = alpha * entry.w_lat + (1.0 - alpha) * observed;
                }
            });
        }
        self.feedback_scratch = lats;
    }

    /// A transaction finished (committed or aborted): decrement `a_cnt` and,
    /// on commit, increment `c_cnt` for every record it accessed.
    pub fn on_txn_finish(&mut self, keys: &[GlobalKey], committed: bool) {
        for key in keys {
            if let Some(entry) = self.records.get_mut(key) {
                entry.a_cnt = entry.a_cnt.saturating_sub(1);
                if committed {
                    entry.c_cnt += 1;
                }
            }
        }
    }

    /// Eq. 5: forecast the local execution latency of a subtransaction that
    /// will access `keys` by summing the per-record weighted latencies.
    pub fn forecast_local_latency(&self, keys: &[GlobalKey]) -> Duration {
        let total: f64 = keys
            .iter()
            .map(|k| self.records.get(k).map(|s| s.w_lat).unwrap_or(0.0))
            .sum();
        Duration::from_secs_f64((total * self.config.forecast_scale).max(0.0))
    }

    /// Eq. 9: predicted probability that a transaction accessing `keys` will
    /// successfully acquire all its locks (1 − abort rate).
    pub fn success_probability(&self, keys: &[GlobalKey]) -> f64 {
        let mut p = 1.0;
        for key in keys {
            if let Some(stats) = self.records.get(key) {
                let queue = stats.a_cnt.saturating_sub(1);
                if queue > 0 {
                    p *= stats.success_ratio().powi(queue as i32);
                }
            }
        }
        p
    }

    /// Eq. 9 as stated in the paper: the predicted abort rate.
    pub fn abort_probability(&self, keys: &[GlobalKey]) -> f64 {
        1.0 - self.success_probability(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotp_storage::TableId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn gk(row: u64) -> GlobalKey {
        GlobalKey::new(TableId(0), row)
    }

    #[test]
    fn access_lifecycle_updates_counters() {
        let mut fp = HotspotFootprint::with_defaults();
        fp.on_access_start(&[gk(1), gk(2)]);
        fp.on_access_start(&[gk(1)]);
        let s1 = fp.stats(gk(1)).unwrap();
        assert_eq!((s1.t_cnt, s1.a_cnt, s1.c_cnt), (2, 2, 0));
        fp.on_txn_finish(&[gk(1)], true);
        fp.on_txn_finish(&[gk(1), gk(2)], false);
        let s1 = fp.stats(gk(1)).unwrap();
        assert_eq!((s1.t_cnt, s1.a_cnt, s1.c_cnt), (2, 0, 1));
        let s2 = fp.stats(gk(2)).unwrap();
        assert_eq!((s2.t_cnt, s2.a_cnt, s2.c_cnt), (1, 0, 0));
    }

    #[test]
    fn feedback_builds_latency_forecast() {
        let mut fp = HotspotFootprint::with_defaults();
        let keys = [gk(1), gk(2)];
        // First observation splits evenly: 5ms each.
        fp.on_subtxn_feedback(&keys, Duration::from_millis(10));
        let forecast = fp.forecast_local_latency(&keys);
        assert_eq!(forecast, Duration::from_millis(10));
        // Repeated identical observations keep the forecast stable.
        for _ in 0..10 {
            fp.on_subtxn_feedback(&keys, Duration::from_millis(10));
        }
        let forecast = fp.forecast_local_latency(&keys);
        assert!((forecast.as_secs_f64() - 0.010).abs() < 1e-6);
        // A key with no history contributes nothing.
        assert_eq!(fp.forecast_local_latency(&[gk(99)]), Duration::ZERO);
    }

    #[test]
    fn forecast_scale_reduces_prediction() {
        let mut fp = HotspotFootprint::new(HotspotConfig {
            forecast_scale: 0.5,
            ..HotspotConfig::default()
        });
        fp.on_subtxn_feedback(&[gk(1)], Duration::from_millis(20));
        assert_eq!(
            fp.forecast_local_latency(&[gk(1)]),
            Duration::from_millis(10)
        );
    }

    #[test]
    fn abort_probability_follows_eq9() {
        let mut fp = HotspotFootprint::with_defaults();
        // Build history: 10 accesses, 5 commits on record 1.
        for _ in 0..10 {
            fp.on_access_start(&[gk(1)]);
        }
        for i in 0..10 {
            fp.on_txn_finish(&[gk(1)], i < 5);
        }
        // No one is currently accessing the record: abort probability is 0.
        assert!(fp.abort_probability(&[gk(1)]).abs() < 1e-9);

        // Three concurrent accessors: queue length for a newcomer is a_cnt-1=2.
        fp.on_access_start(&[gk(1)]);
        fp.on_access_start(&[gk(1)]);
        fp.on_access_start(&[gk(1)]);
        let stats = fp.stats(gk(1)).unwrap();
        assert_eq!(stats.a_cnt, 3);
        // success ratio is now 5/13 (t_cnt grew to 13).
        let expected_success = (5.0f64 / 13.0).powi(2);
        assert!((fp.success_probability(&[gk(1)]) - expected_success).abs() < 1e-9);
        assert!((fp.abort_probability(&[gk(1)]) - (1.0 - expected_success)).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_bounds_memory() {
        let mut fp = HotspotFootprint::new(HotspotConfig {
            capacity: 100,
            ..HotspotConfig::default()
        });
        for i in 0..1000 {
            fp.on_access_start(&[gk(i)]);
            fp.on_txn_finish(&[gk(i)], true);
        }
        assert!(fp.len() <= 100, "len {} exceeds capacity", fp.len());
        assert!(fp.evictions() >= 900);
        // The most recently touched record is still present.
        assert!(fp.stats(gk(999)).is_some());
    }

    #[test]
    fn records_in_use_are_not_evicted() {
        let mut fp = HotspotFootprint::new(HotspotConfig {
            capacity: 10,
            ..HotspotConfig::default()
        });
        fp.on_access_start(&[gk(0)]); // stays in use
        for i in 1..500 {
            fp.on_access_start(&[gk(i)]);
            fp.on_txn_finish(&[gk(i)], true);
        }
        assert!(
            fp.stats(gk(0)).is_some(),
            "in-use record must survive eviction"
        );
    }

    /// Reference footprint with the eviction rule spelled out through
    /// record incarnations: an LRU entry may evict its record only if the
    /// record was not evicted and re-inserted since the entry was queued,
    /// the entry is the record's latest touch, and nothing is accessing it.
    struct ReferenceFootprint {
        config: HotspotConfig,
        records: BTreeMap<GlobalKey, (HotRecordStats, u64)>,
        lru: VecDeque<(GlobalKey, u64, u64)>,
        touch_counter: u64,
        incarnations: u64,
        evictions: u64,
    }

    impl ReferenceFootprint {
        fn new(config: HotspotConfig) -> Self {
            Self {
                config,
                records: BTreeMap::new(),
                lru: VecDeque::new(),
                touch_counter: 0,
                incarnations: 0,
                evictions: 0,
            }
        }

        fn touch_with(&mut self, key: GlobalKey, f: impl FnOnce(&mut HotRecordStats)) {
            self.touch_counter += 1;
            let touch = self.touch_counter;
            let inserted = !self.records.contains_key(&key);
            if inserted {
                self.incarnations += 1;
                let fresh = (HotRecordStats::new(touch), self.incarnations);
                self.records.insert(key, fresh);
            }
            let (stats, incarnation) = self.records.get_mut(&key).unwrap();
            stats.last_touch = touch;
            f(stats);
            self.lru.push_back((key, touch, *incarnation));
            while inserted && self.records.len() > self.config.capacity {
                let Some((k, t, i)) = self.lru.pop_front() else {
                    break;
                };
                let evict = self
                    .records
                    .get(&k)
                    .is_some_and(|(s, inc)| *inc == i && s.last_touch == t && s.a_cnt == 0);
                if evict {
                    self.records.remove(&k);
                    self.evictions += 1;
                }
            }
        }

        fn w_lat(&self, key: &GlobalKey) -> f64 {
            self.records.get(key).map_or(0.0, |(s, _)| s.w_lat)
        }

        fn on_access_start(&mut self, keys: &[GlobalKey]) {
            for key in keys {
                self.touch_with(*key, |s| {
                    s.t_cnt += 1;
                    s.a_cnt += 1;
                });
            }
        }

        fn on_subtxn_feedback(&mut self, keys: &[GlobalKey], lel: Duration) {
            let lats: Vec<f64> = keys.iter().map(|k| self.w_lat(k)).collect();
            let sum: f64 = lats.iter().sum();
            let alpha = self.config.alpha;
            for (key, w_lat) in keys.iter().zip(&lats) {
                let weight = if sum > 0.0 {
                    w_lat / sum
                } else {
                    1.0 / keys.len() as f64
                };
                let observed = lel.as_secs_f64() * weight;
                self.touch_with(*key, |s| {
                    s.w_lat = if s.w_lat == 0.0 {
                        observed
                    } else {
                        alpha * s.w_lat + (1.0 - alpha) * observed
                    };
                });
            }
        }

        fn on_txn_finish(&mut self, keys: &[GlobalKey], committed: bool) {
            for key in keys {
                if let Some((s, _)) = self.records.get_mut(key) {
                    s.a_cnt = s.a_cnt.saturating_sub(1);
                    s.c_cnt += u64::from(committed);
                }
            }
        }

        fn forecast_local_latency(&self, keys: &[GlobalKey]) -> Duration {
            let total: f64 = keys.iter().map(|k| self.w_lat(k)).sum();
            Duration::from_secs_f64((total * self.config.forecast_scale).max(0.0))
        }

        fn success_probability(&self, keys: &[GlobalKey]) -> f64 {
            let mut p = 1.0;
            for (s, _) in keys.iter().filter_map(|k| self.records.get(k)) {
                let queue = s.a_cnt.saturating_sub(1);
                if queue > 0 {
                    p *= s.success_ratio().powi(queue as i32);
                }
            }
            p
        }
    }

    #[test]
    fn hashed_footprint_matches_the_reference_model() {
        const KEYS: u64 = 200;
        const OPS: usize = 300;
        for capacity in [1usize, 4, 64] {
            for seed in 0..32u64 {
                let config = HotspotConfig {
                    capacity,
                    forecast_scale: 0.8,
                    ..HotspotConfig::default()
                };
                let mut fp = HotspotFootprint::new(config);
                let mut reference = ReferenceFootprint::new(config);
                let mut rng = StdRng::seed_from_u64(seed);
                // Key sets of transactions that started and have not finished.
                let mut active: Vec<Vec<GlobalKey>> = Vec::new();
                for op in 0..OPS {
                    // Skewed key sets (duplicates allowed): a few hot keys are
                    // touched again and again while cold keys churn the LRU.
                    let n = rng.gen_range(1..5usize);
                    let keys: Vec<GlobalKey> = (0..n)
                        .map(|_| {
                            gk(if rng.gen_bool(0.6) {
                                rng.gen_range(0..8u64)
                            } else {
                                rng.gen_range(0..KEYS)
                            })
                        })
                        .collect();
                    match rng.gen_range(0..100u32) {
                        0..=39 => {
                            fp.on_access_start(&keys);
                            reference.on_access_start(&keys);
                            active.push(keys.clone());
                        }
                        40..=64 => {
                            let feedback = if !active.is_empty() && rng.gen_bool(0.7) {
                                active[rng.gen_range(0..active.len())].clone()
                            } else {
                                keys.clone()
                            };
                            let lel = Duration::from_micros(rng.gen_range(0..50_000u64));
                            fp.on_subtxn_feedback(&feedback, lel);
                            reference.on_subtxn_feedback(&feedback, lel);
                        }
                        _ => {
                            // Mostly finish a started transaction; sometimes
                            // finish keys that were never started.
                            let finished = if !active.is_empty() && rng.gen_bool(0.9) {
                                active.swap_remove(rng.gen_range(0..active.len()))
                            } else {
                                keys.clone()
                            };
                            let committed = rng.gen_bool(0.7);
                            fp.on_txn_finish(&finished, committed);
                            reference.on_txn_finish(&finished, committed);
                        }
                    }
                    let step = format!("capacity {capacity} seed {seed} op {op}");
                    assert_eq!(fp.len(), reference.records.len(), "{step}: len");
                    assert_eq!(fp.evictions(), reference.evictions, "{step}: evictions");
                    for row in 0..KEYS {
                        let expected = reference.records.get(&gk(row)).map(|(s, _)| *s);
                        assert_eq!(fp.stats(gk(row)), expected, "{step}: stats({row})");
                    }
                    assert_eq!(
                        fp.forecast_local_latency(&keys),
                        reference.forecast_local_latency(&keys),
                        "{step}: forecast"
                    );
                    assert_eq!(
                        fp.success_probability(&keys),
                        reference.success_probability(&keys),
                        "{step}: success probability"
                    );
                }
            }
        }
    }
}
