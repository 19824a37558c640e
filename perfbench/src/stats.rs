//! The benchmark's arithmetic: percentiles, medians, interval unions and
//! per-transaction normalisation.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile of a sorted sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: u64,
    /// Samples ranked strictly above it.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the percentile,
    /// the condition for reporting it.
    pub fn supported(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The `per_mille`/1000 percentile of `sorted` (ascending) by the
/// nearest-rank rule: the sample at 1-based rank `ceil(n * per_mille / 1000)`.
/// Integer arithmetic keeps the rank exact (`0.999 * n` in floating point
/// can round up past it). `None` for an empty sample.
pub fn percentile(sorted: &[u64], per_mille: u64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || per_mille == 0 {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let rank = ((n as u64 * per_mille).div_ceil(1000) as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// Interquartile mean of `sorted` (ascending): the mean of the samples that
/// remain when the lowest and the highest quarter (`n / 4` each) are cut.
/// Unlike the median, it moves in proportion when the weights of two
/// latency modes shift, instead of jumping from one mode to the other once
/// one of them holds half the samples. `None` for an empty sample.
pub fn interquartile_mean(sorted: &[u64]) -> Option<f64> {
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    if middle.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    Some(middle.iter().sum::<u64>() as f64 / middle.len() as f64)
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `count` per committed transaction. A run with no commits has no
/// per-transaction figures, so this returns 0 for it (the caller's
/// correctness gate refuses such a run).
pub fn per_txn(count: f64, committed: u64) -> f64 {
    if committed == 0 {
        0.0
    } else {
        count / committed as f64
    }
}

/// Total length of the union of half-open intervals `[start, end)`, each
/// clipped to `[lo, hi)`.
pub fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that the union of its children covers.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - union_within(children, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        let p50 = percentile(&sample, 500).unwrap();
        assert_eq!((p50.value, p50.beyond), (50, 50));
        let p99 = percentile(&sample, 990).unwrap();
        assert_eq!((p99.value, p99.beyond), (99, 1));
        let p999 = percentile(&sample, 999).unwrap();
        assert_eq!((p999.value, p999.beyond), (100, 0));
        assert_eq!(percentile(&[7], 500).unwrap().value, 7);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        // 10 000 samples leave exactly 10 beyond rank 9 990.
        let enough: Vec<u64> = (0..10_000).collect();
        let p = percentile(&enough, 999).unwrap();
        assert_eq!((p.value, p.beyond), (9_989, 10));
        assert!(p.supported());
        // One sample fewer: rank 9 990 of 9 999 leaves only 9 beyond.
        let short: Vec<u64> = (0..9_999).collect();
        let p = percentile(&short, 999).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.supported());
        // The same rule applied to p99 needs only 1 000 samples.
        let p99 = percentile(&enough[..1_000], 990).unwrap();
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());
    }

    #[test]
    fn interquartile_mean_cuts_a_quarter_from_each_end() {
        // 8 samples: the middle half is 3, 4, 5, 6.
        let sample: Vec<u64> = (1..=8).collect();
        assert_eq!(interquartile_mean(&sample), Some(4.5));
        // The tails do not reach it.
        assert_eq!(interquartile_mean(&[0, 3, 4, 5, 6, 1_000_000]), Some(4.5));
        assert_eq!(interquartile_mean(&[7]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn interquartile_mean_follows_two_modes_smoothly() {
        // Two latency modes split 50/50, then 49/51: the median jumps from
        // one mode to the other, the interquartile mean moves by 2 %.
        let mode = |low: usize| -> Vec<u64> {
            let mut v = vec![100; low];
            v.extend(vec![500; 100 - low]);
            v
        };
        let (even, shifted) = (mode(50), mode(49));
        assert_eq!(percentile(&even, 500).unwrap().value, 100);
        assert_eq!(percentile(&shifted, 500).unwrap().value, 500);
        assert_eq!(interquartile_mean(&even), Some(300.0));
        assert_eq!(interquartile_mean(&shifted), Some(308.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Span [0, 100); children [10, 40) and [30, 60) overlap on [30, 40),
        // so they cover 50, not 60; [90, 120) sticks out and counts 10.
        let children = [(10, 40), (30, 60), (90, 120)];
        assert_eq!(union_within(&children, 0, 100), 60);
        assert_eq!(self_time(0, 100, &children), 40);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30)]), 60);
        // No children: all self time; children covering everything: none.
        assert_eq!(self_time(5, 25, &[]), 20);
        assert_eq!(self_time(5, 25, &[(0, 30)]), 0);
    }

    #[test]
    fn per_txn_normalisation() {
        assert_eq!(per_txn(1_534_822.0, 80_486), 1_534_822.0 / 80_486.0);
        assert_eq!(per_txn(0.0, 10), 0.0);
        assert_eq!(per_txn(5.0, 0), 0.0, "no commits, no per-txn figure");
    }
}
