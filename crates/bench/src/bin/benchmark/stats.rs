//! Percentiles, slice medians and the A/A spread arithmetic.
//!
//! Every reported timing is a **median over slices**: a phase is cut into
//! fixed-length slices by each operation's *due* time, the percentile is
//! taken inside each slice, and the median of those per-slice values is
//! the metric. One scheduler stall on a shared host then moves one slice,
//! not the metric. The all-sample percentile is kept beside it as a
//! per-layer number (`core.commit_p99_all_ms`).

/// The `pct`-th percentile (nearest-rank on the sorted samples) of an
/// unsorted slice; `None` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, pct))
}

/// Nearest-rank percentile of an already sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted slice (mean of the two middle values for an
/// even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// One timed observation: when the operation was due (seconds from the
/// phase start) and the measured value.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Due time, seconds since the phase started.
    pub due_s: f64,
    /// The measured value (milliseconds for latencies).
    pub value: f64,
}

/// Cut `samples` into `slice_s`-second slices by due time, take the
/// `pct`-th percentile inside every slice that holds at least
/// `min_per_slice` samples, and return the median of those values.
/// `None` when no slice qualifies.
pub fn slice_median(
    samples: &[Timed],
    slice_s: f64,
    pct: f64,
    min_per_slice: usize,
) -> Option<f64> {
    let mut slices: Vec<Vec<f64>> = Vec::new();
    for s in samples {
        let idx = (s.due_s.max(0.0) / slice_s) as usize;
        if slices.len() <= idx {
            slices.resize_with(idx + 1, Vec::new);
        }
        slices[idx].push(s.value);
    }
    let per_slice: Vec<f64> = slices
        .iter()
        .filter(|s| s.len() >= min_per_slice.max(1))
        .filter_map(|s| percentile(s, pct))
        .collect();
    median(&per_slice)
}

/// Completion events of a closed-loop phase — `(seconds, operations
/// completed by this event)` — reduced to a rate: operations completed
/// over elapsed time between the `skip`-th event and the `skip`-th from
/// the end, so neither the ramp nor the drain counts. (Not a median over
/// slices: throughput declines steadily through the phase as the tables
/// grow, so a median slice would sit on the steepest part of the decline
/// and jump between its two sides from run to run.)
pub fn steady_rate(events: &[(f64, u64)], skip: usize) -> Option<f64> {
    let mut ev = events.to_vec();
    ev.sort_by(|a, b| a.0.total_cmp(&b.0));
    let last = ev.len().checked_sub(skip + 1).filter(|last| *last > skip)?;
    let ops: u64 = ev[skip + 1..=last].iter().map(|e| e.1).sum();
    let elapsed = ev[last].0 - ev[skip].0;
    (elapsed > 0.0).then(|| ops as f64 / elapsed)
}

/// Python's `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method): the three cut points of the quartiles. Needs ≥ 2 values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let pos = (k + 1) as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + delta * (v[j] - v[j - 1]);
    }
    Some(out)
}

/// A/A summary of one metric on one workload over K same-commit runs.
#[derive(Clone, Debug)]
pub struct Spread {
    /// Median of the K values.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(max − min) / median`.
    pub range_share: f64,
    /// `(q3 − q1) / median` — what the driver compares to the bound.
    pub iqr_share: f64,
}

/// Summarise K same-commit values of one metric.
pub fn spread(values: &[f64]) -> Option<Spread> {
    let med = median(values)?;
    let [q1, _, q3] = quartiles(values)?;
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let denom = if med.abs() > 0.0 { med.abs() } else { 1.0 };
    Some(Spread {
        median: med,
        q1,
        q3,
        range_share: (hi - lo) / denom,
        iqr_share: (q3 - q1) / denom,
    })
}

/// The regression bound an A/A spread supports. The driver accepts a
/// metric only while the inter-quartile spread of ten same-commit runs
/// stays inside its bound, and asks for a third of the bound as head
/// room, so: `max(10 %, 3 × IQR/median)`, rounded up to a whole percent.
/// A value above [`MAX_BOUND`] means the metric cannot be gated and is
/// demoted to the per-layer list. (`(max − min)/median` is printed beside
/// it: on a shared 2-vCPU host one run in ten lands far out, which is what
/// the quartiles are there to absorb.)
pub fn proposed_bound(s: &Spread) -> f64 {
    let raw = (3.0 * s.iqr_share).max(0.10);
    // The epsilon keeps 3 × 0.05 at 15 %.
    (raw * 100.0 - 1e-9).ceil() / 100.0
}

/// The largest bound `BENCHMARK.json` may carry.
pub const MAX_BOUND: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 95.0), None);
        // Unsorted input.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slice_median_shrugs_off_one_bad_slice() {
        // Five 2 s slices of 100 samples at 10 ms; the third slice holds a
        // 500 ms stall. The all-sample p95 sees it, the slice median not.
        let mut samples = Vec::new();
        for slice in 0..5 {
            for i in 0..100 {
                let value = if slice == 2 && i >= 50 { 500.0 } else { 10.0 };
                samples.push(Timed {
                    due_s: slice as f64 * 2.0 + i as f64 * 0.02,
                    value,
                });
            }
        }
        assert_eq!(slice_median(&samples, 2.0, 95.0, 10), Some(10.0));
        let all: Vec<f64> = samples.iter().map(|s| s.value).collect();
        assert_eq!(percentile(&all, 95.0), Some(500.0));
        // A slice with too few samples is ignored, not counted as zero.
        samples.push(Timed {
            due_s: 11.0,
            value: 9999.0,
        });
        assert_eq!(slice_median(&samples, 2.0, 95.0, 10), Some(10.0));
        assert_eq!(slice_median(&[], 2.0, 95.0, 1), None);
    }

    #[test]
    fn steady_rate_is_ops_over_elapsed_without_ramp_and_drain() {
        // One 500-op batch every 50 ms = 10 000 ops/s, between a slow
        // ramp and a slow drain.
        let mut events = vec![(0.4, 500u64), (0.8, 500)];
        for i in 1..=40 {
            events.push((0.8 + i as f64 * 0.05, 500));
        }
        events.push((3.5, 500));
        let rate = steady_rate(&events, 1).unwrap();
        assert!((rate - 10_000.0).abs() < 1e-6, "{rate}");
        assert_eq!(steady_rate(&events[..2], 1), None);
        assert_eq!(steady_rate(&[], 0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn bound_is_three_times_the_quartile_spread() {
        // statistics.quantiles([99, 100, 100, 100.5, 101], n=4)
        //   == [99.5, 100.0, 100.75]
        let s = spread(&[100.0, 101.0, 99.0, 100.5, 100.0]).unwrap();
        assert_eq!(s.median, 100.0);
        assert!((s.range_share - 0.02).abs() < 1e-12);
        assert!((s.iqr_share - 0.0125).abs() < 1e-12);
        assert_eq!(proposed_bound(&s), 0.10, "floor of 10 %");
        // One far outlier moves the range, not the quartiles.
        let s = spread(&[100.0, 105.0, 95.0, 100.0, 100.0, 100.0, 100.0, 180.0]).unwrap();
        assert!(s.range_share > 0.8);
        assert_eq!(proposed_bound(&s), 0.12, "3 x 3.75 %");
        let s = spread(&[100.0, 120.0, 80.0, 110.0, 90.0]).unwrap();
        assert!(proposed_bound(&s) > MAX_BOUND, "would be demoted");
    }
}
