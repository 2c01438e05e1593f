//! The benchmark's own statistics: medians and percentiles, geometric
//! means, the sample-count rule for tail percentiles, backlog growth in an
//! open loop, and the log-linear maximum-rate interpolation.

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (the "type 7"
/// definition: rank `q * (n - 1)` between the sorted neighbours).
/// `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if v[lo] == v[hi] {
        // Also keeps an infinite sample from turning into NaN.
        return Some(v[lo]);
    }
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median of `xs`, 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// The best (smallest) of `xs`, 0 for an empty sample: the repeatable
/// estimate of a time that outside load can only lengthen.
pub fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Arithmetic mean of `xs`, 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; non-positive entries are skipped,
/// and an empty (or all-skipped) sample gives 0.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// The tail percentiles the benchmark reports, highest first.
pub const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 75, 50];

/// Samples of `n` that lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: usize) -> usize {
    n * (100 - p) / 100
}

/// The highest percentile in [`TAIL_PERCENTILES`] that leaves at least
/// `min_beyond` of `n` samples beyond it; `None` when even the median
/// does not.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<usize> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

/// Whether an open-loop backlog grows over a step.
///
/// `outstanding` holds the number of requests sent but not yet answered,
/// sampled at evenly spaced instants across a step of `step_s` seconds
/// offered at `rate` requests per second. The backlog grows when the mean
/// over the last third exceeds the mean over the first third by more than
/// a tenth of the offered rate per second, that is, when the system
/// completes less than about nine tenths of what it is offered.
pub fn backlog_grows(outstanding: &[f64], step_s: f64, rate: f64) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 || step_s <= 0.0 {
        return false;
    }
    let first = mean(&outstanding[..third]);
    let last = mean(&outstanding[outstanding.len() - third..]);
    let slope = (last - first) / (step_s * 2.0 / 3.0);
    slope > 0.1 * rate
}

/// One step of the rate ladder as the max-rate rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency of the step in ms; failed or shed requests count as
    /// infinitely late, so the value may be infinite.
    pub tail_ms: f64,
    /// Whether the backlog grew during the step.
    pub backlog_grows: bool,
}

impl LadderStep {
    fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && !self.backlog_grows
    }
}

/// The highest rate that meets `limit_ms` on the tail without a growing
/// backlog, interpolated log-linearly between the last passing step and
/// the first failing one (steps in increasing rate order).
///
/// Where the two steps' tails straddle the limit, the crossing is placed
/// where the log of the tail latency, linear in the log of the rate,
/// meets the log of the limit. An infinite tail is capped at ten times
/// the limit. A step that fails on backlog growth alone places the
/// crossing halfway. When the first step already fails, its rate is
/// scaled by `limit / tail`; when none fails, the highest rate is
/// returned (the ladder did not reach capacity).
pub fn max_rate(steps: &[LadderStep], limit_ms: f64) -> f64 {
    let Some(fail) = steps.iter().position(|s| !s.passes(limit_ms)) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let b = steps[fail];
    let capped = |t: f64| t.min(10.0 * limit_ms).max(f64::MIN_POSITIVE);
    if fail == 0 {
        return b.rate * (limit_ms / capped(b.tail_ms)).min(1.0);
    }
    let a = steps[fail - 1];
    let t = if b.tail_ms <= limit_ms {
        0.5
    } else {
        let (la, lb) = (capped(a.tail_ms).ln(), capped(b.tail_ms).ln());
        ((limit_ms.ln() - la) / (lb - la)).clamp(0.0, 1.0)
    };
    (a.rate.ln() + t * (b.rate.ln() - a.rate.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert!(close(median(&xs), 2.5));
        assert!(close(quantile(&xs, 0.25).unwrap(), 1.75));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(best(&xs), 1.0);
        assert_eq!(best(&[]), 0.0);
        let inf = f64::INFINITY;
        assert_eq!(quantile(&[1.0, inf, inf], 0.9), Some(inf));
        assert_eq!(quantile(&[1.0, 2.0, inf], 0.9), Some(inf));
    }

    #[test]
    fn geomean_of_ratios_is_ratio_of_geomeans() {
        assert!(close(geomean(&[2.0, 8.0]), 4.0));
        assert!(close(geomean(&[5.0]), 5.0));
        let (a, b) = ([3.0, 12.0, 7.0], [1.5, 4.0, 0.5]);
        let ratios: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x / y).collect();
        assert!(close(geomean(&ratios), geomean(&a) / geomean(&b)));
        assert_eq!(geomean(&[]), 0.0);
        assert!(close(geomean(&[0.0, 9.0]), 9.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(999, 10), Some(95));
        assert_eq!(tail_percentile(200, 10), Some(95));
        assert_eq!(tail_percentile(199, 10), Some(90));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(99, 10), Some(75));
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(19, 10), None);
        for n in [20, 57, 100, 140, 333, 5000] {
            let p = tail_percentile(n, 10).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            if let Some(&higher) = TAIL_PERCENTILES.iter().rev().find(|&&q| q > p) {
                assert!(samples_beyond(n, higher) < 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn steady_backlog_does_not_grow() {
        let flat: Vec<f64> = (0..30).map(|i| 3.0 + (i % 3) as f64).collect();
        assert!(!backlog_grows(&flat, 3.0, 20.0));
        // Falling behind by a fifth of the offered rate grows.
        let rate = 20.0;
        let rising: Vec<f64> = (0..30).map(|i| 2.0 + 0.2 * rate * i as f64 * 0.1).collect();
        assert!(backlog_grows(&rising, 3.0, rate));
        // Falling behind by a twentieth does not.
        let slow: Vec<f64> = (0..30)
            .map(|i| 2.0 + 0.05 * rate * i as f64 * 0.1)
            .collect();
        assert!(!backlog_grows(&slow, 3.0, rate));
        assert!(!backlog_grows(&[5.0], 3.0, rate));
    }

    fn step(rate: f64, tail_ms: f64) -> LadderStep {
        LadderStep {
            rate,
            tail_ms,
            backlog_grows: false,
        }
    }

    #[test]
    fn max_rate_interpolates_log_linearly() {
        // Tail 50 ms at 10/s, 200 ms at 40/s, limit 100 ms: log-latency
        // rises by ln 4 over ln 4 of rate, so the crossing is at 20/s.
        let steps = [step(10.0, 50.0), step(40.0, 200.0), step(80.0, 900.0)];
        assert!(close(max_rate(&steps, 100.0), 20.0));
        // The answer moves continuously with the failing step's tail.
        let a = max_rate(&[step(10.0, 50.0), step(40.0, 101.0)], 100.0);
        let b = max_rate(&[step(10.0, 50.0), step(40.0, 99.0)], 100.0);
        assert!(a > 39.0 && a < 40.0, "{a}");
        assert_eq!(b, 40.0);
    }

    #[test]
    fn max_rate_edge_cases() {
        assert_eq!(max_rate(&[], 100.0), 0.0);
        // No failing step: the ladder never reached capacity.
        assert_eq!(max_rate(&[step(10.0, 5.0), step(20.0, 9.0)], 100.0), 20.0);
        // The first step fails: scale its rate by limit / tail.
        assert!(close(max_rate(&[step(10.0, 400.0)], 100.0), 2.5));
        // Failed requests make a tail infinite: capped at ten limits.
        let inf = max_rate(&[step(10.0, 10.0), step(100.0, f64::INFINITY)], 100.0);
        assert!(close(inf, 10.0 * 10f64.powf(0.5)), "{inf}");
        // A backlog-only failure lands halfway in log-rate.
        let grow = LadderStep {
            rate: 40.0,
            tail_ms: 80.0,
            backlog_grows: true,
        };
        assert!(close(max_rate(&[step(10.0, 20.0), grow], 100.0), 20.0));
    }
}
