//! Order statistics for the benchmark: medians, quartiles, the tail
//! percentile, and the bound check between two sets of runs.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spreads this module
//! reports are the ones an outside checker computes from the same
//! numbers.

/// Percentiles tried for the tail, highest first. The steps are coarse
/// so a run that measures a few more or fewer jobs than the last one
/// reports the same percentile, and the one it reports has well over
/// ten samples beyond it unless the run is near a step.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile before it may be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count). `None` when
/// `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// returns them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The nearest-rank value at percentile `p` (a multiple of 0.1) of an
/// ascending slice, and how many samples lie beyond it. The rank is
/// computed in integers, so 99.9% of 10 000 is exactly rank 9990.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let per_mille = (p * 10.0).round() as usize;
    let rank = (per_mille * n).div_ceil(1000).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] with at least [`TAIL_MIN_BEYOND`] samples beyond it.
/// Returns `(percentile, value)`, or `None` when even the median has
/// fewer than ten samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&v, p);
        (beyond >= TAIL_MIN_BEYOND).then_some((p, value))
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes).
    Lower,
    /// Larger is better (throughput, speedup).
    Higher,
}

impl Better {
    /// Parse the `better` field of a metric spec.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric's verdict between a first and a second set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck {
    /// Median of the first set.
    pub first_median: f64,
    /// Median of the second set.
    pub second_median: f64,
    /// Spread of the first set (see [`spread`]).
    pub first_spread: f64,
    /// Spread of the second set.
    pub second_spread: f64,
    /// How much worse the second median is than the first, as a share
    /// of the first (negative when it improved).
    pub worsening: f64,
    /// Both spreads within the bound and the second median no worse
    /// than the first by more than the bound.
    pub ok: bool,
}

/// Compare two sets of runs of one metric against its `bound`.
pub fn check_bound(
    first: &[f64],
    second: &[f64],
    bound: f64,
    better: Better,
) -> Option<BoundCheck> {
    let first_median = median(first)?;
    let second_median = median(second)?;
    let first_spread = spread(first)?;
    let second_spread = spread(second)?;
    let change = (second_median - first_median) / first_median.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spreads_ok = first_spread <= bound && second_spread <= bound;
    Some(BoundCheck {
        first_median,
        second_median,
        first_spread,
        second_spread,
        worsening,
        ok: spreads_ok && worsening <= bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]).unwrap();
        assert!(close(q1, 15.0) && close(q3, 45.0), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&v).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has 10 beyond.
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&small), None);
        // 20 samples: only p50 qualifies (rank 10, 10 beyond).
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 with exactly 10 beyond; p95 has 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        // 2600 samples: p99.9 has only 3 beyond, so p99 (26 beyond).
        let v: Vec<f64> = (1..=2600).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 2574.0)));
        // 199 samples: p95 has 9 beyond, so p90.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 180.0)));
        // 10_000 samples: p99.9 is rank 9990 with 10 beyond.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
        // Order of input does not matter.
        let mut rev: Vec<f64> = (1..=100).map(f64::from).collect();
        rev.reverse();
        assert_eq!(tail(&rev), Some((90.0, 90.0)));
    }

    #[test]
    fn bound_check_directions() {
        let first = [1.0, 1.0, 1.0, 1.0];
        // Lower is better: 5% slower passes a 10% bound, 20% fails it.
        let slower = [1.05, 1.05, 1.05, 1.05];
        let c = check_bound(&first, &slower, 0.1, Better::Lower).unwrap();
        assert!(c.ok && close(c.worsening, 0.05));
        let much_slower = [1.2, 1.2, 1.2, 1.2];
        assert!(
            !check_bound(&first, &much_slower, 0.1, Better::Lower)
                .unwrap()
                .ok
        );
        // Higher is better: a drop is a worsening, a rise never is.
        let lower = [0.8, 0.8, 0.8, 0.8];
        let c = check_bound(&first, &lower, 0.1, Better::Higher).unwrap();
        assert!(!c.ok && close(c.worsening, 0.2));
        let c = check_bound(&first, &much_slower, 0.1, Better::Higher).unwrap();
        assert!(c.ok && c.worsening < 0.0);
    }

    #[test]
    fn bound_check_spread() {
        // Same median, but the second set spreads 40% around it.
        let first = [1.0, 1.0, 1.0, 1.0, 1.0];
        let noisy = [0.6, 0.8, 1.0, 1.2, 1.4];
        let c = check_bound(&first, &noisy, 0.25, Better::Lower).unwrap();
        assert!(!c.ok && close(c.worsening, 0.0) && c.second_spread > 0.25);
        // A spread just inside the bound passes.
        let steady = [0.95, 0.98, 1.0, 1.02, 1.05];
        assert!(
            check_bound(&first, &steady, 0.25, Better::Lower)
                .unwrap()
                .ok
        );
    }
}
