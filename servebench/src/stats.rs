//! Sample statistics: percentiles that carry the sample count behind
//! them, and the quartile spread of repeated runs.

/// Samples that must lie beyond a percentile before it is reported: a
/// "p90" of 12 samples is the second-largest value, not a tail.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the number of samples it was taken
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest index whose cumulative share reaches q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank],
        samples: n,
    })
}

/// The median (mean of the middle pair for an even count), as Python's
/// `statistics.median` gives it. `NaN` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones an outside script computes from the same values. Needs at
/// least two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The distance between the quartiles as a share of the median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    Some((q3 - q1) / median(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), None, "19 samples: only 9 above p50");
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let p50 = percentile(&xs, 0.5).expect("20 samples: 10 above p50");
        assert_eq!(
            p50,
            Percentile {
                value: 10.0,
                samples: 20
            }
        );
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None, "99 samples: 9 above p90");
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&xs, 0.9).expect("100 samples: 10 above p90");
        assert_eq!(
            p90,
            Percentile {
                value: 90.0,
                samples: 100
            }
        );
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = spread(&xs).expect("ten values");
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
