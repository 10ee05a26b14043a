//! Order statistics over the repetitions of one run.
//!
//! Quartiles use the exclusive method of Python's
//! `statistics.quantiles(values, n=4)`, because that is what the driver
//! (and the README's comparison recipe) applies to the per-run medians:
//! the harness's own quartiles then mean the same thing one level down.

/// Median and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order). An empty slice summarises to
    /// zeros with `n == 0`; a single sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Summary {
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                n: 0,
            },
            1 => Summary {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n: 1,
            },
            n => Summary {
                q1: quantile_exclusive(&v, 1, 4),
                median: quantile_exclusive(&v, 2, 4),
                q3: quantile_exclusive(&v, 3, 4),
                n,
            },
        }
    }

    /// Interquartile distance as a share of the median (the driver's
    /// spread figure); zero when the median is zero.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (zero when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The `i`-th of `n` cut points of sorted `v` (at least two values),
/// exclusive method: position `i * (len + 1) / n`, linear interpolation,
/// clamped to the outermost pair.
fn quantile_exclusive(v: &[f64], i: usize, n: usize) -> f64 {
    let len = v.len();
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1.5, 0.2, 9.0, 4.4, 4.5, 7.1, 0.3], n=4) == [0.3, 4.4, 7.1]
        let s = Summary::of(&[1.5, 0.2, 9.0, 4.4, 4.5, 7.1, 0.3]);
        assert_eq!((s.q1, s.median, s.q3), (0.3, 4.4, 7.1));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(median(&[]), 0.0);
        let one = Summary::of(&[7.5]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&v).spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
