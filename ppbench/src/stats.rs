//! Order statistics over a handful of repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here is the number
//! anyone re-deriving it from the result file with the standard library
//! gets — except that a quartile never leaves the sample's range (the
//! exclusive method extrapolates below the minimum of two samples).

/// Sort a copy of `values` ascending (NaNs are a caller bug: every sample
/// is a measured duration or count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median; `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile (exclusive method). One sample is its own
/// quartiles; `None` on an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[n - 1])
    };
    Some((cut(1), cut(3)))
}

/// Median with its quartiles, minimum and sample count — what is printed
/// beside every timed metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, q3) = quartiles(values)?;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        Some(Summary {
            n: values.len(),
            min,
            q1,
            median,
            q3,
        })
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_tied() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[2.0, 2.0, 2.0, 5.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // to the sample's range.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((1.0, 2.0)));
        // Ties collapse the spread.
        assert_eq!(quartiles(&[7.0, 7.0, 7.0, 7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn summary_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.min, s.median), (10, 1.0, 5.5));
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        assert!((s.iqr_frac() - 1.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }
}
