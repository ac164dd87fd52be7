//! Medians and quartiles of small samples.

use crate::json::Json;

/// The median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Sample {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the "exclusive" method), so the spreads this harness prints are the
    /// ones the driver computes. A single value is its own quartiles.
    pub fn of(values: &[f64]) -> Sample {
        assert!(!values.is_empty(), "a sample needs at least one value");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |i: usize| {
            let len = sorted.len();
            if len == 1 {
                return sorted[0];
            }
            let m = len + 1;
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Sample {
            n: sorted.len(),
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
        }
    }

    /// A value that was not sampled: a count, or a number computed once.
    pub fn single(value: f64) -> Sample {
        Sample::of(&[value])
    }

    /// The distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("q1", Json::Num(self.q1)),
            ("value", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = Sample::of(&[10.0, 1.0, 2.0, 9.0, 3.0, 8.0, 4.0, 7.0, 5.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Sample::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (3, 1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Sample::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(s.spread(), 10.5 / 4.0);
    }

    #[test]
    fn a_single_value_has_no_spread() {
        let s = Sample::single(7.5);
        assert_eq!(
            (s.n, s.q1, s.median, s.q3, s.spread()),
            (1, 7.5, 7.5, 7.5, 0.0)
        );
    }
}
