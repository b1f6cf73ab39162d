//! Sample summaries and the metric record every output shares.

use crate::json::Json;

/// One reported number: a median (or a single measurement) with the spread
/// and the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind `value`; 1 for a count or a single timing.
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A number measured once in the run (a count, a ratio of counts, one timing).
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The median of `samples`, with quartiles.
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        Metric {
            name: name.to_string(),
            unit,
            value: s.median,
            n: s.n,
            q1: s.q1,
            q3: s.q3,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
            ("n", self.n.into()),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
        ])
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
}

impl Summary {
    /// Summarise `samples`; all zeros when empty, so a degenerate tiny-scale
    /// run still prints a finite number next to `n = 0`.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
            p95: quantile(&sorted, 0.95),
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The three quartiles of an ascending slice, computed as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes them,
/// because that is the rule the spread of a metric is judged by.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    match m {
        0 => [0.0; 3],
        1 => [sorted[0]; 3],
        _ => {
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..=3usize) {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn p95_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 95.0);
    }
}
