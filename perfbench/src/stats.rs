//! Sample summaries: medians, interpolated percentiles and means.

/// Samples needed beyond a reported percentile (a p90 therefore needs at
/// least 100 samples).
pub const TAIL_SAMPLES: usize = 10;

/// Samples needed for a p90 with `TAIL_SAMPLES` beyond it.
pub const P90_SAMPLES: usize = TAIL_SAMPLES * 10;

/// A growable set of measurements.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Linearly interpolated quantile (`q` in 0..=1), 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest whole percentile with at least [`TAIL_SAMPLES`]
    /// samples beyond it (0 when there are too few samples for any).
    pub fn tail_percentile(&self) -> u64 {
        let n = self.values.len();
        if n <= TAIL_SAMPLES {
            return 0;
        }
        (100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64)).floor() as u64
    }
}

/// Seconds as fractional milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Seconds as fractional microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Relative slowdown of `traced` against `untraced`, in percent, for a
/// metric where lower is better.
pub fn overhead_pct_lower(untraced: f64, traced: f64) -> f64 {
    100.0 * ratio(traced - untraced, untraced)
}

/// Relative slowdown of `traced` against `untraced`, in percent, for a
/// metric where higher is better.
pub fn overhead_pct_higher(untraced: f64, traced: f64) -> f64 {
    100.0 * ratio(untraced - traced, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn quantiles_interpolate() {
        let s = samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.mean(), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let hundred = samples(&vec![1.0; 100]);
        assert_eq!(hundred.tail_percentile(), 90);
        let fifty = samples(&vec![1.0; 50]);
        assert_eq!(fifty.tail_percentile(), 80);
        assert_eq!(samples(&[1.0; 10]).tail_percentile(), 0);
    }
}
