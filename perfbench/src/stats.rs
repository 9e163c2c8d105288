//! Exact percentiles over raw samples.
//!
//! `LogHistogram::quantile` answers with a bucket's lower bound, which
//! hides small changes and turns small shifts across a bucket edge into
//! large ones; every percentile here is the nearest-rank sample.

/// Raw samples of one quantity.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn p99(&self) -> f64 {
        self.pct(99.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// Mean of the last tenth over the mean of the first tenth, in
    /// sample order: how much the per-sample cost grew across a window.
    pub fn growth(&self) -> f64 {
        let tenth = self.0.len() / 10;
        if tenth == 0 {
            return 0.0;
        }
        let head: f64 = self.0[..tenth].iter().sum();
        let tail: f64 = self.0[self.0.len() - tenth..].iter().sum();
        if head == 0.0 {
            0.0
        } else {
            tail / head
        }
    }
}

/// Median of a small set of per-pass values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
