//! Simple duration histograms for delay distributions.
//!
//! Delivery delays in a DTN are heavy-tailed; means alone mislead. This
//! histogram records [`SimDuration`] samples and answers quantile queries,
//! backing the delay reporting of the routing and MBT simulations.

use dtn_trace::SimDuration;

/// A collection of duration samples with quantile queries.
///
/// Samples are kept exactly (delays per run number in the thousands at
/// most); queries sort lazily.
///
/// # Example
///
/// ```
/// use dtn_sim::histogram::DelayHistogram;
/// use dtn_trace::SimDuration;
///
/// let mut h = DelayHistogram::new();
/// for secs in [10, 20, 30, 40, 50] {
///     h.record(SimDuration::from_secs(secs));
/// }
/// assert_eq!(h.quantile(0.5), Some(SimDuration::from_secs(30)));
/// assert_eq!(h.max(), Some(SimDuration::from_secs(50)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DelayHistogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl DelayHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        DelayHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_secs());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sorted_samples(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        &self.samples
    }

    /// The `q`-quantile (nearest-rank), or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&mut self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let s = self.sorted_samples();
        if s.is_empty() {
            return None;
        }
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        Some(SimDuration::from_secs(s[rank - 1]))
    }

    /// The median.
    pub fn median(&mut self) -> Option<SimDuration> {
        self.quantile(0.5)
    }

    /// The maximum sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples
            .iter()
            .max()
            .map(|&s| SimDuration::from_secs(s))
    }

    /// The mean in seconds.
    pub fn mean_secs(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
    }
}

impl Extend<SimDuration> for DelayHistogram {
    fn extend<I: IntoIterator<Item = SimDuration>>(&mut self, iter: I) {
        for d in iter {
            self.record(d);
        }
    }
}

impl FromIterator<SimDuration> for DelayHistogram {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        let mut h = DelayHistogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(secs: &[u64]) -> DelayHistogram {
        secs.iter().map(|&s| SimDuration::from_secs(s)).collect()
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = hist(&[50, 10, 30, 20, 40]);
        assert_eq!(h.quantile(0.0), Some(SimDuration::from_secs(10)));
        assert_eq!(h.quantile(0.2), Some(SimDuration::from_secs(10)));
        assert_eq!(h.median(), Some(SimDuration::from_secs(30)));
        assert_eq!(h.quantile(0.9), Some(SimDuration::from_secs(50)));
        assert_eq!(h.quantile(1.0), Some(SimDuration::from_secs(50)));
    }

    #[test]
    fn empty_histogram() {
        let mut h = DelayHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.median(), None);
        assert_eq!(h.mean_secs(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn mean_and_max() {
        let h = hist(&[10, 20, 60]);
        assert_eq!(h.mean_secs(), Some(30.0));
        assert_eq!(h.max(), Some(SimDuration::from_secs(60)));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn recording_after_query_resorts() {
        let mut h = hist(&[30, 10]);
        assert_eq!(h.median(), Some(SimDuration::from_secs(10)));
        h.record(SimDuration::from_secs(5));
        assert_eq!(h.quantile(0.0), Some(SimDuration::from_secs(5)));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let mut h = hist(&[1]);
        let _ = h.quantile(1.5);
    }
}
