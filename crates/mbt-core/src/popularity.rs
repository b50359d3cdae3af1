//! File popularity.
//!
//! The popularity of a metadata is "the percentage of Internet access nodes
//! requesting the file of the metadata in the past 24 hours" — a value in
//! [0, 1] maintained by the central metadata server (paper §IV-A). The
//! evaluation workload draws each new file's popularity `p` from the
//! truncated-exponential density `λe^{-λx}` on [0, 1] via the inverse-CDF
//! formula given in §VI-A:
//!
//! ```text
//! p = -ln(1 - x (1 - e^{-λ})) / λ,   x ~ U(0, 1)
//! ```
//!
//! whose mean is approximately `1/λ`. With `λ = n/2` (n = new files per day)
//! each node generates about `n · (1/λ) = 2` queries per day.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use dtn_trace::{NodeId, SimDuration, SimTime};
use rand::Rng;

use crate::uri::Uri;

/// A popularity value in `[0, 1]`.
///
/// # Example
///
/// ```
/// use mbt_core::Popularity;
///
/// let p = Popularity::new(0.25);
/// assert_eq!(p.value(), 0.25);
/// assert_eq!(Popularity::new(7.0), Popularity::MAX, "clamped");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Popularity(f64);

impl Popularity {
    /// The minimum popularity (0).
    pub const MIN: Popularity = Popularity(0.0);
    /// The maximum popularity (1).
    pub const MAX: Popularity = Popularity(1.0);

    /// Creates a popularity, clamping into `[0, 1]`; NaN clamps to 0.
    pub fn new(value: f64) -> Self {
        if value.is_nan() {
            return Popularity(0.0);
        }
        Popularity(value.clamp(0.0, 1.0))
    }

    /// The inner value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Popularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<Popularity> for f64 {
    fn from(p: Popularity) -> f64 {
        p.0
    }
}

/// Total order on popularity for deterministic sorting: NaN is impossible by
/// construction, so comparison is total.
pub fn cmp_popularity(a: Popularity, b: Popularity) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0).expect("popularity is never NaN")
}

/// Draws a popularity from the paper's truncated-exponential distribution
/// with parameter `lambda` (§VI-A).
///
/// # Panics
///
/// Panics if `lambda <= 0`.
pub fn sample_popularity<R: Rng>(rng: &mut R, lambda: f64) -> Popularity {
    assert!(lambda > 0.0, "lambda must be positive");
    let x: f64 = rng.gen_range(0.0..1.0);
    let p = -(1.0 - x * (1.0 - (-lambda).exp())).ln() / lambda;
    Popularity::new(p)
}

/// The paper's choice of λ given `n` new files per day: `λ = n / 2`, so the
/// expected number of queries per node per day is ≈ 2.
pub fn lambda_for_files_per_day(n: u32) -> f64 {
    f64::from(n.max(1)) / 2.0
}

/// The popularity estimator's sliding window: the paper's 24 hours.
const WINDOW: SimDuration = SimDuration::from_hours(24);

/// Server-side popularity estimator: the fraction of distinct Internet-access
/// nodes that requested a file in a sliding 24-hour window.
///
/// # Example
///
/// ```
/// use mbt_core::popularity::PopularityEstimator;
/// use mbt_core::Uri;
/// use dtn_trace::{NodeId, SimTime};
///
/// let mut est = PopularityEstimator::new(4); // 4 Internet-access nodes
/// let uri = Uri::new("mbt://f/1")?;
/// est.record_request(&uri, NodeId::new(0), SimTime::from_secs(100));
/// est.record_request(&uri, NodeId::new(1), SimTime::from_secs(200));
/// assert_eq!(est.popularity(&uri, SimTime::from_secs(300)).value(), 0.5);
/// # Ok::<(), mbt_core::uri::InvalidUri>(())
/// ```
#[derive(Debug, Clone)]
pub struct PopularityEstimator {
    population: u32,
    requests: BTreeMap<Uri, VecDeque<(SimTime, NodeId)>>,
}

impl PopularityEstimator {
    /// Creates an estimator over a population of `population` Internet-access
    /// nodes with the paper's 24-hour window.
    pub fn new(population: u32) -> Self {
        PopularityEstimator {
            population: population.max(1),
            requests: BTreeMap::new(),
        }
    }

    /// Records that `node` requested the file at `uri` at time `now`.
    pub fn record_request(&mut self, uri: &Uri, node: NodeId, now: SimTime) {
        self.requests
            .entry(uri.clone())
            .or_default()
            .push_back((now, node));
    }

    /// The estimated popularity of `uri` at `now`: distinct requesters within
    /// the window divided by the population.
    pub fn popularity(&self, uri: &Uri, now: SimTime) -> Popularity {
        self.requests.get(uri).map_or(Popularity::MIN, |reqs| {
            self.estimate(reqs, now, &mut Vec::new())
        })
    }

    /// Every URI with recorded requests beside its estimated popularity at
    /// `now`, in URI order. Any URI not yielded has popularity
    /// [`Popularity::MIN`], so a refresh visits these instead of probing
    /// [`popularity`](Self::popularity) once per published record.
    pub fn popularities(&self, now: SimTime) -> impl Iterator<Item = (&Uri, Popularity)> {
        let mut requesters = Vec::new(); // one scratch for the whole pass
        self.requests
            .iter()
            .map(move |(uri, reqs)| (uri, self.estimate(reqs, now, &mut requesters)))
    }

    /// Counts the distinct in-window requesters of `reqs` in `requesters`.
    fn estimate(
        &self,
        reqs: &VecDeque<(SimTime, NodeId)>,
        now: SimTime,
        requesters: &mut Vec<NodeId>,
    ) -> Popularity {
        let cutoff = now.saturating_sub(WINDOW);
        requesters.clear();
        requesters.extend(
            reqs.iter()
                .filter(|&&(t, _)| t >= cutoff && t <= now)
                .map(|&(_, n)| n),
        );
        requesters.sort_unstable();
        requesters.dedup();
        Popularity::new(requesters.len() as f64 / f64::from(self.population))
    }

    /// Drops request records older than the window relative to `now`.
    pub fn prune(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(WINDOW);
        self.requests.retain(|_, reqs| {
            while reqs.front().is_some_and(|&(t, _)| t < cutoff) {
                reqs.pop_front();
            }
            !reqs.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn popularity_clamps() {
        assert_eq!(Popularity::new(-1.0), Popularity::MIN);
        assert_eq!(Popularity::new(2.0), Popularity::MAX);
        assert_eq!(Popularity::new(f64::NAN).value(), 0.0);
    }

    #[test]
    fn sample_stays_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let p = sample_popularity(&mut rng, 25.0);
            assert!((0.0..=1.0).contains(&p.value()));
        }
    }

    #[test]
    fn sample_mean_approximates_inverse_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let lambda = 20.0;
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| sample_popularity(&mut rng, lambda).value())
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 1.0 / lambda).abs() < 0.005,
            "mean {mean} vs expected {}",
            1.0 / lambda
        );
    }

    #[test]
    fn expected_queries_per_node_per_day_is_two() {
        // n files/day with popularity mean ≈ 1/λ and λ = n/2 ⇒ n·(1/λ) = 2.
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50u32;
        let lambda = lambda_for_files_per_day(n);
        let trials = 2_000;
        let mut total_queries = 0.0;
        for _ in 0..trials {
            for _ in 0..n {
                total_queries += sample_popularity(&mut rng, lambda).value();
            }
        }
        let per_day = total_queries / trials as f64;
        assert!((per_day - 2.0).abs() < 0.15, "queries/day {per_day}");
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn zero_lambda_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_popularity(&mut rng, 0.0);
    }

    #[test]
    fn estimator_counts_distinct_requesters() {
        let mut est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://f").unwrap();
        let t = SimTime::from_secs(1000);
        est.record_request(&uri, NodeId::new(1), t);
        est.record_request(&uri, NodeId::new(1), t); // duplicate
        est.record_request(&uri, NodeId::new(2), t);
        assert!((est.popularity(&uri, t).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn estimator_window_expires_requests() {
        let mut est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://f").unwrap();
        est.record_request(&uri, NodeId::new(1), SimTime::from_secs(0));
        let later = SimTime::from_secs(25 * 3600);
        assert_eq!(est.popularity(&uri, later), Popularity::MIN);
    }

    #[test]
    fn estimator_unknown_uri_is_zero() {
        let est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://nope").unwrap();
        assert_eq!(est.popularity(&uri, SimTime::ZERO), Popularity::MIN);
    }

    #[test]
    fn popularities_yields_exactly_the_requested_uris_with_their_estimates() {
        let mut est = PopularityEstimator::new(10);
        let (a, b) = (Uri::new("mbt://a").unwrap(), Uri::new("mbt://b").unwrap());
        let t = SimTime::from_secs(1000);
        est.record_request(&b, NodeId::new(1), t);
        est.record_request(&a, NodeId::new(1), SimTime::ZERO);
        est.record_request(&a, NodeId::new(2), t);
        let now = SimTime::from_secs(24 * 3600 + 500); // the request at 0 has aged out
        let all: Vec<(&Uri, Popularity)> = est.popularities(now).collect();
        assert_eq!(
            all,
            vec![(&a, est.popularity(&a, now)), (&b, est.popularity(&b, now))]
        );
        assert_eq!(all[0].1, Popularity::new(0.1), "the window applies");
    }

    #[test]
    fn prune_removes_old_entries() {
        let mut est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://f").unwrap();
        est.record_request(&uri, NodeId::new(1), SimTime::from_secs(0));
        est.prune(SimTime::from_secs(30 * 3600));
        assert!(est.requests.is_empty());
    }

    #[test]
    fn request_exactly_at_the_24h_boundary_still_counts() {
        // The window is inclusive at both edges: a request made exactly 24
        // hours ago sits at `cutoff = now - window` and `t >= cutoff` keeps
        // it; one second older falls out.
        let mut est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://f").unwrap();
        let t0 = SimTime::from_secs(1_000);
        est.record_request(&uri, NodeId::new(1), t0);

        let exactly_24h = t0.saturating_add(SimDuration::from_hours(24));
        assert!(
            (est.popularity(&uri, exactly_24h).value() - 0.1).abs() < 1e-12,
            "request exactly one window old must still count"
        );
        let one_past = SimTime::from_secs(exactly_24h.as_secs() + 1);
        assert_eq!(est.popularity(&uri, one_past), Popularity::MIN);

        // The same boundary governs prune: at exactly 24 h the record
        // survives, one second later it is dropped.
        est.prune(exactly_24h);
        assert_eq!(est.requests[&uri].len(), 1);
        est.prune(one_past);
        assert!(est.requests.is_empty());
    }

    #[test]
    fn requests_from_the_future_do_not_count() {
        // `t <= now` bounds the window on the right: a request stamped
        // *after* the query instant (e.g. out-of-order session replay) must
        // not inflate the estimate.
        let mut est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://f").unwrap();
        est.record_request(&uri, NodeId::new(1), SimTime::from_secs(5_000));
        assert_eq!(
            est.popularity(&uri, SimTime::from_secs(4_000)),
            Popularity::MIN
        );
        assert!((est.popularity(&uri, SimTime::from_secs(5_000)).value() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn duplicate_node_uri_requests_in_one_window_count_once() {
        // One node hammering the same URI at several instants inside a
        // single window is still one distinct requester.
        let mut est = PopularityEstimator::new(10);
        let uri = Uri::new("mbt://f").unwrap();
        for hour in [0u64, 3, 7, 23] {
            est.record_request(&uri, NodeId::new(4), SimTime::from_secs(hour * 3_600));
        }
        let now = SimTime::from_secs(23 * 3_600);
        assert!((est.popularity(&uri, now).value() - 0.1).abs() < 1e-12);
        // A second node doubles the estimate; repeating it again does not.
        est.record_request(&uri, NodeId::new(5), now);
        est.record_request(&uri, NodeId::new(5), now);
        assert!((est.popularity(&uri, now).value() - 0.2).abs() < 1e-12);
        // The duplicates are retained as raw events (all four instants)…
        assert_eq!(est.requests[&uri].len(), 6);
        // …so when the window slides past the early ones, the same node
        // still counts through its later requests.
        let next_day = SimTime::from_secs(30 * 3_600);
        assert!((est.popularity(&uri, next_day).value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn prune_is_idempotent_and_preserves_answers() {
        let mut est = PopularityEstimator::new(10);
        let uris: Vec<Uri> = (0..3)
            .map(|i| Uri::new(format!("mbt://f/{i}")).unwrap())
            .collect();
        for (i, uri) in uris.iter().enumerate() {
            for node in 0..=i as u32 {
                // Requests spread over 40 hours: some inside, some outside
                // the window at `now`.
                est.record_request(
                    uri,
                    NodeId::new(node),
                    SimTime::from_secs(node as u64 * 13 * 3_600),
                );
            }
        }
        let now = SimTime::from_secs(40 * 3_600);
        let before: Vec<f64> = uris
            .iter()
            .map(|u| est.popularity(u, now).value())
            .collect();

        est.prune(now);
        let first: std::collections::BTreeMap<Uri, Vec<(SimTime, NodeId)>> = est
            .requests
            .iter()
            .map(|(u, q)| (u.clone(), q.iter().copied().collect()))
            .collect();
        // Pruning never changes what the estimator answers at `now`…
        let after: Vec<f64> = uris
            .iter()
            .map(|u| est.popularity(u, now).value())
            .collect();
        assert_eq!(before, after, "prune changed live estimates");

        // …and pruning again at the same instant is a no-op, bit for bit.
        est.prune(now);
        let second: std::collections::BTreeMap<Uri, Vec<(SimTime, NodeId)>> = est
            .requests
            .iter()
            .map(|(u, q)| (u.clone(), q.iter().copied().collect()))
            .collect();
        assert_eq!(first, second, "prune is not idempotent");
    }

    #[test]
    fn cmp_popularity_total_order() {
        use std::cmp::Ordering;
        assert_eq!(
            cmp_popularity(Popularity::new(0.2), Popularity::new(0.8)),
            Ordering::Less
        );
        assert_eq!(
            cmp_popularity(Popularity::new(0.5), Popularity::new(0.5)),
            Ordering::Equal
        );
    }

    #[test]
    fn lambda_for_files_per_day_is_half_n() {
        assert_eq!(lambda_for_files_per_day(50), 25.0);
        assert_eq!(lambda_for_files_per_day(0), 0.5, "clamped to n=1");
    }
}
