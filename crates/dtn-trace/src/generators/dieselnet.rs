//! DieselNet-style bus trace generator.
//!
//! The UMassDieselNet trace (Burgess et al., INFOCOM'06) records pair-wise
//! radio contacts between ~40 transit buses running scheduled routes around
//! Amherst, MA. Its load-bearing properties for the MBT evaluation are:
//!
//! - contacts are **strictly pair-wise** (buses rarely meet three at a time),
//!   so download cliques degenerate to pairs;
//! - contacts are **short** (tens of seconds: two buses passing each other);
//! - contacts are **sparse and route-structured**: a pair of buses on
//!   intersecting routes meets a few times per day, other pairs almost never;
//! - buses only operate during **service hours** (roughly 6:00–22:00).
//!
//! This generator reproduces those properties from a small route model: buses
//! are assigned to routes; every pair of routes has a crossing intensity; a
//! pair of buses meets as a Poisson process whose rate is the product of its
//! routes' crossing intensity, thinned to service hours.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::{SimTime, SECONDS_PER_DAY};
use crate::trace::{ContactSink, ContactTrace};

/// Daily service hours `[start, end)`: buses run 06:00–22:00.
const SERVICE_START_HOUR: u64 = 6;
const SERVICE_END_HOUR: u64 = 22;
/// The length of a day's service window.
const SERVICE_SECS: u64 = (SERVICE_END_HOUR - SERVICE_START_HOUR) * 3_600;
/// Mean daily meetings for a pair of buses on the *same* route.
const SAME_ROUTE_RATE_PER_DAY: f64 = 2.0;
/// Mean daily meetings for a pair of buses on *crossing* routes.
const CROSSING_ROUTE_RATE_PER_DAY: f64 = 0.35;
/// Mean contact duration in seconds.
const MEAN_CONTACT_SECS: f64 = 45.0;

/// Configuration for the DieselNet-style generator.
///
/// Construct with [`DieselNetConfig::new`] and customize with the builder
/// methods; call [`DieselNetConfig::generate`] to produce a trace.
///
/// # Example
///
/// ```
/// use dtn_trace::generators::DieselNetConfig;
///
/// let trace = DieselNetConfig::new(20, 7).seed(42).generate();
/// assert!(trace.iter().all(|c| c.size() == 2), "DieselNet contacts are pair-wise");
/// ```
#[derive(Debug, Clone)]
pub struct DieselNetConfig {
    buses: u32,
    days: u64,
    routes: u32,
    seed: u64,
}

impl DieselNetConfig {
    /// Creates a configuration for `buses` buses over `days` days with
    /// defaults matched to the published trace statistics (~40 buses,
    /// ~8 routes, short contacts, 06:00–22:00 service).
    pub fn new(buses: u32, days: u64) -> Self {
        DieselNetConfig {
            buses,
            days,
            routes: 8,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0). Same seed ⇒ same trace.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of routes buses are assigned to (default 8).
    ///
    /// # Panics
    ///
    /// Panics if `routes == 0`.
    pub fn routes(mut self, routes: u32) -> Self {
        assert!(routes > 0, "at least one route is required");
        self.routes = routes;
        self
    }

    /// Generates the contact trace.
    ///
    /// The output contains only pair-wise contacts, all within service
    /// hours, sorted by start time.
    pub fn generate(&self) -> ContactTrace {
        let mut contacts = Vec::new();
        self.generate_into(&mut contacts);
        contacts.into_iter().collect()
    }

    /// Generates the trace directly into `sink` — e.g. a
    /// [`ShardWriter`](crate::shard::ShardWriter) — without ever holding the
    /// full contact list in memory. The contact sequence (and RNG draw
    /// order) is identical to [`DieselNetConfig::generate`], emitted in
    /// generation order rather than sorted order.
    ///
    /// Candidate pairs come from a route-indexed sweep: for each bus only
    /// the buses on its own route and on the handful of crossing routes
    /// (ring neighbours plus the hub pair) are enumerated, so the cost is
    /// O(positive-rate pairs), not O(buses²). With many routes (city-scale
    /// configurations keep routes proportional to buses) that is
    /// O(contacts). RNG draws happen only for positive-rate pairs, in
    /// ascending `(a, b)` order — exactly the draws the all-pairs loop
    /// makes — so the output is byte-identical to that loop, which the unit
    /// tests keep as their oracle.
    pub fn generate_into<S: ContactSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD1E5_E1DE);
        let routes = self.routes;
        let hub = routes / 2;

        for a in 0..self.buses {
            let ra = a % routes;
            // Partner routes with a positive meeting rate, deduped. At most
            // four: the bus's own route, the two ring neighbours, and the
            // hub partner when `ra` is an endpoint of the hub pair.
            let mut partner_routes = [ra, 0, 0, 0];
            let mut partner_count = 1;
            let mut push_route = |r: u32| {
                if !partner_routes[..partner_count].contains(&r) {
                    partner_routes[partner_count] = r;
                    partner_count += 1;
                }
            };
            // With one route there is nothing to cross; with more, the ring
            // neighbours differ from `ra` and the hub from route 0.
            if routes > 1 {
                push_route((ra + 1) % routes);
                push_route((ra + routes - 1) % routes);
                if ra == 0 {
                    push_route(hub);
                } else if ra == hub {
                    push_route(0);
                }
            }
            let partner_routes = &partner_routes[..partner_count];

            // Ascending merge over the partner buckets (each bucket is the
            // arithmetic sequence rb, rb+routes, …): heads[i] is the next
            // not-yet-visited bus > a on partner_routes[i]. Visiting
            // partners in ascending b order reproduces the all-pairs RNG
            // draw order exactly.
            let mut heads = [u32::MAX; 4];
            for (i, &rb) in partner_routes.iter().enumerate() {
                let k = if a < rb { 0 } else { (a - rb) / routes + 1 };
                let first = rb as u64 + k as u64 * routes as u64;
                if first < self.buses as u64 {
                    heads[i] = first as u32;
                }
            }
            loop {
                let mut min_i = usize::MAX;
                let mut b = u32::MAX;
                for (i, &head) in heads[..partner_count].iter().enumerate() {
                    if head < b {
                        b = head;
                        min_i = i;
                    }
                }
                if min_i == usize::MAX {
                    break;
                }
                heads[min_i] = match b.checked_add(routes) {
                    Some(next) if next < self.buses => next,
                    _ => u32::MAX,
                };
                let rate = if b % routes == ra {
                    SAME_ROUTE_RATE_PER_DAY
                } else {
                    CROSSING_ROUTE_RATE_PER_DAY
                };
                self.emit_pair(&mut rng, a, b, rate, sink);
            }
        }
    }

    /// Draws and emits all meetings of one positive-rate pair over the
    /// configured days. Shared by the indexed sweep and the all-pairs
    /// oracle so both make the identical RNG draws per pair.
    fn emit_pair<S: ContactSink + ?Sized>(
        &self,
        rng: &mut StdRng,
        a: u32,
        b: u32,
        rate: f64,
        sink: &mut S,
    ) {
        for day in 0..self.days {
            let meetings = sample_poisson(rng, rate);
            for _ in 0..meetings {
                let offset = rng.gen_range(0..SERVICE_SECS);
                let start = day * SECONDS_PER_DAY + SERVICE_START_HOUR * 3_600 + offset;
                let dur = sample_exponential(rng, MEAN_CONTACT_SECS).round().max(5.0) as u64;
                let end = (start + dur).min(day * SECONDS_PER_DAY + SERVICE_END_HOUR * 3_600);
                if end <= start {
                    continue;
                }
                let contact = Contact::pairwise(
                    NodeId::new(a),
                    NodeId::new(b),
                    SimTime::from_secs(start),
                    SimTime::from_secs(end),
                )
                .expect("generator produces valid contacts");
                sink.push_contact(contact);
            }
        }
    }
}

/// Samples a Poisson random variate with the given mean via inversion
/// (Knuth's algorithm); fine for the small rates used here.
pub(crate) fn sample_poisson<R: Rng>(rng: &mut R, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            // Defensive cap; unreachable for the rates this crate uses.
            return k;
        }
    }
}

/// Samples an exponential variate with the given mean.
pub(crate) fn sample_exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateGraph;
    use crate::stats::{FrequentScan, TraceStats};
    use proptest::prelude::*;

    impl DieselNetConfig {
        /// The original all-pairs enumeration, the equivalence oracle for the
        /// indexed sweep in [`DieselNetConfig::generate_into`]. O(buses²).
        fn generate_into_all_pairs<S: ContactSink + ?Sized>(&self, sink: &mut S) {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD1E5_E1DE);
            let route_of: Vec<u32> = (0..self.buses).map(|b| b % self.routes).collect();

            // Routes cross if adjacent in a ring layout (route r crosses r±1) or
            // share the downtown hub (routes 0 and routes/2).
            let crosses = |ra: u32, rb: u32| -> bool {
                if ra == rb {
                    return true;
                }
                let d = ra.abs_diff(rb);
                d == 1 || d == self.routes - 1 || (ra.min(rb) == 0 && ra.max(rb) == self.routes / 2)
            };

            for a in 0..self.buses {
                for b in (a + 1)..self.buses {
                    let (ra, rb) = (route_of[a as usize], route_of[b as usize]);
                    let rate = if ra == rb {
                        SAME_ROUTE_RATE_PER_DAY
                    } else if crosses(ra, rb) {
                        CROSSING_ROUTE_RATE_PER_DAY
                    } else {
                        continue;
                    };
                    self.emit_pair(&mut rng, a, b, rate, sink);
                }
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = DieselNetConfig::new(10, 3).seed(7).generate();
        let b = DieselNetConfig::new(10, 3).seed(7).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_into_builder_matches_generate() {
        let cfg = DieselNetConfig::new(12, 4).seed(7);
        let mut builder = Vec::new();
        cfg.generate_into(&mut builder);
        assert_eq!(ContactTrace::from_iter(builder), cfg.generate());
    }

    #[test]
    fn indexed_sweep_matches_all_pairs_oracle() {
        // Route counts that stress the candidate-set edges: a single route,
        // the routes=2 hub/adjacency overlap, odd counts, more routes than
        // buses, and the default 8.
        for routes in [1u32, 2, 3, 5, 8, 40] {
            let cfg = DieselNetConfig::new(33, 3).seed(21).routes(routes);
            let mut indexed = Vec::new();
            cfg.generate_into(&mut indexed);
            let mut all_pairs = Vec::new();
            cfg.generate_into_all_pairs(&mut all_pairs);
            assert_eq!(
                ContactTrace::from_iter(indexed),
                ContactTrace::from_iter(all_pairs),
                "routes={routes}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn dieselnet_indexed_sweep_equals_oracle(
            buses in 2u32..=256, days in 1u64..5, seed in 0u64..1_000, routes in 1u32..16
        ) {
            let cfg = DieselNetConfig::new(buses, days).seed(seed).routes(routes);
            let mut indexed = Vec::new();
            cfg.generate_into(&mut indexed);
            let mut oracle = Vec::new();
            cfg.generate_into_all_pairs(&mut oracle);
            prop_assert_eq!(ContactTrace::from_iter(indexed), ContactTrace::from_iter(oracle));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = DieselNetConfig::new(10, 3).seed(1).generate();
        let b = DieselNetConfig::new(10, 3).seed(2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn all_contacts_pairwise() {
        let t = DieselNetConfig::new(20, 5).seed(3).generate();
        assert!(!t.is_empty());
        assert!(t.iter().all(|c| c.size() == 2));
    }

    #[test]
    fn contacts_respect_service_hours() {
        let cfg = DieselNetConfig::new(15, 4).seed(9);
        let t = cfg.generate();
        for c in t.iter() {
            let sod = c.start().second_of_day();
            assert!(
                sod >= 6 * 3600,
                "contact starts before service at {}",
                c.start()
            );
            assert!(
                sod < 22 * 3600,
                "contact starts after service at {}",
                c.start()
            );
            assert!(c.end().second_of_day() <= 22 * 3600 || c.end().second_of_day() == 0);
        }
    }

    #[test]
    fn contacts_are_short() {
        let t = DieselNetConfig::new(20, 5).seed(5).generate();
        let stats = TraceStats::compute(&t);
        let mean = stats.mean_contact_duration_secs().unwrap();
        assert!(
            mean > 10.0 && mean < 200.0,
            "mean duration {mean} out of range"
        );
    }

    #[test]
    fn same_route_pairs_meet_more() {
        // Buses 0 and 8 share route 0 (with 8 routes and `b % routes`);
        // buses 0 and 4 are on crossing-but-different routes (0 and 4 = hub).
        let t = DieselNetConfig::new(16, 30).seed(11).generate();
        let graph = AggregateGraph::from_trace(&t);
        let same = graph.meeting_count(NodeId::new(0), NodeId::new(8));
        let cross = graph.meeting_count(NodeId::new(0), NodeId::new(4));
        assert!(
            same > cross,
            "same-route pair ({same}) should out-meet crossing pair ({cross})"
        );
    }

    #[test]
    fn unrelated_routes_never_meet() {
        // Routes 2 and 5 neither adjacent nor the hub pair (0, 4) with 8 routes.
        let t = DieselNetConfig::new(16, 30).seed(13).generate();
        let graph = AggregateGraph::from_trace(&t);
        assert_eq!(graph.meeting_count(NodeId::new(2), NodeId::new(5)), 0);
    }

    #[test]
    fn frequent_contacts_exist_with_default_rates() {
        let cfg = DieselNetConfig::new(16, 9).seed(17);
        let t = cfg.generate();
        let mut scan = FrequentScan::new(crate::stats::DIESELNET_FREQUENT_EVERY);
        for contact in t.iter() {
            scan.observe(contact);
        }
        let any_frequent = scan.finish().values().any(|peers| !peers.is_empty());
        assert!(
            any_frequent,
            "expected at least one frequent pair over 9 days"
        );
    }

    #[test]
    fn poisson_mean_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, 2.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "poisson mean {mean}");
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| sample_exponential(&mut rng, 45.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 45.0).abs() < 3.0, "exponential mean {mean}");
    }
}
