//! Community-based mobility trace generator.
//!
//! A caveman-style model widely used in the DTN literature (e.g. the social
//! pocket-switched-network line of work the paper cites as \[6\]): nodes
//! belong to *home communities* that gather daily; a fraction of nodes are
//! *travelers* who sometimes visit another community's gathering. Contacts
//! within a gathering are cliques. The result is a clustered contact graph
//! with sparse inter-community bridges — the regime where store-carry-forward
//! relaying (and MBT's query distribution to frequent contacts) matters most.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::{SimTime, SECONDS_PER_DAY};
use crate::trace::{ContactSink, ContactTrace};

/// Home communities; node `n` lives in community `n % COMMUNITIES`.
const COMMUNITIES: u32 = 4;
/// The fraction of nodes that are travelers (the lowest-indexed ones).
const TRAVELER_FRACTION: f64 = 0.2;
/// The per-gathering probability that a traveler visits a foreign community.
const TRAVEL_PROBABILITY: f64 = 0.3;
/// The length of a gathering: one hour.
const GATHERING_SECS: u64 = 3_600;
/// Gatherings per community per day.
const GATHERINGS_PER_DAY: u32 = 2;
/// The probability that a node attends a gathering.
const ATTENDANCE: f64 = 0.9;

/// Configuration for the community generator.
///
/// # Example
///
/// ```
/// use dtn_trace::generators::CommunityConfig;
///
/// let trace = CommunityConfig::new(40, 10).seed(5).generate();
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CommunityConfig {
    nodes: u32,
    days: u64,
    seed: u64,
}

impl CommunityConfig {
    /// Creates a configuration: `nodes` nodes over `days` days in 4
    /// communities, 20 % travelers who travel 30 % of the time, two 1-hour
    /// gatherings per day, 90 % attendance.
    pub fn new(nodes: u32, days: u64) -> Self {
        CommunityConfig {
            nodes,
            days,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the clique contact trace.
    pub fn generate(&self) -> ContactTrace {
        let mut contacts = Vec::new();
        self.generate_into(&mut contacts);
        contacts.into_iter().collect()
    }

    /// Generates the trace directly into `sink` — e.g. a
    /// [`ShardWriter`](crate::shard::ShardWriter) — without holding the full
    /// contact list in memory. The contact sequence (and RNG draw order) is
    /// identical to [`CommunityConfig::generate`], emitted in generation
    /// order rather than sorted order.
    ///
    /// Attendance is bucketed per community (never node × node) and the
    /// per-slot venue buckets are reused across slots, so steady-state cost
    /// is O(attendance draws + clique members). Output is byte-identical to
    /// the fresh-allocation loop it replaced, which the unit tests keep as
    /// their oracle.
    pub fn generate_into<S: ContactSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC033_7411);
        // Travelers are the lowest-indexed members of each community slot.
        let traveler_count = ((self.nodes as f64) * TRAVELER_FRACTION).round() as u32;
        let is_traveler = |n: u32| n < traveler_count;

        let slot_gap = (12 * 3_600) / u64::from(GATHERINGS_PER_DAY);
        let mut attendees: Vec<Vec<NodeId>> = vec![Vec::new(); COMMUNITIES as usize];
        for day in 0..self.days {
            for slot in 0..GATHERINGS_PER_DAY {
                let start_secs = day * SECONDS_PER_DAY + 8 * 3_600 + u64::from(slot) * slot_gap;
                // Where does each node gather this slot?
                for bucket in &mut attendees {
                    bucket.clear();
                }
                for n in 0..self.nodes {
                    if rng.gen::<f64>() >= ATTENDANCE {
                        continue;
                    }
                    let home = n % COMMUNITIES;
                    let venue = if is_traveler(n) && rng.gen::<f64>() < TRAVEL_PROBABILITY {
                        // Visit a uniformly random foreign community.
                        let mut v = rng.gen_range(0..COMMUNITIES - 1);
                        if v >= home {
                            v += 1;
                        }
                        v
                    } else {
                        home
                    };
                    attendees[venue as usize].push(NodeId::new(n));
                }
                for members in &attendees {
                    if members.len() < 2 {
                        continue;
                    }
                    let contact = Contact::clique(
                        members.clone(),
                        SimTime::from_secs(start_secs),
                        SimTime::from_secs(start_secs + GATHERING_SECS),
                    )
                    .expect("generator produces valid cliques");
                    sink.push_contact(contact);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateGraph;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    impl CommunityConfig {
        /// The original per-slot fresh-allocation loop, the equivalence oracle
        /// for the bucket-reusing path in [`CommunityConfig::generate_into`].
        fn generate_into_all_pairs<S: ContactSink + ?Sized>(&self, sink: &mut S) {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC033_7411);
            let traveler_count = ((self.nodes as f64) * TRAVELER_FRACTION).round() as u32;
            let is_traveler = |n: u32| n < traveler_count;

            let slot_gap = (12 * 3_600) / u64::from(GATHERINGS_PER_DAY);
            for day in 0..self.days {
                for slot in 0..GATHERINGS_PER_DAY {
                    let start_secs = day * SECONDS_PER_DAY + 8 * 3_600 + u64::from(slot) * slot_gap;
                    let mut attendees: Vec<Vec<NodeId>> = vec![Vec::new(); COMMUNITIES as usize];
                    for n in 0..self.nodes {
                        if rng.gen::<f64>() >= ATTENDANCE {
                            continue;
                        }
                        let home = n % COMMUNITIES;
                        let venue = if is_traveler(n) && rng.gen::<f64>() < TRAVEL_PROBABILITY {
                            let mut v = rng.gen_range(0..COMMUNITIES - 1);
                            if v >= home {
                                v += 1;
                            }
                            v
                        } else {
                            home
                        };
                        attendees[venue as usize].push(NodeId::new(n));
                    }
                    for members in attendees {
                        if members.len() < 2 {
                            continue;
                        }
                        let contact = Contact::clique(
                            members,
                            SimTime::from_secs(start_secs),
                            SimTime::from_secs(start_secs + GATHERING_SECS),
                        )
                        .expect("generator produces valid cliques");
                        sink.push_contact(contact);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = CommunityConfig::new(30, 5).seed(3).generate();
        let b = CommunityConfig::new(30, 5).seed(3).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_into_matches_all_pairs_oracle() {
        for seed in [31, 32, 33] {
            let cfg = CommunityConfig::new(37, 6).seed(seed);
            let mut streamed = Vec::new();
            cfg.generate_into(&mut streamed);
            let mut oracle = Vec::new();
            cfg.generate_into_all_pairs(&mut oracle);
            assert_eq!(
                ContactTrace::from_iter(streamed),
                ContactTrace::from_iter(oracle),
                "seed={seed}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn community_streaming_path_equals_oracle(
            nodes in 2u32..=256, days in 1u64..5, seed in 0u64..1_000
        ) {
            let cfg = CommunityConfig::new(nodes, days).seed(seed);
            let mut streamed = Vec::new();
            cfg.generate_into(&mut streamed);
            let mut oracle = Vec::new();
            cfg.generate_into_all_pairs(&mut oracle);
            prop_assert_eq!(ContactTrace::from_iter(streamed), ContactTrace::from_iter(oracle));
        }
    }

    #[test]
    fn produces_cliques_every_day() {
        let t = CommunityConfig::new(40, 6).seed(1).generate();
        assert!(!t.is_empty());
        let days: std::collections::BTreeSet<u64> = t.iter().map(|c| c.start().day()).collect();
        assert_eq!(days.len(), 6, "gatherings every day");
        assert!(t.iter().any(|c| c.size() > 2));
    }

    #[test]
    fn home_community_members_meet_often() {
        let cfg = CommunityConfig::new(40, 10).seed(2);
        let t = cfg.generate();
        let graph = AggregateGraph::from_trace(&t);
        // Nodes 4 and 8 share home community 0 (n % 4); nodes 5 and 6 do not.
        // (Use non-travelers: with 20% travelers, nodes 0..8 are travelers.)
        let same = graph.meeting_count(NodeId::new(12), NodeId::new(16));
        let diff = graph.meeting_count(NodeId::new(13), NodeId::new(16));
        assert!(same > diff, "same-community {same} vs cross {diff}");
    }

    #[test]
    fn no_travelers_means_no_bridges() {
        let t = CommunityConfig::new(40, 5).seed(3).generate();
        let graph = AggregateGraph::from_trace(&t);
        // Nodes 8..40 never travel: 12 (home 0) never meets 13 (home 1), and
        // does meet 16 (home 0).
        assert_eq!(graph.meeting_count(NodeId::new(12), NodeId::new(13)), 0);
        assert!(graph.meeting_count(NodeId::new(12), NodeId::new(16)) > 0);
    }

    #[test]
    fn travelers_create_bridges() {
        let t = CommunityConfig::new(40, 20).seed(4).generate();
        let graph = AggregateGraph::from_trace(&t);
        // Node 0 (traveler, home 0) visits node 13 (stays home in 1).
        assert!(graph.meeting_count(NodeId::new(0), NodeId::new(13)) > 0);
    }

    #[test]
    fn two_one_hour_gatherings_a_day() {
        let t = CommunityConfig::new(40, 3).seed(7).generate();
        let starts: std::collections::BTreeSet<u64> =
            t.iter().map(|c| c.start().second_of_day()).collect();
        assert_eq!(starts, [8 * 3_600, 14 * 3_600].into());
        assert!(t.iter().all(|c| c.duration() == SimDuration::from_hours(1)));
    }

    #[test]
    fn gatherings_do_not_overlap_per_node() {
        let t = CommunityConfig::new(30, 4).seed(5).generate();
        let mut by_start: std::collections::BTreeMap<u64, Vec<&Contact>> =
            std::collections::BTreeMap::new();
        for c in t.iter() {
            by_start.entry(c.start().as_secs()).or_default().push(c);
        }
        for group in by_start.values() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    for p in a.participants() {
                        assert!(!b.involves(*p), "node {p} in two venues at once");
                    }
                }
            }
        }
    }
}
