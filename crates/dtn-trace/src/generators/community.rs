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
use crate::time::{SimDuration, SimTime, SECONDS_PER_DAY};
use crate::trace::{ContactSink, ContactTrace};

/// Configuration for the community generator.
///
/// # Example
///
/// ```
/// use dtn_trace::generators::CommunityConfig;
///
/// let trace = CommunityConfig::new(40, 10).communities(4).seed(5).generate();
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CommunityConfig {
    nodes: u32,
    days: u64,
    communities: u32,
    traveler_fraction: f64,
    travel_probability: f64,
    gathering_secs: u64,
    gatherings_per_day: u32,
    attendance: f64,
    seed: u64,
}

impl CommunityConfig {
    /// Creates a configuration: `nodes` nodes over `days` days, defaulting
    /// to 4 communities, 20 % travelers who travel 30 % of the time, two
    /// 1-hour gatherings per day, 90 % attendance.
    pub fn new(nodes: u32, days: u64) -> Self {
        CommunityConfig {
            nodes,
            days,
            communities: 4,
            traveler_fraction: 0.2,
            travel_probability: 0.3,
            gathering_secs: 3_600,
            gatherings_per_day: 2,
            attendance: 0.9,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of communities (default 4).
    ///
    /// # Panics
    ///
    /// Panics if `communities == 0`.
    pub fn communities(mut self, communities: u32) -> Self {
        assert!(communities > 0, "at least one community is required");
        self.communities = communities;
        self
    }

    /// Sets the fraction of nodes that are travelers (default 0.2).
    ///
    /// # Panics
    ///
    /// Panics unless `fraction` ∈ [0, 1].
    pub fn traveler_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.traveler_fraction = fraction;
        self
    }

    /// Sets the per-gathering probability that a traveler visits a foreign
    /// community (default 0.3).
    ///
    /// # Panics
    ///
    /// Panics unless `p` ∈ [0, 1].
    pub fn travel_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.travel_probability = p;
        self
    }

    /// Sets gatherings per community per day (default 2).
    pub fn gatherings_per_day(mut self, n: u32) -> Self {
        self.gatherings_per_day = n.max(1);
        self
    }

    /// Sets the attendance probability (default 0.9).
    ///
    /// # Panics
    ///
    /// Panics unless `p` ∈ [0, 1].
    pub fn attendance(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "attendance must be in [0, 1]");
        self.attendance = p;
        self
    }

    /// The home community of each node under this configuration.
    pub fn home_of(&self, node: NodeId) -> u32 {
        node.raw() % self.communities
    }

    /// Generates the clique contact trace.
    pub fn generate(&self) -> ContactTrace {
        let mut builder = ContactTrace::builder();
        self.generate_into(&mut builder);
        builder.build()
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
        let traveler_count = ((self.nodes as f64) * self.traveler_fraction).round() as u32;
        let is_traveler = |n: u32| n < traveler_count;

        let slot_gap = (12 * 3_600) / u64::from(self.gatherings_per_day).max(1);
        let mut attendees: Vec<Vec<NodeId>> = vec![Vec::new(); self.communities as usize];
        for day in 0..self.days {
            for slot in 0..self.gatherings_per_day {
                let start_secs = day * SECONDS_PER_DAY + 8 * 3_600 + u64::from(slot) * slot_gap;
                // Where does each node gather this slot?
                for bucket in &mut attendees {
                    bucket.clear();
                }
                for n in 0..self.nodes {
                    if self.attendance < 1.0 && rng.gen::<f64>() >= self.attendance {
                        continue;
                    }
                    let home = n % self.communities;
                    let venue = if is_traveler(n)
                        && self.communities > 1
                        && rng.gen::<f64>() < self.travel_probability
                    {
                        // Visit a uniformly random foreign community.
                        let mut v = rng.gen_range(0..self.communities - 1);
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
                        SimTime::from_secs(start_secs + self.gathering_secs),
                    )
                    .expect("generator produces valid cliques");
                    sink.push_contact(contact);
                }
            }
        }
    }

    /// A reasonable frequent-contact window for this model: one day.
    pub fn frequent_contact_window(&self) -> SimDuration {
        SimDuration::from_days(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateGraph;
    use proptest::prelude::*;

    impl CommunityConfig {
        /// The original per-slot fresh-allocation loop, the equivalence oracle
        /// for the bucket-reusing path in [`CommunityConfig::generate_into`].
        fn generate_into_all_pairs<S: ContactSink + ?Sized>(&self, sink: &mut S) {
            let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC033_7411);
            let traveler_count = ((self.nodes as f64) * self.traveler_fraction).round() as u32;
            let is_traveler = |n: u32| n < traveler_count;

            let slot_gap = (12 * 3_600) / u64::from(self.gatherings_per_day).max(1);
            for day in 0..self.days {
                for slot in 0..self.gatherings_per_day {
                    let start_secs = day * SECONDS_PER_DAY + 8 * 3_600 + u64::from(slot) * slot_gap;
                    let mut attendees: Vec<Vec<NodeId>> =
                        vec![Vec::new(); self.communities as usize];
                    for n in 0..self.nodes {
                        if self.attendance < 1.0 && rng.gen::<f64>() >= self.attendance {
                            continue;
                        }
                        let home = n % self.communities;
                        let venue = if is_traveler(n)
                            && self.communities > 1
                            && rng.gen::<f64>() < self.travel_probability
                        {
                            let mut v = rng.gen_range(0..self.communities - 1);
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
                            SimTime::from_secs(start_secs + self.gathering_secs),
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
        for (attendance, travelers) in [(0.9, 0.2), (1.0, 0.0), (0.5, 0.5)] {
            let cfg = CommunityConfig::new(37, 6)
                .seed(31)
                .communities(5)
                .attendance(attendance)
                .traveler_fraction(travelers);
            let mut streamed = ContactTrace::builder();
            cfg.generate_into(&mut streamed);
            let mut oracle = ContactTrace::builder();
            cfg.generate_into_all_pairs(&mut oracle);
            assert_eq!(
                streamed.build(),
                oracle.build(),
                "attendance={attendance} travelers={travelers}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn community_streaming_path_equals_oracle(
            nodes in 2u32..=256, days in 1u64..5, seed in 0u64..1_000,
            communities in 1u32..8, attendance in 0.3f64..1.0
        ) {
            let cfg = CommunityConfig::new(nodes, days)
                .communities(communities)
                .attendance(attendance)
                .seed(seed);
            let mut streamed = ContactTrace::builder();
            cfg.generate_into(&mut streamed);
            let mut oracle = ContactTrace::builder();
            cfg.generate_into_all_pairs(&mut oracle);
            prop_assert_eq!(streamed.build(), oracle.build());
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
        let cfg = CommunityConfig::new(40, 10).seed(2).communities(4);
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
        let cfg = CommunityConfig::new(40, 5)
            .seed(3)
            .communities(4)
            .traveler_fraction(0.0)
            .attendance(1.0);
        let t = cfg.generate();
        let graph = AggregateGraph::from_trace(&t);
        // Any cross-community pair never meets.
        assert_eq!(graph.meeting_count(NodeId::new(0), NodeId::new(1)), 0);
        assert!(graph.meeting_count(NodeId::new(0), NodeId::new(4)) > 0);
    }

    #[test]
    fn travelers_create_bridges() {
        let cfg = CommunityConfig::new(40, 20)
            .seed(4)
            .communities(2)
            .traveler_fraction(0.5)
            .travel_probability(0.5)
            .attendance(1.0);
        let t = cfg.generate();
        let graph = AggregateGraph::from_trace(&t);
        // Node 0 (traveler, home 0) should eventually meet node 1 (home 1).
        assert!(graph.meeting_count(NodeId::new(0), NodeId::new(1)) > 0);
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

    #[test]
    fn zero_attendance_is_empty() {
        let t = CommunityConfig::new(20, 3)
            .seed(6)
            .attendance(0.0)
            .generate();
        assert!(t.is_empty());
    }

    #[test]
    fn home_of_is_modular() {
        let cfg = CommunityConfig::new(10, 1).communities(3);
        assert_eq!(cfg.home_of(NodeId::new(0)), 0);
        assert_eq!(cfg.home_of(NodeId::new(4)), 1);
        assert_eq!(cfg.home_of(NodeId::new(8)), 2);
    }

    #[test]
    #[should_panic(expected = "at least one community")]
    fn rejects_zero_communities() {
        let _ = CommunityConfig::new(10, 1).communities(0);
    }
}
