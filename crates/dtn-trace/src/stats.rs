//! Trace statistics and the paper's frequent-contact rule.
//!
//! The MBT paper determines each node's *frequent contacting nodes* from
//! statistics of the traces (§VI-A): in the UMassDieselNet trace, nodes that
//! have contacts at least every three days; in the NUS student trace, nodes
//! that have contacts at least once per day. The rule cuts absolute time
//! into windows of length `every` (window `start / every`) and calls a pair
//! frequent when it has a contact starting in every window in which any
//! contact starts. Windows in which the whole network is idle (weekends on a
//! campus, overnight gaps) do not count: "at least once per day" means per
//! day the network is active.
//!
//! The rule is written once, as a fold over the windows' distinct pairs.
//! [`FrequentScan`] feeds it from a contact stream and
//! [`ShardedTrace`](crate::ShardedTrace) from its pair sidecars, so the two
//! agree by construction. [`TraceStats`] holds the descriptive numbers
//! `mbt trace-stats` prints.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::SimDuration;
use crate::trace::ContactTrace;

/// Descriptive statistics of a [`ContactTrace`].
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, NodeId, SimTime, TraceStats, SimDuration};
///
/// let trace: ContactTrace = vec![
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(0), SimTime::from_secs(60))?,
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(86_400), SimTime::from_secs(86_460))?,
/// ]
/// .into_iter()
/// .collect();
///
/// let stats = TraceStats::compute(&trace);
/// assert_eq!(stats.mean_contact_duration_secs(), Some(60.0));
/// assert_eq!(stats.pooled_inter_contact_times(), [SimDuration::from_days(1)]);
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceStats {
    mean_duration_secs: Option<f64>,
    mean_size: Option<f64>,
    /// Every pair's gaps between consecutive contact starts, pooled, sorted.
    inter_contact_times: Vec<SimDuration>,
}

impl TraceStats {
    /// Computes the statistics of `trace` in one pass.
    ///
    /// Clique contacts contribute one pair-event to every unordered pair of
    /// participants (students in one classroom all "meet" each other).
    pub fn compute(trace: &ContactTrace) -> Self {
        let mut duration_total_secs = 0u64;
        let mut size_total = 0usize;
        let mut last_start = HashMap::new();
        let mut inter_contact_times = Vec::new();
        // The trace iterates in start order, so each pair's gaps come out
        // between consecutive starts.
        for contact in trace.iter() {
            duration_total_secs += contact.duration().as_secs();
            size_total += contact.size();
            for pair in contact.pairs() {
                if let Some(previous) = last_start.insert(pair, contact.start()) {
                    inter_contact_times.push(contact.start().duration_since(previous));
                }
            }
        }
        inter_contact_times.sort_unstable();
        let mean = |total: f64| (!trace.is_empty()).then(|| total / trace.len() as f64);
        TraceStats {
            mean_duration_secs: mean(duration_total_secs as f64),
            mean_size: mean(size_total as f64),
            inter_contact_times,
        }
    }

    /// Mean contact duration in seconds, or `None` for an empty trace.
    pub fn mean_contact_duration_secs(&self) -> Option<f64> {
        self.mean_duration_secs
    }

    /// Mean clique size over all contacts (2.0 for a pair-wise trace), or
    /// `None` for an empty trace.
    pub fn mean_contact_size(&self) -> Option<f64> {
        self.mean_size
    }

    /// All inter-contact times (gaps between a pair's consecutive contact
    /// starts) across all pairs, pooled and sorted.
    pub fn pooled_inter_contact_times(&self) -> &[SimDuration] {
        &self.inter_contact_times
    }
}

/// A pair `(a, b)` as one integer whose order is the pair's order.
pub(crate) fn pack((a, b): (NodeId, NodeId)) -> u64 {
    u64::from(a.raw()) << 32 | u64::from(b.raw())
}

/// The pair [`pack`] made `pair` of.
pub(crate) fn unpack(pair: u64) -> (NodeId, NodeId) {
    (NodeId::new((pair >> 32) as u32), NodeId::new(pair as u32))
}

/// The frequent-contact rule: fed the distinct pairs of each rule window
/// that holds a contact start, packed and ascending, it keeps the pairs
/// every one of those windows holds. A window with no contact is never fed,
/// and with no window fed nothing is frequent.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowFold {
    /// The pairs in every window fed so far; `None` before the first.
    frequent: Option<Vec<u64>>,
}

impl WindowFold {
    /// Feeds one window's distinct pairs, packed and ascending.
    pub(crate) fn window(&mut self, pairs: Vec<u64>) {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "pairs not ascending");
        self.frequent = Some(match self.frequent.take() {
            None => pairs,
            Some(mut frequent) => {
                // Both ascending: one walk of `pairs` serves every probe.
                let mut rest = pairs.iter().peekable();
                frequent.retain(|pair| {
                    while rest.next_if(|other| *other < pair).is_some() {}
                    rest.peek() == Some(&pair)
                });
                frequent
            }
        });
    }

    /// Maps every node of `nodes` to its frequent peers, ascending; `None`
    /// if a frequent pair names a node `nodes` lacks.
    pub(crate) fn finish(
        self,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Option<BTreeMap<NodeId, Vec<NodeId>>> {
        let mut map: BTreeMap<NodeId, Vec<NodeId>> =
            nodes.into_iter().map(|n| (n, Vec::new())).collect();
        for (a, b) in self.frequent.unwrap_or_default().into_iter().map(unpack) {
            // Pairs iterate ascending with a < b, so each node's peer list
            // comes out ascending without a final sort.
            map.get_mut(&a)?.push(b);
            map.get_mut(&b)?.push(a);
        }
        Some(map)
    }
}

/// The frequent-contact map of a contact stream, in one pass.
///
/// The scan collects the pairs of the rule window the stream is in and
/// folds them as soon as the stream moves past it, so it holds one window's
/// pairs and the surviving intersection, never a per-pair history.
///
/// Contacts must be observed in nondecreasing start order — the order every
/// [`ContactStream`](crate::ContactStream) and [`ContactTrace`] iteration
/// yields. Observing a contact whose window the stream has already left
/// panics rather than returning a silently wrong map.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, FrequentScan, NodeId, SimDuration, SimTime};
///
/// let meet = |a, b, day| {
///     let start = SimTime::ZERO + SimDuration::from_days(day);
///     Contact::pairwise(NodeId::new(a), NodeId::new(b), start, start + SimDuration::from_secs(60))
/// };
/// // Nodes 0 and 1 meet every day; 0 and 2 on day 1 only.
/// let mut scan = FrequentScan::new(SimDuration::from_days(1));
/// for contact in [meet(0, 1, 0)?, meet(0, 1, 1)?, meet(0, 2, 1)?, meet(0, 1, 2)?] {
///     scan.observe(&contact);
/// }
/// let map = scan.finish();
/// assert_eq!(map[&NodeId::new(0)], [NodeId::new(1)]);
/// assert!(map[&NodeId::new(2)].is_empty());
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrequentScan {
    every_secs: u64,
    /// The rule window the stream is in.
    window: u64,
    /// The packed pairs of the contacts seen in `window`; empty only before
    /// the first contact.
    pairs: Vec<u64>,
    fold: WindowFold,
    nodes: BTreeSet<NodeId>,
}

impl FrequentScan {
    /// Starts a scan with the rule's window length (3 days for DieselNet,
    /// 1 day for NUS in the paper). A zero-length window holds no contact,
    /// so nothing is frequent.
    pub fn new(every: SimDuration) -> Self {
        FrequentScan {
            every_secs: every.as_secs(),
            window: 0,
            pairs: Vec::new(),
            fold: WindowFold::default(),
            nodes: BTreeSet::new(),
        }
    }

    /// Feeds one contact.
    ///
    /// # Panics
    ///
    /// Panics if `contact` starts in a window before the one the stream is
    /// in — i.e. when contacts arrive out of start order.
    pub fn observe(&mut self, contact: &Contact) {
        self.nodes.extend(contact.participants().iter().copied());
        if self.every_secs == 0 {
            return;
        }
        let window = contact.start().as_secs() / self.every_secs;
        if window != self.window {
            assert!(
                self.pairs.is_empty() || window > self.window,
                "FrequentScan requires nondecreasing contact starts \
                 (window {window} after window {})",
                self.window
            );
            self.fold_window();
            self.window = window;
        }
        self.pairs.extend(contact.pairs().map(pack));
    }

    /// Folds the current window's pairs, if it holds any.
    fn fold_window(&mut self) {
        if !self.pairs.is_empty() {
            let mut pairs = std::mem::take(&mut self.pairs);
            pairs.sort_unstable();
            pairs.dedup();
            self.fold.window(pairs);
        }
    }

    /// Finishes the scan: every node observed, mapped to its frequent peers
    /// in ascending order.
    pub fn finish(mut self) -> BTreeMap<NodeId, Vec<NodeId>> {
        self.fold_window();
        self.fold
            .finish(self.nodes)
            .expect("every pair's nodes were observed")
    }
}

/// Convenience: the paper's frequent-contact rule for the DieselNet trace
/// (contacts at least every three days).
pub const DIESELNET_FREQUENT_EVERY: SimDuration = SimDuration::from_days(3);

/// Convenience: the paper's frequent-contact rule for the NUS student trace
/// (contacts at least once per day).
pub const NUS_FREQUENT_EVERY: SimDuration = SimDuration::from_days(1);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    fn day(d: u64) -> u64 {
        d * crate::SECONDS_PER_DAY
    }

    fn trace(contacts: Vec<Contact>) -> ContactTrace {
        contacts.into_iter().collect()
    }

    fn scan_of(trace: &ContactTrace, every: SimDuration) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut scan = FrequentScan::new(every);
        for contact in trace.iter() {
            scan.observe(contact);
        }
        scan.finish()
    }

    fn peers_of(map: &BTreeMap<NodeId, Vec<NodeId>>, node: u32) -> Vec<u32> {
        map[&NodeId::new(node)].iter().map(|n| n.raw()).collect()
    }

    #[test]
    fn counts_and_durations() {
        let s = TraceStats::compute(&trace(vec![pc(0, 1, 0, 30), pc(0, 1, 100, 160)]));
        assert_eq!(s.mean_contact_duration_secs(), Some(45.0));
        assert_eq!(s.mean_contact_size(), Some(2.0));
        assert_eq!(
            s.pooled_inter_contact_times(),
            [SimDuration::from_secs(100)]
        );
    }

    #[test]
    fn empty_trace_stats() {
        let s = TraceStats::compute(&ContactTrace::default());
        assert_eq!(s.mean_contact_duration_secs(), None);
        assert_eq!(s.mean_contact_size(), None);
        assert!(s.pooled_inter_contact_times().is_empty());
        assert!(scan_of(&ContactTrace::default(), SimDuration::from_days(1)).is_empty());
    }

    #[test]
    fn inter_contact_times_per_pair() {
        let t = trace(vec![
            pc(0, 1, 0, 10),
            pc(0, 1, 100, 110),
            pc(0, 1, 250, 260),
        ]);
        assert_eq!(
            TraceStats::compute(&t).pooled_inter_contact_times(),
            [SimDuration::from_secs(100), SimDuration::from_secs(150)]
        );
    }

    #[test]
    fn clique_counts_all_pairs() {
        let clique = |start: u64| {
            Contact::clique(
                vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                SimTime::from_secs(start),
                SimTime::from_secs(start + 10),
            )
            .unwrap()
        };
        let t = trace(vec![clique(day(0)), clique(day(1))]);
        let s = TraceStats::compute(&t);
        assert_eq!(s.mean_contact_size(), Some(3.0));
        // Each of the three pairs met twice, a day apart.
        assert_eq!(
            s.pooled_inter_contact_times(),
            [SimDuration::from_days(1); 3]
        );
        let map = scan_of(&t, SimDuration::from_days(1));
        assert_eq!(peers_of(&map, 0), [1, 2]);
        assert_eq!(peers_of(&map, 1), [0, 2]);
        assert_eq!(peers_of(&map, 2), [0, 1]);
    }

    #[test]
    fn frequent_contacts_daily_pair() {
        // Nodes 0 and 1 meet once per day for 3 days; node 2 meets node 0 only once.
        let t = trace(vec![
            pc(0, 1, day(0) + 100, day(0) + 200),
            pc(0, 1, day(1) + 100, day(1) + 200),
            pc(0, 1, day(2) + 100, day(2) + 200),
            pc(0, 2, day(1) + 500, day(1) + 600),
        ]);
        let map = scan_of(&t, SimDuration::from_days(1));
        assert_eq!(peers_of(&map, 0), [1]);
        assert!(peers_of(&map, 2).is_empty());
    }

    #[test]
    fn frequent_contacts_respects_gap() {
        // A two-day hole breaks the "at least every day" rule. Other pairs
        // keep the network active every day, so the idle-window exemption
        // does not apply.
        let t = trace(vec![
            pc(0, 1, day(0) + 100, day(0) + 200),
            pc(0, 1, day(3) + 100, day(3) + 200),
            pc(2, 3, day(1) + 100, day(1) + 200),
            pc(2, 3, day(2) + 100, day(2) + 200),
        ]);
        assert!(peers_of(&scan_of(&t, SimDuration::from_days(1)), 0).is_empty());
        // But the looser 3-day DieselNet rule tolerates it: windows [0,3d)
        // and [3d,6d) each hold a (0,1) contact.
        assert_eq!(peers_of(&scan_of(&t, DIESELNET_FREQUENT_EVERY), 0), [1]);
    }

    #[test]
    fn globally_idle_windows_are_exempt() {
        // Contacts only on "school days" 0 and 3 for everyone: the network
        // itself was idle on days 1-2, so a pair meeting on both active days
        // still counts as frequent under the 1-day rule.
        let t = trace(vec![
            pc(0, 1, day(0) + 100, day(0) + 200),
            pc(0, 1, day(3) + 100, day(3) + 200),
            pc(2, 3, day(0) + 300, day(0) + 400),
            pc(2, 3, day(3) + 300, day(3) + 400),
        ]);
        let map = scan_of(&t, SimDuration::from_days(1));
        assert_eq!(peers_of(&map, 0), [1]);
        assert_eq!(peers_of(&map, 3), [2]);
    }

    #[test]
    fn frequent_contact_map_covers_all_nodes() {
        let map = scan_of(&trace(vec![pc(0, 1, 100, 200)]), SimDuration::from_days(1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn mean_contact_size_pairwise_is_two() {
        let s = TraceStats::compute(&trace(vec![pc(0, 1, 0, 10)]));
        assert_eq!(s.mean_contact_size(), Some(2.0));
    }

    #[test]
    fn frequent_scan_matches_map_on_daily_and_gapped_traces() {
        // The 1-day and 3-day maps of `t` have exactly `daily` and
        // `three_daily` as frequent pairs.
        let check = |t: ContactTrace, daily: &[(u32, u32)], three_daily: &[(u32, u32)]| {
            for (every, pairs) in [(1, daily), (3, three_daily)] {
                let mut expected: BTreeMap<NodeId, Vec<NodeId>> =
                    t.nodes().into_iter().map(|n| (n, Vec::new())).collect();
                for &(a, b) in pairs {
                    let [a, b] = [a, b].map(NodeId::new);
                    expected.get_mut(&a).unwrap().push(b);
                    expected.get_mut(&b).unwrap().push(a);
                }
                assert_eq!(scan_of(&t, SimDuration::from_days(every)), expected);
            }
        };
        // Daily pair plus a one-off.
        check(
            trace(vec![
                pc(0, 1, day(0) + 100, day(0) + 200),
                pc(0, 1, day(1) + 100, day(1) + 200),
                pc(0, 1, day(2) + 100, day(2) + 200),
                pc(0, 2, day(1) + 500, day(1) + 600),
            ]),
            &[(0, 1)],
            &[(0, 1), (0, 2)],
        );
        // Two-day hole with the network otherwise active.
        check(
            trace(vec![
                pc(0, 1, day(0) + 100, day(0) + 200),
                pc(2, 3, day(1) + 100, day(1) + 200),
                pc(2, 3, day(2) + 100, day(2) + 200),
                pc(0, 1, day(3) + 100, day(3) + 200),
            ]),
            &[],
            &[(0, 1)],
        );
        // Globally idle days 1-2 (the exemption).
        check(
            trace(vec![
                pc(0, 1, day(0) + 100, day(0) + 200),
                pc(2, 3, day(0) + 300, day(0) + 400),
                pc(0, 1, day(3) + 100, day(3) + 200),
                pc(2, 3, day(3) + 300, day(3) + 400),
            ]),
            &[(0, 1), (2, 3)],
            &[(0, 1), (2, 3)],
        );
        check(ContactTrace::default(), &[], &[]);
    }

    #[test]
    fn frequent_scan_zero_window_is_all_empty() {
        let t = trace(vec![pc(0, 1, 100, 200), pc(0, 1, day(1), day(1) + 100)]);
        let map = scan_of(&t, SimDuration::ZERO);
        assert_eq!(map.len(), 2);
        assert!(map.values().all(Vec::is_empty));
    }

    #[test]
    fn a_late_trace_is_judged_on_the_windows_it_touches() {
        // Pair 0–1 meets on days 0 and 4 only, pair 0–2 every day: under
        // the 1-day rule 0–1 is not frequent, however late the five days lie.
        for offset in [0, 10] {
            let mut contacts = vec![
                pc(0, 1, day(offset) + 100, day(offset) + 200),
                pc(0, 1, day(offset + 4) + 100, day(offset + 4) + 200),
            ];
            contacts.extend((0..5).map(|d| pc(0, 2, day(offset + d) + 300, day(offset + d) + 400)));
            let map = scan_of(&trace(contacts), SimDuration::from_days(1));
            assert_eq!(peers_of(&map, 0), [2], "offset {offset} days");
        }
        // Two windows of 5 s (2 and 3), each with another pair: neither pair
        // is in both, so neither is frequent.
        let t = trace(vec![pc(0, 1, 10, 20), pc(2, 3, 19, 20)]);
        let map = scan_of(&t, SimDuration::from_secs(5));
        assert_eq!(map.len(), 4);
        assert!(map.values().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "nondecreasing contact starts")]
    fn frequent_scan_rejects_out_of_order_folded_window() {
        let mut scan = FrequentScan::new(SimDuration::from_secs(1));
        scan.observe(&pc(0, 1, 0, 1));
        scan.observe(&pc(0, 1, 5, 6));
        scan.observe(&pc(0, 1, 10, 11)); // folds windows 0 and 5
        scan.observe(&pc(2, 3, 0, 1)); // lands in the folded window 0
    }

    #[test]
    fn pooled_inter_contact_times_sorted() {
        let t = trace(vec![
            pc(0, 1, 0, 10),
            pc(0, 1, 500, 510),
            pc(2, 3, 0, 10),
            pc(2, 3, 100, 110),
        ]);
        assert_eq!(
            TraceStats::compute(&t).pooled_inter_contact_times(),
            [SimDuration::from_secs(100), SimDuration::from_secs(500)]
        );
    }
}
