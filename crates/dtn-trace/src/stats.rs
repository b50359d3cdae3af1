//! Trace statistics.
//!
//! The MBT paper determines each node's *frequent contacting nodes* from
//! statistics of the traces (§VI-A): in the UMassDieselNet trace, nodes that
//! have contacts at least every three days; in the NUS student trace, nodes
//! that have contacts at least once per day. [`TraceStats::frequent_contacts`]
//! implements exactly that rule.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::contact::Contact;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::trace::ContactTrace;

/// Aggregate statistics over a [`ContactTrace`].
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, NodeId, SimTime, TraceStats, SimDuration};
///
/// let trace: ContactTrace = vec![
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_secs(0), SimTime::from_secs(60))?,
///     Contact::pairwise(NodeId::new(0), NodeId::new(1), SimTime::from_days(1), SimTime::from_days(1) + SimDuration::from_secs(60))?,
/// ]
/// .into_iter()
/// .collect();
///
/// let stats = TraceStats::compute(&trace);
/// assert_eq!(stats.contact_count(), 2);
/// assert_eq!(stats.pair_contact_count(NodeId::new(0), NodeId::new(1)), 2);
/// # Ok::<(), dtn_trace::ContactError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TraceStats {
    contact_count: usize,
    span: SimDuration,
    duration_total_secs: u64,
    /// Per unordered pair: sorted contact start times.
    pair_starts: BTreeMap<(NodeId, NodeId), Vec<SimTime>>,
    nodes: Vec<NodeId>,
}

impl TraceStats {
    /// Computes statistics for a trace.
    ///
    /// Clique contacts contribute one pair-event to every unordered pair of
    /// participants (students in one classroom all "meet" each other).
    pub fn compute(trace: &ContactTrace) -> Self {
        Self::compute_stream(trace.iter().cloned())
    }

    /// Computes statistics from one streaming pass, without requiring the
    /// full trace in memory. Contacts may arrive in any order; span, node
    /// set, and per-pair start lists are derived during the pass.
    ///
    /// `compute_stream(trace.iter().cloned())` is identical to
    /// [`TraceStats::compute`] on the same trace.
    pub fn compute_stream<I: IntoIterator<Item = crate::contact::Contact>>(contacts: I) -> Self {
        let mut contact_count = 0usize;
        let mut duration_total_secs = 0u64;
        let mut min_start: Option<SimTime> = None;
        let mut max_end: Option<SimTime> = None;
        let mut pair_starts: BTreeMap<(NodeId, NodeId), Vec<SimTime>> = BTreeMap::new();
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        for contact in contacts {
            contact_count += 1;
            duration_total_secs += contact.duration().as_secs();
            min_start = Some(min_start.map_or(contact.start(), |t| t.min(contact.start())));
            max_end = Some(max_end.map_or(contact.end(), |t| t.max(contact.end())));
            nodes.extend(contact.participants().iter().copied());
            for pair in contact.pairs() {
                pair_starts.entry(pair).or_default().push(contact.start());
            }
        }
        for starts in pair_starts.values_mut() {
            starts.sort_unstable();
        }
        let span = match (min_start, max_end) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => SimDuration::ZERO,
        };
        TraceStats {
            contact_count,
            span,
            duration_total_secs,
            pair_starts,
            nodes: nodes.into_iter().collect(),
        }
    }

    /// Number of contacts in the trace.
    pub fn contact_count(&self) -> usize {
        self.contact_count
    }

    /// Total trace span (first start to last end).
    pub fn span(&self) -> SimDuration {
        self.span
    }

    /// The nodes appearing in the trace, sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Mean contact duration in seconds, or `None` for an empty trace.
    pub fn mean_contact_duration_secs(&self) -> Option<f64> {
        if self.contact_count == 0 {
            return None;
        }
        Some(self.duration_total_secs as f64 / self.contact_count as f64)
    }

    /// Number of contacts between the unordered pair `(a, b)`.
    pub fn pair_contact_count(&self, a: NodeId, b: NodeId) -> usize {
        self.pair_starts
            .get(&ordered(a, b))
            .map_or(0, |starts| starts.len())
    }

    /// Inter-contact times (gaps between consecutive contact starts) for the
    /// unordered pair `(a, b)`.
    pub fn inter_contact_times(&self, a: NodeId, b: NodeId) -> Vec<SimDuration> {
        let Some(starts) = self.pair_starts.get(&ordered(a, b)) else {
            return Vec::new();
        };
        starts
            .windows(2)
            .map(|w| w[1].duration_since(w[0]))
            .collect()
    }

    /// All inter-contact times across all pairs, pooled.
    pub fn pooled_inter_contact_times(&self) -> Vec<SimDuration> {
        let mut out = Vec::new();
        for starts in self.pair_starts.values() {
            out.extend(starts.windows(2).map(|w| w[1].duration_since(w[0])));
        }
        out.sort_unstable();
        out
    }

    /// The *frequent contacting nodes* of `node` under the paper's rule: a
    /// peer is frequent if the pair has at least one contact in every
    /// consecutive window of length `every` across the whole trace span.
    ///
    /// The paper instantiates `every` as 3 days for the UMassDieselNet trace
    /// and 1 day for the NUS student trace (§VI-A). Windows in which the
    /// *entire network* is idle (weekends on a campus trace, overnight gaps)
    /// are skipped — "at least once per day" means per day the network is
    /// active. A pair with no contact at all is never frequent.
    pub fn frequent_contacts(&self, node: NodeId, every: SimDuration) -> Vec<NodeId> {
        if every.is_zero() || self.span.is_zero() {
            return Vec::new();
        }
        let trace_start = SimTime::ZERO;
        let trace_end = trace_start + self.span;
        let mut all_starts: Vec<SimTime> = self
            .pair_starts
            .values()
            .flat_map(|s| s.iter().copied())
            .collect();
        all_starts.sort_unstable();
        let mut result = Vec::new();
        for (&(a, b), starts) in &self.pair_starts {
            let peer = if a == node {
                b
            } else if b == node {
                a
            } else {
                continue;
            };
            if is_regular(starts, &all_starts, trace_start, trace_end, every) {
                result.push(peer);
            }
        }
        result.sort_unstable();
        result
    }

    /// Map from every node to its frequent contacts (see
    /// [`TraceStats::frequent_contacts`]).
    pub fn frequent_contact_map(&self, every: SimDuration) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut map: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &node in &self.nodes {
            map.insert(node, self.frequent_contacts(node, every));
        }
        map
    }

    /// Average clique size over all contacts (2.0 for purely pair-wise traces).
    pub fn mean_contact_size(&self, trace: &ContactTrace) -> Option<f64> {
        if trace.is_empty() {
            return None;
        }
        let total: usize = trace.iter().map(|c| c.size()).sum();
        Some(total as f64 / trace.len() as f64)
    }

    /// Degree of each node: the number of distinct peers it ever contacts.
    pub fn degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut peers: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for &(a, b) in self.pair_starts.keys() {
            peers.entry(a).or_default().insert(b);
            peers.entry(b).or_default().insert(a);
        }
        let mut out: BTreeMap<NodeId, usize> = BTreeMap::new();
        for &node in &self.nodes {
            out.insert(node, peers.get(&node).map_or(0, |s| s.len()));
        }
        out
    }
}

/// True if `starts` has at least one entry in every *active* window of
/// length `every` tiled across `[trace_start, trace_end)`. A window is
/// active when `all_starts` (every contact in the trace, sorted) has at
/// least one entry in it; fully idle windows are skipped.
fn is_regular(
    starts: &[SimTime],
    all_starts: &[SimTime],
    trace_start: SimTime,
    trace_end: SimTime,
    every: SimDuration,
) -> bool {
    if starts.is_empty() {
        return false;
    }
    let mut window_start = trace_start;
    let mut idx = 0usize;
    let mut all_idx = 0usize;
    while window_start < trace_end {
        let window_end = window_start.saturating_add(every);
        while idx < starts.len() && starts[idx] < window_start {
            idx += 1;
        }
        while all_idx < all_starts.len() && all_starts[all_idx] < window_start {
            all_idx += 1;
        }
        let window_active = all_idx < all_starts.len() && all_starts[all_idx] < window_end;
        if window_active {
            let hit = idx < starts.len() && starts[idx] < window_end;
            if !hit {
                return false;
            }
        }
        window_start = window_end;
    }
    true
}

/// Streaming computation of the frequent-contact map.
///
/// Produces exactly [`TraceStats::frequent_contact_map`] — same windows,
/// same idle-window exemption, same vacuous edge cases — from a single pass
/// over the contacts, without retaining per-pair start lists. `TraceStats`
/// keeps every contact start of every pair (O(pair-events) memory) and then
/// re-scans the whole pair table once per node; at city scale both blow up.
/// The scan instead keeps one pair set per *window* of the rule, folds each
/// window into a running intersection as soon as the stream has moved past
/// it, and expands the surviving pairs into per-node lists at the end, so
/// memory is bounded by the pairs active in a handful of windows.
///
/// Contacts must be observed in nondecreasing start order — the order every
/// [`ContactStream`](crate::ContactStream) and [`ContactTrace`] iteration
/// yields. Observing a contact whose window has already been folded panics
/// rather than returning a silently wrong map.
///
/// # Example
///
/// ```
/// use dtn_trace::{Contact, ContactTrace, FrequentScan, NodeId, SimDuration, SimTime, TraceStats};
///
/// let trace: ContactTrace = (0..3)
///     .map(|day| {
///         Contact::pairwise(
///             NodeId::new(0),
///             NodeId::new(1),
///             SimTime::from_days(day),
///             SimTime::from_days(day) + SimDuration::from_secs(60),
///         )
///         .unwrap()
///     })
///     .collect();
/// let every = SimDuration::from_days(1);
/// let mut scan = FrequentScan::new(every);
/// for contact in trace.iter() {
///     scan.observe(contact);
/// }
/// assert_eq!(
///     scan.finish(),
///     TraceStats::compute(&trace).frequent_contact_map(every)
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FrequentScan {
    every_secs: u64,
    min_start: Option<SimTime>,
    max_end: Option<SimTime>,
    max_start_secs: u64,
    /// Windows the stream may still touch or whose validity (window start
    /// inside the final trace span) is still unknown: `(window index, pairs
    /// with a contact start in the window)`, ascending by index. Windows
    /// with no contacts never appear — they are the idle windows the rule
    /// exempts.
    pending: VecDeque<(u64, BTreeSet<(NodeId, NodeId)>)>,
    /// Index below which windows are folded; a contact landing there would
    /// change an already-consumed window.
    min_open_window: u64,
    /// Intersection of every folded window's pair set; `None` until the
    /// first fold.
    frequent: Option<BTreeSet<(NodeId, NodeId)>>,
    /// Every pair seen, kept only until the first fold: when no enumerated
    /// window turns out to be active, the rule holds vacuously and every
    /// pair with at least one contact is frequent.
    union: BTreeSet<(NodeId, NodeId)>,
    nodes: BTreeSet<NodeId>,
}

impl FrequentScan {
    /// Starts a scan with the rule's window length (see
    /// [`TraceStats::frequent_contacts`] for the paper's instantiations).
    pub fn new(every: SimDuration) -> Self {
        FrequentScan {
            every_secs: every.as_secs(),
            min_start: None,
            max_end: None,
            max_start_secs: 0,
            pending: VecDeque::new(),
            min_open_window: 0,
            frequent: None,
            union: BTreeSet::new(),
            nodes: BTreeSet::new(),
        }
    }

    /// Feeds one contact.
    ///
    /// # Panics
    ///
    /// Panics if `contact` starts before a window the scan has already
    /// folded — i.e. when contacts arrive out of start order.
    pub fn observe(&mut self, contact: &Contact) {
        self.nodes.extend(contact.participants().iter().copied());
        let start = contact.start();
        self.min_start = Some(self.min_start.map_or(start, |t| t.min(start)));
        self.max_end = Some(self.max_end.map_or(contact.end(), |t| t.max(contact.end())));
        self.max_start_secs = self.max_start_secs.max(start.as_secs());
        if self.every_secs == 0 {
            return; // A zero-length window yields an all-empty map anyway.
        }
        let window = start.as_secs() / self.every_secs;
        assert!(
            window >= self.min_open_window,
            "FrequentScan requires nondecreasing contact starts \
             (window {window} is already folded)"
        );
        if self.frequent.is_none() {
            self.union.extend(contact.pairs());
        }
        let slot = match self.pending.binary_search_by_key(&window, |&(w, _)| w) {
            Ok(i) => i,
            Err(i) => {
                self.pending.insert(i, (window, BTreeSet::new()));
                i
            }
        };
        self.pending[slot].1.extend(contact.pairs());
        self.fold_ready();
    }

    /// Folds leading pending windows that are *complete* (the stream has
    /// moved past them) and *valid* (their start lies inside the trace span
    /// observed so far — a lower bound on the final span, so a window valid
    /// now is valid at the end). Completeness and validity are both
    /// monotone in the window index, so stopping at the first failure is
    /// exact.
    fn fold_ready(&mut self) {
        let (Some(min_start), Some(max_end)) = (self.min_start, self.max_end) else {
            return;
        };
        let trace_end = max_end.as_secs() - min_start.as_secs();
        while let Some((window, _)) = self.pending.front() {
            let complete = (window + 1)
                .checked_mul(self.every_secs)
                .is_some_and(|end| end <= self.max_start_secs);
            let valid = window
                .checked_mul(self.every_secs)
                .is_some_and(|start| start < trace_end);
            if !(complete && valid) {
                break;
            }
            let (window, pairs) = self.pending.pop_front().expect("front exists");
            self.min_open_window = window + 1;
            self.fold(pairs);
        }
    }

    fn fold(&mut self, window: BTreeSet<(NodeId, NodeId)>) {
        match &mut self.frequent {
            None => {
                self.frequent = Some(window);
                // An active window exists: the vacuous fallback is dead.
                self.union = BTreeSet::new();
            }
            Some(frequent) => frequent.retain(|pair| window.contains(pair)),
        }
    }

    /// Finishes the scan: folds the remaining valid windows against the
    /// final trace span and expands the surviving pairs into the same map
    /// [`TraceStats::frequent_contact_map`] produces — every node in the
    /// trace, mapped to its sorted frequent peers.
    pub fn finish(mut self) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut map: BTreeMap<NodeId, Vec<NodeId>> =
            self.nodes.iter().map(|&n| (n, Vec::new())).collect();
        let span = match (self.min_start, self.max_end) {
            (Some(s), Some(e)) => e.as_secs() - s.as_secs(),
            _ => 0,
        };
        if self.every_secs == 0 || span == 0 {
            return map;
        }
        for (window, pairs) in std::mem::take(&mut self.pending) {
            let valid = window
                .checked_mul(self.every_secs)
                .is_some_and(|start| start < span);
            // Windows at or past the trace end are never enumerated by the
            // rule; contacts there count for nothing.
            if valid {
                self.fold(pairs);
            }
        }
        let frequent = self.frequent.unwrap_or(self.union);
        for (a, b) in frequent {
            // Pairs iterate in sorted order and a < b throughout, so each
            // node's peer list comes out sorted without a final sort.
            map.get_mut(&a)
                .expect("pair nodes are in the node set")
                .push(b);
            map.get_mut(&b)
                .expect("pair nodes are in the node set")
                .push(a);
        }
        map
    }
}

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
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
    use crate::contact::Contact;

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

    #[test]
    fn counts_and_durations() {
        let t: ContactTrace = vec![pc(0, 1, 0, 30), pc(0, 1, 100, 160)]
            .into_iter()
            .collect();
        let s = TraceStats::compute(&t);
        assert_eq!(s.contact_count(), 2);
        assert_eq!(s.mean_contact_duration_secs(), Some(45.0));
        assert_eq!(s.pair_contact_count(NodeId::new(1), NodeId::new(0)), 2);
    }

    #[test]
    fn empty_trace_stats() {
        let s = TraceStats::compute(&ContactTrace::new());
        assert_eq!(s.contact_count(), 0);
        assert_eq!(s.mean_contact_duration_secs(), None);
        assert!(s.pooled_inter_contact_times().is_empty());
    }

    #[test]
    fn inter_contact_times_per_pair() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10), pc(0, 1, 100, 110), pc(0, 1, 250, 260)]
            .into_iter()
            .collect();
        let s = TraceStats::compute(&t);
        assert_eq!(
            s.inter_contact_times(NodeId::new(0), NodeId::new(1)),
            vec![SimDuration::from_secs(100), SimDuration::from_secs(150)]
        );
    }

    #[test]
    fn clique_counts_all_pairs() {
        let c = Contact::clique(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            SimTime::from_secs(0),
            SimTime::from_secs(10),
        )
        .unwrap();
        let t: ContactTrace = vec![c].into_iter().collect();
        let s = TraceStats::compute(&t);
        assert_eq!(s.pair_contact_count(NodeId::new(0), NodeId::new(2)), 1);
        assert_eq!(s.pair_contact_count(NodeId::new(1), NodeId::new(2)), 1);
    }

    #[test]
    fn frequent_contacts_daily_pair() {
        // Nodes 0 and 1 meet once per day for 3 days; node 2 meets node 0 only once.
        let t: ContactTrace = vec![
            pc(0, 1, day(0) + 100, day(0) + 200),
            pc(0, 1, day(1) + 100, day(1) + 200),
            pc(0, 1, day(2) + 100, day(2) + 200),
            pc(0, 2, day(1) + 500, day(1) + 600),
        ]
        .into_iter()
        .collect();
        let s = TraceStats::compute(&t);
        let freq = s.frequent_contacts(NodeId::new(0), SimDuration::from_days(1));
        assert_eq!(freq, vec![NodeId::new(1)]);
    }

    #[test]
    fn frequent_contacts_respects_gap() {
        // A two-day hole breaks the "at least every day" rule. Other pairs
        // keep the network active every day, so the idle-window exemption
        // does not apply.
        let t: ContactTrace = vec![
            pc(0, 1, day(0) + 100, day(0) + 200),
            pc(0, 1, day(3) + 100, day(3) + 200),
            pc(2, 3, day(1) + 100, day(1) + 200),
            pc(2, 3, day(2) + 100, day(2) + 200),
        ]
        .into_iter()
        .collect();
        let s = TraceStats::compute(&t);
        assert!(s
            .frequent_contacts(NodeId::new(0), SimDuration::from_days(1))
            .is_empty());
        // But the looser 3-day DieselNet rule tolerates it: windows [0,3d)
        // and [3d,6d) each hold a (0,1) contact.
        assert_eq!(
            s.frequent_contacts(NodeId::new(0), DIESELNET_FREQUENT_EVERY),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn globally_idle_windows_are_exempt() {
        // Contacts only on "school days" 0 and 3 for everyone: the network
        // itself was idle on days 1-2, so a pair meeting on both active days
        // still counts as frequent under the 1-day rule.
        let t: ContactTrace = vec![
            pc(0, 1, day(0) + 100, day(0) + 200),
            pc(0, 1, day(3) + 100, day(3) + 200),
            pc(2, 3, day(0) + 300, day(0) + 400),
            pc(2, 3, day(3) + 300, day(3) + 400),
        ]
        .into_iter()
        .collect();
        let s = TraceStats::compute(&t);
        assert_eq!(
            s.frequent_contacts(NodeId::new(0), SimDuration::from_days(1)),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn frequent_contact_map_covers_all_nodes() {
        let t: ContactTrace = vec![pc(0, 1, 100, 200)].into_iter().collect();
        let s = TraceStats::compute(&t);
        let map = s.frequent_contact_map(SimDuration::from_days(1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn zero_window_yields_nothing() {
        let t: ContactTrace = vec![pc(0, 1, 100, 200)].into_iter().collect();
        let s = TraceStats::compute(&t);
        assert!(s
            .frequent_contacts(NodeId::new(0), SimDuration::ZERO)
            .is_empty());
    }

    #[test]
    fn degrees_count_distinct_peers() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10), pc(0, 1, 20, 30), pc(0, 2, 40, 50)]
            .into_iter()
            .collect();
        let s = TraceStats::compute(&t);
        let deg = s.degrees();
        assert_eq!(deg[&NodeId::new(0)], 2);
        assert_eq!(deg[&NodeId::new(1)], 1);
    }

    #[test]
    fn mean_contact_size_pairwise_is_two() {
        let t: ContactTrace = vec![pc(0, 1, 0, 10)].into_iter().collect();
        let s = TraceStats::compute(&t);
        assert_eq!(s.mean_contact_size(&t), Some(2.0));
    }

    #[test]
    fn compute_stream_matches_compute_regardless_of_order() {
        let contacts = vec![pc(0, 1, 100, 200), pc(2, 3, 0, 50), pc(0, 2, 300, 400)];
        let trace: ContactTrace = contacts.clone().into_iter().collect();
        let from_trace = TraceStats::compute(&trace);
        // Feed the un-sorted original order — stats must not depend on it.
        let from_stream = TraceStats::compute_stream(contacts);
        assert_eq!(from_stream.contact_count(), from_trace.contact_count());
        assert_eq!(from_stream.span(), from_trace.span());
        assert_eq!(from_stream.nodes(), from_trace.nodes());
        assert_eq!(
            from_stream.mean_contact_duration_secs(),
            from_trace.mean_contact_duration_secs()
        );
        assert_eq!(
            from_stream.pair_contact_count(NodeId::new(0), NodeId::new(1)),
            from_trace.pair_contact_count(NodeId::new(0), NodeId::new(1))
        );
        assert_eq!(
            from_stream.pooled_inter_contact_times(),
            from_trace.pooled_inter_contact_times()
        );
    }

    fn scan_of(trace: &ContactTrace, every: SimDuration) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut scan = FrequentScan::new(every);
        for contact in trace.iter() {
            scan.observe(contact);
        }
        scan.finish()
    }

    #[test]
    fn frequent_scan_matches_map_on_daily_and_gapped_traces() {
        let traces: Vec<ContactTrace> = vec![
            // Daily pair plus a one-off.
            vec![
                pc(0, 1, day(0) + 100, day(0) + 200),
                pc(0, 1, day(1) + 100, day(1) + 200),
                pc(0, 1, day(2) + 100, day(2) + 200),
                pc(0, 2, day(1) + 500, day(1) + 600),
            ]
            .into_iter()
            .collect(),
            // Two-day hole with the network otherwise active.
            vec![
                pc(0, 1, day(0) + 100, day(0) + 200),
                pc(2, 3, day(1) + 100, day(1) + 200),
                pc(2, 3, day(2) + 100, day(2) + 200),
                pc(0, 1, day(3) + 100, day(3) + 200),
            ]
            .into_iter()
            .collect(),
            // Globally idle days 1-2 (the exemption).
            vec![
                pc(0, 1, day(0) + 100, day(0) + 200),
                pc(2, 3, day(0) + 300, day(0) + 400),
                pc(0, 1, day(3) + 100, day(3) + 200),
                pc(2, 3, day(3) + 300, day(3) + 400),
            ]
            .into_iter()
            .collect(),
            // Clique contacts.
            vec![Contact::clique(
                vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                SimTime::from_secs(100),
                SimTime::from_secs(200),
            )
            .unwrap()]
            .into_iter()
            .collect(),
            ContactTrace::new(),
        ];
        for trace in &traces {
            let stats = TraceStats::compute(trace);
            for every in [SimDuration::from_days(1), DIESELNET_FREQUENT_EVERY] {
                assert_eq!(scan_of(trace, every), stats.frequent_contact_map(every));
            }
        }
    }

    #[test]
    fn frequent_scan_zero_window_is_all_empty() {
        let t: ContactTrace = vec![pc(0, 1, 100, 200)].into_iter().collect();
        let map = scan_of(&t, SimDuration::ZERO);
        assert_eq!(map.len(), 2);
        assert!(map.values().all(Vec::is_empty));
    }

    #[test]
    fn frequent_scan_vacuous_trace_marks_contacted_pairs_frequent() {
        // Both starts land past the trace end (end-start span 10, window 5):
        // no enumerated window is ever active, so the rule holds vacuously
        // for every pair with a contact — in TraceStats and the scan alike.
        let t: ContactTrace = vec![pc(0, 1, 10, 20), pc(2, 3, 19, 20)]
            .into_iter()
            .collect();
        let every = SimDuration::from_secs(5);
        let expected = TraceStats::compute(&t).frequent_contact_map(every);
        assert_eq!(expected[&NodeId::new(0)], vec![NodeId::new(1)]);
        assert_eq!(scan_of(&t, every), expected);
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
        let t: ContactTrace = vec![
            pc(0, 1, 0, 10),
            pc(0, 1, 500, 510),
            pc(2, 3, 0, 10),
            pc(2, 3, 100, 110),
        ]
        .into_iter()
        .collect();
        let s = TraceStats::compute(&t);
        let pooled = s.pooled_inter_contact_times();
        assert_eq!(
            pooled,
            vec![SimDuration::from_secs(100), SimDuration::from_secs(500)]
        );
    }
}
