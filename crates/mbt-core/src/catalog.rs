//! Cooperative file discovery (paper §IV) and the difference catalog of
//! one contact.
//!
//! The goal of the file discovery process is to download metadata that
//! matches the user's query strings — and, probably, metadata that will
//! match future queries. Discovery separates the distribution of metadata
//! from the distribution of files: metadata are distributed earlier, in
//! larger amounts, and are stored for longer durations. During a contact the
//! clique selects which stored metadata to send, in two phases: metadata
//! that match the query strings of connected nodes (most-matched first),
//! then the remaining metadata in order of decreasing popularity. The
//! catalog annotates each record with its requesters and popularity as an
//! [`Offer`], and the metadata phase of
//! [`run_contact_via`](crate::node::run_contact_via) orders those offers
//! with the download schedulers — [`cooperative`](crate::download::cooperative)
//! for the altruistic two-phase order, [`tft`](crate::download::tft) when
//! requesters are weighed by tit-for-tat credits (§IV-B). A received record
//! enters its node, and credits its sender, in `MbtNode::store_record`.
//!
//! What a clique can exchange is what its members *differ by*: a URI whose
//! metadata and file are each held by every member or by none can be offered
//! in neither phase. [`Catalog::walk`] therefore visits the union of the
//! members' stores once, in their map order, and keeps a [`Row`] only for
//! the URIs that can still yield an offer; [`Catalog::metadata_offers`] then
//! resolves requesters by probing one token index over those rows once per
//! query, rather than every member store's index once per query. Both
//! broadcast phases of [`run_contact_via`](crate::node::run_contact_via)
//! read rows from here and from nowhere else.
//!
//! Only fixed functions of the text are hashed — the members' stores are
//! ordered by each URI's stored [`stable_hash`], and the token postings are
//! keyed by it — and no answer follows a hash order: rows are in URI order,
//! holder lists in member order, postings sorted — every answer is a pure
//! function of the members' state.
//!
//! What the rows must answer is the plain union of the members' stores:
//! `tests/reference_mbt.rs` rebuilds that union at every contact, by linear
//! scans, in a reference MBT written from the paper, and holds whole
//! contacts and runs to it.

use std::cmp::Ordering;
use std::iter::Peekable;

use dtn_trace::hash::stable_hash;
use dtn_trace::NodeId;

use crate::download::Offer;
use crate::metadata::Metadata;
use crate::node::MbtNode;
use crate::popularity::Popularity;
use crate::protocol::{ProtocolSpec, ReplicationPolicy};
use crate::query::Query;
use crate::uri::Uri;

/// What the clique holds under one URI at contact start.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) uri: Uri,
    /// The record of the first metadata holder in member order — the one a
    /// broadcast carries, and so the one a query must match to request it.
    /// `None` when members hold only the file.
    pub(crate) record: Option<Metadata>,
    /// The highest popularity any metadata holder knows for the URI.
    pub(crate) popularity: Popularity,
    /// Members holding the metadata, in member order.
    pub(crate) metadata_holders: Vec<NodeId>,
    /// Members holding the complete file, in member order.
    pub(crate) file_holders: Vec<NodeId>,
}

impl Row {
    fn new(uri: Uri) -> Self {
        Row {
            uri,
            record: None,
            popularity: Popularity::MIN,
            metadata_holders: Vec::new(),
            file_holders: Vec::new(),
        }
    }

    fn add_record(&mut self, holder: &MbtNode, record: &Metadata) {
        let popularity = holder.known_popularity(&self.uri);
        if self.record.is_none() {
            self.record = Some(record.clone());
            self.popularity = popularity;
        } else if popularity > self.popularity {
            self.popularity = popularity;
        }
        self.metadata_holders.push(holder.id());
    }

    /// True if `member` neither holds nor refuses what `holders` hold under
    /// this URI. A member holds a row's metadata (file) iff it is listed, so
    /// the probe is a scan of at most clique-size ids.
    pub(crate) fn open_to(&self, holders: &[NodeId], member: &MbtNode) -> bool {
        !holders.contains(&member.id()) && !member.rejects(&self.uri)
    }

    fn matches(&self, query: &Query) -> bool {
        (self.record.as_ref()).is_some_and(|m| query.matches_token_set(m.token_set()))
    }
}

/// The rows of one contact, in URI order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Catalog {
    rows: Vec<Row>,
}

impl Catalog {
    /// One ordered k-way walk over the stores of `members` (indices into
    /// `nodes`). Both store iterators are in [map order](Uri::map_cmp), so
    /// every URI of the union is visited exactly once, with all its holders
    /// known. A cursor's head is its store's map key, compared by stored
    /// hash and then identity-first: members that got a record or file from
    /// one another hold one shared allocation of its URI, so heads are told
    /// apart or found equal without a text compare, and no record is read
    /// for a URI that makes no row. The rows are then sorted into URI
    /// order, which every tie-break downstream reads.
    ///
    /// A row is materialised only if its metadata or its file is held by
    /// some members and not by all — otherwise neither phase can offer it —
    /// or, with `every_row`, always (DiffuseRep smooths its availability
    /// estimates over complete rows too). Stores that are all empty
    /// allocate nothing.
    pub(crate) fn walk(nodes: &[MbtNode], members: &[usize], every_row: bool) -> Catalog {
        let holds_nothing = |&idx: &usize| {
            let n = &nodes[idx];
            n.metadata().is_empty() && n.files().is_empty()
        };
        if members.iter().all(holds_nothing) {
            return Catalog::default();
        }
        // Per member: the node, its record cursor and its file cursor.
        let mut cursors: Vec<(&MbtNode, Peekable<_>, Peekable<_>)> = members
            .iter()
            .map(|&idx| {
                let n = &nodes[idx];
                (
                    n,
                    n.metadata().entries().peekable(),
                    n.files().iter().peekable(),
                )
            })
            .collect();
        // The cursors standing at the smallest URI: (member position, is the
        // file cursor), in member order.
        let mut standing: Vec<(usize, bool)> = Vec::with_capacity(2 * members.len());
        let mut rows = Vec::new();
        loop {
            let mut next: Option<&Uri> = None;
            for (at, (_, records, files)) in cursors.iter_mut().enumerate() {
                let heads = [
                    (records.peek().map(|&(uri, _)| uri), false),
                    (files.peek().copied(), true),
                ];
                for (head, is_file) in heads {
                    let Some(uri) = head else { continue };
                    match next.map_or(Ordering::Less, |least| uri.map_cmp(least)) {
                        Ordering::Less => {
                            next = Some(uri);
                            standing.clear();
                            standing.push((at, is_file));
                        }
                        Ordering::Equal => standing.push((at, is_file)),
                        Ordering::Greater => {}
                    }
                }
            }
            let Some(uri) = next else { break };
            let files_held = standing.iter().filter(|&&(_, is_file)| is_file).count();
            let partial = |held: usize| held != 0 && held != members.len();
            let records_held = standing.len() - files_held;
            let mut row = (every_row || partial(records_held) || partial(files_held))
                .then(|| Row::new(uri.clone()));
            for (at, is_file) in standing.drain(..) {
                let (holder, records, files) = &mut cursors[at];
                if is_file {
                    files.next();
                    if let Some(row) = &mut row {
                        row.file_holders.push(holder.id());
                    }
                } else {
                    let (_, record) = records.next().expect("cursor stands at the URI");
                    if let Some(row) = &mut row {
                        row.add_record(holder, record);
                    }
                }
            }
            rows.extend(row);
        }
        rows.sort_unstable_by(|a, b| a.uri.cmp(&b.uri));
        Catalog { rows }
    }

    /// The materialised rows, in URI order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The metadata phase's offers (§IV-A) among `members` (indices into
    /// `nodes`), each naming its row by index: every record some member
    /// neither holds nor has rejected, requested by the members with a
    /// relevant query — own, or carried for a frequent contact — that
    /// matches the record a broadcast would carry.
    ///
    /// The candidate rows are indexed by token hash once; each query
    /// then probes that index once — the rows of its rarest token, confirmed
    /// against the row's record. A query whose signature has a bit no
    /// candidate record's has lacks a match and is not probed.
    pub(crate) fn metadata_offers(
        &self,
        nodes: &[MbtNode],
        members: &[usize],
    ) -> Vec<Offer<usize>> {
        let lacking = |row: &Row, m: &MbtNode| row.open_to(&row.metadata_holders, m);
        // Each with its row index and the record its broadcast carries.
        let candidates: Vec<(usize, &Row, &Metadata)> = (self.rows.iter().enumerate())
            .filter_map(|(at, row)| Some((at, row, row.record.as_ref()?)))
            .filter(|(_, row, _)| members.iter().any(|&idx| lacking(row, &nodes[idx])))
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        // Keyed by the token's stable hash: integers sort in a cycle a compare,
        // and two tokens sharing one only add rows for `Row::matches` to refuse.
        let mut postings: Vec<(u64, usize)> = Vec::new();
        // Every candidate token's signature bit: a query with a bit outside
        // it has a token no candidate holds, so it matches no row.
        let mut held = 0;
        for (at, (_, _, record)) in candidates.iter().enumerate() {
            held |= record.token_set().signature();
            let tokens = record.token_set().iter();
            postings.extend(tokens.map(|t| (stable_hash(t.as_bytes()), at)));
        }
        postings.sort_unstable();
        let rows_with = |token: &str| {
            let key = stable_hash(token.as_bytes());
            let from = postings.partition_point(|&(k, _)| k < key);
            let len = postings[from..].partition_point(|&(k, _)| k == key);
            &postings[from..from + len]
        };

        let mut requesters: Vec<Vec<NodeId>> = vec![Vec::new(); candidates.len()];
        for member in members.iter().map(|&idx| &nodes[idx]) {
            for query in member.requested_queries() {
                if query.signature() & !held != 0 {
                    continue;
                }
                let rarest = query
                    .tokens()
                    .iter()
                    .map(|token| rows_with(token))
                    .min_by_key(|rows| rows.len())
                    .unwrap_or_default();
                for &(_, at) in rarest {
                    let (_, row, _) = candidates[at];
                    if requesters[at].last() != Some(&member.id())
                        && lacking(row, member)
                        && row.matches(query)
                    {
                        requesters[at].push(member.id());
                    }
                }
            }
        }
        candidates
            .into_iter()
            .zip(requesters)
            .map(|((at, row, _), requesters)| {
                let holders = row.metadata_holders.clone();
                Offer::new(at, row.popularity, requesters, holders)
            })
            .collect()
    }

    /// The file phase's offers (§V) among `members` (indices into `nodes`),
    /// each naming its row by index: every file some member neither holds
    /// nor refuses, requested by the members that want it. Without
    /// standalone metadata (MBT-QM) nobody can want a file; under DiffuseRep
    /// a file nobody asked for is pulled by the members that could take it
    /// and [deem it scarce](MbtNode::deems_scarce).
    pub(crate) fn file_offers(
        &self,
        nodes: &[MbtNode],
        members: &[usize],
        protocol: ProtocolSpec,
    ) -> Vec<Offer<usize>> {
        let lacking = |row: &Row, m: &MbtNode| row.open_to(&row.file_holders, m);
        let members = || members.iter().map(|&idx| &nodes[idx]);
        let mut offers: Vec<Offer<usize>> = (self.rows.iter().enumerate())
            .filter(|(_, row)| !row.file_holders.is_empty() && members().any(|m| lacking(row, m)))
            .map(|(at, row)| Offer::new(at, row.popularity, Vec::new(), row.file_holders.clone()))
            .collect();
        // One read of each member's wanted set, whatever the rows. A wanted
        // file is one the member does not hold.
        for member in members().filter(|_| protocol.distributes_metadata()) {
            let wanted = member.wanted();
            for offer in (offers.iter_mut()).filter(|o| wanted.contains(&self.rows[o.item].uri)) {
                offer.requesters.push(member.id());
            }
        }
        let diffuses = protocol.replication() == ReplicationPolicy::Diffusion;
        for offer in &mut offers {
            let row = &self.rows[offer.item];
            if diffuses && offer.requesters.is_empty() {
                let pullers = members().filter(|m| lacking(row, m) && m.deems_scarce(&row.uri));
                offer.requesters.extend(pullers.map(MbtNode::id));
            }
            offer.requesters.sort_unstable();
        }
        offers
    }
}

#[cfg(test)]
mod tests {
    use dtn_sim::telemetry::Counters;
    use dtn_trace::{SimDuration, SimTime};

    use super::*;
    use crate::config::MbtConfig;
    use crate::node::run_contact;

    fn uri(i: usize) -> Uri {
        Uri::new(format!("mbt://u/{i:02}")).unwrap()
    }

    fn record(words: &str, i: usize) -> Metadata {
        Metadata::builder(words, "pub", uri(i)).build()
    }

    fn node(i: u32, protocol: ProtocolSpec, config: &MbtConfig) -> MbtNode {
        MbtNode::new(NodeId::new(i), protocol, config.clone())
    }

    fn contact(nodes: &mut [MbtNode], members: &[usize], at: u64) -> Counters {
        run_contact(
            nodes,
            members,
            SimTime::from_secs(at),
            SimDuration::from_secs(600),
        )
    }

    fn querying(i: u32, text: &str, config: &MbtConfig) -> MbtNode {
        let mut n = node(i, ProtocolSpec::MBT, config);
        n.add_query(Query::new(text).unwrap(), None);
        n
    }

    #[test]
    fn a_query_matching_only_a_later_holders_record_does_not_request() {
        let config = MbtConfig::new();
        let mut nodes: Vec<MbtNode> = (0..3)
            .map(|i| node(i, ProtocolSpec::MBT, &config))
            .collect();
        nodes[0].seed_content(record("fox news", 0), Popularity::new(0.5), false);
        nodes[1].seed_content(record("late show", 0), Popularity::new(0.5), false);
        nodes[2].add_query(Query::new("late").unwrap(), None);
        let members = [0, 1, 2];
        let offers = Catalog::walk(&nodes, &members, false).metadata_offers(&nodes, &members);
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].requesters, [], "the broadcast carries `fox news`");
        assert_eq!(offers[0].holders, [NodeId::new(0), NodeId::new(1)]);
        // ... which the popularity phase sends it all the same.
        contact(&mut nodes, &members, 10);
        assert_eq!(
            nodes[2].metadata().get(&uri(0)),
            Some(&record("fox news", 0))
        );
    }

    #[test]
    fn a_uri_its_only_non_holder_rejected_is_not_offered() {
        let config = MbtConfig::new();
        let mut nodes = vec![
            node(0, ProtocolSpec::MBT, &config),
            querying(1, "fox", &config),
        ];
        nodes[0].seed_content(record("fox news", 0), Popularity::new(0.5), true);
        nodes[1].reject(&record("fox news", 0));
        let catalog = Catalog::walk(&nodes, &[0, 1], false);
        assert_eq!(catalog.rows().len(), 1, "node 1 lacks it: a row");
        assert_eq!(catalog.metadata_offers(&nodes, &[0, 1]), []);
        assert_eq!(catalog.file_offers(&nodes, &[0, 1], ProtocolSpec::MBT), []);
        assert_eq!(contact(&mut nodes, &[0, 1], 10).frames_sent, 0);
    }

    #[test]
    fn a_file_one_member_holds_rides_with_the_catalog_record_and_popularity() {
        let config = MbtConfig::new();
        let mut nodes = vec![
            node(0, ProtocolSpec::MBT, &config),
            querying(1, "fox", &config),
        ];
        nodes[0].seed_content(record("fox news", 0), Popularity::new(0.25), true);
        nodes[1].seed_content(record("fox news", 0), Popularity::new(0.75), false);
        let catalog = Catalog::walk(&nodes, &[0, 1], false);
        assert_eq!(catalog.rows().len(), 1, "the file is held by one of two");
        assert_eq!(catalog.rows()[0].record, Some(record("fox news", 0)));
        assert_eq!(
            catalog.metadata_offers(&nodes, &[0, 1]),
            [],
            "both hold the record"
        );
        assert_eq!(
            catalog.file_offers(&nodes, &[0, 1], ProtocolSpec::MBT),
            [Offer::new(
                0,
                Popularity::new(0.75),
                vec![NodeId::new(1)],
                vec![NodeId::new(0)]
            )]
        );
        // The contact sends it; what every member then holds in full is no
        // row at all — unless asked.
        assert_eq!(contact(&mut nodes, &[0, 1], 10).file_broadcasts, 1);
        assert_eq!(Catalog::walk(&nodes, &[0, 1], false).rows(), []);
        assert_eq!(Catalog::walk(&nodes, &[0, 1], true).rows().len(), 1);
    }

    #[test]
    fn the_metadata_phase_sees_start_of_contact_rows_when_files_go_first() {
        let config = MbtConfig::new().discovery_first(false);
        let mut nodes = vec![
            node(0, ProtocolSpec::MBT, &config),
            querying(1, "fox", &config),
        ];
        nodes[0].seed_content(record("fox news", 0), Popularity::new(0.5), true);
        let report = contact(&mut nodes, &[0, 1], 10);
        // The record rode in with the file; the metadata phase, reading the
        // rows of contact start, broadcasts it to its requester all the same.
        assert_eq!((report.file_broadcasts, report.metadata_broadcasts), (1, 1));
        assert_eq!(report.metadata_transferred, 1);
    }

    #[test]
    fn rows_and_offers_come_in_uri_order_whatever_the_stores_order() {
        let uris: Vec<Uri> = (0..8).map(uri).collect();
        let mut by_hash = uris.clone();
        by_hash.sort_by_key(|u| stable_hash(u.as_str().as_bytes()));
        assert_ne!(by_hash, uris, "the stores' order differs from URI order");

        let config = MbtConfig::new();
        let mut nodes = vec![querying(0, "fox", &config), querying(1, "fox", &config)];
        for i in 0..uris.len() {
            // Each member holds half the records and files the other lacks.
            let holder = &mut nodes[i % 2];
            holder.seed_content(record("fox news", i), Popularity::new(0.5), true);
        }
        let catalog = Catalog::walk(&nodes, &[0, 1], false);
        let rows: Vec<&Uri> = catalog.rows().iter().map(|r| &r.uri).collect();
        assert_eq!(rows, uris.iter().collect::<Vec<_>>());

        let metadata = catalog.metadata_offers(&nodes, &[0, 1]);
        let files = catalog.file_offers(&nodes, &[0, 1], ProtocolSpec::MBT);
        for offers in [metadata, files] {
            let offered: Vec<&Uri> = (offers.iter())
                .map(|o| &catalog.rows()[o.item].uri)
                .collect();
            assert_eq!(offered, uris.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_stores_walk_to_an_empty_catalog() {
        let config = MbtConfig::new();
        let nodes = vec![querying(0, "fox", &config), querying(1, "news", &config)];
        for every_row in [false, true] {
            let catalog = Catalog::walk(&nodes, &[0, 1], every_row);
            assert_eq!(catalog, Catalog::default());
            assert_eq!(catalog.metadata_offers(&nodes, &[0, 1]), []);
        }
    }
}
