//! The difference catalog of one contact.
//!
//! What a clique can exchange is what its members *differ by*: a URI whose
//! metadata and file are each held by every member or by none can be offered
//! in neither phase. [`Catalog::walk`] therefore visits the union of the
//! members' stores once, in URI order, and keeps a [`Row`] only for the URIs
//! that can still yield an offer; [`Catalog::metadata_offers`] then resolves
//! requesters by probing one token index over those rows once per query,
//! rather than every member store's index once per query. Both broadcast
//! phases of [`run_contact_via`](crate::node::run_contact_via) read rows
//! from here and from nowhere else.
//!
//! Nothing in this module is hashed: rows are in URI order, holder lists in
//! member order, postings sorted — every answer is a pure function of the
//! members' state.

use std::cmp::Ordering;
use std::iter::Peekable;

use dtn_trace::hash::stable_hash;
use dtn_trace::NodeId;

use crate::download::Offer;
use crate::metadata::Metadata;
use crate::node::MbtNode;
use crate::popularity::Popularity;
use crate::query::Query;
use crate::transport::HelloFrame;
use crate::uri::Uri;

/// What the clique holds under one URI at contact start.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) uri: Uri,
    /// The record of the first metadata holder in member order — the one a
    /// broadcast carries. `None` when members hold only the file.
    pub(crate) record: Option<Metadata>,
    /// Records other members hold under the same URI that differ from
    /// `record`: a query matching any of them makes its owner a requester.
    pub(crate) variants: Vec<Metadata>,
    /// The highest popularity any metadata holder knows for the URI.
    pub(crate) popularity: Popularity,
    /// Members holding the metadata, in member order.
    pub(crate) metadata_holders: Vec<NodeId>,
    /// Members holding the complete file, in member order.
    pub(crate) file_holders: Vec<NodeId>,
    /// Members that pull the file unasked because they estimate it scarce;
    /// filled by the contact under DiffuseRep, empty otherwise.
    pub(crate) proactive: Vec<NodeId>,
}

impl Row {
    fn new(uri: Uri) -> Self {
        Row {
            uri,
            record: None,
            variants: Vec::new(),
            popularity: Popularity::MIN,
            metadata_holders: Vec::new(),
            file_holders: Vec::new(),
            proactive: Vec::new(),
        }
    }

    /// `keep_variant` is false where no member lacks the metadata: nobody
    /// can request it, so nothing will be matched against its variants.
    fn add_record(&mut self, holder: &MbtNode, record: &Metadata, keep_variant: bool) {
        let popularity = holder.known_popularity(&self.uri);
        match &self.record {
            None => {
                self.record = Some(record.clone());
                self.popularity = popularity;
            }
            Some(first) => {
                if popularity > self.popularity {
                    self.popularity = popularity;
                }
                if keep_variant && record != first && !self.variants.contains(record) {
                    self.variants.push(record.clone());
                }
            }
        }
        self.metadata_holders.push(holder.id());
    }

    /// True if `member` neither holds nor refuses what `holders` hold under
    /// this URI. A member holds a row's metadata (file) iff it is listed, so
    /// the probe is a scan of at most clique-size ids.
    fn open_to(&self, holders: &[NodeId], member: &HelloFrame) -> bool {
        !holders.contains(&member.sender) && !member.rejected.contains(&self.uri)
    }

    fn matches(&self, query: &Query) -> bool {
        self.record
            .iter()
            .chain(&self.variants)
            .any(|m| query.matches_token_set(m.token_set()))
    }
}

/// How [`run_contact_via`](crate::node::run_contact_via) obtains its
/// catalog: always [`Catalog::walk`], except in this module's tests, which
/// hold the walk to the naive union it replaced.
pub(crate) type Build = fn(&[MbtNode], &[usize], bool) -> Catalog;

/// The rows of one contact, in URI order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Catalog {
    rows: Vec<Row>,
}

impl Catalog {
    /// One ordered k-way walk over the stores of `members` (indices into
    /// `nodes`). Both store iterators are URI-ordered, so every URI of the
    /// union is visited exactly once, with all its holders known.
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
                    n.metadata().iter().peekable(),
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
                    (records.peek().map(|&m| m.uri()), false),
                    (files.peek().copied(), true),
                ];
                for (head, is_file) in heads {
                    let Some(uri) = head else { continue };
                    match next.map_or(Ordering::Less, |least| uri.cmp(least)) {
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
            let lacks_record = partial(standing.len() - files_held);
            let mut row =
                (every_row || lacks_record || partial(files_held)).then(|| Row::new(uri.clone()));
            for (at, is_file) in standing.drain(..) {
                let (holder, records, files) = &mut cursors[at];
                if is_file {
                    files.next();
                    if let Some(row) = &mut row {
                        row.file_holders.push(holder.id());
                    }
                } else {
                    let record = records.next().expect("cursor stands at the URI");
                    if let Some(row) = &mut row {
                        row.add_record(holder, record, lacks_record);
                    }
                }
            }
            rows.extend(row);
        }
        Catalog { rows }
    }

    /// The materialised rows, in URI order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The rows, for the contact to fill [`Row::proactive`].
    pub(crate) fn rows_mut(&mut self) -> &mut [Row] {
        &mut self.rows
    }

    /// The row for `uri`, by binary search.
    pub(crate) fn row(&self, uri: &Uri) -> Option<&Row> {
        let at = self.rows.binary_search_by(|row| row.uri.cmp(uri)).ok()?;
        Some(&self.rows[at])
    }

    /// The metadata phase's offers (§IV-A): every record some member neither
    /// holds nor has rejected, requested by the members with a relevant
    /// query — own, or carried for a frequent contact — that matches a
    /// record held under the URI.
    ///
    /// The candidate rows are indexed by token hash once; each query
    /// then probes that index once — the rows of its rarest token, confirmed
    /// against every record held under the URI — which answers exactly what
    /// a search of every member's store did.
    pub(crate) fn metadata_offers(&self, members: &[HelloFrame]) -> Vec<Offer<Uri>> {
        let lacking = |row: &Row, m: &HelloFrame| row.open_to(&row.metadata_holders, m);
        let candidates: Vec<&Row> = self
            .rows
            .iter()
            .filter(|row| row.record.is_some() && members.iter().any(|m| lacking(row, m)))
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        // Keyed by the token's stable hash: integers sort in a cycle a compare,
        // and two tokens sharing one only add rows for `Row::matches` to refuse.
        let mut postings: Vec<(u64, usize)> = Vec::new();
        for (at, row) in candidates.iter().enumerate() {
            for record in row.record.iter().chain(&row.variants) {
                let tokens = record.token_set().iter();
                postings.extend(tokens.map(|t| (stable_hash(t.as_bytes()), at)));
            }
        }
        postings.sort_unstable();
        // A variant shares most of its tokens with the first record.
        postings.dedup();
        let rows_with = |token: &str| {
            let key = stable_hash(token.as_bytes());
            let from = postings.partition_point(|&(k, _)| k < key);
            let len = postings[from..].partition_point(|&(k, _)| k == key);
            &postings[from..from + len]
        };

        let mut requesters: Vec<Vec<NodeId>> = vec![Vec::new(); candidates.len()];
        for member in members {
            let own = member.own_queries.iter().map(|(q, _)| q);
            for query in own.chain(&member.foreign_queries) {
                let rarest = query
                    .tokens()
                    .iter()
                    .map(|token| rows_with(token))
                    .min_by_key(|rows| rows.len())
                    .unwrap_or_default();
                for &(_, at) in rarest {
                    let row = candidates[at];
                    if requesters[at].last() != Some(&member.sender)
                        && lacking(row, member)
                        && row.matches(query)
                    {
                        requesters[at].push(member.sender);
                    }
                }
            }
        }
        candidates
            .into_iter()
            .zip(requesters)
            .map(|(row, requesters)| {
                let holders = row.metadata_holders.clone();
                Offer::new(row.uri.clone(), row.popularity, requesters, holders)
            })
            .collect()
    }

    /// The file phase's offers (§V): every file some member neither holds
    /// nor refuses, requested by the members that announced wanting it.
    /// Without standalone metadata (`announces_wants` false, MBT-QM) nobody
    /// can announce a want, and a file nobody asked for is still pulled by
    /// the row's [`proactive`](Row::proactive) members.
    pub(crate) fn file_offers(
        &self,
        members: &[HelloFrame],
        announces_wants: bool,
    ) -> Vec<Offer<Uri>> {
        let lacking = |row: &Row, m: &HelloFrame| row.open_to(&row.file_holders, m);
        self.rows
            .iter()
            .filter(|row| !row.file_holders.is_empty() && members.iter().any(|m| lacking(row, m)))
            .map(|row| {
                let holds = |m: &HelloFrame| row.file_holders.contains(&m.sender);
                let mut requesters: Vec<NodeId> = members
                    .iter()
                    .filter(|m| announces_wants && m.wanted.contains(&row.uri) && !holds(m))
                    .map(|m| m.sender)
                    .collect();
                if requesters.is_empty() {
                    requesters.clone_from(&row.proactive);
                }
                let holders = row.file_holders.clone();
                Offer::new(row.uri.clone(), row.popularity, requesters, holders)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use dtn_trace::{SimDuration, SimTime};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::config::MbtConfig;
    use crate::node::{build_hello, contact_over, ContactReport, ContactScratch};
    use crate::protocol::ProtocolSpec;
    use crate::transport::SimTransport;

    type MetadataUnion = BTreeMap<Uri, (Metadata, Popularity, Vec<NodeId>)>;
    type FileUnion = BTreeMap<Uri, Vec<NodeId>>;

    /// The union catalogs the walk replaced, built the way `run_contact_via`
    /// used to: every record and every file of every member, copied into
    /// two maps.
    fn union_of(nodes: &[MbtNode], members: &[usize]) -> (MetadataUnion, FileUnion) {
        let mut metadata_catalog = MetadataUnion::new();
        let mut file_catalog = FileUnion::new();
        for &idx in members {
            let n = &nodes[idx];
            for m in n.metadata().iter() {
                let pop = n.known_popularity(m.uri());
                let entry = metadata_catalog
                    .entry(m.uri().clone())
                    .or_insert_with(|| (m.clone(), pop, Vec::new()));
                if pop > entry.1 {
                    entry.1 = pop;
                }
                entry.2.push(n.id());
            }
            for uri in n.files().iter() {
                file_catalog.entry(uri.clone()).or_default().push(n.id());
            }
        }
        (metadata_catalog, file_catalog)
    }

    /// The union as a catalog: a row for every URI, and as variants every
    /// record any member holds under it.
    fn naive_union(nodes: &[MbtNode], members: &[usize], _every_row: bool) -> Catalog {
        let (metadata_catalog, file_catalog) = union_of(nodes, members);
        let uris: BTreeSet<&Uri> = metadata_catalog.keys().chain(file_catalog.keys()).collect();
        let rows = uris
            .into_iter()
            .map(|uri| {
                let mut row = Row::new(uri.clone());
                if let Some((record, popularity, holders)) = metadata_catalog.get(uri) {
                    row.record = Some(record.clone());
                    row.popularity = *popularity;
                    row.metadata_holders = holders.clone();
                    row.variants = members
                        .iter()
                        .filter_map(|&idx| nodes[idx].metadata().get(uri).cloned())
                        .collect();
                }
                row.file_holders = file_catalog.get(uri).cloned().unwrap_or_default();
                row
            })
            .collect();
        Catalog { rows }
    }

    /// The metadata offers as the deleted block computed them: every member
    /// store searched with every member's relevant queries.
    fn naive_metadata_offers(
        nodes: &[MbtNode],
        members: &[usize],
        snapshots: &[HelloFrame],
    ) -> Vec<Offer<Uri>> {
        let (metadata_catalog, _) = union_of(nodes, members);
        let matched: Vec<BTreeSet<Uri>> = snapshots
            .iter()
            .map(|s| {
                let own = s.own_queries.iter().map(|(q, _)| q);
                let mut set = BTreeSet::new();
                for q in own.chain(&s.foreign_queries) {
                    for &idx in members {
                        let matching = nodes[idx].metadata().matching(q);
                        set.extend(matching.into_iter().map(|m| m.uri().clone()));
                    }
                }
                set
            })
            .collect();
        metadata_catalog
            .iter()
            .filter(|(uri, (_, _, holders))| {
                snapshots
                    .iter()
                    .any(|s| !holders.contains(&s.sender) && !s.rejected.contains(uri))
            })
            .map(|(uri, (_, pop, holders))| {
                let requesters = snapshots
                    .iter()
                    .zip(&matched)
                    .filter(|(s, m)| {
                        m.contains(uri) && !holders.contains(&s.sender) && !s.rejected.contains(uri)
                    })
                    .map(|(s, _)| s.sender)
                    .collect();
                Offer::new(uri.clone(), *pop, requesters, holders.clone())
            })
            .collect()
    }

    /// The file offers as the deleted block computed them (no proactive
    /// requesters: whole contacts cover DiffuseRep).
    fn naive_file_offers(
        nodes: &[MbtNode],
        members: &[usize],
        snapshots: &[HelloFrame],
        announces_wants: bool,
    ) -> Vec<Offer<Uri>> {
        let (metadata_catalog, file_catalog) = union_of(nodes, members);
        file_catalog
            .iter()
            .filter(|(uri, holders)| {
                snapshots
                    .iter()
                    .any(|s| !holders.contains(&s.sender) && !s.rejected.contains(uri))
            })
            .map(|(uri, holders)| {
                let requesters = snapshots
                    .iter()
                    .filter(|s| {
                        announces_wants && s.wanted.contains(uri) && !holders.contains(&s.sender)
                    })
                    .map(|s| s.sender)
                    .collect();
                let pop = metadata_catalog
                    .get(uri)
                    .map_or(Popularity::MIN, |(_, p, _)| *p);
                Offer::new(uri.clone(), pop, requesters, holders.clone())
            })
            .collect()
    }

    fn uri(i: usize) -> Uri {
        Uri::new(format!("mbt://u/{i:02}")).unwrap()
    }

    fn record(words: &str, i: usize) -> Metadata {
        Metadata::builder(words, "pub", uri(i)).build()
    }

    fn node(i: u32, protocol: ProtocolSpec, config: &MbtConfig) -> MbtNode {
        MbtNode::new(NodeId::new(i), protocol, config.clone())
    }

    /// Building a hello records the store versions it announced, which the
    /// next contact reports on: build from a copy.
    fn hellos(protocol: ProtocolSpec, nodes: &[MbtNode], members: &[usize]) -> Vec<HelloFrame> {
        members
            .iter()
            .map(|&idx| {
                build_hello(
                    &mut nodes[idx].clone(),
                    protocol,
                    &mut ContactReport::default(),
                )
            })
            .collect()
    }

    fn contact(build: Build, nodes: &mut [MbtNode], members: &[usize], at: u64) -> ContactReport {
        contact_over(
            build,
            &mut SimTransport::new(),
            nodes,
            members,
            SimTime::from_secs(at),
            SimDuration::from_secs(600),
            None,
            &mut ContactScratch::default(),
        )
    }

    /// Both builders, both offer computations and — over two successive
    /// contacts — both whole exchanges must agree on `nodes`, which run
    /// `protocol`.
    fn assert_walk_equals_union(
        protocol: ProtocolSpec,
        nodes: &[MbtNode],
        contacts: &[Vec<usize>],
    ) {
        let announces_wants = protocol.distributes_metadata();
        let (mut walked, mut unioned) = (nodes.to_vec(), nodes.to_vec());
        for (round, members) in contacts.iter().enumerate() {
            let snapshots = hellos(protocol, &walked, members);
            let catalog = Catalog::walk(&walked, members, false);
            assert_eq!(
                catalog.metadata_offers(&snapshots),
                naive_metadata_offers(&walked, members, &snapshots),
                "metadata offers, members {members:?}"
            );
            assert_eq!(
                catalog.file_offers(&snapshots, announces_wants),
                naive_file_offers(&walked, members, &snapshots, announces_wants),
                "file offers, members {members:?}"
            );
            let at = 1_000 * (round as u64 + 1);
            assert_eq!(
                contact(Catalog::walk, &mut walked, members, at),
                contact(naive_union, &mut unioned, members, at),
                "contact reports, members {members:?}"
            );
            assert_eq!(format!("{walked:?}"), format!("{unioned:?}"), "node states");
        }
    }

    const VOCABULARY: [&str; 6] = ["fox", "news", "abc", "show", "late", "night"];

    /// One to three words; with `strangers`, sometimes a word no record has.
    fn words(rng: &mut StdRng, strangers: bool) -> String {
        let picked: Vec<&str> = (0..rng.gen_range(1..=3))
            .map(|_| {
                if strangers && rng.gen_bool(0.15) {
                    "zebra"
                } else {
                    VOCABULARY[rng.gen_range(0..VOCABULARY.len())]
                }
            })
            .collect();
        picked.join(" ")
    }

    /// Two to six members with overlapping stores and file sets, differing
    /// records under shared URIs, rejections, and own and carried queries.
    fn scenario(seed: u64, protocol: ProtocolSpec, discovery_first: bool) -> Vec<MbtNode> {
        let rng = &mut StdRng::seed_from_u64(seed);
        let config = MbtConfig::new()
            .discovery_first(discovery_first)
            .metadata_per_contact(rng.gen_range(1..=6))
            .files_per_contact(rng.gen_range(1..=4));
        let n = rng.gen_range(2..=6usize);
        let mut nodes: Vec<MbtNode> = (0..n as u32).map(|i| node(i, protocol, &config)).collect();
        for node in &mut nodes {
            for _ in 0..rng.gen_range(0..=3) {
                node.add_query(Query::new(words(rng, true)).unwrap(), None);
            }
            let frequent: Vec<NodeId> = (0..n as u32)
                .filter(|_| rng.gen_bool(0.5))
                .map(NodeId::new)
                .collect();
            node.set_frequent_contacts(frequent);
        }
        // Over empty stores a contact moves only queries: under full MBT the
        // frequent contacts now carry each other's.
        let everyone: Vec<usize> = (0..n).collect();
        contact(Catalog::walk, &mut nodes, &everyone, 1);

        let uris = rng.gen_range(1..=12usize);
        let records: Vec<[Metadata; 2]> = (0..uris)
            .map(|i| [record(&words(rng, false), i), record(&words(rng, false), i)])
            .collect();
        for node in &mut nodes {
            for (i, variants) in records.iter().enumerate() {
                let popularity = Popularity::new(rng.gen_range(0..=4) as f64 / 4.0);
                let variant = &variants[usize::from(rng.gen_bool(0.25))];
                match rng.gen_range(0..6) {
                    0 | 1 => node.seed_content(variant.clone(), popularity, false),
                    2 | 3 => node.seed_content(variant.clone(), popularity, true),
                    4 => drop(node.try_store_file(uri(i), None)),
                    _ if rng.gen_bool(0.3) => node.reject(variant),
                    _ => {}
                }
            }
            node.drain_events();
        }
        nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_walk_equals_the_union(seed in any::<u64>()) {
            for protocol in ProtocolSpec::builtin() {
                for discovery_first in [true, false] {
                    let nodes = scenario(seed, protocol, discovery_first);
                    let rng = &mut StdRng::seed_from_u64(!seed);
                    let contacts: Vec<Vec<usize>> = (0..2)
                        .map(|_| {
                            let mut members: Vec<usize> = (0..nodes.len()).collect();
                            for at in (1..members.len()).rev() {
                                members.swap(at, rng.gen_range(0..=at));
                            }
                            members.truncate(rng.gen_range(2..=nodes.len()));
                            members
                        })
                        .collect();
                    assert_walk_equals_union(protocol, &nodes, &contacts);
                }
            }
        }
    }

    fn querying(i: u32, text: &str, config: &MbtConfig) -> MbtNode {
        let mut n = node(i, ProtocolSpec::MBT, config);
        n.add_query(Query::new(text).unwrap(), None);
        n
    }

    #[test]
    fn a_query_matching_only_a_later_holders_record_still_requests() {
        let config = MbtConfig::new();
        let mut nodes: Vec<MbtNode> = (0..3)
            .map(|i| node(i, ProtocolSpec::MBT, &config))
            .collect();
        nodes[0].seed_content(record("fox news", 0), Popularity::new(0.5), false);
        nodes[1].seed_content(record("late show", 0), Popularity::new(0.5), false);
        nodes[2].add_query(Query::new("late").unwrap(), None);
        let members = [0, 1, 2];
        let offers = Catalog::walk(&nodes, &members, false).metadata_offers(&hellos(
            ProtocolSpec::MBT,
            &nodes,
            &members,
        ));
        assert_eq!(offers.len(), 1);
        assert_eq!(offers[0].requesters, [NodeId::new(2)]);
        assert_eq!(offers[0].holders, [NodeId::new(0), NodeId::new(1)]);
        assert_walk_equals_union(ProtocolSpec::MBT, &nodes, &[members.to_vec()]);
        // ... and what it is sent is the first holder's record.
        contact(Catalog::walk, &mut nodes, &members, 10);
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
        let snapshots = hellos(ProtocolSpec::MBT, &nodes, &[0, 1]);
        assert_eq!(catalog.metadata_offers(&snapshots), []);
        assert_eq!(catalog.file_offers(&snapshots, true), []);
        assert_walk_equals_union(ProtocolSpec::MBT, &nodes, &[vec![0, 1]]);
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
        let row = catalog
            .row(&uri(0))
            .expect("the file is held by one of two");
        assert_eq!(row.record, Some(record("fox news", 0)));
        let snapshots = hellos(ProtocolSpec::MBT, &nodes, &[0, 1]);
        assert_eq!(
            catalog.metadata_offers(&snapshots),
            [],
            "both hold the record"
        );
        assert_eq!(
            catalog.file_offers(&snapshots, true),
            [Offer::new(
                uri(0),
                Popularity::new(0.75),
                vec![NodeId::new(1)],
                vec![NodeId::new(0)]
            )]
        );
        assert_walk_equals_union(ProtocolSpec::MBT, &nodes, &[vec![0, 1]]);
        // What every member holds in full is no row at all — unless asked.
        nodes[1].try_store_file(uri(0), None);
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
        assert_walk_equals_union(ProtocolSpec::MBT, &nodes, &[vec![0, 1]]);
        let report = contact(Catalog::walk, &mut nodes, &[0, 1], 10);
        // The record rode in with the file; the metadata phase, reading the
        // rows of contact start, broadcasts it to its requester all the same.
        assert_eq!((report.file_broadcasts, report.metadata_broadcasts), (1, 1));
        assert_eq!(report.metadata_received, 1);
    }

    #[test]
    fn empty_stores_walk_to_an_empty_catalog() {
        let config = MbtConfig::new();
        let nodes = vec![querying(0, "fox", &config), querying(1, "news", &config)];
        for every_row in [false, true] {
            let catalog = Catalog::walk(&nodes, &[0, 1], every_row);
            assert_eq!(catalog, Catalog::default());
            assert_eq!(
                catalog.metadata_offers(&hellos(ProtocolSpec::MBT, &nodes, &[0, 1])),
                []
            );
        }
    }
}
