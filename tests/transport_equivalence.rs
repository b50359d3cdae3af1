//! Differential suite: `BusTransport` is byte-identical to `SimTransport`,
//! and a `LiveTransport` contact leaves the same report and node events.
//!
//! The transport seam's contract is that serializing every contact-phase
//! message into its wire frame and decoding it on the far side changes
//! *nothing* the simulator can see: same `SimResult`s, same rendered figure
//! CSVs, same telemetry counters, same per-contact reports — across thread
//! counts and under an active fault plan. These tests replay quick-scale
//! traces through both backends and compare bytes, and pin the exact frame
//! emission order of a contact so reordering regressions surface here.

use std::collections::BTreeMap;
use std::sync::Arc;

use dtn_sim::telemetry::Counters;
use dtn_sim::{FaultPlan, Telemetry};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{NodeId, SimDuration, SimTime, TraceSource};
use mbt_core::node::{run_contact, run_contact_via, ContactScratch};
use mbt_core::transport::{
    BusTransport, LiveTransport, SimTransport, Transport, TransportKind, WireMessage,
};
use mbt_core::{
    CooperationMode, MbtConfig, MbtNode, Metadata, MetadataServer, Popularity, ProtocolSpec, Query,
    Uri,
};
use mbt_experiments::report::figure_csv;
use mbt_experiments::{run_simulation, ExecConfig, ParallelRunner, SimParams, SimResult};

fn uri(s: &str) -> Uri {
    Uri::new(s).unwrap()
}

/// A fig2a-style quick sweep (internet fraction on the x axis) over a shared
/// DieselNet trace, rendered to CSV bytes.
fn sweep_csv(kind: TransportKind, jobs: usize) -> String {
    let runner = ParallelRunner::new(ExecConfig::default().jobs(jobs).replicates(2));
    let source: Arc<dyn TraceSource> = Arc::new(DieselNetConfig::new(16, 6).seed(42).generate());
    let fig = runner.sweep_shared_source(
        "transport_equivalence",
        "fig2a-style sweep (transport differential)",
        "fraction of nodes with Internet access",
        &[0.1, 0.5, 0.9],
        source,
        |x| SimParams {
            internet_fraction: x,
            days: 6,
            seed: 42,
            frequent_window: SimDuration::from_days(3),
            transport: kind,
            ..SimParams::default()
        },
        None,
    );
    figure_csv(&fig)
}

#[test]
fn quick_sweep_is_byte_identical_across_backends_and_job_counts() {
    let baseline = sweep_csv(TransportKind::Sim, 1);
    for (kind, jobs) in [
        (TransportKind::Sim, 8),
        (TransportKind::Bus, 1),
        (TransportKind::Bus, 8),
    ] {
        assert_eq!(
            baseline,
            sweep_csv(kind, jobs),
            "{kind} transport with --jobs {jobs} diverged from sim --jobs 1"
        );
    }
}

/// One observed run under an active fault plan (loss + truncation + churn +
/// corruption all rolling).
fn faulty_run(kind: TransportKind, cooperation: CooperationMode) -> (SimResult, Telemetry) {
    let trace = DieselNetConfig::new(14, 5).seed(9).generate();
    let params = SimParams {
        config: MbtConfig::new().cooperation(cooperation),
        days: 5,
        seed: 9,
        faults: FaultPlan::none()
            .loss(0.2)
            .truncate(0.2)
            .churn(0.1)
            .corruption(0.3)
            .seed(7),
        transport: kind,
        ..SimParams::default()
    };
    let mut telemetry = Telemetry::default();
    let result = run_simulation(&trace, &params, Some(&mut telemetry));
    (result, telemetry)
}

/// Under tit-for-tat the scheduler reads every member's hello credits, so
/// the bus's credit encoding is on the path as well.
#[test]
fn active_fault_plan_is_byte_identical_across_backends() {
    for cooperation in [CooperationMode::Cooperative, CooperationMode::TitForTat] {
        faulty_runs_agree(cooperation);
    }
}

fn faulty_runs_agree(cooperation: CooperationMode) {
    let (sim_result, sim_tel) = faulty_run(TransportKind::Sim, cooperation);
    let (bus_result, bus_tel) = faulty_run(TransportKind::Bus, cooperation);
    assert_eq!(
        sim_result, bus_result,
        "{cooperation:?} fault-plan results diverged"
    );
    // What the bus carried is the one thing the backends report
    // differently; every simulation counter must agree. A sound codec drops
    // no frame.
    let carried = bus_tel.counters.bus_frames_carried;
    assert!(carried > 0 && bus_tel.counters.bus_bytes_on_wire > 64 * carried);
    assert_eq!(bus_tel.counters.bus_frames_dropped, 0);
    assert_eq!(
        sim_tel.counters,
        Counters {
            bus_frames_carried: 0,
            bus_bytes_on_wire: 0,
            ..bus_tel.counters
        },
        "fault-plan telemetry counters diverged"
    );
    assert!(
        sim_tel.counters.frames_lost > 0,
        "the plan never dropped a frame — the comparison proved nothing"
    );
    assert!(sim_tel.counters.corrupt_receptions > 0);
}

/// A 4-node clique where node 0 pre-fetched a queried file from the server:
/// the contact exercises hellos, query shares, a metadata broadcast, and a
/// file broadcast.
fn seeded_clique() -> Vec<MbtNode> {
    seeded_clique_of(ProtocolSpec::MBT, MbtConfig::new())
}

/// [`seeded_clique`] on `protocol` under `config`.
fn seeded_clique_of(protocol: ProtocolSpec, config: MbtConfig) -> Vec<MbtNode> {
    let mut server = MetadataServer::new(4);
    server.publish(
        Metadata::builder("fox evening news", "FOX", uri("mbt://news")).build(),
        Popularity::new(0.6),
    );
    server.publish(
        Metadata::builder("abc morning show", "ABC", uri("mbt://show")).build(),
        Popularity::new(0.4),
    );
    let mut nodes: Vec<MbtNode> = (0..4)
        .map(|i| MbtNode::new(NodeId::new(i), protocol, config.clone()))
        .collect();
    nodes[0].set_internet_access(true);
    nodes[0].add_query(Query::new("evening news").unwrap(), None);
    nodes[1].add_query(Query::new("evening news").unwrap(), None);
    nodes[2].add_query(Query::new("morning show").unwrap(), None);
    nodes[2].set_frequent_contacts([NodeId::new(1), NodeId::new(3)]);
    nodes[3].set_frequent_contacts([NodeId::new(2)]);
    nodes[0].internet_session(&server, SimTime::ZERO);
    for n in &mut nodes {
        n.drain_events();
    }
    nodes
}

fn run_clique_via(transport: &mut dyn Transport, nodes: &mut [MbtNode]) -> Counters {
    run_contact_via(
        transport,
        nodes,
        &[0, 1, 2, 3],
        SimTime::from_secs(3_600),
        SimDuration::from_secs(900),
        None,
        &mut ContactScratch::default(),
    )
}

#[test]
fn direct_contact_matches_across_backends_and_bus_carries_frames() {
    let mut via_sim = seeded_clique();
    let mut via_bus = seeded_clique();
    let mut via_live = seeded_clique();
    let mut plain = seeded_clique();

    let sim_report = run_clique_via(&mut SimTransport::new(), &mut via_sim);
    let mut bus = BusTransport::new();
    let bus_report = run_clique_via(&mut bus, &mut via_bus);
    // The clique's records declare no content, so the one file node 0 holds
    // is published as zero bytes: its broadcast is one frame and no pieces.
    let mut live = LiveTransport::new(BTreeMap::from([(uri("mbt://news"), Vec::new())]));
    let live_report = run_clique_via(&mut live, &mut via_live);
    let plain_report = run_contact(
        &mut plain,
        &[0, 1, 2, 3],
        SimTime::from_secs(3_600),
        SimDuration::from_secs(900),
    );

    assert_eq!(sim_report, plain_report, "seam changed run_contact");
    assert_eq!(sim_report, bus_report, "bus backend changed the report");
    let on_bus = bus.counters();
    assert!(
        on_bus.bus_frames_carried > 0,
        "the bus contact never serialized a frame"
    );
    assert_eq!(on_bus.bus_frames_dropped, 0);
    assert!(on_bus.bus_bytes_on_wire > 0);
    assert_eq!(sim_report, live_report, "live backend changed the report");
    assert_eq!(
        live.counters(),
        on_bus,
        "the live bus carried other frames than the bus backend"
    );

    // Node state (not just counters) must agree: same events in the same
    // order, same stores.
    for (((s, b), l), p) in via_sim
        .iter_mut()
        .zip(&mut via_bus)
        .zip(&mut via_live)
        .zip(&mut plain)
    {
        let se = s.drain_events();
        assert_eq!(se, b.drain_events(), "bus produced different node events");
        assert_eq!(se, l.drain_events(), "live produced different node events");
        assert_eq!(se, p.drain_events(), "seam produced different node events");
        assert_eq!(s.metadata().len(), b.metadata().len());
        assert_eq!(s.files().len(), b.files().len());
        assert_eq!(s.own_queries().len(), b.own_queries().len());
        assert_eq!(s.metadata().len(), l.metadata().len());
        assert_eq!(s.files().len(), l.files().len());
        assert_eq!(s.own_queries().len(), l.own_queries().len());
    }
    assert!(
        sim_report.metadata_broadcasts > 0 && sim_report.file_broadcasts > 0,
        "the scenario exercised neither broadcast phase"
    );
    assert!(sim_report.queries_distributed > 0);
}

/// A receiver applies the sender's value: after a bus contact the receivers
/// hold the very record the sender holds, one allocation shared as under
/// `SimTransport`, not a decoded copy each.
#[test]
fn bus_receivers_share_the_senders_record() {
    let mut nodes = seeded_clique();
    run_clique_via(&mut BusTransport::new(), &mut nodes);
    let news = uri("mbt://news");
    let name_at = |n: &MbtNode| n.metadata().get(&news).map(|m| m.name().as_ptr());
    let sent = name_at(&nodes[0]).expect("node 0 fetched the record");
    let holders: Vec<usize> = (1..4).filter(|&i| name_at(&nodes[i]).is_some()).collect();
    assert!(!holders.is_empty(), "the record was never broadcast");
    for i in holders {
        assert_eq!(name_at(&nodes[i]), Some(sent), "node {i} holds a copy");
    }
}

/// Records every carried frame as `sender->receiver kind(item)` while
/// behaving exactly like [`SimTransport`].
#[derive(Default)]
struct RecordingTransport {
    inner: SimTransport,
    log: Vec<String>,
}

impl Transport for RecordingTransport {
    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool {
        let item = match message {
            WireMessage::Hello(h) => format!("hello({})", h.sender.index()),
            WireMessage::QueryShare { query, .. } => format!("query-share({})", query.text()),
            WireMessage::Metadata { metadata, .. } => {
                format!("metadata({})", metadata.uri().as_str())
            }
            WireMessage::FileBroadcast { uri, .. } => {
                format!("file-broadcast({})", uri.as_str())
            }
            other => other.kind().name().to_string(),
        };
        self.log
            .push(format!("{}->{} {item}", sender.index(), receiver.index()));
        self.inner.carry(sender, receiver, message)
    }
}

#[test]
fn pairwise_frame_emission_order_is_pinned() {
    // Node 0 holds the queried file; node 1 wants it. The contact must emit
    // exactly: node 1's hello to the coordinator (node 0, lowest id), the
    // metadata broadcast, then the file broadcast — in that order, because
    // discovery runs before download (§V).
    let mut server = MetadataServer::new(4);
    server.publish(
        Metadata::builder("fox evening news", "FOX", uri("mbt://news")).build(),
        Popularity::new(0.6),
    );
    let mut nodes: Vec<MbtNode> = (0..2)
        .map(|i| MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, MbtConfig::new()))
        .collect();
    nodes[0].set_internet_access(true);
    nodes[0].add_query(Query::new("evening news").unwrap(), None);
    nodes[1].add_query(Query::new("evening news").unwrap(), None);
    nodes[0].internet_session(&server, SimTime::ZERO);

    let mut recorder = RecordingTransport::default();
    run_contact_via(
        &mut recorder,
        &mut nodes,
        &[0, 1],
        SimTime::from_secs(60),
        SimDuration::from_secs(600),
        None,
        &mut ContactScratch::default(),
    );
    assert_eq!(
        recorder.log,
        vec![
            "1->0 hello(1)",
            "0->1 metadata(mbt://news)",
            "0->1 file-broadcast(mbt://news)",
        ],
        "frame emission order changed"
    );
}

#[test]
fn clique_frame_emission_order_is_repeatable() {
    // The richer 4-node clique: the exact sequence is a pure function of
    // member state (the contact path iterates only ordered collections), so
    // two identical runs must log identical sequences.
    let mut first_nodes = seeded_clique();
    let mut second_nodes = seeded_clique();
    let mut first = RecordingTransport::default();
    let mut second = RecordingTransport::default();
    run_clique_via(&mut first, &mut first_nodes);
    run_clique_via(&mut second, &mut second_nodes);
    assert!(!first.log.is_empty());
    assert_eq!(first.log, second.log, "frame order is not deterministic");
    // Hellos from every non-coordinator member come first, addressed to the
    // coordinator (lowest id).
    assert_eq!(
        &first.log[..3],
        &["1->0 hello(1)", "2->0 hello(2)", "3->0 hello(3)"]
    );
}

/// Behaves like [`SimTransport`], but panics on a carry that leaves the
/// contact: one from a member to itself, or to or from a non-member.
struct ContainedTransport {
    inner: SimTransport,
    members: Vec<NodeId>,
    carries: usize,
}

impl Transport for ContainedTransport {
    fn carry(&mut self, sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool {
        assert_ne!(sender, receiver, "a carry from a member to itself");
        for id in [sender, receiver] {
            assert!(
                self.members.contains(&id),
                "{id:?} is not a member of {:?}",
                self.members
            );
        }
        self.carries += 1;
        self.inner.carry(sender, receiver, message)
    }
}

/// Every carry stays inside its contact — what lets a transport carry
/// without opening links first — for every built-in protocol, with and
/// without a fault plan, over the seeded clique, its pairs and its triples.
#[test]
fn every_carry_stays_inside_its_contact() {
    let faulty = FaultPlan::none()
        .loss(0.2)
        .truncate(0.2)
        .corruption(0.2)
        .seed(7);
    let mut contacts: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3]];
    for a in 0..4 {
        for b in a + 1..4 {
            contacts.push(vec![a, b]);
        }
    }
    for left_out in (0..4).rev() {
        contacts.push((0..4).filter(|&i| i != left_out).collect());
    }
    assert_eq!(contacts.len(), 11);
    for protocol in ProtocolSpec::builtin() {
        for faults in [FaultPlan::none(), faulty] {
            let mut carries = 0;
            for members in &contacts {
                let mut nodes = seeded_clique_of(protocol, MbtConfig::new().faults(faults));
                let mut transport = ContainedTransport {
                    inner: SimTransport::new(),
                    members: members.iter().map(|&i| nodes[i].id()).collect(),
                    carries: 0,
                };
                run_contact_via(
                    &mut transport,
                    &mut nodes,
                    members,
                    SimTime::from_secs(3_600),
                    SimDuration::from_secs(900),
                    None,
                    &mut ContactScratch::default(),
                );
                carries += transport.carries;
            }
            assert!(carries > 0, "{protocol} under {faults:?} carried nothing");
        }
    }
}

/// Behaves like [`SimTransport`], but refuses the carry numbered `refuse`
/// (counting from 0), and logs each carry's receiver and message.
struct RefusingTransport {
    refuse: usize,
    log: Vec<(NodeId, WireMessage)>,
}

impl RefusingTransport {
    fn refusing(refuse: usize) -> Self {
        RefusingTransport {
            refuse,
            log: Vec::new(),
        }
    }
}

impl Transport for RefusingTransport {
    fn carry(&mut self, _sender: NodeId, receiver: NodeId, message: &WireMessage) -> bool {
        self.log.push((receiver, message.clone()));
        self.log.len() - 1 != self.refuse
    }
}

/// The counters in which `a` and `b` differ, by name.
fn moved(a: &Counters, b: &Counters) -> Vec<&'static str> {
    let pairs = a.entries().into_iter().zip(b.entries());
    pairs
        .filter(|((_, x), (_, y))| x != y)
        .map(|((name, _), _)| name)
        .collect()
}

/// Each carry of the seeded clique's contact refused in turn: the contact
/// loses exactly that frame, and the receiver does without what it carried.
#[test]
fn a_refused_carry_is_one_lost_frame() {
    let mut all = RefusingTransport::refusing(usize::MAX);
    let mut base_nodes = seeded_clique();
    let base = run_clique_via(&mut all, &mut base_nodes);
    assert_eq!(base.frames_lost, 0);
    let again = |nodes: &mut [MbtNode]| {
        run_contact(
            nodes,
            &[0, 1, 2, 3],
            SimTime::from_secs(7_200),
            SimDuration::from_secs(900),
        )
    };
    assert_eq!(
        again(&mut base_nodes).queries_distributed,
        0,
        "in sync after one contact"
    );
    let kinds: Vec<&str> = all.log.iter().map(|(_, m)| m.kind().name()).collect();
    for kind in ["hello", "query-share", "metadata", "file-broadcast"] {
        assert!(kinds.contains(&kind), "the contact carried no {kind}");
    }

    for (k, (receiver, sent)) in all.log.iter().enumerate() {
        let mut nodes = seeded_clique();
        let mut refusing = RefusingTransport::refusing(k);
        let lost = run_clique_via(&mut refusing, &mut nodes);
        assert_eq!(lost.frames_lost, base.frames_lost + 1, "carry {k}");
        let r = receiver.index();
        // What a later carry that arrived brought `r`, after all.
        let later = &refusing.log[k + 1..];
        match sent {
            WireMessage::Hello(h) => {
                // The member leaves the contact: it is the contact of the
                // other three, plus the lost hello.
                let m = h.sender.index();
                assert_eq!(lost.hello_exchanges, base.hello_exchanges - 1);
                assert!(
                    nodes[m].drain_events().is_empty(),
                    "carry {k}: {m} received"
                );
                assert!(later.iter().all(|(to, _)| to.index() != m), "carry {k}");
                let others: Vec<usize> = (0..4).filter(|&i| i != m).collect();
                let mut three = seeded_clique();
                let alone = run_contact(
                    &mut three,
                    &others,
                    SimTime::from_secs(3_600),
                    SimDuration::from_secs(900),
                );
                assert_eq!(
                    lost,
                    Counters {
                        frames_lost: alone.frames_lost + 1,
                        ..alone
                    },
                    "carry {k}"
                );
            }
            WireMessage::QueryShare { .. } => {
                assert_eq!(
                    moved(&lost, &base),
                    ["queries_distributed", "frames_lost"],
                    "carry {k}"
                );
                assert_eq!(lost.queries_distributed, base.queries_distributed - 1);
                // The receiver did not mark the list synced, so the next
                // contact stores what it missed.
                assert!(again(&mut nodes).queries_distributed > 0, "carry {k}");
            }
            WireMessage::Metadata { metadata, .. } => {
                let uri = metadata.uri();
                let rides = later.iter().any(|(to, m)| {
                    to == receiver && matches!(m, WireMessage::FileBroadcast { uri: u, metadata: Some(_) } if u == uri)
                });
                assert_eq!(nodes[r].has_metadata(uri), rides, "carry {k}");
                let expected: &[&str] = if rides {
                    &["frames_lost", "bytes_moved"]
                } else {
                    &["frames_lost", "metadata_transferred", "bytes_moved"]
                };
                assert_eq!(moved(&lost, &base), expected, "carry {k}");
                assert!(lost.bytes_moved < base.bytes_moved);
            }
            WireMessage::FileBroadcast { uri, .. } => {
                assert!(!nodes[r].has_file(uri), "carry {k}");
                assert!(base_nodes[r].has_file(uri));
                let moved = moved(&lost, &base);
                assert!(
                    moved
                        .iter()
                        .all(|f| ["frames_lost", "pieces_transferred", "bytes_moved"].contains(f)),
                    "carry {k}: {moved:?}"
                );
            }
            WireMessage::Piece(_) => unreachable!("a contact carries no piece"),
        }
    }
}
