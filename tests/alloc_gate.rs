//! The hot-loop allocation gate (ROADMAP, "data-oriented replay kernel"):
//! a contact's cost follows what its clique *holds and what changed*, so a
//! contact that moves nothing allocates (almost) nothing.
//!
//! Counted with the per-thread counting allocator shared with
//! `crates/mbt-core/tests/refresh_alloc.rs`, so both tests give the same
//! numbers under any `--test-threads`.

use dtn_sim::Counters;
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{NodeId, ShardWriter, SimDuration, SimTime, TraceSource};
use mbt_core::node::{run_contact_via, ContactScratch};
use mbt_core::transport::{BusTransport, SimTransport, Transport};
use mbt_core::{MbtConfig, MbtNode, Metadata, Popularity, ProtocolSpec, Query, Uri};
use mbt_experiments::run_simulation;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/sparse.rs"]
mod sparse;
use counting_alloc::allocation_of;

/// Two mutually frequent nodes with three own queries each, both holding the
/// same `shared` seeded records and their files, already in sync (each
/// holds the other's queries after one contact) — and the scratch that
/// contact left, as the runner's next contact would find it.
fn in_sync_pair(shared: usize) -> (Vec<MbtNode>, ContactScratch) {
    let mut nodes: Vec<MbtNode> = (0..2u32)
        .map(|i| {
            let mut node = MbtNode::new(NodeId::new(i), ProtocolSpec::MBT, MbtConfig::new());
            node.set_frequent_contacts([NodeId::new(1 - i)]);
            for q in 0..3 {
                node.add_query(Query::new(format!("n{i}q{q} daily")).unwrap(), None);
            }
            for r in 0..shared {
                node.seed_content(record(r), Popularity::new(0.5), true);
            }
            node.drain_events();
            node
        })
        .collect();
    let mut scratch = ContactScratch::default();
    let first = contact(&mut nodes, &mut scratch, 100);
    assert_eq!(first.queries_distributed, 6, "syncs");
    (nodes, scratch)
}

fn record(r: usize) -> Metadata {
    let uri = Uri::new(format!("mbt://show/{r:03}")).unwrap();
    Metadata::builder(format!("show {r} evening edition"), "FOX", uri).build()
}

/// A contact as the untraced runner makes it: no phase spans, so no clock
/// reads, and the scratch of the contacts before it.
fn contact(nodes: &mut [MbtNode], scratch: &mut ContactScratch, at: u64) -> Counters {
    contact_via(&mut SimTransport::new(), nodes, scratch, at)
}

/// [`contact`] over `transport`.
fn contact_via(
    transport: &mut dyn Transport,
    nodes: &mut [MbtNode],
    scratch: &mut ContactScratch,
    at: u64,
) -> Counters {
    run_contact_via(
        transport,
        nodes,
        &[0, 1],
        SimTime::from_secs(at),
        SimDuration::from_secs(300),
        None,
        scratch,
    )
}

/// An in-sync pair with empty metadata/file stores meets over
/// `SimTransport`. Before the contact kernel was made content-proportional
/// this contact performed 40 allocations, 6 while it built its member-id,
/// alive-index, snapshot and second member-id vectors anew, and 2 while
/// both members built a hello and the contact kept both as start-of-contact
/// snapshots; it performs 1: the one hello, the non-coordinator's, copies
/// the foreign queries it carries. The coordinator plans from the members
/// and builds none.
#[test]
fn an_idle_contact_allocates_almost_nothing() {
    let (mut nodes, mut scratch) = in_sync_pair(0);
    let (_, allocations, report) = allocation_of(|| contact(&mut nodes, &mut scratch, 200));
    assert_eq!(report.queries_distributed, 0, "already in sync");
    assert_eq!(report.hello_exchanges, 2);
    assert!(
        allocations <= 1,
        "an idle contact performed {allocations} allocations"
    );
}

/// The idle pair meeting over `BusTransport` allocates what it allocates
/// over `SimTransport`, 1: the bus encodes its seven frames (a hello, six
/// query shares) into one buffer it keeps, checks each against the sender's
/// message field by field without building one, answers that it arrived
/// and queues nothing. It allocated 67 while it decoded every frame in full
/// to compare the copy (65 of them the decoding), 99 while every frame
/// also took a payload `Vec`, an output `Vec` and a queue entry, and 2
/// while the coordinator built a hello of its own.
#[test]
fn an_idle_bus_contact_allocates_what_sim_does() {
    let (mut nodes, mut scratch) = in_sync_pair(0);
    let mut bus = BusTransport::new();
    contact_via(&mut bus, &mut nodes, &mut scratch, 300); // sizes the buffer
    let (_, allocations, report) =
        allocation_of(|| contact_via(&mut bus, &mut nodes, &mut scratch, 400));
    assert_eq!((report.queries_distributed, report.hello_exchanges), (0, 2));
    let carried = bus.counters();
    assert_eq!(carried.bus_frames_carried, 2 * 7);
    assert_eq!(carried.bus_frames_dropped, 0);
    assert!(
        allocations <= 1,
        "an idle bus contact performed {allocations} allocations"
    );
}

/// A contact costs what its members *differ by*: the same pair holding the
/// same 80 records and files moves nothing and — where copying both stores
/// into a union catalog took 191 allocations — adds to the idle contact's 1
/// only the walk's cursors and its scratch, 3 in all (4 while both members
/// built a hello). One record apart, the contact costs that record, however
/// much the two share.
#[test]
fn a_dense_contact_allocates_for_what_its_members_differ_by() {
    let (mut nodes, mut scratch) = in_sync_pair(80);
    let (_, allocations, report) = allocation_of(|| contact(&mut nodes, &mut scratch, 200));
    assert_eq!((report.frames_sent, report.hello_exchanges), (0, 2));
    assert!(
        allocations <= 3,
        "a contact between equal stores performed {allocations} allocations"
    );

    let one_apart = |shared: usize| {
        let (mut nodes, mut scratch) = in_sync_pair(shared);
        nodes[0].seed_content(record(999), Popularity::new(0.5), false);
        let (_, allocations, report) = allocation_of(|| contact(&mut nodes, &mut scratch, 200));
        assert_eq!(
            (report.metadata_broadcasts, report.file_broadcasts),
            (1, 0),
            "sharing {shared}"
        );
        assert_eq!(report.metadata_transferred, 1);
        allocations
    };
    let (sharing_80, sharing_160) = (one_apart(80), one_apart(160));
    // 12 at both sizes (13 while both members built a hello, 31 while the
    // receiver's store also indexed the record's nine tokens): a B-tree
    // node may split in one store and not in the other.
    assert!(
        sharing_80 <= 12 && sharing_160 <= 12 && sharing_80.abs_diff(sharing_160) <= 2,
        "{sharing_80} allocations sharing 80 records, {sharing_160} sharing 160"
    );
}

/// `run_simulation` over the sparse fixture trace, set-up and day ticks
/// included: 61.9 allocations per contact before the contact kernel was made
/// content-proportional, 15.4 while every node was built three times over
/// (evicted when it went cold, rebuilt at its next contact), every contact
/// built its six vectors anew and a day's picks rebuilt the own-query list
/// one by one; 8.1 since a node is built once, the vectors are scratch and
/// the list is rebuilt once a day; 4.84 (4.85 in a debug build) since a
/// pair lives inside its `Contact` and the two passes over the in-memory
/// trace (frequent-contact scan, replay) stopped cloning a `Vec` a contact
/// each; 3.99 (4.00) since only a non-coordinator builds a hello and the
/// coordinator plans from the members, keeping no copy of them.
#[test]
fn the_sparse_regime_averages_few_allocations_per_contact() {
    let trace = sparse::trace();
    let params = sparse::params(ProtocolSpec::MBT);
    let (_, allocations, result) = allocation_of(|| run_simulation(&trace, &params, None));
    let per_contact = allocations as f64 / result.contacts as f64;
    assert!(
        per_contact <= 4.5,
        "{allocations} allocations over {} contacts = {per_contact:.1} per contact",
        result.contacts
    );
}

/// The way to the kernel: a pair-wise contact comes off its shard line with
/// no allocation of its own — the reader keeps one line buffer, a pair lives
/// inside the `Contact` — so streaming a sharded trace allocates for its
/// shards (open the file, the reader's buffers, the resident `Vec` and its
/// doublings) and for nothing else. It was two allocations a contact: a
/// `String` a line and a `Vec` of two ids.
#[test]
fn streaming_a_sharded_trace_allocates_for_shards_not_contacts() {
    let streamed = |buses: u32| {
        let dir = std::env::temp_dir()
            .join("mbt-alloc-gate")
            .join(format!("stream-{buses}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = ShardWriter::create(&dir, SimDuration::from_days(1))
            .unwrap()
            .jobs(1);
        DieselNetConfig::new(buses, 6)
            .routes(buses / 2)
            .seed(42)
            .generate_into(&mut writer);
        let trace = writer.finish().unwrap();
        let (_, allocations, contacts) = allocation_of(|| trace.stream().count());
        assert_eq!(contacts, trace.len());
        let _ = std::fs::remove_dir_all(&dir);
        (allocations, contacts as u64, trace.shard_count() as u64)
    };
    let (few, few_contacts, shards) = streamed(500);
    let (many, many_contacts, same_shards) = streamed(4_000);
    assert_eq!((shards, same_shards), (6, 6));
    assert!(many_contacts >= 6 * few_contacts && few_contacts >= 10 * 32 * shards);
    // 14 a shard at 800 contacts each, 18 at 6 700 — most of them the
    // resident `Vec` doubling, and eight times the contacts are three
    // doublings more (at two a contact the larger trace made 80 000).
    for (allocations, contacts) in [(few, few_contacts), (many, many_contacts)] {
        assert!(
            allocations <= 32 * shards,
            "{allocations} allocations streaming {contacts} contacts of {shards} shards"
        );
    }
    assert!(many <= few + 4 * shards, "{few} allocations, then {many}");
}
