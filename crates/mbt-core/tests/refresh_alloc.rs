//! Regression test for the satellite fix: `refresh_popularities` and
//! `expire` used to clone the **entire** URI keyspace into a `Vec<Uri>` on
//! every call (and re-insert every popularity key), i.e. ~100k `Arc` bumps
//! plus a multi-megabyte scratch vector per daily refresh on a large server.
//! The sharded server walks each shard's records in place instead.
//!
//! The shared counting global allocator (`tests/support/counting_alloc.rs`;
//! per thread, so the two tests can run in parallel) measures the bytes
//! allocated *during* the refresh on a 10⁵-record server. The old
//! implementation allocated at least `100_000 × size_of::<Uri>()` (1.6 MB)
//! for the keyspace clone alone; the rewrite stays within a small fixed budget that only covers
//! the estimator's per-requested-URI scratch — proving URIs are neither
//! cloned wholesale nor re-interned.
//!
//! The same allocator holds `search` to the work it returns: every record
//! here carries `file`, `news` and `fox`, so a query naming one of them and
//! one rare token must not touch — let alone copy — a 10⁵-entry list.
//!
//! And it holds `snapshot` to a clone that shares every shard and the
//! request log: its allocation count does not grow with either; and a
//! republish that keeps its token set to no allocation at all.

use dtn_trace::{NodeId, SimDuration, SimTime};
use mbt_core::{Metadata, MetadataServer, Popularity, Query, Uri};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocation_of;

const RECORDS: usize = 100_000;
const REQUESTED: usize = 8;

fn build_server(shards: usize) -> MetadataServer {
    let mut server = MetadataServer::with_shards(20, shards);
    for i in 0..RECORDS {
        let uri = Uri::new(format!("mbt://alloc/file-{i}")).unwrap();
        let meta = Metadata::builder(format!("file {i} news"), "FOX", uri).build();
        server.publish(meta, Popularity::new((i % 100) as f64 / 100.0));
    }
    // A handful of requested URIs: the estimator's only legitimate scratch.
    let t = SimTime::from_secs(1_000);
    for i in 0..REQUESTED {
        let uri = Uri::new(format!("mbt://alloc/file-{i}")).unwrap();
        server.record_request(&uri, NodeId::new(i as u32), t);
        server.record_request(&uri, NodeId::new((i + 1) as u32), t);
    }
    server
}

#[test]
fn refresh_on_a_100k_record_server_does_not_clone_the_keyspace() {
    for shards in [1, 8] {
        let mut server = build_server(shards);
        let now = SimTime::from_secs(2_000);
        // Warm once: BTreeMap node churn from the very first in-place walk
        // settles, matching steady-state daily refreshes.
        server.refresh_popularities(now);

        let (bytes, allocs, ()) = allocation_of(|| {
            server.refresh_popularities(now);
        });

        // The old implementation's keyspace clone alone was
        // RECORDS * size_of::<Uri>() = 1.6 MB before counting the string
        // re-interning it fed. Budget: the estimator's per-requested-URI
        // scratch plus slack — two orders of magnitude below the clone.
        let budget = 16 * 1024;
        assert!(
            bytes < budget,
            "refresh with {shards} shards allocated {bytes} bytes \
             ({allocs} allocations); keyspace is being cloned again"
        );
        // And nothing about the refresh scales with the record count: a
        // second refresh allocates the same small scratch.
        let (bytes_again, _, ()) = allocation_of(|| {
            server.refresh_popularities(now);
        });
        assert!(
            bytes_again < budget,
            "repeat refresh allocated {bytes_again}"
        );

        // The refresh actually did its job.
        let hot = Uri::new("mbt://alloc/file-0").unwrap();
        let cold = Uri::new("mbt://alloc/file-99999").unwrap();
        assert!(server.popularity_of(&hot).value() > 0.0);
        assert_eq!(server.popularity_of(&cold), Popularity::MIN);
    }
}

#[test]
fn expire_with_nothing_expired_allocates_nothing_per_record() {
    // No record carries a TTL, so the expiry pass must be a read-only scan:
    // no expired-URI vector proportional to the keyspace, no shard copies.
    let mut server = build_server(8);
    let (bytes, _, dropped) =
        allocation_of(|| server.expire(SimTime::ZERO + SimDuration::from_days(3_650)));
    assert_eq!(dropped, 0);
    assert!(
        bytes < 4 * 1024,
        "no-op expire allocated {bytes} bytes on a {RECORDS}-record server"
    );
    assert_eq!(server.len(), RECORDS);
}

#[test]
fn search_allocates_for_what_it_returns_not_for_the_lists_it_names() {
    for shards in [1, 8] {
        let server = build_server(shards);
        // Rarest list one entry, commonest 10⁵: only the survivor is ever
        // resolved, ranked and returned.
        let rare_and_common = Query::new("7 news").unwrap();
        let (bytes, allocs, hits) = allocation_of(|| server.search(&rare_and_common, 10));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].uri().as_str(), "mbt://alloc/file-7");
        assert!(
            bytes < 1024,
            "a one-hit search with {shards} shards allocated {bytes} bytes \
             ({allocs} allocations); the common token's postings are being gathered"
        );

        // One token no record carries: the answer is known before anything
        // is allocated, whatever the other token's list holds.
        let absent = Query::new("news zzz").unwrap();
        let (bytes, allocs, hits) = allocation_of(|| server.search(&absent, 10));
        assert!(hits.is_empty());
        assert_eq!(
            (bytes, allocs),
            (0, 0),
            "a search for an absent token allocated with {shards} shards"
        );
    }
}

#[test]
fn a_snapshot_copies_no_record_and_no_request() {
    let server_of = |records: usize, requests: usize| {
        let mut server = MetadataServer::with_shards(20, 8);
        for i in 0..records {
            let uri = Uri::new(format!("mbt://snap/file-{i}")).unwrap();
            let meta = Metadata::builder(format!("file {i} news"), "FOX", uri).build();
            server.publish(meta, Popularity::new((i % 100) as f64 / 100.0));
        }
        let t = SimTime::from_secs(1_000);
        for i in 0..requests {
            let uri = Uri::new(format!("mbt://snap/file-{}", i % records)).unwrap();
            server.record_request(&uri, NodeId::new(i as u32), t);
        }
        server
    };
    let small = server_of(10, 0);
    let large = server_of(10_000, 10_000);
    let (_, small_allocs, _) = allocation_of(|| small.snapshot());
    let (_, large_allocs, snapshot) = allocation_of(|| large.snapshot());
    assert_eq!(
        large_allocs, small_allocs,
        "a snapshot of 10⁴ records and requests allocated more than one of 10 records; \
         a shard or the request log is being copied"
    );
    assert_eq!(snapshot.len(), 10_000);
}

#[test]
fn a_republish_that_keeps_its_tokens_allocates_nothing() {
    for shards in [1, 8] {
        let mut server = build_server(shards);
        // The record is built before the measured region: what is counted
        // is the server's own work, which leaves the slot, the `Uri → slot`
        // entry and every posting list as they are.
        let uri = Uri::new("mbt://alloc/file-4242").unwrap();
        let meta = Metadata::builder("file 4242 news", "FOX", uri.clone()).build();
        let (bytes, allocs, ()) = allocation_of(|| server.publish(meta, Popularity::MAX));
        assert_eq!(
            (bytes, allocs),
            (0, 0),
            "a republish with an unchanged token set allocated with {shards} shards"
        );
        assert_eq!(server.len(), RECORDS);
        assert_eq!(server.popularity_of(&uri), Popularity::MAX);
        assert_eq!(
            server.search(&Query::new("4242 news").unwrap(), 10).len(),
            1
        );
    }
}
