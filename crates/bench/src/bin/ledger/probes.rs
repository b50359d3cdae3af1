//! Single-layer probes of the traced run: each times one public function in
//! a tight loop, outside the workload body, to give the layer a rate that
//! can be set against its share of the body's wall clock.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use dtn_sim::telemetry::rate_per_sec as rate;
use dtn_sim::{FaultPlan, SimHandler, StreamSimulator};
use dtn_trace::generators::DieselNetConfig;
use dtn_trace::{Contact, ContactSink, NodeId, ShardWriter, SimDuration, SimTime, TraceSource};
use mbt_core::transport::live::LiveBus;
use mbt_core::transport::{decode_frame, encode_frame, HelloFrame, WireMessage};
use mbt_core::{ColdNodeState, Metadata, Popularity, Query, Uri};
use mbt_experiments::ResidueStore;

use crate::spans::Recorder;

fn ns_per(count: u64, elapsed: Duration) -> f64 {
    if count == 0 {
        0.0
    } else {
        elapsed.as_nanos() as f64 / count as f64
    }
}

struct CountingSink(u64);

impl ContactSink for CountingSink {
    fn push_contact(&mut self, contact: Contact) {
        black_box(&contact);
        self.0 += 1;
    }
}

/// Contacts per second of a generator emitting into a sink that keeps
/// nothing.
pub fn generator_rate(rec: &mut Recorder, generate: impl FnOnce(&mut dyn ContactSink)) -> f64 {
    let mut sink = CountingSink(0);
    let ((), elapsed) = rec.time("probe.generators", None, || generate(&mut sink));
    rate(sink.0, elapsed)
}

/// Contacts per second and bytes written of a [`ShardWriter`] fed from
/// memory (generation excluded), into `dir`, which is removed afterwards.
pub fn shard_write(rec: &mut Recorder, generator: &DieselNetConfig, dir: &Path) -> (f64, u64) {
    let trace = generator.generate();
    let _ = std::fs::remove_dir_all(dir);
    let (written, elapsed) = rec.time("probe.shard_write", None, || {
        let mut writer = ShardWriter::create(dir, SimDuration::from_days(1))
            .ok()?
            .jobs(1);
        for contact in trace.iter() {
            writer.push_contact(contact.clone());
        }
        writer.finish().ok()
    });
    let bytes = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    let _ = std::fs::remove_dir_all(dir);
    match written {
        Some(_) => (rate(trace.len() as u64, elapsed), bytes),
        None => (0.0, 0),
    }
}

struct NoOp;

impl SimHandler for NoOp {}

/// `(drain, engine)` contacts per second: draining `source.stream()` with no
/// consumer, and the event engine alone — a [`StreamSimulator`] over the
/// same stream with a handler that does nothing, minus the bare drain.
pub fn drain_and_engine(rec: &mut Recorder, source: &dyn TraceSource) -> (f64, f64) {
    let (drained, drain) = rec.time("probe.stream_drain", None, || {
        source
            .stream()
            .fold(0u64, |n, c| n + u64::from(black_box(c).size() > 0))
    });
    let ((), pumped) = rec.time("probe.engine", None, || {
        black_box(StreamSimulator::new(source.stream()).run(&mut NoOp));
    });
    (
        rate(drained, drain),
        rate(drained, pumped.saturating_sub(drain)),
    )
}

/// Nanoseconds per [`ResidueStore`] operation: `absorb` then `take` over
/// `nodes` entries shaped like the arena's (two queries from a shared
/// vocabulary, one credit line).
pub fn residue_ns_per_op(rec: &mut Recorder, nodes: u64) -> f64 {
    let vocabulary: Vec<Query> = (0..64)
        .map(|i| Query::new(format!("shared city query {i}")).expect("non-empty query"))
        .collect();
    let residue = |i: usize| ColdNodeState {
        queries: vec![
            (vocabulary[i % 64].clone(), None),
            (vocabulary[(i * 7 + 1) % 64].clone(), None),
        ],
        credits: vec![(NodeId::new(0), 1.0)],
    };
    let n = nodes as usize;
    let (held, elapsed) = rec.time("probe.residue", None, || {
        let mut store = ResidueStore::new(n);
        for i in 0..n {
            store.absorb(NodeId::new(i as u32), residue(i));
        }
        (0..n)
            .filter_map(|i| store.take(NodeId::new(i as u32)))
            .count()
    });
    black_box(held);
    ns_per(2 * nodes, elapsed)
}

/// Nanoseconds per [`FaultPlan::frame_lost`] roll.
pub fn fault_roll_ns(rec: &mut Recorder, plan: &FaultPlan) -> f64 {
    const ROLLS: u64 = 200_000;
    let (lost, elapsed) = rec.time("probe.fault_rolls", None, || {
        (0..ROLLS)
            .filter(|&i| {
                plan.frame_lost(
                    SimTime::from_secs(i),
                    NodeId::new((i % 97) as u32),
                    NodeId::new((i % 89) as u32 + 100),
                    "mbt://fox/news/tonight",
                )
            })
            .count()
    });
    black_box(lost);
    ns_per(ROLLS, elapsed)
}

/// The four message shapes a contact puts on the bus.
fn message_mix() -> Vec<WireMessage> {
    let uri = |s: String| Uri::new(s).expect("static scheme");
    let query = |s: String| Query::new(s).expect("non-empty query");
    let metadata = Metadata::builder(
        "fox evening news tonight",
        "FOX",
        uri("mbt://fox/news/tonight".to_string()),
    )
    .description("nightly news broadcast")
    .content(&[0xA5u8; 4096], 1024)
    .build();
    vec![
        WireMessage::Hello(HelloFrame {
            sender: NodeId::new(0),
            own_queries: (0..6)
                .map(|i| (query(format!("evening news {i}")), None))
                .collect(),
            foreign_queries: (0..4).map(|i| query(format!("morning show {i}"))).collect(),
            wanted: (0..8)
                .map(|i| uri(format!("mbt://fox/news/ep-{i}")))
                .collect(),
            rejected: BTreeSet::new(),
            frequent: (1..5).map(NodeId::new).collect(),
            credits: (1..9)
                .map(|i| (NodeId::new(i), f64::from(i) * 0.5))
                .collect(),
        }),
        WireMessage::QueryShare {
            owner: NodeId::new(3),
            query: query("evening news".to_string()),
            expires: Some(SimTime::from_secs(86_400)),
        },
        WireMessage::Metadata {
            metadata: metadata.clone(),
            popularity: Popularity::new(0.8),
        },
        WireMessage::FileBroadcast {
            uri: metadata.uri().clone(),
            metadata: Some((metadata, Popularity::new(0.8))),
        },
    ]
}

pub struct FrameProbe {
    pub ns_per_frame: f64,
    pub bytes_per_frame: f64,
    /// Frames the probe damaged on purpose (one payload byte flipped).
    pub corrupted: u64,
    /// Frames `decode_frame` rejected; equals `corrupted` for a sound codec.
    pub decode_errors: u64,
}

/// `encode_frame` + `decode_frame` over the fixed message mix; every 16th
/// frame is damaged in flight and must be rejected.
pub fn frame_codec(rec: &mut Recorder) -> FrameProbe {
    const ROUNDS: u64 = 20_000;
    let mix = message_mix();
    let (sender, receiver) = (NodeId::new(3), NodeId::new(7));
    let ((bytes, corrupted, errors), elapsed) = rec.time("probe.frame_codec", None, || {
        let (mut bytes, mut corrupted, mut errors) = (0u64, 0u64, 0u64);
        for seq in 0..ROUNDS {
            let message = &mix[(seq % mix.len() as u64) as usize];
            let mut frame = encode_frame(sender, receiver, seq, black_box(message));
            bytes += frame.len() as u64;
            if seq % 16 == 15 {
                *frame.last_mut().expect("frames have a header") ^= 0x01;
                corrupted += 1;
            }
            if black_box(decode_frame(&frame)).is_err() {
                errors += 1;
            }
        }
        (bytes, corrupted, errors)
    });
    FrameProbe {
        ns_per_frame: ns_per(ROUNDS, elapsed),
        bytes_per_frame: bytes as f64 / ROUNDS as f64,
        corrupted,
        decode_errors: errors,
    }
}

/// Nanoseconds per frame through a [`LiveBus`] looped back on this thread:
/// `send` then `recv` over one open link, so the queue never blocks.
pub fn live_bus_ns_per_frame(rec: &mut Recorder) -> f64 {
    const FRAMES: u64 = 20_000;
    let mix = message_mix();
    let (a, b) = (NodeId::new(1), NodeId::new(2));
    let bus = LiveBus::new();
    bus.open(a, b);
    let (received, elapsed) = rec.time("probe.live_bus", None, || {
        (0..FRAMES)
            .filter(|&i| {
                bus.send(a, b, &mix[(i % mix.len() as u64) as usize])
                    && bus.recv(b, Duration::from_secs(1)).is_some()
            })
            .count() as u64
    });
    bus.close(a, b);
    ns_per(received, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_probe_rejects_exactly_the_damaged_frames() {
        let mut rec = Recorder::new("test");
        let probe = frame_codec(&mut rec);
        assert_eq!(probe.corrupted, 1_250);
        assert_eq!(probe.decode_errors, probe.corrupted);
        assert!(probe.bytes_per_frame > 64.0, "header plus payload");
    }

    #[test]
    fn live_bus_loops_back_every_frame() {
        let mut rec = Recorder::new("test");
        assert!(live_bus_ns_per_frame(&mut rec) > 0.0);
        assert!(residue_ns_per_op(&mut rec, 0) == 0.0);
        assert!(residue_ns_per_op(&mut rec, 50) > 0.0);
    }
}
