//! The three simulator workloads: `city_stream`, `campus_sweep`,
//! `bus_faulted`. They share `run_simulation` and the node layer and differ
//! in what they make it do — see each `WHY`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dtn_sim::rng::derive_seed;
use dtn_sim::telemetry::{Phase, PhaseTimes, Telemetry};
use dtn_sim::FaultPlan;
use dtn_trace::generators::{DieselNetConfig, NusConfig};
use dtn_trace::{ContactTrace, ShardWriter, ShardedTrace, SimDuration, TraceSource};
use mbt_core::{ProtocolSpec, TransportKind};
use mbt_experiments::report::figure_csv;
use mbt_experiments::{run_simulation, ExecConfig, ParallelRunner, SimParams, SimResult};

use crate::probes;
use crate::run::{Bench, Layers, Outcome};
use crate::spans::{Recorder, SpanId, TimedSource};
use crate::stats::{median, Digest};

/// Folds every field of a result, the daily series included.
fn fold_sim(d: &mut Digest, r: &SimResult) {
    for v in [
        r.queries,
        r.metadata_delivered,
        r.files_delivered,
        r.contacts,
        r.metadata_broadcasts,
        r.file_broadcasts,
        r.queries_distributed,
        r.frames_lost,
        r.corrupt_receptions,
    ] {
        d.u64(v);
    }
    d.f64(r.metadata_ratio);
    d.f64(r.file_ratio);
    d.opt_f64(r.mean_metadata_delay_hours);
    d.opt_f64(r.mean_file_delay_hours);
    for series in [&r.daily_metadata_delivered, &r.daily_files_delivered] {
        d.u64(series.len() as u64);
        for &v in series {
            d.u64(v);
        }
    }
}

fn single_sim_outcome(events: usize, result: SimResult) -> Outcome {
    let mut digest = Digest::new();
    digest.u64(events as u64);
    fold_sim(&mut digest, &result);
    Outcome {
        events: events as u64,
        digest: digest.0,
        sim: Some(result),
        ..Outcome::default()
    }
}

/// One `run_simulation` call seen from outside: its span, its telemetry,
/// and what the `TimedSource` saw of the contact streams.
struct SimTrace {
    result: SimResult,
    telemetry: Telemetry,
    span: SpanId,
    /// Time inside every stream the run opened (scan + replay).
    stream_busy: Duration,
    /// The part of `stream_busy` spent in the frequent-contact scan, which
    /// `run_simulation` itself charges to `Phase::TraceLoad`.
    scan_busy: Duration,
    /// Contacts the replay stream yielded.
    replayed: u64,
}

fn traced_sim(
    rec: &mut Recorder,
    parent: SpanId,
    source: &dyn TraceSource,
    params: &SimParams,
) -> SimTrace {
    let timed = TimedSource::new(source);
    let mut telemetry = Telemetry::default();
    let span = rec.open("run_simulation", Some(parent));
    let result = run_simulation(&timed, params, Some(&mut telemetry));
    rec.close(span);
    let timings = timed.take_timings();
    // Sources without precomputed pair aggregates are streamed twice: the
    // statistics scan first, then the replay.
    let (scans, replay) = timings.split_at(timings.len().saturating_sub(1));
    SimTrace {
        result,
        telemetry,
        span,
        stream_busy: timings.iter().map(|t| t.busy).sum(),
        scan_busy: scans.iter().map(|t| t.busy).sum(),
        replayed: replay.first().map_or(0, |t| t.contacts),
    }
}

/// Hangs the per-contact layers under a `run_simulation` span as aggregate
/// children. `node` holds the phase times charged to the node layer; when
/// the run itself spent longer in contact processing than `node` did (the
/// same run under the in-process transport), the difference is the bus.
fn attach_layers(rec: &mut Recorder, t: &SimTrace, node: &PhaseTimes) {
    let phases = &t.telemetry.phases;
    rec.aggregate("trace.shard_decode", t.span, t.stream_busy);
    rec.aggregate(
        "trace.frequent_map",
        t.span,
        phases.get(Phase::TraceLoad).saturating_sub(t.scan_busy),
    );
    let contact = rec.aggregate("node.contact", t.span, phases.get(Phase::ContactProcessing));
    let bus = phases
        .get(Phase::ContactProcessing)
        .saturating_sub(node.get(Phase::ContactProcessing));
    if !bus.is_zero() {
        rec.aggregate("transport.bus", contact, bus);
    }
    rec.aggregate("node.discovery", contact, node.get(Phase::Discovery));
    rec.aggregate("node.download", contact, node.get(Phase::Download));
}

/// The counter-backed per-layer metrics every simulator workload reports.
fn counter_layers(tel: &Telemetry, replayed: u64) -> Layers {
    let c = &tel.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let contact_us = tel.phases.get(Phase::ContactProcessing).as_secs_f64() * 1e6;
    Layers::from([
        ("trace.shard_decode.contacts", replayed as f64),
        ("trace.shard_decode.shards_loaded", c.shards_loaded as f64),
        (
            "sim.faults.frame_loss_ratio",
            ratio(c.frames_lost, c.frames_sent),
        ),
        ("node.contact.count", c.contacts as f64),
        (
            "node.contact.us_per_contact",
            if c.contacts == 0 {
                0.0
            } else {
                contact_us / c.contacts as f64
            },
        ),
        ("node.contact.hello_exchanges", c.hello_exchanges as f64),
        ("node.contact.frames_sent", c.frames_sent as f64),
        ("node.contact.frames_lost", c.frames_lost as f64),
        ("node.discovery.index_lookups", c.index_lookups as f64),
        (
            "node.discovery.wanted_cache_hits",
            c.wanted_cache_hits as f64,
        ),
        (
            "node.discovery.metadata_transferred",
            c.metadata_transferred as f64,
        ),
        (
            "node.download.pieces_transferred",
            c.pieces_transferred as f64,
        ),
        (
            "node.download.corrupt_receptions",
            c.corrupt_receptions as f64,
        ),
        (
            "node.download.useful_ratio",
            1.0 - ratio(c.corrupt_receptions, c.pieces_transferred),
        ),
        (
            "runner.arena.nodes_instantiated",
            c.nodes_instantiated as f64,
        ),
        (
            "runner.arena.peak_resident_nodes",
            c.peak_resident_nodes as f64,
        ),
        ("residue.peak_nodes", c.peak_residue_nodes as f64),
        ("residue.bytes_est", c.residue_bytes_est as f64),
    ])
}

fn expect_same(what: &str, traced: &SimResult, reference: Option<&SimResult>) -> Option<String> {
    (Some(traced) != reference).then(|| format!("{what}: traced SimResult differs from untraced"))
}

// ---------------------------------------------------------------- city_stream

pub struct CityStream;

pub struct CityInput {
    trace: ShardedTrace,
    params: SimParams,
    generator: DieselNetConfig,
    dir: PathBuf,
}

impl Drop for CityInput {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Bench for CityStream {
    type Input = CityInput;

    const NAME: &'static str = "city_stream";
    const WHY: &'static str = "sparse pair-wise on-disk city trace, many nodes touched rarely: \
        shard decode, lazy arena, residue and the un-spanned runner remainder do the work";
    const EVENT: &'static str = "contact";
    const NOMINAL_BODY_S: f64 = 10.0;
    const BODY_CONSUMES_INPUT: bool = false;

    fn setup(seed: u64, smoke: bool, scratch: &Path) -> Result<CityInput, String> {
        // The CI city parameters; the smoke scale raises the Internet share
        // so that 40 buses still hold one Internet-access node.
        let (buses, internet) = if smoke { (40, 0.1) } else { (40_000, 0.001) };
        let generator = DieselNetConfig::new(buses, 12).seed(seed).routes(buses / 2);
        let _ = std::fs::remove_dir_all(scratch);
        let mut writer = ShardWriter::create(scratch, SimDuration::from_days(1))
            .map_err(|e| e.to_string())?
            .jobs(1);
        generator.generate_into(&mut writer);
        let trace = writer.finish().map_err(|e| e.to_string())?;
        trace.verify().map_err(|e| e.to_string())?;
        let params = SimParams::builder()
            .days(12)
            .seed(seed)
            .files_per_day(10)
            .ttl_days(2)
            .internet_fraction(internet)
            .frequent_window(SimDuration::from_days(3))
            .build();
        Ok(CityInput {
            trace,
            params,
            generator,
            dir: scratch.to_path_buf(),
        })
    }

    fn body(input: &mut CityInput) -> Outcome {
        let result = run_simulation(&input.trace, &input.params, None);
        single_sim_outcome(TraceSource::len(&input.trace), result)
    }

    fn traced(
        input: &mut CityInput,
        reference: &Outcome,
        rec: &mut Recorder,
        root: SpanId,
    ) -> (Layers, Vec<String>) {
        let t = traced_sim(rec, root, &input.trace, &input.params);
        rec.close(root);
        attach_layers(rec, &t, &t.telemetry.phases);
        let mut violations: Vec<String> =
            expect_same(Self::NAME, &t.result, reference.sim.as_ref())
                .into_iter()
                .collect();
        let shards = input.trace.shard_count() as u64;
        if t.telemetry.counters.shards_loaded != shards {
            violations.push(format!(
                "replay loaded {} shards of {shards}",
                t.telemetry.counters.shards_loaded
            ));
        }
        let mut layers = counter_layers(&t.telemetry, t.replayed);

        let generated = probes::generator_rate(rec, |sink| input.generator.generate_into(sink));
        layers.insert("trace.generators.contacts_per_s", generated);
        let (write_rate, bytes) =
            probes::shard_write(rec, &input.generator, &input.dir.join("probe"));
        layers.insert("trace.shard_write.contacts_per_s", write_rate);
        layers.insert("trace.shard_write.bytes", bytes as f64);
        let (drain_rate, engine_rate) = probes::drain_and_engine(rec, &input.trace);
        layers.insert("trace.shard_decode.contacts_per_s", drain_rate);
        layers.insert("sim.engine.contacts_per_s", engine_rate);
        layers.insert(
            "residue.absorb_take.ns_per_op",
            probes::residue_ns_per_op(rec, t.telemetry.counters.peak_residue_nodes),
        );
        (layers, violations)
    }
}

// --------------------------------------------------------------- campus_sweep

pub struct CampusSweep;

pub struct CampusInput {
    source: Arc<dyn TraceSource>,
    generator: NusConfig,
    /// Everything but the swept Internet share; its seed is also the sweep's
    /// master seed.
    base: SimParams,
    /// The protocol ordering is a statistical property of the full-scale
    /// trace; a 20-student smoke trace is too small to show it.
    check_ordering: bool,
}

const CAMPUS_XS: [f64; 3] = [0.1, 0.3, 0.5];

impl CampusInput {
    fn params_for(&self, internet: f64) -> SimParams {
        SimParams {
            internet_fraction: internet,
            ..self.base.clone()
        }
    }
}

impl Bench for CampusSweep {
    type Input = CampusInput;

    const NAME: &'static str = "campus_sweep";
    const WHY: &'static str = "in-memory clique contacts, big stores, five protocol variants: \
        discovery matching, download scheduling, internet sessions and exec reduction do the work";
    const EVENT: &'static str = "cell";
    const NOMINAL_BODY_S: f64 = 5.0;
    const BODY_CONSUMES_INPUT: bool = false;

    fn setup(seed: u64, smoke: bool, _scratch: &Path) -> Result<CampusInput, String> {
        let (students, days) = if smoke { (20, 3) } else { (200, 15) };
        let generator = NusConfig::new(students, days).seed(seed);
        let trace: ContactTrace = generator.generate();
        let base = SimParams::builder()
            .days(days)
            .seed(seed)
            .frequent_window(SimDuration::from_days(1))
            .build();
        Ok(CampusInput {
            source: Arc::new(trace),
            generator,
            base,
            check_ordering: !smoke,
        })
    }

    fn body(input: &mut CampusInput) -> Outcome {
        let runner = ParallelRunner::new(ExecConfig::serial().master_seed(input.base.seed))
            .with_protocols(ProtocolSpec::builtin());
        let fig = runner.sweep_shared_source(
            "ledger",
            "campus sweep",
            "internet fraction",
            &CAMPUS_XS,
            Arc::clone(&input.source),
            |x| input.params_for(x),
            None,
        );
        let mut digest = Digest::new();
        digest.bytes(figure_csv(&fig).as_bytes());
        let mut pooled = SimResult::default();
        let mut violations = Vec::new();
        let mut file_ratio_of = Vec::new();
        for series in &fig.series {
            let mut per_protocol = SimResult::default();
            for point in &series.points {
                fold_sim(&mut digest, &point.result);
                per_protocol.merge(&point.result);
                if point.result.queries == 0 {
                    violations.push(format!("{} x={}: no queries", series.protocol, point.x));
                }
            }
            pooled.merge(&per_protocol);
            file_ratio_of.push((series.protocol, per_protocol.file_ratio));
        }
        // The paper's Figs 2-3 put MBT >= MBT-Q >= MBT-QM. Distributing
        // metadata is worth some fifteen points of pooled file delivery on
        // every pinned input; distributing queries on top moves it by a
        // point either way (README, "Where this departs from the issue"),
        // so only the step every input shows is held as a check.
        let ratio = |p: ProtocolSpec| {
            let found = file_ratio_of.iter().find(|(q, _)| *q == p);
            found.map_or(f64::NAN, |(_, r)| *r)
        };
        let (mbt, q, qm) = (
            ratio(ProtocolSpec::MBT),
            ratio(ProtocolSpec::MBT_Q),
            ratio(ProtocolSpec::MBT_QM),
        );
        if input.check_ordering && !(mbt >= qm && q >= qm) {
            violations.push(format!(
                "pooled file ratio of MBT ({mbt}) or MBT-Q ({q}) below MBT-QM ({qm})"
            ));
        }
        let cells = (fig.series.len() * CAMPUS_XS.len()) as u64;
        Outcome {
            events: cells,
            digest: digest.0,
            inner_ops: cells,
            sim: Some(pooled),
            violations,
            ..Outcome::default()
        }
    }

    fn traced(
        input: &mut CampusInput,
        reference: &Outcome,
        rec: &mut Recorder,
        root: SpanId,
    ) -> (Layers, Vec<String>) {
        // The sweep, cell by cell in the executor's grid order with its
        // documented per-cell seed, so each cell gets its own span.
        let mut telemetry = Telemetry::default();
        let mut pooled = SimResult::default();
        let mut cell_s = Vec::new();
        let mut replayed = 0;
        let protocols = ProtocolSpec::builtin();
        let mut per_protocol = vec![SimResult::default(); protocols.len()];
        for (point_idx, &x) in CAMPUS_XS.iter().enumerate() {
            for (proto_idx, &protocol) in protocols.iter().enumerate() {
                let mut params = input.params_for(x);
                params.protocol = protocol;
                params.seed =
                    derive_seed(&[input.base.seed, point_idx as u64, proto_idx as u64, 0]);
                let cell = rec.open("exec.cell", Some(root));
                let t = traced_sim(rec, cell, input.source.as_ref(), &params);
                rec.close(cell);
                attach_layers(rec, &t, &t.telemetry.phases);
                cell_s.push(rec.duration(cell).as_secs_f64());
                telemetry.merge(&t.telemetry);
                replayed += t.replayed;
                per_protocol[proto_idx].merge(&t.result);
            }
        }
        // Pool in the untraced body's order (protocol-major) so the float
        // means combine identically.
        for result in &per_protocol {
            pooled.merge(result);
        }
        rec.close(root);
        let violations = expect_same(Self::NAME, &pooled, reference.sim.as_ref())
            .into_iter()
            .collect();

        let mut layers = counter_layers(&telemetry, replayed);
        layers.insert("exec.cell.count", cell_s.len() as f64);
        layers.insert("exec.cell.p50_s", median(&cell_s).unwrap_or(0.0));
        layers.insert(
            "exec.cell.max_s",
            cell_s.iter().copied().fold(0.0, f64::max),
        );
        let generated = probes::generator_rate(rec, |sink| input.generator.generate_into(sink));
        layers.insert("trace.generators.contacts_per_s", generated);
        let (_, engine_rate) = probes::drain_and_engine(rec, input.source.as_ref());
        layers.insert("sim.engine.contacts_per_s", engine_rate);
        (layers, violations)
    }
}

// ---------------------------------------------------------------- bus_faulted

pub struct BusFaulted;

pub struct BusInput {
    trace: ContactTrace,
    generator: DieselNetConfig,
    params: SimParams,
}

impl Bench for BusFaulted {
    type Input = BusInput;

    const NAME: &'static str = "bus_faulted";
    const WHY: &'static str = "the city's node layer used densely, every message framed through \
        the bus under loss/truncation/corruption: codec, BusTransport, faults and discovery dominate";
    const EVENT: &'static str = "contact";
    const NOMINAL_BODY_S: f64 = 6.5;
    const BODY_CONSUMES_INPUT: bool = false;

    fn setup(seed: u64, smoke: bool, _scratch: &Path) -> Result<BusInput, String> {
        let (buses, days) = if smoke { (16, 4) } else { (120, 12) };
        let generator = DieselNetConfig::new(buses, days).seed(seed);
        let params = SimParams::builder()
            .protocol(ProtocolSpec::MBT)
            .days(days)
            .seed(seed)
            .internet_fraction(0.3)
            .frequent_window(SimDuration::from_days(3))
            .transport(TransportKind::Bus)
            .faults(
                FaultPlan::none()
                    .loss(0.10)
                    .truncate(0.10)
                    .corruption(0.05)
                    .seed(seed),
            )
            .build();
        Ok(BusInput {
            trace: generator.generate(),
            generator,
            params,
        })
    }

    fn body(input: &mut BusInput) -> Outcome {
        let result = run_simulation(&input.trace, &input.params, None);
        single_sim_outcome(input.trace.len(), result)
    }

    fn traced(
        input: &mut BusInput,
        reference: &Outcome,
        rec: &mut Recorder,
        root: SpanId,
    ) -> (Layers, Vec<String>) {
        let bus = traced_sim(rec, root, &input.trace, &input.params);
        rec.close(root);
        // The identical run with in-process moves instead of frames: what it
        // spends in the contact phases is the node layer's own cost.
        let in_process = SimParams {
            transport: TransportKind::Sim,
            ..input.params.clone()
        };
        let mut reference_tel = Telemetry::default();
        let (sim_result, _) = rec.time("probe.sim_transport_run", None, || {
            run_simulation(&input.trace, &in_process, Some(&mut reference_tel))
        });
        attach_layers(rec, &bus, &reference_tel.phases);

        let mut violations: Vec<String> =
            expect_same(Self::NAME, &bus.result, reference.sim.as_ref())
                .into_iter()
                .collect();
        if bus.result != sim_result {
            violations.push("SimResult(Bus) differs from SimResult(Sim)".to_string());
        }
        if bus.result.frames_lost == 0 || bus.result.corrupt_receptions == 0 {
            violations.push("the fault plan injected nothing".to_string());
        }

        let mut layers = counter_layers(&bus.telemetry, bus.replayed);
        let c = &bus.telemetry.counters;
        let bus_s = bus
            .telemetry
            .phases
            .get(Phase::ContactProcessing)
            .saturating_sub(reference_tel.phases.get(Phase::ContactProcessing))
            .as_secs_f64();
        if bus_s > 0.0 {
            layers.insert(
                "transport.bus.frames_per_s",
                (c.frames_sent + c.hello_exchanges) as f64 / bus_s,
            );
        }
        let generated = probes::generator_rate(rec, |sink| input.generator.generate_into(sink));
        layers.insert("trace.generators.contacts_per_s", generated);
        let (_, engine_rate) = probes::drain_and_engine(rec, &input.trace);
        layers.insert("sim.engine.contacts_per_s", engine_rate);
        layers.insert(
            "sim.faults.ns_per_roll",
            probes::fault_roll_ns(rec, &input.params.faults),
        );
        let frame = probes::frame_codec(rec);
        layers.insert("transport.frame.ns_per_frame", frame.ns_per_frame);
        layers.insert("transport.frame.bytes_per_frame", frame.bytes_per_frame);
        layers.insert("transport.frame.decode_errors", frame.decode_errors as f64);
        if frame.decode_errors != frame.corrupted {
            violations.push(format!(
                "decoder rejected {} of {} corrupted frames",
                frame.decode_errors, frame.corrupted
            ));
        }
        layers.insert(
            "transport.live_bus.ns_per_frame",
            probes::live_bus_ns_per_frame(rec),
        );
        (layers, violations)
    }
}
