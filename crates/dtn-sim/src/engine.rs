//! The discrete-event simulation engine.

use dtn_trace::{Contact, SimTime};

/// Callbacks invoked by the [`StreamSimulator`].
///
/// All methods have empty default implementations so handlers implement only
/// what they need. There is no contact-end callback: a handler is told a
/// contact's whole interval when it starts.
pub trait SimHandler {
    /// A contact begins; the clock reads [`Contact::start`].
    fn on_contact(&mut self, contact: &Contact) {
        let _ = contact;
    }

    /// A tick registered with [`StreamSimulator::schedule`] fires at `at`.
    fn on_tick(&mut self, at: SimTime, tag: u64) {
        let _ = (at, tag);
    }

    /// Called once after the last event, with that event's instant.
    fn on_finish(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// Drives a [`SimHandler`] through a *stream* of contacts in event order,
/// holding one contact at a time.
///
/// The stream must yield contacts sorted by start time (the canonical
/// [`dtn_trace::ContactTrace`] order — both in-memory traces and sharded
/// traces provide it; for the former pass `trace.iter().cloned()`). Use
/// [`StreamSimulator::horizon`] to cut the run short and
/// [`StreamSimulator::schedule`] to register ticks (e.g. a daily workload
/// tick); every tick is known before the run starts.
///
/// Order: the run is a merge of the contact stream with the ticks sorted by
/// `(time, tag)`, ties in registration order. Before a contact starting at
/// `s` fires, every tick at or before `s` fires — so at one instant ticks
/// come before contact starts; contacts starting together fire in stream
/// order. Given the same contact sequence and ticks, two runs therefore
/// produce identical event sequences — the sequence a queue holding every
/// contact start up front would pop (`tests/properties.rs` holds the merge
/// to that model).
///
/// Memory: the engine holds the ticks registered — a handful, whatever the
/// number of contacts.
#[derive(Debug)]
pub struct StreamSimulator<I> {
    contacts: I,
    ticks: Vec<(SimTime, u64)>,
    horizon: Option<SimTime>,
}

impl<I: Iterator<Item = Contact>> StreamSimulator<I> {
    /// Creates a streaming simulator over `contacts` (sorted by start).
    pub fn new(contacts: I) -> Self {
        StreamSimulator {
            contacts,
            ticks: Vec::new(),
            horizon: None,
        }
    }

    /// Stops the run at `at`: events strictly after the horizon never fire.
    pub fn horizon(mut self, at: SimTime) -> Self {
        self.horizon = Some(at);
        self
    }

    /// Registers a tick tagged `tag` at `at`.
    pub fn schedule(mut self, at: SimTime, tag: u64) -> Self {
        self.ticks.push((at, tag));
        self
    }

    /// Runs the simulation to completion, returning the final clock value:
    /// the instant of the last event that fired.
    pub fn run<H: SimHandler>(self, handler: &mut H) -> SimTime {
        let StreamSimulator {
            contacts,
            mut ticks,
            horizon,
        } = self;
        let within = |t: SimTime| horizon.is_none_or(|h| t <= h);
        ticks.retain(|&(at, _)| within(at));
        ticks.sort_by_key(|&tick| tick);
        let mut ticks = ticks.into_iter().peekable();
        let mut now = SimTime::ZERO;
        // Starts are sorted: once one lies beyond the horizon so does every
        // later one, and the stream is not pulled again.
        for contact in contacts.take_while(|c| within(c.start())) {
            while let Some((at, tag)) = ticks.next_if(|&(at, _)| at <= contact.start()) {
                handler.on_tick(at, tag);
            }
            now = contact.start();
            handler.on_contact(&contact);
        }
        for (at, tag) in ticks {
            now = at;
            handler.on_tick(at, tag);
        }
        handler.on_finish(now);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_trace::{ContactTrace, NodeId};

    fn pc(a: u32, b: u32, start: u64, end: u64) -> Contact {
        Contact::pairwise(
            NodeId::new(a),
            NodeId::new(b),
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
        .unwrap()
    }

    #[derive(Default)]
    struct Recorder {
        log: Vec<String>,
    }

    impl SimHandler for Recorder {
        fn on_contact(&mut self, c: &Contact) {
            self.log.push(format!(
                "cs@{}:{}",
                c.start().as_secs(),
                c.participants()[0]
            ));
        }
        fn on_tick(&mut self, at: SimTime, tag: u64) {
            self.log.push(format!("ev{tag}@{}", at.as_secs()));
        }
        fn on_finish(&mut self, now: SimTime) {
            self.log.push(format!("finish@{}", now.as_secs()));
        }
    }

    #[test]
    fn contacts_fire_in_order() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20), pc(2, 3, 15, 30)]
            .into_iter()
            .collect();
        let mut rec = Recorder::default();
        let end = StreamSimulator::new(trace.iter().cloned()).run(&mut rec);
        assert_eq!(end, SimTime::from_secs(15), "the last event to fire");
        assert_eq!(rec.log, vec!["cs@10:n0", "cs@15:n2", "finish@15"]);
    }

    #[test]
    fn scheduled_events_interleave() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20)].into_iter().collect();
        let mut rec = Recorder::default();
        StreamSimulator::new(trace.iter().cloned())
            .schedule(SimTime::from_secs(15), 7)
            .run(&mut rec);
        assert_eq!(rec.log[1], "ev7@15");
    }

    #[test]
    fn horizon_cuts_run_short() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20), pc(2, 3, 100, 110)]
            .into_iter()
            .collect();
        let mut rec = Recorder::default();
        let end = StreamSimulator::new(trace.iter().cloned())
            .horizon(SimTime::from_secs(50))
            .run(&mut rec);
        assert!(end <= SimTime::from_secs(50));
        assert!(!rec.log.iter().any(|l| l.contains("@100")));
    }

    #[test]
    fn schedule_beyond_horizon_is_dropped() {
        let mut rec = Recorder::default();
        let end = StreamSimulator::new(std::iter::empty())
            .horizon(SimTime::from_secs(100))
            .schedule(SimTime::from_secs(10_000), 99)
            .schedule(SimTime::from_secs(5), 1)
            .run(&mut rec);
        assert_eq!(end, SimTime::from_secs(5));
        assert_eq!(rec.log, ["ev1@5", "finish@5"]);
    }

    #[test]
    fn scheduled_fires_before_a_start_at_the_same_instant() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20), pc(2, 3, 20, 25), pc(4, 5, 20, 30)]
            .into_iter()
            .collect();
        let mut rec = Recorder::default();
        StreamSimulator::new(trace.iter().cloned())
            .schedule(SimTime::from_secs(20), 9)
            .run(&mut rec);
        assert_eq!(
            rec.log[1..],
            ["ev9@20", "cs@20:n2", "cs@20:n4", "finish@20"],
            "the tick, then the two starts in stream order"
        );
    }

    #[test]
    fn the_horizon_admits_its_own_instant_and_stops_the_stream() {
        // The stream is not pulled past the first start beyond the horizon.
        let mut pulled = 0;
        let contacts = [pc(0, 1, 50, 60), pc(2, 3, 51, 60), pc(4, 5, 52, 60)]
            .into_iter()
            .inspect(|_| pulled += 1);
        let mut rec = Recorder::default();
        let end = StreamSimulator::new(contacts)
            .horizon(SimTime::from_secs(50))
            .schedule(SimTime::from_secs(50), 1)
            .schedule(SimTime::from_secs(51), 2)
            .run(&mut rec);
        assert_eq!(end, SimTime::from_secs(50));
        assert_eq!(rec.log, ["ev1@50", "cs@50:n0", "finish@50"]);
        assert_eq!(pulled, 2);
    }

    #[test]
    fn empty_trace_still_calls_finish() {
        let mut rec = Recorder::default();
        let end = StreamSimulator::new(std::iter::empty()).run(&mut rec);
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(rec.log, vec!["finish@0"]);
    }
}
