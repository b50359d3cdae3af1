//! The discrete-event simulation engine.

use dtn_trace::{Contact, SimTime};

use crate::event::EventQueue;

/// Context handed to [`SimHandler`] callbacks: the current clock plus the
/// ability to schedule future events.
#[derive(Debug)]
pub struct SimCtx<'a> {
    now: SimTime,
    queue: &'a mut EventQueue,
    horizon: Option<SimTime>,
}

impl SimCtx<'_> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event with `tag` at absolute time `at`.
    ///
    /// Events scheduled in the past fire immediately after the current event
    /// (at the current clock). Events beyond the simulation horizon are
    /// silently dropped.
    pub fn schedule(&mut self, at: SimTime, tag: u64) {
        let at = at.max(self.now);
        if let Some(h) = self.horizon {
            if at > h {
                return;
            }
        }
        self.queue.push(at, tag);
    }
}

/// Callbacks invoked by the [`StreamSimulator`].
///
/// All methods have empty default implementations so handlers implement only
/// what they need. There is no contact-end callback: a handler is told a
/// contact's whole interval when it starts, and one that needs to act at the
/// end schedules an event for [`Contact::end`].
pub trait SimHandler {
    /// Called once before the first event.
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        let _ = ctx;
    }

    /// A contact begins.
    fn on_contact_start(&mut self, ctx: &mut SimCtx<'_>, contact: &Contact) {
        let _ = (ctx, contact);
    }

    /// A user-scheduled event fires.
    fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called once after the last event.
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
/// [`StreamSimulator::schedule`] to pre-register scheduled events (e.g. a
/// daily workload tick) before running.
///
/// Order: the run is a merge of the contact stream with the queue of
/// scheduled events. Before a contact starting at `s` fires, every queued
/// event with time ≤ `s` fires — so at one instant scheduled events come
/// before contact starts, and an event a handler schedules at `now` fires
/// before the next contact; contacts starting together fire in stream order,
/// scheduled events at one instant in [`EventQueue`] order. Given the same
/// contact sequence, pre-scheduled events and a deterministic handler, two
/// runs therefore produce identical event sequences — the sequence a queue
/// holding every contact start up front would pop
/// (`tests/properties.rs` holds the merge to that model).
///
/// Memory: the queue holds scheduled events only — a handful of ticks,
/// whatever the number of contacts open at once.
#[derive(Debug)]
pub struct StreamSimulator<I> {
    contacts: I,
    queue: EventQueue,
    horizon: Option<SimTime>,
}

impl<I: Iterator<Item = Contact>> StreamSimulator<I> {
    /// Creates a streaming simulator over `contacts` (sorted by start).
    pub fn new(contacts: I) -> Self {
        StreamSimulator {
            contacts,
            queue: EventQueue::new(),
            horizon: None,
        }
    }

    /// Stops the run at `at`: events strictly after the horizon never fire.
    pub fn horizon(mut self, at: SimTime) -> Self {
        self.horizon = Some(at);
        self
    }

    /// Pre-registers a scheduled event before the run starts.
    pub fn schedule(mut self, at: SimTime, tag: u64) -> Self {
        self.queue.push(at, tag);
        self
    }

    /// Runs the simulation to completion, returning the final clock value:
    /// the instant of the last event that fired.
    pub fn run<H: SimHandler>(self, handler: &mut H) -> SimTime {
        let StreamSimulator {
            contacts,
            mut queue,
            horizon,
        } = self;
        let mut contacts = contacts.peekable();
        let within = |t: SimTime| horizon.is_none_or(|h| t <= h);
        let mut ctx = SimCtx {
            now: SimTime::ZERO,
            queue: &mut queue,
            horizon,
        };
        handler.on_start(&mut ctx);
        loop {
            // Starts are sorted: once one lies beyond the horizon so does
            // every later one, and the stream is not pulled again.
            let start = contacts.peek().map(Contact::start).filter(|&s| within(s));
            match ctx.queue.peek_time().filter(|&t| within(t)) {
                Some(t) if start.is_none_or(|s| t <= s) => {
                    let (_, tag) = ctx.queue.pop().expect("peeked");
                    ctx.now = t;
                    handler.on_scheduled(&mut ctx, tag);
                }
                _ => {
                    let Some(contact) = start.and_then(|_| contacts.next()) else {
                        break;
                    };
                    ctx.now = contact.start();
                    handler.on_contact_start(&mut ctx, &contact);
                }
            }
        }
        handler.on_finish(ctx.now);
        ctx.now
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
        fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
            self.log.push(format!("start@{}", ctx.now().as_secs()));
        }
        fn on_contact_start(&mut self, ctx: &mut SimCtx<'_>, c: &Contact) {
            self.log.push(format!(
                "cs@{}:{}",
                ctx.now().as_secs(),
                c.participants()[0]
            ));
        }
        fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, tag: u64) {
            self.log.push(format!("ev{tag}@{}", ctx.now().as_secs()));
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
        assert_eq!(
            rec.log,
            vec!["start@0", "cs@10:n0", "cs@15:n2", "finish@15"]
        );
    }

    #[test]
    fn scheduled_events_interleave() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20)].into_iter().collect();
        let mut rec = Recorder::default();
        StreamSimulator::new(trace.iter().cloned())
            .schedule(SimTime::from_secs(15), 7)
            .run(&mut rec);
        assert_eq!(rec.log[2], "ev7@15");
    }

    #[test]
    fn handler_can_self_schedule() {
        struct Ticker {
            fired: Vec<u64>,
        }
        impl SimHandler for Ticker {
            fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, tag: u64) {
                self.fired.push(ctx.now().as_secs());
                if tag < 3 {
                    ctx.schedule(ctx.now() + dtn_trace::SimDuration::from_secs(10), tag + 1);
                }
            }
        }
        let trace = ContactTrace::new();
        let mut h = Ticker { fired: vec![] };
        StreamSimulator::new(trace.iter().cloned())
            .schedule(SimTime::from_secs(5), 1)
            .run(&mut h);
        assert_eq!(h.fired, vec![5, 15, 25]);
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
        struct FarScheduler {
            fired: usize,
        }
        impl SimHandler for FarScheduler {
            fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, _tag: u64) {
                self.fired += 1;
                // Would loop forever without the horizon drop.
                ctx.schedule(SimTime::from_secs(10_000), 99);
            }
        }
        let trace = ContactTrace::new();
        let mut h = FarScheduler { fired: 0 };
        StreamSimulator::new(trace.iter().cloned())
            .horizon(SimTime::from_secs(100))
            .schedule(SimTime::from_secs(5), 1)
            .run(&mut h);
        assert_eq!(h.fired, 1);
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
            rec.log[2..],
            ["ev9@20", "cs@20:n2", "cs@20:n4", "finish@20"],
            "the tick, then the two starts in stream order"
        );
    }

    #[test]
    fn an_event_scheduled_at_now_fires_before_the_next_contact() {
        struct Echo {
            log: Vec<String>,
        }
        impl SimHandler for Echo {
            fn on_contact_start(&mut self, ctx: &mut SimCtx<'_>, c: &Contact) {
                self.log.push(format!("cs:{}", c.participants()[0]));
                ctx.schedule(ctx.now(), u64::from(c.participants()[0].raw()));
            }
            fn on_scheduled(&mut self, _ctx: &mut SimCtx<'_>, tag: u64) {
                self.log.push(format!("ev{tag}"));
            }
        }
        let trace: ContactTrace = vec![pc(0, 1, 10, 20), pc(2, 3, 10, 25)]
            .into_iter()
            .collect();
        let mut h = Echo { log: vec![] };
        StreamSimulator::new(trace.iter().cloned()).run(&mut h);
        assert_eq!(h.log, ["cs:n0", "ev0", "cs:n2", "ev2"]);
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
        assert_eq!(rec.log, ["start@0", "ev1@50", "cs@50:n0", "finish@50"]);
        assert_eq!(pulled, 2);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        struct PastScheduler {
            fired_at: Vec<u64>,
        }
        impl SimHandler for PastScheduler {
            fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, tag: u64) {
                self.fired_at.push(ctx.now().as_secs());
                if tag == 1 {
                    ctx.schedule(SimTime::ZERO, 2); // in the past
                }
            }
        }
        let mut h = PastScheduler { fired_at: vec![] };
        let trace = ContactTrace::new();
        StreamSimulator::new(trace.iter().cloned())
            .schedule(SimTime::from_secs(50), 1)
            .run(&mut h);
        assert_eq!(h.fired_at, vec![50, 50]);
    }

    #[test]
    fn empty_trace_still_calls_start_and_finish() {
        let trace = ContactTrace::new();
        let mut rec = Recorder::default();
        let end = StreamSimulator::new(trace.iter().cloned()).run(&mut rec);
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(rec.log, vec!["start@0", "finish@0"]);
    }

    #[test]
    fn stream_simulator_supports_self_scheduling_handlers() {
        struct Ticker {
            fired: Vec<u64>,
        }
        impl SimHandler for Ticker {
            fn on_scheduled(&mut self, ctx: &mut SimCtx<'_>, tag: u64) {
                self.fired.push(ctx.now().as_secs());
                if tag < 3 {
                    ctx.schedule(ctx.now() + dtn_trace::SimDuration::from_secs(10), tag + 1);
                }
            }
        }
        let mut h = Ticker { fired: vec![] };
        StreamSimulator::new(std::iter::empty())
            .schedule(SimTime::from_secs(5), 1)
            .run(&mut h);
        assert_eq!(h.fired, vec![5, 15, 25]);
    }
}
