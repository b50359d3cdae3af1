//! The discrete-event simulation engine.

use dtn_trace::{Contact, SimTime};

use crate::event::{Event, EventQueue};

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

    /// Schedules a [`Event::Scheduled`] with `tag` at absolute time `at`.
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
        self.queue.push(at, Event::Scheduled { tag });
    }
}

/// Callbacks invoked by the [`StreamSimulator`].
///
/// All methods have empty default implementations so handlers implement only
/// what they need.
pub trait SimHandler {
    /// Called once before the first event.
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        let _ = ctx;
    }

    /// A contact begins.
    fn on_contact_start(&mut self, ctx: &mut SimCtx<'_>, contact: &Contact) {
        let _ = (ctx, contact);
    }

    /// A contact ends.
    fn on_contact_end(&mut self, ctx: &mut SimCtx<'_>, contact: &Contact) {
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
/// holding only the contacts that are currently open.
///
/// The stream must yield contacts sorted by start time (the canonical
/// [`dtn_trace::ContactTrace`] order — both in-memory traces and sharded
/// traces provide it; for the former pass `trace.iter().cloned()`). Use
/// [`StreamSimulator::horizon`] to cut the run short and
/// [`StreamSimulator::schedule`] to pre-register scheduled events (e.g. a
/// daily workload tick) before running.
///
/// Determinism: given the same contact sequence, pre-scheduled events, and
/// a deterministic handler, two runs produce identical event sequences (see
/// [`EventQueue`] for the tie-breaking rules) — the same sequence as if
/// every contact had been queued up front: contact events can never tie
/// with each other on `(time, rank, key)` (the stream position is the key
/// and is unique), so feeding the queue lazily cannot change the pop order.
///
/// Memory: the event queue and the open-contact table hold only contacts
/// whose end has not fired yet — simulation state, not the trace.
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
        self.queue.push(at, Event::Scheduled { tag });
        self
    }

    /// Runs the simulation to completion, returning the final clock value.
    pub fn run<H: SimHandler>(self, handler: &mut H) -> SimTime {
        run_streaming(self.contacts, self.queue, self.horizon, handler)
    }
}

/// The event pump behind [`StreamSimulator::run`].
///
/// Before each pop, contacts are admitted from the stream while their start
/// time is at or before the queue's next event (or the queue is empty) —
/// exactly the set whose events could sort ahead of anything already
/// queued. Once a contact starts beyond the horizon the stream is dropped
/// entirely (starts are sorted, nothing later can fire).
fn run_streaming<I, H>(
    contacts: I,
    mut queue: EventQueue,
    horizon: Option<SimTime>,
    handler: &mut H,
) -> SimTime
where
    I: Iterator<Item = Contact>,
    H: SimHandler,
{
    use std::collections::BTreeMap;

    let mut contacts = contacts.enumerate();
    // The next contact pulled from the stream but not yet admitted, and the
    // open contacts (admitted, end event not dispatched yet). The `bool`
    // records whether an end event was enqueued — ends beyond the horizon
    // are not, so those contacts retire right after their start fires.
    let mut pending: Option<(usize, Contact)> = None;
    let mut exhausted = false;
    let mut open: BTreeMap<usize, (Contact, bool)> = BTreeMap::new();

    let mut now = SimTime::ZERO;
    {
        let mut ctx = SimCtx {
            now,
            queue: &mut queue,
            horizon,
        };
        handler.on_start(&mut ctx);
    }
    loop {
        // Admit contacts that could sort ahead of the queue's next event.
        loop {
            if pending.is_none() {
                if exhausted {
                    break;
                }
                match contacts.next() {
                    Some(entry) => pending = Some(entry),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            let (idx, contact) = pending.as_ref().expect("pending was just filled");
            if horizon.is_some_and(|h| contact.start() > h) {
                // Sorted starts: every remaining contact is beyond the
                // horizon too.
                pending = None;
                exhausted = true;
                break;
            }
            if queue.peek_time().is_some_and(|t| contact.start() > t) {
                break;
            }
            let (idx, contact) = (*idx, pending.take().expect("pending is live").1);
            queue.push(contact.start(), Event::ContactStart { contact: idx });
            let end_within = horizon.is_none_or(|h| contact.end() <= h);
            if end_within {
                queue.push(contact.end(), Event::ContactEnd { contact: idx });
            }
            open.insert(idx, (contact, end_within));
        }

        let Some((time, event)) = queue.pop() else {
            break;
        };
        if let Some(h) = horizon {
            if time > h {
                break;
            }
        }
        now = time;
        let mut ctx = SimCtx {
            now,
            queue: &mut queue,
            horizon,
        };
        match event {
            Event::ContactStart { contact } => {
                let (c, end_within) = open.get(&contact).expect("start of an admitted contact");
                let end_within = *end_within;
                handler.on_contact_start(&mut ctx, c);
                if !end_within {
                    open.remove(&contact);
                }
            }
            Event::ContactEnd { contact } => {
                let (c, _) = open.remove(&contact).expect("end of an open contact");
                handler.on_contact_end(&mut ctx, &c);
            }
            Event::Scheduled { tag } => handler.on_scheduled(&mut ctx, tag),
        }
    }
    handler.on_finish(now);
    now
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
        fn on_contact_end(&mut self, ctx: &mut SimCtx<'_>, c: &Contact) {
            self.log.push(format!(
                "ce@{}:{}",
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
        assert_eq!(end, SimTime::from_secs(30));
        assert_eq!(
            rec.log,
            vec![
                "start@0",
                "cs@10:n0",
                "cs@15:n2",
                "ce@20:n0",
                "ce@30:n2",
                "finish@30"
            ]
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
    fn end_start_same_instant_runs_end_first() {
        let trace: ContactTrace = vec![pc(0, 1, 10, 20), pc(2, 3, 20, 25)]
            .into_iter()
            .collect();
        let mut rec = Recorder::default();
        StreamSimulator::new(trace.iter().cloned()).run(&mut rec);
        let pos_end = rec.log.iter().position(|l| l == "ce@20:n0").unwrap();
        let pos_start = rec.log.iter().position(|l| l == "cs@20:n2").unwrap();
        assert!(pos_end < pos_start);
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
