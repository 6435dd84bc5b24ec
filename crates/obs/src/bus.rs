//! The live event bus: span open/close and point events streamed to
//! subscribers while a run executes.
//!
//! PR 1's tracing was post-hoc — a run's trace became inspectable only
//! after the run finished and its snapshot was exported. The bus makes
//! the same stream observable *live*: a [`Tracer`] with an attached bus
//! (see [`Tracer::attach_bus`]) publishes every span open, span close,
//! and point event as it happens, and any number of subscribers consume
//! them through bounded queues.
//!
//! Backpressure semantics are drop-not-block, chosen for the hot path:
//!
//! * publishing never blocks and never allocates when nobody listens —
//!   [`EventBus::is_active`] is a single relaxed atomic load;
//! * each subscriber owns a queue **bounded** at subscribe time — an
//!   unbounded channel paired with a count of the events in it, so the
//!   bound costs nothing until events arrive (a ring of `capacity` slots
//!   would be written once per subscription: 0.9 MB at the serving
//!   layer's 8 192). A full queue drops the event *for that subscriber
//!   only* and counts the drop (per-subscriber via
//!   [`Subscription::dropped`], process-wide via
//!   [`EventBus::events_dropped`], exported as the `obs.events_dropped`
//!   counter). A slow dashboard can never stall a serve worker;
//! * a dropped [`Subscription`] is detected on the next publish and
//!   unregistered.
//!
//! The bus is `Clone` (shared handle) and carries its own clock so that
//! non-tracer publishers (the serve scheduler's job lifecycle events)
//! get coherent timestamps.
//!
//! [`Tracer`]: crate::Tracer
//! [`Tracer::attach_bus`]: crate::Tracer::attach_bus

use crate::trace::AttrValue;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened. Externally tagged (`{"SpanOpened": {...}}`) so the
/// JSONL stream stays self-describing and schema-stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BusEventKind {
    /// A span opened (`id`/`parent` are tracer-local span ids).
    SpanOpened {
        id: u64,
        parent: Option<u64>,
        name: String,
    },
    /// A span closed; `attrs` carries the span's final attributes (the
    /// `stage` tag, redo counts, outcomes — attributes are typically set
    /// between open and close, so the close event is the complete one).
    SpanClosed {
        id: u64,
        name: String,
        dur_us: u64,
        attrs: BTreeMap<String, AttrValue>,
    },
    /// A point event recorded on a span (or as an orphan).
    Point {
        name: String,
        attrs: BTreeMap<String, AttrValue>,
    },
    /// A lifecycle event published directly by an embedder (the serve
    /// scheduler's job queued/started/completed/rejected stream).
    Job {
        name: String,
        attrs: BTreeMap<String, AttrValue>,
    },
}

impl BusEventKind {
    /// Short label for one-line rendering.
    pub fn label(&self) -> &'static str {
        match self {
            BusEventKind::SpanOpened { .. } => "span_opened",
            BusEventKind::SpanClosed { .. } => "span_closed",
            BusEventKind::Point { .. } => "point",
            BusEventKind::Job { .. } => "job",
        }
    }
}

/// One published event: a global sequence number, the publisher-relative
/// timestamp, the run-identity attributes the publisher was tagged with
/// (job id, question, salt), and the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusEvent {
    pub seq: u64,
    /// Microseconds since the publisher's origin (tracer creation for
    /// span/point events, bus creation for job events).
    pub at_us: u64,
    /// Run-identity attributes (empty for bus-level events).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub run: BTreeMap<String, AttrValue>,
    pub kind: BusEventKind,
}

impl BusEvent {
    /// The serve-layer job id this event belongs to, if any: span/point
    /// events carry it in the publisher's run-identity attributes (set by
    /// `Tracer::attach_bus`), job lifecycle events in their own attrs.
    /// Used by per-job / per-client event routing in the serving layer.
    pub fn job_id(&self) -> Option<u64> {
        if let Some(id) = self.run.get("job").and_then(AttrValue::as_u64) {
            return Some(id);
        }
        match &self.kind {
            BusEventKind::Job { attrs, .. } => attrs.get("job").and_then(AttrValue::as_u64),
            _ => None,
        }
    }
}

/// What a subscription and its slot on the bus share.
#[derive(Default)]
struct SubscriberState {
    /// Events sent and not yet received. Raised by the publisher (one at
    /// a time, under the subscriber list's lock) before the send, lowered
    /// by the subscriber after a receive: it never exceeds the capacity
    /// and never underflows. It guards no data — the channel orders the
    /// events — so `Relaxed` suffices.
    depth: AtomicUsize,
    dropped: AtomicU64,
}

struct SubscriberSlot {
    tx: Sender<BusEvent>,
    capacity: usize,
    state: Arc<SubscriberState>,
}

struct BusInner {
    origin: Instant,
    seq: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
    /// Cheap publish-side gate: true iff `subscribers` is non-empty.
    active: AtomicBool,
    subscribers: Mutex<Vec<SubscriberSlot>>,
}

/// The bus handle. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("published", &self.events_published())
            .field("dropped", &self.events_dropped())
            .finish_non_exhaustive()
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new()
    }
}

impl EventBus {
    pub fn new() -> EventBus {
        EventBus {
            inner: Arc::new(BusInner {
                origin: Instant::now(),
                seq: AtomicU64::new(0),
                published: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                active: AtomicBool::new(false),
                subscribers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Whether anyone is subscribed. Publishers check this before
    /// assembling an event, so an unobserved bus costs one atomic load.
    pub fn is_active(&self) -> bool {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Register a subscriber with a queue bounded at `capacity` events.
    /// Events published while it holds that many are dropped for this
    /// subscriber and counted, never blocked on.
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        let (tx, rx) = std::sync::mpsc::channel();
        let state = Arc::new(SubscriberState::default());
        let mut subs = self.inner.subscribers.lock();
        subs.push(SubscriberSlot {
            tx,
            capacity: capacity.max(1),
            state: state.clone(),
        });
        self.inner.active.store(true, Ordering::Relaxed);
        Subscription { rx, state }
    }

    /// Publish an event to every live subscriber. Full subscriber
    /// queues drop (and count); disconnected subscribers are pruned.
    /// No-op when nobody is subscribed.
    pub fn publish(&self, at_us: u64, run: &BTreeMap<String, AttrValue>, kind: BusEventKind) {
        if !self.is_active() {
            return;
        }
        let mut subs = self.inner.subscribers.lock();
        if subs.is_empty() {
            return;
        }
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        let event = BusEvent {
            seq,
            at_us,
            run: run.clone(),
            kind,
        };
        subs.retain(|slot| {
            if slot.state.depth.load(Ordering::Relaxed) < slot.capacity {
                slot.state.depth.fetch_add(1, Ordering::Relaxed);
                // A send fails only when the subscription was dropped.
                return slot.tx.send(event.clone()).is_ok();
            }
            // Full, so nothing is sent and a dropped subscription shows
            // only as the shared state having no other owner.
            if Arc::strong_count(&slot.state) == 1 {
                return false;
            }
            slot.state.dropped.fetch_add(1, Ordering::Relaxed);
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            true
        });
        if subs.is_empty() {
            self.inner.active.store(false, Ordering::Relaxed);
        }
    }

    /// Publish an embedder lifecycle event (kind [`BusEventKind::Job`])
    /// stamped with the bus's own clock.
    pub fn publish_job(&self, name: &str, attrs: &[(&str, AttrValue)]) {
        if !self.is_active() {
            return;
        }
        let at_us = self.inner.origin.elapsed().as_micros() as u64;
        let attrs: BTreeMap<String, AttrValue> = attrs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect();
        self.publish(
            at_us,
            &BTreeMap::new(),
            BusEventKind::Job {
                name: name.to_string(),
                attrs,
            },
        );
    }

    /// Total events delivered to at least one subscriber channel.
    pub fn events_published(&self) -> u64 {
        self.inner.published.load(Ordering::Relaxed)
    }

    /// Total per-subscriber drops (an event dropped by two slow
    /// subscribers counts twice).
    pub fn events_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

/// A subscriber's receiving end: a bounded queue of [`BusEvent`]s plus
/// this subscriber's drop counter. Dropping the subscription
/// unregisters it (detected at the next publish).
pub struct Subscription {
    rx: Receiver<BusEvent>,
    state: Arc<SubscriberState>,
}

impl Subscription {
    /// A received event frees its place in the queue.
    fn received(&self, event: Option<BusEvent>) -> Option<BusEvent> {
        if event.is_some() {
            self.state.depth.fetch_sub(1, Ordering::Relaxed);
        }
        event
    }

    /// Next buffered event, if any (non-blocking).
    pub fn try_recv(&self) -> Option<BusEvent> {
        self.received(self.rx.try_recv().ok())
    }

    /// Block up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<BusEvent> {
        self.received(self.rx.recv_timeout(timeout).ok())
    }

    /// Drain everything currently buffered.
    pub fn drain(&self) -> Vec<BusEvent> {
        std::iter::from_fn(|| self.try_recv()).collect()
    }

    /// Events dropped for this subscriber because its queue was full.
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("dropped", &self.dropped())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str) -> BusEventKind {
        BusEventKind::Point {
            name: name.to_string(),
            attrs: BTreeMap::new(),
        }
    }

    #[test]
    fn inactive_bus_publishes_nothing() {
        let bus = EventBus::new();
        assert!(!bus.is_active());
        bus.publish(0, &BTreeMap::new(), point("x"));
        assert_eq!(bus.events_published(), 0);
    }

    #[test]
    fn subscriber_receives_in_order_with_seq() {
        let bus = EventBus::new();
        let sub = bus.subscribe(16);
        assert!(bus.is_active());
        for i in 0..5 {
            bus.publish(i, &BTreeMap::new(), point(&format!("e{i}")));
        }
        let got = sub.drain();
        assert_eq!(got.len(), 5);
        for (i, ev) in got.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.at_us, i as u64);
        }
        assert_eq!(sub.dropped(), 0);
    }

    #[test]
    fn full_channel_drops_and_counts_without_blocking() {
        let bus = EventBus::new();
        let sub = bus.subscribe(2);
        for i in 0..10 {
            bus.publish(i, &BTreeMap::new(), point("e"));
        }
        assert_eq!(sub.dropped(), 8);
        assert_eq!(bus.events_dropped(), 8);
        assert_eq!(bus.events_published(), 10);
        assert_eq!(sub.drain().len(), 2, "bounded channel kept the first 2");
    }

    #[test]
    fn slow_subscriber_does_not_affect_fast_one() {
        let bus = EventBus::new();
        let slow = bus.subscribe(1);
        let fast = bus.subscribe(64);
        for i in 0..8 {
            bus.publish(i, &BTreeMap::new(), point("e"));
        }
        assert_eq!(fast.drain().len(), 8);
        assert_eq!(fast.dropped(), 0);
        assert_eq!(slow.dropped(), 7);
    }

    #[test]
    fn receiving_frees_capacity() {
        let bus = EventBus::new();
        let sub = bus.subscribe(2);
        for i in 0..3 {
            bus.publish(i, &BTreeMap::new(), point("e"));
        }
        assert_eq!(sub.dropped(), 1, "the third found the queue full");
        assert_eq!(sub.try_recv().map(|ev| ev.seq), Some(0));
        bus.publish(3, &BTreeMap::new(), point("e"));
        assert_eq!(sub.dropped(), 1, "one received, one place free");
        bus.publish(4, &BTreeMap::new(), point("e"));
        assert_eq!(sub.dropped(), 2);
        let timeout = Duration::from_secs(5);
        assert_eq!(sub.recv_timeout(timeout).map(|ev| ev.seq), Some(1));
        assert_eq!(sub.drain().len(), 1);
        // Every way of receiving gave its place back.
        for i in 5..7 {
            bus.publish(i, &BTreeMap::new(), point("e"));
        }
        assert_eq!(sub.dropped(), 2);
        assert_eq!(bus.events_dropped(), 2);
        let seqs: Vec<u64> = sub.drain().iter().map(|ev| ev.seq).collect();
        assert_eq!(seqs, [5, 6]);
    }

    #[test]
    fn full_and_dropped_subscription_is_still_pruned() {
        let bus = EventBus::new();
        let sub = bus.subscribe(1);
        bus.publish(0, &BTreeMap::new(), point("a"));
        bus.publish(1, &BTreeMap::new(), point("b"));
        assert_eq!(bus.events_dropped(), 1, "full while alive: a counted drop");
        drop(sub);
        bus.publish(2, &BTreeMap::new(), point("c"));
        assert!(!bus.is_active(), "full and gone: pruned, not kept as slow");
        assert_eq!(bus.events_dropped(), 1, "a pruned subscriber drops nothing");
    }

    #[test]
    fn dropped_subscription_is_pruned_and_bus_goes_idle() {
        let bus = EventBus::new();
        let sub = bus.subscribe(4);
        bus.publish(0, &BTreeMap::new(), point("a"));
        drop(sub);
        // Next publish detects the disconnect and deactivates the bus.
        bus.publish(1, &BTreeMap::new(), point("b"));
        assert!(!bus.is_active());
    }

    #[test]
    fn job_events_carry_attrs_and_serialize() {
        let bus = EventBus::new();
        let sub = bus.subscribe(4);
        bus.publish_job("job_started", &[("job", AttrValue::from(3u64))]);
        let ev = sub.try_recv().expect("event");
        match &ev.kind {
            BusEventKind::Job { name, attrs } => {
                assert_eq!(name, "job_started");
                assert_eq!(attrs.get("job").and_then(AttrValue::as_u64), Some(3));
            }
            other => panic!("unexpected kind {other:?}"),
        }
        let json = serde_json::to_string(&ev).unwrap();
        let back: BusEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn job_id_extracted_from_run_attrs_or_job_attrs() {
        let bus = EventBus::new();
        let sub = bus.subscribe(8);
        // Span-style event with run-identity attrs.
        let mut run = BTreeMap::new();
        run.insert("job".to_string(), AttrValue::from(42u64));
        bus.publish(0, &run, point("x"));
        // Lifecycle event with the id in its own attrs.
        bus.publish_job("job_started", &[("job", AttrValue::from(7u64))]);
        // No job anywhere.
        bus.publish(1, &BTreeMap::new(), point("y"));
        let got = sub.drain();
        assert_eq!(got[0].job_id(), Some(42));
        assert_eq!(got[1].job_id(), Some(7));
        assert_eq!(got[2].job_id(), None);
    }

    #[test]
    fn concurrent_publishers_never_panic_or_block() {
        let bus = EventBus::new();
        let sub = bus.subscribe(8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let bus = bus.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        bus.publish(t * 100 + i, &BTreeMap::new(), point("e"));
                    }
                });
            }
        });
        let received = sub.drain().len() as u64;
        assert_eq!(received + sub.dropped(), 400);
    }
}
