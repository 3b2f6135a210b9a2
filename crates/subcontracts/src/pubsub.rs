//! The *pub/sub* subcontract: topic fan-out with per-link frame coalescing.
//!
//! The paper's thesis is that new communication disciplines should be
//! buildable *as subcontracts*, without touching the base system (§5, §8).
//! This module applies that to publish/subscribe: a topic is an ordinary
//! Spring object (bindable in the name service like anything else), and the
//! entire fan-out protocol — subscription, sequencing, delivery, loss
//! accounting, slow-subscriber eviction — lives in the subcontract's control
//! region and its door handlers.
//!
//! Three design points, each borrowed from an existing mechanism in this
//! repo and composed:
//!
//! * **Per-link coalescing** (from the caching subcontract's broadcast):
//!   subscribers are grouped by the kernel *token* of their callback door.
//!   All subscriptions made through one [`SubscriberHub`] share one callback
//!   door, so all of a process's subscribers to a topic land in one group
//!   and one publish becomes **one delivery frame per destination link**,
//!   carrying the payload once plus the `(nonce, baseline)` of every
//!   subscriber it addresses — never one frame per subscriber.
//! * **Fire-and-forget delivery** (from the stream subcontract): delivery
//!   frames are sequence-numbered datagrams. `Comm` failures mean the frame
//!   is gone; the hub records a failed [`pubsub.drop`] span and moves on.
//!   [`DeliveryMode::BestEffort`] subscribers simply never see the frame;
//!   [`DeliveryMode::Monitored`] subscribers detect the sequence gap on the
//!   next arrival and get exactly one [`Subscriber::lost`] callback for it.
//! * **Slow-subscriber policy** (the §8.4 concern made explicit): each
//!   subscriber has a bounded pending queue. A publish that finds a queue
//!   full waits up to [`TopicConfig::backpressure`] for the link worker to
//!   drain it, then *evicts* the subscriber — the eviction is delivered as a
//!   callback-door notification, the way the coherent cache delivers
//!   invalidations, so the subscriber application learns it was dropped.
//!
//! [`pubsub.drop`]: spring_trace::keys::PUBSUB_DROP

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::callid::now_micros;
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Message};
use spring_trace::keys;
use subcontract::{
    get_obj_header, put_obj_header, redispatch_if_foreign, server_dispatch, Dispatch, DomainCtx,
    ObjParts, Repr, Result, ScId, ServerCtx, SpringError, SpringObj, Subcontract, TypeInfo,
    OBJECT_TYPE,
};

/// Control-region kind: an ordinary request/reply operation.
const KIND_CALL: u8 = 0;
/// Control-region kind: publish one datum to the topic.
const KIND_PUBLISH: u8 = 1;
/// Control-region kind: attach a subscriber (carries the callback door).
const KIND_SUBSCRIBE: u8 = 2;
/// Control-region kind: detach a subscriber by nonce. Carries the caller's
/// callback door alongside the nonce: nonces are minted per subscriber
/// *process*, so they collide across processes, and the door's kernel
/// token is what scopes the removal to the caller's own link group.
const KIND_UNSUBSCRIBE: u8 = 3;

/// Delivery-frame tag: a published datum addressed to a list of
/// `(nonce, baseline)` pairs — the baseline rides along so the receiver
/// can account for gaps even when a delivery beats the subscribe reply.
const NOTE_DELIVER: u8 = 1;
/// Delivery-frame tag: eviction notices (nonce + reason pairs).
const NOTE_EVICT: u8 = 2;

/// Sentinel for "no sequence baseline yet" in subscriber-side tracking.
/// (0 is meaningful: it is the baseline of a topic nothing was published
/// to, so losing the very first frames still surfaces as a gap.)
const SEQ_UNSET: u64 = u64::MAX;

/// Consecutive `Comm` delivery failures after which a destination link is
/// written off and all its subscribers dropped (the caching subcontract's
/// callback-pruning policy). Deliberately generous: frames are
/// fire-and-forget over a possibly lossy wire, so a run of drops must mean
/// a dead link, not bad luck — at 30% per-hop loss a call fails ~half the
/// time, and a run of 32 is a once-in-10^9 event.
const MAX_DELIVERY_FAILURES: u32 = 32;

/// How a subscriber wants loss surfaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Lost frames vanish silently; the application tolerates gaps.
    BestEffort = 0,
    /// Lost frames surface as exactly one [`Subscriber::lost`] callback per
    /// contiguous gap, detected from the per-topic sequence numbers.
    Monitored = 1,
}

impl DeliveryMode {
    fn from_wire(b: u8) -> Result<DeliveryMode> {
        match b {
            0 => Ok(DeliveryMode::BestEffort),
            1 => Ok(DeliveryMode::Monitored),
            other => Err(SpringError::Remote(format!("bad delivery mode {other}"))),
        }
    }
}

/// What happened to one publish, as seen by the publisher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The hub accepted the datum and stamped it with this sequence number.
    Accepted(u64),
    /// The network lost the publish (or its reply) on the way to the hub;
    /// best-effort semantics, not an error.
    Dropped,
}

/// Receives topic events on the subscriber side. Callbacks for one
/// subscription are serialized (one link worker delivers per group).
pub trait Subscriber: Send + Sync {
    /// One published datum, in sequence order.
    fn deliver(&self, seq: u64, data: &[u8]);
    /// A contiguous gap `[from_seq, to_seq]` was lost (monitored mode only;
    /// called exactly once per gap, before the delivery that revealed it).
    fn lost(&self, from_seq: u64, to_seq: u64) {
        let _ = (from_seq, to_seq);
    }
    /// The hub evicted this subscription (slow consumer or topic removal).
    /// No further callbacks will arrive.
    fn evicted(&self, reason: &str) {
        let _ = reason;
    }
}

/// Tuning knobs for one topic hub.
#[derive(Clone, Copy, Debug)]
pub struct TopicConfig {
    /// Per-subscriber pending-frame bound; beyond it the slow-subscriber
    /// policy kicks in.
    pub queue_bound: usize,
    /// How long a publish waits for a full queue to drain before evicting
    /// the subscriber.
    pub backpressure: Duration,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            queue_bound: 64,
            backpressure: Duration::from_millis(10),
        }
    }
}

/// Hub-side counters.
#[derive(Debug, Default)]
pub struct PubSubStats {
    published: AtomicU64,
    frames_sent: AtomicU64,
    frames_oneway: AtomicU64,
    frames_dropped: AtomicU64,
    subscribes: AtomicU64,
    unsubscribes: AtomicU64,
    evictions: AtomicU64,
    reaped: AtomicU64,
    links_pruned: AtomicU64,
}

impl PubSubStats {
    /// Publishes accepted and stamped.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }
    /// Delivery frames that reached their destination link.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }
    /// Delivery frames that crossed the wire one-way (no reply frame):
    /// every addressed subscriber was best-effort and no lazy ack was due.
    /// Always `<=` [`frames_sent`](Self::frames_sent); zero when the
    /// subscribers are co-located with the topic (a local door call always
    /// replies) or a link carries any monitored subscriber.
    pub fn frames_oneway(&self) -> u64 {
        self.frames_oneway.load(Ordering::Relaxed)
    }
    /// Delivery frames lost on the wire (each one is a gap for every
    /// subscriber it addressed).
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.load(Ordering::Relaxed)
    }
    /// Subscriptions accepted.
    pub fn subscribes(&self) -> u64 {
        self.subscribes.load(Ordering::Relaxed)
    }
    /// Explicit unsubscribes processed.
    pub fn unsubscribes(&self) -> u64 {
        self.unsubscribes.load(Ordering::Relaxed)
    }
    /// Subscribers evicted by the slow-subscriber policy or topic teardown.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
    /// Subscribers reaped because the receiving hub no longer knew their
    /// nonce (stale registrations reported back in delivery replies).
    pub fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }
    /// Destination links written off after repeated delivery failures.
    pub fn links_pruned(&self) -> u64 {
        self.links_pruned.load(Ordering::Relaxed)
    }
}

/// One frame queued for delivery. The payload is shared across every
/// subscriber queue and every link — publish copies the datum exactly once.
struct Frame {
    seq: u64,
    stamp_us: u64,
    data: Arc<[u8]>,
}

/// One subscriber's hub-side state.
struct SubEntry {
    queue: VecDeque<Arc<Frame>>,
    /// The last sequence published before this subscription attached (read
    /// under the publish lock at subscribe time). It rides in every
    /// delivery frame addressed to this subscriber, so the receiving side
    /// can install it even when the first delivery beats the subscribe
    /// reply back — gap accounting must not depend on that ordering.
    baseline: u64,
    /// How this subscriber wants loss surfaced. Monitored subscribers also
    /// pin their link's delivery frames to the two-way path: one-way frames
    /// have no reply to carry the stale-nonce list promptly, and a gap
    /// report owed to *any* subscriber means the link cannot go silent.
    mode: DeliveryMode,
}

impl SubEntry {
    fn new(baseline: u64, mode: DeliveryMode) -> SubEntry {
        SubEntry {
            queue: VecDeque::new(),
            baseline,
            mode,
        }
    }
}

/// Mutable state of one destination link's group, guarded by a std mutex so
/// the link worker can block on the condvar.
struct GroupState {
    subs: HashMap<u64, SubEntry>,
    /// Eviction notices awaiting delivery; these ride a separate lane so an
    /// eviction can always be enqueued even when queues are full.
    evict_notes: Vec<(u64, String)>,
    closed: bool,
}

/// All subscribers reachable through one callback door (= one destination
/// link). A dedicated worker thread drains it: one `NOTE_DELIVER` frame per
/// sequence number per link, regardless of how many subscribers it
/// addresses.
struct LinkGroup {
    token: u64,
    door: DoorId,
    state: StdMutex<GroupState>,
    cv: Condvar,
}

impl LinkGroup {
    /// Removes a subscriber; returns true if it was present. Closes the
    /// group when nothing (subscribers or pending notices) remains.
    fn remove_sub(&self, st: &mut GroupState, nonce: u64) -> bool {
        let hit = st.subs.remove(&nonce).is_some();
        if st.subs.is_empty() && st.evict_notes.is_empty() {
            st.closed = true;
        }
        hit
    }
}

/// What the link worker found to do on one iteration.
enum Work {
    Evicts(Vec<(u64, String)>),
    /// A frame plus the `(nonce, baseline)` of every subscriber it
    /// addresses.
    Frame {
        frame: Arc<Frame>,
        subs: Vec<(u64, u64)>,
        /// Every addressed subscriber is [`DeliveryMode::BestEffort`]:
        /// the frame may ship one-way (no reply crossing), modulo the
        /// lazy-ack schedule.
        all_best_effort: bool,
    },
    Exit,
}

/// Every this-many consecutive one-way deliveries, a best-effort link sends
/// one ordinary two-way frame anyway. Its reply carries the stale-nonce
/// list, so subscribers whose receiving hub forgot them are still reaped —
/// lazily, but boundedly — even on a link that never owes a gap report.
const LAZY_ACK_EVERY: u64 = 64;

/// The serving half of a topic: owns the subscriber table and the link
/// workers. Exposed so co-located publishers and the topic registry can
/// drive it without a door crossing.
pub struct TopicHub {
    ctx: Arc<DomainCtx>,
    name: String,
    cfg: TopicConfig,
    disp: Arc<dyn Dispatch>,
    /// Serializes sequence stamping with enqueueing (and with subscriber
    /// baseline capture), so every queue sees sequence numbers in order and
    /// a new subscriber's baseline is exact.
    publish_lock: Mutex<()>,
    next_seq: AtomicU64,
    groups: Mutex<HashMap<u64, Arc<LinkGroup>>>,
    stats: Arc<PubSubStats>,
    down: AtomicBool,
    /// Set once inside the door handler so link workers can find the hub
    /// to deregister groups without keeping it alive.
    weak_self: Mutex<Weak<TopicHub>>,
}

impl TopicHub {
    fn domain(&self) -> &Domain {
        self.ctx.domain()
    }

    /// The topic's name (as exported; the naming path is the registry's
    /// business).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hub-side counters.
    pub fn stats(&self) -> &Arc<PubSubStats> {
        &self.stats
    }

    /// The sequence number the next publish will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// Destination links currently subscribed (diagnostics).
    pub fn link_count(&self) -> usize {
        self.groups.lock().len()
    }

    /// Live subscribers across all links (diagnostics).
    pub fn subscriber_count(&self) -> usize {
        let groups: Vec<Arc<LinkGroup>> = self.groups.lock().values().cloned().collect();
        groups
            .iter()
            .map(|g| g.state.lock().unwrap().subs.len())
            .sum()
    }

    /// Publishes one datum locally (no door crossing) and returns its
    /// sequence number. Fails only if the topic has been shut down.
    pub fn publish(&self, data: &[u8]) -> Result<u64> {
        if self.down.load(Ordering::SeqCst) {
            return Err(SpringError::Remote(format!("topic {} closed", self.name)));
        }
        let _publishing = self.publish_lock.lock();
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let frame = Arc::new(Frame {
            seq,
            stamp_us: now_micros(),
            data: Arc::from(data),
        });
        let groups: Vec<Arc<LinkGroup>> = self.groups.lock().values().cloned().collect();
        let mut span = spring_trace::span_start(
            keys::PUBSUB_PUBLISH,
            self.domain().trace_scope(),
            groups.len() as u64,
        );
        // Slow-subscriber policy: give full queues one bounded chance to
        // drain, then evict whoever is still full. The deadline is shared
        // across every group — a publish stalls at most one backpressure
        // window total, never one per congested link, so N slow links
        // cannot multiply the head-of-line blocking under `publish_lock`.
        let deadline = Instant::now() + self.cfg.backpressure;
        for group in groups {
            let mut st = group.state.lock().unwrap();
            if st.closed {
                continue;
            }
            loop {
                let full: Vec<u64> = st
                    .subs
                    .iter()
                    .filter(|(_, s)| s.queue.len() >= self.cfg.queue_bound)
                    .map(|(n, _)| *n)
                    .collect();
                if full.is_empty() || st.closed {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    for nonce in full {
                        st.subs.remove(&nonce);
                        st.evict_notes.push((
                            nonce,
                            "slow subscriber: queue full past backpressure".into(),
                        ));
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                st = group.cv.wait_timeout(st, deadline - now).unwrap().0;
            }
            if st.closed {
                continue;
            }
            for sub in st.subs.values_mut() {
                sub.queue.push_back(frame.clone());
            }
            group.cv.notify_all();
        }
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        let _ = &mut span;
        Ok(seq)
    }

    /// Tears the topic down: every subscriber is evicted with `reason`
    /// (delivered best-effort over its link), the link workers exit, and
    /// their doors are deleted. Idempotent. Used by the registry when a
    /// topic is removed while remote proxies still pin the hub's door.
    pub fn shutdown(&self, reason: &str) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        let groups: Vec<Arc<LinkGroup>> = self.groups.lock().values().cloned().collect();
        for group in groups {
            let mut st = group.state.lock().unwrap();
            let nonces: Vec<u64> = st.subs.keys().copied().collect();
            for nonce in nonces {
                st.subs.remove(&nonce);
                st.evict_notes.push((nonce, reason.to_string()));
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            st.closed = true;
            group.cv.notify_all();
        }
    }

    fn handle_publish(&self, mut args: CommBuffer) -> std::result::Result<Message, DoorError> {
        let data = args
            .get_bytes()
            .map_err(|e| DoorError::Handler(format!("bad publish: {e}")))?;
        let seq = self
            .publish(&data)
            .map_err(|e| DoorError::Handler(e.to_string()))?;
        let mut reply = CommBuffer::pooled();
        reply.put_u64(seq);
        Ok(reply.into_message())
    }

    fn handle_subscribe(
        self: &Arc<Self>,
        mut args: CommBuffer,
        carried: Vec<DoorId>,
    ) -> std::result::Result<Message, DoorError> {
        let parsed = (|| -> Result<(u64, DeliveryMode, DoorId)> {
            if carried.len() != 1 {
                return Err(SpringError::Remote(
                    "subscribe expects exactly one callback door".into(),
                ));
            }
            let nonce = args.get_u64()?;
            let mode = DeliveryMode::from_wire(args.get_u8()?)?;
            let door = args.get_door()?;
            Ok((nonce, mode, door))
        })();
        let (nonce, mode, door) = match parsed {
            Ok(v) => v,
            Err(e) => {
                // The carried identifier already landed in this domain; a
                // parse failure must delete it (the stream/caching
                // unmarshal leak class).
                for d in carried {
                    let _ = self.domain().delete_door(d);
                }
                return Err(DoorError::Handler(format!("subscribe: {e}")));
            }
        };
        if self.down.load(Ordering::SeqCst) {
            let _ = self.domain().delete_door(door);
            return Err(DoorError::Handler(format!("topic {} closed", self.name)));
        }
        let token = match self.domain().door_token(door) {
            Ok(t) => t,
            Err(e) => {
                let _ = self.domain().delete_door(door);
                return Err(e);
            }
        };
        // Baseline capture and group insertion happen with publishing
        // stalled, so "every frame stamped after `cur`" is exactly the set
        // this subscriber will be queued (delivery modulo wire loss).
        let _publishing = self.publish_lock.lock();
        let cur = self.next_seq.load(Ordering::SeqCst) - 1;
        let mut groups = self.groups.lock();
        match groups.get(&token) {
            Some(group) => {
                let mut st = group.state.lock().unwrap();
                if st.closed {
                    // The group's worker is mid-exit; its door is about to
                    // be deleted, so the fresh identifier cannot join it.
                    // Evict the stale entry and build a new group around
                    // the carried door.
                    drop(st);
                    groups.remove(&token);
                    let group = Arc::new(LinkGroup {
                        token,
                        door,
                        state: StdMutex::new(GroupState {
                            subs: HashMap::from([(nonce, SubEntry::new(cur, mode))]),
                            evict_notes: Vec::new(),
                            closed: false,
                        }),
                        cv: Condvar::new(),
                    });
                    groups.insert(token, group.clone());
                    self.spawn_worker(group);
                } else {
                    // Same link as the existing group: it already owns a
                    // door for this callback; the fresh copy is redundant.
                    st.subs.insert(nonce, SubEntry::new(cur, mode));
                    drop(st);
                    let _ = self.domain().delete_door(door);
                }
            }
            None => {
                let group = Arc::new(LinkGroup {
                    token,
                    door,
                    state: StdMutex::new(GroupState {
                        subs: HashMap::from([(nonce, SubEntry::new(cur, mode))]),
                        evict_notes: Vec::new(),
                        closed: false,
                    }),
                    cv: Condvar::new(),
                });
                groups.insert(token, group.clone());
                self.spawn_worker(group);
            }
        }
        drop(groups);
        self.stats.subscribes.fetch_add(1, Ordering::Relaxed);
        let mut reply = CommBuffer::pooled();
        reply.put_u64(cur);
        Ok(reply.into_message())
    }

    fn handle_unsubscribe(
        &self,
        mut args: CommBuffer,
        carried: Vec<DoorId>,
    ) -> std::result::Result<Message, DoorError> {
        let parsed = (|| -> Result<(u64, DoorId)> {
            if carried.len() != 1 {
                return Err(SpringError::Remote(
                    "unsubscribe expects exactly one callback door".into(),
                ));
            }
            let nonce = args.get_u64()?;
            let door = args.get_door()?;
            Ok((nonce, door))
        })();
        let (nonce, door) = match parsed {
            Ok(v) => v,
            Err(e) => {
                for d in carried {
                    let _ = self.domain().delete_door(d);
                }
                return Err(DoorError::Handler(format!("bad unsubscribe: {e}")));
            }
        };
        // The carried door exists only to prove which link group the
        // caller is on — nonces come from a per-process counter, so two
        // subscriber processes routinely hold colliding nonces for one
        // topic, and demuxing by nonce alone would detach somebody else's
        // subscription in another group. Token in hand, the copy is
        // deleted immediately: unsubscribe must never pin anything.
        let token = self.domain().door_token(door);
        let _ = self.domain().delete_door(door);
        let token = token.map_err(|e| DoorError::Handler(format!("bad unsubscribe: {e}")))?;
        let group = self.groups.lock().get(&token).cloned();
        if let Some(group) = group {
            let mut st = group.state.lock().unwrap();
            if group.remove_sub(&mut st, nonce) {
                self.stats.unsubscribes.fetch_add(1, Ordering::Relaxed);
                group.cv.notify_all();
            }
        }
        Ok(Message::new())
    }

    fn spawn_worker(self: &Arc<Self>, group: Arc<LinkGroup>) {
        let hub = self.weak_self.lock().clone();
        let domain = self.domain().clone();
        let scope = domain.trace_scope();
        let stats = self.stats.clone();
        let name = format!("pubsub-{}-{:x}", self.name, group.token);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || link_worker(hub, group, domain, scope, stats))
            .expect("spawn pubsub link worker");
    }
}

/// The per-link delivery loop: pops the lowest pending sequence number
/// across the group's subscribers, ships it as one frame addressing every
/// subscriber whose head it is, and processes the reply's stale-nonce list.
fn link_worker(
    hub: Weak<TopicHub>,
    group: Arc<LinkGroup>,
    domain: Domain,
    scope: u64,
    stats: Arc<PubSubStats>,
) {
    let mut comm_failures: u32 = 0;
    // One-way frames delivered since the last two-way (reply-bearing) one;
    // drives the lazy-ack schedule on all-best-effort links.
    let mut since_ack: u64 = 0;
    loop {
        let work = {
            let mut st = group.state.lock().unwrap();
            loop {
                if !st.evict_notes.is_empty() {
                    let notes = std::mem::take(&mut st.evict_notes);
                    if st.subs.is_empty() {
                        st.closed = true;
                    }
                    break Work::Evicts(notes);
                }
                let min = st
                    .subs
                    .values()
                    .filter_map(|s| s.queue.front().map(|f| f.seq))
                    .min();
                if let Some(min) = min {
                    let mut frame = None;
                    let mut subs = Vec::new();
                    let mut all_best_effort = true;
                    for (nonce, sub) in st.subs.iter_mut() {
                        if sub.queue.front().map(|f| f.seq) == Some(min) {
                            frame = Some(sub.queue.pop_front().unwrap());
                            subs.push((*nonce, sub.baseline));
                            all_best_effort &= sub.mode == DeliveryMode::BestEffort;
                        }
                    }
                    // Space freed: a publisher may be blocked on a full
                    // queue.
                    group.cv.notify_all();
                    break Work::Frame {
                        frame: frame.unwrap(),
                        subs,
                        all_best_effort,
                    };
                }
                if st.closed {
                    break Work::Exit;
                }
                st = group.cv.wait(st).unwrap();
            }
        };
        match work {
            Work::Exit => break,
            Work::Evicts(notes) => {
                let mut buf = CommBuffer::pooled();
                buf.put_u8(NOTE_EVICT);
                buf.put_u32(notes.len() as u32);
                for (nonce, reason) in &notes {
                    buf.put_u64(*nonce);
                    buf.put_string(reason);
                }
                // Best-effort: an eviction notice lost to the same dead
                // link it is reporting on is fine.
                let _ = domain.call(group.door, buf.into_message());
            }
            Work::Frame {
                frame,
                subs,
                all_best_effort,
            } => {
                let mut span =
                    spring_trace::span_start(keys::PUBSUB_FANOUT, scope, subs.len() as u64);
                let mut buf = CommBuffer::pooled();
                buf.put_u8(NOTE_DELIVER);
                buf.put_u64(frame.seq);
                buf.put_u64(frame.stamp_us);
                buf.put_bytes(&frame.data);
                buf.put_u32(subs.len() as u32);
                for (nonce, baseline) in &subs {
                    buf.put_u64(*nonce);
                    buf.put_u64(*baseline);
                }
                // A purely best-effort frame rides the one-way wire path
                // (no reply crossing) — except every LAZY_ACK_EVERY'th
                // frame, which goes two-way so the reply's stale-nonce
                // list still reaps forgotten subscribers. The flag rides
                // this one message's envelope: a co-located subscriber
                // replies anyway (and its own onward calls stay two-way),
                // and both outcomes are handled below by looking at the
                // reply itself.
                let one_way = all_best_effort && since_ack + 1 < LAZY_ACK_EVERY;
                let mut msg = buf.into_message();
                msg.one_way = one_way;
                let result = domain.call(group.door, msg);
                match result {
                    Ok(reply) => {
                        comm_failures = 0;
                        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                        if one_way && reply.bytes.is_empty() {
                            // The elision actually happened (a real
                            // delivery reply always carries at least its
                            // stale-nonce count).
                            stats.frames_oneway.fetch_add(1, Ordering::Relaxed);
                            since_ack += 1;
                        } else {
                            since_ack = 0;
                        }
                        let stale = decode_stale_nonces(reply);
                        if !stale.is_empty() {
                            let mut st = group.state.lock().unwrap();
                            for nonce in stale {
                                if group.remove_sub(&mut st, nonce) {
                                    stats.reaped.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            group.cv.notify_all();
                        }
                    }
                    Err(DoorError::Comm(_)) => {
                        span.fail();
                        stats.frames_dropped.fetch_add(1, Ordering::Relaxed);
                        spring_trace::span_start(keys::PUBSUB_DROP, scope, subs.len() as u64)
                            .fail();
                        comm_failures += 1;
                        if comm_failures >= MAX_DELIVERY_FAILURES {
                            prune_group(&group, &stats);
                        }
                    }
                    Err(_) => {
                        // The far side rejected the frame outright; the
                        // link is wedged, not lossy. Write it off now.
                        span.fail();
                        prune_group(&group, &stats);
                    }
                }
            }
        }
    }
    // Last one out: deregister the group (unless a re-subscribe already
    // replaced it with a fresh group under the same token) and release the
    // hub's copy of the callback door.
    if let Some(hub) = hub.upgrade() {
        let mut groups = hub.groups.lock();
        if groups
            .get(&group.token)
            .is_some_and(|cur| Arc::ptr_eq(cur, &group))
        {
            groups.remove(&group.token);
        }
    }
    let _ = domain.delete_door(group.door);
}

/// Drops every subscriber of a wedged link without notification (none is
/// deliverable) and closes the group.
fn prune_group(group: &LinkGroup, stats: &PubSubStats) {
    let mut st = group.state.lock().unwrap();
    let dropped = st.subs.len() as u64;
    st.subs.clear();
    st.evict_notes.clear();
    st.closed = true;
    stats.evictions.fetch_add(dropped, Ordering::Relaxed);
    stats.links_pruned.fetch_add(1, Ordering::Relaxed);
    group.cv.notify_all();
}

/// Reads the stale-nonce list out of a `NOTE_DELIVER` reply; a malformed
/// reply reaps nothing.
fn decode_stale_nonces(reply: Message) -> Vec<u64> {
    let mut buf = CommBuffer::from_message(reply);
    let mut out = Vec::new();
    if let Ok(n) = buf.get_u32() {
        for _ in 0..n {
            match buf.get_u64() {
                Ok(nonce) => out.push(nonce),
                Err(_) => return Vec::new(),
            }
        }
    }
    out
}

/// Demultiplexes the topic door: ordinary dispatched calls, publishes, and
/// subscription management.
struct TopicHandler {
    hub: Arc<TopicHub>,
}

impl DoorHandler for TopicHandler {
    fn invoke(&self, cctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
        let carried = msg.doors.clone();
        let mut args = CommBuffer::from_message(msg);
        let kind = args
            .get_u8()
            .map_err(|e| DoorError::Handler(format!("bad pubsub control: {e}")))?;
        match kind {
            KIND_PUBLISH => self.hub.handle_publish(args),
            KIND_SUBSCRIBE => self.hub.handle_subscribe(args, carried),
            KIND_UNSUBSCRIBE => self.hub.handle_unsubscribe(args, carried),
            KIND_CALL => {
                let mut reply = CommBuffer::pooled();
                let sctx = ServerCtx {
                    ctx: self.hub.ctx.clone(),
                    caller: cctx.caller,
                };
                server_dispatch(&sctx, &*self.hub.disp, &mut args, &mut reply)?;
                Ok(reply.into_message())
            }
            other => Err(DoorError::Handler(format!(
                "unknown pubsub packet kind {other}"
            ))),
        }
    }

    fn unreferenced(&self) {
        // The last identifier for the topic died (e.g. the naming binding
        // was dropped and no proxies remain): evict everyone and stop.
        self.hub.shutdown("topic deleted");
        self.hub.disp.unreferenced();
    }
}

/// Built-in operations every topic object answers over `KIND_CALL`.
pub const OP_TOPIC_INFO: u32 = subcontract::op_hash("topic.info");

/// Interface of a bare topic object (no application operations).
pub static PUBSUB_TOPIC_TYPE: TypeInfo = TypeInfo {
    name: "pubsub.topic",
    parents: &[&OBJECT_TYPE],
    default_subcontract: PubSub::ID,
};

/// Snapshot returned by [`PubSub::info`].
#[derive(Clone, Debug)]
pub struct TopicInfo {
    /// The hub's topic name.
    pub name: String,
    /// The sequence number the next publish will receive.
    pub next_seq: u64,
    /// Destination links currently attached.
    pub links: u32,
    /// Subscribers currently attached.
    pub subscribers: u32,
}

/// The default dispatcher for topic objects: answers `topic.info`.
struct TopicDispatch {
    hub: Mutex<Weak<TopicHub>>,
}

impl Dispatch for TopicDispatch {
    fn type_info(&self) -> &'static TypeInfo {
        &PUBSUB_TOPIC_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &ServerCtx,
        op: u32,
        _args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> Result<()> {
        match op {
            OP_TOPIC_INFO => {
                let hub = self
                    .hub
                    .lock()
                    .upgrade()
                    .ok_or_else(|| SpringError::Remote("topic hub gone".into()))?;
                subcontract::encode_ok(reply);
                reply.put_string(hub.name());
                reply.put_u64(hub.next_seq());
                reply.put_u32(hub.link_count() as u32);
                reply.put_u32(hub.subscriber_count() as u32);
                Ok(())
            }
            other => Err(SpringError::UnknownOp(other)),
        }
    }
}

/// Client representation: the topic door plus its name (diagnostics).
#[derive(Debug)]
struct PubSubRepr {
    door: DoorId,
    topic: String,
}

/// The pub/sub subcontract (client and server side).
#[derive(Debug, Default)]
pub struct PubSub;

impl PubSub {
    /// The identifier carried in topic objects' marshalled form.
    pub const ID: ScId = ScId::from_name("pubsub");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<PubSub> {
        Arc::new(PubSub)
    }

    /// Exports a new topic: returns the topic object (bind it somewhere)
    /// and the hub for local publishing and teardown.
    pub fn export(
        ctx: &Arc<DomainCtx>,
        name: &str,
        cfg: TopicConfig,
    ) -> Result<(SpringObj, Arc<TopicHub>)> {
        ctx.types().register(&PUBSUB_TOPIC_TYPE);
        let disp = Arc::new(TopicDispatch {
            hub: Mutex::new(Weak::new()),
        });
        let hub = Arc::new(TopicHub {
            ctx: ctx.clone(),
            name: name.to_owned(),
            cfg,
            disp: disp.clone(),
            publish_lock: Mutex::new(()),
            next_seq: AtomicU64::new(1),
            groups: Mutex::new(HashMap::new()),
            stats: Arc::new(PubSubStats::default()),
            down: AtomicBool::new(false),
            weak_self: Mutex::new(Weak::new()),
        });
        *hub.weak_self.lock() = Arc::downgrade(&hub);
        *disp.hub.lock() = Arc::downgrade(&hub);
        let door = ctx
            .domain()
            .create_door(Arc::new(TopicHandler { hub: hub.clone() }))?;
        let obj = SpringObj::assemble(
            ctx.clone(),
            &PUBSUB_TOPIC_TYPE,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(PubSubRepr {
                door,
                topic: name.to_owned(),
            }),
        );
        Ok((obj, hub))
    }

    /// Publishes one datum through a topic object (possibly a proxy).
    /// Best-effort at the transport level: a lost publish returns
    /// [`PublishOutcome::Dropped`], never an error.
    pub fn publish(obj: &SpringObj, data: &[u8]) -> Result<PublishOutcome> {
        let repr = obj.repr().downcast::<PubSubRepr>("pubsub")?;
        let mut buf = CommBuffer::pooled();
        buf.put_u8(KIND_PUBLISH);
        buf.put_bytes(data);
        match obj.ctx().domain().call(repr.door, buf.into_message()) {
            Ok(reply) => {
                let mut reply = CommBuffer::from_message(reply);
                Ok(PublishOutcome::Accepted(reply.get_u64()?))
            }
            Err(DoorError::Comm(_)) => Ok(PublishOutcome::Dropped),
            Err(e) => Err(e.into()),
        }
    }

    /// The topic name the object was exported under.
    pub fn topic_name(obj: &SpringObj) -> Result<String> {
        let repr = obj.repr().downcast::<PubSubRepr>("pubsub")?;
        Ok(repr.topic.clone())
    }

    /// Fetches the hub's current shape over the ordinary call path.
    pub fn info(obj: &SpringObj) -> Result<TopicInfo> {
        let call = obj.start_call(OP_TOPIC_INFO)?;
        let mut reply = obj.invoke(call)?;
        match subcontract::decode_reply_status(&mut reply)? {
            subcontract::ReplyStatus::Ok => Ok(TopicInfo {
                name: reply.get_string()?,
                next_seq: reply.get_u64()?,
                links: reply.get_u32()?,
                subscribers: reply.get_u32()?,
            }),
            subcontract::ReplyStatus::UserException(name) => {
                Err(SpringError::Remote(format!("topic.info raised {name}")))
            }
        }
    }
}

impl Subcontract for PubSub {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "pubsub"
    }

    fn invoke_preamble(&self, _obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        call.put_u8(KIND_CALL);
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<PubSubRepr>(self.name())?;
        let reply = obj.ctx().domain().call(repr.door, call.into_message())?;
        Ok(CommBuffer::from_message(reply))
    }

    fn marshal(&self, _ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let repr = parts.repr.into_downcast::<PubSubRepr>(self.name())?;
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_door(repr.door);
        buf.put_string(&repr.topic);
        Ok(())
    }

    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj> {
        if let Some(obj) = redispatch_if_foreign(Self::ID, ctx, expected, buf)? {
            return Ok(obj);
        }
        let (_, wire_name, actual) = get_obj_header(ctx, expected, buf)?;
        let door = buf.get_door()?;
        // The identifier has landed; any later parse failure must release
        // it (the stream subcontract's leak class).
        let topic = match buf.get_string() {
            Ok(t) => t,
            Err(e) => {
                let _ = ctx.domain().delete_door(door);
                return Err(e.into());
            }
        };
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(PubSubRepr { door, topic }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<PubSubRepr>(self.name())?;
        let door = obj.ctx().domain().copy_door(repr.door)?;
        Ok(obj.assemble_like(Repr::new(PubSubRepr {
            door,
            topic: repr.topic.clone(),
        })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<PubSubRepr>(self.name())?;
        ctx.domain().delete_door(repr.door)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Subscriber side
// ---------------------------------------------------------------------------

static NEXT_SUB_NONCE: AtomicU64 = AtomicU64::new(1);

/// One subscription's receiving-side state.
struct SubState {
    sink: Arc<dyn Subscriber>,
    mode: DeliveryMode,
    /// Highest sequence number accounted for ([`SEQ_UNSET`] before the
    /// baseline is known).
    last_seq: AtomicU64,
    delivered: AtomicU64,
    lost_frames: AtomicU64,
    lost_reports: AtomicU64,
    evicted: AtomicBool,
}

/// Routing table shared between the hub handle and its callback door.
struct SubRoutes {
    by_nonce: Mutex<HashMap<u64, Arc<SubState>>>,
}

/// The receiving half of pub/sub for one domain: owns the single shared
/// callback door all of this domain's subscriptions advertise, which is
/// what makes hub-side per-link coalescing possible.
pub struct SubscriberHub {
    ctx: Arc<DomainCtx>,
    routes: Arc<SubRoutes>,
    door: Mutex<Option<(DoorId, u64)>>,
}

impl SubscriberHub {
    /// Creates the hub (no door yet; it is minted on first subscribe).
    pub fn new(ctx: &Arc<DomainCtx>) -> Arc<SubscriberHub> {
        Arc::new(SubscriberHub {
            ctx: ctx.clone(),
            routes: Arc::new(SubRoutes {
                by_nonce: Mutex::new(HashMap::new()),
            }),
            door: Mutex::new(None),
        })
    }

    /// The shared callback door (created lazily) and its local token — the
    /// token is the histogram key delivery latency is recorded under.
    fn callback_door(&self) -> Result<(DoorId, u64)> {
        let mut slot = self.door.lock();
        if let Some(pair) = *slot {
            return Ok(pair);
        }
        let callback = Arc::new(DeliveryCallback {
            routes: self.routes.clone(),
            hist: Mutex::new(None),
        });
        let door = self.ctx.domain().create_door(callback.clone())?;
        let token = match self.ctx.domain().door_token(door) {
            Ok(t) => t,
            Err(e) => {
                let _ = self.ctx.domain().delete_door(door);
                return Err(e.into());
            }
        };
        // Bind the latency histogram to the door's token before any frame
        // can arrive through it.
        *callback.hist.lock() = Some(spring_trace::histogram(token, keys::PUBSUB_DELIVER));
        *slot = Some((door, token));
        Ok((door, token))
    }

    /// The histogram key delivery latency is recorded under (None before
    /// the first subscription).
    pub fn latency_key(&self) -> Option<u64> {
        (*self.door.lock()).map(|(_, t)| t)
    }

    /// Publish-to-deliver latency percentiles observed by this hub, if any
    /// deliveries have arrived.
    pub fn delivery_latency(&self) -> Option<spring_trace::HistSnapshot> {
        let key = self.latency_key()?;
        spring_trace::snapshot_of(key, keys::PUBSUB_DELIVER)
    }

    /// Subscribes `sink` to `topic` (a topic object or proxy). The returned
    /// handle unsubscribes on drop.
    pub fn subscribe(
        self: &Arc<Self>,
        topic: &SpringObj,
        mode: DeliveryMode,
        sink: Arc<dyn Subscriber>,
    ) -> Result<Subscription> {
        let nonce = NEXT_SUB_NONCE.fetch_add(1, Ordering::Relaxed);
        self.subscribe_as(topic, mode, sink, nonce)
    }

    /// Test hook: subscribe under a caller-chosen nonce. Nonces are minted
    /// per process, so two *processes* subscribing to one topic routinely
    /// hold colliding nonces; this lets a single-process test reproduce
    /// that collision (via two hubs = two link groups) and pin that the
    /// hub demuxes unsubscribes by (link, nonce), never by nonce alone.
    #[doc(hidden)]
    pub fn subscribe_as(
        self: &Arc<Self>,
        topic: &SpringObj,
        mode: DeliveryMode,
        sink: Arc<dyn Subscriber>,
        nonce: u64,
    ) -> Result<Subscription> {
        let repr = topic.repr().downcast::<PubSubRepr>("pubsub")?;
        let (shared, _token) = self.callback_door()?;
        // The call consumes one identifier for the callback door; the
        // shared one stays put.
        let own = self.ctx.domain().copy_door(shared)?;
        let state = Arc::new(SubState {
            sink,
            mode,
            last_seq: AtomicU64::new(SEQ_UNSET),
            delivered: AtomicU64::new(0),
            lost_frames: AtomicU64::new(0),
            lost_reports: AtomicU64::new(0),
            evicted: AtomicBool::new(false),
        });
        self.routes.by_nonce.lock().insert(nonce, state.clone());
        let mut buf = CommBuffer::pooled();
        buf.put_u8(KIND_SUBSCRIBE);
        buf.put_u64(nonce);
        buf.put_u8(mode as u8);
        buf.put_door(own);
        match self.ctx.domain().call(repr.door, buf.into_message()) {
            Ok(reply) => {
                let mut reply = CommBuffer::from_message(reply);
                let baseline = match reply.get_u64() {
                    Ok(b) => b,
                    Err(e) => {
                        // The hub accepted the subscription but the reply
                        // is garbage: tear the half-open subscription down
                        // on both sides, or the hub-side entry lives on
                        // with no handle left to detach it.
                        self.routes.by_nonce.lock().remove(&nonce);
                        let _ = self.wire_unsubscribe(repr.door, nonce);
                        return Err(e.into());
                    }
                };
                // A delivery racing the reply may already have advanced
                // last_seq; only install the baseline if it has not.
                let _ = state.last_seq.compare_exchange(
                    SEQ_UNSET,
                    baseline,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                Ok(Subscription {
                    hub: self.clone(),
                    // The raw door identifier, deliberately NOT a pinning
                    // copy: a subscription must not keep a dead topic's
                    // door alive (the unbind-orphan class). If the caller
                    // drops its topic object before unsubscribing, the
                    // detach call simply fails and the hub reaps the stale
                    // nonce from a later delivery reply.
                    topic_door: repr.door,
                    nonce,
                    state,
                })
            }
            Err(e) => {
                self.routes.by_nonce.lock().remove(&nonce);
                Err(e.into())
            }
        }
    }

    /// Sends `KIND_UNSUBSCRIBE` for `nonce` through `topic_door`, carrying
    /// a copy of the shared callback door so the hub scopes the removal to
    /// this hub's link group (nonces alone collide across processes).
    fn wire_unsubscribe(&self, topic_door: DoorId, nonce: u64) -> Result<()> {
        let shared = (*self.door.lock())
            .map(|(d, _)| d)
            .ok_or_else(|| SpringError::Remote("no callback door".into()))?;
        let own = self.ctx.domain().copy_door(shared)?;
        let mut buf = CommBuffer::pooled();
        buf.put_u8(KIND_UNSUBSCRIBE);
        buf.put_u64(nonce);
        buf.put_door(own);
        self.ctx.domain().call(topic_door, buf.into_message())?;
        Ok(())
    }

    /// Live subscriptions routed through this hub.
    pub fn active(&self) -> usize {
        self.routes.by_nonce.lock().len()
    }
}

impl Drop for SubscriberHub {
    fn drop(&mut self) {
        if let Some((door, _)) = self.door.lock().take() {
            let _ = self.ctx.domain().delete_door(door);
        }
    }
}

/// A live subscription. Dropping it unsubscribes (best-effort over the
/// wire, always locally). It does not hold an identifier for the topic:
/// the topic's lifetime belongs to its publisher and its name bindings,
/// and a torn-down topic evicts its subscribers rather than being kept
/// alive by them.
pub struct Subscription {
    hub: Arc<SubscriberHub>,
    topic_door: DoorId,
    nonce: u64,
    state: Arc<SubState>,
}

impl Subscription {
    /// The wire nonce identifying this subscription (diagnostics).
    pub fn nonce(&self) -> u64 {
        self.nonce
    }

    /// Frames delivered to the sink.
    pub fn delivered(&self) -> u64 {
        self.state.delivered.load(Ordering::Relaxed)
    }

    /// Total frames covered by `lost` callbacks (monitored mode).
    pub fn lost_frames(&self) -> u64 {
        self.state.lost_frames.load(Ordering::Relaxed)
    }

    /// Number of `lost` callbacks issued (one per contiguous gap).
    pub fn lost_reports(&self) -> u64 {
        self.state.lost_reports.load(Ordering::Relaxed)
    }

    /// Whether the hub evicted this subscription.
    pub fn was_evicted(&self) -> bool {
        self.state.evicted.load(Ordering::SeqCst)
    }

    /// Highest sequence number accounted for (delivered or reported lost);
    /// the subscribe-time baseline before any traffic.
    pub fn last_seq(&self) -> u64 {
        let v = self.state.last_seq.load(Ordering::Acquire);
        if v == SEQ_UNSET {
            0
        } else {
            v
        }
    }

    /// Explicit unsubscribe (equivalent to drop, but reports wire errors).
    /// Requires the caller's topic object to still exist — the subscription
    /// does not pin the topic door itself.
    pub fn unsubscribe(mut self) -> Result<()> {
        self.detach(true)
    }

    fn detach(&mut self, strict: bool) -> Result<()> {
        if self
            .hub
            .routes
            .by_nonce
            .lock()
            .remove(&self.nonce)
            .is_none()
        {
            // Already detached (evicted, or unsubscribe ran).
            return Ok(());
        }
        if self.state.evicted.load(Ordering::SeqCst) {
            // The hub already forgot us; nothing to say.
            return Ok(());
        }
        match self.hub.wire_unsubscribe(self.topic_door, self.nonce) {
            Ok(()) => Ok(()),
            Err(e) if strict => Err(e),
            Err(_) => Ok(()),
        }
    }

    /// Test hook: forgets the reply-installed baseline, as if the first
    /// delivery were racing ahead of the subscribe reply. Deliveries
    /// re-install the baseline from the frame itself; this exists so tests
    /// can pin that path deterministically.
    #[doc(hidden)]
    pub fn forget_baseline(&self) {
        self.state.last_seq.store(SEQ_UNSET, Ordering::SeqCst);
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let _ = self.detach(false);
    }
}

/// The shared callback door's handler: demultiplexes delivery frames and
/// eviction notices onto the routing table.
struct DeliveryCallback {
    routes: Arc<SubRoutes>,
    /// Lazily-bound latency histogram (keyed by this door's token).
    hist: Mutex<Option<Arc<spring_trace::Histogram>>>,
}

impl DeliveryCallback {
    fn handle_deliver(&self, mut args: CommBuffer) -> std::result::Result<Message, DoorError> {
        let bad = |e: spring_buf::BufError| DoorError::Handler(format!("bad delivery: {e}"));
        let seq = args.get_u64().map_err(bad)?;
        let stamp_us = args.get_u64().map_err(bad)?;
        let data = args.get_bytes().map_err(bad)?;
        let count = args.get_u32().map_err(bad)?;
        let mut stale = Vec::new();
        let mut hit = Vec::new();
        {
            let routes = self.routes.by_nonce.lock();
            for _ in 0..count {
                let nonce = args.get_u64().map_err(bad)?;
                let baseline = args.get_u64().map_err(bad)?;
                match routes.get(&nonce) {
                    Some(state) => hit.push((state.clone(), baseline)),
                    None => stale.push(nonce),
                }
            }
        }
        let latency_ns = now_micros().saturating_sub(stamp_us).saturating_mul(1000);
        let hist = self.hist.lock().clone();
        for (state, baseline) in hit {
            // Install the subscribe-time baseline if the subscribe reply
            // has not done it yet — a delivery can beat the reply back to
            // the subscriber. The hub repeats it in every frame precisely
            // so the gap accounting below never depends on that ordering:
            // after this point last_seq is a real sequence number and
            // "delivered ∪ lost tiles the space above the baseline" holds
            // from the very first frame.
            let _ = state.last_seq.compare_exchange(
                SEQ_UNSET,
                baseline,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            let last = state.last_seq.load(Ordering::Acquire);
            if seq <= last {
                // Duplicate or out-of-order relative to what this
                // subscription already accounted for; ignore.
                continue;
            }
            state.last_seq.store(seq, Ordering::Release);
            if state.mode == DeliveryMode::Monitored && seq > last + 1 {
                state.lost_reports.fetch_add(1, Ordering::Relaxed);
                state
                    .lost_frames
                    .fetch_add(seq - last - 1, Ordering::Relaxed);
                state.sink.lost(last + 1, seq - 1);
            }
            state.delivered.fetch_add(1, Ordering::Relaxed);
            state.sink.deliver(seq, &data);
            if let Some(h) = &hist {
                h.record(latency_ns);
            }
        }
        let mut reply = CommBuffer::pooled();
        reply.put_u32(stale.len() as u32);
        for nonce in stale {
            reply.put_u64(nonce);
        }
        Ok(reply.into_message())
    }

    fn handle_evict(&self, mut args: CommBuffer) -> std::result::Result<Message, DoorError> {
        let bad = |e: spring_buf::BufError| DoorError::Handler(format!("bad eviction: {e}"));
        let count = args.get_u32().map_err(bad)?;
        for _ in 0..count {
            let nonce = args.get_u64().map_err(bad)?;
            let reason = args.get_string().map_err(bad)?;
            let state = self.routes.by_nonce.lock().remove(&nonce);
            if let Some(state) = state {
                state.evicted.store(true, Ordering::SeqCst);
                state.sink.evicted(&reason);
            }
        }
        Ok(Message::new())
    }
}

impl DoorHandler for DeliveryCallback {
    fn invoke(&self, _cctx: &CallCtx, msg: Message) -> std::result::Result<Message, DoorError> {
        let mut args = CommBuffer::from_message(msg);
        let tag = args
            .get_u8()
            .map_err(|e| DoorError::Handler(format!("bad pubsub note: {e}")))?;
        match tag {
            NOTE_DELIVER => self.handle_deliver(args),
            NOTE_EVICT => self.handle_evict(args),
            other => Err(DoorError::Handler(format!("unknown pubsub note {other}"))),
        }
    }
}
