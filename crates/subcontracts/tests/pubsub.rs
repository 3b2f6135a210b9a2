//! Pub/sub subcontract: per-link coalesced fan-out, delivery modes, and the
//! slow-subscriber policy.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::ctx_on;
use parking_lot::Mutex;
use spring_kernel::{CallCtx, Domain, DoorError, DoorHandler, DoorId, Kernel, Message};
use spring_net::{NetConfig, Network};
use spring_subcontracts::pubsub::{
    DeliveryMode, PubSub, Subscriber, SubscriberHub, TopicConfig, PUBSUB_TOPIC_TYPE,
};
use subcontract::{ship_object, DomainCtx};

fn pubsub_ctx(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = ctx_on(kernel, name);
    ctx.register_subcontract(PubSub::new());
    ctx.types().register(&PUBSUB_TOPIC_TYPE);
    ctx
}

fn live_ids(kernel: &Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A recording sink: sequences delivered, gaps reported, eviction reasons.
#[derive(Default)]
struct RecSink {
    delivered: Mutex<Vec<(u64, Vec<u8>)>>,
    lost: Mutex<Vec<(u64, u64)>>,
    evicted: Mutex<Vec<String>>,
    /// When non-zero, every delivery sleeps this long (a slow consumer).
    stall_ms: AtomicU64,
    /// Deliveries *entered* (counted before any stall), so tests can tell
    /// a worker is parked inside the sink.
    entered: AtomicU64,
}

impl RecSink {
    fn new() -> Arc<RecSink> {
        Arc::new(RecSink::default())
    }

    fn seqs(&self) -> Vec<u64> {
        self.delivered.lock().iter().map(|(s, _)| *s).collect()
    }
}

impl Subscriber for RecSink {
    fn deliver(&self, seq: u64, data: &[u8]) {
        self.entered.fetch_add(1, Ordering::Relaxed);
        let stall = self.stall_ms.load(Ordering::Relaxed);
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
        self.delivered.lock().push((seq, data.to_vec()));
    }
    fn lost(&self, from_seq: u64, to_seq: u64) {
        self.lost.lock().push((from_seq, to_seq));
    }
    fn evicted(&self, reason: &str) {
        self.evicted.lock().push(reason.to_owned());
    }
}

#[test]
fn one_publish_one_frame_per_link_not_per_subscriber() {
    let net = Network::new(NetConfig::default());
    let p = net.add_node("publisher-machine");
    let s1 = net.add_node("subscriber-machine-1");
    let s2 = net.add_node("subscriber-machine-2");
    let server = pubsub_ctx(p.kernel(), "hub");
    let sub_a = pubsub_ctx(s1.kernel(), "subs-a");
    let sub_b = pubsub_ctx(s2.kernel(), "subs-b");

    let (topic, hub) = PubSub::export(&server, "news", TopicConfig::default()).unwrap();

    // Ten subscribers per machine, all through that machine's hub — so all
    // ten share one callback door, i.e. one destination link.
    let hub_a = SubscriberHub::new(&sub_a);
    let hub_b = SubscriberHub::new(&sub_b);
    let proxy_a = ship_object(&*net, topic.copy().unwrap(), &sub_a, &PUBSUB_TOPIC_TYPE).unwrap();
    let proxy_b = ship_object(&*net, topic, &sub_b, &PUBSUB_TOPIC_TYPE).unwrap();
    let mut sinks = Vec::new();
    let mut subs = Vec::new();
    for (proxy, shub) in [(&proxy_a, &hub_a), (&proxy_b, &hub_b)] {
        for _ in 0..10 {
            let sink = RecSink::new();
            subs.push(
                shub.subscribe(proxy, DeliveryMode::Monitored, sink.clone())
                    .unwrap(),
            );
            sinks.push(sink);
        }
    }
    assert_eq!(hub.link_count(), 2);
    assert_eq!(hub.subscriber_count(), 20);

    let publishes = 25u64;
    for i in 0..publishes {
        hub.publish(&i.to_le_bytes()).unwrap();
    }
    wait_until("all subscribers to drain", || {
        sinks
            .iter()
            .all(|s| s.delivered.lock().len() == publishes as usize)
    });

    // The coalescing invariant: 20 subscribers, 2 links, so each publish
    // cost exactly 2 delivery frames — one per link, never one per
    // subscriber.
    assert_eq!(hub.stats().frames_sent(), publishes * 2);
    assert_eq!(hub.stats().frames_dropped(), 0);
    for sink in &sinks {
        assert_eq!(sink.seqs(), (1..=publishes).collect::<Vec<_>>());
        assert!(sink.lost.lock().is_empty());
    }
}

#[test]
fn frames_and_calls_share_the_topic_door() {
    let kernel = Kernel::new("t");
    let server = pubsub_ctx(&kernel, "hub");
    let client = pubsub_ctx(&kernel, "client");

    let (topic, hub) = PubSub::export(&server, "local", TopicConfig::default()).unwrap();
    let proxy = common::ship_copy(&topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    let shub = SubscriberHub::new(&client);
    let sink = RecSink::new();
    let sub = shub
        .subscribe(&proxy, DeliveryMode::BestEffort, sink.clone())
        .unwrap();

    // Publishing through the proxy and through the hub interleave on one
    // sequence space.
    assert_eq!(
        PubSub::publish(&proxy, b"from-proxy").unwrap(),
        spring_subcontracts::PublishOutcome::Accepted(1)
    );
    assert_eq!(hub.publish(b"from-hub").unwrap(), 2);
    wait_until("both frames", || sink.delivered.lock().len() == 2);
    assert_eq!(sink.seqs(), vec![1, 2]);

    // The ordinary call path answers through the same door.
    let info = PubSub::info(&proxy).unwrap();
    assert_eq!(info.name, "local");
    assert_eq!(info.next_seq, 3);
    assert_eq!(info.links, 1);
    assert_eq!(info.subscribers, 1);
    assert_eq!(PubSub::topic_name(&proxy).unwrap(), "local");

    sub.unsubscribe().unwrap();
    wait_until("link teardown", || hub.link_count() == 0);
    assert_eq!(hub.stats().unsubscribes(), 1);
}

#[test]
fn monitored_subscribers_see_every_gap_best_effort_sees_none() {
    let net = Network::new(NetConfig::default());
    let p = net.add_node("publisher-machine");
    let s = net.add_node("subscriber-machine");
    let server = pubsub_ctx(p.kernel(), "hub");
    let client = pubsub_ctx(s.kernel(), "subs");

    // Queue bound far above the publish count: this test is about loss on
    // the wire, not the slow-subscriber policy.
    let cfg = TopicConfig {
        queue_bound: 2048,
        ..Default::default()
    };
    let (topic, hub) = PubSub::export(&server, "lossy", cfg).unwrap();
    let proxy = ship_object(&*net, topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    let shub = SubscriberHub::new(&client);
    let monitored = RecSink::new();
    let best_effort = RecSink::new();
    let m_sub = shub
        .subscribe(&proxy, DeliveryMode::Monitored, monitored.clone())
        .unwrap();
    let b_sub = shub
        .subscribe(&proxy, DeliveryMode::BestEffort, best_effort.clone())
        .unwrap();

    // Subscriptions established over a healthy wire; now the loss starts.
    net.set_config(NetConfig {
        drop_prob: 0.3,
        ..Default::default()
    });
    net.reseed(11);

    let total = 300u64;
    for i in 0..total {
        hub.publish(&i.to_le_bytes()).unwrap();
    }
    // Let the link worker attempt every queued frame while the wire is
    // still lossy, then heal it and flush one sentinel so trailing losses
    // surface as a gap before the final delivery.
    wait_until("queue drained under loss", || {
        hub.stats().frames_sent() + hub.stats().frames_dropped() >= total
    });
    net.set_config(NetConfig::default());
    let last = hub.publish(b"sentinel").unwrap();
    wait_until("monitored tail", || m_sub.last_seq() == last);
    wait_until("best-effort tail", || b_sub.last_seq() == last);

    // Monitored accounting is exact: every sequence number is either
    // delivered or covered by exactly one lost() range.
    let delivered = monitored.seqs();
    let lost = monitored.lost.lock().clone();
    let mut covered: Vec<u64> = delivered.clone();
    for (from, to) in &lost {
        assert!(from <= to);
        covered.extend(*from..=*to);
    }
    covered.sort_unstable();
    assert_eq!(covered, (1..=last).collect::<Vec<_>>(), "gap accounting");
    assert_eq!(m_sub.delivered() + m_sub.lost_frames(), last);
    assert!(
        hub.stats().frames_dropped() > 0,
        "the sweep should actually lose frames"
    );

    // Best-effort saw gaps in its sequence numbers but no lost() callbacks.
    assert!(best_effort.lost.lock().is_empty());
    assert!(best_effort.seqs().windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn slow_subscriber_is_evicted_with_notification_and_no_leaks() {
    let net = Network::new(NetConfig::default());
    let p = net.add_node("publisher-machine");
    let s = net.add_node("subscriber-machine");
    let server = pubsub_ctx(p.kernel(), "hub");
    let client = pubsub_ctx(s.kernel(), "subs");
    let base_p = live_ids(p.kernel());
    let base_s = live_ids(s.kernel());

    let cfg = TopicConfig {
        queue_bound: 4,
        backpressure: Duration::from_millis(2),
    };
    let (topic, hub) = PubSub::export(&server, "ticker", cfg).unwrap();
    let proxy = ship_object(&*net, topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    // Two subscriber hubs: two callback doors, so two links even within
    // one process. Delivery on a link is serialized, which makes the link
    // the isolation unit — the stalled sink must not be able to stall the
    // other link's subscriber.
    let shub_slow = SubscriberHub::new(&client);
    let shub_fast = SubscriberHub::new(&client);
    let slow = RecSink::new();
    slow.stall_ms.store(50, Ordering::Relaxed);
    let fast = RecSink::new();
    let slow_sub = shub_slow
        .subscribe(&proxy, DeliveryMode::BestEffort, slow.clone())
        .unwrap();
    let fast_sub = shub_fast
        .subscribe(&proxy, DeliveryMode::Monitored, fast.clone())
        .unwrap();
    assert_eq!(hub.link_count(), 2);

    // The slow sink stalls its link worker; its queue fills, the
    // backpressure window expires, and the hub evicts it — delivering the
    // eviction as a callback-door notification.
    let total = 40u64;
    for i in 0..total {
        hub.publish(&i.to_le_bytes()).unwrap();
    }
    wait_until("slow subscriber eviction", || slow_sub.was_evicted());
    slow.stall_ms.store(0, Ordering::Relaxed);
    wait_until("fast subscriber catches up", || {
        fast_sub.last_seq() == total
    });

    assert_eq!(hub.stats().evictions(), 1);
    let reasons = slow.evicted.lock().clone();
    assert_eq!(reasons.len(), 1, "exactly one eviction notification");
    assert!(reasons[0].contains("slow subscriber"), "{reasons:?}");
    assert!(!fast_sub.was_evicted());
    assert_eq!(shub_slow.active(), 0, "evicted route removed locally");
    assert_eq!(shub_fast.active(), 1);
    wait_until("hub forgets the slow subscriber", || {
        hub.subscriber_count() == 1 && hub.link_count() == 1
    });

    // The fast subscriber never saw silent tail-drop: every one of the 40
    // frames (far beyond the queue bound of 4) is accounted for.
    assert_eq!(fast_sub.delivered() + fast_sub.lost_frames(), total);

    // Full teardown. The network export/import tables keep their pins
    // (cross-net unreferenced is not propagated by design — see
    // spring-net): one per exported door on each side — the topic door
    // plus the two callback doors make three per kernel. What matters for
    // the eviction policy is that the evicted subscriber itself left
    // nothing behind: its group state, queue, and doors drain to exactly
    // the residue a clean unsubscribe leaves.
    drop(slow_sub);
    drop(fast_sub);
    drop(shub_slow);
    drop(shub_fast);
    drop(proxy);
    drop(hub);
    wait_until("publisher-side doors drain to the export pins", || {
        live_ids(p.kernel()) == base_p + 3
    });
    wait_until("subscriber-side doors drain to the export pins", || {
        live_ids(s.kernel()) == base_s + 3
    });
}

#[test]
fn dropping_the_last_topic_identifier_evicts_and_tears_down() {
    let kernel = Kernel::new("t");
    let server = pubsub_ctx(&kernel, "hub");
    let client = pubsub_ctx(&kernel, "client");
    let base = live_ids(&kernel);

    let (topic, hub) = PubSub::export(&server, "ephemeral", TopicConfig::default()).unwrap();
    let proxy = common::ship_copy(&topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    let shub = SubscriberHub::new(&client);
    let sink = RecSink::new();
    let sub = shub
        .subscribe(&proxy, DeliveryMode::Monitored, sink.clone())
        .unwrap();
    hub.publish(b"x").unwrap();
    wait_until("delivery", || sub.delivered() == 1);

    // Drop every identifier for the topic: the kernel's unreferenced
    // notification shuts the hub down, which evicts the subscriber over
    // its link before the worker exits.
    drop(proxy);
    drop(topic);
    wait_until("eviction on teardown", || sub.was_evicted());
    assert_eq!(sink.evicted.lock().len(), 1);
    assert!(sink.evicted.lock()[0].contains("topic deleted"));
    assert_eq!(hub.link_count(), 0);

    drop(sub);
    drop(shub);
    wait_until("all doors drain", || live_ids(&kernel) == base);
}

#[test]
fn unsubscribe_with_colliding_nonce_detaches_only_the_callers_link() {
    // Nonces come from a per-process counter, so two subscriber
    // *processes* on one topic routinely hold colliding nonces. The
    // subscribe_as hook reproduces the collision in one process: two
    // hubs (= two callback doors = two link groups) subscribe under the
    // same nonce. Unsubscribing one must detach exactly that one — a
    // nonce-only demux would pick a group by hash order and could
    // silently detach the other process's subscriber.
    let kernel = Kernel::new("t");
    let server = pubsub_ctx(&kernel, "hub");
    let client = pubsub_ctx(&kernel, "client");
    let (topic, hub) = PubSub::export(&server, "shared", TopicConfig::default()).unwrap();
    let proxy = common::ship_copy(&topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    let hub_a = SubscriberHub::new(&client);
    let hub_b = SubscriberHub::new(&client);
    let sink_a = RecSink::new();
    let sink_b = RecSink::new();
    let sub_a = hub_a
        .subscribe_as(&proxy, DeliveryMode::Monitored, sink_a.clone(), 7777)
        .unwrap();
    let sub_b = hub_b
        .subscribe_as(&proxy, DeliveryMode::Monitored, sink_b.clone(), 7777)
        .unwrap();
    assert_eq!(sub_a.nonce(), sub_b.nonce(), "the collision under test");
    assert_eq!(hub.link_count(), 2);

    sub_a.unsubscribe().unwrap();
    assert_eq!(hub.stats().unsubscribes(), 1);
    wait_until("exactly A's entry removed", || hub.subscriber_count() == 1);

    // B is still attached on its own link: a publish still reaches it,
    // with intact gap accounting.
    let seq = hub.publish(b"still-here").unwrap();
    wait_until("B still delivers", || sub_b.delivered() == 1);
    assert_eq!(sink_b.seqs(), vec![seq]);
    assert!(sink_b.lost.lock().is_empty());
    assert!(!sub_b.was_evicted());
    drop(sub_b);
}

#[test]
fn initial_gap_is_reported_even_if_a_delivery_beats_the_subscribe_reply() {
    let net = Network::new(NetConfig::default());
    let p = net.add_node("publisher-machine");
    let s = net.add_node("subscriber-machine");
    let server = pubsub_ctx(p.kernel(), "hub");
    let client = pubsub_ctx(s.kernel(), "subs");

    let (topic, hub) = PubSub::export(&server, "racy", TopicConfig::default()).unwrap();
    let proxy = ship_object(&*net, topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    let shub = SubscriberHub::new(&client);
    let sink = RecSink::new();
    let sub = shub
        .subscribe(&proxy, DeliveryMode::Monitored, sink.clone())
        .unwrap();
    // Simulate the startup race: the baseline the subscribe reply
    // installed never landed (as if the first delivery overtook the
    // reply). The baseline also rides in every delivery frame, so gap
    // accounting must not depend on the reply having been processed.
    sub.forget_baseline();

    // Lose the first frames after the subscription...
    net.set_config(NetConfig {
        drop_prob: 1.0,
        ..Default::default()
    });
    net.reseed(7);
    hub.publish(b"a").unwrap(); // seq 1, dropped
    hub.publish(b"b").unwrap(); // seq 2, dropped
    wait_until("both frames dropped", || hub.stats().frames_dropped() == 2);
    // ...then heal the wire; the next delivery is the sub's first.
    net.set_config(NetConfig::default());
    let last = hub.publish(b"c").unwrap();
    wait_until("first delivery", || sub.delivered() == 1);

    // The very first delivery reveals the whole gap from the baseline:
    // delivered ∪ lost tiles [1, last] even though the reply-side
    // baseline was never installed.
    assert_eq!(sink.lost.lock().clone(), vec![(1, 2)]);
    assert_eq!(sink.seqs(), vec![last]);
    assert_eq!(sub.delivered() + sub.lost_frames(), last);
    assert_eq!(sub.last_seq(), last);
}

#[test]
fn publish_stalls_at_most_one_backpressure_window_across_links() {
    let kernel = Kernel::new("t");
    let server = pubsub_ctx(&kernel, "hub");
    let client = pubsub_ctx(&kernel, "client");
    let backpressure = Duration::from_millis(250);
    let cfg = TopicConfig {
        queue_bound: 2,
        backpressure,
    };
    let (topic, hub) = PubSub::export(&server, "congested", cfg).unwrap();
    let proxy = common::ship_copy(&topic, &client, &PUBSUB_TOPIC_TYPE).unwrap();

    // Three links (three hubs), every sink parked: their queues cannot
    // drain during the measurement.
    let mut shubs = Vec::new();
    let mut sinks = Vec::new();
    let mut subs = Vec::new();
    for _ in 0..3 {
        let shub = SubscriberHub::new(&client);
        let sink = RecSink::new();
        sink.stall_ms.store(2_000, Ordering::Relaxed);
        subs.push(
            shub.subscribe(&proxy, DeliveryMode::BestEffort, sink.clone())
                .unwrap(),
        );
        sinks.push(sink);
        shubs.push(shub);
    }
    assert_eq!(hub.link_count(), 3);

    // Park every link worker inside its sink, then fill every queue to
    // the bound.
    hub.publish(b"park").unwrap();
    wait_until("all workers parked in their sinks", || {
        sinks.iter().all(|s| s.entered.load(Ordering::Relaxed) == 1)
    });
    hub.publish(b"q1").unwrap();
    hub.publish(b"q2").unwrap();

    // This publish finds all three groups full. The backpressure deadline
    // is shared across the whole publish, so it stalls ~one window total
    // — not one window per congested link — before evicting the laggards.
    let t0 = Instant::now();
    hub.publish(b"overflow").unwrap();
    let stalled = t0.elapsed();
    assert!(
        stalled < 2 * backpressure,
        "publish stalled {stalled:?}; the deadline must be shared across \
         links, not {:?} per congested link",
        backpressure
    );
    assert!(stalled >= backpressure / 2, "queues were not actually full");
    assert_eq!(hub.stats().evictions(), 3);
    assert_eq!(hub.subscriber_count(), 0);
}

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

/// A subscriber whose `deliver` makes an ordinary two-way call through a
/// proxy door to another machine and records what came back.
struct Relay {
    domain: Domain,
    proxy: DoorId,
    replies: Mutex<Vec<Result<Vec<u8>, DoorError>>>,
}

impl Subscriber for Relay {
    fn deliver(&self, _seq: u64, data: &[u8]) {
        let reply = self
            .domain
            .call(self.proxy, Message::from_bytes(data.to_vec()))
            .map(|r| r.bytes);
        self.replies.lock().push(reply);
    }
}

/// A best-effort delivery asks for no reply, but only for the delivery
/// call itself. A subscriber co-located with its topic receives that call
/// directly (no proxy consumes the one-way request), and the two-way calls
/// it makes in turn must still come back with real replies.
#[test]
fn one_way_delivery_does_not_leak_into_the_subscribers_own_calls() {
    const PUBLISHES: usize = 10;
    let net = Network::new(NetConfig::default());
    let p = net.add_node("p");
    let q = net.add_node("q");
    let server = pubsub_ctx(p.kernel(), "hub");
    let subs = pubsub_ctx(p.kernel(), "subs");

    let echo_domain = q.kernel().create_domain("echo");
    let echo = echo_domain.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &echo_domain,
            subs.domain(),
            Message {
                doors: vec![echo],
                ..Message::default()
            },
        )
        .unwrap();
    let relay = Arc::new(Relay {
        domain: subs.domain().clone(),
        proxy: arrived.doors[0],
        replies: Mutex::new(Vec::new()),
    });

    let (topic, hub) = PubSub::export(&server, "relay", TopicConfig::default()).unwrap();
    let proxy = common::ship_copy(&topic, &subs, &PUBSUB_TOPIC_TYPE).unwrap();
    let shub = SubscriberHub::new(&subs);
    let _sub = shub
        .subscribe(&proxy, DeliveryMode::BestEffort, relay.clone())
        .unwrap();

    for _ in 0..PUBLISHES {
        hub.publish(&[1, 2, 3]).unwrap();
    }
    wait_until("every delivery", || relay.replies.lock().len() == PUBLISHES);
    for reply in relay.replies.lock().iter() {
        assert_eq!(
            reply,
            &Ok(vec![1, 2, 3]),
            "a two-way call must get its reply"
        );
    }
}
