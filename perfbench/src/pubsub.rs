//! `sim_pubsub_fanout`: one topic fanned out to 2 000 subscribers.
//!
//! A publisher machine exports one topic on the simulated network; four
//! subscriber machines (four links) hold 500 subscriptions each, the first
//! two links best-effort and the last two monitored. One load thread
//! publishes 64 B data through `TopicHub::publish` in a closed loop with a
//! fixed window: it publishes again as soon as every link has finished
//! delivering all but the last `IN_FLIGHT` publishes. Each datum carries
//! its publish time and its expected sequence number; every subscriber
//! checks the sequence and records the latency from the publish call to
//! its `deliver` callback. Recording every delivery, not a sample of
//! subscribers, keeps the figure independent of where sampled subscribers
//! happen to sit in a link's delivery order.
//!
//! The loop is closed rather than paced by a clock: on a 2-vCPU virtual
//! machine an idle vCPU can take milliseconds to wake, and a paced
//! publisher that sleeps between publishes woke up to 5 ms late at its
//! 99th percentile, so its tail did not repeat from run to run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use spring_bench::fixtures::ctx_on;
use spring_kernel::{Kernel, StatsSnapshot};
use spring_net::{NetConfig, NetStatsSnapshot, Network, Node};
use spring_subcontracts::pubsub::{
    DeliveryMode, PubSub, Subscriber, SubscriberHub, Subscription, TopicConfig, TopicHub,
    PUBSUB_TOPIC_TYPE,
};
use spring_trace::now_ns;
use subcontract::{ship_object, DomainCtx};

use crate::metrics::{self, ratio, LatencyLog, Rng};
use crate::procstat;
use crate::traced::{self, LayerTimes};
use crate::{put_trace_layers, timed_run, Args, EndToEnd, Outcome};

const SUBSCRIBERS: usize = 2_000;
const LINKS: usize = 4;
const PER_LINK: u64 = (SUBSCRIBERS / LINKS) as u64;
/// Publishes a link may still be delivering when the next one is issued.
const IN_FLIGHT: u64 = 8;
const PAYLOAD: usize = 64;

struct Sink {
    bad: AtomicU64,
    /// The latency log of the subscriber's link.
    log: Arc<Mutex<LatencyLog>>,
    link: usize,
    progress: Arc<Progress>,
}

/// Deliveries per link, and a condition variable the publisher waits on.
/// A link's deliveries arrive in publish order, 500 per publish, so a link
/// has finished publish `n` once it has made `500 n` deliveries.
#[derive(Default)]
struct Progress {
    delivered: [AtomicU64; LINKS],
    lock: Mutex<()>,
    cv: Condvar,
}

impl Progress {
    /// Publishes every link has delivered completely.
    fn completed(&self) -> u64 {
        self.delivered
            .iter()
            .map(|d| d.load(Ordering::Acquire) / PER_LINK)
            .min()
            .unwrap_or(0)
    }

    /// Blocks until every link has completed `publishes`; false after 30 s.
    fn wait_for(&self, publishes: u64) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut guard = self.lock.lock().expect("progress lock");
        while self.completed() < publishes {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            guard = self.cv.wait_timeout(guard, left).expect("progress lock").0;
        }
        true
    }
}

fn word(data: &[u8], at: usize) -> u64 {
    data.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .unwrap_or(u64::MAX)
}

impl Subscriber for Sink {
    fn deliver(&self, seq: u64, data: &[u8]) {
        if data.len() != PAYLOAD || word(data, 8) != seq {
            self.bad.fetch_add(1, Ordering::Relaxed);
        }
        let now = now_ns();
        self.log
            .lock()
            .expect("latency log lock")
            .record(now, now.saturating_sub(word(data, 0)));
        let n = self.progress.delivered[self.link].fetch_add(1, Ordering::AcqRel) + 1;
        if n.is_multiple_of(PER_LINK) {
            // Taking the lock orders this against the publisher's check.
            let _guard = self.progress.lock.lock().expect("progress lock");
            self.progress.cv.notify_all();
        }
    }
}

struct Sub {
    handle: Subscription,
    sink: Arc<Sink>,
    mode: DeliveryMode,
}

struct Rig {
    net: Arc<Network>,
    nodes: Vec<Node>,
    hub: Arc<TopicHub>,
    hub_scope: u64,
    subs: Vec<Sub>,
    /// One latency log per link, shared by that link's subscribers (one
    /// link worker delivers to them all, so the lock is uncontended).
    logs: Vec<Arc<Mutex<LatencyLog>>>,
    progress: Arc<Progress>,
    _machines: Vec<(Arc<SubscriberHub>, subcontract::SpringObj, Arc<DomainCtx>)>,
    base_ids: Vec<u64>,
}

fn pubsub_ctx(kernel: &Kernel, name: &str) -> Arc<DomainCtx> {
    let ctx = ctx_on(kernel, name);
    ctx.register_subcontract(PubSub::new());
    ctx.types().register(&PUBSUB_TOPIC_TYPE);
    ctx
}

fn live_ids(node: &Node) -> u64 {
    let s = node.kernel().stats();
    s.ids_issued - s.ids_deleted
}

fn payload(due_ns: u64, seq: u64, r: u64) -> Vec<u8> {
    let mut p = vec![0u8; PAYLOAD];
    p[0..8].copy_from_slice(&due_ns.to_le_bytes());
    p[8..16].copy_from_slice(&seq.to_le_bytes());
    for (i, b) in p[16..].iter_mut().enumerate() {
        *b = (r >> (i % 8 * 8)) as u8;
    }
    p
}

impl Rig {
    fn build(seed: u64, out: &mut Outcome) -> Result<Rig, String> {
        let net = Network::new(NetConfig::default());
        let pub_node = net.add_node("publisher");
        let server = pubsub_ctx(pub_node.kernel(), "hub");
        let cfg = TopicConfig {
            queue_bound: 256,
            ..TopicConfig::default()
        };
        let (topic, hub) =
            PubSub::export(&server, "feed", cfg).map_err(|e| format!("export topic: {e}"))?;
        let mut nodes = vec![pub_node];
        let mut machines = Vec::new();
        let mut subs = Vec::new();
        let mut logs = Vec::new();
        let progress = Arc::new(Progress::default());
        for link in 0..LINKS {
            let log = Arc::new(Mutex::new(LatencyLog::new(0, crate::WINDOW_NS)));
            logs.push(log.clone());
            let node = net.add_node(format!("subscribers-{link}"));
            let ctx = pubsub_ctx(node.kernel(), "subs");
            let copy = topic.copy().map_err(|e| format!("copy topic: {e}"))?;
            let proxy = ship_object(&*net, copy, &ctx, &PUBSUB_TOPIC_TYPE)
                .map_err(|e| format!("ship topic: {e}"))?;
            let shub = SubscriberHub::new(&ctx);
            let mode = if link < 2 {
                DeliveryMode::BestEffort
            } else {
                DeliveryMode::Monitored
            };
            for _ in 0..SUBSCRIBERS / LINKS {
                let sink = Arc::new(Sink {
                    bad: AtomicU64::new(0),
                    log: log.clone(),
                    link,
                    progress: progress.clone(),
                });
                let handle = shub
                    .subscribe(&proxy, mode, sink.clone())
                    .map_err(|e| format!("subscribe: {e}"))?;
                subs.push(Sub { handle, sink, mode });
            }
            nodes.push(node);
            machines.push((shub, proxy, ctx));
        }
        drop(topic);
        let mut rig = Rig {
            net,
            nodes,
            hub_scope: server.domain().trace_scope(),
            hub,
            subs,
            logs,
            progress,
            _machines: machines,
            base_ids: Vec::new(),
        };
        let mut rng = Rng::new(seed, 70);
        for _ in 0..20 {
            let seq = rig.hub.next_seq();
            let got = rig.hub.publish(&payload(now_ns(), seq, rng.next_u64()));
            out.check(got.as_ref().ok() == Some(&seq), || "warm-up publish".into());
        }
        rig.quiesce(out);
        rig.base_ids = rig.nodes.iter().map(live_ids).collect();
        Ok(rig)
    }

    /// Waits until every subscriber has seen the last published sequence
    /// number; a subscriber still behind after 30 s fails the run.
    fn quiesce(&self, out: &mut Outcome) -> u64 {
        let last = self.hub.next_seq() - 1;
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.subs.iter().any(|s| s.handle.last_seq() != last) {
            if Instant::now() > deadline {
                out.check(false, || {
                    format!("deliveries did not reach sequence {last}")
                });
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        now_ns()
    }

    fn delivered(&self) -> u64 {
        self.subs.iter().map(|s| s.handle.delivered()).sum()
    }

    /// Starts fresh latency logs for a phase beginning at `start_ns`.
    fn reset_logs(&self, start_ns: u64) {
        for l in &self.logs {
            *l.lock().expect("latency log lock") = LatencyLog::new(start_ns, crate::WINDOW_NS);
        }
    }

    /// Delivery latencies since the last reset, merged across links.
    fn merged_log(&self, start_ns: u64) -> LatencyLog {
        let mut all = LatencyLog::new(start_ns, crate::WINDOW_NS);
        for l in &self.logs {
            all.merge(&l.lock().expect("latency log lock"));
        }
        all
    }

    /// The delivery contract: payloads arrive intact, and each monitored
    /// subscriber's deliveries plus reported losses tile the stream.
    fn check(&self, out: &mut Outcome) {
        let published = self.hub.next_seq() - 1;
        for (i, s) in self.subs.iter().enumerate() {
            let bad = s.sink.bad.load(Ordering::Relaxed);
            out.check(bad == 0, || {
                format!("subscriber {i}: {bad} corrupted deliveries")
            });
            let (d, lost) = (s.handle.delivered(), s.handle.lost_frames());
            if s.mode == DeliveryMode::Monitored {
                out.check(d + lost == published, || {
                    format!("monitored subscriber {i}: delivered {d} + lost {lost} != published {published}")
                });
            } else {
                out.check(d <= published, || {
                    format!("subscriber {i}: {d} deliveries > {published} published")
                });
            }
        }
    }

    fn finish(self, out: &mut Outcome) {
        self.check(out);
        for (node, base) in self.nodes.iter().zip(&self.base_ids) {
            let now = live_ids(node);
            out.check(now == *base, || {
                format!("door leak: {now} live ids vs {base}")
            });
        }
    }
}

/// One publishing phase of `seconds`, drained to quiescence.
struct Phase {
    e2e: EndToEnd,
    publish_ns: Vec<u64>,
    publishes: u64,
}

/// Publishes in the closed window for `seconds`, then drains.
fn publish_phase(rig: &Rig, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> Phase {
    let delivered0 = rig.delivered();
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    rig.reset_logs(start);
    let mut rng = Rng::new(seed, 80);
    let mut ph = Phase {
        e2e: EndToEnd::starting(start),
        publish_ns: Vec::new(),
        publishes: 0,
    };
    while now_ns() < end {
        let seq = rig.hub.next_seq();
        let span = traced.then(|| spring_trace::span_start(traced::OP_SPAN, rig.hub_scope, 0));
        let t0 = now_ns();
        let got = rig.hub.publish(&payload(t0, seq, rng.next_u64()));
        ph.publish_ns.push(now_ns() - t0);
        drop(span);
        ph.publishes += 1;
        out.check(got.as_ref().ok() == Some(&seq), || {
            format!("publish {seq} stamped {got:?}")
        });
        if !rig.progress.wait_for(seq.saturating_sub(IN_FLIGHT)) {
            out.check(false, || format!("links stalled before publish {seq}"));
            break;
        }
    }
    let done = rig.quiesce(out);
    ph.e2e.elapsed_ns = done - start;
    ph.e2e.attempted = ph.publishes * SUBSCRIBERS as u64;
    ph.e2e.completed = rig.delivered() - delivered0;
    ph.e2e.log = rig.merged_log(start);
    ph
}

struct Counters {
    kernels: Vec<StatsSnapshot>,
    net: NetStatsSnapshot,
    frames: u64,
    oneway: u64,
    dropped: u64,
    evictions: u64,
    proc: procstat::ProcSample,
}

fn counters(rig: &Rig) -> Counters {
    let s = rig.hub.stats();
    Counters {
        kernels: rig.nodes.iter().map(|n| n.kernel().stats()).collect(),
        net: rig.net.stats(),
        frames: s.frames_sent(),
        oneway: s.frames_oneway(),
        dropped: s.frames_dropped(),
        evictions: s.evictions(),
        proc: procstat::sample_self(),
    }
}

fn put_counters(out: &mut Outcome, a: &Counters, b: &Counters, ph: &mut Phase) {
    let ops = ph.e2e.completed as f64;
    let (mut door_calls, mut copied, mut waits) = (0, 0, 0);
    for (x, y) in a.kernels.iter().zip(&b.kernels) {
        let d = y.since(x);
        door_calls += d.door_calls;
        copied += d.bytes_copied;
        waits += d.table_lock_waits + d.shard_lock_waits;
    }
    let k = b.kernels[0].since(&a.kernels[0]);
    let n = b.net.since(&a.net);
    let p = b.proc.since(&a.proc);
    let frames = b.frames - a.frames;
    let m = &mut out.metrics;
    m.put(
        "kernel.door_calls_per_op",
        "count",
        ratio(door_calls as f64, ops),
    );
    m.put(
        "kernel.bytes_copied_per_op",
        "B/op",
        ratio(copied as f64, ops),
    );
    m.put(
        "kernel.lock_waits_per_kop",
        "count",
        ratio(waits as f64 * 1e3, ops),
    );
    m.put(
        "kernel.pool_hit_rate",
        "ratio",
        ratio(k.pool_hits as f64, (k.pool_hits + k.pool_misses) as f64),
    );
    m.put(
        "net.messages_per_op",
        "count",
        ratio(n.messages as f64, ops),
    );
    m.put("net.bytes_per_op", "B/op", ratio(n.bytes as f64, ops));
    m.put(
        "net.batch.calls_batched_share",
        "ratio",
        ratio(
            n.calls_batched as f64,
            (n.calls_batched + n.calls_unbatched) as f64,
        ),
    );
    m.put("proc.client.cpu_us_per_op", "us", ratio(p.cpu_us, ops));
    m.put(
        "proc.client.ctx_switches_per_op",
        "count",
        ratio(p.ctx_switches as f64, ops),
    );
    m.put(
        "subcontracts.pubsub.publish_us",
        "us",
        metrics::percentile(&mut ph.publish_ns, 0.5) as f64 / 1e3,
    );
    m.put(
        "subcontracts.pubsub.frames_per_publish_per_link",
        "frames",
        ratio(frames as f64, (ph.publishes * LINKS as u64) as f64),
    );
    m.put(
        "subcontracts.pubsub.oneway_share",
        "ratio",
        ratio((b.oneway - a.oneway) as f64, frames as f64),
    );
    m.put(
        "subcontracts.pubsub.frames_dropped",
        "count",
        (b.dropped - a.dropped) as f64,
    );
    m.put(
        "subcontracts.pubsub.evictions",
        "count",
        (b.evictions - a.evictions) as f64,
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return timed_run(
            args.seconds,
            |_, out| Rig::build(args.seed, out),
            |rig, i, secs, out| {
                let a = procstat::sample_self();
                let mut ph = publish_phase(rig, args.seed ^ (i as u64) << 32, secs, false, out);
                let b = procstat::sample_self();
                ph.e2e.cpu_us = b.since(&a).cpu_us;
                ph.e2e.hwm_kb = b.hwm_kb;
                Ok(ph.e2e)
            },
            |rig, out| {
                rig.finish(out);
                Ok(())
            },
        );
    }
    let mut out = Outcome::default();
    let rig = Rig::build(args.seed, &mut out)?;
    let secs = args.seconds;
    let a = counters(&rig);
    let mut ph = publish_phase(&rig, args.seed, secs * 0.5, false, &mut out);
    let b = counters(&rig);
    put_counters(&mut out, &a, &b, &mut ph);
    out.attempted = ph.e2e.attempted;
    out.failed = ph.e2e.attempted - ph.e2e.completed;

    // Traced phase in slices short enough that no span ring wraps;
    // fan-out trees on the link workers count alongside the publishes.
    let mut lt = LayerTimes::default();
    let mut traced_lat = metrics::LatHist::default();
    let end = now_ns() + (secs * 0.5 * 1e9) as u64;
    let mut slice = 0;
    spring_trace::ring::clear();
    while now_ns() < end {
        spring_trace::set_enabled(true);
        let traced = publish_phase(&rig, args.seed ^ (1 + slice), 0.05, true, &mut out);
        spring_trace::set_enabled(false);
        lt.add(spring_trace::ring::events(), 2, false);
        spring_trace::ring::clear();
        traced_lat.merge(&traced.e2e.log.total);
        slice += 1;
    }
    put_trace_layers(&mut out, &mut lt, &ph.e2e.log.total, &traced_lat);
    rig.finish(&mut out);
    Ok(out)
}
