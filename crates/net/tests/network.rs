//! Network-server tests: door extension across nodes, proxy fabrication,
//! identifier home-coming, partitions, and loss injection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spring_kernel::{CallCtx, DoorError, DoorHandler, Message};
use spring_net::{NetConfig, Network};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

struct Adder;

impl DoorHandler for Adder {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let sum: u32 = msg.bytes.iter().map(|b| *b as u32).sum();
        Ok(Message::from_bytes(sum.to_le_bytes().to_vec()))
    }
}

#[test]
fn cross_node_call_through_proxy() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Adder)).unwrap();

    // Ship the identifier from node B to node A; the client receives a
    // proxy door indistinguishable from a local one.
    let msg = Message {
        bytes: vec![],
        doors: vec![door],
        ..Message::default()
    };
    let arrived = net.ship_message(&server, &client, msg).unwrap();
    let proxy = arrived.doors[0];
    assert_eq!(proxy.owner(), client.id());

    let reply = client
        .call(proxy, Message::from_bytes(vec![1, 2, 3]))
        .unwrap();
    assert_eq!(u32::from_le_bytes(reply.bytes.try_into().unwrap()), 6);
    assert_eq!(net.stats().calls_forwarded, 1);
    assert_eq!(net.stats().proxies_created, 1);
}

#[test]
fn identifier_coming_home_is_local_again() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let other = b.kernel().create_domain("other");
    let door = server.create_door(Arc::new(Echo)).unwrap();

    // B -> A -> B: the identifier that lands back on node B must reach the
    // real door without a proxy hop through A.
    let msg = Message {
        bytes: vec![],
        doors: vec![door],
        ..Message::default()
    };
    let at_a = net.ship_message(&server, &client, msg).unwrap();
    let back = net.ship_message(&client, &other, at_a).unwrap();
    let id = back.doors[0];

    let before = net.stats();
    let reply = other.call(id, Message::from_bytes(vec![9])).unwrap();
    assert_eq!(reply.bytes, vec![9]);
    // The call was local to node B: nothing was forwarded.
    assert_eq!(net.stats().since(&before).calls_forwarded, 0);
}

#[test]
fn third_party_node_gets_chained_route() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let c = net.add_node("c");

    let server = a.kernel().create_domain("server");
    let via = b.kernel().create_domain("via");
    let client = c.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Adder)).unwrap();

    // A -> B -> C: node C's proxy targets node A directly (the network form
    // carries the origin, not the forwarding path).
    let msg = Message {
        bytes: vec![],
        doors: vec![door],
        ..Message::default()
    };
    let at_b = net.ship_message(&server, &via, msg).unwrap();
    let at_c = net.ship_message(&via, &client, at_b).unwrap();

    let reply = client
        .call(at_c.doors[0], Message::from_bytes(vec![5, 5]))
        .unwrap();
    assert_eq!(u32::from_le_bytes(reply.bytes.try_into().unwrap()), 10);
    // Exactly one forward: C -> A, no bounce through B.
    assert_eq!(net.stats().calls_forwarded, 1);
}

#[test]
fn replies_can_carry_doors_back_across_the_net() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");

    struct Minter;
    impl DoorHandler for Minter {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            let fresh = ctx.server.create_door(Arc::new(Echo))?;
            Ok(Message {
                bytes: vec![],
                doors: vec![fresh],
                ..Message::default()
            })
        }
    }

    let mint = server.create_door(Arc::new(Minter)).unwrap();
    let msg = Message {
        bytes: vec![],
        doors: vec![mint],
        ..Message::default()
    };
    let arrived = net.ship_message(&server, &client, msg).unwrap();

    let reply = client.call(arrived.doors[0], Message::new()).unwrap();
    assert_eq!(reply.doors.len(), 1);
    // The minted door lives on node B; calling it from A forwards again.
    let echo = client
        .call(reply.doors[0], Message::from_bytes(vec![4]))
        .unwrap();
    assert_eq!(echo.bytes, vec![4]);
}

#[test]
fn partitions_cut_calls_and_heal() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    net.partition(a.id(), b.id());
    match client.call(proxy, Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("partition")),
        other => panic!("expected comm error, got {other:?}"),
    }

    net.heal(a.id(), b.id());
    assert!(client.call(proxy, Message::new()).is_ok());
}

#[test]
fn loss_injection_fails_calls_probabilistically() {
    let net = Network::new(NetConfig {
        drop_prob: 1.0,
        ..Default::default()
    });
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    // Object transfer is reliable even at drop_prob 1.0.
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();

    match client.call(arrived.doors[0], Message::new()).unwrap_err() {
        DoorError::Comm(why) => assert!(why.contains("lost")),
        other => panic!("expected loss, got {other:?}"),
    }
    assert!(net.stats().drops >= 1);

    // Turning loss off restores service.
    net.set_config(NetConfig::default());
    assert!(client.call(arrived.doors[0], Message::new()).is_ok());
}

#[test]
fn latency_is_actually_paid() {
    let net = Network::new(NetConfig::with_latency(Duration::from_millis(5)));
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();

    let start = std::time::Instant::now();
    client.call(arrived.doors[0], Message::new()).unwrap();
    // Two hops (call + reply) at 5 ms each.
    assert!(start.elapsed() >= Duration::from_millis(10));
}

#[test]
fn same_node_ship_is_a_plain_transfer() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let d1 = a.kernel().create_domain("d1");
    let d2 = a.kernel().create_domain("d2");
    let door = d1.create_door(Arc::new(Echo)).unwrap();

    let before = net.stats();
    let arrived = net
        .ship_message(
            &d1,
            &d2,
            Message {
                bytes: vec![7],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(net.stats().since(&before).messages, 0);
    let reply = d2
        .call(arrived.doors[0], Message::from_bytes(vec![8]))
        .unwrap();
    assert_eq!(reply.bytes, vec![8]);
}

#[test]
fn proxy_reuse_for_repeated_imports() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");

    let server = b.kernel().create_domain("server");
    let c1 = a.kernel().create_domain("c1");
    let c2 = a.kernel().create_domain("c2");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let dup = server.copy_door(door).unwrap();

    let m1 = net
        .ship_message(
            &server,
            &c1,
            Message {
                bytes: vec![],
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let m2 = net
        .ship_message(
            &server,
            &c2,
            Message {
                bytes: vec![],
                doors: vec![dup],
                ..Message::default()
            },
        )
        .unwrap();

    // Same underlying door: node A fabricates the proxy once.
    assert_eq!(net.stats().proxies_created, 1);
    assert!(c1.call(m1.doors[0], Message::new()).is_ok());
    assert!(c2.call(m2.doors[0], Message::new()).is_ok());
}

/// Live identifier count for one kernel: issued minus deleted. Leak
/// regressions assert this returns to its pre-failure baseline.
fn live_ids(kernel: &spring_kernel::Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

/// Mints a fresh door into every reply — the shape of call whose lost
/// reply used to strand an export-table pin on the serving node.
struct DoorMaker;

impl DoorHandler for DoorMaker {
    fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
        let d = ctx.server.create_door(Arc::new(Echo))?;
        Ok(Message {
            doors: vec![d],
            ..Message::default()
        })
    }
}

#[test]
fn failed_same_node_ship_releases_every_identifier() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let from = a.kernel().create_domain("from");
    let to = a.kernel().create_domain("to");
    let d1 = from.create_door(Arc::new(Echo)).unwrap();
    let d2 = from.create_door(Arc::new(Echo)).unwrap();

    let before = live_ids(a.kernel());
    // Mid-stream failure: a valid identifier lands in the receiver, then a
    // stale one fails the transfer, leaving a third still unsent. Nothing
    // from the lost message may stay behind in either domain.
    let ok1 = from.copy_door(d1).unwrap();
    let stale = from.copy_door(d1).unwrap();
    from.delete_door(stale).unwrap();
    let ok2 = from.copy_door(d2).unwrap();
    let msg = Message {
        doors: vec![ok1, stale, ok2],
        ..Message::default()
    };
    assert!(net.ship_message(&from, &to, msg).is_err());
    assert_eq!(
        live_ids(a.kernel()),
        before,
        "a failed same-node ship must release both landed and unsent identifiers",
    );
}

#[test]
fn lost_call_attempts_do_not_pin_argument_exports() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let before = live_ids(a.kernel());
    net.set_config(NetConfig {
        drop_prob: 1.0,
        ..NetConfig::default()
    });
    // Every attempt carries a door argument; every attempt is lost before
    // leaving the node. Each one exports (pins) the argument door in the
    // network server — the rollback must release it again.
    for _ in 0..8 {
        let arg = client.create_door(Arc::new(Echo)).unwrap();
        let msg = Message {
            bytes: vec![1],
            doors: vec![arg],
            ..Message::default()
        };
        assert!(client.call(proxy, msg).is_err());
    }
    net.set_config(NetConfig::default());
    assert_eq!(
        live_ids(a.kernel()),
        before,
        "every lost call attempt must release the argument exports it pinned",
    );
}

#[test]
fn lost_reply_does_not_pin_reply_exports() {
    // The network RNG is rolled once per lossy hop, call hop first. Scan
    // for a seed whose first roll survives and whose second drops, so
    // exactly the reply is lost — deterministically.
    let mut seed = 0u64;
    loop {
        let mut rng = spring_kernel::FaultRng::seed_from_u64(seed);
        if rng.unit_f64() >= 0.5 && rng.unit_f64() < 0.5 {
            break;
        }
        seed += 1;
    }

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(DoorMaker)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let before = live_ids(b.kernel());
    net.reseed(seed);
    net.set_config(NetConfig {
        drop_prob: 0.5,
        ..NetConfig::default()
    });
    // The call executes (mints a reply door) and the reply is dropped on
    // the wire: the serving node must release the export it just pinned,
    // which also destroys the now-unreferenced reply door.
    assert!(client.call(proxy, Message::new()).is_err());
    net.set_config(NetConfig::default());
    assert_eq!(
        live_ids(b.kernel()),
        before,
        "a reply lost on the wire must not strand its exported doors",
    );
}

#[test]
fn partition_during_execution_does_not_strand_reply_doors() {
    /// Cuts the network mid-call, so the reply finds its link gone.
    struct Partitioner {
        net: Arc<Network>,
        a: spring_kernel::NodeId,
        b: spring_kernel::NodeId,
    }

    impl DoorHandler for Partitioner {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            self.net.partition(self.a, self.b);
            let d = ctx.server.create_door(Arc::new(Echo))?;
            Ok(Message {
                doors: vec![d],
                ..Message::default()
            })
        }
    }

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server
        .create_door(Arc::new(Partitioner {
            net: net.clone(),
            a: a.id(),
            b: b.id(),
        }))
        .unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let before = live_ids(b.kernel());
    assert!(client.call(proxy, Message::new()).is_err());
    assert_eq!(
        live_ids(b.kernel()),
        before,
        "a reply blocked by a partition must release its identifiers",
    );
}

// ---------------------------------------------------------------------------
// Concurrent callers on one link: every call ships in a frame of its own,
// so loss and leak accounting must hold call by call however the callers
// interleave. The seeded sweeps append their seeds to
// `target/pipeline-seeds.txt` so a CI failure reports exactly which RNG
// seeds were exercised.
// ---------------------------------------------------------------------------

const LINK_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const LINK_DROP: f64 = 0.3;
const LINK_CALLERS: usize = 4;
const LINK_CALLS_PER_CALLER: usize = 10;

/// Records the seeds a fault sweep ran, for CI to upload on failure.
fn record_seeds(suite: &str, drop_prob: f64, seeds: &[u64]) {
    use std::io::Write as _;
    // Tests run with the package dir as cwd; aim at the workspace-level
    // target/ so CI's artifact upload finds the file.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("pipeline-seeds.txt"))
    {
        let list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
        let _ = writeln!(f, "{suite}: drop_prob={drop_prob} seeds={}", list.join(","));
    }
}

/// Ships a door served by `handler` from a fresh server domain on
/// `server_node` into a fresh client domain on `client_node`, returning
/// (client domain, proxy door).
fn proxy_to(
    net: &Network,
    server_node: &spring_net::Node,
    client_node: &spring_net::Node,
    handler: Arc<dyn DoorHandler>,
) -> (spring_kernel::Domain, spring_kernel::DoorId) {
    let server = server_node.kernel().create_domain("server");
    let client = client_node.kernel().create_domain("client");
    let door = server.create_door(handler).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    (client, arrived.doors[0])
}

/// Runs `LINK_CALLERS` threads of `LINK_CALLS_PER_CALLER` calls each over
/// one link; returns how many calls succeeded.
fn hammer_link(
    client: &spring_kernel::Domain,
    proxy: spring_kernel::DoorId,
    make_msg: impl Fn() -> Message + Sync,
) -> u64 {
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..LINK_CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut ok = 0u64;
                    for _ in 0..LINK_CALLS_PER_CALLER {
                        match client.call(proxy, make_msg()) {
                            Ok(reply) => {
                                ok += 1;
                                for d in reply.doors {
                                    client.delete_door(d).unwrap();
                                }
                            }
                            Err(DoorError::Comm(why)) => assert!(why.contains("lost"), "{why}"),
                            Err(other) => panic!("expected loss, got {other:?}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().unwrap()).sum()
    })
}

#[test]
fn concurrent_callers_all_complete_and_are_counted_once() {
    const THREADS: usize = 8;
    const CALLS_PER_THREAD: usize = 50;

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let (client, proxy) = proxy_to(&net, &b, &a, Arc::new(Echo));

    let before = net.stats();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = &client;
            s.spawn(move || {
                for i in 0..CALLS_PER_THREAD {
                    let payload = vec![t as u8, i as u8];
                    let reply = client
                        .call(proxy, Message::from_bytes(payload.clone()))
                        .unwrap();
                    assert_eq!(reply.bytes, payload, "echo must round-trip per call");
                }
            });
        }
    });
    let delta = net.stats().since(&before);

    let total = (THREADS * CALLS_PER_THREAD) as u64;
    assert_eq!(delta.calls_forwarded, total);
    assert_eq!(
        delta.calls_unbatched, total,
        "every call rides its own frame"
    );
    assert_eq!(delta.batch_flushes, total, "one request frame per call");
    assert_eq!(delta.calls_batched, 0);
}

/// Counts the calls that reach the wrapped handler, so a sweep can tell
/// delivered calls from lost requests.
struct Counted<H>(AtomicU64, H);

impl<H: DoorHandler> DoorHandler for Counted<H> {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        self.0.fetch_add(1, Ordering::Relaxed);
        self.1.invoke(ctx, msg)
    }
}

/// Deletes whatever doors arrive.
struct Drain;

impl DoorHandler for Drain {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        for d in msg.doors {
            ctx.server.delete_door(d)?;
        }
        Ok(Message::new())
    }
}

/// Concurrent callers each pass a fresh door argument over a lossy link.
/// A delivered call leaves exactly one export pinned on the calling node
/// (the destination's proxy references it); a lost request must leave
/// none, whichever callers' requests the loss rolls hit.
#[test]
fn lost_requests_release_each_callers_fresh_exports() {
    record_seeds("lost_requests", LINK_DROP, &LINK_SEEDS);
    for seed in LINK_SEEDS {
        let net = Network::new(NetConfig::default());
        let a = net.add_node("a");
        let b = net.add_node("b");
        let sink = Arc::new(Counted(AtomicU64::new(0), Drain));
        let (client, proxy) = proxy_to(&net, &b, &a, sink.clone());

        let baseline = live_ids(a.kernel());
        net.reseed(seed);
        net.set_config(NetConfig {
            drop_prob: LINK_DROP,
            ..NetConfig::default()
        });
        let ok = hammer_link(&client, proxy, || Message {
            bytes: vec![1],
            doors: vec![client.create_door(Arc::new(Echo)).unwrap()],
            ..Message::default()
        });
        net.set_config(NetConfig::default());

        let delivered = sink.0.load(Ordering::Relaxed);
        let total = (LINK_CALLERS * LINK_CALLS_PER_CALLER) as u64;
        assert!(ok <= delivered && delivered < total, "seed {seed}: no loss");
        assert_eq!(
            live_ids(a.kernel()),
            baseline + delivered,
            "seed {seed}: {} lost requests must release their pinned arguments",
            total - delivered,
        );
    }
}

/// Concurrent callers of a door that mints a fresh door into every reply,
/// over a lossy link. A successful call leaves the reply door pinned on the
/// serving node; a reply lost on the wire must release it.
#[test]
fn lost_replies_release_their_door_exports() {
    record_seeds("lost_replies", LINK_DROP, &LINK_SEEDS);
    for seed in LINK_SEEDS {
        let net = Network::new(NetConfig::default());
        let a = net.add_node("a");
        let b = net.add_node("b");
        let minter = Arc::new(Counted(AtomicU64::new(0), DoorMaker));
        let (client, proxy) = proxy_to(&net, &b, &a, minter.clone());

        let baseline = live_ids(b.kernel());
        net.reseed(seed);
        net.set_config(NetConfig {
            drop_prob: LINK_DROP,
            ..NetConfig::default()
        });
        let ok = hammer_link(&client, proxy, Message::new);
        net.set_config(NetConfig::default());

        let delivered = minter.0.load(Ordering::Relaxed);
        assert!(ok < delivered, "seed {seed}: no reply was lost");
        assert_eq!(
            live_ids(b.kernel()),
            baseline + ok,
            "seed {seed}: {} lost replies must release the reply doors they carried",
            delivered - ok,
        );
    }
}

// ---------------------------------------------------------------------------
// Stream subcontract drop-path audit: fire-and-forget frames lost mid-hop
// must strand nothing — no reply doors, no pinned exports, and a truncated
// marshalled stream must not leak the door it landed.
// ---------------------------------------------------------------------------

/// Minimal dispatch for stream objects under test; streams exercise the
/// frame lane, so ordinary operations are never invoked.
struct NullStreamOps;

static STREAM_TEST_TYPE: subcontract::TypeInfo = subcontract::TypeInfo {
    name: "net.stream_test",
    parents: &[&subcontract::OBJECT_TYPE],
    default_subcontract: spring_subcontracts::Stream::ID,
};

impl subcontract::Dispatch for NullStreamOps {
    fn type_info(&self) -> &'static subcontract::TypeInfo {
        &STREAM_TEST_TYPE
    }

    fn dispatch(
        &self,
        _sctx: &subcontract::ServerCtx,
        op: u32,
        _args: &mut spring_buf::CommBuffer,
        _reply: &mut spring_buf::CommBuffer,
    ) -> subcontract::Result<()> {
        Err(subcontract::SpringError::UnknownOp(op))
    }
}

fn stream_ctx(kernel: &spring_kernel::Kernel, name: &str) -> Arc<subcontract::DomainCtx> {
    let ctx = subcontract::DomainCtx::new(kernel.create_domain(name));
    ctx.register_subcontract(spring_subcontracts::Stream::new());
    ctx.types().register(&STREAM_TEST_TYPE);
    ctx
}

#[test]
fn truncated_stream_unmarshal_releases_the_landed_door() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let ctx = stream_ctx(a.kernel(), "d");
    let sink = Arc::new(|_seq: u64, _data: &[u8]| {});
    let (obj, _stats) =
        spring_subcontracts::Stream::export(&ctx, Arc::new(NullStreamOps), sink).unwrap();

    let before = live_ids(a.kernel());
    let mut buf = spring_buf::CommBuffer::new();
    obj.marshal_copy(&mut buf).unwrap();
    let mut msg = buf.into_message();
    // Cut into the trailing sequence counter: the door has already landed
    // when the parse of the remainder fails.
    let cut = msg.bytes.len() - 4;
    msg.bytes.truncate(cut);
    let mut torn = spring_buf::CommBuffer::from_message(msg);
    assert!(
        subcontract::unmarshal_object(&ctx, &STREAM_TEST_TYPE, &mut torn).is_err(),
        "a truncated stream must fail to unmarshal"
    );
    assert_eq!(
        live_ids(a.kernel()),
        before,
        "a failed stream unmarshal must delete the door it landed",
    );
}

#[test]
fn lost_stream_frames_strand_no_doors_or_pins() {
    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server_ctx = stream_ctx(b.kernel(), "server");
    let client_ctx = stream_ctx(a.kernel(), "client");

    let sink = Arc::new(|_seq: u64, _data: &[u8]| {});
    let (obj, stats) =
        spring_subcontracts::Stream::export(&server_ctx, Arc::new(NullStreamOps), sink).unwrap();
    let remote =
        subcontract::ship_object_copy(&*net, &obj, &client_ctx, &STREAM_TEST_TYPE).unwrap();

    let base_a = live_ids(a.kernel());
    let base_b = live_ids(b.kernel());
    net.reseed(7);
    net.set_config(NetConfig {
        drop_prob: 0.7,
        ..NetConfig::default()
    });
    let mut delivered = 0u64;
    for i in 0..200u64 {
        let outcome = spring_subcontracts::Stream::send_frame(&remote, &i.to_le_bytes())
            .unwrap_or_else(|e| {
                panic!("fire-and-forget frames surface loss as Dropped, never Err: {e}")
            });
        if outcome == spring_subcontracts::FrameOutcome::Delivered {
            delivered += 1;
        }
    }
    net.set_config(NetConfig::default());
    assert!(delivered > 0, "some frames should survive drop_prob 0.7");
    assert!(
        delivered < 200,
        "some frames should be lost at drop_prob 0.7"
    );
    // A frame whose *reply* hop is lost reports Dropped even though the
    // sink ran, so the sink count dominates the sender's delivered count.
    assert!(stats.received() >= delivered);
    assert!(stats.received() <= 200);
    assert_eq!(
        live_ids(a.kernel()),
        base_a,
        "lost request frames must roll back every export they pinned",
    );
    assert_eq!(
        live_ids(b.kernel()),
        base_b,
        "lost frames must strand no reply doors on the serving node",
    );

    // Dropping the remote copy releases exactly its own proxy-door
    // identifier; the origin's export pin survives by design (the export
    // table is shared with any other holder).
    drop(remote);
    assert_eq!(live_ids(a.kernel()), base_a - 1);
}
