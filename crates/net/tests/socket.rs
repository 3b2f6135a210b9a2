//! Socket transport tests: two independent `Network` instances in one test
//! process stand in for two OS processes — they share no state except the
//! socket between them, exactly like separate processes do (the true
//! multi-process proof, with release binaries, lives in the bench crate's
//! `multi_process` test). Raw hand-crafted frames play the byzantine peer.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spring_kernel::{CallCtx, DoorError, DoorHandler, Message, NodeId};
use spring_net::{NetConfig, Network};

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

/// Invokes the first door in the message (a callback through whatever
/// proxy chain delivered it) and returns that door's reply bytes.
struct CallsBack;

impl DoorHandler for CallsBack {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let mut doors = msg.doors.into_iter();
        let target = doors.next().ok_or(DoorError::InvalidDoor)?;
        let nested = ctx.server.call(
            target,
            Message {
                bytes: msg.bytes,
                ..Message::default()
            },
        )?;
        Ok(Message {
            bytes: nested.bytes,
            ..Message::default()
        })
    }
}

/// Live identifier count for one kernel: issued minus deleted. Leak
/// regressions assert this returns to its pre-failure baseline.
fn live_ids(kernel: &spring_kernel::Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

/// Spins until `cond` holds, for assertions on counters bumped by the
/// connection's own threads slightly after the failing call returns.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

fn temp_sock(tag: &str) -> String {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("spring-{}-{}-{n}.sock", std::process::id(), tag))
        .to_string_lossy()
        .into_owned()
}

/// One simulated "process": its own network, one node, an echo bootstrap.
fn echo_process(node: u64) -> (Arc<Network>, spring_net::Node) {
    let net = Network::new(NetConfig::default());
    let n = net.add_node_with_id(format!("proc-{node}"), node);
    let domain = n.kernel().create_domain("servants");
    let door = domain.create_door(Arc::new(Echo)).unwrap();
    net.set_bootstrap(n.id(), &domain, door).unwrap();
    (net, n)
}

fn roundtrip(client: &spring_kernel::Domain, door: spring_kernel::DoorId, payload: &[u8]) {
    let reply = client
        .call(
            door,
            Message {
                bytes: payload.to_vec(),
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.bytes, payload);
}

#[test]
fn door_calls_over_uds() {
    let (server_net, server_node) = echo_process(101);
    let path = temp_sock("uds");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 102);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    assert_eq!(peer.remote_node(), Some(NodeId::from_raw(101)));
    assert_eq!(peer.remote_name().as_deref(), Some("proc-101"));

    let door = peer.bootstrap_door(&client).unwrap();
    for i in 0..32u8 {
        roundtrip(&client, door, &[i, i ^ 0xff]);
    }

    let sent = client_net.socket_stats();
    assert!(sent.frames_sent >= 32);
    assert!(sent.frames_received >= 32);
    assert!(sent.bytes_sent > 0);
    let served = server_net.socket_stats();
    assert!(served.frames_received >= 32);
}

#[test]
fn door_calls_over_tcp() {
    let (server_net, server_node) = echo_process(111);
    let listener = server_net
        .listen_tcp(server_node.id(), "127.0.0.1:0")
        .unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 112);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net
        .connect_tcp(client_node.id(), listener.local_addr())
        .unwrap();

    let door = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, door, b"over tcp");
    roundtrip(&client, door, &[]);
}

/// A door identifier sent through the socket becomes a proxy on the far
/// side, and invoking it calls *back* across the same connection — the
/// nested call must not deadlock the link's reader.
#[test]
fn callback_across_the_same_connection() {
    let net_b = Network::new(NetConfig::default());
    let node_b = net_b.add_node_with_id("proc-b", 121);
    let domain_b = node_b.kernel().create_domain("servants");
    let caller = domain_b.create_door(Arc::new(CallsBack)).unwrap();
    net_b.set_bootstrap(node_b.id(), &domain_b, caller).unwrap();
    let path = temp_sock("callback");
    let _listener = net_b.listen_uds(node_b.id(), &path).unwrap();

    let net_a = Network::new(NetConfig::default());
    let node_a = net_a.add_node_with_id("proc-a", 122);
    let domain_a = node_a.kernel().create_domain("app");
    let peer = net_a.connect_uds(node_a.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&domain_a).unwrap();

    // Send our own echo door along; the servant invokes it re-entrantly.
    let echo = domain_a.create_door(Arc::new(Echo)).unwrap();
    let reply = domain_a
        .call(
            remote,
            Message {
                bytes: b"boomerang".to_vec(),
                doors: vec![echo],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.bytes, b"boomerang");
}

/// Satellite regression: a send that fails mid-frame must release every
/// export freshly pinned for the frame — and the next call must redial and
/// succeed, re-pinning from scratch.
#[test]
fn send_failure_releases_pinned_exports_and_redials() {
    let (server_net, server_node) = echo_process(131);
    let path = temp_sock("sendfail");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 132);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, remote, b"warm");

    let baseline = live_ids(client_node.kernel());
    peer.inject_write_faults(1);
    let payload = client.create_door(Arc::new(Echo)).unwrap();
    let carried = client.copy_door(payload).unwrap();
    let err = client
        .call(
            remote,
            Message {
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    // The carried copy was consumed by the call and the export pinned for
    // it rolled back: only `payload` itself may remain.
    assert_eq!(live_ids(client_node.kernel()), baseline + 1);
    wait_until("client disconnect count", || {
        client_net.socket_stats().disconnects == 1
    });

    // The connection died with the injected fault; the next call redials.
    let reply = client
        .call(
            remote,
            Message {
                doors: vec![payload],
                ..Message::default()
            },
        )
        .unwrap();
    assert_eq!(reply.doors.len(), 1);
    // The successful send leaves exactly two identifiers above baseline:
    // the export-table pin for the shipped door and the returned copy that
    // came home in the echo — and crucially not a third from the failed
    // attempt.
    assert_eq!(live_ids(client_node.kernel()), baseline + 2);
}

/// Satellite regression: a *reply* frame lost on the wire must release the
/// exports the serving side pinned while staging it (the identifiers a
/// servant minted into the reply), while the caller sees `Comm`.
#[test]
fn lost_reply_releases_server_side_reply_exports() {
    struct DoorMaker;
    impl DoorHandler for DoorMaker {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            let fresh = ctx.server.create_door(Arc::new(Echo))?;
            Ok(Message {
                doors: vec![fresh],
                ..Message::default()
            })
        }
    }

    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("proc-maker", 161);
    let domain = server_node.kernel().create_domain("servants");
    let door = domain.create_door(Arc::new(DoorMaker)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &domain, door)
        .unwrap();
    let path = temp_sock("replyloss");
    let listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 162);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    // Warm call: the reply delivers a freshly minted door as a proxy.
    let warm = client.call(remote, Message::new()).unwrap();
    assert_eq!(warm.doors.len(), 1);
    let server_baseline = live_ids(server_node.kernel());

    // The next reply frame dies in the server's writer: the servant minted
    // and pinned a door for it, and both must be released.
    listener.inject_write_faults(1);
    let err = client.call(remote, Message::new()).unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    wait_until("server reply exports released", || {
        live_ids(server_node.kernel()) == server_baseline
    });

    // The client redials and the service keeps working.
    let again = client.call(remote, Message::new()).unwrap();
    assert_eq!(again.doors.len(), 1);
}

// ---------------------------------------------------------------------------
// Hand-crafted frames: the byzantine peer.
// ---------------------------------------------------------------------------

fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// A wire-format HELLO: `[kind=1][u64 node][u8 has_boot][u64 boot][u16
/// name_len][name]`.
fn hello_payload(node: u64, boot: Option<u64>) -> Vec<u8> {
    let mut p = vec![1u8];
    p.extend_from_slice(&node.to_le_bytes());
    p.push(boot.is_some() as u8);
    p.extend_from_slice(&boot.unwrap_or(0).to_le_bytes());
    p.extend_from_slice(&0u16.to_le_bytes());
    p
}

/// Reads one length-prefixed frame off a raw socket.
fn read_raw_frame(s: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    s.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; u32::from_le_bytes(prefix) as usize];
    s.read_exact(&mut payload)?;
    Ok(payload)
}

/// Satellite regression: frames whose declared counts or lengths disagree
/// with the bytes received are rejected with a typed error — the serving
/// process neither panics nor hangs, and keeps accepting fresh
/// connections.
#[test]
fn malformed_frames_are_rejected_not_trusted() {
    let (server_net, server_node) = echo_process(141);
    let listener = server_net
        .listen_tcp(server_node.id(), "127.0.0.1:0")
        .unwrap();
    let addr = listener.local_addr().to_string();

    // Byzantine frames, each tried on a fresh connection after a valid
    // handshake: a request whose cap count lies far past the frame end, a
    // request cut off mid-payload, trailing garbage past the declared
    // counts, an unknown frame kind, and a length prefix promising bytes
    // that never arrive.
    let lying_caps = {
        let mut p = vec![2u8];
        p.extend_from_slice(&1u64.to_le_bytes()); // frame id
        p.extend_from_slice(&1u32.to_le_bytes()); // one call
        p.extend_from_slice(&1u64.to_le_bytes()); // export
        p.extend_from_slice(&[0u8; 36]); // call id + trace
        p.extend_from_slice(&u32::MAX.to_le_bytes()); // ncaps: a lie
        p
    };
    let truncated = {
        let mut p = vec![2u8];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.truncate(9); // cut mid-header
        p
    };
    let trailing = {
        let mut p = vec![2u8];
        p.extend_from_slice(&1u64.to_le_bytes());
        p.extend_from_slice(&0u32.to_le_bytes()); // zero calls...
        p.push(0xEE); // ...but one stray byte
        p
    };
    let bad_kind = vec![9u8, 0, 0, 0];
    for payload in [&lying_caps, &truncated, &trailing, &bad_kind] {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut bytes = Vec::new();
        put_frame(&mut bytes, &hello_payload(999, None));
        put_frame(&mut bytes, payload);
        s.write_all(&bytes).unwrap();
        let _their_hello = read_raw_frame(&mut s).unwrap();
        // The server must tear the connection down (typed rejection), never
        // hang on it: EOF, not a timeout.
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server sent {} stray bytes", rest.len());
    }

    // A length prefix that promises more than arrives, then EOF: the
    // reader reports the truncation rather than waiting forever.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut bytes = Vec::new();
        put_frame(&mut bytes, &hello_payload(999, None));
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[7u8; 10]); // 10 of the promised 100
        s.write_all(&bytes).unwrap();
        drop(s);
    }

    // The server survived it all and still serves real peers.
    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 142);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), &addr).unwrap();
    let door = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, door, b"still alive");
    assert!(server_net.socket_stats().disconnects >= 4);
}

/// Satellite regression: a peer that disconnects mid-call fails the
/// in-flight calls with `Comm` and releases every export pinned for the
/// frame — nothing hangs, nothing leaks.
#[test]
fn peer_disconnect_mid_call_fails_with_comm_and_releases_pins() {
    // A byzantine peer that completes the handshake, reads one request,
    // and vanishes without replying.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _client_hello = read_raw_frame(&mut s).unwrap();
        let mut hello = Vec::new();
        put_frame(&mut hello, &hello_payload(901, Some(7)));
        s.write_all(&hello).unwrap();
        let _request = read_raw_frame(&mut s).unwrap();
        // Vanish with the call in flight.
        drop(s);
    });

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 151);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), &addr).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let baseline = live_ids(client_node.kernel());
    let carried = client.create_door(Arc::new(Echo)).unwrap();
    let err = client
        .call(
            remote,
            Message {
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    assert_eq!(live_ids(client_node.kernel()), baseline);
    fake.join().unwrap();

    // With the peer gone for good, later calls keep failing with `Comm`
    // (the redial finds nobody listening) rather than wedging.
    let err = client.call(remote, Message::new()).unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
}

/// Servant for the fault sweep: byte 0 echoes, byte 1 mints a fresh door
/// into the reply (so a lost reply frame exercises the serving side's
/// reply-pin rollback).
struct EchoOrMint;

impl DoorHandler for EchoOrMint {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        if msg.bytes.first() == Some(&1) {
            let fresh = ctx.server.create_door(Arc::new(Echo))?;
            return Ok(Message {
                doors: vec![fresh],
                ..Message::default()
            });
        }
        Ok(msg)
    }
}

/// One deterministic run of the socket fault sweep: warm call, injected
/// send-frame fault with a carried door, redial, minted-door round trip,
/// injected reply-frame fault, recovery. Returns the observed taxonomy —
/// one label per step, including the error class and the live-identifier
/// deltas on both sides — so runs under different configurations can be
/// compared verbatim.
fn socket_fault_sweep(fastpath: bool, tag: &str) -> Vec<String> {
    let cfg = NetConfig {
        socket_fastpath: fastpath,
        ..NetConfig::default()
    };
    let server_net = Network::new(cfg);
    let server_node = server_net.add_node_with_id("sweep-server", 171);
    let server_domain = server_node.kernel().create_domain("servants");
    let boot = server_domain.create_door(Arc::new(EchoOrMint)).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &server_domain, boot)
        .unwrap();
    let path = temp_sock(tag);
    let listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(cfg);
    let client_node = client_net.add_node_with_id("sweep-client", 172);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let mut taxonomy = Vec::new();
    let mut step = |label: String| taxonomy.push(label);

    // Step 1: warm round trip.
    roundtrip(&client, remote, b"\0warm");
    step("warm:ok".into());
    let base = live_ids(client_node.kernel());
    let server_base = live_ids(server_node.kernel());

    // Step 2: a send-frame fault with a carried door — Comm, and the pin
    // for the carried copy rolls back (only the original door remains).
    peer.inject_write_faults(1);
    let payload = client.create_door(Arc::new(Echo)).unwrap();
    let carried = client.copy_door(payload).unwrap();
    let err = client
        .call(
            remote,
            Message {
                bytes: vec![0],
                doors: vec![carried],
                ..Message::default()
            },
        )
        .unwrap_err();
    step(format!("sendfault:comm={}", err.is_comm_failure()));
    step(format!(
        "sendfault:pins=+{}",
        live_ids(client_node.kernel()) - base
    ));

    // Step 3: the next call redials and succeeds, shipping the door.
    let reply = client
        .call(
            remote,
            Message {
                bytes: vec![0],
                doors: vec![payload],
                ..Message::default()
            },
        )
        .unwrap();
    step(format!("redial:doors={}", reply.doors.len()));
    for d in reply.doors {
        // `payload` itself was consumed by the call (transferred to the
        // server, which echoed back a proxy); only the copies that came
        // home are ours to delete.
        client.delete_door(d).unwrap();
    }

    // Step 4: minted-door round trip (pins reply-side exports), clean.
    let minted = client
        .call(remote, Message::from_bytes(vec![1]))
        .unwrap()
        .doors;
    step(format!("mint:doors={}", minted.len()));
    for d in minted {
        client.delete_door(d).unwrap();
    }

    // Unref notifications from the deletes above propagate asynchronously;
    // wait for the server's identifier count to stop moving, then take
    // that as the pre-reply-fault snapshot.
    let server_mid = {
        let mut last = live_ids(server_node.kernel());
        let mut stable = 0;
        while stable < 20 {
            std::thread::sleep(Duration::from_millis(10));
            let now = live_ids(server_node.kernel());
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        last
    };
    step(format!(
        "settled:server=+{}",
        server_mid as i64 - server_base as i64
    ));

    // Step 5: a reply-frame fault on a minting call — Comm on the caller,
    // and the server releases the export (and the minted door) it pinned
    // while staging the reply.
    listener.inject_write_faults(1);
    let err = client
        .call(remote, Message::from_bytes(vec![1]))
        .unwrap_err();
    step(format!("replyfault:comm={}", err.is_comm_failure()));
    wait_until("server reply pins released", || {
        live_ids(server_node.kernel()) == server_mid
    });
    step("replyfault:server-pins=+0".into());

    // Step 6: recovery, then the final accounting on both sides.
    roundtrip(&client, remote, b"\0recovered");
    step("recovered:ok".into());
    step(format!(
        "final:client=+{} server=+{}",
        live_ids(client_node.kernel()) as i64 - base as i64,
        live_ids(server_node.kernel()) as i64 - server_mid as i64
    ));
    // Both sides observed exactly the two injected deaths (the counters
    // are bumped by connection threads, so settle them first).
    wait_until("disconnect counters settle", || {
        client_net.socket_stats().disconnects == 2 && server_net.socket_stats().disconnects == 2
    });
    step("disconnects:client=2 server=2".into());
    taxonomy
}

/// Tentpole invariant: the same-thread send fast path is a pure handoff
/// elision. The full fault sweep — send faults, reply faults, redials,
/// carried and minted doors — must produce the identical error taxonomy,
/// pin-release accounting, and disconnect counts with the fast path forced
/// on and forced off.
#[test]
fn fault_sweep_taxonomy_identical_with_fastpath_on_and_off() {
    let on = socket_fault_sweep(true, "sweep-on");
    let off = socket_fault_sweep(false, "sweep-off");
    assert_eq!(
        on, off,
        "fast path changed observable failure semantics:\n on={on:#?}\noff={off:#?}"
    );
    // And the sweep itself saw what it was designed to see.
    assert!(on.contains(&"sendfault:comm=true".to_string()), "{on:?}");
    assert!(on.contains(&"replyfault:comm=true".to_string()), "{on:?}");
    assert!(on.contains(&"sendfault:pins=+1".to_string()), "{on:?}");
}

/// Satellite regression: sends racing a link that died mid-burst run their
/// failure cleanups immediately from the dead check — they must not queue
/// behind the writer lock of a corpse. Every concurrent caller settles
/// with `Comm` (the byzantine peer is gone for good), nothing hangs, and
/// every export pinned across the burst rolls back.
#[test]
fn dead_link_burst_fails_fast_and_releases_pins() {
    // A byzantine peer: handshake, read exactly one request, vanish.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _client_hello = read_raw_frame(&mut s).unwrap();
        let mut hello = Vec::new();
        put_frame(&mut hello, &hello_payload(902, Some(7)));
        s.write_all(&hello).unwrap();
        let _request = read_raw_frame(&mut s).unwrap();
        drop(s);
        // The listener drops here too: every redial finds nobody home.
    });

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 181);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_tcp(client_node.id(), &addr).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let baseline = live_ids(client_node.kernel());

    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..8u8 {
            let client = &client;
            let client_node = &client_node;
            s.spawn(move || {
                // Each caller ships a carried door so a leak is visible.
                let payload = client.create_door(Arc::new(Echo)).unwrap();
                let err = client
                    .call(
                        remote,
                        Message {
                            bytes: vec![t],
                            doors: vec![payload],
                            ..Message::default()
                        },
                    )
                    .unwrap_err();
                assert!(
                    err.is_comm_failure(),
                    "thread {t}: expected Comm, got {err:?}"
                );
                let _ = client_node; // pins checked after the scope joins
            });
        }
    });
    fake.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "burst took {:?} — dead-link sends are queueing instead of failing fast",
        started.elapsed()
    );
    // All carried copies were consumed and their pins rolled back.
    wait_until("burst pins released", || {
        live_ids(client_node.kernel()) == baseline
    });
}

/// Satellite regression: shippers racing a dead connection must produce
/// exactly one redial per observed death — never one connection (and one
/// writer thread) per racer — and the slot lock is never held across the
/// blocking dial, so the stampede itself makes progress. Hammered across
/// several injected-fault rounds.
#[test]
fn redial_is_single_flight_under_concurrent_hammer() {
    let (server_net, server_node) = echo_process(141);
    let path = temp_sock("redial");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", 142);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    roundtrip(&client, remote, b"warm");
    assert_eq!(peer.redials(), 0, "a healthy link never redials");

    const ROUNDS: u64 = 5;
    const THREADS: u8 = 12;
    for round in 1..=ROUNDS {
        // One armed fault kills the connection on the next write...
        peer.inject_write_faults(1);
        let _ = client.call(remote, Message::from_bytes(vec![0]));
        wait_until("client disconnect count", || {
            client_net.socket_stats().disconnects == round
        });
        // ...then a stampede races the lazy redial. Calls overlapping the
        // corpse may fail with Comm; each thread retries until the link is
        // back, and every thread must get there.
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let client = &client;
                s.spawn(move || {
                    for _ in 0..500 {
                        match client.call(remote, Message::from_bytes(vec![t])) {
                            Ok(reply) => {
                                assert_eq!(reply.bytes, vec![t]);
                                return;
                            }
                            Err(e) => {
                                assert!(e.is_comm_failure(), "only Comm expected, got {e:?}")
                            }
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    panic!("link never came back in round {round}");
                });
            }
        });
        assert_eq!(
            peer.redials(),
            round,
            "exactly one dial per death, however many shippers race it"
        );
    }
    roundtrip(&client, remote, b"after the storm");
    assert_eq!(peer.redials(), ROUNDS);
}

// ---------------------------------------------------------------------------
// Connection threads: leader/followers over one-shot readiness.
// ---------------------------------------------------------------------------

/// Runs `phase` on a thread of its own and fails the test if it has not
/// finished by `limit` — a protocol hang must fail, not wedge the suite.
/// The thread is not joined: joining a hung phase would hang the test.
fn within<T: Send + 'static>(
    what: &str,
    limit: Duration,
    phase: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(phase());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => v,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not finish within {limit:?}: a reply was never read")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// Echoes, and on a call whose first byte is 1 first calls back through
/// the client door registered by a call carrying one.
struct EchoOrCallBack {
    client: parking_lot::Mutex<Option<spring_kernel::DoorId>>,
}

impl DoorHandler for EchoOrCallBack {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        if let Some(&door) = msg.doors.first() {
            *self.client.lock() = Some(door);
            return Ok(Message::new());
        }
        if msg.bytes.first() == Some(&1) {
            let door = self.client.lock().ok_or(DoorError::InvalidDoor)?;
            let nested = ctx.server.call(door, Message::from_bytes(msg.bytes))?;
            return Ok(Message::from_bytes(nested.bytes));
        }
        Ok(msg)
    }
}

/// Many null calls over one UDS connection, sequential and then from four
/// threads at once, with the server calling back into the client on every
/// tenth call, then from sixteen connections at once: whichever thread
/// reads a frame — a caller reading its own reply or a follower — every
/// reply must reach its caller. Each phase runs under a deadline, so a
/// reply consumed by one thread while another blocks reading for it fails
/// the test instead of hanging it.
#[test]
fn null_calls_and_callbacks_never_hang() {
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("stress-server", 195);
    let domain = server_node.kernel().create_domain("servants");
    let boot = domain
        .create_door(Arc::new(EchoOrCallBack {
            client: parking_lot::Mutex::new(None),
        }))
        .unwrap();
    server_net
        .set_bootstrap(server_node.id(), &domain, boot)
        .unwrap();
    let path = temp_sock("stress");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("stress-client", 196);
    let client = Arc::new(client_node.kernel().create_domain("app"));
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let echo = client.create_door(Arc::new(Echo)).unwrap();
    client
        .call(
            remote,
            Message {
                doors: vec![echo],
                ..Message::default()
            },
        )
        .unwrap();

    let call = move |client: &spring_kernel::Domain, i: u32| {
        let tag = u8::from(i.is_multiple_of(10));
        let body = [tag, (i >> 8) as u8, i as u8];
        let reply = client
            .call(remote, Message::from_bytes(body.to_vec()))
            .unwrap();
        assert_eq!(reply.bytes, body, "call {i}");
    };
    let limit = Duration::from_secs(120);
    let c = client.clone();
    within("10 000 sequential calls", limit, move || {
        for i in 0..10_000 {
            call(&c, i);
        }
    });
    // In lockstep rounds: every round ends with the link idle, so a caller
    // left reading for a reply that another thread already consumed is not
    // rescued by the next frame — it hangs, and the deadline fails it.
    let c = client.clone();
    within("4 threads x 2 500 concurrent calls", limit, move || {
        let round = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (c, round) = (&c, &round);
                s.spawn(move || {
                    for i in 0..2_500 {
                        call(c, t * 2_500 + i);
                        round.wait();
                    }
                });
            }
        });
    });
    // Many threads per CPU: callers are often preempted right after their
    // send, so their replies race the followers for the read side.
    within(
        "16 connections x 1 500 sequential calls",
        limit,
        move || {
            std::thread::scope(|s| {
                for t in 0..16 {
                    let path = &path;
                    s.spawn(move || {
                        let net = Network::new(NetConfig::default());
                        let node = net.add_node_with_id("stress-client", 1_000 + t);
                        let client = node.kernel().create_domain("app");
                        let peer = net.connect_uds(node.id(), path).unwrap();
                        let remote = peer.bootstrap_door(&client).unwrap();
                        for i in 0..1_500u16 {
                            roundtrip(&client, remote, &i.to_le_bytes());
                        }
                    });
                }
            });
        },
    );
    drop(peer);
}

/// Boolean flags that test threads raise and wait on; each wait is bounded,
/// so a hang fails the test instead of wedging it.
#[derive(Default)]
struct Flags {
    raised: std::sync::Mutex<u32>,
    cv: std::sync::Condvar,
}

impl Flags {
    fn raise(&self, flag: u32) {
        *self.raised.lock().unwrap() |= flag;
        self.cv.notify_all();
    }

    /// Whether `flag` is raised within ten seconds.
    fn wait(&self, flag: u32) -> bool {
        let raised = self.raised.lock().unwrap();
        let limit = Duration::from_secs(10);
        let (raised, _) = self
            .cv
            .wait_timeout_while(raised, limit, |r| *r & flag == 0)
            .unwrap();
        *raised & flag != 0
    }
}

/// Live threads of this process whose name is exactly `name`.
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// Two servants that can only finish together: `A` blocks until `B`'s
/// request has arrived over the same connection. A request is served on
/// the thread that read it only once another follower is watching the
/// socket, so `B` is read while `A` blocks. Idle followers reap down to
/// one, never zero, and a dead connection leaves no connection threads
/// and an empty dispatch queue.
#[test]
fn a_follower_reads_while_another_serves_and_threads_reap() {
    const A_SERVED: u32 = 1;
    const B_ARRIVED: u32 = 2;
    struct WaitsForB(Arc<Flags>);
    struct ArrivesAsB(Arc<Flags>);
    impl DoorHandler for WaitsForB {
        fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            self.0.raise(A_SERVED);
            if !self.0.wait(B_ARRIVED) {
                return Err(DoorError::Comm("B's request was never read".into()));
            }
            Ok(msg)
        }
    }
    impl DoorHandler for ArrivesAsB {
        fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            self.0.raise(B_ARRIVED);
            Ok(msg)
        }
    }
    /// Hands out the two servants' doors.
    struct Doors(Vec<spring_kernel::DoorId>);
    impl DoorHandler for Doors {
        fn invoke(&self, ctx: &CallCtx, _msg: Message) -> Result<Message, DoorError> {
            let doors = self
                .0
                .iter()
                .map(|&d| ctx.server.copy_door(d))
                .collect::<Result<_, _>>()?;
            Ok(Message {
                doors,
                ..Message::default()
            })
        }
    }

    const SERVER: u64 = 191;
    const CLIENT: u64 = 192;
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("rendezvous", SERVER);
    let domain = server_node.kernel().create_domain("servants");
    let meet = Arc::new(Flags::default());
    let a = domain
        .create_door(Arc::new(WaitsForB(meet.clone())))
        .unwrap();
    let b = domain
        .create_door(Arc::new(ArrivesAsB(meet.clone())))
        .unwrap();
    let boot = domain.create_door(Arc::new(Doors(vec![a, b]))).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &domain, boot)
        .unwrap();
    let path = temp_sock("rendezvous");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("client", CLIENT);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let doors = client.call(remote, Message::new()).unwrap().doors;
    let (door_a, door_b) = (doors[0], doors[1]);

    let client = Arc::new(client);
    let c = client.clone();
    within("A and B", Duration::from_secs(60), move || {
        std::thread::scope(|s| {
            let first = s.spawn(|| c.call(door_a, Message::from_bytes(b"A".to_vec())));
            // B only once A is being served, so A is the one blocking.
            assert!(meet.wait(A_SERVED), "A was never served");
            let second = c.call(door_b, Message::from_bytes(b"B".to_vec()));
            assert_eq!(second.unwrap().bytes, b"B");
            assert_eq!(first.join().unwrap().unwrap().bytes, b"A");
        });
    });

    // Serving A and B took two server threads at once, plus a watcher.
    let server_threads = format!("spring-sock-{CLIENT}");
    let client_threads = format!("spring-sock-{SERVER}");
    assert!(threads_named(&server_threads) >= 2);
    // Idle followers reap themselves (after 500 ms each), down to the last
    // one watching, which stays through further idle periods.
    wait_until("idle server followers reaped", || {
        threads_named(&server_threads) == 1
    });
    std::thread::sleep(Duration::from_millis(1_500));
    assert_eq!(threads_named(&server_threads), 1, "server side");
    assert!(threads_named(&client_threads) >= 1, "client side");
    roundtrip(&client, door_b, b"after idle");

    // Kill the link from the client side; the server sees the EOF.
    peer.inject_write_faults(1);
    let err = client.call(door_b, Message::new()).unwrap_err();
    assert!(err.is_comm_failure(), "expected Comm, got {err:?}");
    wait_until("connection threads gone", || {
        threads_named(&server_threads) == 0 && threads_named(&client_threads) == 0
    });
    // The depth gauge is process-wide, and other tests in this binary may
    // be mid-call; it still reads zero whenever nothing is being served.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server_node.kernel().stats().dispatch_pool_depth != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "dispatch depth never returned to 0"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A caller waiting for its reply finds an unrelated request from the peer
/// on the socket first. It must leave that request to a connection thread:
/// here the caller holds a lock across its call and the request's servant
/// takes the same lock, so serving it on the caller's thread would
/// deadlock the caller on itself.
#[test]
fn a_caller_leaves_an_unrelated_request_to_a_connection_thread() {
    const STALLING: u32 = 1;
    const ENTERED: u32 = 2;
    const RELEASE: u32 = 4;
    /// Keeps the door a call carries; any other call blocks until
    /// released, so a request the server sends meanwhile reaches the
    /// client ahead of this call's reply.
    struct Stall {
        client: parking_lot::Mutex<Option<spring_kernel::DoorId>>,
        flags: Arc<Flags>,
    }
    impl DoorHandler for Stall {
        fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            if let Some(&door) = msg.doors.first() {
                *self.client.lock() = Some(door);
                return Ok(Message::new());
            }
            self.flags.raise(STALLING);
            if !self.flags.wait(RELEASE) {
                return Err(DoorError::Comm("never released".into()));
            }
            Ok(msg)
        }
    }
    /// Takes the lock the caller holds across its call.
    struct TakesLock {
        lock: Arc<parking_lot::Mutex<()>>,
        flags: Arc<Flags>,
    }
    impl DoorHandler for TakesLock {
        fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            self.flags.raise(ENTERED);
            let _held = self.lock.lock();
            Ok(msg)
        }
    }

    let flags = Arc::new(Flags::default());
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("stall-server", 193);
    let domain = Arc::new(server_node.kernel().create_domain("servants"));
    let stall = Arc::new(Stall {
        client: parking_lot::Mutex::new(None),
        flags: flags.clone(),
    });
    let boot = domain.create_door(stall.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &domain, boot)
        .unwrap();
    let path = temp_sock("stall");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("stall-client", 194);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();
    let lock = Arc::new(parking_lot::Mutex::new(()));
    let takes_lock = client
        .create_door(Arc::new(TakesLock {
            lock: lock.clone(),
            flags: flags.clone(),
        }))
        .unwrap();
    client
        .call(
            remote,
            Message {
                doors: vec![takes_lock],
                ..Message::default()
            },
        )
        .unwrap();
    let to_client = stall.client.lock().unwrap();

    within(
        "the caller and the unrelated request",
        Duration::from_secs(60),
        move || {
            std::thread::scope(|s| {
                let caller = s.spawn(|| {
                    let _held = lock.lock();
                    client.call(remote, Message::from_bytes(b"held".to_vec()))
                });
                assert!(flags.wait(STALLING), "the caller's request never arrived");
                let unrelated =
                    s.spawn(|| domain.call(to_client, Message::from_bytes(b"unrelated".to_vec())));
                assert!(
                    flags.wait(ENTERED),
                    "the unrelated request was never served"
                );
                flags.raise(RELEASE);
                assert_eq!(caller.join().unwrap().unwrap().bytes, b"held");
                assert_eq!(unrelated.join().unwrap().unwrap().bytes, b"unrelated");
            });
        },
    );
    drop(peer);
}

/// Thirty-four calls at once over one connection to a servant that blocks
/// until released: thirty-two are served at once, the cap, and the two
/// requests read beyond it are queued. Once the servants are released,
/// the queued requests are served too, and the connection never ran more
/// than the cap plus one watching follower.
#[test]
fn requests_queued_at_the_cap_are_served() {
    const CAP: usize = 32;
    const CALLS: usize = CAP + 2;
    const RELEASE: u32 = 1;
    struct Hold {
        entered: AtomicU64,
        flags: Arc<Flags>,
    }
    impl DoorHandler for Hold {
        fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
            self.entered.fetch_add(1, Ordering::SeqCst);
            if !self.flags.wait(RELEASE) {
                return Err(DoorError::Comm("never released".into()));
            }
            Ok(msg)
        }
    }

    const SERVER: u64 = 197;
    const CLIENT: u64 = 198;
    let flags = Arc::new(Flags::default());
    let server_net = Network::new(NetConfig::default());
    let server_node = server_net.add_node_with_id("cap-server", SERVER);
    let domain = server_node.kernel().create_domain("servants");
    let hold = Arc::new(Hold {
        entered: AtomicU64::new(0),
        flags: flags.clone(),
    });
    let boot = domain.create_door(hold.clone()).unwrap();
    server_net
        .set_bootstrap(server_node.id(), &domain, boot)
        .unwrap();
    let path = temp_sock("cap");
    let _listener = server_net.listen_uds(server_node.id(), &path).unwrap();

    let client_net = Network::new(NetConfig::default());
    let client_node = client_net.add_node_with_id("cap-client", CLIENT);
    let client = client_node.kernel().create_domain("app");
    let peer = client_net.connect_uds(client_node.id(), &path).unwrap();
    let remote = peer.bootstrap_door(&client).unwrap();

    let server_threads = format!("spring-sock-{CLIENT}");
    within("calls beyond the cap", Duration::from_secs(60), move || {
        std::thread::scope(|s| {
            let calls: Vec<_> = (0..CALLS)
                .map(|i| {
                    let client = &client;
                    s.spawn(move || client.call(remote, Message::from_bytes(vec![i as u8])))
                })
                .collect();
            wait_until("the cap's servants entered", || {
                hold.entered.load(Ordering::SeqCst) == CAP as u64
            });
            // Every request is read; the two beyond the cap wait queued.
            wait_until("every request read", || {
                server_node.kernel().stats().dispatch_pool_depth >= CALLS as u64
            });
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(hold.entered.load(Ordering::SeqCst), CAP as u64);
            assert!(threads_named(&server_threads) <= CAP + 1);
            flags.raise(RELEASE);
            for (i, call) in calls.into_iter().enumerate() {
                assert_eq!(call.join().unwrap().unwrap().bytes, [i as u8]);
            }
        });
    });
    drop(peer);
}
