//! `peer` — one OS process on the socket transport, for multi-process
//! tests and the E16 benchmark.
//!
//! Serve mode publishes a bootstrap door speaking a tiny op protocol and
//! blocks forever (the parent kills the process when done):
//!
//! ```text
//! peer serve --node N (--uds PATH | --tcp ADDR)
//! ```
//!
//! It prints `READY <addr>` on stdout once the listener is bound — for TCP
//! that line carries the actual ephemeral address.
//!
//! Drive mode dials a serving peer and runs the cross-process acceptance
//! sweep (echo calls, a pipelined burst, door round-trips, an at-most-once
//! retry across an injected reply loss, and leak checks on both sides),
//! exiting nonzero with a message on the first failure:
//!
//! ```text
//! peer drive --node N (--uds PATH | --tcp ADDR) --calls K [--kill]
//! ```
//!
//! With `--kill` it instead asks the server to die mid-call and checks the
//! in-flight call fails with a communications error.
//!
//! The op protocol, chosen by the first payload byte: 0 echo (bytes and
//! doors come straight back), 1 count (returns a running counter,
//! deduplicated by the envelope's `CallId` nonce), 2 mint a door into the
//! reply, 3 report the serving kernel's live identifier count, 4 sleep
//! `u64` ms then echo, 5 arm one injected write fault on the listener (the
//! next reply frame dies), 6 exit the process mid-call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spring_kernel::{CallCtx, CallId, DoorError, DoorHandler, DoorId, Kernel, Message};
use spring_net::{NetConfig, Network, SocketListener, SocketPeer};

const OP_ECHO: u8 = 0;
const OP_COUNT: u8 = 1;
const OP_MAKE_DOOR: u8 = 2;
const OP_LIVE_IDS: u8 = 3;
const OP_SLOW: u8 = 4;
const OP_ARM_REPLY_FAULT: u8 = 5;
const OP_DIE: u8 = 6;

fn fail(msg: &str) -> ! {
    eprintln!("peer: {msg}");
    std::process::exit(1);
}

fn live_ids(kernel: &Kernel) -> u64 {
    let s = kernel.stats();
    s.ids_issued - s.ids_deleted
}

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

struct PeerServant {
    kernel: Kernel,
    count: AtomicU64,
    /// Reply cache for `OP_COUNT`: nonce → the value this logical call
    /// counted. A retry of a nonce whose first attempt already executed
    /// gets the recorded reply instead of a second execution — at-most-once
    /// across real processes, keyed by the envelope the socket carried.
    seen: Mutex<HashMap<u64, u64>>,
    listener: Mutex<Option<Arc<SocketListener>>>,
}

impl DoorHandler for PeerServant {
    fn invoke(&self, ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let op = *msg.bytes.first().unwrap_or(&OP_ECHO);
        match op {
            OP_COUNT => {
                let id = msg.call;
                if id.is_some() {
                    let mut seen = self.seen.lock().unwrap();
                    let counted = *seen
                        .entry(id.nonce)
                        .or_insert_with(|| self.count.fetch_add(1, Ordering::Relaxed) + 1);
                    Ok(Message::from_bytes(counted.to_le_bytes().to_vec()))
                } else {
                    let counted = self.count.fetch_add(1, Ordering::Relaxed) + 1;
                    Ok(Message::from_bytes(counted.to_le_bytes().to_vec()))
                }
            }
            OP_MAKE_DOOR => {
                let fresh = ctx.server.create_door(Arc::new(Echo))?;
                Ok(Message {
                    doors: vec![fresh],
                    ..Message::default()
                })
            }
            OP_LIVE_IDS => Ok(Message::from_bytes(
                live_ids(&self.kernel).to_le_bytes().to_vec(),
            )),
            OP_SLOW => {
                let ms = msg
                    .bytes
                    .get(1..9)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(10);
                std::thread::sleep(Duration::from_millis(ms));
                Ok(msg)
            }
            OP_ARM_REPLY_FAULT => {
                // Faults apply to the next N reply frames — starting with
                // the reply to THIS call, so callers arm N and expect their
                // own reply to be casualty number one.
                let n = *msg.bytes.get(1).unwrap_or(&1) as u64;
                match self.listener.lock().unwrap().as_ref() {
                    Some(l) => l.inject_write_faults(n),
                    None => return Err(DoorError::Handler("no listener to arm".into())),
                }
                Ok(Message::new())
            }
            OP_DIE => {
                // Exit without replying: the dialer must see the in-flight
                // call fail with a communications error, not hang.
                std::process::exit(9);
            }
            _ => Ok(msg),
        }
    }
}

enum Addr {
    Uds(String),
    Tcp(String),
}

struct Args {
    mode: String,
    node: u64,
    addr: Addr,
    calls: u64,
    kill: bool,
    /// Disable the same-thread send fast path (DESIGN.md §5.15), forcing
    /// every frame through the writer thread — for A/B runs proving the
    /// fast path changes no observable semantics.
    no_fastpath: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mode = argv.get(1).cloned().unwrap_or_default();
    if mode != "serve" && mode != "drive" {
        fail("usage: peer (serve|drive) --node N (--uds PATH | --tcp ADDR) [--calls K] [--kill]");
    }
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let node = flag("--node")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| fail("--node N required"));
    let addr = match (flag("--uds"), flag("--tcp")) {
        (Some(p), None) => Addr::Uds(p),
        (None, Some(a)) => Addr::Tcp(a),
        _ => fail("exactly one of --uds PATH or --tcp ADDR required"),
    };
    Args {
        mode,
        node,
        addr,
        calls: flag("--calls").and_then(|v| v.parse().ok()).unwrap_or(1000),
        kill: argv.iter().any(|a| a == "--kill"),
        no_fastpath: argv.iter().any(|a| a == "--no-fastpath"),
    }
}

fn net_config(args: &Args) -> NetConfig {
    NetConfig {
        socket_fastpath: !args.no_fastpath,
        ..NetConfig::default()
    }
}

fn serve(args: Args) -> ! {
    let net = Network::new(net_config(&args));
    let node = net.add_node_with_id("peer-serve", args.node);
    let domain = node.kernel().create_domain("servants");
    let servant = Arc::new(PeerServant {
        kernel: node.kernel().clone(),
        count: AtomicU64::new(0),
        seen: Mutex::new(HashMap::new()),
        listener: Mutex::new(None),
    });
    let door = domain
        .create_door(servant.clone())
        .unwrap_or_else(|e| fail(&format!("create_door: {e}")));
    net.set_bootstrap(node.id(), &domain, door)
        .unwrap_or_else(|e| fail(&format!("set_bootstrap: {e}")));

    let (listener, shown) = match &args.addr {
        Addr::Uds(path) => {
            let l = net
                .listen_uds(node.id(), path)
                .unwrap_or_else(|e| fail(&format!("listen_uds {path}: {e}")));
            (l, path.clone())
        }
        Addr::Tcp(addr) => {
            let l = net
                .listen_tcp(node.id(), addr)
                .unwrap_or_else(|e| fail(&format!("listen_tcp {addr}: {e}")));
            let actual = l.local_addr().to_string();
            (l, actual)
        }
    };
    *servant.listener.lock().unwrap() = Some(listener);

    // The parent synchronizes on this line (and reads the ephemeral TCP
    // address out of it), then kills the process when the run is over.
    println!("READY {shown}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn connect(net: &Network, node: spring_kernel::NodeId, addr: &Addr) -> Arc<SocketPeer> {
    let res = match addr {
        Addr::Uds(path) => net.connect_uds(node, path),
        Addr::Tcp(a) => net.connect_tcp(node, a),
    };
    res.unwrap_or_else(|e| fail(&format!("connect: {e}")))
}

fn call_op(
    domain: &spring_kernel::Domain,
    door: DoorId,
    bytes: Vec<u8>,
) -> Result<Message, DoorError> {
    domain.call(door, Message::from_bytes(bytes))
}

fn expect_u64(reply: &Message, what: &str) -> u64 {
    reply
        .bytes
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or_else(|| fail(&format!("{what}: short reply")))
}

fn drive(args: Args) {
    let net = Network::new(net_config(&args));
    let node = net.add_node_with_id("peer-drive", args.node);
    let domain = node.kernel().create_domain("app");
    let peer = connect(&net, node.id(), &args.addr);
    let door = peer
        .bootstrap_door(&domain)
        .unwrap_or_else(|e| fail(&format!("bootstrap_door: {e}")));

    if args.kill {
        // Warm call, then ask the server to exit mid-call: the in-flight
        // call must fail with a communications error, promptly.
        call_op(&domain, door, vec![OP_ECHO, 1]).unwrap_or_else(|e| fail(&format!("warm: {e}")));
        match call_op(&domain, door, vec![OP_DIE]) {
            Err(e) if e.is_comm_failure() => {
                println!("kill: in-flight call failed with Comm as required");
                return;
            }
            Err(e) => fail(&format!("kill: expected Comm, got {e:?}")),
            Ok(_) => fail("kill: call to a dead process somehow succeeded"),
        }
    }

    // Door round-trips first (they intentionally pin proxy/export state on
    // both sides), then leak baselines, then the door-free sweep which must
    // leave both processes exactly at baseline.
    let minted = call_op(&domain, door, vec![OP_MAKE_DOOR])
        .unwrap_or_else(|e| fail(&format!("make_door: {e}")));
    let proxy = *minted
        .doors
        .first()
        .unwrap_or_else(|| fail("make_door: no door in reply"));
    let echoed = domain
        .call(proxy, Message::from_bytes(b"via minted door".to_vec()))
        .unwrap_or_else(|e| fail(&format!("minted door call: {e}")));
    if echoed.bytes != b"via minted door" {
        fail("minted door call: wrong payload");
    }
    domain
        .delete_door(proxy)
        .unwrap_or_else(|e| fail(&format!("delete minted proxy: {e}")));

    let local_baseline = live_ids(node.kernel());
    let remote_baseline = expect_u64(
        &call_op(&domain, door, vec![OP_LIVE_IDS])
            .unwrap_or_else(|e| fail(&format!("live_ids: {e}"))),
        "live_ids",
    );

    // Sequential null calls.
    let sequential = args.calls / 2;
    for i in 0..sequential {
        let payload = vec![OP_ECHO, i as u8, (i >> 8) as u8];
        let reply = call_op(&domain, door, payload.clone())
            .unwrap_or_else(|e| fail(&format!("echo call {i}: {e}")));
        if reply.bytes != payload {
            fail(&format!("echo call {i}: wrong payload"));
        }
    }

    // Pipelined burst: concurrent callers overlap on the link, and frames
    // queued behind a busy writer leave in one vectored write. Every thread calls through its own copy of the proxy door.
    let threads = 8u64;
    let per_thread = (args.calls - sequential).div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let d = domain.clone();
            let tdoor = domain
                .copy_door(door)
                .unwrap_or_else(|e| fail(&format!("copy door: {e}")));
            s.spawn(move || {
                for i in 0..per_thread {
                    let payload = vec![OP_ECHO, t as u8, i as u8];
                    let reply = call_op(&d, tdoor, payload.clone())
                        .unwrap_or_else(|e| fail(&format!("burst call {t}/{i}: {e}")));
                    if reply.bytes != payload {
                        fail(&format!("burst call {t}/{i}: wrong payload"));
                    }
                }
                d.delete_door(tdoor)
                    .unwrap_or_else(|e| fail(&format!("delete burst door: {e}")));
            });
        }
    });

    // At-most-once across a lost reply: arm one reply-frame fault, issue a
    // counted call, watch it fail with Comm, retry with the SAME nonce,
    // and check the server executed the count exactly once.
    let count_at = |id: CallId| -> Result<u64, DoorError> {
        let mut msg = Message::from_bytes(vec![OP_COUNT]);
        msg.call = id;
        domain.call(door, msg).map(|r| expect_u64(&r, "count"))
    };
    let n0 = count_at(CallId::NONE).unwrap_or_else(|e| fail(&format!("count: {e}")));
    // Arm two reply faults: the first eats the arming call's own reply
    // (so that call must itself fail with Comm), the second eats the
    // counted call's reply on the redialed connection.
    match call_op(&domain, door, vec![OP_ARM_REPLY_FAULT, 2]) {
        Err(e) if e.is_comm_failure() => {}
        Err(e) => fail(&format!("arm fault: expected Comm, got {e:?}")),
        Ok(_) => fail("arm fault: its own reply should have been dropped"),
    }
    let retry_id = CallId {
        nonce: spring_kernel::callid::next_nonce(),
        attempt: 1,
        deadline_micros: 0,
    };
    match count_at(retry_id) {
        Err(e) if e.is_comm_failure() => {}
        Err(e) => fail(&format!("lost-reply call: expected Comm, got {e:?}")),
        Ok(_) => fail("lost-reply call unexpectedly survived the injected fault"),
    }
    let retried = count_at(CallId {
        attempt: 2,
        ..retry_id
    })
    .unwrap_or_else(|e| fail(&format!("retry: {e}")));
    if retried != n0 + 1 {
        fail(&format!(
            "retry: counted {retried}, expected {} (first attempt must have executed once)",
            n0 + 1
        ));
    }
    let n2 = count_at(CallId::NONE).unwrap_or_else(|e| fail(&format!("count after retry: {e}")));
    if n2 != n0 + 2 {
        fail(&format!(
            "dedup broken: counter at {n2} after retry, expected {} — the retried nonce \
             must not execute twice",
            n0 + 2
        ));
    }

    // Zero leaked doors, both sides.
    let local_now = live_ids(node.kernel());
    if local_now != local_baseline {
        fail(&format!(
            "local door leak: {local_now} live ids vs baseline {local_baseline}"
        ));
    }
    let remote_now = expect_u64(
        &call_op(&domain, door, vec![OP_LIVE_IDS])
            .unwrap_or_else(|e| fail(&format!("live_ids: {e}"))),
        "live_ids",
    );
    if remote_now != remote_baseline {
        fail(&format!(
            "server door leak: {remote_now} live ids vs baseline {remote_baseline}"
        ));
    }

    let stats = net.socket_stats();
    // Process-wide hot-path counters: with the fast path enabled the
    // uncontended sequential calls must have taken it; disabled, not one
    // send may bypass the writer thread.
    let k = node.kernel().stats();
    if args.no_fastpath && k.fastpath_sends != 0 {
        fail(&format!(
            "fastpath disabled but {} sends took it",
            k.fastpath_sends
        ));
    }
    if !args.no_fastpath && k.fastpath_sends == 0 {
        fail("fastpath enabled but no send ever took it");
    }
    println!(
        "drive: ok — {} calls ({sequential} sequential + {threads}x{per_thread} burst), \
         {} frames sent / {} received, {} disconnect(s), fastpath_sends={}, \
         zero leaked doors both sides",
        args.calls, stats.frames_sent, stats.frames_received, stats.disconnects, k.fastpath_sends
    );
}

fn main() {
    let args = parse_args();
    if args.mode == "serve" {
        serve(args)
    } else {
        drive(args)
    }
}
