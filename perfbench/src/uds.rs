//! The socket workloads: a load process calling a serving process over
//! Unix-domain sockets.
//!
//! The serving process (`perfbench serve`) exports `flatbench::flat_ping`
//! under the singleton subcontract, plus a stats door, and ships both to a
//! client by marshalling them into the reply of its bootstrap door. The
//! bootstrap door also echoes raw byte payloads, which carries the large
//! frames of `uds_mixed`. The servant times its own body into a
//! histogram the client reads through the stats door, which splits peer
//! work from wire and OS time.

use std::io::{BufRead as _, BufReader, Read as _};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_bench::fixtures::ctx_on;
use spring_bench::flatbench::{self, flat_ping_ops, FlatPing, FlatPingServant, FlatPingSkeleton};
use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, DoorError, DoorHandler, DoorId, Message, StatsSnapshot};
use spring_net::{NetConfig, Network, Node, SocketPeer, SocketStatsSnapshot};
use spring_services::{StatsClient, StatsServant, STATS_TYPE};
use spring_subcontracts::Singleton;
use spring_trace::now_ns;
use subcontract::{
    decode_reply_status, get_obj_header, unmarshal_object, Dispatch, DomainCtx, ReplyStatus,
    ServerCtx, ServerSubcontract, SpringObj,
};

use crate::metrics::{self, ratio, Rng};
use crate::procstat::{self, ProcSample};
use crate::traced::{self, LayerTimes};
use crate::{put_trace_layers, timed_run, Args, EndToEnd, Outcome};

/// Bootstrap-door operations (first payload byte).
const OP_OBJECTS: u8 = 0;
const OP_ECHO: u8 = 1;

/// Histogram the servant records its body time into, read through the
/// stats door.
const HANDLER_KEY: u64 = 0x7065_7266_6265_6e63;
const HANDLER_OP: &str = "perfbench.handler";

/// Node identifiers: the server, then one per client connection.
const SERVER_NODE: u64 = 7_000;

/// Size of `uds_mixed`'s large echoes, each way.
const LARGE: usize = 16 * 1024;

// ---------------------------------------------------------------- server

struct PingServant;

impl FlatPingServant for PingServant {
    fn ping(&self, token: u64) -> Result<u64, flatbench::FlatPingError> {
        Ok(token.wrapping_add(1))
    }

    fn echo_sample(
        &self,
        s: flatbench::Sample,
    ) -> Result<flatbench::Sample, flatbench::FlatPingError> {
        Ok(s)
    }

    fn sink_sample(&self, _s: flatbench::Sample) -> Result<(), flatbench::FlatPingError> {
        Ok(())
    }
}

/// Times the skeleton (unmarshal, servant, marshal) of every call.
struct TimedDispatch {
    inner: Arc<dyn Dispatch>,
    hist: Arc<spring_trace::Histogram>,
}

impl Dispatch for TimedDispatch {
    fn type_info(&self) -> &'static subcontract::TypeInfo {
        self.inner.type_info()
    }

    fn dispatch(
        &self,
        sctx: &ServerCtx,
        op: u32,
        args: &mut CommBuffer,
        reply: &mut CommBuffer,
    ) -> subcontract::Result<()> {
        let t0 = now_ns();
        let r = self.inner.dispatch(sctx, op, args, reply);
        self.hist.record(now_ns() - t0);
        r
    }
}

struct Boot {
    flat: SpringObj,
    stats: SpringObj,
}

impl DoorHandler for Boot {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        match msg.bytes.first() {
            Some(&OP_OBJECTS) => {
                let mut buf = CommBuffer::new();
                let shipped = self
                    .flat
                    .marshal_copy(&mut buf)
                    .and_then(|()| self.stats.marshal_copy(&mut buf));
                shipped.map_err(|e| DoorError::Handler(format!("marshal: {e}")))?;
                Ok(buf.into_message())
            }
            Some(&OP_ECHO) => Ok(msg),
            _ => Err(DoorError::Handler("unknown bootstrap op".into())),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench serve: {msg}");
    std::process::exit(1);
}

/// `perfbench serve --uds PATH`: serves until standard input closes.
pub fn serve(argv: &[String]) -> ! {
    let path = argv
        .iter()
        .position(|a| a == "--uds")
        .and_then(|i| argv.get(i + 1))
        .unwrap_or_else(|| die("--uds PATH required"));
    let net = Network::new(NetConfig::default());
    let node = net.add_node_with_id("perfbench-server", SERVER_NODE);
    let ctx = ctx_on(node.kernel(), "servants");
    let singleton = Singleton::new();
    let flat = singleton
        .export(
            &ctx,
            Arc::new(TimedDispatch {
                inner: FlatPingSkeleton::new(Arc::new(PingServant)),
                hist: spring_trace::histogram(HANDLER_KEY, HANDLER_OP),
            }),
        )
        .unwrap_or_else(|e| die(&format!("export flat_ping: {e}")));
    let stats = singleton
        .export(&ctx, StatsServant::new(node.kernel().clone()))
        .unwrap_or_else(|e| die(&format!("export stats: {e}")));
    let boot = ctx
        .domain()
        .create_door(Arc::new(Boot { flat, stats }))
        .unwrap_or_else(|e| die(&format!("bootstrap door: {e}")));
    net.set_bootstrap(node.id(), ctx.domain(), boot)
        .unwrap_or_else(|e| die(&format!("set_bootstrap: {e}")));
    let _listener = net
        .listen_uds(node.id(), path)
        .unwrap_or_else(|e| die(&format!("listen {path}: {e}")));
    println!("READY");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // The parent holds our stdin open for as long as it wants us.
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    std::process::exit(0);
}

// ---------------------------------------------------------------- client

/// Confines the calling thread, and every thread and process it starts
/// afterwards, to the lowest-numbered CPU it may run on.
///
/// Both socket workloads run their two processes on one CPU. On a virtual
/// machine whose CPUs share a host, a call that hops between CPUs waits
/// for the host to run the other CPU at every wake-up, so its latency
/// follows the host's load rather than the program (on a 2-vCPU machine
/// `uds_rpc` measured 17-24 k calls/s and a p99 of 120-340 us across two
/// CPUs against 31-34 k calls/s and 52-61 us on one, run back to back).
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the kernel writes at most `size` bytes, the length of `allowed`.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let (word, bit) = allowed
        .iter()
        .enumerate()
        .find_map(|(i, w)| (*w != 0).then(|| (i, w.trailing_zeros())))
        .ok_or("no CPU allowed")?;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: the kernel reads `size` bytes, the length of `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// The spawned serving process. Closing its stdin ends it; drop waits.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    path: String,
}

static SOCKETS: AtomicU64 = AtomicU64::new(0);

impl Server {
    fn spawn() -> Result<Server, String> {
        // A path relative to the working directory keeps the socket inside
        // the checkout and under the length limit of socket addresses.
        let path = format!(
            "perfbench-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        );
        let _ = std::fs::remove_file(&path);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--uds", &path])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let _ = BufReader::new(stdout).read_line(&mut line);
        let server = Server { child, stdin, path };
        if line.trim() != "READY" {
            return Err(format!("server did not start (said {line:?})"));
        }
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One client connection with its own network stack and node.
struct Conn {
    _net: Arc<Network>,
    node: Node,
    ctx: Arc<DomainCtx>,
    _peer: Arc<SocketPeer>,
    boot: DoorId,
    flat: FlatPing,
    stats: StatsClient,
    /// A copy of the flat object's door, for raw `Domain::call`s.
    raw: DoorId,
    net_stats: Box<dyn Fn() -> SocketStatsSnapshot + Send + Sync>,
}

impl Conn {
    fn open(server: &Server, index: u64) -> Result<Conn, String> {
        let net = Network::new(NetConfig::default());
        let node =
            net.add_node_with_id(format!("perfbench-client-{index}"), SERVER_NODE + 1 + index);
        let ctx = ctx_on(node.kernel(), "client");
        ctx.types().register(&flatbench::FLAT_PING_TYPE);
        ctx.types().register(&STATS_TYPE);
        let peer = net
            .connect_uds(node.id(), &server.path)
            .map_err(|e| format!("connect: {e}"))?;
        let boot = peer
            .bootstrap_door(ctx.domain())
            .map_err(|e| format!("bootstrap door: {e}"))?;
        let reply = ctx
            .domain()
            .call(boot, Message::from_bytes(vec![OP_OBJECTS]))
            .map_err(|e| format!("fetch objects: {e}"))?;
        let mut buf = CommBuffer::from_message(reply);
        let flat = unmarshal_object(&ctx, &flatbench::FLAT_PING_TYPE, &mut buf)
            .and_then(FlatPing::from_obj)
            .map_err(|e| format!("unmarshal flat_ping: {e}"))?;
        let stats = StatsClient(
            unmarshal_object(&ctx, &STATS_TYPE, &mut buf)
                .map_err(|e| format!("unmarshal stats: {e}"))?,
        );
        let mut copy = CommBuffer::new();
        flat.obj()
            .marshal_copy(&mut copy)
            .map_err(|e| format!("marshal_copy: {e}"))?;
        get_obj_header(&ctx, &flatbench::FLAT_PING_TYPE, &mut copy)
            .map_err(|e| format!("header: {e}"))?;
        let raw = copy.get_door().map_err(|e| format!("door: {e}"))?;
        let stats_net = net.clone();
        Ok(Conn {
            _net: net,
            node,
            ctx,
            _peer: peer,
            boot,
            flat,
            stats,
            raw,
            net_stats: Box::new(move || stats_net.socket_stats()),
        })
    }

    fn live_ids(&self) -> u64 {
        let s = self.node.kernel().stats();
        s.ids_issued - s.ids_deleted
    }

    fn server_stats(&self) -> Result<Vec<(String, u64)>, String> {
        self.stats
            .kernel_stats()
            .map_err(|e| format!("stats door: {e}"))
    }

    fn handler(&self) -> Result<(u64, u64), String> {
        let h = self
            .stats
            .hist_summary(HANDLER_KEY, HANDLER_OP)
            .map_err(|e| format!("stats door: {e}"))?;
        Ok(h.map(|h| (h.count, h.sum_ns)).unwrap_or((0, 0)))
    }

    fn close(self) -> Result<(), String> {
        let d = self.ctx.domain();
        d.delete_door(self.raw)
            .map_err(|e| format!("delete raw door: {e}"))?;
        d.delete_door(self.boot)
            .map_err(|e| format!("delete boot door: {e}"))?;
        drop(self.flat);
        drop(self.stats);
        Ok(())
    }
}

fn named(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn server_live_ids(stats: &[(String, u64)]) -> u64 {
    named(stats, "ids_issued") - named(stats, "ids_deleted")
}

/// A deterministic echo sample derived from one random word.
fn sample_of(r: u64) -> flatbench::Sample {
    flatbench::Sample {
        when: flatbench::Stamp {
            secs: r >> 1,
            nanos: (r % 1_000_000_000) as u32,
        },
        a: r,
        b: r.rotate_left(13),
        c: r.rotate_left(29),
        d: !r,
        seq: r as u32,
        kind: (r >> 8) as u8,
        urgent: r & 1 == 1,
        m: flatbench::Mode::from_tag((r % 3) as u32),
    }
}

/// One small call through the generated stub: a ping, or 1 in `echo_every`
/// an `echo_sample`. Returns whether the reply matched, or the error.
fn small_call(flat: &FlatPing, r: u64, echo_every: u64) -> Result<bool, String> {
    if r.is_multiple_of(echo_every) {
        let s = sample_of(r);
        flat.echo_sample(&s)
            .map(|back| back == s)
            .map_err(|e| e.to_string())
    } else {
        flat.ping(r)
            .map(|v| v == r.wrapping_add(1))
            .map_err(|e| e.to_string())
    }
}

fn large_payload(r: u64) -> Vec<u8> {
    let mut p = vec![0u8; LARGE];
    p[0] = OP_ECHO;
    for (i, chunk) in p[1..].chunks_mut(8).enumerate() {
        let w = (r ^ i as u64).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    p
}

/// Counters of both processes at one instant.
struct Snapshot {
    client: ProcSample,
    server: ProcSample,
    kernel: StatsSnapshot,
    per_kernel: Vec<StatsSnapshot>,
    socket: Vec<SocketStatsSnapshot>,
    server_kernel: Vec<(String, u64)>,
    handler: (u64, u64),
}

fn snapshot(server: &Server, conns: &[Conn]) -> Result<Snapshot, String> {
    Ok(Snapshot {
        client: procstat::sample_self(),
        server: procstat::sample(server.pid()).ok_or("server process is gone")?,
        kernel: conns[0].node.kernel().stats(),
        per_kernel: conns.iter().map(|c| c.node.kernel().stats()).collect(),
        socket: conns.iter().map(|c| (c.net_stats)()).collect(),
        server_kernel: conns[0].server_stats()?,
        handler: conns[0].handler()?,
    })
}

/// Client- and server-side counters over a phase of `ops` operations.
fn put_counters(out: &mut Outcome, a: &Snapshot, b: &Snapshot, ops: u64) {
    let ops = ops as f64;
    let k = b.kernel.since(&a.kernel);
    let mut door_calls = 0;
    let mut copied = 0;
    let mut waits = 0;
    for (x, y) in a.per_kernel.iter().zip(&b.per_kernel) {
        let d = y.since(x);
        door_calls += d.door_calls;
        copied += d.bytes_copied;
        waits += d.table_lock_waits + d.shard_lock_waits;
    }
    let (mut frames, mut bytes, mut sent) = (0, 0, 0);
    for (x, y) in a.socket.iter().zip(&b.socket) {
        let d = y.since(x);
        frames += d.frames_sent + d.frames_received;
        bytes += d.bytes_sent + d.bytes_received;
        sent += d.frames_sent;
    }
    let sk = |name: &str| named(&b.server_kernel, name) - named(&a.server_kernel, name);
    let client = b.client.since(&a.client);
    let server = b.server.since(&a.server);
    let m = &mut out.metrics;
    m.put(
        "net.socket.frames_per_op",
        "frames/op",
        ratio(frames as f64, ops),
    );
    m.put("net.socket.bytes_per_op", "B/op", ratio(bytes as f64, ops));
    m.put(
        "kernel.fastpath_share",
        "ratio",
        ratio(k.fastpath_sends as f64, sent as f64),
    );
    m.put(
        "kernel.writev_frames_per_wakeup",
        "frames",
        ratio(k.writev_frames as f64, k.writev_wakeups as f64),
    );
    m.put(
        "kernel.dispatch_pool_spawned.client",
        "count",
        b.kernel.dispatch_pool_spawned as f64,
    );
    m.put(
        "kernel.dispatch_pool_spawned.server",
        "count",
        named(&b.server_kernel, "dispatch_pool_spawned") as f64,
    );
    m.put(
        "kernel.bytes_copied_per_op",
        "B/op",
        ratio((copied + sk("bytes_copied")) as f64, ops),
    );
    m.put(
        "kernel.pool_hit_rate",
        "ratio",
        ratio(k.pool_hits as f64, (k.pool_hits + k.pool_misses) as f64),
    );
    m.put(
        "kernel.lock_waits_per_kop",
        "count",
        ratio(
            (waits + sk("table_lock_waits") + sk("shard_lock_waits")) as f64 * 1e3,
            ops,
        ),
    );
    m.put(
        "kernel.door_calls_per_op",
        "count",
        ratio((door_calls + sk("door_calls")) as f64, ops),
    );
    m.put("proc.client.cpu_us_per_op", "us", ratio(client.cpu_us, ops));
    m.put("proc.server.cpu_us_per_op", "us", ratio(server.cpu_us, ops));
    m.put(
        "proc.client.ctx_switches_per_op",
        "count",
        ratio(client.ctx_switches as f64, ops),
    );
    m.put(
        "proc.server.ctx_switches_per_op",
        "count",
        ratio(server.ctx_switches as f64, ops),
    );
    let (n, sum) = (b.handler.0 - a.handler.0, b.handler.1 - a.handler.1);
    m.put(
        "proc.server.handler_us",
        "us",
        ratio(sum as f64, n as f64) / 1e3,
    );
}

/// A set-up system: the server process and the client connections.
struct Rig {
    server: Server,
    conns: Vec<Conn>,
    client_base: Vec<u64>,
    server_base: u64,
}

impl Rig {
    /// Spawns, connects, ships the objects and warms every connection up
    /// with `warm` calls; the leak baselines are taken after the warm-up.
    fn build(connections: u64, warm: u64, out: &mut Outcome) -> Result<Rig, String> {
        let server = Server::spawn()?;
        let mut conns = Vec::new();
        for i in 0..connections {
            conns.push(Conn::open(&server, i)?);
        }
        for c in &conns {
            for i in 0..warm {
                let r = 0x5eed_0000 + i;
                out.check(small_call(&c.flat, r, 4) == Ok(true), || {
                    "warm-up call".into()
                });
                if i % 10 == 0 && connections > 1 {
                    let p = large_payload(r);
                    let back = c.ctx.domain().call(c.boot, Message::from_bytes(p.clone()));
                    out.check(back.map(|m| m.bytes == p) == Ok(true), || {
                        "warm-up echo".into()
                    });
                }
            }
        }
        let client_base = conns.iter().map(Conn::live_ids).collect();
        let server_base = server_live_ids(&conns[0].server_stats()?);
        Ok(Rig {
            server,
            conns,
            client_base,
            server_base,
        })
    }

    /// Checks both processes are back at their door baselines, then tears
    /// the rig down.
    fn finish(self, out: &mut Outcome) -> Result<(), String> {
        for (c, base) in self.conns.iter().zip(&self.client_base) {
            let now = c.live_ids();
            out.check(now == *base, || {
                format!("client door leak: {now} live ids vs {base}")
            });
        }
        let now = server_live_ids(&self.conns[0].server_stats()?);
        let base = self.server_base;
        out.check(now == base, || {
            format!("server door leak: {now} live ids vs {base}")
        });
        for c in self.conns {
            c.close()?;
        }
        drop(self.server);
        Ok(())
    }
}

/// One operation of `uds_mixed`: 1 in 10 a 16 KiB raw echo through the
/// bootstrap door, the rest small stub calls.
fn mixed_call(c: &Conn, r: u64) -> Result<bool, String> {
    if r % 10 == 9 {
        let p = large_payload(r);
        c.ctx
            .domain()
            .call(c.boot, Message::from_bytes(p.clone()))
            .map(|m| m.bytes == p)
            .map_err(|e| e.to_string())
    } else {
        small_call(&c.flat, r, 4)
    }
}

/// Closed-loop calls on one connection until `end_ns` or `max_ops`
/// operations, small ones or (with `mixed`) `uds_mixed`'s mix. With
/// `wrap`, each operation runs inside the benchmark's span in that trace
/// scope.
fn closed_phase(
    c: &Conn,
    rng: &mut Rng,
    mixed: bool,
    end_ns: u64,
    max_ops: u64,
    wrap: Option<u64>,
    out: &mut Outcome,
) -> EndToEnd {
    let start = now_ns();
    let mut e = EndToEnd::starting(start);
    while now_ns() < end_ns && e.attempted < max_ops {
        let r = rng.next_u64();
        let t0 = now_ns();
        let span = wrap.map(|scope| spring_trace::span_start(traced::OP_SPAN, scope, 0));
        let reply = if mixed {
            mixed_call(c, r)
        } else {
            small_call(&c.flat, r, 4)
        };
        drop(span);
        let t1 = now_ns();
        e.attempted += 1;
        match reply {
            Ok(true) => {
                e.completed += 1;
                e.log.record(t1, t1 - t0);
            }
            Ok(false) => out.check(false, || format!("reply mismatch for input {r:#x}")),
            Err(_) => {}
        }
    }
    e.elapsed_ns = now_ns() - start;
    e
}

fn finish_e2e(e: &mut EndToEnd, a: &Snapshot, b: &Snapshot) {
    e.cpu_us = b.client.since(&a.client).cpu_us + b.server.since(&a.server).cpu_us;
    e.hwm_kb = b.client.hwm_kb + b.server.hwm_kb;
}

/// Ladder rungs for `uds_rpc`: the same ping through the generated stub,
/// through `SpringObj::invoke` with the call pre-marshalled, and as a raw
/// `Domain::call` on a copy of the object's door, interleaved so drift
/// hits every rung alike. Returns the median of each rung in ns.
fn ladder(c: &Conn, rng: &mut Rng, end_ns: u64, out: &mut Outcome) -> [f64; 3] {
    let mut rungs: [Vec<u64>; 3] = Default::default();
    let obj = c.flat.obj();
    let mut round = 0usize;
    while now_ns() < end_ns {
        for k in 0..3 {
            let rung = (round + k) % 3;
            let token = rng.next_u64();
            let mut call = obj.start_call(flat_ping_ops::PING).expect("start_call");
            call.align8();
            call.put_u64(token);
            let (ns, reply) = match rung {
                0 => {
                    drop(call);
                    let t0 = now_ns();
                    let v = c.flat.ping(token);
                    (now_ns() - t0, v.ok())
                }
                1 => {
                    let t0 = now_ns();
                    let r = obj.invoke(call);
                    let ns = now_ns() - t0;
                    (ns, r.ok().and_then(decode_u64))
                }
                _ => {
                    let msg = call.into_message();
                    let t0 = now_ns();
                    let r = c.ctx.domain().call(c.raw, msg);
                    let ns = now_ns() - t0;
                    (
                        ns,
                        r.ok().and_then(|m| decode_u64(CommBuffer::from_message(m))),
                    )
                }
            };
            out.check(reply == Some(token.wrapping_add(1)), || {
                format!("ladder rung {rung} reply")
            });
            rungs[rung].push(ns);
        }
        round += 1;
    }
    rungs.map(|mut v| metrics::percentile(&mut v, 0.5) as f64)
}

fn decode_u64(mut reply: CommBuffer) -> Option<u64> {
    match decode_reply_status(&mut reply).ok()? {
        ReplyStatus::Ok => {
            let flat = reply.flat_remaining().ok()?;
            Some(u64::from_le_bytes(flat.get(..8)?.try_into().ok()?))
        }
        ReplyStatus::UserException(_) => None,
    }
}

/// `uds_rpc`: closed loop, one thread, one connection.
pub fn rpc(args: &Args) -> Result<Outcome, String> {
    pin_to_one_cpu()?;
    if !args.trace {
        return timed_run(
            args.seconds,
            |_, out| Rig::build(1, 2_000, out),
            |rig, i, secs, out| {
                let mut rng = Rng::new(args.seed, 1 + i as u64);
                let a = snapshot(&rig.server, &rig.conns)?;
                let end = now_ns() + (secs * 1e9) as u64;
                let mut phase =
                    closed_phase(&rig.conns[0], &mut rng, false, end, u64::MAX, None, out);
                let b = snapshot(&rig.server, &rig.conns)?;
                finish_e2e(&mut phase, &a, &b);
                Ok(phase)
            },
            Rig::finish,
        );
    }
    let mut out = Outcome::default();
    let rig = Rig::build(1, 2_000, &mut out)?;
    let c = &rig.conns[0];
    let mut rng = Rng::new(args.seed, 1);
    let secs = args.seconds;
    // Untraced phase: counters and the untraced reference latency.
    let a = snapshot(&rig.server, &rig.conns)?;
    let end = now_ns() + (secs * 0.3 * 1e9) as u64;
    let untraced = closed_phase(c, &mut rng, false, end, u64::MAX, None, &mut out);
    let b = snapshot(&rig.server, &rig.conns)?;
    put_counters(&mut out, &a, &b, untraced.completed);
    out.attempted = untraced.attempted;
    out.failed = untraced.attempted - untraced.completed;

    // Traced phase.
    let scope = c.ctx.domain().trace_scope();
    let h0 = c.handler()?;
    let mut lt_rng = Rng::new(args.seed, 2);
    let mut traced_out = Outcome::default();
    let (mut lt, traced_lat) = traced::run(secs * 0.3, 0, || {
        let r = lt_rng.next_u64();
        let t0 = now_ns();
        let span = spring_trace::span_start(traced::OP_SPAN, scope, 0);
        let ok = small_call(&c.flat, r, 4);
        drop(span);
        let ns = now_ns() - t0;
        traced_out.check(ok == Ok(true), || "traced call reply".into());
        ns
    });
    out.errors.append(&mut traced_out.errors);
    let h1 = c.handler()?;
    let net_self = lt.total_ns[4] as f64;
    let handler = (h1.1 - h0.1) as f64;
    out.metrics.put(
        "trace.unattributed_share",
        "ratio",
        ratio(net_self - handler, lt.op_total_ns as f64),
    );
    put_trace_layers(&mut out, &mut lt, &untraced.log.total, &traced_lat);

    // Ladder.
    let medians = ladder(c, &mut rng, now_ns() + (secs * 0.4 * 1e9) as u64, &mut out);
    let selfs = metrics::ladder_self(&medians);
    out.metrics.put("idl.stub_self_us", "us", selfs[0] / 1e3);
    out.metrics.put("core.invoke_self_us", "us", selfs[1] / 1e3);
    out.metrics
        .put("net.socket.roundtrip_us", "us", selfs[2] / 1e3);
    rig.finish(&mut out)?;
    Ok(out)
}

/// Every connection in a closed loop of `uds_mixed` calls on a thread of
/// its own, until `end_ns` or `max_ops` operations each; `stream` picks the
/// inputs. Returns the merged phase.
fn mixed_phase(
    rig: &Rig,
    seed: u64,
    stream: u64,
    end_ns: u64,
    max_ops: u64,
    traced: bool,
    out: &mut Outcome,
) -> EndToEnd {
    let start = now_ns();
    let phases: Vec<(EndToEnd, Outcome)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .conns
            .iter()
            .enumerate()
            .map(|(t, c)| {
                let wrap = traced.then(|| c.ctx.domain().trace_scope());
                s.spawn(move || {
                    let mut rng = Rng::new(seed, stream * 16 + t as u64);
                    let mut out = Outcome::default();
                    let e = closed_phase(c, &mut rng, true, end_ns, max_ops, wrap, &mut out);
                    (e, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("uds load thread"))
            .collect()
    });
    let mut e = EndToEnd::starting(start);
    for (phase, mut o) in phases {
        e.log.merge(&phase.log);
        e.attempted += phase.attempted;
        e.completed += phase.completed;
        out.errors.append(&mut o.errors);
    }
    e.elapsed_ns = now_ns() - start;
    e
}

/// `uds_mixed`: closed loop, two threads on two connections, 1 in 10 calls
/// a 16 KiB echo.
pub fn mixed(args: &Args) -> Result<Outcome, String> {
    pin_to_one_cpu()?;
    if !args.trace {
        return timed_run(
            args.seconds,
            |_, out| Rig::build(2, 500, out),
            |rig, i, secs, out| {
                let a = snapshot(&rig.server, &rig.conns)?;
                let end = now_ns() + (secs * 1e9) as u64;
                let mut phase =
                    mixed_phase(rig, args.seed, 1 + i as u64, end, u64::MAX, false, out);
                let b = snapshot(&rig.server, &rig.conns)?;
                finish_e2e(&mut phase, &a, &b);
                Ok(phase)
            },
            Rig::finish,
        );
    }
    let mut out = Outcome::default();
    let rig = Rig::build(2, 500, &mut out)?;
    let secs = args.seconds;
    let a = snapshot(&rig.server, &rig.conns)?;
    let end = now_ns() + (secs * 0.5 * 1e9) as u64;
    let untraced = mixed_phase(&rig, args.seed, 1, end, u64::MAX, false, &mut out);
    let b = snapshot(&rig.server, &rig.conns)?;
    put_counters(&mut out, &a, &b, untraced.completed);
    out.attempted = untraced.attempted;
    out.failed = untraced.attempted - untraced.completed;

    // Traced phase: the same loop with tracing on, in slices of 100
    // operations per thread so no span ring wraps before it is drained.
    let mut lt = LayerTimes::default();
    let mut traced_lat = metrics::LatHist::default();
    let end = now_ns() + (secs * 0.5 * 1e9) as u64;
    let mut slice = 0;
    spring_trace::ring::clear();
    while now_ns() < end {
        spring_trace::set_enabled(true);
        let traced = mixed_phase(&rig, args.seed, 2 + slice, u64::MAX, 100, true, &mut out);
        spring_trace::set_enabled(false);
        lt.add(spring_trace::ring::events(), 0, true);
        spring_trace::ring::clear();
        traced_lat.merge(&traced.log.total);
        slice += 1;
    }
    put_trace_layers(&mut out, &mut lt, &untraced.log.total, &traced_lat);
    rig.finish(&mut out)?;
    Ok(out)
}
