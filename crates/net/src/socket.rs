//! The socket backend: doors over TCP and Unix-domain sockets between real
//! OS processes.
//!
//! One connection carries symmetric, bidirectional traffic: either side may
//! send request frames (so callbacks — a servant invoking a proxy door that
//! points back at its caller's process — just work), and replies are
//! correlated by per-sender frame id. The hot path is built around two
//! locks and two thread groups (the state machine is DESIGN.md §5.15):
//!
//! * **Sending** takes the *same-thread fast path* when it can: if the
//!   write queue is empty and the write lock is uncontended, the caller
//!   writes its frame on its own thread — no handoff, no wakeup. Otherwise
//!   the frame is queued for the **writer thread**, which drains the whole
//!   queue per wakeup into one vectored write (length prefixes and bodies
//!   as one `writev` burst). That burst is the one place calls are
//!   coalesced: frames that queue while the writer is busy leave together.
//!   A frame that fails to reach the wire runs its `on_fail` cleanup — the
//!   partial-failure hook that keeps export tables leak-free when a send
//!   dies mid-frame — and every frame queued behind the failure is cleaned
//!   up the same way.
//! * a **reader**, decoding inbound frames. Request frames are dispatched
//!   through a bounded worker pool (never inline, so nested calls over the
//!   same link cannot deadlock the reader; workers spawn on demand up to a
//!   cap and are reaped after idling); reply frames settle the waiter
//!   registered under their id, whose owner spins briefly (calibrated
//!   against the link's measured RTT) before parking on the condvar. A
//!   malformed frame — declared counts or lengths disagreeing with the
//!   bytes received — tears the connection down with a typed error rather
//!   than panicking or hanging. One-way frames dispatch the same way but
//!   produce no reply and delete whatever doors their replies carry.
//!
//! Failure mapping: everything transient (dial failure, peer EOF, write
//! error, stale export on a restarted peer) surfaces as
//! [`DoorError::Comm`], so the replicon/reconnectable retry machinery and
//! at-most-once deduplication work unchanged over sockets. A dialing peer
//! redials automatically on the next ship after its connection dies;
//! accepted peers cannot redial (the server can't call a client back into
//! existence), so their ships fail with `Comm` until the client returns.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spring_kernel::framing::{self, FrameReadError};
use spring_kernel::{hotpath, Domain, DoorError, DoorId, Message, NodeId};
use spring_trace::keys;

use crate::backend::{
    decode_hello, decode_oneway, decode_reply, decode_request, encode_hello, encode_oneway,
    encode_reply, encode_request, frame_kind, Backend, Hello, ReplyFrame, ReplyOutcome,
    RequestFrame, KIND_ONEWAY, KIND_REPLY, KIND_REQUEST,
};
use crate::network::NetworkInner;
use crate::server::{NetServer, WireCap, WireMessage};

/// How long the two-frame HELLO exchange may take before the connection is
/// abandoned (a peer that connects and goes silent must not wedge the
/// dialer or the accept loop forever).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll interval of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Most dispatcher pool workers one connection will spawn. Each worker may
/// block on an outbound nested call, so the cap bounds thread count per
/// link while staying far above any realistic callback depth.
const DISPATCH_POOL_CAP: usize = 32;

/// How long an idle pool worker waits for another request before reaping
/// itself.
const DISPATCH_IDLE_REAP: Duration = Duration::from_millis(500);

/// Ceiling on the reply spin budget: even on a link whose measured RTT is
/// long, a caller burns at most this long before parking on the condvar.
const SPIN_CAP_NS: u64 = 100_000;

/// Spinning only pays when another core can make progress on the reply
/// while this one polls. On a single-hardware-thread host the spin
/// actively *delays* the reply — the reader thread and the peer process
/// both need this CPU — so the spin phase is disabled outright there.
fn spin_allowed() -> bool {
    static ALLOWED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ALLOWED.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Most `IoSlice`s handed to one `write_vectored` call (the OS caps iovec
/// counts around `IOV_MAX`, typically 1024; staying far under it keeps the
/// math simple and the stack cost bounded).
const MAX_IOV: usize = 64;

fn comm(e: impl std::fmt::Display) -> DoorError {
    DoorError::Comm(e.to_string())
}

// ---------------------------------------------------------------------------
// Stream: one abstraction over the two socket families.
// ---------------------------------------------------------------------------

enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Uds(s) => s.write(buf),
        }
    }

    /// Delegates to the socket's real `writev` (both `TcpStream` and
    /// `UnixStream` override the one-slice-at-a-time default), so a queue
    /// drain costs one syscall, not one per frame.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Uds(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Waiter: a one-shot rendezvous between a shipper and the reader thread.
// ---------------------------------------------------------------------------

struct Waiter {
    /// Set (release) after the slot is filled, so a spinning waiter can
    /// poll one atomic instead of bouncing the mutex.
    ready: AtomicBool,
    slot: StdMutex<Option<Result<ReplyFrame, DoorError>>>,
    cv: Condvar,
}

impl Waiter {
    fn new() -> Arc<Waiter> {
        Arc::new(Waiter {
            ready: AtomicBool::new(false),
            slot: StdMutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// First write wins: a reply racing the connection's death settles the
    /// waiter exactly once.
    fn fulfill(&self, outcome: Result<ReplyFrame, DoorError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(outcome);
            self.ready.store(true, Ordering::Release);
            self.cv.notify_all();
        }
    }

    /// Adaptive spin-then-park (DESIGN.md §5.15): busy-poll the ready flag
    /// for up to `spin` (calibrated by the caller against the link's
    /// measured RTT), then fall back to the condvar. On a fast link the
    /// reply usually lands inside the spin window and the caller never
    /// pays the park/wake latency that dominates a null call; `spin` of
    /// zero (RTT unknown, or a long link where spinning would just burn a
    /// core) parks immediately — semantics are identical either way.
    fn wait(&self, spin: Duration) -> Result<ReplyFrame, DoorError> {
        if !spin.is_zero() && !self.ready.load(Ordering::Acquire) {
            let deadline = Instant::now() + spin;
            let mut polls = 0u32;
            while !self.ready.load(Ordering::Acquire) {
                std::hint::spin_loop();
                polls = polls.wrapping_add(1);
                // Check the clock every 64 polls, not every poll: the spin
                // window is tens of microseconds and `Instant::now` is a
                // meaningful fraction of that on some hosts.
                if polls.is_multiple_of(64) && Instant::now() >= deadline {
                    break;
                }
            }
        }
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// An encoded frame queued for the writer thread.
struct OutFrame {
    bytes: Vec<u8>,
    /// Run if the frame never reaches the wire (write failure, or queued
    /// behind one): the partial-failure cleanup for whatever the frame
    /// carried — failing a request's waiter, releasing a reply's freshly
    /// pinned exports.
    on_fail: Option<Box<dyn FnOnce() + Send>>,
}

/// Consumes one injected write fault, if any are armed.
fn take_injected_fault(inject: &AtomicU64) -> bool {
    inject
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

// ---------------------------------------------------------------------------
// Conn: one established, handshaken connection.
// ---------------------------------------------------------------------------

/// Frames awaiting the writer thread. `shutdown` flips exactly once, in
/// [`Conn::die`], which drains the queue in the same critical section — so
/// `shutdown` implies the queue is and stays empty, and a sender that sees
/// it runs its frame's `on_fail` instead of stranding it.
struct WriteQueue {
    queue: Vec<OutFrame>,
    shutdown: bool,
}

/// One inbound frame awaiting a dispatcher pool worker.
enum Job {
    Request(RequestFrame),
    Oneway(RequestFrame),
}

/// State of one connection's dispatcher pool: a queue of decoded inbound
/// frames and the worker-thread census. Workers spawn on demand (one per
/// submit finding no idle worker, up to [`DISPATCH_POOL_CAP`]) and reap
/// themselves after [`DISPATCH_IDLE_REAP`] without work.
struct PoolState {
    queue: VecDeque<Job>,
    /// Workers currently parked in `wait_timeout` (a submit that finds one
    /// notifies instead of spawning).
    idle: usize,
    /// Live workers, parked or busy.
    workers: usize,
    shutdown: bool,
}

struct Conn {
    net: Weak<NetworkInner>,
    kind: &'static str,
    /// The local node whose network server serves requests arriving here.
    local: u64,
    /// What the peer declared in its HELLO.
    remote: Hello,
    /// Kept for `die`'s shutdown; the reader/writer halves are clones.
    stream: Stream,
    /// The write half of the stream. Every socket write — fast path or
    /// writer thread — happens under this lock, which is what makes the
    /// fast path safe: frame bytes never interleave, and whoever holds the
    /// lock while the queue is empty knows nothing can be ordered ahead.
    /// Lock order is always `wlock` → `wq`, never the reverse.
    wlock: StdMutex<Stream>,
    wq: StdMutex<WriteQueue>,
    wq_cv: Condvar,
    /// Armed write faults (shared with the owning peer/listener handle).
    inject: Arc<AtomicU64>,
    /// Inbound request dispatch pool.
    pool_state: StdMutex<PoolState>,
    pool_cv: Condvar,
    /// Frame id -> the shipper waiting for that frame's reply.
    waiters: Mutex<HashMap<u64, Arc<Waiter>>>,
    next_frame: AtomicU64,
    dead: AtomicBool,
    /// The reader half of the stream, parked between the handshake and
    /// [`Conn::start_reader`]. Inbound dispatch must not begin until the
    /// caller has registered this connection in the backends map: a
    /// dispatched servant may immediately call *back* to the remote node,
    /// and routing that callback needs the reverse backend registered —
    /// otherwise the nested call races registration and fails with
    /// "unknown node".
    pending_reader: Mutex<Option<Stream>>,
}

impl Conn {
    fn dial(
        net: &Arc<NetworkInner>,
        local: NodeId,
        addr: &Addr,
        kind: &'static str,
        inject: Arc<AtomicU64>,
    ) -> Result<Arc<Conn>, DoorError> {
        let stream = match addr {
            Addr::Tcp(a) => {
                Stream::Tcp(TcpStream::connect(a).map_err(|e| comm(format!("connect {a}: {e}")))?)
            }
            Addr::Uds(p) => Stream::Uds(
                UnixStream::connect(p)
                    .map_err(|e| comm(format!("connect {}: {e}", p.display())))?,
            ),
        };
        Conn::establish(net, local, stream, true, kind, inject)
    }

    /// Runs the HELLO exchange on a fresh stream and spins up the
    /// connection's writer and reader threads. The dialer speaks first.
    fn establish(
        net: &Arc<NetworkInner>,
        local: NodeId,
        mut stream: Stream,
        dialer: bool,
        kind: &'static str,
        inject: Arc<AtomicU64>,
    ) -> Result<Arc<Conn>, DoorError> {
        let server = net.server(local.raw())?;
        if let Stream::Tcp(s) = &stream {
            // Frames are latency-sensitive RPCs; never Nagle them.
            let _ = s.set_nodelay(true);
        }
        let hello = Hello {
            node: local.raw(),
            name: server.domain.kernel().name().to_owned(),
            bootstrap: server.bootstrap_export(),
        };
        stream
            .set_read_timeout(Some(HANDSHAKE_TIMEOUT))
            .map_err(comm)?;
        let mut buf = Vec::new();
        let remote = if dialer {
            framing::write_frame(&mut stream, &encode_hello(&hello)).map_err(comm)?;
            let n = framing::read_frame(&mut stream, &mut buf).map_err(comm)?;
            decode_hello(&buf[..n]).map_err(|e| comm(format!("bad handshake: {e}")))?
        } else {
            let n = framing::read_frame(&mut stream, &mut buf).map_err(comm)?;
            let h = decode_hello(&buf[..n]).map_err(|e| comm(format!("bad handshake: {e}")))?;
            framing::write_frame(&mut stream, &encode_hello(&hello)).map_err(comm)?;
            h
        };
        stream.set_read_timeout(None).map_err(comm)?;
        if remote.node == local.raw() {
            return Err(comm(format!(
                "peer claims our own node id {}: processes sharing a network must be \
                 assigned distinct node ids (Network::add_node_with_id)",
                remote.node
            )));
        }

        let writer_stream = stream.try_clone().map_err(comm)?;
        let reader_stream = stream.try_clone().map_err(comm)?;
        let conn = Arc::new(Conn {
            net: Arc::downgrade(net),
            kind,
            local: local.raw(),
            remote,
            stream,
            wlock: StdMutex::new(writer_stream),
            wq: StdMutex::new(WriteQueue {
                queue: Vec::new(),
                shutdown: false,
            }),
            wq_cv: Condvar::new(),
            inject,
            pool_state: StdMutex::new(PoolState {
                queue: VecDeque::new(),
                idle: 0,
                workers: 0,
                shutdown: false,
            }),
            pool_cv: Condvar::new(),
            waiters: Mutex::new(HashMap::new()),
            next_frame: AtomicU64::new(1),
            dead: AtomicBool::new(false),
            pending_reader: Mutex::new(Some(reader_stream)),
        });
        {
            let conn = conn.clone();
            thread::Builder::new()
                .name(format!("spring-sock-w-{}", conn.remote.node))
                .spawn(move || writer_loop(&conn))
                .map_err(comm)?;
        }
        Ok(conn)
    }

    /// Starts the reader thread, which dispatches inbound requests. Kept
    /// separate from [`Conn::establish`] so the caller can register the
    /// connection in the backends map *first* — see `pending_reader`.
    /// Idempotent; a spawn failure kills the connection.
    fn start_reader(self: &Arc<Conn>) {
        let Some(stream) = self.pending_reader.lock().take() else {
            return;
        };
        let conn = self.clone();
        if thread::Builder::new()
            .name(format!("spring-sock-r-{}", self.remote.node))
            .spawn(move || reader_loop(&conn, stream))
            .is_err()
        {
            self.die(comm("reader thread spawn failed"));
        }
    }

    /// Sends a frame, taking the same-thread fast path when it is safe
    /// (DESIGN.md §5.15): the caller writes on its own thread iff it can
    /// take the write lock without contention *and* the write queue is
    /// empty under that lock — empty means no frame can possibly be
    /// ordered ahead of this one, because the writer thread only drains
    /// while holding the write lock. Any contention (lock held, or queued
    /// frames) falls back to the writer thread, preserving order exactly.
    ///
    /// A dead connection runs the frame's `on_fail` cleanup immediately,
    /// touching neither lock — cleanup must never queue behind a writer
    /// that will not drain again.
    fn send(&self, frame: OutFrame) {
        if self.dead.load(Ordering::SeqCst) {
            if let Some(f) = frame.on_fail {
                f();
            }
            return;
        }
        if let Some(net) = self.net.upgrade() {
            if net.socket_fastpath() {
                if let Ok(mut stream) = self.wlock.try_lock() {
                    let clear = {
                        let q = self.wq.lock().unwrap_or_else(|p| p.into_inner());
                        !q.shutdown && q.queue.is_empty()
                    };
                    if clear {
                        hotpath::count_fastpath_send();
                        self.write_one(&mut stream, frame, &net);
                        return;
                    }
                }
            }
        }
        self.enqueue(frame);
    }

    /// Hands a frame to the writer thread; if the connection died first,
    /// the frame's `on_fail` runs instead (outside the queue lock).
    fn enqueue(&self, frame: OutFrame) {
        let rejected = {
            let mut q = self.wq.lock().unwrap_or_else(|p| p.into_inner());
            if q.shutdown {
                Some(frame)
            } else {
                q.queue.push(frame);
                self.wq_cv.notify_one();
                None
            }
        };
        if let Some(mut f) = rejected {
            if let Some(f) = f.on_fail.take() {
                f();
            }
        }
    }

    /// Writes one frame under the (already held) write lock, honouring
    /// injected faults; a failure runs the frame's cleanup and kills the
    /// connection, exactly like the writer thread's error path.
    fn write_one(&self, stream: &mut Stream, mut frame: OutFrame, net: &Arc<NetworkInner>) {
        let result = if take_injected_fault(&self.inject) {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected write fault",
            ))
        } else {
            let frames = [frame.bytes.as_slice()];
            write_frames_vectored(stream, &frames).1
        };
        match result {
            Ok(()) => net.count_socket_send(frame.bytes.len()),
            Err(e) => {
                if let Some(f) = frame.on_fail.take() {
                    f();
                }
                self.die(comm(format!("send on {} link failed: {e}", self.kind)));
            }
        }
    }

    /// Tears the connection down once: shuts the socket, fails every
    /// in-flight waiter with `reason` (so a peer disconnect mid-call fails
    /// the call with `Comm` instead of hanging it), fails every frame
    /// still queued for the writer, stops the writer and dispatcher pool
    /// threads, and counts the disconnect.
    ///
    /// Safe to call while holding `wlock` (the error paths do): it takes
    /// only `wq` and `pool_state`, both below `wlock` in the lock order.
    fn die(&self, reason: DoorError) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stream.shutdown();
        let waiters: Vec<Arc<Waiter>> = self.waiters.lock().drain().map(|(_, w)| w).collect();
        for w in waiters {
            w.fulfill(Err(reason.clone()));
        }
        // Fail the queued frames in the shutdown critical section, so
        // "shutdown" implies "queue empty forever" for senders and the
        // writer alike; the cleanups run outside the lock.
        let queued = {
            let mut q = self.wq.lock().unwrap_or_else(|p| p.into_inner());
            q.shutdown = true;
            self.wq_cv.notify_all();
            std::mem::take(&mut q.queue)
        };
        for mut frame in queued {
            if let Some(f) = frame.on_fail.take() {
                f();
            }
        }
        // Drop undispatched inbound work: the senders' waiters were failed
        // by *their* side's disconnect handling, and a reply could not be
        // sent anyway. Dropping a request that never executed is
        // indistinguishable from the frame having been lost in flight.
        let dropped = {
            let mut st = self.pool_state.lock().unwrap_or_else(|p| p.into_inner());
            st.shutdown = true;
            self.pool_cv.notify_all();
            std::mem::take(&mut st.queue)
        };
        for _ in &dropped {
            hotpath::dispatch_done();
        }
        if let Some(net) = self.net.upgrade() {
            net.count_socket_disconnect();
        }
    }

    /// Queues one decoded inbound frame for the dispatcher pool, spawning
    /// a worker if none is idle and the cap allows. Returns `false` only
    /// if the job can never be processed (spawn failed with no live
    /// workers) — the caller must kill the connection then.
    fn submit_job(self: &Arc<Conn>, job: Job) -> bool {
        let spawn = {
            let mut st = self.pool_state.lock().unwrap_or_else(|p| p.into_inner());
            if st.shutdown {
                return true; // dying connection: die() accounting covers it
            }
            hotpath::dispatch_enqueued();
            st.queue.push_back(job);
            if st.idle > 0 {
                self.pool_cv.notify_one();
                false
            } else if st.workers < DISPATCH_POOL_CAP {
                st.workers += 1;
                true
            } else {
                false // every worker busy at cap: the queue waits its turn
            }
        };
        if spawn {
            hotpath::count_dispatch_spawned();
            let conn = self.clone();
            if thread::Builder::new()
                .name("spring-sock-dispatch".into())
                .spawn(move || pool_worker(&conn))
                .is_err()
            {
                let mut st = self.pool_state.lock().unwrap_or_else(|p| p.into_inner());
                st.workers -= 1;
                return st.workers > 0; // survivors will drain the queue
            }
        }
        true
    }
}

/// Writes `frames` (already length-capped by the codec) as vectored
/// bursts: each burst interleaves 4-byte length prefixes with frame bodies
/// into up to [`MAX_IOV`] `IoSlice`s and hands them to one
/// `write_vectored` call, advancing manually across short writes.
///
/// Returns how many frames *fully* reached the stream plus the terminal
/// result; on error, frames at and past the returned count never made it
/// (a partially-written frame counts as not made it — the stream is
/// protocol-broken and the caller kills the connection).
fn write_frames_vectored(stream: &mut Stream, frames: &[&[u8]]) -> (usize, io::Result<()>) {
    let prefixes: Vec<[u8; 4]> = frames
        .iter()
        .map(|f| (f.len() as u32).to_le_bytes())
        .collect();
    // Flat slice list in wire order: prefix 0, body 0, prefix 1, body 1 …
    // so frame i occupies slices 2i and 2i+1 and `slice_idx / 2` is the
    // count of fully-written frames.
    let mut slices: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
    for (p, f) in prefixes.iter().zip(frames) {
        slices.push(p);
        slices.push(f);
    }
    let mut idx = 0usize; // current slice
    let mut off = 0usize; // progress within it
    while idx < slices.len() {
        let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV.min(slices.len() - idx));
        iov.push(IoSlice::new(&slices[idx][off..]));
        for s in slices[idx + 1..].iter().take(MAX_IOV - 1) {
            iov.push(IoSlice::new(s));
        }
        let mut n = match stream.write_vectored(&iov) {
            Ok(0) => {
                return (
                    idx / 2,
                    Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    )),
                )
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return (idx / 2, Err(e)),
        };
        while n > 0 {
            let rem = slices[idx].len() - off;
            if n >= rem {
                n -= rem;
                idx += 1;
                off = 0;
            } else {
                off += n;
                n = 0;
            }
        }
    }
    (frames.len(), stream.flush())
}

/// The writer thread: park until frames are queued, then drain the whole
/// queue per wakeup into one vectored write under the write lock.
///
/// The take order is load-bearing for the fast path: the writer acquires
/// `wlock` *first*, then empties the queue under `wq` — so a sender that
/// finds `wlock` free and the queue empty knows no queued frame exists
/// anywhere to be ordered ahead of its inline write, and a sender that
/// finds the queue non-empty appends behind the frames taken here.
fn writer_loop(conn: &Arc<Conn>) {
    loop {
        {
            let mut q = conn.wq.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if q.shutdown {
                    return; // die() already drained and failed the queue
                }
                if !q.queue.is_empty() {
                    break;
                }
                q = conn.wq_cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }
        let mut stream = conn.wlock.lock().unwrap_or_else(|p| p.into_inner());
        let frames = {
            let mut q = conn.wq.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut q.queue)
        };
        if frames.is_empty() {
            continue; // die() drained it between our two looks
        }
        if !write_batch(conn, &mut stream, frames) {
            return;
        }
    }
}

/// Writes one drained batch under the (held) write lock. Returns `false`
/// when the connection died: the writer thread should exit.
///
/// Injected faults keep their one-fault-one-frame arming semantics: each
/// frame consumes a fault *in queue order*, the frames ahead of the first
/// faulted one are written (vectored), the faulted frame fails and kills
/// the connection, and everything behind it is cleaned up like any frame
/// queued behind a send failure. On a *real* write error the frames the
/// stream fully accepted count as sent; the failing frame and everything
/// after it run their cleanups.
fn write_batch(conn: &Arc<Conn>, stream: &mut Stream, frames: Vec<OutFrame>) -> bool {
    let Some(net) = conn.net.upgrade() else {
        conn.die(comm("network shut down"));
        for mut frame in frames {
            if let Some(f) = frame.on_fail.take() {
                f();
            }
        }
        return false;
    };
    let mut clean: Vec<OutFrame> = Vec::with_capacity(frames.len());
    let mut faulted: Option<OutFrame> = None;
    let mut behind: Vec<OutFrame> = Vec::new();
    for frame in frames {
        if faulted.is_some() {
            behind.push(frame);
        } else if take_injected_fault(&conn.inject) {
            faulted = Some(frame);
        } else {
            clean.push(frame);
        }
    }

    let mut alive = true;
    if !clean.is_empty() {
        let bodies: Vec<&[u8]> = clean.iter().map(|f| f.bytes.as_slice()).collect();
        let (done, result) = write_frames_vectored(stream, &bodies);
        for frame in &clean[..done] {
            net.count_socket_send(frame.bytes.len());
        }
        hotpath::count_writev_wakeup(done as u64);
        if let Err(e) = result {
            conn.die(comm(format!("send on {} link failed: {e}", conn.kind)));
            for frame in &mut clean[done..] {
                if let Some(f) = frame.on_fail.take() {
                    f();
                }
            }
            alive = false;
        }
    }
    if let Some(mut frame) = faulted {
        if let Some(f) = frame.on_fail.take() {
            f();
        }
        conn.die(comm(format!(
            "send on {} link failed: injected write fault",
            conn.kind
        )));
        alive = false;
    }
    for mut frame in behind {
        if let Some(f) = frame.on_fail.take() {
            f();
        }
    }
    alive
}

/// One dispatcher pool worker: serve queued inbound frames, park when the
/// queue empties, and reap after [`DISPATCH_IDLE_REAP`] without work.
fn pool_worker(conn: &Arc<Conn>) {
    loop {
        let job = {
            let mut st = conn.pool_state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break Some(job);
                }
                if st.shutdown {
                    st.workers -= 1;
                    break None;
                }
                st.idle += 1;
                let (guard, timeout) = conn
                    .pool_cv
                    .wait_timeout(st, DISPATCH_IDLE_REAP)
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
                st.idle -= 1;
                if timeout.timed_out() && st.queue.is_empty() && !st.shutdown {
                    st.workers -= 1;
                    hotpath::count_dispatch_reaped();
                    break None;
                }
            }
        };
        let Some(job) = job else { return };
        match job {
            Job::Request(req) => dispatch_request(conn, req),
            Job::Oneway(req) => dispatch_oneway(conn, req),
        }
        hotpath::dispatch_done();
    }
}

fn reader_loop(conn: &Arc<Conn>, stream: Stream) {
    let mut r = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let n = match framing::read_frame(&mut r, &mut buf) {
            Ok(n) => n,
            Err(FrameReadError::Closed) => {
                conn.die(comm(format!("{} peer disconnected", conn.kind)));
                return;
            }
            Err(e) => {
                // Includes `Truncated` (stream ended short of the declared
                // length) and `Oversized` (a garbage prefix): typed
                // rejection, never a hang on bytes that will not arrive.
                conn.die(comm(format!("{} link read failed: {e}", conn.kind)));
                return;
            }
        };
        let Some(net) = conn.net.upgrade() else {
            conn.die(comm("network shut down"));
            return;
        };
        net.count_socket_receive(n);
        let frame = &buf[..n];
        match frame_kind(frame) {
            Ok(KIND_REQUEST) => match decode_request(frame) {
                Ok(req) => {
                    // Never dispatch inline: a servant that calls back
                    // through a proxy door on this very connection needs
                    // the reader free to deliver the nested reply. The
                    // dispatcher pool reuses parked workers instead of
                    // spawning a thread per frame.
                    if !conn.submit_job(Job::Request(req)) {
                        conn.die(comm("dispatch thread spawn failed"));
                        return;
                    }
                }
                Err(e) => {
                    // A frame whose declared counts or lengths disagree
                    // with the bytes received: reject it with the typed
                    // error and tear the link down — the peer's framing is
                    // not trustworthy, and its in-flight calls must fail
                    // with `Comm` rather than hang.
                    conn.die(comm(format!("malformed {} frame: {e}", conn.kind)));
                    return;
                }
            },
            Ok(KIND_ONEWAY) => match decode_oneway(frame) {
                Ok(req) => {
                    if !conn.submit_job(Job::Oneway(req)) {
                        conn.die(comm("dispatch thread spawn failed"));
                        return;
                    }
                }
                Err(e) => {
                    // Same trust model as requests: a malformed one-way
                    // frame proves the peer's framing is broken, even
                    // though no caller is waiting on this one.
                    conn.die(comm(format!("malformed {} frame: {e}", conn.kind)));
                    return;
                }
            },
            Ok(KIND_REPLY) => match decode_reply(frame) {
                Ok(reply) => {
                    // An unknown id is a late reply for a ship that
                    // already failed; drop it.
                    let waiter = conn.waiters.lock().remove(&reply.id);
                    if let Some(w) = waiter {
                        w.fulfill(Ok(reply));
                    }
                }
                Err(e) => {
                    conn.die(comm(format!("malformed {} frame: {e}", conn.kind)));
                    return;
                }
            },
            _ => {
                conn.die(comm(format!("unexpected {} frame kind", conn.kind)));
                return;
            }
        }
    }
}

/// Serves one inbound request frame: delivery and execution per call, in
/// submission order, mirroring the simulated backend's per-call
/// partial-failure discipline, then one reply frame back.
fn dispatch_request(conn: &Arc<Conn>, req: RequestFrame) {
    let Some(net) = conn.net.upgrade() else {
        return;
    };
    let server = match net.server(conn.local) {
        Ok(s) => s,
        Err(e) => {
            // The serving node is gone: every call aboard is undeliverable,
            // and the sender must release what it pinned for them.
            let outcomes: Vec<ReplyOutcome> = req
                .calls
                .iter()
                .map(|_| ReplyOutcome::NotDelivered(e.clone()))
                .collect();
            conn.send(OutFrame {
                bytes: encode_reply(req.id, &outcomes),
                on_fail: None,
            });
            return;
        }
    };

    let calls = req.calls.len() as u64;
    let mut span = spring_trace::span_start(keys::NET_BATCH, server.domain.trace_scope(), calls);
    let mut outcomes = Vec::with_capacity(req.calls.len());
    // Exports freshly pinned by the staged replies, released as one batch
    // if the reply frame never reaches the wire (the lost-reply-frame
    // discipline: the calls executed, these replies will not be re-sent).
    let mut reply_fresh: Vec<u64> = Vec::new();
    for call in req.calls {
        let door = match server.export_target(call.export) {
            Ok(d) => d,
            Err(e) => {
                outcomes.push(ReplyOutcome::NotDelivered(e));
                continue;
            }
        };
        let delivered = match server.from_wire(call.wire) {
            Ok(m) => m,
            Err(e) => {
                outcomes.push(ReplyOutcome::NotDelivered(e));
                continue;
            }
        };
        // Snapshot the landed identifiers: if the kernel call fails before
        // moving them into the serving domain they would be dropped
        // undeleted (same backstop as the simulated backend).
        let delivered_doors = delivered.doors.clone();
        let reply = match server.domain.call(door, delivered) {
            Ok(r) => r,
            Err(e) => {
                for d in delivered_doors {
                    let _ = server.domain.delete_door(d);
                }
                outcomes.push(ReplyOutcome::Failed(e));
                continue;
            }
        };
        match server.to_wire_tracked(reply) {
            Ok((wire, fresh)) => {
                reply_fresh.extend(fresh);
                outcomes.push(ReplyOutcome::Ok(wire));
            }
            Err(e) => outcomes.push(ReplyOutcome::Failed(e)),
        }
    }
    if outcomes.iter().any(|o| !matches!(o, ReplyOutcome::Ok(_))) {
        span.fail();
    }

    let bytes = encode_reply(req.id, &outcomes);
    let on_fail: Option<Box<dyn FnOnce() + Send>> = if reply_fresh.is_empty() {
        None
    } else {
        let server = server.clone();
        Some(Box::new(move || server.unexport(&reply_fresh)))
    };
    conn.send(OutFrame { bytes, on_fail });
}

/// Serves one inbound one-way frame: delivery and execution per call with
/// the same discipline as [`dispatch_request`], but no reply frame — the
/// sender explicitly waived delivery confirmation, so outcomes are
/// recorded in the trace span and otherwise dropped. Replies the servants
/// produce are deleted locally, exactly as the simulated backend does for
/// its one-way deliveries.
fn dispatch_oneway(conn: &Arc<Conn>, req: RequestFrame) {
    let Some(net) = conn.net.upgrade() else {
        return;
    };
    let Ok(server) = net.server(conn.local) else {
        return; // No reply owed; nothing to clean up on this side.
    };
    let calls = req.calls.len() as u64;
    let mut span = spring_trace::span_start(keys::NET_BATCH, server.domain.trace_scope(), calls);
    let mut failed = false;
    for call in req.calls {
        let door = match server.export_target(call.export) {
            Ok(d) => d,
            Err(_) => {
                failed = true;
                continue;
            }
        };
        let delivered = match server.from_wire(call.wire) {
            Ok(m) => m,
            Err(_) => {
                failed = true;
                continue;
            }
        };
        let delivered_doors = delivered.doors.clone();
        match server.domain.call(door, delivered) {
            Ok(reply) => {
                // Nobody collects this reply: release any doors it carries
                // rather than pinning them in the serving domain forever.
                for d in reply.doors {
                    let _ = server.domain.delete_door(d);
                }
            }
            Err(_) => {
                failed = true;
                for d in delivered_doors {
                    let _ = server.domain.delete_door(d);
                }
            }
        }
    }
    if failed {
        span.fail();
    }
}

// ---------------------------------------------------------------------------
// SocketPeer: the Backend reaching one remote process.
// ---------------------------------------------------------------------------

enum Addr {
    Tcp(String),
    Uds(PathBuf),
}

/// A connection to one remote OS process, registered as the [`Backend`]
/// for that process's node.
///
/// Obtained from [`crate::Network::connect_tcp`] /
/// [`crate::Network::connect_uds`] (dialing side, redials on failure) or
/// fabricated by a [`SocketListener`]'s accept loop (accepting side, fails
/// with `Comm` once the client goes away).
pub struct SocketPeer {
    net: Weak<NetworkInner>,
    local: NodeId,
    kind: &'static str,
    /// Where to redial when the connection dies; `None` on accepted peers.
    redial: Option<Addr>,
    conn: Mutex<Option<Arc<Conn>>>,
    /// Serializes redialling: exactly one dial may be in flight per link,
    /// or two concurrent shippers racing a dead connection would each
    /// establish one — two writer threads for the same peer, with the
    /// loser's connection (and its threads) leaked alive. The `conn` slot
    /// lock is *never* held across the blocking dial, so concurrent ships
    /// on the live connection — and `remote_node` / `bootstrap_door` —
    /// are not stalled behind a handshake that can take [`HANDSHAKE_TIMEOUT`].
    redialing: Mutex<()>,
    /// Dials performed after construction (diagnostics: the single-flight
    /// guarantee is `redials == connection deaths observed`, not `×` the
    /// number of racing shippers).
    redials: AtomicU64,
    /// Self-reference for re-registering under a restarted peer's new node
    /// id; set immediately after construction.
    me: Mutex<Weak<SocketPeer>>,
    /// Armed write faults: each one makes the writer thread fail one frame
    /// as if the kernel returned an I/O error, exercising the real
    /// send-failure cleanup path deterministically.
    inject: Arc<AtomicU64>,
    /// EWMA of observed round-trip nanoseconds; `0` until the first reply.
    /// Calibrates the reply wait's spin phase: spinning for about one RTT
    /// (capped at [`SPIN_CAP_NS`]) catches the common fast reply without a
    /// park/unpark pair, and parks immediately while the link's speed is
    /// still unknown.
    rtt_ns: AtomicU64,
}

impl SocketPeer {
    pub(crate) fn connect_tcp(
        net: &Arc<NetworkInner>,
        node: NodeId,
        addr: &str,
    ) -> Result<Arc<SocketPeer>, DoorError> {
        Self::connect(net, node, Addr::Tcp(addr.to_string()), "tcp")
    }

    pub(crate) fn connect_uds(
        net: &Arc<NetworkInner>,
        node: NodeId,
        path: &str,
    ) -> Result<Arc<SocketPeer>, DoorError> {
        Self::connect(net, node, Addr::Uds(PathBuf::from(path)), "uds")
    }

    fn connect(
        net: &Arc<NetworkInner>,
        node: NodeId,
        addr: Addr,
        kind: &'static str,
    ) -> Result<Arc<SocketPeer>, DoorError> {
        let inject = Arc::new(AtomicU64::new(0));
        let conn = Conn::dial(net, node, &addr, kind, inject.clone())?;
        let peer = Arc::new(SocketPeer {
            net: Arc::downgrade(net),
            local: node,
            kind,
            redial: Some(addr),
            conn: Mutex::new(Some(conn.clone())),
            redialing: Mutex::new(()),
            redials: AtomicU64::new(0),
            me: Mutex::new(Weak::new()),
            inject,
            rtt_ns: AtomicU64::new(0),
        });
        *peer.me.lock() = Arc::downgrade(&peer);
        net.register_backend(conn.remote.node, peer.clone());
        conn.start_reader();
        Ok(peer)
    }

    fn accepted(
        net: &Arc<NetworkInner>,
        node: NodeId,
        conn: Arc<Conn>,
        kind: &'static str,
        inject: Arc<AtomicU64>,
    ) -> Arc<SocketPeer> {
        let peer = Arc::new(SocketPeer {
            net: Arc::downgrade(net),
            local: node,
            kind,
            redial: None,
            conn: Mutex::new(Some(conn.clone())),
            redialing: Mutex::new(()),
            redials: AtomicU64::new(0),
            me: Mutex::new(Weak::new()),
            inject,
            rtt_ns: AtomicU64::new(0),
        });
        *peer.me.lock() = Arc::downgrade(&peer);
        net.register_backend(conn.remote.node, peer.clone());
        conn.start_reader();
        peer
    }

    /// The current connection if it is still alive.
    fn current_live(&self) -> Option<Arc<Conn>> {
        self.conn
            .lock()
            .as_ref()
            .filter(|c| !c.dead.load(Ordering::SeqCst))
            .cloned()
    }

    /// The live connection, redialling if the previous one died (dialing
    /// side only). Redial is single-flight per link: the slot lock is only
    /// ever held for pointer reads and the final install, and the blocking
    /// dial runs under the dedicated `redialing` mutex, so shippers racing
    /// a dead connection produce exactly one new connection (the losers
    /// adopt the winner's) instead of one writer thread each.
    fn live_conn(&self, net: &Arc<NetworkInner>) -> Result<Arc<Conn>, DoorError> {
        if let Some(c) = self.current_live() {
            return Ok(c);
        }
        let addr = self
            .redial
            .as_ref()
            .ok_or_else(|| comm(format!("{} peer disconnected", self.kind)))?;
        let _dialing = self.redialing.lock();
        // Double-check under the redial lock: a racing shipper may have
        // finished this very redial while we waited for the mutex.
        if let Some(c) = self.current_live() {
            return Ok(c);
        }
        let prior = self.conn.lock().as_ref().map(|c| c.remote.node);
        self.redials.fetch_add(1, Ordering::Relaxed);
        let conn = Conn::dial(net, self.local, addr, self.kind, self.inject.clone())?;
        if prior.is_some() && prior != Some(conn.remote.node) {
            // The peer restarted under a different node id: its new
            // identity routes through this link too. (The old id's entry
            // stays and fails with "stale export", which is accurate.)
            if let Some(me) = self.me.lock().upgrade() {
                net.register_backend(conn.remote.node, me);
            }
        }
        *self.conn.lock() = Some(conn.clone());
        conn.start_reader();
        Ok(conn)
    }

    /// The live connection, while the owning network exists.
    fn conn(&self) -> Result<Arc<Conn>, DoorError> {
        let net = self
            .net
            .upgrade()
            .ok_or_else(|| comm("network shut down"))?;
        self.live_conn(&net)
    }

    /// Dials performed since this peer was constructed — one per observed
    /// connection death, however many shippers raced the redial.
    pub fn redials(&self) -> u64 {
        self.redials.load(Ordering::Relaxed)
    }

    /// The remote process's node id, as declared in its HELLO.
    pub fn remote_node(&self) -> Option<NodeId> {
        self.conn
            .lock()
            .as_ref()
            .map(|c| NodeId::from_raw(c.remote.node))
    }

    /// The remote process's machine name, as declared in its HELLO.
    pub fn remote_name(&self) -> Option<String> {
        self.conn.lock().as_ref().map(|c| c.remote.name.clone())
    }

    /// Imports the peer's advertised bootstrap door as a proxy door owned
    /// by `into` — the first identifier a freshly connected process holds,
    /// from which all further doors are exchanged by ordinary calls.
    pub fn bootstrap_door(&self, into: &Domain) -> Result<DoorId, DoorError> {
        let net = self
            .net
            .upgrade()
            .ok_or_else(|| comm("network shut down"))?;
        let conn = self.live_conn(&net)?;
        let boot = conn
            .remote
            .bootstrap
            .ok_or_else(|| comm("peer published no bootstrap door"))?;
        let server = net.server(self.local.raw())?;
        let door = server.import_cap(WireCap {
            origin: conn.remote.node,
            export: boot,
        })?;
        server.domain.transfer_door(door, into)
    }

    /// Arms `n` injected write faults: the next `n` frames queued on this
    /// peer's connection fail as if the socket write returned an error,
    /// killing the connection exactly like a real mid-send failure.
    pub fn inject_write_faults(&self, n: u64) {
        self.inject.store(n, Ordering::Relaxed);
    }

    /// Sends one call as a request frame of its own and waits for its
    /// outcome. An `Err` means the frame failed wholesale (dial failure,
    /// send failure, peer disconnect while awaiting the reply).
    fn round_trip(&self, export: u64, wire: &WireMessage) -> Result<ReplyOutcome, DoorError> {
        let conn = self.conn()?;
        let id = conn.next_frame.fetch_add(1, Ordering::Relaxed);
        let bytes = encode_request(id, &[(export, wire)]);

        let waiter = Waiter::new();
        conn.waiters.lock().insert(id, waiter.clone());
        if conn.dead.load(Ordering::SeqCst) {
            // The connection died between `live_conn` and here; `die` may
            // have drained the waiter map before our insert.
            conn.waiters.lock().remove(&id);
            return Err(comm(format!("{} peer disconnected", self.kind)));
        }
        let fail_waiter = waiter.clone();
        let fkind = self.kind;
        let started = Instant::now();
        conn.send(OutFrame {
            bytes,
            on_fail: Some(Box::new(move || {
                fail_waiter.fulfill(Err(comm(format!("send on {fkind} link failed"))));
            })),
        });

        let spin = if spin_allowed() {
            Duration::from_nanos(self.rtt_ns.load(Ordering::Relaxed).min(SPIN_CAP_NS))
        } else {
            Duration::ZERO
        };
        let reply = match waiter.wait(spin) {
            Ok(r) => r,
            Err(e) => {
                conn.waiters.lock().remove(&id);
                return Err(e);
            }
        };
        self.observe_rtt(started.elapsed());
        let count = reply.outcomes.len();
        match <[ReplyOutcome; 1]>::try_from(reply.outcomes) {
            Ok([outcome]) => Ok(outcome),
            Err(_) => {
                let e = comm(format!("protocol violation: {count} outcomes for 1 call"));
                conn.die(e.clone());
                Err(e)
            }
        }
    }

    /// Folds one observed round trip into the spin-calibration EWMA
    /// (`new = (3·old + sample) / 4`; the first sample seeds it directly).
    fn observe_rtt(&self, rtt: Duration) {
        let sample = u64::try_from(rtt.as_nanos()).unwrap_or(u64::MAX);
        let old = self.rtt_ns.load(Ordering::Relaxed);
        let next = if old == 0 {
            sample
        } else {
            old / 4 * 3 + sample / 4
        };
        self.rtt_ns.store(next.max(1), Ordering::Relaxed);
    }
}

impl Backend for SocketPeer {
    fn call(
        &self,
        from: &Arc<NetServer>,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<Message, DoorError> {
        match self.round_trip(export, &wire) {
            Ok(ReplyOutcome::Ok(reply)) => from.from_wire(reply),
            // Delivered but failed in execution: the pins stay, as the
            // peer's proxy table may reference them.
            Ok(ReplyOutcome::Failed(e)) => Err(e),
            // Never reached its serving domain, or the frame failed
            // wholesale: whether the peer saw a failed frame is
            // unknowable, but its connection state is gone either way, so
            // the pins are released and the retrying subcontracts re-pin
            // on the next attempt.
            Ok(ReplyOutcome::NotDelivered(e)) | Err(e) => {
                from.unexport(&fresh);
                Err(e)
            }
        }
    }

    fn call_oneway(
        &self,
        from: &Arc<NetServer>,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<(), DoorError> {
        let conn = match self.conn().and_then(|conn| {
            if conn.dead.load(Ordering::SeqCst) {
                return Err(comm(format!("{} peer disconnected", self.kind)));
            }
            Ok(conn)
        }) {
            Ok(conn) => conn,
            // Provably never handed to the wire: release the pins here and
            // surface the failure synchronously.
            Err(e) => {
                from.unexport(&fresh);
                return Err(e);
            }
        };
        let id = conn.next_frame.fetch_add(1, Ordering::Relaxed);
        let bytes = encode_oneway(id, &[(export, &wire)]);
        // An async send failure must still release the frame's fresh pins —
        // there is no reply whose absence would surface it.
        let on_fail: Option<Box<dyn FnOnce() + Send>> = if fresh.is_empty() {
            None
        } else {
            let from = from.clone();
            Some(Box::new(move || from.unexport(&fresh)))
        };
        conn.send(OutFrame { bytes, on_fail });
        hotpath::count_oneway_frame();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// SocketListener: the accepting side.
// ---------------------------------------------------------------------------

enum Acceptor {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Acceptor {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Acceptor::Tcp(l) => {
                let (s, _) = l.accept()?;
                // The listener is non-blocking (for stop polling); the
                // accepted stream must not inherit that.
                s.set_nonblocking(false)?;
                Ok(Stream::Tcp(s))
            }
            Acceptor::Uds(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Uds(s))
            }
        }
    }
}

/// Accepts socket connections for one node; dropping it stops the accept
/// loop (established connections live on).
pub struct SocketListener {
    stop: Arc<AtomicBool>,
    addr: String,
    uds_path: Option<PathBuf>,
    inject: Arc<AtomicU64>,
}

impl SocketListener {
    pub(crate) fn bind_tcp(
        net: &Arc<NetworkInner>,
        node: NodeId,
        addr: &str,
    ) -> Result<Arc<SocketListener>, DoorError> {
        let listener = TcpListener::bind(addr).map_err(|e| comm(format!("bind {addr}: {e}")))?;
        let local = listener.local_addr().map_err(comm)?.to_string();
        listener.set_nonblocking(true).map_err(comm)?;
        Self::spawn(net, node, Acceptor::Tcp(listener), local, None, "tcp")
    }

    pub(crate) fn bind_uds(
        net: &Arc<NetworkInner>,
        node: NodeId,
        path: &str,
    ) -> Result<Arc<SocketListener>, DoorError> {
        let p = PathBuf::from(path);
        // A stale socket file from a previous run would fail the bind.
        let _ = std::fs::remove_file(&p);
        let listener = UnixListener::bind(&p).map_err(|e| comm(format!("bind {path}: {e}")))?;
        listener.set_nonblocking(true).map_err(comm)?;
        Self::spawn(
            net,
            node,
            Acceptor::Uds(listener),
            path.to_string(),
            Some(p),
            "uds",
        )
    }

    fn spawn(
        net: &Arc<NetworkInner>,
        node: NodeId,
        acceptor: Acceptor,
        addr: String,
        uds_path: Option<PathBuf>,
        kind: &'static str,
    ) -> Result<Arc<SocketListener>, DoorError> {
        let stop = Arc::new(AtomicBool::new(false));
        let inject = Arc::new(AtomicU64::new(0));
        let this = Arc::new(SocketListener {
            stop: stop.clone(),
            addr,
            uds_path,
            inject: inject.clone(),
        });
        let net = Arc::downgrade(net);
        thread::Builder::new()
            .name(format!("spring-sock-accept-{kind}"))
            .spawn(move || accept_loop(&net, node, &acceptor, &stop, &inject, kind))
            .map_err(comm)?;
        Ok(this)
    }

    /// The bound address — the actual one, so `127.0.0.1:0` reports its
    /// ephemeral port.
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Arms `n` injected write faults on connections accepted by this
    /// listener (shared across them): each fault fails one outbound frame
    /// as if the socket write errored, exercising the reply-loss cleanup
    /// path deterministically.
    pub fn inject_write_faults(&self, n: u64) {
        self.inject.store(n, Ordering::Relaxed);
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn accept_loop(
    net: &Weak<NetworkInner>,
    node: NodeId,
    acceptor: &Acceptor,
    stop: &AtomicBool,
    inject: &Arc<AtomicU64>,
    kind: &'static str,
) {
    while !stop.load(Ordering::Relaxed) {
        match acceptor.accept() {
            Ok(stream) => {
                let Some(net) = net.upgrade() else { return };
                // Handshake on the accept thread: connections arrive
                // rarely and the exchange is two tiny frames (bounded by
                // the handshake timeout).
                match Conn::establish(&net, node, stream, false, kind, inject.clone()) {
                    Ok(conn) => {
                        // Registration in the backends map keeps the
                        // peer alive; replaced wholesale if the same
                        // remote node reconnects.
                        let _peer = SocketPeer::accepted(&net, node, conn, kind, inject.clone());
                    }
                    Err(_) => {
                        // Bad handshake: drop the connection, keep
                        // accepting.
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}
