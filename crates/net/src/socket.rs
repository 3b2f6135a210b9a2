//! The socket backend: doors over TCP and Unix-domain sockets between real
//! OS processes. Linux only: the connection threads wait on `epoll`.
//!
//! One connection carries symmetric, bidirectional traffic: either side may
//! send request frames (so callbacks — a servant invoking a proxy door that
//! points back at its caller's process — just work), and replies are
//! correlated by per-sender frame id. The hot path is built around two
//! locks, a writer thread, and one group of connection threads (the
//! protocol is DESIGN.md §5.15):
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
//! * **Receiving** is leader/followers: the thread that reads a frame also
//!   serves it. Followers wait on the connection's one-shot `epoll`
//!   registration, so each readiness event wakes exactly one of them; the
//!   woken follower takes the *read side* and reads exactly one frame. A
//!   reply settles the waiter registered under its id before the read side
//!   is released. A request is served on the thread that read it, but only
//!   once another follower is watching the socket (spawned on demand,
//!   reaped after idling), so a servant calling back over the same link
//!   still has its nested reply read; beyond a cap of concurrent
//!   servants, requests queue for the next servant to finish. A caller
//!   that finds the read side free after sending reads its own reply,
//!   settling other callers' replies in passing, so a null call crosses
//!   two threads, not four. It reads replies only: it peeks at each
//!   frame's kind first and leaves anything else on the socket for a
//!   follower, so no servant ever runs on an application's calling
//!   thread. A malformed frame — declared counts or lengths disagreeing with the
//!   bytes received — tears the connection down with a typed error rather
//!   than panicking or hanging. One-way frames are served the same way but
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
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use spring_kernel::framing::{self, FrameReadError};
use spring_kernel::{hotpath, Domain, DoorError, DoorId, Message, NodeId};
use spring_trace::keys;

use crate::backend::{
    decode_hello, decode_oneway, decode_reply, decode_request, encode_hello, encode_oneway,
    encode_reply, encode_request, frame_kind, Backend, Hello, ReplyFrame, ReplyOutcome,
    RequestFrame, KIND_ONEWAY, KIND_REPLY, KIND_REQUEST,
};
use crate::epoll::{self, Poller};
use crate::network::NetworkInner;
use crate::server::{NetServer, WireCap, WireMessage};

/// How long the two-frame HELLO exchange may take before the connection is
/// abandoned (a peer that connects and goes silent must not wedge the
/// dialer or the accept loop forever).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Poll interval of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Most requests one connection serves at once. Each servant may block on
/// an outbound nested call, so the cap bounds thread count per link while
/// staying far above any realistic callback depth. Followers watching the
/// socket are not counted: at the cap a request is queued, and reading
/// goes on.
const DISPATCH_POOL_CAP: usize = 32;

/// How long a follower waits for readiness before reaping itself (only if
/// another follower is still waiting).
const DISPATCH_IDLE_REAP: Duration = Duration::from_millis(500);

/// Ceiling on the reply spin budget: even on a link whose measured RTT is
/// long, a caller burns at most this long before parking on the condvar.
const SPIN_CAP_NS: u64 = 100_000;

/// Spinning only pays when another core can make progress on the reply
/// while this one polls. On a single-hardware-thread host the spin
/// actively *delays* the reply — the thread that reads it and the peer
/// process both need this CPU — so the spin phase is disabled outright there.
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

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Uds(s) => s.as_raw_fd(),
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
// Waiter: a one-shot rendezvous between a shipper and whichever thread
// reads its reply.
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

    fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
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

/// One decoded inbound frame that runs a servant.
enum Job {
    Request(RequestFrame),
    Oneway(RequestFrame),
}

/// One decoded inbound frame.
enum Inbound {
    Reply(ReplyFrame),
    Job(Job),
}

/// The census of one connection's threads (all of them followers when
/// idle). A thread spawns when one is about to serve a request and none
/// other is watching.
struct Crew {
    /// Followers in (or committed to) `epoll_wait`.
    watching: usize,
    /// Threads running a servant, at most [`DISPATCH_POOL_CAP`].
    serving: usize,
    /// Live connection threads, in any state.
    threads: usize,
    /// Requests read while [`DISPATCH_POOL_CAP`] were being served;
    /// whichever thread finishes serving next takes them.
    queue: VecDeque<Job>,
}

struct Conn {
    net: Weak<NetworkInner>,
    kind: &'static str,
    /// The local node whose network server serves requests arriving here.
    local: u64,
    /// What the peer declared in its HELLO.
    remote: Hello,
    /// Kept for `die`'s shutdown and as the descriptor `poller` watches;
    /// the read/write halves are clones.
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
    /// The read half of the stream. Holding this lock *is* holding the
    /// read side: one thread reads at a time, and never past the end of
    /// the frame it is reading, so no bytes ever sit in a user-space
    /// buffer where `epoll` cannot see them. While the connection lives, every re-arm and disarm of
    /// `poller` happens under it; it is taken before `crew` when both are
    /// held.
    rside: Mutex<Stream>,
    /// One-shot readiness of `stream`; followers wait on it.
    poller: Poller,
    crew: Mutex<Crew>,
    /// Frame id -> the shipper waiting for that frame's reply.
    waiters: Mutex<HashMap<u64, Arc<Waiter>>>,
    next_frame: AtomicU64,
    dead: AtomicBool,
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

    /// Runs the HELLO exchange on a fresh stream, registers it for
    /// readiness, and spins up the connection's writer thread (the
    /// connection threads start in [`Conn::start`]). The dialer speaks
    /// first.
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
        let poller = Poller::new(&stream).map_err(comm)?;
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
            rside: Mutex::new(reader_stream),
            poller,
            crew: Mutex::new(Crew {
                watching: 0,
                serving: 0,
                threads: 0,
                queue: VecDeque::new(),
            }),
            waiters: Mutex::new(HashMap::new()),
            next_frame: AtomicU64::new(1),
            dead: AtomicBool::new(false),
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

    /// Starts the first follower. Kept separate from [`Conn::establish`]
    /// so the caller can register the connection in the backends map
    /// *first*: a served request may immediately call *back* to the remote
    /// node, and routing that callback needs the reverse backend
    /// registered — otherwise the nested call races registration and fails
    /// with "unknown node". Idempotent; a spawn failure kills the
    /// connection.
    fn start(self: &Arc<Conn>) {
        let crew = self.crew.lock();
        if crew.threads == 0 && !self.recruit(crew) {
            self.die(comm("connection thread spawn failed"));
        }
    }

    /// Spawns one follower, counted as watching from the start so nobody
    /// else spawns one for the same gap. Takes the held `crew` guard and
    /// releases it before the (slow) spawn; returns `false` if the spawn
    /// failed.
    fn recruit(self: &Arc<Conn>, mut crew: MutexGuard<'_, Crew>) -> bool {
        crew.threads += 1;
        crew.watching += 1;
        drop(crew);
        let conn = self.clone();
        let spawned = thread::Builder::new()
            .name(format!("spring-sock-{}", self.remote.node))
            .spawn(move || follower(&conn))
            .is_ok();
        if spawned {
            hotpath::count_dispatch_spawned();
        } else {
            let mut crew = self.crew.lock();
            crew.threads -= 1;
            crew.watching -= 1;
        }
        spawned
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
            write_frame_inline(stream, &frame.bytes)
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
    /// still queued for the writer, stops the writer and the connection
    /// threads, and counts the disconnect.
    ///
    /// Safe to call while holding `wlock` or `rside` (the error paths do):
    /// it takes only `waiters`, `wq` and `crew`, all below those two in
    /// the lock order.
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
        // Drop unserved inbound work: the senders' waiters were failed by
        // *their* side's disconnect handling, and a reply could not be sent
        // anyway. Dropping a request that never executed is
        // indistinguishable from the frame having been lost in flight.
        let dropped = std::mem::take(&mut self.crew.lock().queue);
        for _ in &dropped {
            hotpath::dispatch_done();
        }
        // The shut-down socket stays readable: arming it wakes one
        // follower, which sees the death, re-arms, and exits, and so on
        // until no connection thread is left.
        let _ = self.poller.arm();
        if let Some(net) = self.net.upgrade() {
            net.count_socket_disconnect();
        }
    }

    /// Reads and decodes exactly one frame on the held read side. `Err`
    /// means the stream is over or untrustworthy; the caller kills the
    /// connection with it.
    fn read_one(&self, rs: &mut Stream) -> Result<Inbound, DoorError> {
        let frame = self.read_frame(rs)?;
        let inbound = match frame_kind(&frame) {
            Ok(KIND_REQUEST) => Inbound::Job(Job::Request(
                decode_request(&frame).map_err(|e| self.malformed(e))?,
            )),
            Ok(KIND_ONEWAY) => Inbound::Job(Job::Oneway(
                decode_oneway(&frame).map_err(|e| self.malformed(e))?,
            )),
            Ok(KIND_REPLY) => Inbound::Reply(decode_reply(&frame).map_err(|e| self.malformed(e))?),
            _ => return Err(comm(format!("unexpected {} frame kind", self.kind))),
        };
        if let Inbound::Job(_) = inbound {
            hotpath::dispatch_enqueued();
        }
        Ok(inbound)
    }

    /// Reads one frame that must be a reply (a caller checked its kind
    /// before consuming it).
    fn read_reply(&self, rs: &mut Stream) -> Result<ReplyFrame, DoorError> {
        let frame = self.read_frame(rs)?;
        decode_reply(&frame).map_err(|e| self.malformed(e))
    }

    /// A frame whose declared counts or lengths disagree with the bytes
    /// received — request, one-way, or reply — proves the peer's framing
    /// is not trustworthy: the link comes down, and its in-flight calls
    /// fail with `Comm` rather than hang.
    fn malformed(&self, e: spring_buf::WireError) -> DoorError {
        comm(format!("malformed {} frame: {e}", self.kind))
    }

    /// Reads exactly one frame's body off the held read side.
    ///
    /// Each frame gets a fresh buffer on the reading thread. A buffer kept
    /// per connection would be grown by whichever thread first reads a
    /// large frame, and the allocator keeps a grown block in the arena it
    /// came from, so connections made and dropped in turn fragment one
    /// arena.
    fn read_frame(&self, rs: &mut Stream) -> Result<Vec<u8>, DoorError> {
        let mut buf = Vec::new();
        let n = match framing::read_frame(rs, &mut buf) {
            Ok(n) => n,
            Err(FrameReadError::Closed) => {
                return Err(comm(format!("{} peer disconnected", self.kind)))
            }
            // Includes `Truncated` (stream ended short of the declared
            // length) and `Oversized` (a garbage prefix): typed rejection,
            // never a hang on bytes that will not arrive.
            Err(e) => return Err(comm(format!("{} link read failed: {e}", self.kind))),
        };
        let net = self
            .net
            .upgrade()
            .ok_or_else(|| comm("network shut down"))?;
        net.count_socket_receive(n);
        buf.truncate(n);
        Ok(buf)
    }

    /// Hands a reply to the shipper waiting under its id. An unknown id is
    /// a late reply for a ship that already failed; it is dropped.
    fn settle(&self, reply: ReplyFrame) {
        let waiter = self.waiters.lock().remove(&reply.id);
        if let Some(w) = waiter {
            w.fulfill(Ok(reply));
        }
    }

    /// Re-arms readiness; call with the read side held, just before
    /// releasing it. A failed `epoll_ctl` leaves nobody to read the
    /// socket, so it kills the connection.
    fn rearm(&self) {
        if let Err(e) = self.poller.arm() {
            self.die(comm(format!("{} link poll failed: {e}", self.kind)));
        }
    }

    /// Serves one inbound job on the follower that read it (DESIGN.md
    /// §5.15, rule 4), then whatever was queued meanwhile, and returns with
    /// this thread counted as watching again — counted in the same critical
    /// section that finds the queue empty, so a job queued at the cap is
    /// never left behind with nobody to take it.
    ///
    /// Each job runs only once another follower is watching the socket
    /// (one is spawned if none is), so a servant that calls back over this
    /// link still has its nested reply read. When [`DISPATCH_POOL_CAP`]
    /// jobs are being served already, the job is queued instead, and the
    /// thread goes straight back to watching.
    fn serve(self: &Arc<Conn>, job: Job) {
        let mut crew = self.crew.lock();
        if self.dead.load(Ordering::SeqCst) {
            // No reply could leave; die() already dropped the queue.
            crew.watching += 1;
            drop(crew);
            hotpath::dispatch_done();
            return;
        }
        if crew.serving >= DISPATCH_POOL_CAP {
            crew.queue.push_back(job);
            crew.watching += 1;
            return;
        }
        crew.serving += 1;
        let mut job = job;
        loop {
            if crew.watching == 0 {
                if !self.recruit(crew) {
                    let mut crew = self.crew.lock();
                    crew.serving -= 1;
                    crew.watching += 1;
                    drop(crew);
                    hotpath::dispatch_done();
                    self.die(comm("connection thread spawn failed"));
                    return;
                }
            } else {
                drop(crew);
            }
            match job {
                Job::Request(req) => dispatch_request(self, req),
                Job::Oneway(req) => dispatch_oneway(self, req),
            }
            hotpath::dispatch_done();
            crew = self.crew.lock();
            match crew.queue.pop_front() {
                Some(next) => job = next,
                None => {
                    crew.serving -= 1;
                    crew.watching += 1;
                    return;
                }
            }
        }
    }

    /// A caller's turn at the read side (DESIGN.md §5.15, rule 5): if no
    /// one else holds it and `waiter` is still open, mask readiness so idle
    /// followers stay asleep and read replies on this thread until the
    /// caller's own arrives, settling other callers' replies on the way.
    ///
    /// Only replies: the kind of each frame is peeked before it is
    /// consumed, and a request (or anything else) is left on the socket
    /// for the follower that the re-arm wakes. Served here, an unrelated
    /// servant would run on the application's thread — under the locks and
    /// thread-local state of the call in progress, and inside its latency.
    /// A follower is always watching or about to (rule 4 keeps one), so a
    /// frame left here is read.
    fn read_until_settled(self: &Arc<Conn>, waiter: &Waiter) {
        let Some(mut rs) = self.rside.try_lock() else {
            return;
        };
        // A follower that read this reply settled it before releasing the
        // read side, so an unsettled waiter here means the reply is unread.
        if waiter.is_ready() {
            return;
        }
        if self.poller.disarm().is_err() {
            return; // followers keep serving; wait like anyone else
        }
        while next_is_reply(&rs) {
            match self.read_reply(&mut rs) {
                Ok(reply) => {
                    self.settle(reply);
                    if waiter.is_ready() {
                        break;
                    }
                }
                Err(e) => {
                    self.die(e);
                    break;
                }
            }
        }
        self.rearm();
    }
}

/// Whether the next frame on `rs` is a reply, judged from its length
/// prefix and kind byte without consuming them; blocks until those five
/// bytes arrive. `false` for anything else — a request, an empty frame,
/// the end of the stream — which a follower then reads and handles.
fn next_is_reply(rs: &Stream) -> bool {
    let mut head = [0u8; 5];
    epoll::peek_exact(rs, &mut head) && head[..4] != [0; 4] && head[4] == KIND_REPLY
}

/// Writes one frame — length prefix and body — from two stack `IoSlice`s,
/// advancing across short writes. No allocation: this is the send fast
/// path.
fn write_frame_inline(stream: &mut Stream, body: &[u8]) -> io::Result<()> {
    let prefix = (body.len() as u32).to_le_bytes();
    let mut iov = [IoSlice::new(&prefix), IoSlice::new(body)];
    let mut bufs = &mut iov[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
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

/// One connection thread (DESIGN.md §5.15, rules 1–4 and 6): wait for
/// the socket's one-shot readiness, take the read side, read exactly one
/// frame, and either settle its waiter or serve it on this thread. Starts
/// counted as watching.
fn follower(conn: &Arc<Conn>) {
    loop {
        let woken = conn.poller.wait(DISPATCH_IDLE_REAP);
        {
            let mut crew = conn.crew.lock();
            crew.watching -= 1;
            let dead = conn.dead.load(Ordering::SeqCst);
            match woken {
                Ok(true) if !dead => {}
                // Idle: reap, unless this is the last follower watching.
                Ok(false) if !dead && crew.watching > 0 => {
                    crew.threads -= 1;
                    hotpath::count_dispatch_reaped();
                    return;
                }
                Ok(false) if !dead => {
                    crew.watching += 1;
                    continue;
                }
                _ => {
                    crew.threads -= 1;
                    drop(crew);
                    if let Err(e) = woken {
                        conn.die(comm(format!("{} link poll failed: {e}", conn.kind)));
                    }
                    // Pass the wakeup on, so the next follower sees the
                    // death too.
                    let _ = conn.poller.arm();
                    return;
                }
            }
        }
        let mut rs = conn.rside.lock();
        // A caller holding the read side may already have consumed the
        // frame this event announced.
        if !epoll::readable_now(&*rs) {
            conn.crew.lock().watching += 1;
            conn.rearm();
            continue;
        }
        match conn.read_one(&mut rs) {
            Ok(Inbound::Reply(reply)) => {
                // Settled *before* the read side is released: a caller
                // that takes it next must see its reply already in hand,
                // or it would block reading a frame that is gone.
                conn.settle(reply);
                conn.crew.lock().watching += 1;
                conn.rearm();
            }
            Ok(Inbound::Job(job)) => {
                conn.rearm();
                drop(rs);
                // Served here, or queued at the cap; a follower again
                // either way.
                conn.serve(job);
            }
            Err(e) => {
                // die() arms the socket, waking the next follower.
                conn.die(e);
                conn.crew.lock().threads -= 1;
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
        conn.start();
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
        conn.start();
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
        conn.start();
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

        conn.read_until_settled(&waiter);
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
