//! The network itself: nodes, hops, fault injection.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spring_kernel::{Domain, DoorError, DoorId, FaultRng, Kernel, Message, NodeId};
use spring_trace::keys;

use crate::backend::{Backend, SimBackend};
use crate::config::{NetConfig, NetStatsSnapshot, SocketStatsSnapshot};
use crate::server::{NetServer, WireCap, WireMessage};
use crate::socket::{SocketListener, SocketPeer};

pub(crate) struct NetworkInner {
    nodes: RwLock<HashMap<u64, Arc<NetServer>>>,
    /// Behaviour knobs, shared by `Arc` so a hop clones a pointer instead of
    /// copying the config struct under the lock.
    config: RwLock<Arc<NetConfig>>,
    partitions: RwLock<HashSet<(u64, u64)>>,
    /// Destination node -> the backend whose calls reach it. Local nodes
    /// route through [`SimBackend`] (the default, in-process simulated
    /// network); nodes in *other OS processes* route through the socket
    /// peer that reached them.
    backends: RwLock<HashMap<u64, Arc<dyn Backend>>>,
    rng: Mutex<FaultRng>,
    messages: AtomicU64,
    bytes: AtomicU64,
    drops: AtomicU64,
    calls_forwarded: AtomicU64,
    exports: AtomicU64,
    proxies: AtomicU64,
    /// Calls the simulated backend shipped, each in a frame of its own.
    sim_frames: AtomicU64,
    socket_frames_sent: AtomicU64,
    socket_frames_received: AtomicU64,
    socket_bytes_sent: AtomicU64,
    socket_bytes_received: AtomicU64,
    socket_disconnects: AtomicU64,
}

impl NetworkInner {
    pub fn count_export(&self) {
        self.exports.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_proxy(&self) {
        self.proxies.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn server(&self, node: u64) -> Result<Arc<NetServer>, DoorError> {
        self.nodes
            .read()
            .get(&node)
            .cloned()
            .ok_or_else(|| DoorError::Comm(format!("unknown node {node}")))
    }

    /// Registers (or replaces, on reconnect) the backend reaching `node`.
    pub(crate) fn register_backend(&self, node: u64, backend: Arc<dyn Backend>) {
        self.backends.write().insert(node, backend);
    }

    fn backend_of(&self, node: u64) -> Option<Arc<dyn Backend>> {
        self.backends.read().get(&node).cloned()
    }

    /// Whether socket sends may take the same-thread fast path (see
    /// `NetConfig::socket_fastpath`).
    pub(crate) fn socket_fastpath(&self) -> bool {
        self.config.read().socket_fastpath
    }

    pub(crate) fn count_socket_send(&self, bytes: usize) {
        self.socket_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.socket_bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_socket_receive(&self, bytes: usize) {
        self.socket_frames_received.fetch_add(1, Ordering::Relaxed);
        self.socket_bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_socket_disconnect(&self) {
        self.socket_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    fn check_link(&self, a: u64, b: u64) -> Result<(), DoorError> {
        let key = (a.min(b), a.max(b));
        if self.partitions.read().contains(&key) {
            return Err(DoorError::Comm(format!(
                "partition between nodes {a} and {b}"
            )));
        }
        Ok(())
    }

    /// One network hop: latency, jitter, accounting, and (for invocation
    /// traffic) probabilistic loss.
    ///
    /// The RNG mutex is taken at most once per hop — the loss roll and the
    /// jitter fraction are sampled together — and on a fault-free network
    /// (no loss, no jitter) it is not taken at all.
    fn hop(&self, cfg: &NetConfig, bytes: usize, lossy: bool) -> Result<(), DoorError> {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let roll_loss = lossy && cfg.drop_prob > 0.0;
        let roll_jitter = !cfg.jitter.is_zero();
        let mut delay = cfg.latency;
        if roll_loss || roll_jitter {
            let mut rng = self.rng.lock();
            if roll_loss && rng.unit_f64() < cfg.drop_prob {
                drop(rng);
                self.drops.fetch_add(1, Ordering::Relaxed);
                return Err(DoorError::Comm("message lost".into()));
            }
            if roll_jitter {
                delay += cfg.jitter.mul_f64(rng.unit_f64());
            }
        }
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        Ok(())
    }

    /// Forwards a proxy-door invocation to its home node and returns the
    /// reply. `msg`'s identifiers are owned by `from`'s network server.
    ///
    /// The call is marshalled and shipped on the caller's thread, in a
    /// frame of its own, through the backend serving the destination.
    /// Overlapping calls overlap on the wire; nothing waits for company.
    /// A message flagged [`Message::one_way`] ships reply-less and returns
    /// an empty reply once handed to the wire.
    pub(crate) fn forward_call(
        &self,
        from: &Arc<NetServer>,
        target: WireCap,
        msg: Message,
    ) -> Result<Message, DoorError> {
        self.calls_forwarded.fetch_add(1, Ordering::Relaxed);

        // One "net.forward" span per forwarded call; the piggybacked
        // context on the message (stamped by the proxy door's kernel call)
        // wins over the thread-local current span.
        let parent = if msg.trace.is_some() {
            msg.trace
        } else {
            spring_trace::current()
        };
        let mut span =
            spring_trace::span_child_of(keys::NET_FORWARD, parent, from.domain.trace_scope(), 0);
        let mut msg = msg;
        if span.ctx().is_some() {
            msg.trace = span.ctx();
        }

        let result = (|| {
            self.check_link(from.node.raw(), target.origin)?;
            let one_way = msg.one_way;
            let (wire, fresh) = from.to_wire_tracked(msg)?;
            let Some(backend) = self.backend_of(target.origin) else {
                from.unexport(&fresh);
                return Err(DoorError::Comm(format!("unknown node {}", target.origin)));
            };
            if one_way {
                backend
                    .call_oneway(from, target.export, wire, fresh)
                    .map(|()| Message::default())
            } else {
                backend.call(from, target.export, wire, fresh)
            }
        })();
        if result.is_err() {
            span.fail();
        }
        result
    }

    /// The home node's network server, if the link to it is up.
    fn reach(&self, from: &NetServer, origin: u64) -> Result<Arc<NetServer>, DoorError> {
        self.check_link(from.node.raw(), origin)?;
        self.server(origin)
    }

    /// Delivers one call through the simulated backend: a lossy request
    /// hop, delivery and execution on the home node, and a lossy reply hop.
    ///
    /// Partial-failure discipline: a call that never reaches its handler
    /// (partition, lost request, stale export, failed import) releases the
    /// exports freshly pinned for it; a failed execution deletes the
    /// identifiers that landed for it; a reply that cannot leave (partition
    /// formed mid-call) or is lost on the wire releases the identifiers it
    /// carried, since the call already executed and the reply will not be
    /// re-sent.
    pub(crate) fn sim_call(
        &self,
        from: &Arc<NetServer>,
        target: WireCap,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<Message, DoorError> {
        self.sim_frames.fetch_add(1, Ordering::Relaxed);
        let cfg = Arc::clone(&self.config.read());
        let undelivered = |e: DoorError| {
            from.unexport(&fresh);
            e
        };
        let home = self.reach(from, target.origin).map_err(undelivered)?;
        self.traced_hop(&cfg, wire.bytes.len(), true, from.domain.trace_scope())
            .map_err(undelivered)?;
        let door = home.export_target(target.export).map_err(undelivered)?;
        let delivered = home.from_wire(wire).map_err(undelivered)?;
        // Snapshot the landed identifiers: if the kernel call fails before
        // moving them into the serving domain they would be dropped
        // undeleted. Slots are never reused, so the deletes are harmless
        // no-ops when the handler did take ownership.
        let delivered_doors = delivered.doors.clone();
        let reply = match home.domain.call(door, delivered) {
            Ok(reply) => reply,
            Err(e) => {
                for d in delivered_doors {
                    let _ = home.domain.delete_door(d);
                }
                return Err(e);
            }
        };

        if let Err(e) = self.check_link(target.origin, from.node.raw()) {
            for d in reply.doors {
                let _ = home.domain.delete_door(d);
            }
            return Err(e);
        }
        let (reply_wire, reply_fresh) = home.to_wire_tracked(reply)?;
        if let Err(e) = self.traced_hop(
            &cfg,
            reply_wire.bytes.len(),
            true,
            home.domain.trace_scope(),
        ) {
            home.unexport(&reply_fresh);
            return Err(e);
        }
        from.from_wire(reply_wire)
    }

    /// Delivers one reply-less call through the simulated backend: a
    /// single lossy request hop, delivery, execution — and no reply hop at
    /// all. Any doors the handler's reply carries are deleted in the
    /// serving domain, exactly what a socket receiver does with a
    /// `KIND_ONEWAY` frame's reply.
    ///
    /// Failure discipline: an `Err` return means the call did not reach
    /// its handler and `fresh` has been released — the simulator is
    /// omniscient, so it reports even receiver-side delivery failures
    /// (stale export, bad wire) that a real one-way wire would swallow;
    /// callers must treat `Ok` from other backends as fire-and-forget. An
    /// execution failure after delivery returns `Ok` (the wire crossing
    /// happened; one-way callers asked not to know) and only cleans up the
    /// landed identifiers.
    pub(crate) fn sim_call_oneway(
        &self,
        from: &Arc<NetServer>,
        target: WireCap,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<(), DoorError> {
        self.sim_frames.fetch_add(1, Ordering::Relaxed);
        let cfg = Arc::clone(&self.config.read());
        let undelivered = |e: DoorError| {
            from.unexport(&fresh);
            e
        };
        let home = self.reach(from, target.origin).map_err(undelivered)?;
        self.traced_hop(&cfg, wire.bytes.len(), true, from.domain.trace_scope())
            .map_err(undelivered)?;
        spring_kernel::hotpath::count_oneway_frame();
        let door = home.export_target(target.export).map_err(undelivered)?;
        let delivered = home.from_wire(wire).map_err(undelivered)?;
        let delivered_doors = delivered.doors.clone();
        let landed = match home.domain.call(door, delivered) {
            Ok(reply) => reply.doors,
            // Delivered but failed in execution: a one-way caller asked
            // not to hear about it. Clean up the landed identifiers and
            // report the crossing as done.
            Err(_) => delivered_doors,
        };
        for d in landed {
            let _ = home.domain.delete_door(d);
        }
        Ok(())
    }

    /// Wraps [`NetworkInner::hop`] in a "net.hop" span; a dropped message
    /// records as a failed span, so retries read as a failed hop followed by
    /// a successful sibling.
    fn traced_hop(
        &self,
        cfg: &NetConfig,
        bytes: usize,
        lossy: bool,
        scope: u64,
    ) -> Result<(), DoorError> {
        let mut span = spring_trace::span_start(keys::NET_HOP, scope, 0);
        let result = self.hop(cfg, bytes, lossy);
        if result.is_err() {
            span.fail();
        }
        result
    }
}

/// A handle on one machine of the network.
#[derive(Clone)]
pub struct Node {
    kernel: Kernel,
}

impl Node {
    /// The node's kernel; create application domains through it.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The node identifier.
    pub fn id(&self) -> NodeId {
        self.kernel.node_id()
    }
}

/// A simulated multi-machine network.
///
/// # Examples
///
/// ```
/// use spring_net::{NetConfig, Network};
///
/// let net = Network::new(NetConfig::default());
/// let a = net.add_node("alpha");
/// let b = net.add_node("beta");
/// assert_ne!(a.id(), b.id());
/// ```
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl Network {
    /// Creates an empty network with the given behaviour.
    pub fn new(config: NetConfig) -> Arc<Network> {
        Arc::new(Network {
            inner: Arc::new(NetworkInner {
                nodes: RwLock::new(HashMap::new()),
                config: RwLock::new(Arc::new(config)),
                partitions: RwLock::new(HashSet::new()),
                backends: RwLock::new(HashMap::new()),
                rng: Mutex::new(FaultRng::seed_from_u64(0x5u64)),
                messages: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                drops: AtomicU64::new(0),
                calls_forwarded: AtomicU64::new(0),
                exports: AtomicU64::new(0),
                proxies: AtomicU64::new(0),
                sim_frames: AtomicU64::new(0),
                socket_frames_sent: AtomicU64::new(0),
                socket_frames_received: AtomicU64::new(0),
                socket_bytes_sent: AtomicU64::new(0),
                socket_bytes_received: AtomicU64::new(0),
                socket_disconnects: AtomicU64::new(0),
            }),
        })
    }

    /// Adds a machine: a fresh kernel plus its network server domain.
    pub fn add_node(&self, name: impl Into<String>) -> Node {
        self.install_node(Kernel::new(name))
    }

    /// Adds a machine with an explicitly chosen node identifier.
    ///
    /// Node ids are normally process-local counters, so two OS processes
    /// would both mint node 1 and a socket peer's "coming home" detection
    /// (`cap.origin == self.node`) would confuse the two machines. Process
    /// harnesses assign each process a distinct id up front instead.
    pub fn add_node_with_id(&self, name: impl Into<String>, node: u64) -> Node {
        self.install_node(Kernel::with_node_id(name, NodeId::from_raw(node)))
    }

    fn install_node(&self, kernel: Kernel) -> Node {
        let domain = kernel.create_domain("network-server");
        let server = NetServer::new(kernel.node_id(), domain, self.inner.clone());
        let raw = kernel.node_id().raw();
        self.inner.nodes.write().insert(raw, server);
        // Local nodes are reached by the in-process simulated backend.
        self.inner
            .register_backend(raw, Arc::new(SimBackend::new(&self.inner, raw)));
        Node { kernel }
    }

    /// Publishes `door` (owned by `from`) as `node`'s bootstrap door: its
    /// export id is advertised in the socket handshake, so a freshly
    /// connected process has one well-known door to start exchanging
    /// identifiers through. Consumes the identifier.
    pub fn set_bootstrap(
        &self,
        node: NodeId,
        from: &Domain,
        door: DoorId,
    ) -> Result<(), DoorError> {
        let server = self.inner.server(node.raw())?;
        let held = from.transfer_door(door, &server.domain)?;
        let (cap, _fresh) = server.export_cap_tracked(held)?;
        server.set_bootstrap(cap.export);
        Ok(())
    }

    /// Starts accepting socket connections for `node` on a TCP address.
    /// Returns the listener handle (and the bound address, for ephemeral
    /// ports) — dropping the handle stops accepting.
    pub fn listen_tcp(&self, node: NodeId, addr: &str) -> Result<Arc<SocketListener>, DoorError> {
        SocketListener::bind_tcp(&self.inner, node, addr)
    }

    /// Starts accepting socket connections for `node` on a Unix-domain
    /// socket path.
    pub fn listen_uds(&self, node: NodeId, path: &str) -> Result<Arc<SocketListener>, DoorError> {
        SocketListener::bind_uds(&self.inner, node, path)
    }

    /// Connects `node` to a peer process listening on a TCP address.
    ///
    /// The returned peer handle reports the remote node id and bootstrap
    /// export learned in the handshake; proxy doors for the remote machine
    /// route through the connection (redialling on failure).
    pub fn connect_tcp(&self, node: NodeId, addr: &str) -> Result<Arc<SocketPeer>, DoorError> {
        SocketPeer::connect_tcp(&self.inner, node, addr)
    }

    /// Connects `node` to a peer process listening on a Unix-domain socket.
    pub fn connect_uds(&self, node: NodeId, path: &str) -> Result<Arc<SocketPeer>, DoorError> {
        SocketPeer::connect_uds(&self.inner, node, path)
    }

    /// Socket-transport counter snapshot.
    pub fn socket_stats(&self) -> SocketStatsSnapshot {
        SocketStatsSnapshot {
            frames_sent: self.inner.socket_frames_sent.load(Ordering::Relaxed),
            frames_received: self.inner.socket_frames_received.load(Ordering::Relaxed),
            bytes_sent: self.inner.socket_bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.inner.socket_bytes_received.load(Ordering::Relaxed),
            disconnects: self.inner.socket_disconnects.load(Ordering::Relaxed),
        }
    }

    /// Replaces the network behaviour (latency, jitter, loss).
    pub fn set_config(&self, config: NetConfig) {
        *self.inner.config.write() = Arc::new(config);
    }

    /// Reseeds the loss/jitter RNG (determinism for tests).
    pub fn reseed(&self, seed: u64) {
        *self.inner.rng.lock() = FaultRng::seed_from_u64(seed);
    }

    /// Cuts the link between two nodes in both directions.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let key = (a.raw().min(b.raw()), a.raw().max(b.raw()));
        self.inner.partitions.write().insert(key);
    }

    /// Heals the link between two nodes.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let key = (a.raw().min(b.raw()), a.raw().max(b.raw()));
        self.inner.partitions.write().remove(&key);
    }

    /// Heals every partition.
    pub fn heal_all(&self) {
        self.inner.partitions.write().clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStatsSnapshot {
        let frames = self.inner.sim_frames.load(Ordering::Relaxed);
        NetStatsSnapshot {
            messages: self.inner.messages.load(Ordering::Relaxed),
            bytes: self.inner.bytes.load(Ordering::Relaxed),
            drops: self.inner.drops.load(Ordering::Relaxed),
            calls_forwarded: self.inner.calls_forwarded.load(Ordering::Relaxed),
            exports: self.inner.exports.load(Ordering::Relaxed),
            proxies_created: self.inner.proxies.load(Ordering::Relaxed),
            batch_flushes: frames,
            calls_batched: 0,
            calls_unbatched: frames,
        }
    }

    /// Transfers a message (bytes plus door identifiers) from a domain on
    /// one node to a domain on another — how marshalled objects move between
    /// machines. Same-node transfers degrade to plain kernel transfers.
    pub fn ship_message(
        &self,
        from: &Domain,
        to: &Domain,
        msg: Message,
    ) -> Result<Message, DoorError> {
        let from_node = from.kernel().node_id();
        let to_node = to.kernel().node_id();
        if from_node == to_node {
            let mut doors = Vec::with_capacity(msg.doors.len());
            let mut pending = msg.doors.into_iter();
            for d in pending.by_ref() {
                match from.transfer_door(d, to) {
                    Ok(t) => doors.push(t),
                    Err(e) => {
                        // A failed send loses the whole message: delete the
                        // identifiers already landed in the receiver and the
                        // ones not yet sent, rather than stranding a
                        // partially-transferred capability set in two
                        // domains forever.
                        for t in doors {
                            let _ = to.delete_door(t);
                        }
                        for rest in pending {
                            let _ = from.delete_door(rest);
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(Message {
                bytes: msg.bytes,
                doors,
                trace: msg.trace,
                call: msg.call,
                one_way: msg.one_way,
            });
        }

        self.inner.check_link(from_node.raw(), to_node.raw())?;
        let src = self.inner.server(from_node.raw())?;
        let dst = self.inner.server(to_node.raw())?;

        // Move identifiers into the sending network server, map to wire
        // form, hop, and reverse on the receiving side. Object transfers
        // ride a reliable stream, so no loss is applied.
        let mut held = Vec::with_capacity(msg.doors.len());
        let mut pending = msg.doors.into_iter();
        for d in pending.by_ref() {
            match from.transfer_door(d, &src.domain) {
                Ok(t) => held.push(t),
                Err(e) => {
                    // Same discipline as the same-node path: a failed send
                    // loses the message, so nothing stays pinned.
                    for t in held {
                        let _ = src.domain.delete_door(t);
                    }
                    for rest in pending {
                        let _ = from.delete_door(rest);
                    }
                    return Err(e);
                }
            }
        }
        let wire = src.to_wire(Message {
            bytes: msg.bytes,
            doors: held,
            trace: msg.trace,
            call: msg.call,
            one_way: false,
        })?;
        let cfg = Arc::clone(&self.inner.config.read());
        self.inner
            .traced_hop(&cfg, wire.bytes.len(), false, src.domain.trace_scope())?;
        let arrived = dst.from_wire(wire)?;
        let mut doors = Vec::with_capacity(arrived.doors.len());
        let mut pending = arrived.doors.into_iter();
        for d in pending.by_ref() {
            match dst.domain.transfer_door(d, to) {
                Ok(t) => doors.push(t),
                Err(e) => {
                    for t in doors {
                        let _ = to.delete_door(t);
                    }
                    for rest in pending {
                        let _ = dst.domain.delete_door(rest);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Message {
            bytes: arrived.bytes,
            doors,
            trace: arrived.trace,
            call: arrived.call,
            one_way: arrived.one_way,
        })
    }
}

impl subcontract::Transport for Network {
    fn ship(&self, from: &Domain, to: &Domain, msg: Message) -> Result<Message, DoorError> {
        self.ship_message(from, to, msg)
    }
}
