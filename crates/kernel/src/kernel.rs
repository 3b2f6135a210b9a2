//! The simulated nucleus itself.
//!
//! # Locking
//!
//! Kernel state is split so concurrent door calls from different domains do
//! not serialize on one lock (see DESIGN.md, "Concurrency model"):
//!
//! * `domains` — an `RwLock` map from [`DomainId`] to a shared
//!   [`DomainState`]. Calls only ever take the read side; the write side is
//!   taken by `create_domain` alone. Entries are never removed (a crashed
//!   domain stays in the map with `alive == false`), so a fetched
//!   `Arc<DomainState>` stays meaningful forever.
//! * Per-domain door tables — each `DomainState` carries its own `Mutex`
//!   over the slot → raw-door table.
//! * Door shards — door entries (handler, server, refcount, revoked flag)
//!   live in `DOOR_SHARDS` independently locked maps keyed by raw door id.
//!
//! Lock-ordering rules (deadlock freedom):
//!
//! 1. The `domains` map lock is fetch-and-release: it is never held while
//!    acquiring any other lock.
//! 2. A domain table lock is acquired before a door shard lock, never after.
//! 3. When two domain tables are needed (transfer, translate), they are
//!    acquired in ascending [`DomainId`] order.
//! 4. At most one door shard lock is held at a time.
//! 5. No kernel lock is held across handler `invoke` or `unreferenced`
//!    callbacks.
//!
//! A null call (no identifiers in the message) therefore touches exactly one
//! domain-table lock and one shard lock, both uncontended unless another
//! thread is operating on the same domain or the same shard.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::domain::{CallCtx, Domain, DoorHandler};
use crate::error::DoorError;
use crate::id::{DomainId, DoorId, NodeId, ShmId};
use crate::message::Message;
use crate::pool;
use crate::shm::ShmRegion;
use crate::stats::{KernelStats, StatsSnapshot};

static NEXT_NODE: AtomicU64 = AtomicU64::new(1);

/// Number of door shards; a power of two so shard selection is a mask.
const DOOR_SHARDS: usize = 16;

/// One machine's nucleus: manages domains, doors, and door identifiers.
///
/// All operations on door identifiers go through the kernel, which validates
/// capability ownership on every call. Handles are cheaply cloneable.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<Inner>,
}

struct Inner {
    node: NodeId,
    name: String,
    domains: RwLock<HashMap<DomainId, Arc<DomainState>>>,
    door_shards: Box<[Mutex<HashMap<u64, DoorEntry>>; DOOR_SHARDS]>,
    shm: Mutex<HashMap<ShmId, ShmRegion>>,
    next_domain: AtomicU64,
    next_door: AtomicU64,
    next_slot: AtomicU64,
    next_shm: AtomicU64,
    stats: KernelStats,
}

struct DomainState {
    name: String,
    /// Cleared by `crash_domain` under the table lock; readers that need the
    /// flag ordered with table contents check it while holding the lock.
    alive: AtomicBool,
    /// Door table: slot number -> raw door.
    table: Mutex<HashMap<u64, u64>>,
}

struct DoorEntry {
    server: DomainId,
    handler: Arc<dyn DoorHandler>,
    /// Number of outstanding identifiers across all domains.
    refs: u64,
    revoked: bool,
}

impl Inner {
    fn domain(&self, id: DomainId) -> Option<Arc<DomainState>> {
        self.domains.read().get(&id).cloned()
    }

    /// Locks a domain's door table, counting the acquisition as contended
    /// when another thread holds it.
    fn lock_table<'a>(&self, ds: &'a DomainState) -> MutexGuard<'a, HashMap<u64, u64>> {
        match ds.table.try_lock() {
            Some(g) => g,
            None => {
                self.stats.table_lock_waits.fetch_add(1, Ordering::Relaxed);
                ds.table.lock()
            }
        }
    }

    /// Locks the shard holding raw door `raw`, counting contention.
    fn lock_shard(&self, raw: u64) -> MutexGuard<'_, HashMap<u64, DoorEntry>> {
        let shard = &self.door_shards[raw as usize & (DOOR_SHARDS - 1)];
        match shard.try_lock() {
            Some(g) => g,
            None => {
                self.stats.shard_lock_waits.fetch_add(1, Ordering::Relaxed);
                shard.lock()
            }
        }
    }
}

/// Two domain door tables locked in ascending `DomainId` order, degenerating
/// to a single guard when source and destination are the same domain.
enum Tables<'a> {
    Same(MutexGuard<'a, HashMap<u64, u64>>),
    Two {
        from: MutexGuard<'a, HashMap<u64, u64>>,
        to: MutexGuard<'a, HashMap<u64, u64>>,
    },
}

impl<'a> Tables<'a> {
    fn lock(
        inner: &Inner,
        from: (&'a DomainState, DomainId),
        to: (&'a DomainState, DomainId),
    ) -> Tables<'a> {
        if from.1 == to.1 {
            Tables::Same(inner.lock_table(from.0))
        } else if from.1 < to.1 {
            let f = inner.lock_table(from.0);
            let t = inner.lock_table(to.0);
            Tables::Two { from: f, to: t }
        } else {
            let t = inner.lock_table(to.0);
            let f = inner.lock_table(from.0);
            Tables::Two { from: f, to: t }
        }
    }

    fn src_tab(&mut self) -> &mut HashMap<u64, u64> {
        match self {
            Tables::Same(g) => g,
            Tables::Two { from, .. } => from,
        }
    }

    fn dst_tab(&mut self) -> &mut HashMap<u64, u64> {
        match self {
            Tables::Same(g) => g,
            Tables::Two { to, .. } => to,
        }
    }
}

impl Kernel {
    /// Creates a fresh kernel (one simulated machine).
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_raw_node(name, NEXT_NODE.fetch_add(1, Ordering::Relaxed))
    }

    /// Creates a kernel with an explicit node identifier.
    ///
    /// Node identifiers are process-local counters, so two kernels in two
    /// *different OS processes* would both claim node 1 — and a socket
    /// transport connecting them could no longer tell "coming home" doors
    /// from foreign ones. Processes that talk to each other over real
    /// sockets assign their kernels distinct ids up front (the bench
    /// harness passes them on the command line). The process-local counter
    /// is bumped past the given id, so later `Kernel::new` calls in the
    /// same process never collide with it.
    pub fn with_node_id(name: impl Into<String>, node: NodeId) -> Self {
        NEXT_NODE.fetch_max(node.raw() + 1, Ordering::Relaxed);
        Self::with_raw_node(name, node.raw())
    }

    fn with_raw_node(name: impl Into<String>, raw: u64) -> Self {
        Kernel {
            inner: Arc::new(Inner {
                node: NodeId(raw),
                name: name.into(),
                domains: RwLock::new(HashMap::new()),
                door_shards: Box::new(std::array::from_fn(|_| Mutex::new(HashMap::new()))),
                shm: Mutex::new(HashMap::new()),
                next_domain: AtomicU64::new(1),
                next_door: AtomicU64::new(1),
                next_slot: AtomicU64::new(1),
                next_shm: AtomicU64::new(1),
                stats: KernelStats::default(),
            }),
        }
    }

    /// This kernel's node identifier (unique within the process).
    pub fn node_id(&self) -> NodeId {
        self.inner.node
    }

    /// The machine name given at creation.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Counter snapshot for benchmarking and tests.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Number of doors currently in existence.
    pub fn live_doors(&self) -> usize {
        self.inner.door_shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Creates a new domain (a simulated address space).
    pub fn create_domain(&self, name: impl Into<String>) -> Domain {
        let id = DomainId(self.inner.next_domain.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(DomainState {
            name: name.into(),
            alive: AtomicBool::new(true),
            table: Mutex::new(HashMap::new()),
        });
        self.inner.domains.write().insert(id, state);
        Domain::new(self.clone(), id)
    }

    /// Rebuilds a [`Domain`] handle from an id (infrastructure use).
    pub fn domain_handle(&self, id: DomainId) -> Domain {
        Domain::new(self.clone(), id)
    }

    /// Creates a shared-memory region of `size` bytes.
    pub fn create_shm(&self, size: usize) -> ShmRegion {
        let id = ShmId(self.inner.next_shm.fetch_add(1, Ordering::Relaxed));
        let region = ShmRegion::new(id, size);
        self.inner.shm.lock().insert(id, region.clone());
        region
    }

    /// Looks up a shared-memory region by identifier.
    pub fn lookup_shm(&self, id: ShmId) -> Result<ShmRegion, DoorError> {
        self.inner
            .shm
            .lock()
            .get(&id)
            .cloned()
            .ok_or(DoorError::InvalidShm)
    }

    /// Removes a shared-memory region from the registry.
    pub fn destroy_shm(&self, id: ShmId) {
        self.inner.shm.lock().remove(&id);
    }

    pub(crate) fn domain_name(&self, id: DomainId) -> String {
        self.inner
            .domain(id)
            .map(|d| d.name.clone())
            .unwrap_or_default()
    }

    pub(crate) fn domain_alive(&self, id: DomainId) -> bool {
        self.inner
            .domain(id)
            .map(|d| d.alive.load(Ordering::Relaxed))
            .unwrap_or(false)
    }

    fn fresh_slot(&self) -> u64 {
        self.inner.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up the raw door a live identifier refers to, validating
    /// capability ownership. Returns the domain state alongside so callers
    /// can reuse it without re-reading the domains map.
    fn resolve(&self, domain: DomainId, id: DoorId) -> Result<(Arc<DomainState>, u64), DoorError> {
        if id.owner != domain {
            return Err(DoorError::InvalidDoor);
        }
        let ds = self.inner.domain(domain).ok_or(DoorError::DomainDead)?;
        let raw = {
            let table = self.inner.lock_table(&ds);
            if !ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            table.get(&id.slot).copied().ok_or(DoorError::InvalidDoor)?
        };
        Ok((ds, raw))
    }

    pub(crate) fn create_door(
        &self,
        domain: DomainId,
        handler: Arc<dyn DoorHandler>,
    ) -> Result<DoorId, DoorError> {
        let raw = self.inner.next_door.fetch_add(1, Ordering::Relaxed);
        let slot = self.fresh_slot();
        let ds = self.inner.domain(domain).ok_or(DoorError::DomainDead)?;
        {
            // Hold the table lock across the shard insert so a concurrent
            // crash_domain either sees the slot (and reaps the door) or
            // fails this create with DomainDead — never a leaked door.
            let mut table = self.inner.lock_table(&ds);
            if !ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            table.insert(slot, raw);
            self.inner.lock_shard(raw).insert(
                raw,
                DoorEntry {
                    server: domain,
                    handler,
                    refs: 1,
                    revoked: false,
                },
            );
        }
        self.inner
            .stats
            .doors_created
            .fetch_add(1, Ordering::Relaxed);
        self.inner.stats.ids_issued.fetch_add(1, Ordering::Relaxed);
        Ok(DoorId {
            owner: domain,
            slot,
        })
    }

    pub(crate) fn copy_door(&self, domain: DomainId, id: DoorId) -> Result<DoorId, DoorError> {
        if id.owner != domain {
            return Err(DoorError::InvalidDoor);
        }
        let slot = self.fresh_slot();
        let ds = self.inner.domain(domain).ok_or(DoorError::DomainDead)?;
        {
            // The table lock pins our reference: while an entry for `raw`
            // exists in this table, refs >= 1 and the door cannot vanish.
            let mut table = self.inner.lock_table(&ds);
            if !ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            let raw = *table.get(&id.slot).ok_or(DoorError::InvalidDoor)?;
            self.inner
                .lock_shard(raw)
                .get_mut(&raw)
                .ok_or(DoorError::InvalidDoor)?
                .refs += 1;
            table.insert(slot, raw);
        }
        self.inner.stats.ids_issued.fetch_add(1, Ordering::Relaxed);
        Ok(DoorId {
            owner: domain,
            slot,
        })
    }

    pub(crate) fn transfer_door(
        &self,
        from: DomainId,
        id: DoorId,
        to: DomainId,
    ) -> Result<DoorId, DoorError> {
        if id.owner != from {
            return Err(DoorError::InvalidDoor);
        }
        let slot = self.fresh_slot();
        let from_ds = self.inner.domain(from).ok_or(DoorError::DomainDead)?;
        let to_ds = self.inner.domain(to).ok_or(DoorError::DomainDead)?;
        {
            let mut tables = Tables::lock(&self.inner, (&from_ds, from), (&to_ds, to));
            if !from_ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            let raw = *tables
                .src_tab()
                .get(&id.slot)
                .ok_or(DoorError::InvalidDoor)?;
            if !to_ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            tables.dst_tab().insert(slot, raw);
            tables.src_tab().remove(&id.slot);
        }
        self.inner
            .stats
            .ids_transferred
            .fetch_add(1, Ordering::Relaxed);
        Ok(DoorId { owner: to, slot })
    }

    pub(crate) fn delete_door(&self, domain: DomainId, id: DoorId) -> Result<(), DoorError> {
        let (ds, _) = self.resolve(domain, id)?;
        let raw = {
            let mut table = self.inner.lock_table(&ds);
            // Re-check under the lock: the slot may have been consumed by a
            // concurrent transfer or crash since resolve released it.
            match table.remove(&id.slot) {
                Some(raw) => raw,
                None => return Err(DoorError::InvalidDoor),
            }
        };
        self.inner.stats.ids_deleted.fetch_add(1, Ordering::Relaxed);
        // The removed table entry was our reference; dropping it cannot race
        // with anyone else dropping the same reference.
        let notify = self.drop_ref(raw);
        self.notify_unreferenced(notify);
        Ok(())
    }

    /// Decrements a door's identifier count, removing the door when it hits
    /// zero. Returns the handler to notify, if any. Caller must invoke the
    /// notification outside all kernel locks.
    fn drop_ref(&self, raw: u64) -> Option<Arc<dyn DoorHandler>> {
        let mut shard = self.inner.lock_shard(raw);
        let entry = shard.get_mut(&raw)?;
        entry.refs -= 1;
        if entry.refs == 0 {
            let entry = shard.remove(&raw).expect("entry exists");
            Some(entry.handler)
        } else {
            None
        }
    }

    fn notify_unreferenced(&self, handler: Option<Arc<dyn DoorHandler>>) {
        if let Some(h) = handler {
            self.inner
                .stats
                .unref_notifications
                .fetch_add(1, Ordering::Relaxed);
            // A handler panic during cleanup must not take down the caller.
            let _ = catch_unwind(AssertUnwindSafe(|| h.unreferenced()));
        }
    }

    pub(crate) fn revoke_door(&self, domain: DomainId, id: DoorId) -> Result<(), DoorError> {
        let (_, raw) = self.resolve(domain, id)?;
        {
            let mut shard = self.inner.lock_shard(raw);
            let entry = shard.get_mut(&raw).ok_or(DoorError::InvalidDoor)?;
            if entry.server != domain {
                return Err(DoorError::NotPermitted);
            }
            entry.revoked = true;
        }
        self.inner.stats.revocations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Resolves an identifier to its kernel-internal door token. Two
    /// identifiers denote the same door iff their tokens are equal.
    ///
    /// This pierces capability opacity, so it is meant for *trusted
    /// infrastructure* only — Spring's network servers, which must recognize
    /// doors they have already exported or proxied when mapping door
    /// identifiers to and from their extended network form (§3.3).
    pub(crate) fn door_token(&self, domain: DomainId, id: DoorId) -> Result<u64, DoorError> {
        self.resolve(domain, id).map(|(_, raw)| raw)
    }

    pub(crate) fn door_is_valid(&self, domain: DomainId, id: DoorId) -> bool {
        self.resolve(domain, id).is_ok()
    }

    /// Marks a domain dead: doors it serves are revoked and every identifier
    /// it owns is deleted.
    pub(crate) fn crash_domain(&self, id: DomainId) {
        let Some(ds) = self.inner.domain(id) else {
            return;
        };
        let owned: Vec<u64> = {
            let mut table = self.inner.lock_table(&ds);
            // The alive flag flips under the table lock, so concurrent
            // create/copy/transfer into this domain either completed (their
            // slots are drained here) or will observe alive == false.
            if !ds.alive.swap(false, Ordering::Relaxed) {
                return;
            }
            table.drain().map(|(_, raw)| raw).collect()
        };

        // Revoke every door this domain serves, one shard at a time.
        let mut revoked = 0u64;
        for shard in self.inner.door_shards.iter() {
            for door in shard.lock().values_mut() {
                if door.server == id && !door.revoked {
                    door.revoked = true;
                    revoked += 1;
                }
            }
        }
        self.inner
            .stats
            .revocations
            .fetch_add(revoked, Ordering::Relaxed);
        self.inner
            .stats
            .ids_deleted
            .fetch_add(owned.len() as u64, Ordering::Relaxed);

        let mut notifications = Vec::new();
        for raw in owned {
            if let Some(h) = self.drop_ref(raw) {
                notifications.push(h);
            }
        }
        for h in notifications {
            self.notify_unreferenced(Some(h));
        }
    }

    /// Executes a door call from `caller` on identifier `id`.
    pub(crate) fn call(
        &self,
        caller: DomainId,
        id: DoorId,
        msg: Message,
    ) -> Result<Message, DoorError> {
        // Phase 1: validate the identifier and pick up the handler. One
        // table lock, one shard lock, both released before the handler runs.
        let (caller_ds, raw) = self.resolve(caller, id)?;
        let (handler, server) = {
            let shard = self.inner.lock_shard(raw);
            // The entry can be gone if the caller domain crashed between
            // resolve and here (draining dropped the last reference); the
            // door is no longer reachable, which callers see as revocation.
            let entry = shard.get(&raw).ok_or(DoorError::Revoked)?;
            if entry.revoked {
                return Err(DoorError::Revoked);
            }
            (Arc::clone(&entry.handler), entry.server)
        };
        let server_ds = self.inner.domain(server).ok_or(DoorError::Revoked)?;
        if !server_ds.alive.load(Ordering::Relaxed) {
            return Err(DoorError::Revoked);
        }

        self.inner.stats.door_calls.fetch_add(1, Ordering::Relaxed);

        // The traced variant lives in a cold out-of-line function so the
        // default path pays exactly one relaxed load for tracing — no span
        // guard on the stack, no extra branches in the hot body.
        if spring_trace::enabled() {
            return self.call_traced(&caller_ds, caller, &server_ds, server, raw, handler, msg);
        }
        self.call_body(&caller_ds, caller, &server_ds, server, handler, msg)
    }

    /// Phases 2 and 3 of a door call: deliver the message, run the handler
    /// outside all locks on the caller's thread, translate the reply back.
    #[inline(always)]
    fn call_body(
        &self,
        caller_ds: &Arc<DomainState>,
        caller: DomainId,
        server_ds: &Arc<DomainState>,
        server: DomainId,
        handler: Arc<dyn DoorHandler>,
        msg: Message,
    ) -> Result<Message, DoorError> {
        let delivered = self.translate(caller_ds, caller, server_ds, server, msg)?;
        let ctx = CallCtx {
            caller,
            server: self.domain_handle(server),
        };
        let reply = match catch_unwind(AssertUnwindSafe(|| handler.invoke(&ctx, delivered))) {
            Ok(result) => result?,
            Err(_) => return Err(DoorError::Handler("door handler panicked".into())),
        };
        self.translate(server_ds, server, caller_ds, caller, reply)
    }

    /// A door call with tracing enabled: one "door_call" span per call,
    /// keyed by the raw door token so per-door latency histograms
    /// accumulate. The piggybacked context on the message wins over the
    /// thread-local current span — a context that crossed a serialization
    /// boundary (the simulated network) reattaches here; within one machine
    /// the two agree because door calls shuttle the caller's thread.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn call_traced(
        &self,
        caller_ds: &Arc<DomainState>,
        caller: DomainId,
        server_ds: &Arc<DomainState>,
        server: DomainId,
        raw: u64,
        handler: Arc<dyn DoorHandler>,
        mut msg: Message,
    ) -> Result<Message, DoorError> {
        let parent = if msg.trace.is_some() {
            msg.trace
        } else {
            spring_trace::current()
        };
        let scope = (self.inner.node.0 << 32) | server.0;
        let mut span = spring_trace::span_child_of("door_call", parent, scope, raw);
        msg.trace = span.ctx();

        let mut result = self.call_body(caller_ds, caller, server_ds, server, handler, msg);
        match &mut result {
            Err(_) => span.fail(),
            // Stamp the reply so whoever forwards it (the network server's
            // reply hop) keeps the trace connected; a handler that already
            // set a context keeps its own.
            Ok(reply) => {
                if reply.trace.is_none() {
                    reply.trace = span.ctx();
                }
            }
        }
        result
    }

    /// Copies a message's payload (the simulated cross-address-space copy)
    /// and transfers its door identifiers from `from` to `to`. Same-domain
    /// (D2) deliveries skip the copy: both sides share one address space, so
    /// the payload moves by reference.
    fn translate(
        &self,
        from_ds: &Arc<DomainState>,
        from: DomainId,
        to_ds: &Arc<DomainState>,
        to: DomainId,
        msg: Message,
    ) -> Result<Message, DoorError> {
        let Message {
            bytes: src,
            doors: sent,
            trace,
            call,
            one_way,
        } = msg;
        let bytes = if from == to {
            // D2: caller and server live in the same domain, so "crossing"
            // the boundary moves no bytes — the ownership transfer of the
            // backing is the delivery. Door identifiers still go through
            // slot translation below so capability accounting stays exact.
            self.inner
                .stats
                .local_deliveries
                .fetch_add(1, Ordering::Relaxed);
            src
        } else if src.is_empty() {
            // Copying nothing: an empty Vec never allocates, so the pool
            // would only add counter noise here.
            Vec::new()
        } else {
            // Physical copy: a real kernel copies payload bytes between
            // address spaces; this is the cost shared-memory subcontracts
            // avoid. The copy target comes from the buffer pool and the
            // consumed source backing goes back to it, so steady-state calls
            // do not allocate.
            self.inner
                .stats
                .bytes_copied
                .fetch_add(src.len() as u64, Ordering::Relaxed);
            let mut bytes = pool::take(src.len());
            bytes.extend_from_slice(&src);
            pool::give(src);
            bytes
        };

        if sent.is_empty() {
            // Fast path: no identifiers to move, no table locks needed.
            if !to_ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            return Ok(Message {
                bytes,
                doors: Vec::new(),
                trace,
                call,
                one_way,
            });
        }

        let mut doors = Vec::with_capacity(sent.len());
        {
            let mut tables = Tables::lock(&self.inner, (from_ds, from), (to_ds, to));
            // Validate every identifier before moving any, so a bad message
            // leaves the sender's table untouched.
            if !from_ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            let mut raws = Vec::with_capacity(sent.len());
            for d in &sent {
                if d.owner != from {
                    return Err(DoorError::InvalidDoor);
                }
                raws.push(
                    *tables
                        .src_tab()
                        .get(&d.slot)
                        .ok_or(DoorError::InvalidDoor)?,
                );
            }
            if !to_ds.alive.load(Ordering::Relaxed) {
                return Err(DoorError::DomainDead);
            }
            for (d, raw) in sent.iter().zip(raws) {
                tables.src_tab().remove(&d.slot);
                let slot = self.inner.next_slot.fetch_add(1, Ordering::Relaxed);
                tables.dst_tab().insert(slot, raw);
                doors.push(DoorId { owner: to, slot });
            }
        }
        self.inner
            .stats
            .ids_transferred
            .fetch_add(doors.len() as u64, Ordering::Relaxed);
        Ok(Message {
            bytes,
            doors,
            trace,
            call,
            one_way,
        })
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({:?}, {:?})", self.inner.node, self.inner.name)
    }
}
