//! The *replicon* subcontract: replication with failover (§5).
//!
//! In replicon, a set of server domains conspire to maintain the underlying
//! state associated with an object; each server accepts incoming calls on
//! its own door. A client object's representation is a set of door
//! identifiers, one per replica. The invoke operation tries each door in
//! turn: "If the door invocation fails due to a communications error, then
//! replicon deletes that door identifier from its set of targets and
//! proceeds to try the next door identifier" (§5.1.3).
//!
//! Replicon "also piggybacks some subcontract control information in the
//! call and reply buffers. This is used to support changes to the replica
//! set": the call carries the client's replica-set epoch; when the server's
//! membership is newer, the reply carries the current epoch and a fresh set
//! of door identifiers, which the client adopts.
//!
//! Clients talk to a single server at a time and "the servers are required
//! to perform their own state synchronization" — see the replicated file
//! service in `spring-services` for a server group that does.

use std::sync::Arc;

use parking_lot::Mutex;
use spring_buf::CommBuffer;
use spring_kernel::{CallCtx, DoorError, DoorHandler, DoorId, Message};
use subcontract::{
    get_obj_header, put_obj_header, redispatch_if_foreign, server_dispatch, Dispatch, DomainCtx,
    ObjParts, Repr, Result, ScId, ServerCtx, SpringError, SpringObj, Subcontract, TypeInfo,
};

use crate::dedup::ReplyCache;
use crate::retry::{Invocation, RetryPolicy};

/// Reply control flag: the client's replica set is current.
const CTRL_CURRENT: u8 = 0;
/// Reply control flag: an updated replica set follows.
const CTRL_UPDATE: u8 = 1;

/// Client representation: the replica-set epoch and one door per replica.
#[derive(Debug)]
struct RepliconRepr {
    state: Mutex<ReplicaState>,
}

#[derive(Debug)]
struct ReplicaState {
    epoch: u64,
    doors: Vec<DoorId>,
}

/// The replicon subcontract (client side).
#[derive(Debug, Default)]
pub struct Replicon {
    policy: RetryPolicy,
}

impl Replicon {
    /// The identifier carried in replicon objects' marshalled form.
    pub const ID: ScId = ScId::from_name("replicon");

    /// Creates the subcontract instance to register in a domain.
    pub fn new() -> Arc<Replicon> {
        Arc::new(Replicon::default())
    }

    /// Creates the subcontract instance with a custom retry policy
    /// (pacing for transient-loss retries; replica failover itself is
    /// immediate and not budgeted).
    pub fn with_policy(policy: RetryPolicy) -> Arc<Replicon> {
        Arc::new(Replicon { policy })
    }

    /// Number of door identifiers a replicon object currently holds
    /// (shrinks as failovers delete dead replicas, grows back when a
    /// piggybacked update arrives).
    pub fn live_replicas(obj: &SpringObj) -> Result<usize> {
        let repr = obj.repr().downcast::<RepliconRepr>("replicon")?;
        Ok(repr.state.lock().doors.len())
    }

    /// The replica-set epoch the object currently knows.
    pub fn epoch(obj: &SpringObj) -> Result<u64> {
        let repr = obj.repr().downcast::<RepliconRepr>("replicon")?;
        Ok(repr.state.lock().epoch)
    }
}

impl Subcontract for Replicon {
    fn id(&self) -> ScId {
        Self::ID
    }

    fn name(&self) -> &'static str {
        "replicon"
    }

    fn invoke_preamble(&self, obj: &SpringObj, call: &mut CommBuffer) -> Result<()> {
        // Piggyback the client's epoch so the server can detect staleness.
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        call.put_u64(repr.state.lock().epoch);
        Ok(())
    }

    fn invoke(&self, obj: &SpringObj, call: CommBuffer) -> Result<CommBuffer> {
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        let domain = obj.ctx().domain();
        let msg = call.into_message();
        let (bytes, arg_doors, trace) = (msg.bytes, msg.doors, msg.trace);

        // One logical call across every failover and retry: all attempts
        // share the nonce, so whichever replica executed the first attempt
        // can be recognized through the group's shared reply cache.
        let mut inv = Invocation::begin(self.policy);
        loop {
            // Snapshot the first target under the lock; call outside it.
            let target = match repr.state.lock().doors.first() {
                Some(d) => *d,
                None => return Err(SpringError::Exhausted("no live replicas")),
            };
            let attempt = Message {
                bytes: bytes.clone(),
                doors: arg_doors.clone(),
                trace,
                call: inv.call_id(),
                ..Message::default()
            };
            // One span per attempt, tagged with the attempt number: a
            // failover shows up in the trace as a failed sibling followed
            // by the successful retry.
            let mut attempt_span = spring_trace::span_start(
                "replicon.attempt",
                domain.trace_scope(),
                inv.attempt() as u64,
            );
            let outcome = domain.call(target, attempt);
            if outcome.is_err() {
                attempt_span.fail();
            }
            drop(attempt_span);
            match outcome {
                Ok(reply) => {
                    let mut reply = CommBuffer::from_message(reply);
                    self.absorb_reply_control(obj, &mut reply)?;
                    return Ok(reply);
                }
                Err(DoorError::Comm(_)) => {
                    // Transient network failure: the replica behind the
                    // door may be healthy — and may already have executed
                    // this call. Keep the identifier, rotate it to the back
                    // of the set, and retry after a backoff against the
                    // attempt/deadline budget.
                    let mut state = repr.state.lock();
                    if let Some(pos) = state.doors.iter().position(|d| *d == target) {
                        let d = state.doors.remove(pos);
                        state.doors.push(d);
                    }
                    drop(state);
                    inv.backoff()?;
                }
                Err(e) if e.is_comm_failure() => {
                    // The replica itself is gone (door revoked, domain
                    // dead): delete the dead door identifier from the
                    // target set and fail over to the next one immediately
                    // (§5.1.3).
                    let mut state = repr.state.lock();
                    if let Some(pos) = state.doors.iter().position(|d| *d == target) {
                        state.doors.remove(pos);
                    }
                    drop(state);
                    let _ = domain.delete_door(target);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn marshal(&self, ctx: &Arc<DomainCtx>, parts: ObjParts, buf: &mut CommBuffer) -> Result<()> {
        let _ = ctx;
        let repr = parts.repr.into_downcast::<RepliconRepr>(self.name())?;
        let state = repr.state.into_inner();
        put_obj_header(buf, Self::ID, &parts.type_name);
        buf.put_u64(state.epoch);
        buf.put_seq_len(state.doors.len());
        for d in state.doors {
            buf.put_door(d);
        }
        Ok(())
    }

    fn marshal_copy(&self, obj: &SpringObj, buf: &mut CommBuffer) -> Result<()> {
        // Optimized copy-then-marshal (§5.1.5): duplicate every replica
        // identifier straight into the buffer, skipping the intermediate
        // object (and its Mutex, Box, and Vec) entirely.
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        let state = repr.state.lock();
        put_obj_header(buf, Self::ID, obj.type_name());
        buf.put_u64(state.epoch);
        buf.put_seq_len(state.doors.len());
        for d in &state.doors {
            buf.put_door(obj.ctx().domain().copy_door(*d)?);
        }
        Ok(())
    }

    fn unmarshal(
        &self,
        ctx: &Arc<DomainCtx>,
        expected: &'static TypeInfo,
        buf: &mut CommBuffer,
    ) -> Result<SpringObj> {
        if let Some(obj) = redispatch_if_foreign(Self::ID, ctx, expected, buf)? {
            return Ok(obj);
        }
        let (_, wire_name, actual) = get_obj_header(ctx, expected, buf)?;
        let epoch = buf.get_u64()?;
        let n = buf.get_seq_len(4)?;
        let mut doors = Vec::with_capacity(n);
        for _ in 0..n {
            doors.push(buf.get_door()?);
        }
        Ok(SpringObj::assemble_from_wire(
            ctx.clone(),
            wire_name,
            actual,
            ctx.lookup_subcontract(Self::ID)?,
            Repr::new(RepliconRepr {
                state: Mutex::new(ReplicaState { epoch, doors }),
            }),
        ))
    }

    fn copy(&self, obj: &SpringObj) -> Result<SpringObj> {
        let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
        let state = repr.state.lock();
        let mut doors = Vec::with_capacity(state.doors.len());
        for d in &state.doors {
            doors.push(obj.ctx().domain().copy_door(*d)?);
        }
        let epoch = state.epoch;
        drop(state);
        Ok(obj.assemble_like(Repr::new(RepliconRepr {
            state: Mutex::new(ReplicaState { epoch, doors }),
        })))
    }

    fn consume(&self, ctx: &Arc<DomainCtx>, parts: ObjParts) -> Result<()> {
        let repr = parts.repr.into_downcast::<RepliconRepr>(self.name())?;
        for d in repr.state.into_inner().doors {
            // A replica may have died; its identifier is still ours to
            // delete, and failures here must not mask the others.
            let _ = ctx.domain().delete_door(d);
        }
        Ok(())
    }
}

impl Replicon {
    /// Reads the reply control region and adopts a piggybacked replica-set
    /// update when present.
    fn absorb_reply_control(&self, obj: &SpringObj, reply: &mut CommBuffer) -> Result<()> {
        match reply.get_u8()? {
            CTRL_CURRENT => Ok(()),
            CTRL_UPDATE => {
                let epoch = reply.get_u64()?;
                let n = reply.get_seq_len(4)?;
                let mut fresh = Vec::with_capacity(n);
                for _ in 0..n {
                    fresh.push(reply.get_door()?);
                }
                let repr = obj.repr().downcast::<RepliconRepr>(self.name())?;
                let old = {
                    let mut state = repr.state.lock();
                    if epoch <= state.epoch {
                        // Raced with a newer update; drop the stale one.
                        drop(state);
                        for d in fresh {
                            let _ = obj.ctx().domain().delete_door(d);
                        }
                        return Ok(());
                    }
                    state.epoch = epoch;
                    std::mem::replace(&mut state.doors, fresh)
                };
                for d in old {
                    let _ = obj.ctx().domain().delete_door(d);
                }
                Ok(())
            }
            other => Err(SpringError::Remote(format!(
                "bad replicon control flag {other}"
            ))),
        }
    }
}

#[derive(Debug)]
struct Membership {
    epoch: u64,
    /// Identifiers for every member's door, owned by this server's domain.
    members: Vec<DoorId>,
}

/// One replica's server-side replicon machinery.
pub struct RepliconServer {
    ctx: Arc<DomainCtx>,
    disp: Arc<dyn Dispatch>,
    /// The server's own identifier for its own door.
    master: DoorId,
    membership: Arc<Mutex<Membership>>,
    /// Replaceable reply-cache slot, shared with the door handler. Joining
    /// a [`ReplicaGroup`] points it at the *group's* cache: a retried call
    /// that fails over to a sibling replica must still be recognized as a
    /// duplicate, which is part of the state synchronization the paper
    /// leaves to the servers.
    dedup: Arc<Mutex<Arc<ReplyCache>>>,
}

struct RepliconHandler {
    ctx: Arc<DomainCtx>,
    disp: Arc<dyn Dispatch>,
    membership: Arc<Mutex<Membership>>,
    dedup: Arc<Mutex<Arc<ReplyCache>>>,
}

impl DoorHandler for RepliconHandler {
    fn invoke(
        &self,
        cctx: &CallCtx,
        msg: Message,
    ) -> std::result::Result<Message, spring_kernel::DoorError> {
        let cache = self.dedup.lock().clone();
        cache.serve(msg, |msg| self.execute(cctx, msg))
    }
}

impl RepliconHandler {
    fn execute(
        &self,
        cctx: &CallCtx,
        msg: Message,
    ) -> std::result::Result<Message, spring_kernel::DoorError> {
        let mut args = CommBuffer::from_message(msg);
        let client_epoch = args
            .get_u64()
            .map_err(|e| spring_kernel::DoorError::Handler(format!("bad replicon control: {e}")))?;

        let mut reply = CommBuffer::new();
        // Piggyback a replica-set update when the client is stale (§5.1.3).
        {
            let membership = self.membership.lock();
            if client_epoch < membership.epoch {
                reply.put_u8(CTRL_UPDATE);
                reply.put_u64(membership.epoch);
                reply.put_seq_len(membership.members.len());
                for d in &membership.members {
                    let copy = self.ctx.domain().copy_door(*d).map_err(|e| {
                        spring_kernel::DoorError::Handler(format!("membership copy: {e}"))
                    })?;
                    reply.put_door(copy);
                }
            } else {
                reply.put_u8(CTRL_CURRENT);
            }
        }

        let sctx = ServerCtx {
            ctx: self.ctx.clone(),
            caller: cctx.caller,
        };
        server_dispatch(&sctx, &*self.disp, &mut args, &mut reply)?;
        Ok(reply.into_message())
    }
}

impl RepliconServer {
    /// Creates one replica server: its door plus empty membership (joining a
    /// [`ReplicaGroup`] fills the membership in).
    pub fn new(ctx: &Arc<DomainCtx>, disp: Arc<dyn Dispatch>) -> Result<Arc<RepliconServer>> {
        ctx.types().register(disp.type_info());
        let membership = Arc::new(Mutex::new(Membership {
            epoch: 0,
            members: Vec::new(),
        }));
        let dedup = Arc::new(Mutex::new(Arc::new(ReplyCache::default())));
        let handler = Arc::new(RepliconHandler {
            ctx: ctx.clone(),
            disp: disp.clone(),
            membership: membership.clone(),
            dedup: dedup.clone(),
        });
        let master = ctx.domain().create_door(handler)?;
        Ok(Arc::new(RepliconServer {
            ctx: ctx.clone(),
            disp,
            master,
            membership,
            dedup,
        }))
    }

    /// The serving domain's context.
    pub fn ctx(&self) -> &Arc<DomainCtx> {
        &self.ctx
    }

    /// Counter snapshot of the reply cache this replica currently serves
    /// from (the group-wide cache once the replica has joined a group).
    pub fn dedup_stats(&self) -> crate::dedup::DedupStats {
        self.dedup.lock().stats()
    }

    /// True while the serving domain is alive.
    pub fn is_alive(&self) -> bool {
        self.ctx.domain().is_alive()
    }
}

/// Group coordinator: tracks the replica membership, bumps the epoch on
/// change, and distributes fresh door sets to every live replica.
///
/// In Spring this coordination is part of the server application ("the
/// servers are required to perform their own state synchronization"); the
/// group object plays that role for tests, examples, and benches. Replicas
/// may live on different machines when the group is built over a network
/// transport ([`ReplicaGroup::with_transport`]).
pub struct ReplicaGroup {
    inner: Mutex<GroupInner>,
    transport: Arc<dyn subcontract::Transport>,
    /// The group-wide reply cache every member serves from, so duplicate
    /// suppression survives failover between replicas.
    dedup: Arc<ReplyCache>,
}

impl Default for ReplicaGroup {
    fn default() -> Self {
        ReplicaGroup::new()
    }
}

#[derive(Default)]
struct GroupInner {
    epoch: u64,
    servers: Vec<Arc<RepliconServer>>,
}

impl ReplicaGroup {
    /// Creates an empty single-machine group.
    pub fn new() -> ReplicaGroup {
        ReplicaGroup::with_transport(Arc::new(subcontract::KernelTransport))
    }

    /// Creates an empty group whose door identifiers move through the given
    /// transport (for replicas spread across machines).
    pub fn with_transport(transport: Arc<dyn subcontract::Transport>) -> ReplicaGroup {
        ReplicaGroup {
            inner: Mutex::new(GroupInner::default()),
            transport,
            dedup: Arc::new(ReplyCache::default()),
        }
    }

    /// Copies `member`'s master identifier into the `to` domain via the
    /// group's transport.
    fn door_for(&self, member: &RepliconServer, to: &spring_kernel::Domain) -> Result<DoorId> {
        let copy = member.ctx.domain().copy_door(member.master)?;
        let msg = Message {
            bytes: Vec::new(),
            doors: vec![copy],
            ..Message::default()
        };
        let mut arrived = self.transport.ship(member.ctx.domain(), to, msg)?;
        arrived
            .doors
            .pop()
            .ok_or(SpringError::Exhausted("transport dropped the identifier"))
    }

    /// Adds a replica and redistributes membership. The joining replica is
    /// switched onto the group's shared reply cache, so a client retry that
    /// lands on a different member still deduplicates.
    pub fn add(&self, server: Arc<RepliconServer>) -> Result<()> {
        *server.dedup.lock() = self.dedup.clone();
        let mut inner = self.inner.lock();
        inner.servers.push(server);
        self.redistribute(&mut inner)
    }

    /// Drops replicas whose domains have crashed and redistributes
    /// membership (how the surviving servers learn about a failure).
    pub fn remove_dead(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.servers.retain(|s| s.is_alive());
        self.redistribute(&mut inner)
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Number of live replicas.
    pub fn len(&self) -> usize {
        self.inner.lock().servers.len()
    }

    /// True when the group has no replicas.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().servers.is_empty()
    }

    fn redistribute(&self, inner: &mut GroupInner) -> Result<()> {
        inner.epoch += 1;
        let epoch = inner.epoch;
        for receiver in &inner.servers {
            let mut fresh = Vec::with_capacity(inner.servers.len());
            for member in &inner.servers {
                fresh.push(self.door_for(member, receiver.ctx.domain())?);
            }
            let mut membership = receiver.membership.lock();
            let old = std::mem::replace(&mut membership.members, fresh);
            membership.epoch = epoch;
            drop(membership);
            for d in old {
                let _ = receiver.ctx.domain().delete_door(d);
            }
        }
        Ok(())
    }

    /// Fabricates a client object for the group in `ctx`'s domain, holding
    /// one door identifier per live replica.
    pub fn object_for(&self, ctx: &Arc<DomainCtx>) -> Result<SpringObj> {
        let inner = self.inner.lock();
        let first = inner
            .servers
            .first()
            .ok_or(SpringError::Exhausted("replica group is empty"))?;
        let type_info = first.disp.type_info();
        ctx.types().register(type_info);
        let mut doors = Vec::with_capacity(inner.servers.len());
        for member in &inner.servers {
            doors.push(self.door_for(member, ctx.domain())?);
        }
        let epoch = inner.epoch;
        drop(inner);
        Ok(SpringObj::assemble(
            ctx.clone(),
            type_info,
            ctx.lookup_subcontract(Replicon::ID)?,
            Repr::new(RepliconRepr {
                state: Mutex::new(ReplicaState { epoch, doors }),
            }),
        ))
    }
}
