//! Per-node network server: export tables and proxy doors.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spring_kernel::{CallCtx, CallId, Domain, DoorError, DoorHandler, DoorId, Message, NodeId};
use spring_trace::TraceCtx;

use crate::network::NetworkInner;

/// A door identifier in its extended network form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct WireCap {
    /// The node whose kernel serves the underlying door.
    pub origin: u64,
    /// Index into the origin node's export table.
    pub export: u64,
}

/// A message in wire form.
///
/// The payload storage *moves* through the wire boundary rather than being
/// copied: `to_wire` takes `Message.bytes` by value into this struct and
/// `from_wire` moves it back out, so a forwarded call's payload is
/// allocated once (from the thread-local buffer pool) and handed along.
/// The simulated cross-address-space copy happens in the kernel's
/// `translate`, where a real system pays it too.
#[derive(Debug)]
pub(crate) struct WireMessage {
    pub bytes: Vec<u8>,
    pub caps: Vec<WireCap>,
    /// The piggybacked trace context, serialized to its 16-byte wire form —
    /// genuinely flattened and rebuilt on each side of the simulated
    /// serialization boundary, so cross-machine propagation exercises the
    /// same path a real network stack would.
    pub trace: [u8; 16],
    /// The piggybacked call identity, serialized to its 20-byte wire form
    /// alongside the trace context — same envelope channel, same
    /// flatten/rebuild discipline, so at-most-once retries stay
    /// deduplicatable across machines without any stub changes.
    pub call: [u8; 20],
}

#[derive(Default)]
struct Tables {
    /// Export id -> the identifier the network server pins for remote users.
    exports: HashMap<u64, DoorId>,
    /// Door token -> export id (dedup: one export per door).
    exports_by_token: HashMap<u64, u64>,
    /// (origin, export) -> the retained identifier for the local proxy door.
    proxies: HashMap<WireCap, DoorId>,
    /// Door token of a proxy door -> its network target.
    proxies_by_token: HashMap<u64, WireCap>,
}

/// One node's network server.
pub(crate) struct NetServer {
    pub(crate) node: NodeId,
    pub(crate) domain: Domain,
    tables: Mutex<Tables>,
    next_export: AtomicU64,
    /// Export id of the published bootstrap door, advertised in the socket
    /// handshake so freshly connected processes have one well-known door
    /// to start exchanging identifiers through.
    bootstrap: Mutex<Option<u64>>,
    net: Arc<NetworkInner>,
}

impl NetServer {
    pub(crate) fn new(node: NodeId, domain: Domain, net: Arc<NetworkInner>) -> Arc<NetServer> {
        Arc::new(NetServer {
            node,
            domain,
            tables: Mutex::new(Tables::default()),
            next_export: AtomicU64::new(1),
            bootstrap: Mutex::new(None),
            net,
        })
    }

    /// Maps a door identifier (owned by this network server's domain) to
    /// network form, consuming the identifier. Also reports whether the
    /// call created a *fresh* export-table entry (as opposed to reusing an
    /// existing export or passing a proxy target through). Only fresh
    /// entries may be rolled back by [`NetServer::unexport`]: a reused
    /// entry is shared with every other node already holding a proxy.
    pub(crate) fn export_cap_tracked(&self, door: DoorId) -> Result<(WireCap, bool), DoorError> {
        let token = self.domain.door_token(door)?;
        let mut tables = self.tables.lock();

        // A proxy door heading back out: pass its target through unchanged.
        if let Some(&target) = tables.proxies_by_token.get(&token) {
            drop(tables);
            self.domain.delete_door(door)?;
            return Ok((target, false));
        }

        // Already exported: the duplicate identifier is redundant.
        if let Some(&export) = tables.exports_by_token.get(&token) {
            drop(tables);
            self.domain.delete_door(door)?;
            return Ok((
                WireCap {
                    origin: self.node.raw(),
                    export,
                },
                false,
            ));
        }

        let export = self.next_export.fetch_add(1, Ordering::Relaxed);
        tables.exports.insert(export, door);
        tables.exports_by_token.insert(token, export);
        self.net.count_export();
        Ok((
            WireCap {
                origin: self.node.raw(),
                export,
            },
            true,
        ))
    }

    /// Rolls back export-table entries created for a message that was never
    /// delivered: each entry is removed and its pinned identifier deleted,
    /// so a send lost on the wire does not pin doors forever. Must only be
    /// given export ids reported fresh by the matching
    /// [`NetServer::to_wire_tracked`] call.
    pub(crate) fn unexport(&self, fresh: &[u64]) {
        let mut tables = self.tables.lock();
        for &export in fresh {
            if let Some(door) = tables.exports.remove(&export) {
                if let Ok(token) = self.domain.door_token(door) {
                    tables.exports_by_token.remove(&token);
                }
                let _ = self.domain.delete_door(door);
            }
        }
    }

    /// Maps a network-form capability back to a door identifier owned by
    /// this network server's domain.
    pub(crate) fn import_cap(self: &Arc<Self>, cap: WireCap) -> Result<DoorId, DoorError> {
        if cap.origin == self.node.raw() {
            // The identifier came home: mint a fresh one for the receiver.
            let tables = self.tables.lock();
            let pinned = *tables
                .exports
                .get(&cap.export)
                .ok_or_else(|| DoorError::Comm(format!("stale export {}", cap.export)))?;
            drop(tables);
            return self.domain.copy_door(pinned);
        }

        // Foreign door: reuse or fabricate a proxy.
        {
            let tables = self.tables.lock();
            if let Some(&retained) = tables.proxies.get(&cap) {
                drop(tables);
                return self.domain.copy_door(retained);
            }
        }
        let handler = Arc::new(ProxyHandler {
            target: cap,
            server: Arc::downgrade(self),
        });
        let retained = self.domain.create_door(handler)?;
        let issued = self.domain.copy_door(retained)?;
        let token = self.domain.door_token(retained)?;
        let mut tables = self.tables.lock();
        tables.proxies.insert(cap, retained);
        tables.proxies_by_token.insert(token, cap);
        self.net.count_proxy();
        Ok(issued)
    }

    /// Records the export id of the published bootstrap door.
    pub(crate) fn set_bootstrap(&self, export: u64) {
        *self.bootstrap.lock() = Some(export);
    }

    /// The export id advertised to connecting processes, if any.
    pub(crate) fn bootstrap_export(&self) -> Option<u64> {
        *self.bootstrap.lock()
    }

    /// Resolves an export id to the pinned door for call delivery.
    pub(crate) fn export_target(&self, export: u64) -> Result<DoorId, DoorError> {
        self.tables
            .lock()
            .exports
            .get(&export)
            .copied()
            .ok_or_else(|| DoorError::Comm(format!("stale export {export}")))
    }

    /// Converts an outbound message (identifiers owned by this server's
    /// domain) to wire form.
    pub(crate) fn to_wire(&self, msg: Message) -> Result<WireMessage, DoorError> {
        self.to_wire_tracked(msg).map(|(wire, _)| wire)
    }

    /// Like [`NetServer::to_wire`], but additionally returns the export ids
    /// freshly pinned for this message, so a caller whose subsequent hop
    /// fails can release them with [`NetServer::unexport`] instead of
    /// leaking one pinned door per lost send. If exporting fails partway,
    /// the entries already created for this message are rolled back before
    /// the error propagates.
    pub(crate) fn to_wire_tracked(
        &self,
        msg: Message,
    ) -> Result<(WireMessage, Vec<u64>), DoorError> {
        let mut caps = Vec::with_capacity(msg.doors.len());
        let mut fresh = Vec::new();
        let mut doors = msg.doors.into_iter();
        for d in doors.by_ref() {
            match self.export_cap_tracked(d) {
                Ok((cap, is_fresh)) => {
                    if is_fresh {
                        fresh.push(cap.export);
                    }
                    caps.push(cap);
                }
                Err(e) => {
                    self.unexport(&fresh);
                    // The failing identifier and the ones not yet exported
                    // would otherwise be dropped undeleted.
                    let _ = self.domain.delete_door(d);
                    for rest in doors {
                        let _ = self.domain.delete_door(rest);
                    }
                    return Err(e);
                }
            }
        }
        Ok((
            WireMessage {
                bytes: msg.bytes,
                caps,
                trace: msg.trace.to_bytes(),
                call: msg.call.to_bytes(),
            },
            fresh,
        ))
    }

    /// Converts an inbound wire message to a local message whose identifiers
    /// are owned by this server's domain.
    pub(crate) fn from_wire(self: &Arc<Self>, wire: WireMessage) -> Result<Message, DoorError> {
        let mut doors = Vec::with_capacity(wire.caps.len());
        for cap in wire.caps {
            match self.import_cap(cap) {
                Ok(d) => doors.push(d),
                Err(e) => {
                    // Roll back the identifiers already issued for this
                    // message; the call is not going to be delivered.
                    for d in doors {
                        let _ = self.domain.delete_door(d);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Message {
            bytes: wire.bytes,
            doors,
            trace: TraceCtx::from_bytes(wire.trace),
            call: CallId::from_bytes(wire.call),
            one_way: false,
        })
    }
}

/// Handler for a proxy door: forwards invocations across the network.
struct ProxyHandler {
    target: WireCap,
    server: std::sync::Weak<NetServer>,
}

impl DoorHandler for ProxyHandler {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        let server = self
            .server
            .upgrade()
            .ok_or_else(|| DoorError::Comm("network server shut down".into()))?;
        // The kernel has already translated `msg`'s identifiers into the
        // network server's domain; forward over the network.
        server.net.forward_call(&server, self.target, msg)
    }
}
