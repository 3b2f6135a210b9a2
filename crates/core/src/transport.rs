//! Object transport between domains.
//!
//! Moving an object between domains means moving a marshalled message —
//! bytes plus door identifiers — and the mechanics differ by distance: on
//! one machine the kernel transfers the identifiers directly, across
//! machines the network servers map them to and from their extended network
//! form (§3.3). Infrastructure that must move objects outside of a door
//! call (the name-service bootstrap, replicon group management, test
//! harnesses) takes a [`Transport`] so the same code works in both settings.

use std::sync::Arc;

use spring_buf::CommBuffer;
use spring_kernel::{Domain, DoorError, Message};

use crate::ctx::DomainCtx;
use crate::error::Result;
use crate::object::SpringObj;
use crate::types::TypeInfo;
use crate::unmarshal::unmarshal_object;

/// Moves raw messages (bytes + door identifiers) between domains.
pub trait Transport: Send + Sync {
    /// Delivers `msg` from `from`'s address space to `to`'s, transferring
    /// every door identifier it carries.
    fn ship(
        &self,
        from: &Domain,
        to: &Domain,
        msg: Message,
    ) -> std::result::Result<Message, DoorError>;
}

/// Same-machine transport: plain kernel transfers.
#[derive(Debug, Default)]
pub struct KernelTransport;

impl Transport for KernelTransport {
    fn ship(
        &self,
        from: &Domain,
        to: &Domain,
        msg: Message,
    ) -> std::result::Result<Message, DoorError> {
        if from.kernel().node_id() != to.kernel().node_id() {
            return Err(DoorError::Comm(
                "kernel transport cannot cross machines; use a network transport".into(),
            ));
        }
        let mut doors = Vec::with_capacity(msg.doors.len());
        for d in msg.doors {
            doors.push(from.transfer_door(d, to)?);
        }
        Ok(Message {
            bytes: msg.bytes,
            doors,
            trace: msg.trace,
            call: msg.call,
            one_way: msg.one_way,
        })
    }
}

/// Transmits an object to another domain: marshal, ship, unmarshal.
///
/// The object is consumed (transmission moves it, §3.2). `expected` is the
/// type the receiver handles the object at; pass the object's own type to
/// preserve it when both sides know it.
pub fn ship_object(
    transport: &dyn Transport,
    obj: SpringObj,
    to: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
) -> Result<SpringObj> {
    let from = obj.ctx().domain().clone();
    let mut span = spring_trace::span_start("ship", from.trace_scope(), 0);
    let mut buf = CommBuffer::pooled();
    obj.marshal(&mut buf)?;
    let mut msg = buf.into_message();
    // Stamp the envelope so the transport's far side reattaches under this
    // span (the network transport serializes the context into its wire
    // form).
    if span.ctx().is_some() {
        msg.trace = span.ctx();
    }
    let arrived = match transport.ship(&from, to.domain(), msg) {
        Ok(m) => m,
        Err(e) => {
            span.fail();
            return Err(e.into());
        }
    };
    let mut buf = CommBuffer::from_message(arrived);
    unmarshal_object(to, expected, &mut buf)
}

/// Transmits a copy of the object, leaving the original in place.
pub fn ship_object_copy(
    transport: &dyn Transport,
    obj: &SpringObj,
    to: &Arc<DomainCtx>,
    expected: &'static TypeInfo,
) -> Result<SpringObj> {
    let from = obj.ctx().domain().clone();
    let mut span = spring_trace::span_start("ship", from.trace_scope(), 0);
    let mut buf = CommBuffer::pooled();
    obj.marshal_copy(&mut buf)?;
    let mut msg = buf.into_message();
    if span.ctx().is_some() {
        msg.trace = span.ctx();
    }
    let arrived = match transport.ship(&from, to.domain(), msg) {
        Ok(m) => m,
        Err(e) => {
            span.fail();
            return Err(e.into());
        }
    };
    let mut buf = CommBuffer::from_message(arrived);
    unmarshal_object(to, expected, &mut buf)
}
