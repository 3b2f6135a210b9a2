//! Pluggable call backends, plus the byte-level frame codec the socket
//! backend speaks.
//!
//! Everything above this line — proxy doors, `to_wire`/`from_wire`
//! mapping, the partial-failure discipline — is backend agnostic: a
//! forwarded call, already in wire form, is handed to whichever [`Backend`]
//! serves the destination node, on the caller's thread. The default
//! backend is the in-process simulated network ([`SimBackend`], which
//! preserves the seeded fault behaviour); the socket backend
//! ([`crate::socket::SocketPeer`]) ships the same calls over TCP or
//! Unix-domain sockets between real OS processes. Subcontracts cannot tell
//! the difference except by the failure modes DESIGN.md §5.15 documents.

use std::sync::{Arc, Weak};

use spring_kernel::{DoorError, Message};

use crate::network::NetworkInner;
use crate::server::{NetServer, WireCap, WireMessage};

/// Carries forwarded calls to one destination node.
///
/// Contract (DESIGN.md §5.15):
///
/// * Each call travels in a frame of its own and settles exactly once:
///   through the return value, on the caller's thread. Overlapping calls
///   overlap on the wire; no call waits for another.
/// * Failures are reported through the existing taxonomy: anything a
///   retrying subcontract should treat as transient (lost frame, dead
///   connection, stale export on a restarted peer) is
///   [`DoorError::Comm`], so replicon/reconnectable machinery works
///   unchanged over any backend.
/// * A call that fails before it reaches its serving domain releases the
///   export-table entries freshly pinned for it (`fresh`, through
///   [`NetServer::unexport`]); a call that was delivered and then failed
///   leaves them, since the destination may already reference them.
pub(crate) trait Backend: Send + Sync {
    /// Ships one call to export `export` on the destination node and
    /// returns its reply, with the reply's identifiers owned by `from`'s
    /// network server domain.
    fn call(
        &self,
        from: &Arc<NetServer>,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<Message, DoorError>;

    /// Ships one reply-less call (DESIGN.md §5.16): the frame crosses the
    /// wire once and no reply frame ever comes back.
    ///
    /// The contract shifts accordingly. An error return means the call
    /// provably did not reach the destination (link down, lost frame,
    /// stale export) and `fresh` has been released; `Ok` means the call
    /// was handed to the wire — whether the handler then succeeded is
    /// unknowable by design, and any doors its reply would have carried
    /// are deleted at the serving side. Socket backends may report `Ok`
    /// for a frame the peer never reads (death races the write); only
    /// best-effort traffic belongs here.
    fn call_oneway(
        &self,
        from: &Arc<NetServer>,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<(), DoorError>;
}

/// The default backend: calls delivered through the in-process simulated
/// network, with its seeded latency/jitter/loss model.
pub(crate) struct SimBackend {
    net: Weak<NetworkInner>,
    /// Destination node this backend reaches.
    origin: u64,
}

impl SimBackend {
    pub(crate) fn new(net: &Arc<NetworkInner>, origin: u64) -> SimBackend {
        SimBackend {
            net: Arc::downgrade(net),
            origin,
        }
    }

    fn net(&self, from: &NetServer, fresh: &[u64]) -> Result<Arc<NetworkInner>, DoorError> {
        self.net.upgrade().ok_or_else(|| {
            from.unexport(fresh);
            DoorError::Comm("network shut down".into())
        })
    }
}

impl Backend for SimBackend {
    fn call(
        &self,
        from: &Arc<NetServer>,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<Message, DoorError> {
        let target = WireCap {
            origin: self.origin,
            export,
        };
        self.net(from, &fresh)?.sim_call(from, target, wire, fresh)
    }

    fn call_oneway(
        &self,
        from: &Arc<NetServer>,
        export: u64,
        wire: WireMessage,
        fresh: Vec<u64>,
    ) -> Result<(), DoorError> {
        let target = WireCap {
            origin: self.origin,
            export,
        };
        self.net(from, &fresh)?
            .sim_call_oneway(from, target, wire, fresh)
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------
//
// The socket backend exchanges length-prefixed frames (the prefix handled
// by `spring_kernel::framing`); the payload layout here is deliberately
// flat and little-endian throughout:
//
//   HELLO:   [kind=1][u64 node][u8 has_boot][u64 boot_export]
//            [u16 name_len][name bytes]
//   REQUEST: [kind=2][u64 frame_id][u32 ncalls] then per call
//            [u64 export][20B call id][16B trace][u32 ncaps]
//            [ncaps × (u64 origin, u64 export)][u32 nbytes][payload]
//   REPLY:   [kind=3][u64 frame_id][u32 ncalls] then per call
//            [u8 status] where status 0 (ok) is followed by
//            [20B call id][16B trace][u32 ncaps][caps][u32 nbytes][payload]
//            and statuses 1 (not delivered) / 2 (failed in execution) by
//            [u8 error kind][u32 msg_len][utf-8 message]
//   ONEWAY:  [kind=4] then exactly the REQUEST layout after the kind byte;
//            no REPLY frame is ever produced for it
//
// Senders always write `ncalls = 1`: each forwarded call travels in a
// frame of its own, and coalescing happens only in the socket writer's
// vectored write. Receivers still accept and validate any count, since
// that input comes from outside the process.
//
// The payload bytes are the marshalled `WireMessage.bytes` **unmodified**:
// a flat IDL frame produced by the PR 6 codegen travels byte-identical and
// is validated in place on the receive side's read buffer — the socket
// layer never re-marshals, re-aligns, or re-tags application payloads.
//
// Decoding is fully defensive and returns `spring_buf::WireError`: a frame
// whose declared counts or lengths disagree with the bytes received is
// rejected with `Truncated`/`OverLength`, unknown kind/status/error tags
// with `BadTag` — never a panic, never an out-of-bounds read, never a
// hang (the outer length prefix bounds every read up front).

use spring_buf::WireError;

pub(crate) const KIND_HELLO: u8 = 1;
pub(crate) const KIND_REQUEST: u8 = 2;
pub(crate) const KIND_REPLY: u8 = 3;
/// A reply-less request: per-call layout identical to `KIND_REQUEST`, but
/// the receiver sends nothing back and the sender registers no waiter.
/// Doors a reply would have carried are deleted at the serving side.
pub(crate) const KIND_ONEWAY: u8 = 4;

/// Reply status: the call executed and this is its reply.
const STATUS_OK: u8 = 0;
/// Reply status: the call never reached its serving domain (stale export,
/// failed import); the sender must release the exports it pinned.
const STATUS_NOT_DELIVERED: u8 = 1;
/// Reply status: the call was delivered but failed in execution.
const STATUS_FAILED: u8 = 2;

/// The connection-opening exchange: each side sends one HELLO first thing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Hello {
    pub node: u64,
    pub name: String,
    /// Export id of the node's bootstrap door, if it published one.
    pub bootstrap: Option<u64>,
}

/// One call riding a request frame.
#[derive(Debug)]
pub(crate) struct RequestCall {
    pub export: u64,
    pub wire: WireMessage,
}

/// A decoded request frame.
#[derive(Debug)]
pub(crate) struct RequestFrame {
    pub id: u64,
    pub calls: Vec<RequestCall>,
}

/// Per-call outcome riding a reply frame.
#[derive(Debug)]
pub(crate) enum ReplyOutcome {
    Ok(WireMessage),
    /// Failed before the call reached its serving domain: the *sender*
    /// still owns responsibility for the exports it pinned for this call
    /// and must release them (mirrors the simulated backend's
    /// `from_wire`-failure discipline).
    NotDelivered(DoorError),
    /// Delivered but failed in execution; the serving side has already
    /// cleaned up the landed identifiers, the sender's pins stay (the
    /// receiving node's proxy table references them), exactly as in the
    /// simulated backend.
    Failed(DoorError),
}

/// A decoded reply frame.
#[derive(Debug)]
pub(crate) struct ReplyFrame {
    pub id: u64,
    pub outcomes: Vec<ReplyOutcome>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_error(out: &mut Vec<u8>, e: &DoorError) {
    let (kind, msg): (u8, &str) = match e {
        DoorError::InvalidDoor => (0, ""),
        DoorError::Revoked => (1, ""),
        DoorError::DomainDead => (2, ""),
        DoorError::Comm(m) => (3, m),
        DoorError::Handler(m) => (4, m),
        DoorError::NotPermitted => (5, ""),
        DoorError::InvalidShm => (6, ""),
    };
    out.push(kind);
    put_u32(out, msg.len() as u32);
    out.extend_from_slice(msg.as_bytes());
}

fn put_wire(out: &mut Vec<u8>, wire: &WireMessage) {
    out.extend_from_slice(&wire.call);
    out.extend_from_slice(&wire.trace);
    put_u32(out, wire.caps.len() as u32);
    for cap in &wire.caps {
        put_u64(out, cap.origin);
        put_u64(out, cap.export);
    }
    put_u32(out, wire.bytes.len() as u32);
    out.extend_from_slice(&wire.bytes);
}

pub(crate) fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + hello.name.len());
    out.push(KIND_HELLO);
    put_u64(&mut out, hello.node);
    out.push(hello.bootstrap.is_some() as u8);
    put_u64(&mut out, hello.bootstrap.unwrap_or(0));
    let name = &hello.name.as_bytes()[..hello.name.len().min(u16::MAX as usize)];
    put_u16(&mut out, name.len() as u16);
    out.extend_from_slice(name);
    out
}

/// Encodes a request-shaped frame (`KIND_REQUEST` or `KIND_ONEWAY`) from
/// the calls' wire messages. `calls` pairs each target export with its
/// wire form.
fn encode_calls(kind: u8, id: u64, calls: &[(u64, &WireMessage)]) -> Vec<u8> {
    let payload: usize = calls.iter().map(|(_, w)| 48 + w.bytes.len()).sum();
    let mut out = Vec::with_capacity(16 + payload);
    out.push(kind);
    put_u64(&mut out, id);
    put_u32(&mut out, calls.len() as u32);
    for (export, wire) in calls {
        put_u64(&mut out, *export);
        put_wire(&mut out, wire);
    }
    out
}

pub(crate) fn encode_request(id: u64, calls: &[(u64, &WireMessage)]) -> Vec<u8> {
    encode_calls(KIND_REQUEST, id, calls)
}

pub(crate) fn encode_oneway(id: u64, calls: &[(u64, &WireMessage)]) -> Vec<u8> {
    encode_calls(KIND_ONEWAY, id, calls)
}

pub(crate) fn encode_reply(id: u64, outcomes: &[ReplyOutcome]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(KIND_REPLY);
    put_u64(&mut out, id);
    put_u32(&mut out, outcomes.len() as u32);
    for outcome in outcomes {
        match outcome {
            ReplyOutcome::Ok(wire) => {
                out.push(STATUS_OK);
                put_wire(&mut out, wire);
            }
            ReplyOutcome::NotDelivered(e) => {
                out.push(STATUS_NOT_DELIVERED);
                put_error(&mut out, e);
            }
            ReplyOutcome::Failed(e) => {
                out.push(STATUS_FAILED);
                put_error(&mut out, e);
            }
        }
    }
    out
}

/// A bounds-checked little-endian cursor over one received frame. Every
/// read is validated against the frame length, so a lying count or length
/// field produces a typed [`WireError`] instead of a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated {
            needed: usize::MAX,
            actual: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                needed: end,
                actual: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The frame must be fully consumed: trailing bytes mean the declared
    /// counts disagree with the received length.
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::OverLength {
                expected: self.pos,
                actual: self.buf.len(),
            });
        }
        Ok(())
    }
}

fn get_error(c: &mut Cursor<'_>) -> Result<DoorError, WireError> {
    let kind_off = c.pos;
    let kind = c.u8()?;
    let len = c.u32()? as usize;
    let msg_off = c.pos;
    let msg = String::from_utf8_lossy(c.take(len)?).into_owned();
    Ok(match kind {
        0 => DoorError::InvalidDoor,
        1 => DoorError::Revoked,
        2 => DoorError::DomainDead,
        3 => DoorError::Comm(msg),
        4 => DoorError::Handler(msg),
        5 => DoorError::NotPermitted,
        6 => DoorError::InvalidShm,
        other => {
            let _ = msg_off;
            return Err(WireError::BadTag {
                offset: kind_off,
                value: other as u32,
            });
        }
    })
}

fn get_wire(c: &mut Cursor<'_>) -> Result<WireMessage, WireError> {
    let call: [u8; 20] = c.take(20)?.try_into().unwrap();
    let trace: [u8; 16] = c.take(16)?.try_into().unwrap();
    let ncaps = c.u32()? as usize;
    // Bound the pre-allocation by what the frame could actually hold (16
    // bytes per cap), so a lying count fails on the read, not the reserve.
    let mut caps = Vec::with_capacity(ncaps.min(c.buf.len() / 16 + 1));
    for _ in 0..ncaps {
        let origin = c.u64()?;
        let export = c.u64()?;
        caps.push(WireCap { origin, export });
    }
    let nbytes = c.u32()? as usize;
    // The payload is copied out of the read buffer exactly once — the
    // receive copy a real network always pays. Downstream flat decoding
    // validates in place on this very allocation.
    let bytes = c.take(nbytes)?.to_vec();
    Ok(WireMessage {
        bytes,
        caps,
        trace,
        call,
    })
}

/// Peeks at a frame's kind byte without consuming anything.
pub(crate) fn frame_kind(frame: &[u8]) -> Result<u8, WireError> {
    frame.first().copied().ok_or(WireError::Truncated {
        needed: 1,
        actual: 0,
    })
}

pub(crate) fn decode_hello(frame: &[u8]) -> Result<Hello, WireError> {
    let mut c = Cursor::new(frame);
    expect_kind(&mut c, KIND_HELLO)?;
    let node = c.u64()?;
    let has_boot = c.u8()?;
    if has_boot > 1 {
        return Err(WireError::BadBool {
            offset: 9,
            value: has_boot,
        });
    }
    let boot = c.u64()?;
    let name_len = c.u16()? as usize;
    let name = String::from_utf8_lossy(c.take(name_len)?).into_owned();
    c.finish()?;
    Ok(Hello {
        node,
        name,
        bootstrap: (has_boot == 1).then_some(boot),
    })
}

fn expect_kind(c: &mut Cursor<'_>, kind: u8) -> Result<(), WireError> {
    let got = c.u8()?;
    if got != kind {
        return Err(WireError::BadTag {
            offset: 0,
            value: got as u32,
        });
    }
    Ok(())
}

fn decode_calls(kind: u8, frame: &[u8]) -> Result<RequestFrame, WireError> {
    let mut c = Cursor::new(frame);
    expect_kind(&mut c, kind)?;
    let id = c.u64()?;
    let ncalls = c.u32()? as usize;
    let mut calls = Vec::with_capacity(ncalls.min(c.buf.len() / 48 + 1));
    for _ in 0..ncalls {
        let export = c.u64()?;
        let wire = get_wire(&mut c)?;
        calls.push(RequestCall { export, wire });
    }
    c.finish()?;
    Ok(RequestFrame { id, calls })
}

pub(crate) fn decode_request(frame: &[u8]) -> Result<RequestFrame, WireError> {
    decode_calls(KIND_REQUEST, frame)
}

pub(crate) fn decode_oneway(frame: &[u8]) -> Result<RequestFrame, WireError> {
    decode_calls(KIND_ONEWAY, frame)
}

pub(crate) fn decode_reply(frame: &[u8]) -> Result<ReplyFrame, WireError> {
    let mut c = Cursor::new(frame);
    expect_kind(&mut c, KIND_REPLY)?;
    let id = c.u64()?;
    let ncalls = c.u32()? as usize;
    let mut outcomes = Vec::with_capacity(ncalls.min(c.buf.len() + 1));
    for _ in 0..ncalls {
        let status_off = c.pos;
        let status = c.u8()?;
        outcomes.push(match status {
            STATUS_OK => ReplyOutcome::Ok(get_wire(&mut c)?),
            STATUS_NOT_DELIVERED => ReplyOutcome::NotDelivered(get_error(&mut c)?),
            STATUS_FAILED => ReplyOutcome::Failed(get_error(&mut c)?),
            other => {
                return Err(WireError::BadTag {
                    offset: status_off,
                    value: other as u32,
                })
            }
        });
    }
    c.finish()?;
    Ok(ReplyFrame { id, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_wire(payload: &[u8], caps: &[(u64, u64)]) -> WireMessage {
        WireMessage {
            bytes: payload.to_vec(),
            caps: caps
                .iter()
                .map(|&(origin, export)| WireCap { origin, export })
                .collect(),
            trace: [7; 16],
            call: [9; 20],
        }
    }

    #[test]
    fn hello_round_trip() {
        for boot in [None, Some(41)] {
            let hello = Hello {
                node: 12,
                name: "peer-a".into(),
                bootstrap: boot,
            };
            let enc = encode_hello(&hello);
            assert_eq!(frame_kind(&enc).unwrap(), KIND_HELLO);
            assert_eq!(decode_hello(&enc).unwrap(), hello);
        }
    }

    #[test]
    fn request_round_trip_preserves_payload_and_envelope() {
        let w1 = sample_wire(b"abcdef", &[(1, 2), (3, 4)]);
        let w2 = sample_wire(b"", &[]);
        let enc = encode_request(77, &[(10, &w1), (11, &w2)]);
        let dec = decode_request(&enc).unwrap();
        assert_eq!(dec.id, 77);
        assert_eq!(dec.calls.len(), 2);
        assert_eq!(dec.calls[0].export, 10);
        assert_eq!(dec.calls[0].wire.bytes, b"abcdef");
        assert_eq!(dec.calls[0].wire.caps.len(), 2);
        assert_eq!(dec.calls[0].wire.caps[1].export, 4);
        assert_eq!(dec.calls[0].wire.trace, [7; 16]);
        assert_eq!(dec.calls[0].wire.call, [9; 20]);
        assert_eq!(dec.calls[1].export, 11);
        assert!(dec.calls[1].wire.bytes.is_empty());
    }

    #[test]
    fn oneway_round_trip_shares_request_layout() {
        let w = sample_wire(b"notify", &[(1, 2)]);
        let enc = encode_oneway(42, &[(10, &w)]);
        assert_eq!(frame_kind(&enc).unwrap(), KIND_ONEWAY);
        let dec = decode_oneway(&enc).unwrap();
        assert_eq!(dec.id, 42);
        assert_eq!(dec.calls.len(), 1);
        assert_eq!(dec.calls[0].export, 10);
        assert_eq!(dec.calls[0].wire.bytes, b"notify");
        // Byte-identical to a request frame except the kind byte, so every
        // defensive-decoding property proven for requests carries over.
        let req = encode_request(42, &[(10, &w)]);
        assert_eq!(enc[1..], req[1..]);
        assert!(matches!(
            decode_request(&enc).unwrap_err(),
            WireError::BadTag { .. }
        ));
        assert!(matches!(
            decode_oneway(&req).unwrap_err(),
            WireError::BadTag { .. }
        ));
        for cut in 0..enc.len() {
            assert!(decode_oneway(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn reply_round_trip_all_statuses() {
        let enc = encode_reply(
            5,
            &[
                ReplyOutcome::Ok(sample_wire(b"xy", &[(8, 9)])),
                ReplyOutcome::NotDelivered(DoorError::Comm("stale export 3".into())),
                ReplyOutcome::Failed(DoorError::Handler("boom".into())),
                ReplyOutcome::Failed(DoorError::Revoked),
            ],
        );
        let dec = decode_reply(&enc).unwrap();
        assert_eq!(dec.id, 5);
        assert_eq!(dec.outcomes.len(), 4);
        assert!(matches!(&dec.outcomes[0], ReplyOutcome::Ok(w) if w.bytes == b"xy"));
        assert!(matches!(
            &dec.outcomes[1],
            ReplyOutcome::NotDelivered(DoorError::Comm(m)) if m == "stale export 3"
        ));
        assert!(matches!(
            &dec.outcomes[2],
            ReplyOutcome::Failed(DoorError::Handler(m)) if m == "boom"
        ));
        assert!(matches!(
            &dec.outcomes[3],
            ReplyOutcome::Failed(DoorError::Revoked)
        ));
    }

    #[test]
    fn truncated_frames_get_typed_rejection() {
        let w = sample_wire(&[1; 100], &[(1, 2)]);
        let enc = encode_request(1, &[(5, &w)]);
        // Every possible truncation point must produce a typed error, and
        // in particular a payload length field pointing past the end must
        // come back Truncated, never panic.
        for cut in 0..enc.len() {
            let err = decode_request(&enc[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_get_typed_rejection() {
        let w = sample_wire(b"zz", &[]);
        let mut enc = encode_request(1, &[(5, &w)]);
        enc.push(0);
        assert!(matches!(
            decode_request(&enc).unwrap_err(),
            WireError::OverLength { .. }
        ));
    }

    #[test]
    fn lying_counts_get_typed_rejection() {
        let w = sample_wire(b"abc", &[(1, 2)]);
        let mut enc = encode_request(1, &[(5, &w)]);
        // Inflate the cap count field far past the frame end (offset:
        // kind 1 + id 8 + ncalls 4 + export 8 + call 20 + trace 16 = 57).
        enc[57..61].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&enc).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn bad_tags_get_typed_rejection() {
        let w = sample_wire(b"", &[]);
        let mut enc = encode_reply(1, &[ReplyOutcome::Ok(w)]);
        enc[13] = 9; // status byte
        assert!(matches!(
            decode_reply(&enc).unwrap_err(),
            WireError::BadTag { value: 9, .. }
        ));
        let mut enc = encode_request(1, &[]);
        enc[0] = 200; // frame kind
        assert!(matches!(
            decode_request(&enc).unwrap_err(),
            WireError::BadTag { value: 200, .. }
        ));
    }
}
