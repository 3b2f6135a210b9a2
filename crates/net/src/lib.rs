//! Simulated network servers extending Spring doors across machines.
//!
//! "A set of network servers extend the door mechanism transparently over
//! the network. This includes both forwarding door invocations over the
//! network and also mapping door identifiers to and from an extended network
//! form." (§3.3)
//!
//! A [`Network`] connects several nodes; each node owns its own
//! [`spring_kernel::Kernel`] plus a privileged *network server* domain. When
//! a message carrying door identifiers leaves a node, the network server
//! maps each identifier to a network form `(origin node, export id)`; on the
//! receiving node the network server either hands back a local identifier
//! (the door is coming home) or fabricates a *proxy door* whose handler
//! forwards invocations across the network. All of this is invisible to
//! subcontracts: a replicon object whose replicas live on three machines
//! holds three ordinary-looking door identifiers.
//!
//! Fault injection: configurable per-hop latency and jitter, probabilistic
//! message loss (applied to invocation traffic), and node partitions —
//! enough to reproduce the failure behaviour the caching, replicon, and
//! reconnectable subcontracts are designed around.
//!
//! Simplifications (documented in DESIGN.md): network servers pin the doors
//! they export (cross-network unreferenced notification is not propagated),
//! and object-transfer traffic is reliable (loss applies to invocations).

//! Pipelining: each forwarded call is marshalled and shipped on its
//! caller's thread in a frame of its own, so overlapping calls overlap on
//! the wire (DESIGN.md §5.12). The socket writer's vectored write is the
//! one place frames are coalesced: frames that queue while it is busy
//! leave in one `writev`.

//! Real sockets: the same door/proxy machinery runs between OS processes —
//! behind the crate's `Backend` call-shipping boundary (DESIGN.md §5.15
//! has the contract). [`Network::listen_tcp`],
//! [`Network::listen_uds`], [`Network::connect_tcp`] and
//! [`Network::connect_uds`] attach socket backends; everything else
//! (partial-failure discipline, at-most-once retries) is shared with the
//! simulated backend, which remains the default.

mod backend;
mod config;
mod network;
mod server;
mod socket;

pub use config::{NetConfig, NetStatsSnapshot, SocketStatsSnapshot};
pub use network::{Network, Node};
pub use socket::{SocketListener, SocketPeer};
