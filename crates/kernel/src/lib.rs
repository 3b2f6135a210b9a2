//! Simulated Spring nucleus: domains, doors, and door identifiers.
//!
//! The Spring kernel (the "nucleus", Hamilton & Kougiouris 1993) provides an
//! object-oriented inter-process communication mechanism called *doors*. A
//! door is a communication endpoint to which threads may execute cross
//! address space calls. A domain that creates a door receives a *door
//! identifier*, which it can pass to other domains so that they can issue
//! calls to the associated door. Door identifiers function as software
//! capabilities: only the legitimate owner of a door identifier may issue a
//! call on its associated door, and the kernel manages all operations on
//! doors and door identifiers — construction, destruction, copying, and
//! transmission.
//!
//! This crate simulates that nucleus inside a single process:
//!
//! * A [`Kernel`] corresponds to one machine's nucleus (one per simulated
//!   node; see the `spring-net` crate for multi-node setups).
//! * A [`Domain`] is a simulated address space plus a collection of threads.
//!   Domains exchange only [`Message`] values (bytes plus door identifiers);
//!   no Rust references cross a domain boundary.
//! * A [`DoorId`] is a per-domain capability handle, valid only for the
//!   domain that owns it. Sending a message *transfers* the identifiers it
//!   carries (the kernel re-issues them in the receiving domain), exactly as
//!   Spring transfers door identifiers between address spaces.
//! * Door calls run on the caller's thread, faithful to Spring's
//!   thread-shuttling door invocation.
//! * Call and reply byte payloads are physically copied to simulate the
//!   cross-address-space copy a real kernel performs; shared-memory regions
//!   ([`ShmRegion`]) avoid that copy, which is what the paper's
//!   shared-memory subcontracts exploit via `invoke_preamble` (§5.1.4).
//!
//! # Examples
//!
//! ```
//! use spring_kernel::{Kernel, Message, DoorError, CallCtx, DoorHandler};
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl DoorHandler for Echo {
//!     fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
//!         Ok(msg)
//!     }
//! }
//!
//! let kernel = Kernel::new("node-a");
//! let server = kernel.create_domain("server");
//! let client = kernel.create_domain("client");
//! let door = server.create_door(Arc::new(Echo)).unwrap();
//! let id = server.transfer_door(door, &client).unwrap();
//! let reply = client.call(id, Message::from_bytes(vec![1, 2, 3])).unwrap();
//! assert_eq!(reply.bytes, vec![1, 2, 3]);
//! ```

pub mod callid;
mod domain;
mod error;
pub mod hotpath;
mod id;
mod kernel;
mod message;
pub mod pool;
mod rng;
mod shm;
mod stats;

pub use callid::CallId;
pub use domain::{CallCtx, Domain, DoorHandler};
pub use error::DoorError;
pub use id::{DomainId, DoorId, NodeId, ShmId};
pub use kernel::Kernel;
pub use message::{framing, Message};
pub use rng::FaultRng;
pub use shm::{MappedShm, ShmRegion};
pub use stats::{KernelStats, StatsSnapshot};
