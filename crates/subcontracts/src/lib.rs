//! The paper's example subcontracts.
//!
//! Section 8 of the paper ("Example subcontracts") establishes that the
//! basic subcontract interfaces are "sufficiently general that they can
//! accommodate a wide range of possible solutions, while still providing a
//! uniform application model". This crate implements each subcontract the
//! paper describes:
//!
//! | Subcontract | Paper | Representation | What it does |
//! |---|---|---|---|
//! | [`Singleton`] | §6.1, §7 | one door identifier | default, door delivers straight to the stubs |
//! | [`Simplex`] | §7 | one door identifier (or a local fast path) | client-server with a server-side subcontract dialogue |
//! | [`Cluster`] | §8.1 | door identifier + integer tag | one door shared by many objects |
//! | [`Replicon`] | §5 | a set of door identifiers | replication with failover and piggybacked replica-set updates |
//! | [`Caching`] | §8.2 | server door + cache door + manager name | invocations redirected to a machine-local cache manager |
//! | [`Reconnectable`] | §8.3 | door identifier + object name | quiet recovery from server crashes by re-resolving the name |
//! | [`Shmem`] | §5.1.4 | door identifier + shared region | arguments marshalled directly into shared memory |
//! | [`Pipeline`] | §8.4 spirit | one door identifier | promise-returning async calls; independent calls overlap on the wire, one frame each |
//!
//! The paper's §8.4 *future directions* are implemented too, exactly as
//! third parties would build them (public API only, distributed as a
//! separately loadable library — [`extensions_library`]):
//!
//! | Extension | Paper | What it does |
//! |---|---|---|
//! | [`priority`] | §8.4 | transfers scheduling priority in the control region |
//! | [`txn`] | §8.4 | transfers transaction identifiers; journals transactional calls |
//! | [`stream`] | §8.4 | loss-tolerant sequence-numbered frames for live media |
//!
//! All of them are ordinary libraries built on the public `subcontract` API;
//! none required new facilities in the base system — the paper's central
//! claim (§9).

pub mod caching;
pub mod cluster;
pub mod dedup;
pub mod pipeline;
pub mod priority;
pub mod pubsub;
pub mod reconnectable;
pub mod replicon;
pub mod retry;
pub mod shmem;
pub mod simplex;
pub mod singleton;
pub mod stream;
pub mod txn;

mod setup;

pub use caching::{CacheManager, CacheStats, Caching, CoherentStats};
pub use cluster::{Cluster, ClusterServer};
pub use dedup::{DedupStats, ReplyCache};
pub use pipeline::{Pipeline, Promise};
pub use priority::{AdmissionConfig, AdmissionStats, Priority};
pub use pubsub::{
    DeliveryMode, PubSub, PubSubStats, PublishOutcome, Subscriber, SubscriberHub, Subscription,
    TopicConfig, TopicHub, TopicInfo, PUBSUB_TOPIC_TYPE,
};
pub use reconnectable::Reconnectable;
pub use replicon::{ReplicaGroup, Replicon, RepliconServer};
pub use retry::{Invocation, RetryPolicy};
pub use setup::{
    extensions_library, register_standard, standard_library, STANDARD_SUBCONTRACT_NAMES,
};
pub use shmem::Shmem;
pub use simplex::Simplex;
pub use singleton::Singleton;
pub use stream::{FrameOutcome, FrameSink, Stream, StreamStats};
pub use txn::{Txn, TxnJournal, TxnScope};
