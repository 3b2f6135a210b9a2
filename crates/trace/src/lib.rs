//! Distributed tracing and per-mechanism metrics for the Spring
//! subcontract reproduction.
//!
//! The paper's central trick is that subcontracts piggyback their own
//! dialogue on the marshalled call stream (§5, §7). This crate rides the
//! same channel: a 16-byte trace/span identifier pair travels in the
//! message *envelope* — next to the out-of-band capability vector, exactly
//! where the kernel already carries data that is not payload — so a trace
//! context crosses domains, door calls, and simulated network hops with
//! zero changes to stubs or skeletons (the §9.1 stub-independence
//! invariant).
//!
//! Everything here is disabled by default. The enable flag is a single
//! relaxed atomic; every instrumentation site in the kernel and the
//! subcontract runtime checks it first, so the disabled fast path costs one
//! `Relaxed` load (~1 ns) and performs no allocation.
//!
//! Components:
//!
//! * [`TraceCtx`] — the propagated identifier pair ([`ctx`]).
//! * [`span_start`] / [`span_end`] / [`SpanGuard`] — the span API; completed
//!   spans are recorded into per-scope lock-free ring buffers ([`ring`]).
//! * [`hist`] — fixed log-linear (HDR-style) latency histograms keyed by
//!   (subcontract id | door token, operation); no allocation on the record
//!   path, exact p50/p90/p99/p999/max in snapshots.
//! * [`export`] — a human text tree dump and a JSON exporter ([`json`])
//!   used by the benchmark harness to emit `BENCH_*.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod ctx;
pub mod export;
pub mod hist;
pub mod json;
pub mod ring;
pub mod span;

pub use ctx::{current, TraceCtx};

/// Well-known span names.
///
/// Span keys are `&'static str` by design (the ring stores them without
/// allocation); these constants keep the producers in `spring-net` and the
/// assertions in tests/exporters spelling them identically.
pub mod keys {
    /// A proxy-door invocation being forwarded to its home node.
    pub const NET_FORWARD: &str = "net.forward";
    /// One simulated wire hop (latency, loss, accounting).
    pub const NET_HOP: &str = "net.hop";
    /// One request frame dispatched by a socket receiver; `scid` carries
    /// the number of calls the frame held.
    pub const NET_BATCH: &str = "net.batch";
    /// One attempt of a pipelined invocation.
    pub const PIPELINE_ATTEMPT: &str = "pipeline.attempt";
    /// One publish accepted by a topic hub; `scid` carries the number of
    /// destination links fanned out to.
    pub const PUBSUB_PUBLISH: &str = "pubsub.publish";
    /// One fan-out frame shipped to one destination link; `scid` carries
    /// the number of subscribers the frame addresses.
    pub const PUBSUB_FANOUT: &str = "pubsub.fanout";
    /// A best-effort fan-out frame lost on the wire (recorded failed; the
    /// drop is silent at the API).
    pub const PUBSUB_DROP: &str = "pubsub.drop";
    /// Histogram op name for publish-to-sink delivery latency, keyed by the
    /// subscribing hub's callback-door token.
    pub const PUBSUB_DELIVER: &str = "pubsub.deliver";
}
pub use export::{histograms_json, render_text, span_forest, spans_json, SpanNode};
pub use hist::{histogram, record, snapshot_all, snapshot_of, HistSnapshot, Histogram};
pub use ring::{Event, Ring};
pub use span::{span_child_of, span_end, span_start, SpanGuard};

/// Global tracing switch. Off by default; all instrumentation sites check
/// this with one relaxed load before doing anything else.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Returns true when tracing is enabled (one relaxed atomic load).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide.
///
/// Spans already open keep recording to completion; new [`span_start`]
/// calls observe the flag immediately.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process-wide monotonic clock origin, fixed at first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Clears all recorded spans and histograms (tests and benchmark deltas).
/// Does not touch the enable flag or any in-flight span.
pub fn reset() {
    ring::clear();
    hist::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
