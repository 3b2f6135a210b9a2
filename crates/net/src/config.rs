//! Network configuration and counters.

use std::time::Duration;

/// Tunable behaviour of the simulated network.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// One-way latency added to every network hop.
    pub latency: Duration,
    /// Maximum extra uniform jitter per hop.
    pub jitter: Duration,
    /// Probability in `[0, 1]` that an invocation message is lost.
    pub drop_prob: f64,
    /// Whether socket sends may take the same-thread fast path (encode and
    /// write on the caller's thread when the writer queue is empty and the
    /// write lock is uncontended — DESIGN.md §5.15). Off, every frame goes
    /// through the writer thread, which is the pre-fast-path behaviour;
    /// semantics are identical either way, only the handoff count changes.
    /// Ignored by the simulated backend.
    pub socket_fastpath: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            socket_fastpath: true,
        }
    }
}

impl NetConfig {
    /// A lossless network with the given one-way latency.
    pub fn with_latency(latency: Duration) -> Self {
        NetConfig {
            latency,
            ..Default::default()
        }
    }
}

/// Point-in-time snapshot of the network's counters.
///
/// Message and byte counts are hardware independent, so benchmark tables
/// report them alongside wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Wire messages sent (calls, replies, and object transfers).
    pub messages: u64,
    /// Payload bytes sent over the wire.
    pub bytes: u64,
    /// Invocation messages lost to injected drops.
    pub drops: u64,
    /// Cross-node invocations forwarded through proxy doors.
    pub calls_forwarded: u64,
    /// Door identifiers mapped to network form (exports).
    pub exports: u64,
    /// Proxy doors fabricated on receiving nodes.
    pub proxies_created: u64,
    /// Request frames the simulated backend shipped (one per forwarded
    /// call: a request hop, plus a reply hop unless the call is one-way).
    pub batch_flushes: u64,
    /// Always 0: every call now travels in a frame of its own. Kept so
    /// existing readers of the snapshot (benchmarks, reports) still build.
    pub calls_batched: u64,
    /// Forwarded calls the simulated backend shipped in a frame of their
    /// own — all of them.
    pub calls_unbatched: u64,
}

impl NetStatsSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        NetStatsSnapshot {
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            drops: self.drops.saturating_sub(earlier.drops),
            calls_forwarded: self.calls_forwarded.saturating_sub(earlier.calls_forwarded),
            exports: self.exports.saturating_sub(earlier.exports),
            proxies_created: self.proxies_created.saturating_sub(earlier.proxies_created),
            batch_flushes: self.batch_flushes.saturating_sub(earlier.batch_flushes),
            calls_batched: self.calls_batched.saturating_sub(earlier.calls_batched),
            calls_unbatched: self.calls_unbatched.saturating_sub(earlier.calls_unbatched),
        }
    }
}

/// Point-in-time snapshot of the socket transport's counters.
///
/// All zero unless the process has opened socket connections (the simulated
/// backend never touches these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketStatsSnapshot {
    /// Length-prefixed frames written to socket peers.
    pub frames_sent: u64,
    /// Length-prefixed frames read from socket peers.
    pub frames_received: u64,
    /// Frame payload bytes written (excluding the 4-byte length prefix).
    pub bytes_sent: u64,
    /// Frame payload bytes read (excluding the 4-byte length prefix).
    pub bytes_received: u64,
    /// Connections torn down (peer EOF, I/O error, malformed frame).
    pub disconnects: u64,
}

impl SocketStatsSnapshot {
    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &SocketStatsSnapshot) -> SocketStatsSnapshot {
        SocketStatsSnapshot {
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            frames_received: self.frames_received.saturating_sub(earlier.frames_received),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            disconnects: self.disconnects.saturating_sub(earlier.disconnects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_inert() {
        let c = NetConfig::default();
        assert!(c.latency.is_zero());
        assert!(c.jitter.is_zero());
        assert_eq!(c.drop_prob, 0.0);
        // The socket fast path is on by default: it is a pure handoff
        // elision, observable only through the fastpath_sends counter.
        assert!(c.socket_fastpath);
        assert_eq!(
            NetConfig::with_latency(Duration::from_millis(2))
                .latency
                .as_millis(),
            2
        );
    }

    #[test]
    fn snapshot_diff_saturates() {
        let a = NetStatsSnapshot {
            messages: 5,
            bytes: 100,
            ..Default::default()
        };
        let b = NetStatsSnapshot {
            messages: 9,
            bytes: 50,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.messages, 4);
        assert_eq!(d.bytes, 0); // Saturating, never negative.
    }
}
