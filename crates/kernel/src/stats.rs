//! Kernel-wide counters used by the benchmark harness.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::{hotpath, pool};

/// Defines [`KernelStats`] / [`StatsSnapshot`] plus their `snapshot` and
/// `since` plumbing from one field list, so adding a counter is a one-line
/// change instead of four copies of the same name.
///
/// The pool and hot-path counters are appended to the snapshot inside the
/// macro: they come from [`pool::counters`] and [`hotpath::counters`], not
/// from per-kernel atomics, because the buffer pool is per-thread state and
/// the socket hot path is per-connection state — both shared by every
/// kernel in the process.
macro_rules! kernel_counters {
    ($( $(#[$doc:meta])* $field:ident, )+) => {
        /// Monotonic counters maintained by one [`crate::Kernel`].
        ///
        /// The benchmark harness reports these alongside wall-clock timings
        /// because they are hardware independent: the paper's claims about
        /// resource usage (for example, the cluster subcontract sharing one
        /// door among many objects, §8.1) are checked against these counts,
        /// not against 1993 microseconds.
        #[derive(Debug, Default)]
        pub struct KernelStats {
            $( pub(crate) $field: AtomicU64, )+
        }

        /// A point-in-time snapshot of [`KernelStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $( $(#[$doc])* pub $field: u64, )+
            /// Buffer-pool hits (process-wide; the pool is per-thread, not
            /// per-kernel, so every kernel reports the same numbers — see
            /// [`pool::counters`]).
            pub pool_hits: u64,
            /// Buffer-pool misses (process-wide, see `pool_hits`).
            pub pool_misses: u64,
            /// Socket sends written inline on the caller's thread
            /// (process-wide, see [`hotpath::counters`]).
            pub fastpath_sends: u64,
            /// Socket writer-thread wakeups that drained the queue with one
            /// vectored write (process-wide).
            pub writev_wakeups: u64,
            /// Frames drained across all [`Self::writev_wakeups`]
            /// (process-wide); divide by wakeups for the coalescing factor.
            pub writev_frames: u64,
            /// Inbound socket requests read but not yet served
            /// (process-wide gauge, not monotonic).
            pub dispatch_pool_depth: u64,
            /// Socket connection threads spawned on demand
            /// (process-wide).
            pub dispatch_pool_spawned: u64,
            /// Socket connection threads reaped after idling
            /// (process-wide).
            pub dispatch_pool_reaped: u64,
            /// Reply-less one-way frames shipped on the wire
            /// (process-wide).
            pub oneway_frames: u64,
        }

        impl KernelStats {
            /// Takes a consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                let (pool_hits, pool_misses) = pool::counters();
                let (
                    fastpath_sends,
                    writev_wakeups,
                    writev_frames,
                    dispatch_pool_depth,
                    dispatch_pool_spawned,
                    dispatch_pool_reaped,
                    oneway_frames,
                ) = hotpath::counters();
                StatsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                    pool_hits,
                    pool_misses,
                    fastpath_sends,
                    writev_wakeups,
                    writev_frames,
                    dispatch_pool_depth,
                    dispatch_pool_spawned,
                    dispatch_pool_reaped,
                    oneway_frames,
                }
            }
        }

        impl StatsSnapshot {
            /// Component-wise difference `self - earlier`, saturating at
            /// zero.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                    pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
                    pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
                    fastpath_sends: self.fastpath_sends.saturating_sub(earlier.fastpath_sends),
                    writev_wakeups: self.writev_wakeups.saturating_sub(earlier.writev_wakeups),
                    writev_frames: self.writev_frames.saturating_sub(earlier.writev_frames),
                    dispatch_pool_depth: self
                        .dispatch_pool_depth
                        .saturating_sub(earlier.dispatch_pool_depth),
                    dispatch_pool_spawned: self
                        .dispatch_pool_spawned
                        .saturating_sub(earlier.dispatch_pool_spawned),
                    dispatch_pool_reaped: self
                        .dispatch_pool_reaped
                        .saturating_sub(earlier.dispatch_pool_reaped),
                    oneway_frames: self.oneway_frames.saturating_sub(earlier.oneway_frames),
                }
            }
        }
    };
}

kernel_counters! {
    /// Doors created since kernel start.
    doors_created,
    /// Door calls executed (including failed deliveries).
    door_calls,
    /// Payload bytes physically copied across domain boundaries.
    bytes_copied,
    /// Door calls delivered within one domain (D2) with the payload passed
    /// through uncopied.
    local_deliveries,
    /// Door identifiers issued (creation, copy, and transfer each issue one).
    ids_issued,
    /// Door identifiers deleted.
    ids_deleted,
    /// Door identifiers moved between domains by message transfer.
    ids_transferred,
    /// Unreferenced notifications delivered to door handlers.
    unref_notifications,
    /// Doors revoked (explicitly or by domain crash).
    revocations,
    /// Times a domain door-table lock was contended (blocked on acquire).
    table_lock_waits,
    /// Times a door-shard lock was contended (blocked on acquire).
    shard_lock_waits,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let stats = KernelStats::default();
        stats.door_calls.fetch_add(1, Ordering::Relaxed);
        stats.bytes_copied.fetch_add(10, Ordering::Relaxed);
        let a = stats.snapshot();
        stats.door_calls.fetch_add(2, Ordering::Relaxed);
        stats.bytes_copied.fetch_add(10, Ordering::Relaxed);
        let b = stats.snapshot();
        let d = b.since(&a);
        assert_eq!(d.door_calls, 2);
        assert_eq!(d.bytes_copied, 10);
        assert_eq!(d.doors_created, 0);
        assert_eq!(d.table_lock_waits, 0);
        assert_eq!(d.shard_lock_waits, 0);
    }

    #[test]
    fn since_includes_pool_counters() {
        let a = StatsSnapshot {
            pool_hits: 5,
            pool_misses: 2,
            ..StatsSnapshot::default()
        };
        let b = StatsSnapshot {
            pool_hits: 9,
            pool_misses: 2,
            ..StatsSnapshot::default()
        };
        let d = b.since(&a);
        assert_eq!(d.pool_hits, 4);
        assert_eq!(d.pool_misses, 0);
    }
}
