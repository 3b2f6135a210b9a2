//! Process-wide hot-path counters for the socket transport.
//!
//! These live in the kernel crate for the same reason the buffer-pool
//! counters do: the `kernel_counters!` snapshot is the one place the
//! benchmark harness and the stats door read hardware-independent numbers
//! from, and the socket layer (in `spring-net`) cannot reach into a
//! specific kernel's `KernelStats` — a connection serves whatever kernels
//! its node hosts. Like the pool counters they are process-global, so
//! every kernel's snapshot reports the same values.
//!
//! The counters tell the story of one optimized send/receive cycle:
//!
//! * [`count_fastpath_send`] — a caller wrote its frame on its own thread
//!   (writer queue empty, writer lock uncontended) instead of handing it
//!   to the writer thread.
//! * [`count_writev_wakeup`] — the writer thread woke and drained `n`
//!   queued frames in one vectored write. `writev_frames / writev_wakeups`
//!   is the syscall-level coalescing factor.
//! * [`dispatch_enqueued`] / [`dispatch_done`] — a request or one-way
//!   frame was read off a socket, or finished being served (or was dropped
//!   with its dead connection); the difference is the number of inbound
//!   requests read but not yet served, across all connections.
//! * [`count_dispatch_spawned`] / [`count_dispatch_reaped`] — connection
//!   threads (the followers that read and serve a connection's frames)
//!   created on demand and reaped after sitting idle.
//! * [`count_oneway_frame`] — a reply-less `KIND_ONEWAY` frame was shipped
//!   (no waiter registered, no reply crossing).

use std::sync::atomic::{AtomicU64, Ordering};

static FASTPATH_SENDS: AtomicU64 = AtomicU64::new(0);
static WRITEV_WAKEUPS: AtomicU64 = AtomicU64::new(0);
static WRITEV_FRAMES: AtomicU64 = AtomicU64::new(0);
static DISPATCH_ENQUEUED: AtomicU64 = AtomicU64::new(0);
static DISPATCH_DONE: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SPAWNED: AtomicU64 = AtomicU64::new(0);
static DISPATCH_REAPED: AtomicU64 = AtomicU64::new(0);
static ONEWAY_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Records a frame written inline on the caller's thread.
pub fn count_fastpath_send() {
    FASTPATH_SENDS.fetch_add(1, Ordering::Relaxed);
}

/// Records one writer-thread wakeup that drained `frames` queued frames
/// into a single vectored write.
pub fn count_writev_wakeup(frames: u64) {
    WRITEV_WAKEUPS.fetch_add(1, Ordering::Relaxed);
    WRITEV_FRAMES.fetch_add(frames, Ordering::Relaxed);
}

/// Records a request read off a socket, not yet served.
pub fn dispatch_enqueued() {
    DISPATCH_ENQUEUED.fetch_add(1, Ordering::Relaxed);
}

/// Records a request served, or discarded at teardown.
pub fn dispatch_done() {
    DISPATCH_DONE.fetch_add(1, Ordering::Relaxed);
}

/// Records a connection thread spawned on demand.
pub fn count_dispatch_spawned() {
    DISPATCH_SPAWNED.fetch_add(1, Ordering::Relaxed);
}

/// Records a connection thread exiting after its idle timeout.
pub fn count_dispatch_reaped() {
    DISPATCH_REAPED.fetch_add(1, Ordering::Relaxed);
}

/// Records a reply-less one-way frame shipped on the wire.
pub fn count_oneway_frame() {
    ONEWAY_FRAMES.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time values of every hot-path counter, in snapshot-field
/// order: `(fastpath_sends, writev_wakeups, writev_frames,
/// dispatch_pool_depth, dispatch_pool_spawned, dispatch_pool_reaped,
/// oneway_frames)`.
///
/// `dispatch_pool_depth` is a gauge (enqueued minus done, saturating),
/// not a monotonic counter: `since` on it yields the depth *change*, and
/// a process with nothing left to serve reports zero.
pub fn counters() -> (u64, u64, u64, u64, u64, u64, u64) {
    let enq = DISPATCH_ENQUEUED.load(Ordering::Relaxed);
    let done = DISPATCH_DONE.load(Ordering::Relaxed);
    (
        FASTPATH_SENDS.load(Ordering::Relaxed),
        WRITEV_WAKEUPS.load(Ordering::Relaxed),
        WRITEV_FRAMES.load(Ordering::Relaxed),
        enq.saturating_sub(done),
        DISPATCH_SPAWNED.load(Ordering::Relaxed),
        DISPATCH_REAPED.load(Ordering::Relaxed),
        ONEWAY_FRAMES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_in_snapshot_order() {
        let before = counters();
        count_fastpath_send();
        count_writev_wakeup(3);
        dispatch_enqueued();
        count_dispatch_spawned();
        count_oneway_frame();
        let mid = counters();
        assert!(mid.0 > before.0, "fastpath_sends");
        assert!(mid.1 > before.1, "writev_wakeups");
        assert!(mid.2 >= before.2 + 3, "writev_frames");
        assert!(mid.4 > before.4, "dispatch_pool_spawned");
        assert!(mid.6 > before.6, "oneway_frames");
        dispatch_done();
        count_dispatch_reaped();
        let after = counters();
        assert!(after.5 > mid.5, "dispatch_pool_reaped");
    }

    #[test]
    fn depth_gauge_saturates() {
        // Unbalanced `done` calls must clamp the gauge at zero rather
        // than wrapping to u64::MAX.
        for _ in 0..4 {
            dispatch_done();
        }
        let (_, _, _, depth, ..) = counters();
        assert!(depth < u64::MAX / 2, "depth gauge wrapped: {depth}");
        for _ in 0..4 {
            dispatch_enqueued(); // restore balance for other tests
        }
    }
}
