//! Proof that fixed-shape unmarshal is zero-copy on the two transports the
//! flat wire format targets.
//!
//! * Same-domain (D2) delivery: the kernel moves the frame by ownership
//!   transfer, so a full generated-stub round trip copies **zero** payload
//!   bytes (`bytes_copied` stays flat) and performs zero decode copies
//!   (`spring_buf::flat::decode_bytes_copied` stays flat). With the buffer
//!   pool warm it also performs zero heap allocations, which the counting
//!   global allocator below enforces (and is why this suite lives alone in
//!   its own integration-test binary).
//! * Shmem transport: argument frames cross in shared memory and are
//!   flat-decoded in place; only the 16-byte region descriptor and the
//!   small reply ride the kernel's copying path, independent of payload
//!   size.
//!
//! Allocations are counted on the measuring thread only; the process-global
//! decode-copy counter is shared across test threads, so the tests
//! serialize on one mutex.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spring_bench::fixtures::{flat_ping_same_domain, flat_ping_shmem, sample_fixture};
use spring_bench::flatbench::Sample;
use spring_buf::flat::decode_bytes_copied;
use spring_kernel::Kernel;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Count only the measuring thread's allocations. The libtest harness's
    // main thread allocates at arbitrary moments (reporting another test's
    // result, lazily initializing its channel context), which a
    // process-wide count would misattribute to the call path. The measured
    // call runs entirely on the calling thread, so a per-thread count loses
    // nothing. Const-init TLS lives in .tdata and never allocates on access.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serializes the tests: both read the process-global decode-copy counter.
static SERIAL: Mutex<()> = Mutex::new(());

const CALLS: u64 = 1_000;

#[test]
fn same_domain_flat_round_trip_copies_and_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = Kernel::new("flat-d2");
    let flat = flat_ping_same_domain(&kernel);
    let sample = sample_fixture();

    // Behavior first: the frame survives encode -> D2 -> flat decode on
    // both the argument and the result leg.
    assert_eq!(flat.ping(41).unwrap(), 42);
    assert_eq!(flat.echo_sample(&sample).unwrap(), sample);

    // Warm the thread-local buffer pool.
    for _ in 0..100 {
        let _ = flat.echo_sample(&sample).unwrap();
    }

    let before = kernel.stats();
    let decode_before = decode_bytes_copied();
    COUNTING.set(true);
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        let _ = flat.echo_sample(&sample).unwrap();
    }
    let allocs_delta = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    COUNTING.set(false);
    let delta = kernel.stats().since(&before);
    let decode_delta = decode_bytes_copied() - decode_before;

    assert_eq!(
        delta.bytes_copied, 0,
        "same-domain delivery must not copy payload bytes"
    );
    assert!(
        delta.local_deliveries >= CALLS,
        "calls should take the D2 path (saw {} local deliveries)",
        delta.local_deliveries
    );
    assert_eq!(
        decode_delta, 0,
        "flat decode must not copy out of the frame (copied {decode_delta} bytes)"
    );
    assert_eq!(
        allocs_delta, 0,
        "steady-state flat calls allocated {allocs_delta} times"
    );
}

#[test]
fn shmem_flat_arguments_cross_without_payload_copies() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kernel = Kernel::new("flat-shm");
    let flat = flat_ping_shmem(&kernel, 4096);
    let sample = sample_fixture();

    flat.sink_sample(&sample).unwrap();
    for _ in 0..50 {
        flat.sink_sample(&sample).unwrap();
    }

    let before = kernel.stats();
    let decode_before = decode_bytes_copied();
    for _ in 0..CALLS {
        flat.sink_sample(&sample).unwrap();
    }
    let delta = kernel.stats().since(&before);
    let decode_delta = decode_bytes_copied() - decode_before;

    assert_eq!(
        decode_delta, 0,
        "shmem flat decode must read the region in place (copied {decode_delta} bytes)"
    );
    // Each call marshals a footprint-sized frame into the region; if those
    // bytes rode the kernel's copying path the per-call copy cost would be
    // at least the footprint. Only the descriptor + reply may be copied.
    let footprint = Sample::footprint() as u64;
    assert!(
        delta.bytes_copied < CALLS * footprint,
        "argument frames were copied by the kernel ({} bytes over {} calls, footprint {})",
        delta.bytes_copied,
        CALLS,
        footprint
    );
}
