//! With tracing disabled, the steady-state E1 fast path must not allocate.
//!
//! This binary installs a counting global allocator (which is why the test
//! lives alone in its own integration-test file). The null-call path it
//! drives is the one E1 measures: request bytes come from the buffer pool,
//! the kernel's two cross-address-space copies draw from and return to the
//! pool, and the caller gives the reply backing store back — so after
//! warmup a call performs zero heap allocations, and the disabled tracing
//! instrumentation must keep it that way (its fast path is one relaxed
//! atomic load).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_kernel::{pool, CallCtx, DoorError, DoorHandler, Kernel, Message};

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

struct Echo;

impl DoorHandler for Echo {
    fn invoke(&self, _ctx: &CallCtx, msg: Message) -> Result<Message, DoorError> {
        Ok(msg)
    }
}

#[test]
fn disabled_tracing_steady_state_call_does_not_allocate() {
    assert!(!spring_trace::enabled());

    let kernel = Kernel::new("no-alloc");
    let server = kernel.create_domain("server");
    let client = kernel.create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let door = server.transfer_door(door, &client).unwrap();

    let null_call = || {
        let mut bytes = pool::take(8);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let reply = client.call(door, Message::from_bytes(bytes)).unwrap();
        assert_eq!(reply.bytes.len(), 8);
        pool::give(reply.bytes);
    };

    // Warm the thread-local buffer pool.
    for _ in 0..100 {
        null_call();
    }

    COUNTING.set(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        null_call();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.set(false);
    assert_eq!(
        allocs, 0,
        "steady-state null calls allocated {allocs} times"
    );
}
