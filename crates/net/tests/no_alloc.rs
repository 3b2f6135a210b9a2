//! The steady-state forwarded-call fast path must not allocate.
//!
//! This binary installs a counting global allocator (which is why the test
//! lives alone in its own integration-test file). A byte-only cross-node
//! call moves its payload through the wire boundary — `to_wire` and
//! `from_wire` transfer the backing storage, they never copy it — and the
//! call ships on the caller's thread with its outcome as a plain return
//! value, so after warmup a forwarded call performs zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spring_kernel::{pool, CallCtx, DoorError, DoorHandler, Message};
use spring_net::{NetConfig, Network};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Count only the measuring thread's allocations. The libtest harness's
    // main thread lazily initializes its mpsc receiver context at an
    // arbitrary moment, which a process-wide count would misattribute to
    // the call path. The whole forwarded call runs synchronously on the
    // calling thread, so a per-thread count loses nothing. Const-init TLS
    // lives in .tdata and never allocates on access.
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
fn steady_state_forwarded_call_does_not_allocate() {
    assert!(!spring_trace::enabled());

    let net = Network::new(NetConfig::default());
    let a = net.add_node("a");
    let b = net.add_node("b");
    let server = b.kernel().create_domain("server");
    let client = a.kernel().create_domain("client");
    let door = server.create_door(Arc::new(Echo)).unwrap();
    let arrived = net
        .ship_message(
            &server,
            &client,
            Message {
                doors: vec![door],
                ..Message::default()
            },
        )
        .unwrap();
    let proxy = arrived.doors[0];

    let forwarded_call = || {
        let mut bytes = pool::take(8);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        let reply = client.call(proxy, Message::from_bytes(bytes)).unwrap();
        assert_eq!(reply.bytes.len(), 8);
        pool::give(reply.bytes);
    };

    // Warm the buffer pool.
    for _ in 0..100 {
        forwarded_call();
    }

    COUNTING.set(true);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        forwarded_call();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.set(false);
    assert_eq!(
        after - before,
        0,
        "steady-state forwarded calls allocated {} times",
        after - before
    );
}
