//! One-shot readiness for a connection's socket, a non-blocking
//! readability probe, and a blocking peek: the things the socket backend's
//! connection threads and callers need from the OS that `std` does not
//! expose (DESIGN.md §5.15).
//!
//! The calls are declared against the C library `std` already links — the
//! workspace builds without a `libc` crate — and this module is the crate's
//! only `unsafe` code. Linux only, like the rest of the socket backend.

use std::ffi::{c_int, c_void};
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::{Duration, Instant};

/// The kernel's `struct epoll_event`, which is packed on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;
const MSG_PEEK: c_int = 0x02;
const MSG_DONTWAIT: c_int = 0x40;
const MSG_WAITALL: c_int = 0x100;

/// The interest set while armed: one readiness event (data, EOF, or peer
/// half-close), then the registration disables itself until re-armed.
const ARMED: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;

/// A private epoll instance watching one socket with `EPOLLONESHOT`, so
/// one readiness event wakes exactly one waiting thread and the socket
/// stays silent until that thread re-arms it.
pub(crate) struct Poller {
    epfd: OwnedFd,
    /// The watched socket. Its owner keeps it open for the poller's whole
    /// life (both live in the same connection).
    fd: RawFd,
}

impl Poller {
    /// Registers `socket`, armed.
    pub(crate) fn new(socket: &impl AsRawFd) -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; a non-negative return
        // is a fresh descriptor that nothing else owns, so `OwnedFd` may
        // take it (and close it on drop).
        let epfd = unsafe {
            let fd = epoll_create1(EPOLL_CLOEXEC);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            OwnedFd::from_raw_fd(fd)
        };
        let poller = Poller {
            epfd,
            fd: socket.as_raw_fd(),
        };
        poller.ctl(EPOLL_CTL_ADD, ARMED)?;
        Ok(poller)
    }

    /// Re-enables the one-shot registration. If the socket is readable
    /// already, the kernel queues the event at once, so bytes that arrived
    /// while it was disarmed are never missed.
    pub(crate) fn arm(&self) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, ARMED)
    }

    /// Masks readiness, so threads waiting in [`Poller::wait`] stay asleep
    /// while the caller reads the socket itself. (Errors and hangups are
    /// always reported by epoll; they end the connection anyway.)
    pub(crate) fn disarm(&self) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, EPOLLONESHOT)
    }

    fn ctl(&self, op: c_int, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: 0 };
        // SAFETY: `ev` is a live, properly laid-out `epoll_event` that the
        // call only reads. The descriptors are plain integers to the
        // kernel: a stale one would fail with `EBADF`, not touch memory.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, self.fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until the armed socket reports readiness (`Ok(true)`) or
    /// `timeout` passes (`Ok(false)`). Signal interruptions resume the wait
    /// for the remaining time.
    pub(crate) fn wait(&self, timeout: Duration) -> io::Result<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let ms = c_int::try_from(left.as_millis()).unwrap_or(c_int::MAX);
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: `ev` is writable storage for exactly the one event
            // `maxevents` allows, and it outlives the call.
            let n = unsafe { epoll_wait(self.epfd.as_raw_fd(), &mut ev, 1, ms) };
            match n {
                0 => return Ok(false),
                n if n > 0 => return Ok(true),
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
    }
}

/// Whether a read on `socket` would return at once — a byte is buffered,
/// or the stream has ended or failed — without consuming anything.
pub(crate) fn readable_now(socket: &impl AsRawFd) -> bool {
    let mut byte = 0u8;
    loop {
        // SAFETY: `byte` is one writable byte that outlives the call, and
        // `len` is 1; `MSG_DONTWAIT` makes the call non-blocking without
        // touching the descriptor's flags, which its clones share.
        let n = unsafe {
            recv(
                socket.as_raw_fd(),
                (&mut byte as *mut u8).cast(),
                1,
                MSG_PEEK | MSG_DONTWAIT,
            )
        };
        if n >= 0 {
            return true;
        }
        match io::Error::last_os_error().kind() {
            io::ErrorKind::Interrupted => {}
            io::ErrorKind::WouldBlock => return false,
            // A pending error: let the read surface it.
            _ => return true,
        }
    }
}

/// Blocks until `socket` has data, then copies its first `buf.len()`
/// bytes into `buf` without consuming them. `true` only if all of them
/// were there: `false` if the stream ended or failed, or if fewer came
/// back (`MSG_WAITALL` waits for all of them on TCP, but a Unix stream
/// socket returns a peek with what has arrived so far).
pub(crate) fn peek_exact(socket: &impl AsRawFd, buf: &mut [u8]) -> bool {
    loop {
        // SAFETY: `buf` is writable for `buf.len()` bytes and outlives the
        // call; `MSG_PEEK` leaves the bytes queued for the next read.
        let n = unsafe {
            recv(
                socket.as_raw_fd(),
                buf.as_mut_ptr().cast(),
                buf.len(),
                MSG_PEEK | MSG_WAITALL,
            )
        };
        if n >= 0 {
            return n as usize == buf.len();
        }
        if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            return false;
        }
    }
}
