//! Readiness primitives for the front door's accept loop.
//!
//! This is the `mio`-shaped corner of the crate, hand-rolled because the
//! workspace vendors everything: a safe wrapper over `poll(2)` (via the
//! `vendor/libc` shim, the same pattern as the store's mmap), a
//! self-pipe [`Waker`] so other threads can interrupt a blocked poll
//! deterministically, and the [`AcceptBackoff`] schedule that keeps an
//! accept loop from hot-spinning when `accept(2)` itself fails
//! repeatedly (fd exhaustion being the classic case).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readiness result flags, a safe mirror of the `POLLIN`-family bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// The fd can be read without blocking (or has pending EOF).
    pub readable: bool,
    /// The fd is in an error/hangup/invalid state and should be closed.
    pub error: bool,
}

impl Readiness {
    /// Nothing reported.
    pub fn is_empty(&self) -> bool {
        !(self.readable || self.error)
    }
}

/// Polls `fds` for readability until at least one is ready or `timeout`
/// passes (`None` waits indefinitely). Returns per-fd [`Readiness`] in
/// input order; on timeout every entry is empty. `EINTR` is retried
/// internally.
pub fn poll(fds: &[RawFd], timeout: Option<Duration>) -> io::Result<Vec<Readiness>> {
    let mut fds: Vec<libc::pollfd> = fds
        .iter()
        .map(|&fd| libc::pollfd {
            fd,
            events: libc::POLLIN,
            revents: 0,
        })
        .collect();
    // poll(2) takes milliseconds; round partial milliseconds up so a
    // 100 µs timeout is a 1 ms sleep, never a hot 0 ms spin.
    let ms: libc::c_int = match timeout {
        None => -1,
        Some(t) => t
            .as_millis()
            .max(u128::from(!t.is_zero()))
            .min(i32::MAX as u128) as libc::c_int,
    };
    loop {
        let rc = unsafe { libc::poll(fds.as_mut_ptr(), fds.len() as libc::nfds_t, ms) };
        if rc >= 0 {
            return Ok(fds
                .iter()
                .map(|f| Readiness {
                    readable: f.revents & libc::POLLIN != 0,
                    error: f.revents & (libc::POLLERR | libc::POLLHUP | libc::POLLNVAL) != 0,
                })
                .collect());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A self-pipe that wakes a thread blocked in [`poll`]: include
/// [`Waker::fd`] in the polled set, and any thread may
/// call [`Waker::wake`] to make that poll return immediately. Closing is
/// handled by `Drop`.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

// The fds are plain kernel handles; wake() and drain() only touch the
// pipe through syscalls that are safe to issue from any thread.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Opens the pipe.
    pub fn new() -> io::Result<Waker> {
        let mut fds = [-1 as libc::c_int; 2];
        if unsafe { libc::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd to include in the poll set.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the polling thread by writing one byte. Wakes are
    /// level-triggered and coalesce: the pipe holds pending wake bytes
    /// until [`Waker::drain`] reads them, so a burst of wakes costs a
    /// burst of bytes, not lost signals.
    pub fn wake(&self) {
        let byte = [1u8];
        // A full pipe already guarantees the poller will wake; the
        // return value is deliberately ignored.
        let _ = unsafe { libc::write(self.write_fd, byte.as_ptr() as *const libc::c_void, 1) };
    }

    /// Consumes pending wake bytes after a poll reported the pipe
    /// readable. Reads at most one buffer's worth; leftovers simply make
    /// the next poll return immediately, which is harmless.
    pub fn drain(&self) {
        let mut buf = [0u8; 256];
        let _ = unsafe {
            libc::read(
                self.read_fd,
                buf.as_mut_ptr() as *mut libc::c_void,
                buf.len(),
            )
        };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.read_fd);
            libc::close(self.write_fd);
        }
    }
}

/// Exponential backoff for a failing accept loop.
///
/// `accept(2)` failing is not like a connection failing: the listener is
/// shared, the error usually reflects process-wide pressure (EMFILE,
/// ENFILE, ENOBUFS), and the naive `continue` turns the accept thread
/// into a 100%-CPU spin until the pressure clears. Each consecutive
/// failure doubles the pause (from [`AcceptBackoff::FIRST`] up to
/// [`AcceptBackoff::MAX`]); any successful accept resets it.
#[derive(Clone, Copy, Debug, Default)]
pub struct AcceptBackoff {
    consecutive_errors: u32,
}

impl AcceptBackoff {
    /// Pause after the first failure.
    pub const FIRST: Duration = Duration::from_millis(1);
    /// Ceiling on the pause, however long the error streak.
    pub const MAX: Duration = Duration::from_millis(100);

    /// A fresh schedule with no failures recorded.
    pub fn new() -> AcceptBackoff {
        AcceptBackoff::default()
    }

    /// Records one accept failure; returns how long to pause before
    /// retrying (doubling per consecutive failure, capped at
    /// [`AcceptBackoff::MAX`]).
    pub fn on_error(&mut self) -> Duration {
        let shift = self.consecutive_errors.min(16);
        self.consecutive_errors = self.consecutive_errors.saturating_add(1);
        Self::FIRST.saturating_mul(1u32 << shift).min(Self::MAX)
    }

    /// Records a successful accept, resetting the schedule.
    pub fn on_success(&mut self) {
        self.consecutive_errors = 0;
    }

    /// Whether the loop is currently in an error streak.
    pub fn in_error_streak(&self) -> bool {
        self.consecutive_errors > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poll_times_out_empty_and_reports_the_waker() {
        let waker = Waker::new().unwrap();
        let entries = [waker.fd()];
        let ready = poll(&entries, Some(Duration::from_millis(5))).unwrap();
        assert!(ready[0].is_empty(), "no wake yet: {:?}", ready[0]);

        waker.wake();
        let ready = poll(&entries, Some(Duration::from_secs(2))).unwrap();
        assert!(ready[0].readable, "a wake must be visible: {:?}", ready[0]);
        waker.drain();
        let ready = poll(&entries, Some(Duration::from_millis(5))).unwrap();
        assert!(ready[0].is_empty(), "drain consumes the wake");
    }

    #[test]
    fn wake_from_another_thread_interrupts_a_long_poll() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let w = std::sync::Arc::clone(&waker);
        let t0 = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let entries = [waker.fd()];
        let ready = poll(&entries, Some(Duration::from_secs(30))).unwrap();
        assert!(ready[0].readable);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the wake, not the timeout, must end the poll"
        );
        handle.join().unwrap();
    }

    #[test]
    fn accept_backoff_doubles_caps_and_resets() {
        let mut b = AcceptBackoff::new();
        assert!(!b.in_error_streak());
        let first = b.on_error();
        assert_eq!(first, AcceptBackoff::FIRST);
        assert!(b.in_error_streak());
        let mut prev = first;
        let mut saw_cap = false;
        for _ in 0..20 {
            let d = b.on_error();
            assert!(d >= prev, "backoff must be non-decreasing");
            assert!(d <= AcceptBackoff::MAX);
            saw_cap |= d == AcceptBackoff::MAX;
            prev = d;
        }
        assert!(saw_cap, "20 consecutive failures must reach the cap");
        b.on_success();
        assert!(!b.in_error_streak());
        assert_eq!(b.on_error(), AcceptBackoff::FIRST, "success resets");
    }

    #[test]
    fn a_hundred_failures_sleep_long_enough_to_not_spin() {
        // The regression the schedule exists for: a persistent accept
        // error (EMFILE) must not become a hot loop. 100 consecutive
        // failures must schedule well over a second of cumulative pause.
        let mut b = AcceptBackoff::new();
        let total: Duration = (0..100).map(|_| b.on_error()).sum();
        assert!(
            total >= Duration::from_secs(5),
            "100 failures only paused {total:?}"
        );
    }
}
