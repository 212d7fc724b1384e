//! CPU-time clocks (`clock_gettime` with the process and thread CPU
//! clock ids) beside the wall clock.
//!
//! On a shared virtual machine the hypervisor takes CPU time from the
//! guest ("steal") in bursts that depend on other tenants' load; wall
//! time absorbs it, CPU time does not (the guest kernel leaves steal
//! out of task run time). The measured runs report CPU time for that
//! reason; see the README.

#![allow(unsafe_code)]

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`'s `repr(C)` layout)
    // through the pointer, which points at a live local for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by the whole process so far (every thread,
/// including exited ones).
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// A wall/CPU stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    process: f64,
    thread: f64,
}

/// Elapsed wall and CPU time between two stamps, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub process: f64,
    /// Calling-thread CPU seconds.
    pub thread: f64,
}

impl Stamp {
    /// Read every clock now.
    pub fn now() -> Self {
        Stamp {
            wall: Instant::now(),
            process: process_s(),
            thread: thread_s(),
        }
    }

    /// Time elapsed since `self`.
    pub fn elapsed(&self) -> Span {
        let now = Stamp::now();
        Span {
            wall: (now.wall - self.wall).as_secs_f64(),
            process: now.process - self.process,
            thread: now.thread - self.thread,
        }
    }
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, o: Span) {
        self.wall += o.wall;
        self.process += o.process;
        self.thread += o.thread;
    }
}
