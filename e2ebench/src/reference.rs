//! The host-speed reference: a fixed CPU loop that belongs to the
//! benchmark, run right before every timed pipeline call.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 1.7×
//! over minutes (other tenants contending for the same cores and
//! caches), which moves every wall and CPU time with it. The reference
//! loop shares none of the program's code, so a change to the program
//! cannot move it; only the host can. Each call's time divided by the
//! reference time just before it is a measure of the program's own
//! speed that host drift cancels out of, and multiplying it by
//! [`NOMINAL_THREAD_S`] turns it back into seconds on a host of fixed
//! speed.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference thread takes on the host the benchmark was
/// sized on (a 2-vCPU x86_64 KVM guest, in a quiet period). Every
/// reported time is a measured time scaled to this speed.
pub const NOMINAL_THREAD_S: f64 = 0.055;

/// Matrix products per reference thread.
const ITERATIONS: u32 = 6000;

/// One timed run of the reference loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds of the whole run.
    pub wall_s: f64,
    /// CPU seconds the reference threads used, summed.
    pub thread_cpu_s: f64,
    /// CPU seconds the whole process used meanwhile.
    pub process_cpu_s: f64,
    /// Allocator calls the reference made, so that a section's
    /// allocation counts can leave them out.
    pub alloc_calls: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
}

impl Sample {
    /// CPU seconds the process spent on anything but the reference
    /// while it ran: 0 when no program thread was busy.
    #[must_use]
    pub fn foreign_cpu_s(&self) -> f64 {
        (self.process_cpu_s - self.thread_cpu_s).max(0.0)
    }
}

/// Runs the loop on `threads` threads at once, as the executor would
/// occupy them, and times it.
#[must_use]
pub fn run(threads: usize) -> Sample {
    let allocs_start = crate::alloc::totals();
    let process_start = crate::process_cpu_s();
    let start = Instant::now();
    let thread_cpu_s = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|t| scope.spawn(move || work(t))).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("the reference loop does not panic"))
            .sum()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let process_cpu_s = crate::process_cpu_s() - process_start;
    let allocs = crate::alloc::totals();
    Sample {
        wall_s,
        thread_cpu_s,
        process_cpu_s,
        alloc_calls: allocs.calls - allocs_start.calls,
        alloc_bytes: allocs.bytes - allocs_start.bytes,
    }
}

/// Small dense products on freshly allocated operands, as the program's
/// tiny-model training does; returns this thread's CPU seconds.
fn work(thread: usize) -> f64 {
    let cpu_start = crate::cpu_clock_s(crate::CLOCK_THREAD_CPUTIME_ID);
    let mut acc = 0.0f32;
    for k in 0..ITERATIONS {
        let n = 8 + (k as usize + thread) % 17;
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i as u32 ^ k) % 97) as f32 * 1e-2)
            .collect();
        let b: Vec<f32> = a.iter().rev().copied().collect();
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for p in 0..n {
                let x = a[i * n + p];
                for j in 0..n {
                    c[i * n + j] += x * b[p * n + j];
                }
            }
        }
        acc += black_box(&c)[n + 1];
    }
    black_box(acc);
    crate::cpu_clock_s(crate::CLOCK_THREAD_CPUTIME_ID) - cpu_start
}
