//! The reference loop: a fixed, memory-bound workload that shares no
//! code with the simulator and is timed between cells.
//!
//! Host-time noise on a shared machine comes in episodes of contention
//! from other tenants that last seconds and slow the simulator by up to
//! 50% while a pure ALU loop moves a few percent. Of the loops tried on
//! a 2-vCPU KVM guest (random reads over 1-32 MiB, dependent chases,
//! branchy reads), unpredictable branches over random reads of an 8 MiB
//! working set tracked those episodes best (correlation about 0.5 with
//! per-cell simulator time), so dividing a cell's host time by the
//! reference time measured beside it removes part of the drift
//! (`wall_ref`).

use std::hint::black_box;
use std::time::Instant;

/// Working set in 64-bit words: 8 MiB, past the per-core L2 and inside
/// the shared L3, like the simulator's hot state.
const WORDS: usize = 1 << 20;
/// Random reads per timing, about 4.5 ms on a 2-vCPU cloud VM.
const READS: u32 = 250_000;

/// A fixed branchy random-access loop over an 8 MiB buffer.
pub struct RefLoop {
    buf: Vec<u64>,
}

impl RefLoop {
    /// Allocates and fills the buffer. The contents are fixed, so the
    /// loop does the same work in every run and for every seed.
    pub fn new() -> RefLoop {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let buf = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        RefLoop { buf }
    }

    /// Runs the loop once and returns its host seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mask = WORDS as u64 - 1;
        let mut idx: u64 = 0x2545_f491_4f6c_dd1d;
        let mut acc: u64 = 0;
        for _ in 0..READS {
            idx = idx
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = self.buf[((idx >> 20) & mask) as usize];
            // Branches on random bits: mispredicted half the time, as the
            // simulator's data-dependent control flow often is.
            if v & 1 == 0 {
                acc = acc.wrapping_add(v >> 3);
            } else if v & 2 == 0 {
                acc ^= v.rotate_left(7);
            } else {
                acc = acc.wrapping_mul(v | 1);
            }
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}
