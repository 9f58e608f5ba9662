//! Host speed, from a fixed reference loop timed between kernel runs.
//!
//! On a shared host, other tenants slow a thread down by up to a half, in
//! stretches that last from seconds to minutes, so an invocation can fall
//! wholly inside a slow stretch and no statistic over its own samples can
//! tell. The reference loop is branchy integer work over a table that
//! fits in a core's L2 cache; it slows down with the simulator's step
//! loop (the two track each other far better than an arithmetic chain or
//! a walk over memory does), and it runs none of the simulator's code, so
//! a change to the simulator does not move it. Each kernel run is timed
//! between two runs of the loop, and its host time is scaled by
//! [`speed_factor`] to the time it would take on a host where the loop
//! takes [`NOMINAL_REFERENCE_S`]. The step loop feels contention more
//! than the reference loop does, hence [`SENSITIVITY`].

use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference loop takes on the nominal host: roughly its
/// fastest time on a 2.0 GHz Xeon (Sapphire Rapids) KVM guest.
pub const NOMINAL_REFERENCE_S: f64 = 0.010;

/// How much more the simulator slows down than the reference loop, as
/// the exponent of the loop's slow-down. Least-squares fits of log run
/// time against log loop time gave 1.3 to 1.6 over three 5-minute traces
/// on a 2-vCPU KVM guest (`sharing` twice with this loop,
/// `multi-gpu-lossy` once with a similar branchy one); with 1.5 the
/// spread between 30-second windows was at or near its least in all
/// three, and a third to a half of what it was with 1.
pub const SENSITIVITY: f64 = 1.5;

/// Entries of the reference table (256 KiB of `u32`).
const TABLE_LEN: usize = 1 << 16;

/// Passes over the table per timing.
const PASSES: usize = 16;

/// The reference loop's input: pseudo-random words from a fixed seed, so
/// its branches are unpredictable and the same in every process.
pub struct Reference {
    table: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u32
            })
            .collect();
        Reference { table }
    }
}

impl Reference {
    /// Host seconds of one run of the reference loop.
    #[must_use]
    pub fn time(&self) -> f64 {
        let table = black_box(&self.table);
        let t = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for _ in 0..PASSES {
            for &v in table {
                let v = u64::from(v);
                if v & 1 == 0 {
                    a = a.wrapping_add(v ^ b);
                } else {
                    b = b.wrapping_add(v ^ c).rotate_left(5);
                }
                if v & 2 == 0 {
                    c = c.wrapping_add(v ^ d);
                } else {
                    d = d.wrapping_add(v ^ a).rotate_left(3);
                }
            }
        }
        black_box(a ^ b ^ c ^ d);
        t.elapsed().as_secs_f64()
    }
}

/// Factor that scales a host time measured between reference timings
/// `before` and `after` (seconds) to the nominal host.
#[must_use]
pub fn speed_factor(before: f64, after: f64) -> f64 {
    (NOMINAL_REFERENCE_S / (before * after).sqrt()).powf(SENSITIVITY)
}
