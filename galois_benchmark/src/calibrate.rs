//! The calibration kernel behind normalised time.
//!
//! Raw pass times on a shared 2-core box wobble ±20 % within a minute
//! and drift further over ten; the same passes divided by a fixed
//! kernel run right before and after them agree within a few percent.
//! The kernel lives here, touches no repository code and allocates
//! nothing after construction, so no change to the engine can move it:
//! a xorshift fill + `sort_unstable` of 2²⁰ `u64` (branchy compute,
//! like parsing and hashing) followed by a dependent-load walk over a
//! 32 MB table (cache-miss latency, like the stores' hash maps).

use std::hint::black_box;
use std::time::Instant;

/// What the kernel costs on a quiet run of the sizing box, and therefore
/// the unit of normalised time: a pass measured between two kernel runs
/// of exactly this length reports its wall time unchanged.
pub const NOMINAL_NS: f64 = 100_000_000.0;

const SORT_LEN: usize = 1 << 20;
/// 8 Mi `u32` slots = 32 MB, far past the last-level cache.
const TABLE_LEN: usize = 1 << 23;
const WALK_STEPS: usize = 625_000;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The kernel's buffers, allocated once.
pub struct Calibrator {
    sort_buf: Vec<u64>,
    /// One random cycle through every slot (Sattolo), so each load's
    /// address depends on the previous load's value.
    table: Vec<u32>,
    pos: u32,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE_LEN).rev() {
            let j = (xorshift(&mut state) % i as u64) as usize;
            table.swap(i, j);
        }
        Calibrator {
            sort_buf: vec![0; SORT_LEN],
            table,
            pos: 0,
        }
    }

    /// Runs the kernel once and returns its wall time in nanoseconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for slot in self.sort_buf.iter_mut() {
            *slot = xorshift(&mut state);
        }
        self.sort_buf.sort_unstable();
        black_box(self.sort_buf[SORT_LEN / 2]);
        let mut pos = self.pos;
        for _ in 0..WALK_STEPS {
            pos = self.table[pos as usize];
        }
        self.pos = black_box(pos);
        started.elapsed().as_nanos() as f64
    }
}

/// The factor that turns a wall time measured between two kernel runs
/// into normalised time: `NOMINAL / mean(before, after)`.
pub fn norm_factor(cal_before_ns: f64, cal_after_ns: f64) -> f64 {
    NOMINAL_NS / ((cal_before_ns + cal_after_ns) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_arithmetic() {
        // A nominal-speed box leaves times unchanged.
        assert_eq!(norm_factor(NOMINAL_NS, NOMINAL_NS), 1.0);
        // A box running at half speed (kernel takes twice as long)
        // halves every wall time it reports.
        assert_eq!(norm_factor(2.0 * NOMINAL_NS, 2.0 * NOMINAL_NS), 0.5);
        // The bracket is the mean of the two kernel runs.
        assert_eq!(norm_factor(0.5 * NOMINAL_NS, 1.5 * NOMINAL_NS), 1.0);
        let wall_ns = 630e6;
        let f = norm_factor(125e6, 115e6);
        assert!((wall_ns * f - 525e6).abs() < 1.0);
    }

    #[test]
    fn kernel_walk_is_one_cycle_and_reusable() {
        let mut cal = Calibrator::new();
        // Sattolo's shuffle yields a single cycle: no slot maps to itself.
        assert!(cal
            .table
            .iter()
            .enumerate()
            .all(|(i, &next)| i as u32 != next));
        let cap = (cal.sort_buf.capacity(), cal.table.capacity());
        assert!(cal.run() > 0.0);
        assert!(cal.run() > 0.0);
        assert_eq!(cap, (cal.sort_buf.capacity(), cal.table.capacity()));
    }
}
