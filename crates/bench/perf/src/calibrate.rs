//! Host-speed calibration: how fast is the machine *right now*?
//!
//! The reference container shares its cores. A fixed piece of work runs at
//! one of two speeds 1.27× apart, flipping every few hundred milliseconds;
//! memory-bound work swings by 1.5×; 3 % of wall time goes to stalls of up to
//! 0.2 s; and the mix drifts over minutes. Ten runs of one workload spread
//! (interquartile range over median) by up to 0.29 on raw wall time — wider
//! than the widest bound a benchmark may declare — and medians an hour apart
//! differ by 24 %. None of that is a property of the program under test.
//!
//! So every rep brackets its timed region with a fixed kernel of the
//! benchmark's own — an ALU loop and a dependent pointer chase over 32 MiB,
//! no code of the repository — and reports its times in *reference seconds*:
//! measured seconds × [`host_speed`], where 1.0 is the reference container
//! running uncontended. In the noisiest hour measured the adjusted times
//! spread by 0.04–0.07 where the raw ones spread by 0.10–0.23; over two full
//! sets of ten runs by 0.02–0.13 against 0.04–0.16, and the two sets' medians
//! agree within 6 %. Raw samples and every speed reading stay in
//! `result.json`.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the ALU loop (xorshift, one dependent chain).
const COMPUTE_STEPS: u64 = 48_000_000;
/// Steps of the pointer chase, and the words it wanders over (32 MiB, larger
/// than the host's last-level cache share).
const MEMORY_STEPS: u64 = 1_200_000;
const MEMORY_WORDS: usize = 1 << 22;

/// About the fastest the two kernels have been seen to run on the reference
/// container (`ac3-perf calibrate`: minimum over 200 readings, rounded
/// down): the meaning of speed 1.0. They fix a unit, nothing else — every
/// comparison this benchmark serves is between two runs on one host.
const COMPUTE_REF_S: f64 = 0.0700;
const MEMORY_REF_S: f64 = 0.1400;

fn compute_kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..COMPUTE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

fn memory_kernel() -> f64 {
    // Allocated per reading and freed before the timed region that follows,
    // so the arena never counts towards a rep's peak resident set.
    let mut arena: Vec<u64> = (0..MEMORY_WORDS as u64).collect();
    let mask = MEMORY_WORDS as u64 - 1;
    let t = Instant::now();
    let mut i = 0u64;
    for _ in 0..MEMORY_STEPS {
        let v = arena[i as usize];
        arena[i as usize] = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        i = (v ^ (v >> 29)).wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask;
    }
    black_box(i);
    t.elapsed().as_secs_f64()
}

/// One reading of the host's speed relative to the uncontended reference
/// container: the geometric mean of the two kernels' speeds, because the
/// engine's own work is part arithmetic (hashing, signatures) and part
/// pointer chasing (maps, shared blocks). About 0.25 s.
pub fn host_speed() -> f64 {
    let compute = COMPUTE_REF_S / compute_kernel();
    let memory = MEMORY_REF_S / memory_kernel();
    (compute * memory).sqrt()
}

/// The raw kernel times, for setting the reference constants
/// (`ac3-perf calibrate`).
pub fn kernel_times() -> (f64, f64) {
    (compute_kernel(), memory_kernel())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_a_plausible_speed() {
        let speed = host_speed();
        assert!(speed.is_finite() && speed > 0.01 && speed < 100.0, "speed {speed}");
    }
}
