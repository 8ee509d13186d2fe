//! Host-speed calibration: a fixed kernel timed between points.
//!
//! The benchmark runs on shared cloud hosts whose speed drifts by up to
//! 1.5× over minutes (neighbours contend for the core, caches and
//! memory), so the same code reads very differently from one run to the
//! next. The kernel below is plain `std` code, independent of the
//! toolchain under test: a change to the toolchain cannot move it, only
//! the host can. The end-to-end times are therefore reported at a
//! reference host speed: each wall time is multiplied by
//! [`REFERENCE_MS`] over the kernel's time measured around it
//! ([`Calibration::scale`]). The raw wall times are printed beside them
//! and the kernel's median is the per-layer metric `host.calib_ms`.
//!
//! The kernel mixes what the toolchain's layers do: sorting, ordered
//! maps with pointer-chasing lookups, and short-lived allocations of
//! strings and small vectors.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's typical time in ms on the host the benchmark was tuned
/// on (a 2-vCPU Xeon cloud VM, release build; per-run medians of
/// 6.1–7.7 ms). A normalised time is the time the measured work would
/// take on a host where the kernel takes exactly this long.
pub const REFERENCE_MS: f64 = 7.0;

/// Xorshift64: the kernel's fixed input stream.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The calibration kernel. Its work is fixed; only its time varies.
#[must_use]
pub fn kernel() -> u64 {
    let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15);
    let mut sorted: Vec<u64> = (0..40_000).map(|_| rng.next()).collect();
    sorted.sort_unstable();
    let mut numbers = BTreeMap::new();
    for _ in 0..12_000 {
        numbers.insert(rng.next() % 50_000, rng.next());
    }
    let mut sum = 0u64;
    for _ in 0..12_000 {
        if let Some(v) = numbers.get(&(rng.next() % 50_000)) {
            sum = sum.wrapping_add(*v);
        }
    }
    let mut named: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for i in 0..4_000u32 {
        named.insert(
            format!("v{}", rng.next() % 20_000),
            vec![i; (i % 9) as usize],
        );
    }
    for _ in 0..4_000 {
        if let Some(v) = named.get(&format!("v{}", rng.next() % 20_000)) {
            sum = sum.wrapping_add(v.len() as u64);
        }
    }
    sum ^ sorted[sorted.len() / 2] ^ named.len() as u64
}

/// Times one run of [`kernel`], in ms.
#[must_use]
pub fn time_kernel() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Kernel runs after an interval: one per this many ms of the
/// interval, so a long interval's speed is estimated from more samples.
pub const SAMPLE_EVERY_MS: f64 = 250.0;

/// At most this many kernel runs after one interval.
pub const MAX_SAMPLES: usize = 8;

/// The kernel times taken during one run.
#[derive(Debug, Default)]
pub struct Calibration {
    /// Every kernel time taken, in ms.
    pub times: Vec<f64>,
    /// Mean kernel ms of the block that ended the last interval.
    last: Option<f64>,
}

impl Calibration {
    /// Times `n` kernel runs, records them and returns their mean ms.
    fn block(&mut self, n: usize) -> f64 {
        let start = self.times.len();
        self.times.extend((0..n).map(|_| time_kernel()));
        self.times[start..].iter().sum::<f64>() / n as f64
    }

    /// Times `f` between two blocks of kernel runs and returns its
    /// result, its wall ms and its ms at the reference host speed. The
    /// block before is the one that ended the previous interval, unless
    /// `fresh` (something else ran in between); the block after has one
    /// kernel run per [`SAMPLE_EVERY_MS`] of the interval, at most
    /// [`MAX_SAMPLES`].
    pub fn scale<R>(&mut self, fresh: bool, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = match self.last {
            Some(last) if !fresh => last,
            _ => self.block(1),
        };
        let start = Instant::now();
        let result = f();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let samples = ((wall / SAMPLE_EVERY_MS).ceil() as usize).clamp(1, MAX_SAMPLES);
        let after = self.block(samples);
        self.last = Some(after);
        (result, wall, wall * 2.0 * REFERENCE_MS / (before + after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scaling_brackets_the_interval() {
        let mut calibration = Calibration::default();
        let (value, wall, scaled) = calibration.scale(true, || 7);
        assert_eq!(value, 7);
        assert_eq!(calibration.times.len(), 2);
        assert!(wall >= 0.0 && scaled >= 0.0);
        calibration.scale(false, || ());
        assert_eq!(calibration.times.len(), 3, "the last block is reused");
        calibration.scale(false, || {
            std::thread::sleep(std::time::Duration::from_secs_f64(
                1.5 * SAMPLE_EVERY_MS / 1e3,
            ));
        });
        assert_eq!(
            calibration.times.len(),
            5,
            "two runs after a longer interval"
        );
    }
}
