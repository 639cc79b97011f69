//! Host-speed calibration.
//!
//! On the two-vCPU host the benchmark was calibrated on, other tenants
//! slowed the ISS by up to 1.8x for seconds to minutes at a time, far
//! more than any regression bound can absorb. A run therefore
//! interleaves a fixed loop of its own with its operations — a small
//! register-machine interpreter, which slows down with the ISS because
//! it stresses the same dispatch and memory paths — and scales each
//! compute-bound time by the loop's reference time over its time around
//! that moment. The loop is benchmark code, so no change to the
//! platform can move it.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// About the loop's time (ms) on the uncontended calibration host:
/// scaled times read as milliseconds on that host.
pub const REFERENCE_MS: f64 = 0.63;

/// Share of a run's measured time spent calibrating.
const SHARE: f64 = 0.1;

/// Samples taken right after each set-up, and the samples nearest in
/// time that scale an operation.
const NEAR: usize = 8;

/// Interpreter steps per calibration sample.
const STEPS: usize = 300_000;

/// A run's calibration samples.
pub struct Calibration {
    code: Vec<u32>,
    mem: Vec<u32>,
    /// `(end, ms)` per sample, in time order.
    samples: Vec<(Instant, f64)>,
    work_ms: f64,
    spent_ms: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut x = 0x1234_5678_u64;
        let code = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibration {
            code,
            mem: vec![0; 1 << 14],
            samples: Vec::new(),
            work_ms: 0.0,
            spent_ms: 0.0,
        }
    }

    fn sample(&mut self) {
        let t = Instant::now();
        black_box(interpret(black_box(&self.code), &mut self.mem, STEPS));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push((Instant::now(), ms));
        self.spent_ms += ms;
    }

    /// Accounts `work_ms` of measured work and runs samples until
    /// calibration has taken its share of the run (at least one).
    pub fn keep_up(&mut self, work_ms: f64) {
        self.work_ms += work_ms;
        while self.samples.is_empty() || self.spent_ms < SHARE * self.work_ms {
            self.sample();
        }
    }

    /// The set-up that began at `started`, in seconds at the
    /// calibration host's speed, scaled by the median of a batch of
    /// samples taken right after it.
    pub fn set_up_s(&mut self, started: Instant) -> f64 {
        let s = started.elapsed().as_secs_f64();
        let before = self.samples.len();
        self.keep_up(s * 1e3);
        while self.samples.len() - before < NEAR {
            self.sample();
        }
        let batch: Vec<f64> = self.samples[before..].iter().map(|s| s.1).collect();
        s * REFERENCE_MS / stats::median(&batch)
    }

    /// `ms` of compute-bound work that ended at `end`, at the
    /// calibration host's speed: scaled by the median of the samples
    /// nearest in time to `end`.
    pub fn scaled_ms(&self, ms: f64, end: Instant) -> f64 {
        let at = self.samples.partition_point(|s| s.0 < end);
        let (mut lo, mut hi) = (at, at);
        while hi - lo < NEAR.min(self.samples.len()) {
            let earlier = lo.checked_sub(1).map(|i| end - self.samples[i].0);
            let later = self.samples.get(hi).map(|s| s.0 - end);
            match (earlier, later) {
                (Some(e), Some(l)) if e < l => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        ms * REFERENCE_MS / stats::median(&near)
    }

    /// The run's overall scale factor: the reference time over the
    /// median sample.
    pub fn scale(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        REFERENCE_MS / stats::median(&all)
    }
}

/// A register machine with sixteen opcodes, indirect dispatch and
/// data-dependent branches over a 64 KiB memory.
fn interpret(code: &[u32], mem: &mut [u32], steps: usize) -> u32 {
    let mut r = [1u32; 8];
    let mut pc = 0;
    let mask = mem.len() - 1;
    for _ in 0..steps {
        let w = code[pc];
        let (a, b, c) = (
            (w >> 16) as usize & 7,
            (w >> 8) as usize & 7,
            w as usize & 7,
        );
        pc += 1;
        match (w >> 24) & 15 {
            0 => r[a] = r[b].wrapping_add(r[c]),
            1 => r[a] = r[b].wrapping_sub(r[c]),
            2 => r[a] = r[b] ^ r[c],
            3 => r[a] = r[b].wrapping_mul(r[c] | 1),
            4 => r[a] = mem[r[b] as usize & mask],
            5 => mem[r[b] as usize & mask] = r[c],
            6 => r[a] = r[b].rotate_left(r[c] & 31),
            7 => r[a] = r[b] >> (r[c] & 31),
            8 => {
                if r[b] & 1 == 1 {
                    pc = (w as usize & 0xff) % code.len();
                }
            }
            9 => {
                if r[b] < r[c] {
                    pc = (w as usize & 0x3ff) % code.len();
                }
            }
            10 => r[a] = r[b].wrapping_add(w & 0xff),
            11 => r[a] = ((u64::from(r[b]) * u64::from(r[c])) >> 32) as u32,
            12 => r[a] = r[b].count_ones(),
            13 => r[a] = r[b] & r[c],
            14 => r[a] = r[b] | r[c],
            _ => r[a] = !r[b],
        }
        if pc >= code.len() {
            pc = 0;
        }
    }
    r.iter().fold(0, |acc, v| acc ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn an_operation_is_scaled_by_the_samples_nearest_to_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut calib = Calibration::new();
        // Eight slow samples early, eight at reference speed late.
        calib.samples = (0..8)
            .map(|i| (at(i), 2.0 * REFERENCE_MS))
            .chain((0..8).map(|i| (at(1000 + i), REFERENCE_MS)))
            .collect();
        let scaled = |calib: &Calibration, end| (calib.scaled_ms(10.0, end) * 1e9).round() / 1e9;
        assert_eq!(scaled(&calib, at(4)), 5.0);
        assert_eq!(scaled(&calib, at(1003)), 10.0);
        assert_eq!(scaled(&calib, at(5000)), 10.0);
        // Fewer samples than the window: all of them.
        calib.samples.truncate(3);
        assert_eq!(scaled(&calib, at(5000)), 5.0);
    }
}
