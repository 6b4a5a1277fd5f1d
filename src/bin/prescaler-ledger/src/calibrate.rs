//! Host-speed calibration of the measured pass.
//!
//! On a shared host the CPU the benchmark is pinned to slows by up to 40%
//! for minutes at a time: a fixed compute loop there took 19 ms in one
//! minute and 27 ms in the next. Raw wall times of ten runs then spread
//! by 5–34% between their quartiles, more than any useful bound. So the
//! measured pass samples a fixed kernel that never touches the library
//! before every operation and before every application run inside one
//! (at most every [`FRESH_MS`]), and scales each stretch of wall time
//! between two samples to the speed at which that kernel takes
//! [`REFERENCE_MS`], raised to the workload's host sensitivity. A
//! library change moves the operation and not the kernel, so it shows in
//! full; a slow period of the host moves both and cancels. The raw wall
//! times stay in the record (`round_wall_s`, `host_speed`).

use crate::metrics::median;
use prescaler_ir::Program;
use prescaler_ocl::{HostApp, OclError, Outputs, Session};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The kernel's time on a quiet host of the kind the baseline was taken
/// on (a shared 2-vCPU Intel Xeon VM; the fastest run's median over 28
/// runs). On such a host, scaled times are wall times.
pub const REFERENCE_MS: f64 = 1.8;

/// A sample younger than this is not renewed, so that short operations
/// and runs (`tune-tiny`, serving) spend about 4% of the pass sampling.
const FRESH_MS: f64 = 50.0;

/// Samples room is made for up front: an hour at one per [`FRESH_MS`].
/// When samples are taken depends on the clock, so a growing buffer would
/// reallocate at a different point of the library's allocations in every
/// run, and shift `peak_rss_mb` by up to a megabyte.
const CAPACITY: usize = 72_000;

/// The calibration kernel, in three parts: xorshift-indexed updates of a
/// 32 KiB table with a dependent float chain; ten sorts of copies of a
/// 16 KiB array; and 60 calls of `available_parallelism`, whose
/// affinity and cgroup-file system calls the library also makes for
/// every session. It stays off the heap, so that where it runs does not
/// change the library's heap layout and `peak_rss_mb`.
///
/// Each part brings the kernel's slowdown closer to the workloads'. In
/// 28 runs of `tune-tiny` and `tune-suite` on a varying host, the share
/// of the host's slowdown left in the scaled times (the slope of log
/// scaled time on log kernel time) was 0.58 and 0.31 with the table loop
/// alone, 0.42 and 0.17 with the sorts added, and 0.20 and −0.01 with the
/// system calls too.
fn kernel() {
    let steps = std::hint::black_box(100_000u64);
    let mut table = [0u64; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut f = 1.0f64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 4095;
        table[j] = table[j].wrapping_add(i);
        if table[(j + 1) & 4095] & 1 == 0 {
            f = f * 1.000_001 + 1e-9;
        }
    }
    std::hint::black_box((&table, f));
    let mut keys = [0u32; 4096];
    for (i, k) in (0u32..).zip(keys.iter_mut()) {
        *k = i.wrapping_mul(2_654_435_761);
    }
    for _ in 0..std::hint::black_box(10) {
        let mut sorted = keys;
        sorted.sort_unstable();
        std::hint::black_box(&sorted);
    }
    for _ in 0..std::hint::black_box(60) {
        std::hint::black_box(std::thread::available_parallelism().ok());
    }
}

/// One run of the kernel.
struct Sample {
    start: Instant,
    end: Instant,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The kernel runs of one pass, in order.
pub struct HostSpeed {
    samples: Mutex<Vec<Sample>>,
    /// The workload's wall time goes as the kernel's time to this power
    /// when the host's speed changes ([`Workload::host_sensitivity`]).
    ///
    /// [`Workload::host_sensitivity`]: crate::workloads::Workload::host_sensitivity
    exponent: f64,
}

impl HostSpeed {
    pub fn new(exponent: f64) -> HostSpeed {
        HostSpeed {
            samples: Mutex::new(Vec::with_capacity(CAPACITY)),
            exponent,
        }
    }

    fn samples(&self) -> MutexGuard<'_, Vec<Sample>> {
        self.samples.lock().expect("the kernel never panics")
    }

    /// Runs the kernel now.
    pub fn sample(&self) {
        let start = Instant::now();
        kernel();
        let end = Instant::now();
        self.samples().push(Sample { start, end });
    }

    /// Runs the kernel unless the latest sample is fresh.
    pub fn refresh(&self) {
        let fresh = self
            .samples()
            .last()
            .is_some_and(|s| s.end.elapsed().as_secs_f64() * 1e3 < FRESH_MS);
        if !fresh {
            self.sample();
        }
    }

    /// The time from `start` to `end` in ms at the reference speed,
    /// without the samples taken in between. Each stretch between two
    /// samples is scaled by the reference time over their mean kernel
    /// time, to the power `exponent`; the first by the last sample before
    /// `start`, the last by the first sample after `end`. A stretch with a
    /// sample on one side only is scaled by that one, and one with none is
    /// left as wall time.
    pub fn scaled_ms(&self, start: Instant, end: Instant) -> f64 {
        let samples = self.samples();
        let first = samples.partition_point(|s| s.end <= start);
        let after = samples.partition_point(|s| s.start < end);
        let mut total = 0.0;
        let mut from = start;
        let mut before = first.checked_sub(1).map(|i| samples[i].ms());
        for s in &samples[first..after] {
            total += self.stretch_ms(from, s.start, before, Some(s.ms()));
            from = s.end;
            before = Some(s.ms());
        }
        total + self.stretch_ms(from, end, before, samples.get(after).map(Sample::ms))
    }

    fn stretch_ms(
        &self,
        from: Instant,
        to: Instant,
        before: Option<f64>,
        after: Option<f64>,
    ) -> f64 {
        let wall = to.saturating_duration_since(from).as_secs_f64() * 1e3;
        let known: Vec<f64> = [before, after].into_iter().flatten().collect();
        if known.is_empty() {
            return wall;
        }
        let kernel_ms = known.iter().sum::<f64>() / known.len() as f64;
        wall * (REFERENCE_MS / kernel_ms).powf(self.exponent)
    }

    /// The host's speed over the pass relative to the reference: above 1
    /// is faster.
    pub fn relative(&self) -> f64 {
        let times: Vec<f64> = self.samples().iter().map(Sample::ms).collect();
        REFERENCE_MS / median(&times)
    }
}

/// A [`HostApp`] that samples the host's speed before each run, so that
/// long operations are scaled stretch by stretch.
pub struct Calibrated<'s, A> {
    pub app: A,
    pub speed: &'s HostSpeed,
}

impl<A: HostApp> HostApp for Calibrated<'_, A> {
    fn name(&self) -> &str {
        self.app.name()
    }

    fn program(&self) -> Program {
        self.app.program()
    }

    fn run(&self, session: &mut Session) -> Result<Outputs, OclError> {
        self.speed.refresh();
        self.app.run(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stretches_are_scaled_by_the_samples_around_them() {
        let speed = HostSpeed::new(1.0);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let close = |a: f64, b: f64| assert!((a - b).abs() < 1e-9, "{a} != {b}");
        // No samples: wall time.
        close(speed.scaled_ms(at(10), at(30)), 20.0);
        speed.samples().extend([
            Sample {
                start: at(0),
                end: at(3),
            },
            Sample {
                start: at(40),
                end: at(46),
            },
            Sample {
                start: at(100),
                end: at(103),
            },
        ]);
        // 10 ms before the middle sample and 54 ms after it, each
        // between a 3 ms and a 6 ms sample; the sample's own 6 ms is
        // left out.
        close(speed.scaled_ms(at(30), at(100)), 64.0 * REFERENCE_MS / 4.5);
        // Past the last sample, the one before serves alone.
        close(speed.scaled_ms(at(200), at(210)), 10.0 * REFERENCE_MS / 3.0);
        // A workload that slows more than the kernel is scaled more.
        let steep = HostSpeed::new(1.2);
        steep.samples().push(Sample {
            start: at(0),
            end: at(3),
        });
        close(
            steep.scaled_ms(at(10), at(20)),
            10.0 * (REFERENCE_MS / 3.0).powf(1.2),
        );
    }
}
