//! Deterministic, seeded fault injection for the PreScaler pipeline.
//!
//! Real heterogeneous systems fail in ways the simulator's happy path never
//! exercises: transfers abort transiently, kernel launches bounce, device
//! memory bit-flips into NaN/Inf, the hours-old inspector database rots on
//! disk, and every timing measurement carries noise. This crate models all
//! five as a [`FaultPlan`] — a pure seeded configuration threaded through
//! `SystemModel` into the runtime — so robustness scenarios are exactly
//! reproducible: the same seed yields the same fault sequence on every run.
//!
//! # Design
//!
//! A plan holds per-[`FaultKind`] *rates* plus a seed. Each injection site
//! asks the plan a question (`transfer_fails()`, `corrupt_buffer()`, ...);
//! the plan hashes `(seed, kind, site-counter)` with splitmix64 and compares
//! against the rate. Counters are shared across clones through an [`Arc`],
//! so the `SystemModel` clone living inside a `Session` draws from the same
//! deterministic stream as the original.
//!
//! An inert plan (every rate zero, the default) is guaranteed to leave the
//! pipeline bit-identical to a build without fault hooks: every query
//! short-circuits before touching its counter, and the noise factor is
//! exactly `1.0`.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The categories of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A host↔device transfer aborts transiently.
    Transfer,
    /// A kernel launch bounces transiently.
    KernelLaunch,
    /// A transferred buffer element is poisoned with NaN/Inf.
    BufferCorruption,
    /// An inspector-database timing entry is corrupted.
    DbGridCorruption,
    /// A virtual-clock measurement picks up multiplicative noise.
    ClockNoise,
    /// A production run's inputs drift away from the tuning distribution
    /// (modeled as a multiplicative gain on the generated input data).
    InputDrift,
    /// The GPU thermally throttles: a kernel launch executes at a reduced
    /// effective clock (system drift, not measurement noise).
    Throttle,
    /// The PCIe link degrades: a transfer moves at a reduced effective
    /// bandwidth (link retraining, lane drop, contention).
    BandwidthDrop,
    /// The device falls off the bus mid-operation — a *fatal*, non-
    /// retryable loss, unlike the transient transfer/launch bounces.
    DeviceLost,
    /// An arrival spike hits a serving front-end: extra requests land at
    /// the same virtual instant, pressuring the admission queue.
    OverloadBurst,
}

impl FaultKind {
    const ALL: [FaultKind; 10] = [
        FaultKind::Transfer,
        FaultKind::KernelLaunch,
        FaultKind::BufferCorruption,
        FaultKind::DbGridCorruption,
        FaultKind::ClockNoise,
        FaultKind::InputDrift,
        FaultKind::Throttle,
        FaultKind::BandwidthDrop,
        FaultKind::DeviceLost,
        FaultKind::OverloadBurst,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::Transfer => 0,
            FaultKind::KernelLaunch => 1,
            FaultKind::BufferCorruption => 2,
            FaultKind::DbGridCorruption => 3,
            FaultKind::ClockNoise => 4,
            FaultKind::InputDrift => 5,
            FaultKind::Throttle => 6,
            FaultKind::BandwidthDrop => 7,
            FaultKind::DeviceLost => 8,
            FaultKind::OverloadBurst => 9,
        }
    }

    /// Domain-separation salt mixed into every draw for this kind.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; distinct per kind.
        [
            0x9E6C_63D0_876A_3F35,
            0xD1B5_4A32_D192_ED03,
            0x8CB9_2BA7_2F3D_8DD7,
            0xAAAA_AAAA_AAAA_AAAB,
            0x6A09_E667_F3BC_C909,
            0xB7E1_5162_8AED_2A6B,
            0x3C6E_F372_FE94_F82B,
            0xA54F_F53A_5F1D_36F1,
            0x510E_527F_ADE6_82D1,
            0x9B05_688C_2B3E_6C1F,
        ][self.index()]
    }
}

/// The poison written into a corrupted buffer element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Poison {
    /// Quiet NaN.
    Nan,
    /// Positive infinity.
    PosInf,
    /// Negative infinity.
    NegInf,
}

impl Poison {
    /// The poisoned value.
    #[must_use]
    pub fn value(self) -> f64 {
        match self {
            Poison::Nan => f64::NAN,
            Poison::PosInf => f64::INFINITY,
            Poison::NegInf => f64::NEG_INFINITY,
        }
    }
}

/// A buffer-corruption event: which element to poison and with what.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corruption {
    /// Selector reduced modulo the buffer length by the injection site.
    pub index_selector: u64,
    /// The poison value.
    pub poison: Poison,
}

/// Pure, comparable fault configuration (rates + seed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a transfer attempt aborts.
    pub transfer_failure_rate: f64,
    /// Probability a kernel-launch attempt bounces.
    pub launch_failure_rate: f64,
    /// Probability a transferred buffer gets one poisoned element.
    pub buffer_corruption_rate: f64,
    /// Probability an inspector-DB timing entry is corrupted.
    pub db_corruption_rate: f64,
    /// Relative amplitude of multiplicative clock noise (`0.1` = ±10%).
    pub clock_noise: f64,
    /// Probability a production run's inputs drift.
    pub input_drift_rate: f64,
    /// Relative magnitude of input drift: a drifting run's inputs are
    /// scaled by a gain in `[1 + m/2, 1 + m]` (`m = 0` means no drift even
    /// when the rate fires).
    pub input_drift_magnitude: f64,
    /// Probability a kernel launch executes thermally throttled.
    pub throttle_rate: f64,
    /// Depth of the throttle curve: a throttled launch runs at an
    /// effective clock factor in `[1 - d, 1 - d/2]` (`d = 0` means no
    /// throttling even when the rate fires).
    pub throttle_depth: f64,
    /// Probability a transfer moves over a degraded PCIe link.
    pub bandwidth_drop_rate: f64,
    /// Depth of the bandwidth drop: a degraded transfer sees an effective
    /// bandwidth factor in `[1 - d, 1 - d/2]` (`d = 0` disables the kind).
    pub bandwidth_drop_depth: f64,
    /// Probability a device operation finds the device gone (fatal).
    pub device_loss_rate: f64,
    /// Probability a serving arrival slot turns into an overload burst.
    pub overload_burst_rate: f64,
    /// Size of a burst: a bursting slot injects between 1 and this many
    /// extra arrivals (`0` means no burst even when the rate fires).
    pub overload_burst_size: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            seed: 0,
            transfer_failure_rate: 0.0,
            launch_failure_rate: 0.0,
            buffer_corruption_rate: 0.0,
            db_corruption_rate: 0.0,
            clock_noise: 0.0,
            input_drift_rate: 0.0,
            input_drift_magnitude: 0.0,
            throttle_rate: 0.0,
            throttle_depth: 0.0,
            bandwidth_drop_rate: 0.0,
            bandwidth_drop_depth: 0.0,
            device_loss_rate: 0.0,
            overload_burst_rate: 0.0,
            overload_burst_size: 0,
        }
    }
}

impl FaultConfig {
    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Transfer => self.transfer_failure_rate,
            FaultKind::KernelLaunch => self.launch_failure_rate,
            FaultKind::BufferCorruption => self.buffer_corruption_rate,
            FaultKind::DbGridCorruption => self.db_corruption_rate,
            FaultKind::ClockNoise => self.clock_noise,
            FaultKind::InputDrift => {
                if self.input_drift_magnitude > 0.0 {
                    self.input_drift_rate
                } else {
                    0.0
                }
            }
            FaultKind::Throttle => {
                if self.throttle_depth > 0.0 {
                    self.throttle_rate
                } else {
                    0.0
                }
            }
            FaultKind::BandwidthDrop => {
                if self.bandwidth_drop_depth > 0.0 {
                    self.bandwidth_drop_rate
                } else {
                    0.0
                }
            }
            FaultKind::DeviceLost => self.device_loss_rate,
            FaultKind::OverloadBurst => {
                if self.overload_burst_size > 0 {
                    self.overload_burst_rate
                } else {
                    0.0
                }
            }
        }
    }

    /// True when every rate is zero (no fault can ever fire).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        FaultKind::ALL.iter().all(|k| self.rate(*k) <= 0.0)
    }
}

/// A seeded fault-injection plan.
///
/// Clones share the per-site counters (and therefore the fault stream);
/// equality, `Debug`, and serialization consider only the configuration.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    config: FaultConfig,
    counters: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters([AtomicU64; 10]);

impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        self.config == other.config
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// A plan that never injects anything (the default).
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with the given configuration.
    #[must_use]
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            counters: Arc::default(),
        }
    }

    /// Seeded plan with all rates zero; combine with the `with_*` builders.
    #[must_use]
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            ..FaultConfig::default()
        })
    }

    /// Sets the transfer-failure rate.
    #[must_use]
    pub fn with_transfer_failures(mut self, rate: f64) -> FaultPlan {
        self.config.transfer_failure_rate = rate;
        self
    }

    /// Sets the kernel-launch-failure rate.
    #[must_use]
    pub fn with_launch_failures(mut self, rate: f64) -> FaultPlan {
        self.config.launch_failure_rate = rate;
        self
    }

    /// Sets the buffer-corruption rate.
    #[must_use]
    pub fn with_buffer_corruption(mut self, rate: f64) -> FaultPlan {
        self.config.buffer_corruption_rate = rate;
        self
    }

    /// Sets the inspector-DB corruption rate.
    #[must_use]
    pub fn with_db_corruption(mut self, rate: f64) -> FaultPlan {
        self.config.db_corruption_rate = rate;
        self
    }

    /// Sets the relative clock-noise amplitude.
    #[must_use]
    pub fn with_clock_noise(mut self, amplitude: f64) -> FaultPlan {
        self.config.clock_noise = amplitude;
        self
    }

    /// Sets the input-drift rate and relative magnitude. A drifting run's
    /// inputs are scaled by a gain in `[1 + magnitude/2, 1 + magnitude]`.
    #[must_use]
    pub fn with_input_drift(mut self, rate: f64, magnitude: f64) -> FaultPlan {
        self.config.input_drift_rate = rate;
        self.config.input_drift_magnitude = magnitude;
        self
    }

    /// Sets the thermal-throttle rate and curve depth. A throttled kernel
    /// launch executes at an effective clock factor in `[1 - depth,
    /// 1 - depth/2]`.
    #[must_use]
    pub fn with_throttle(mut self, rate: f64, depth: f64) -> FaultPlan {
        self.config.throttle_rate = rate;
        self.config.throttle_depth = depth;
        self
    }

    /// Sets the PCIe bandwidth-drop rate and depth. A degraded transfer
    /// moves at an effective bandwidth factor in `[1 - depth,
    /// 1 - depth/2]`.
    #[must_use]
    pub fn with_bandwidth_drop(mut self, rate: f64, depth: f64) -> FaultPlan {
        self.config.bandwidth_drop_rate = rate;
        self.config.bandwidth_drop_depth = depth;
        self
    }

    /// Sets the device-loss rate (fatal, non-retryable).
    #[must_use]
    pub fn with_device_loss(mut self, rate: f64) -> FaultPlan {
        self.config.device_loss_rate = rate;
        self
    }

    /// Sets the overload-burst rate and maximum burst size. A bursting
    /// arrival slot injects between 1 and `size` extra requests at the
    /// same virtual instant.
    #[must_use]
    pub fn with_overload_burst(mut self, rate: f64, size: u64) -> FaultPlan {
        self.config.overload_burst_rate = rate;
        self.config.overload_burst_size = size;
        self
    }

    /// Forks an independent plan for a sub-experiment.
    ///
    /// The fork keeps every rate of the parent but derives a fresh seed
    /// from `salt` and starts its counters at zero, so the child draws a
    /// fault stream that depends only on `(parent config, salt)` — not on
    /// how far the parent's stream has advanced. Evaluating the same salt
    /// twice therefore replays the exact same faults, which is what makes
    /// memoized and speculatively parallel trial execution deterministic.
    /// Forks of an inert plan are inert.
    ///
    /// A `clone()` is not a fork: it shares the per-site counters through
    /// the `Arc`, so it *continues* the parent's stream, and draws on
    /// either side advance both. Handing a clone to a sub-experiment
    /// silently couples its faults to how far the parent has drawn.
    #[must_use]
    pub fn fork(&self, salt: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: splitmix64(self.config.seed ^ salt),
            ..self.config
        })
    }

    /// The plan's configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when no fault can ever fire.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.config.is_inert()
    }

    /// Resets the fault stream to its beginning (counters to zero).
    pub fn reset(&self) {
        for c in &self.counters.0 {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Draws the next random bits for `kind`, advancing its counter.
    fn draw(&self, kind: FaultKind) -> u64 {
        let n = self.counters.0[kind.index()].fetch_add(1, Ordering::Relaxed);
        splitmix64(self.config.seed ^ kind.salt() ^ splitmix64(n))
    }

    fn fires(&self, kind: FaultKind) -> bool {
        let rate = self.config.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        unit(self.draw(kind)) < rate
    }

    /// Does the next transfer attempt abort?
    #[must_use]
    pub fn transfer_fails(&self) -> bool {
        self.fires(FaultKind::Transfer)
    }

    /// Does the next kernel-launch attempt bounce?
    #[must_use]
    pub fn launch_fails(&self) -> bool {
        self.fires(FaultKind::KernelLaunch)
    }

    /// Should the next transferred buffer be poisoned — and if so, where
    /// and with what?
    #[must_use]
    pub fn corrupt_buffer(&self) -> Option<Corruption> {
        if !self.fires(FaultKind::BufferCorruption) {
            return None;
        }
        let bits = self.draw(FaultKind::BufferCorruption);
        let poison = match bits % 3 {
            0 => Poison::Nan,
            1 => Poison::PosInf,
            _ => Poison::NegInf,
        };
        Some(Corruption {
            index_selector: bits >> 2,
            poison,
        })
    }

    /// Is the next inspector-DB timing entry corrupted? Returns the bogus
    /// value to store (NaN or a negative time).
    #[must_use]
    pub fn corrupt_db_entry(&self) -> Option<f64> {
        if !self.fires(FaultKind::DbGridCorruption) {
            return None;
        }
        let bits = self.draw(FaultKind::DbGridCorruption);
        Some(if bits & 1 == 0 { f64::NAN } else { -1.0e-6 })
    }

    /// Multiplicative noise factor for the next timing measurement.
    ///
    /// Exactly `1.0` when noise is disabled; otherwise uniform in
    /// `[1 - a, 1 + a]` clamped to stay positive.
    #[must_use]
    pub fn time_noise_factor(&self) -> f64 {
        let a = self.config.clock_noise;
        if a <= 0.0 {
            return 1.0;
        }
        let u = unit(self.draw(FaultKind::ClockNoise));
        (1.0 - a + 2.0 * a * u).max(0.05)
    }

    /// Multiplicative input gain for the next production run.
    ///
    /// Exactly `1.0` when drift is disabled or the run is not selected;
    /// otherwise uniform in `[1 + m/2, 1 + m]` for magnitude `m` — the
    /// same seeded, replayable stream discipline as every other kind.
    #[must_use]
    pub fn input_drift_gain(&self) -> f64 {
        if !self.fires(FaultKind::InputDrift) {
            return 1.0;
        }
        let m = self.config.input_drift_magnitude;
        let u = unit(self.draw(FaultKind::InputDrift));
        1.0 + m * (0.5 + 0.5 * u)
    }

    /// Effective GPU clock factor for the next kernel launch.
    ///
    /// Exactly `1.0` when throttling is disabled or the launch is not
    /// selected; otherwise uniform in `[1 - d, 1 - d/2]` for depth `d`,
    /// clamped to stay positive — the seeded equivalent of a thermal
    /// throttle curve biting on this launch.
    #[must_use]
    pub fn throttle_factor(&self) -> f64 {
        if !self.fires(FaultKind::Throttle) {
            return 1.0;
        }
        let d = self.config.throttle_depth;
        let u = unit(self.draw(FaultKind::Throttle));
        (1.0 - d * (0.5 + 0.5 * u)).max(0.05)
    }

    /// Effective PCIe bandwidth factor for the next transfer.
    ///
    /// Exactly `1.0` when the kind is disabled or the transfer is not
    /// selected; otherwise uniform in `[1 - d, 1 - d/2]` for depth `d`,
    /// clamped to stay positive.
    #[must_use]
    pub fn bandwidth_factor(&self) -> f64 {
        if !self.fires(FaultKind::BandwidthDrop) {
            return 1.0;
        }
        let d = self.config.bandwidth_drop_depth;
        let u = unit(self.draw(FaultKind::BandwidthDrop));
        (1.0 - d * (0.5 + 0.5 * u)).max(0.05)
    }

    /// Is the device gone for the next operation? Unlike the transient
    /// transfer/launch bounces this is fatal: the runtime surfaces it as a
    /// non-retryable error instead of riding it out.
    #[must_use]
    pub fn device_lost(&self) -> bool {
        self.fires(FaultKind::DeviceLost)
    }

    /// Extra arrivals injected at the next serving arrival slot.
    ///
    /// Exactly `0` when the kind is disabled or the slot is not selected;
    /// otherwise uniform in `[1, size]` — the seeded equivalent of a
    /// traffic spike hammering the admission queue at one instant.
    #[must_use]
    pub fn overload_burst(&self) -> u64 {
        if !self.fires(FaultKind::OverloadBurst) {
            return 0;
        }
        let size = self.config.overload_burst_size;
        1 + self.draw(FaultKind::OverloadBurst) % size
    }
}

/// What happens to the write-ahead journal's in-flight record when a
/// [`CrashPoint`] fires — the three ways a real `write(2)` dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TearMode {
    /// The record made it to disk intact before the process died.
    Clean,
    /// A torn write: the final `bytes` bytes of the file are lost.
    Truncate {
        /// Bytes cut off the tail.
        bytes: u32,
    },
    /// A partial next write: `bytes` bytes of garbage land after the
    /// last complete record.
    Garbage {
        /// Garbage bytes appended.
        bytes: u32,
    },
}

/// The panic payload of a simulated process kill. Crash-recovery
/// harnesses `catch_unwind` and downcast to this type; anything else
/// unwinding out of a tuning run is a real bug and is re-raised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimulatedCrash {
    /// The 1-based trial boundary the crash fired at.
    pub boundary: u64,
}

/// A deterministic process-kill point for crash-recovery drills.
///
/// A crash point is armed with a 1-based trial *boundary*: the consumer
/// calls [`CrashPoint::observe_trial`] once after each durably completed
/// trial, and the call returns `true` exactly once — when the counter
/// reaches the boundary. The consumer then applies the configured
/// [`TearMode`] to its journal tail and dies (via
/// [`std::panic::panic_any`] with a [`SimulatedCrash`] payload).
///
/// Clones share the observation counter, mirroring [`FaultPlan`]'s
/// shared-stream discipline, and [`CrashPoint::seeded`] derives both the
/// boundary and the tear mode from a seed with the same splitmix64
/// generator as every other fault kind — the same seed always kills the
/// same run at the same place in the same way.
#[derive(Clone, Debug)]
pub struct CrashPoint {
    boundary: u64,
    tear: TearMode,
    observed: Arc<AtomicU64>,
}

impl CrashPoint {
    /// A crash point firing when the `boundary`-th trial completes
    /// (1-based), with a clean journal tail. A boundary of 0 never fires.
    #[must_use]
    pub fn at(boundary: u64) -> CrashPoint {
        CrashPoint {
            boundary,
            tear: TearMode::Clean,
            observed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Sets what the crash does to the journal's tail.
    #[must_use]
    pub fn with_tear(mut self, tear: TearMode) -> CrashPoint {
        self.tear = tear;
        self
    }

    /// A seeded crash point: the boundary lands uniformly in
    /// `1..=max_boundary` and the tear mode (clean / torn / garbage, with
    /// a seeded size) is drawn from the same stream.
    #[must_use]
    pub fn seeded(seed: u64, max_boundary: u64) -> CrashPoint {
        let salt = 0xC4A5_44C7_25D9_8B11u64; // domain separation for crashes
        let a = splitmix64(seed ^ salt);
        let b = splitmix64(a);
        let c = splitmix64(b);
        let boundary = if max_boundary == 0 {
            0
        } else {
            1 + a % max_boundary
        };
        // 1..=36: strictly inside one 37-byte journal record, so a torn
        // tail always leaves a partial record to recover from.
        let bytes = 1 + (c % 36) as u32;
        let tear = match b % 3 {
            0 => TearMode::Clean,
            1 => TearMode::Truncate { bytes },
            _ => TearMode::Garbage { bytes },
        };
        CrashPoint::at(boundary).with_tear(tear)
    }

    /// The armed boundary.
    #[must_use]
    pub fn boundary(&self) -> u64 {
        self.boundary
    }

    /// The armed tear mode.
    #[must_use]
    pub fn tear(&self) -> TearMode {
        self.tear
    }

    /// Records one completed trial; `true` exactly when this trial is the
    /// armed boundary (fires at most once, clones fire together).
    #[must_use]
    pub fn observe_trial(&self) -> bool {
        if self.boundary == 0 {
            return false;
        }
        self.observed.fetch_add(1, Ordering::Relaxed) + 1 == self.boundary
    }

    /// Trials observed so far.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        if c.is_inert() {
            return write!(f, "faults: none");
        }
        write!(
            f,
            "faults: seed={} transfer={} launch={} corrupt={} db={} noise={} drift={}x{} \
             throttle={}x{} bwdrop={}x{} devloss={} burst={}x{}",
            c.seed,
            c.transfer_failure_rate,
            c.launch_failure_rate,
            c.buffer_corruption_rate,
            c.db_corruption_rate,
            c.clock_noise,
            c.input_drift_rate,
            c.input_drift_magnitude,
            c.throttle_rate,
            c.throttle_depth,
            c.bandwidth_drop_rate,
            c.bandwidth_drop_depth,
            c.device_loss_rate,
            c.overload_burst_rate,
            c.overload_burst_size
        )
    }
}

// Serialization covers the configuration only; counters restart at zero on
// deserialization, which preserves the invariant that a freshly loaded
// system replays the same fault stream from the top.
impl serde::Serialize for FaultPlan {
    fn serialize(&self, out: &mut String) {
        let c = &self.config;
        out.push_str("{\"seed\":");
        serde::Serialize::serialize(&c.seed, out);
        out.push_str(",\"transfer_failure_rate\":");
        serde::Serialize::serialize(&c.transfer_failure_rate, out);
        out.push_str(",\"launch_failure_rate\":");
        serde::Serialize::serialize(&c.launch_failure_rate, out);
        out.push_str(",\"buffer_corruption_rate\":");
        serde::Serialize::serialize(&c.buffer_corruption_rate, out);
        out.push_str(",\"db_corruption_rate\":");
        serde::Serialize::serialize(&c.db_corruption_rate, out);
        out.push_str(",\"clock_noise\":");
        serde::Serialize::serialize(&c.clock_noise, out);
        out.push_str(",\"input_drift_rate\":");
        serde::Serialize::serialize(&c.input_drift_rate, out);
        out.push_str(",\"input_drift_magnitude\":");
        serde::Serialize::serialize(&c.input_drift_magnitude, out);
        out.push_str(",\"throttle_rate\":");
        serde::Serialize::serialize(&c.throttle_rate, out);
        out.push_str(",\"throttle_depth\":");
        serde::Serialize::serialize(&c.throttle_depth, out);
        out.push_str(",\"bandwidth_drop_rate\":");
        serde::Serialize::serialize(&c.bandwidth_drop_rate, out);
        out.push_str(",\"bandwidth_drop_depth\":");
        serde::Serialize::serialize(&c.bandwidth_drop_depth, out);
        out.push_str(",\"device_loss_rate\":");
        serde::Serialize::serialize(&c.device_loss_rate, out);
        out.push_str(",\"overload_burst_rate\":");
        serde::Serialize::serialize(&c.overload_burst_rate, out);
        out.push_str(",\"overload_burst_size\":");
        serde::Serialize::serialize(&c.overload_burst_size, out);
        out.push('}');
    }
}

impl serde::Deserialize for FaultPlan {
    fn deserialize(v: &serde::json::Value) -> Result<FaultPlan, serde::json::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::json::Error::new("expected object for FaultPlan"))?;
        let f = |name: &str| -> Result<f64, serde::json::Error> {
            match serde::json::get(entries, name) {
                Some(v) => serde::Deserialize::deserialize(v),
                None => Ok(0.0),
            }
        };
        let seed = match serde::json::get(entries, "seed") {
            Some(v) => serde::Deserialize::deserialize(v)?,
            None => 0,
        };
        Ok(FaultPlan::new(FaultConfig {
            seed,
            transfer_failure_rate: f("transfer_failure_rate")?,
            launch_failure_rate: f("launch_failure_rate")?,
            buffer_corruption_rate: f("buffer_corruption_rate")?,
            db_corruption_rate: f("db_corruption_rate")?,
            clock_noise: f("clock_noise")?,
            // Absent in pre-drift snapshots: defaults keep them inert.
            input_drift_rate: f("input_drift_rate")?,
            input_drift_magnitude: f("input_drift_magnitude")?,
            // Absent in pre-system-drift snapshots: same inert defaults.
            throttle_rate: f("throttle_rate")?,
            throttle_depth: f("throttle_depth")?,
            bandwidth_drop_rate: f("bandwidth_drop_rate")?,
            bandwidth_drop_depth: f("bandwidth_drop_depth")?,
            device_loss_rate: f("device_loss_rate")?,
            // Absent in pre-serving snapshots: absent means no bursts.
            overload_burst_rate: f("overload_burst_rate")?,
            overload_burst_size: match serde::json::get(entries, "overload_burst_size") {
                Some(v) => serde::Deserialize::deserialize(v)?,
                None => 0,
            },
        }))
    }

    fn missing(_field: &str) -> Result<FaultPlan, serde::json::Error> {
        // A system serialized before fault injection existed simply has no
        // faults — absent field means inert plan.
        Ok(FaultPlan::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires_and_has_unit_noise() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(!plan.transfer_fails());
            assert!(!plan.launch_fails());
            assert!(plan.corrupt_buffer().is_none());
            assert!(plan.corrupt_db_entry().is_none());
            assert!(plan.time_noise_factor() == 1.0);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let collect =
            |plan: &FaultPlan| -> Vec<bool> { (0..200).map(|_| plan.transfer_fails()).collect() };
        let a = FaultPlan::seeded(42).with_transfer_failures(0.3);
        let b = FaultPlan::seeded(42).with_transfer_failures(0.3);
        assert_eq!(collect(&a), collect(&b));
        let c = FaultPlan::seeded(43).with_transfer_failures(0.3);
        assert_ne!(collect(&a), collect(&c));
    }

    #[test]
    fn clones_share_the_stream() {
        let a = FaultPlan::seeded(7).with_transfer_failures(0.5);
        let b = a.clone();
        // Interleaved draws across clones advance one shared counter; a
        // fresh plan with the same seed replays the union of both.
        let mut interleaved = Vec::new();
        for _ in 0..100 {
            interleaved.push(a.transfer_fails());
            interleaved.push(b.transfer_fails());
        }
        let fresh = FaultPlan::seeded(7).with_transfer_failures(0.5);
        let replay: Vec<bool> = (0..200).map(|_| fresh.transfer_fails()).collect();
        assert_eq!(interleaved, replay);
    }

    #[test]
    fn forks_are_independent_and_replayable() {
        let parent = FaultPlan::seeded(7).with_transfer_failures(0.5);
        // Advance the parent's stream; forks must not care.
        for _ in 0..17 {
            let _ = parent.transfer_fails();
        }
        let collect =
            |plan: &FaultPlan| -> Vec<bool> { (0..200).map(|_| plan.transfer_fails()).collect() };
        let a = collect(&parent.fork(99));
        for _ in 0..5 {
            let _ = parent.transfer_fails();
        }
        let b = collect(&parent.fork(99));
        assert_eq!(a, b, "same salt must replay the same stream");
        assert_ne!(a, collect(&parent.fork(100)), "salts must decorrelate");
        assert_eq!(
            parent.fork(99).config().transfer_failure_rate,
            0.5,
            "forks keep the parent's rates"
        );
        assert!(
            FaultPlan::none().fork(99).is_inert(),
            "forks of an inert plan are inert"
        );
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::seeded(1).with_transfer_failures(0.25);
        let fired = (0..10_000).filter(|_| plan.transfer_fails()).count();
        assert!((2000..3000).contains(&fired), "fired {fired}/10000");
    }

    #[test]
    fn noise_factor_stays_within_amplitude() {
        let plan = FaultPlan::seeded(3).with_clock_noise(0.2);
        for _ in 0..1000 {
            let f = plan.time_noise_factor();
            assert!((0.8..=1.2).contains(&f), "{f}");
        }
    }

    #[test]
    fn reset_replays_from_the_top() {
        let plan = FaultPlan::seeded(11).with_launch_failures(0.4);
        let first: Vec<bool> = (0..50).map(|_| plan.launch_fails()).collect();
        plan.reset();
        let second: Vec<bool> = (0..50).map(|_| plan.launch_fails()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn inert_drift_is_exactly_unity() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(plan.input_drift_gain() == 1.0);
        }
        // Magnitude zero keeps the kind inert even with a positive rate.
        let rate_only = FaultPlan::seeded(5).with_input_drift(1.0, 0.0);
        assert!(rate_only.is_inert());
        assert!(rate_only.input_drift_gain() == 1.0);
    }

    #[test]
    fn drift_gain_is_seeded_and_bounded() {
        let collect =
            |plan: &FaultPlan| -> Vec<f64> { (0..200).map(|_| plan.input_drift_gain()).collect() };
        let a = FaultPlan::seeded(21).with_input_drift(0.5, 2.0);
        let b = FaultPlan::seeded(21).with_input_drift(0.5, 2.0);
        assert_eq!(collect(&a), collect(&b), "same seed, same drift stream");
        a.reset();
        let replay = collect(&a);
        let mut drifted = 0;
        for g in &replay {
            if *g == 1.0 {
                continue;
            }
            drifted += 1;
            assert!((2.0..=3.0).contains(g), "gain {g} outside [1+m/2, 1+m]");
        }
        assert!((50..150).contains(&drifted), "drifted {drifted}/200");
        let c = FaultPlan::seeded(22).with_input_drift(0.5, 2.0);
        assert_ne!(replay, collect(&c), "different seed, different stream");
    }

    #[test]
    fn inert_system_drift_is_exactly_identity() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert!(plan.throttle_factor() == 1.0);
            assert!(plan.bandwidth_factor() == 1.0);
            assert!(!plan.device_lost());
        }
        // Depth zero keeps the curve kinds inert even with positive rates.
        let rate_only = FaultPlan::seeded(5)
            .with_throttle(1.0, 0.0)
            .with_bandwidth_drop(1.0, 0.0);
        assert!(rate_only.is_inert());
        assert!(rate_only.throttle_factor() == 1.0);
        assert!(rate_only.bandwidth_factor() == 1.0);
    }

    #[test]
    fn drift_kinds_are_seeded_and_bounded() {
        let collect = |plan: &FaultPlan| -> (Vec<f64>, Vec<f64>, Vec<bool>) {
            (
                (0..200).map(|_| plan.throttle_factor()).collect(),
                (0..200).map(|_| plan.bandwidth_factor()).collect(),
                (0..200).map(|_| plan.device_lost()).collect(),
            )
        };
        let build = |seed: u64| {
            FaultPlan::seeded(seed)
                .with_throttle(0.5, 0.4)
                .with_bandwidth_drop(0.5, 0.6)
                .with_device_loss(0.3)
        };
        let (ta, ba, la) = collect(&build(21));
        let (tb, bb, lb) = collect(&build(21));
        assert_eq!(ta, tb, "same seed, same throttle stream");
        assert_eq!(ba, bb, "same seed, same bandwidth stream");
        assert_eq!(la, lb, "same seed, same loss stream");
        for t in ta.iter().filter(|t| **t != 1.0) {
            assert!((0.6..=0.8).contains(t), "throttle {t} outside [1-d, 1-d/2]");
        }
        for b in ba.iter().filter(|b| **b != 1.0) {
            assert!(
                (0.4..=0.7).contains(b),
                "bandwidth {b} outside [1-d, 1-d/2]"
            );
        }
        let lost = la.iter().filter(|l| **l).count();
        assert!((30..100).contains(&lost), "lost {lost}/200");
        let (tc, bc, lc) = collect(&build(22));
        assert!(ta != tc || ba != bc || la != lc, "seeds must decorrelate");
    }

    #[test]
    fn inert_overload_never_bursts() {
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert_eq!(plan.overload_burst(), 0);
        }
        // Size zero keeps the kind inert even with a positive rate.
        let rate_only = FaultPlan::seeded(5).with_overload_burst(1.0, 0);
        assert!(rate_only.is_inert());
        assert_eq!(rate_only.overload_burst(), 0);
    }

    #[test]
    fn overload_bursts_are_seeded_and_bounded() {
        let collect =
            |plan: &FaultPlan| -> Vec<u64> { (0..200).map(|_| plan.overload_burst()).collect() };
        let a = FaultPlan::seeded(17).with_overload_burst(0.4, 6);
        let b = FaultPlan::seeded(17).with_overload_burst(0.4, 6);
        let stream = collect(&a);
        assert_eq!(stream, collect(&b), "same seed, same burst stream");
        let mut bursts = 0;
        for extra in &stream {
            if *extra == 0 {
                continue;
            }
            bursts += 1;
            assert!((1..=6).contains(extra), "burst {extra} outside [1, size]");
        }
        assert!((40..120).contains(&bursts), "burst slots {bursts}/200");
        let c = FaultPlan::seeded(18).with_overload_burst(0.4, 6);
        assert_ne!(stream, collect(&c), "seeds must decorrelate");
    }

    #[test]
    fn crash_point_fires_exactly_once_at_its_boundary() {
        let crash = CrashPoint::at(3);
        let fires: Vec<bool> = (0..6).map(|_| crash.observe_trial()).collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(crash.observed(), 6);
        // Disarmed (boundary 0) never fires and never counts as armed.
        let off = CrashPoint::at(0);
        assert!((0..10).all(|_| !off.observe_trial()));
    }

    #[test]
    fn crash_point_clones_share_the_counter() {
        let a = CrashPoint::at(4);
        let b = a.clone();
        let mut fired = 0;
        for _ in 0..2 {
            if a.observe_trial() {
                fired += 1;
            }
            if b.observe_trial() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "the shared counter fires exactly once");
        assert_eq!(a.observed(), 4);
    }

    #[test]
    fn seeded_crash_points_are_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let a = CrashPoint::seeded(seed, 12);
            let b = CrashPoint::seeded(seed, 12);
            assert_eq!(a.boundary(), b.boundary());
            assert_eq!(a.tear(), b.tear());
            assert!((1..=12).contains(&a.boundary()), "{}", a.boundary());
            match a.tear() {
                TearMode::Clean => {}
                TearMode::Truncate { bytes } | TearMode::Garbage { bytes } => {
                    assert!((1..=36).contains(&bytes), "{bytes}");
                }
            }
        }
        // All three tear modes occur across seeds.
        let modes: Vec<TearMode> = (0..64).map(|s| CrashPoint::seeded(s, 5).tear()).collect();
        assert!(modes.iter().any(|m| matches!(m, TearMode::Clean)));
        assert!(modes.iter().any(|m| matches!(m, TearMode::Truncate { .. })));
        assert!(modes.iter().any(|m| matches!(m, TearMode::Garbage { .. })));
        // Boundaries spread across the range rather than clumping.
        let boundaries: std::collections::HashSet<u64> = (0..64)
            .map(|s| CrashPoint::seeded(s, 12).boundary())
            .collect();
        assert!(boundaries.len() > 6, "{boundaries:?}");
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::seeded(9)
            .with_transfer_failures(0.1)
            .with_clock_noise(0.05)
            .with_input_drift(0.2, 1.5);
        let mut out = String::new();
        serde::Serialize::serialize(&plan, &mut out);
        let v = serde::json::parse(&out).unwrap();
        let back: FaultPlan = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(plan, back);
        // Missing field (old snapshots) deserializes to the inert plan.
        let missing: FaultPlan = serde::Deserialize::missing("faults").unwrap();
        assert!(missing.is_inert());
    }
}
