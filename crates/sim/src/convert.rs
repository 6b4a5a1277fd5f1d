//! Type-conversion methods for data moving between host and device.
//!
//! The paper's Figure 3 enumerates five shapes for scaling a memory object
//! during transfer: (a) single-loop host conversion, (b) multithreaded host
//! conversion, (c) device-side conversion, (d) *transient* conversion
//! through an intermediate type, and (e) pipelined conversion+transfer.
//! This module provides both:
//!
//! * a **cost model** — [`TransferPlan::time`] computes the virtual time of
//!   any (method, type-path, size) combination on a [`SystemModel`]; and
//! * a **functional implementation** — [`TransferPlan::apply`] performs
//!   the actual element-wise conversions, so the numeric
//!   consequences of every path (including double-rounding through a
//!   transient intermediate) are real.

use crate::cpu::CpuModel;
use crate::system::SystemModel;
use crate::time::SimTime;
use prescaler_ir::{FloatVec, Precision};
use serde::{Deserialize, Serialize};

/// Direction of a transfer between host and device memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Host to device (kernel inputs).
    HtoD,
    /// Device to host (kernel outputs).
    DtoH,
}

impl Direction {
    /// The OpenCL-ish label ("HtoD"/"DtoH").
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Direction::HtoD => "HtoD",
            Direction::DtoH => "DtoH",
        }
    }
}

/// How the *host-side* leg of a conversion runs (paper Fig. 3 a/b/e).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostMethod {
    /// One scalar/SIMD loop on the calling thread.
    Loop,
    /// The loop split over `threads` worker threads.
    Multithread {
        /// Worker thread count.
        threads: usize,
    },
    /// Conversion overlapped chunk-by-chunk with the PCIe transfer.
    Pipelined {
        /// Worker thread count for the conversion stage.
        threads: usize,
        /// Number of pipeline chunks.
        chunks: usize,
    },
}

impl HostMethod {
    /// Short label used in reports ("loop", "mt16", "pipe8x16").
    #[must_use]
    pub fn label(self) -> String {
        match self {
            HostMethod::Loop => "loop".to_owned(),
            HostMethod::Multithread { threads } => format!("mt{threads}"),
            HostMethod::Pipelined { threads, chunks } => format!("pipe{chunks}x{threads}"),
        }
    }
}

/// A complete plan for moving one memory object across PCIe with an
/// optional precision change.
///
/// The value path is `src → intermediate → dst`:
///
/// * the leg on the **host side of the wire** (`src → intermediate` for
///   HtoD, `intermediate → dst` for DtoH) runs on the CPU with
///   [`HostMethod`];
/// * the wire carries `intermediate`-typed bytes;
/// * the leg on the **device side** runs as a conversion kernel.
///
/// Direct host-side scaling is `intermediate == dst` (HtoD); device-side
/// scaling is `intermediate == src`; *transient* conversion is an
/// intermediate distinct from both.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransferPlan {
    /// Transfer direction.
    pub direction: Direction,
    /// Element type at the source memory.
    pub src: Precision,
    /// Element type on the wire.
    pub intermediate: Precision,
    /// Element type at the destination memory.
    pub dst: Precision,
    /// How the host-side conversion leg (if any) executes.
    pub host_method: HostMethod,
}

/// The virtual-time breakdown of one executed transfer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TransferCost {
    /// Host-side conversion time.
    pub host_convert: SimTime,
    /// Wire time.
    pub transfer: SimTime,
    /// Device-side conversion time.
    pub device_convert: SimTime,
}

impl TransferCost {
    /// Total time of the transfer.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.host_convert + self.transfer + self.device_convert
    }

    /// Every component scaled by `factor` — measurement noise applied to
    /// one observed transfer. A factor of exactly `1.0` is an identity.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> TransferCost {
        TransferCost {
            host_convert: self.host_convert * factor,
            transfer: self.transfer * factor,
            device_convert: self.device_convert * factor,
        }
    }

    /// Only the wire component stretched for a transfer moving at
    /// `bandwidth_factor` of nominal PCIe bandwidth — a degraded link
    /// slows the bytes on the bus, not the host/device conversion work.
    /// A factor of exactly `1.0` is an identity.
    #[must_use]
    pub fn at_bandwidth(&self, bandwidth_factor: f64) -> TransferCost {
        if bandwidth_factor == 1.0 {
            return *self;
        }
        TransferCost {
            host_convert: self.host_convert,
            transfer: self.transfer * (1.0 / bandwidth_factor.clamp(0.05, 1.0)),
            device_convert: self.device_convert,
        }
    }
}

impl TransferPlan {
    /// A plain transfer with no conversion.
    #[must_use]
    pub fn direct(direction: Direction, p: Precision) -> TransferPlan {
        TransferPlan {
            direction,
            src: p,
            intermediate: p,
            dst: p,
            host_method: HostMethod::Loop,
        }
    }

    /// Host-side direct scaling: convert on the host, wire carries `dst`
    /// (HtoD) or convert after a `src`-typed wire transfer (DtoH).
    #[must_use]
    pub fn host_scaled(
        direction: Direction,
        src: Precision,
        dst: Precision,
        method: HostMethod,
    ) -> TransferPlan {
        let intermediate = match direction {
            Direction::HtoD => dst,
            Direction::DtoH => src,
        };
        TransferPlan {
            direction,
            src,
            intermediate,
            dst,
            host_method: method,
        }
    }

    /// Device-side scaling: the wire carries the source type, the device
    /// converts (HtoD), or the device converts first (DtoH).
    #[must_use]
    pub fn device_scaled(direction: Direction, src: Precision, dst: Precision) -> TransferPlan {
        let intermediate = match direction {
            Direction::HtoD => src,
            Direction::DtoH => dst,
        };
        TransferPlan {
            direction,
            src,
            intermediate,
            dst,
            host_method: HostMethod::Loop,
        }
    }

    /// Transient scaling through an explicit intermediate wire type.
    #[must_use]
    pub fn transient(
        direction: Direction,
        src: Precision,
        intermediate: Precision,
        dst: Precision,
        method: HostMethod,
    ) -> TransferPlan {
        TransferPlan {
            direction,
            src,
            intermediate,
            dst,
            host_method: method,
        }
    }

    /// `true` when the wire type differs from both endpoints — the paper's
    /// transient conversion, which can round twice.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.intermediate != self.src && self.intermediate != self.dst
    }

    /// The `(from, to)` pair of the host-side conversion leg.
    #[must_use]
    pub fn host_leg(&self) -> (Precision, Precision) {
        match self.direction {
            Direction::HtoD => (self.src, self.intermediate),
            Direction::DtoH => (self.intermediate, self.dst),
        }
    }

    /// The `(from, to)` pair of the device-side conversion leg.
    #[must_use]
    pub fn device_leg(&self) -> (Precision, Precision) {
        match self.direction {
            Direction::HtoD => (self.intermediate, self.dst),
            Direction::DtoH => (self.src, self.intermediate),
        }
    }

    /// Virtual-time cost of transferring `elems` elements under this plan.
    #[must_use]
    pub fn time(&self, system: &SystemModel, elems: usize) -> TransferCost {
        let wire_bytes = (elems * self.intermediate.size_bytes()) as u64;
        let (hf, ht) = self.host_leg();
        let (df, dt) = self.device_leg();
        let device_convert = system.gpu.device_convert_time(elems, df, dt);

        match self.host_method {
            HostMethod::Pipelined { threads, chunks } if hf != ht && elems > 0 => {
                // Chunked overlap: each chunk is converted then sent while
                // the next converts. Total ≈ max(total convert, total wire)
                // plus the non-overlapped first/last chunk and per-chunk
                // enqueue latency.
                let chunks = chunks.max(2);
                let conv = host_convert_time(&system.cpu, elems, hf, ht, threads);
                let wire = system.pcie.transfer_time(wire_bytes);
                let per_chunk = (conv + wire) * (1.0 / chunks as f64);
                let enqueue = system.enqueue_latency * chunks as f64;
                TransferCost {
                    host_convert: SimTime::ZERO,
                    transfer: conv.max(wire) + per_chunk + enqueue,
                    device_convert,
                }
            }
            _ => {
                let host_convert = if hf == ht {
                    SimTime::ZERO
                } else {
                    let threads = match self.host_method {
                        HostMethod::Loop => 1,
                        HostMethod::Multithread { threads } => threads,
                        HostMethod::Pipelined { threads, .. } => threads,
                    };
                    host_convert_time(&system.cpu, elems, hf, ht, threads)
                };
                TransferCost {
                    host_convert,
                    transfer: system.pcie.transfer_time(wire_bytes),
                    device_convert,
                }
            }
        }
    }

    /// Functionally applies the plan's value path to `data` (which must be
    /// `src`-typed), producing `dst`-typed data rounded exactly as the
    /// plan's conversion chain rounds, on the calling thread. The
    /// simulated [`HostMethod`] only drives the cost model
    /// ([`TransferPlan::time`]).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not `src`-typed.
    #[must_use]
    pub fn apply(&self, data: &FloatVec) -> FloatVec {
        assert_eq!(
            data.precision(),
            self.src,
            "transfer plan applied to data of the wrong precision"
        );
        // The device leg (or host leg for DtoH) is elementwise too.
        data.converted(self.intermediate).converted(self.dst)
    }
}

/// Host conversion time with the streaming-bandwidth ceiling applied: the
/// conversion cannot move data faster than the participating threads'
/// aggregate memory bandwidth (capped by the socket).
fn host_convert_time(
    cpu: &CpuModel,
    elems: usize,
    from: Precision,
    to: Precision,
    threads: usize,
) -> SimTime {
    let compute = if threads <= 1 {
        cpu.convert_time_single(elems, from, to)
    } else {
        cpu.convert_time_multi(elems, from, to, threads)
    };
    let bytes = (elems * (from.size_bytes() + to.size_bytes())) as f64;
    let bw = (cpu.effective_parallelism(threads) * cpu.per_core_stream_gbps())
        .min(cpu.socket_stream_gbps());
    let floor = SimTime::from_secs(bytes / (bw * 1e9));
    compute.max(floor)
}

/// Element-wise conversion of `data` to precision `p`: exactly
/// [`FloatVec::converted`], on the calling thread. `_threads` is unused;
/// it stays only because the benchmark's `convert.par_speedup` probe
/// passes one.
///
/// No pair of precisions splits over threads, because two threads did not
/// pay reliably. Three probes on a shared 2-vCPU host converted every pair
/// at 4K–1M elements on 1 and on 2 threads, in 9–15 alternating runs per
/// size. In none did a pair win every run at every size from some size
/// up. Below 32K elements two threads lost nearly every run of every
/// pair; binary32 ↔ binary64 lost nearly every run at every size; from
/// 64K elements the pairs into binary16 won 8–9 runs of 9 in the first
/// probe, 4–13 of 15 in the second and 4–9 of 9 in the third.
#[must_use]
pub fn convert_parallel(data: &FloatVec, p: Precision, _threads: usize) -> FloatVec {
    data.converted(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemModel;

    fn sys() -> SystemModel {
        SystemModel::system1()
    }

    #[test]
    fn direct_transfer_has_no_conversion_cost() {
        let plan = TransferPlan::direct(Direction::HtoD, Precision::Double);
        let c = plan.time(&sys(), 1 << 20);
        assert_eq!(c.host_convert, SimTime::ZERO);
        assert_eq!(c.device_convert, SimTime::ZERO);
        assert!(c.transfer > SimTime::ZERO);
    }

    #[test]
    fn host_scaling_shrinks_the_wire() {
        let s = sys();
        let n = 1 << 22;
        let direct = TransferPlan::direct(Direction::HtoD, Precision::Double).time(&s, n);
        let scaled = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Multithread { threads: 20 },
        )
        .time(&s, n);
        assert!(
            scaled.transfer < direct.transfer,
            "wire carries 4-byte elements"
        );
        assert!(
            scaled.total() < direct.total(),
            "for large arrays the conversion pays for itself"
        );
    }

    #[test]
    fn device_scaling_keeps_the_wire_at_source_size() {
        let s = sys();
        let n = 1 << 20;
        let plan = TransferPlan::device_scaled(Direction::HtoD, Precision::Double, Precision::Half);
        assert_eq!(plan.intermediate, Precision::Double);
        let c = plan.time(&s, n);
        assert_eq!(c.host_convert, SimTime::ZERO);
        assert!(c.device_convert > SimTime::ZERO);
    }

    #[test]
    fn dtoh_legs_mirror_htod() {
        let plan = TransferPlan::host_scaled(
            Direction::DtoH,
            Precision::Single,
            Precision::Double,
            HostMethod::Loop,
        );
        // Host leg converts after the wire: single-typed wire.
        assert_eq!(plan.intermediate, Precision::Single);
        assert_eq!(plan.host_leg(), (Precision::Single, Precision::Double));
        assert_eq!(plan.device_leg(), (Precision::Single, Precision::Single));
    }

    #[test]
    fn transient_is_flagged_and_rounds_twice() {
        let plan = TransferPlan::transient(
            Direction::HtoD,
            Precision::Double,
            Precision::Half,
            Precision::Single,
            HostMethod::Loop,
        );
        assert!(plan.is_transient());
        let data = FloatVec::from_f64_slice(&[0.1], Precision::Double);
        let out = plan.apply(&data);
        assert_eq!(out.precision(), Precision::Single);
        // Through half, only ~11 bits of 0.1 survive.
        assert_ne!(out.get(0), 0.1f32 as f64);
        let direct = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Loop,
        )
        .apply(&data);
        assert_eq!(direct.get(0), f64::from(0.1f32));
        assert!((out.get(0) - 0.1).abs() > (direct.get(0) - 0.1).abs());
    }

    #[test]
    fn transient_through_half_beats_direct_when_transfer_dominates() {
        // On a narrow link, sending 2-byte elements and converting twice
        // can beat sending 4-byte elements — the wildcard's reason to
        // exist.
        let mut s = sys();
        s.pcie = s.pcie.with_lanes(8);
        let n = 1 << 23;
        let direct = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Multithread { threads: 20 },
        )
        .time(&s, n)
        .total();
        let transient = TransferPlan::transient(
            Direction::HtoD,
            Precision::Double,
            Precision::Half,
            Precision::Single,
            HostMethod::Multithread { threads: 20 },
        )
        .time(&s, n)
        .total();
        assert!(
            transient < direct,
            "transient {transient} must beat direct {direct} on x8"
        );
    }

    #[test]
    fn pipelining_approaches_the_max_of_stages_for_large_arrays() {
        let s = sys();
        let n = 1 << 24;
        let seq = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Multithread { threads: 20 },
        )
        .time(&s, n);
        let pipe = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Pipelined {
                threads: 20,
                chunks: 8,
            },
        )
        .time(&s, n);
        assert!(
            pipe.total() < seq.total(),
            "overlap must beat convert-then-send on 16M elements"
        );
    }

    #[test]
    fn pipelining_loses_on_tiny_arrays() {
        let s = sys();
        let n = 256;
        let seq = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Loop,
        )
        .time(&s, n);
        let pipe = TransferPlan::host_scaled(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            HostMethod::Pipelined {
                threads: 20,
                chunks: 8,
            },
        )
        .time(&s, n);
        assert!(
            pipe.total() > seq.total(),
            "per-chunk enqueue latency must dominate at 256 elements"
        );
    }

    #[test]
    fn parallel_conversion_matches_sequential_exactly() {
        let xs: Vec<f64> = (0..20_000).map(|i| (i as f64).sin() * 1000.0).collect();
        let data = FloatVec::from_f64_slice(&xs, Precision::Double);
        for p in [Precision::Half, Precision::Single] {
            let seq = data.converted(p);
            let par = convert_parallel(&data, p, 8);
            assert_eq!(seq, par, "threaded conversion must be bit-identical");
        }
    }

    #[test]
    fn apply_checks_source_precision() {
        let plan = TransferPlan::direct(Direction::HtoD, Precision::Double);
        let data = FloatVec::zeros(4, Precision::Single);
        let r = std::panic::catch_unwind(|| plan.apply(&data));
        assert!(r.is_err());
    }

    #[test]
    fn method_labels() {
        assert_eq!(HostMethod::Loop.label(), "loop");
        assert_eq!(HostMethod::Multithread { threads: 16 }.label(), "mt16");
        assert_eq!(
            HostMethod::Pipelined {
                threads: 4,
                chunks: 8
            }
            .label(),
            "pipe8x4"
        );
    }
}
