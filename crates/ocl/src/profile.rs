//! The dynamic profiling log — what the paper's interposition library
//! records for the application profiler (Table 2).

use prescaler_ir::{OpCounts, Precision, ScalarBound};
use prescaler_sim::{Direction, SimTime, TransferCost};

/// Value statistics of host data written to a memory object — the
/// observed realization of the application's declared input model,
/// recorded at `clEnqueueWriteBuffer` time. Seeds the static
/// value-range analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WriteStats {
    /// Smallest value written.
    pub lo: f64,
    /// Largest value written.
    pub hi: f64,
    /// Arithmetic mean of the written values.
    pub mean: f64,
    /// Number of elements the statistics cover.
    pub count: usize,
}

impl WriteStats {
    /// Statistics over the values of one host write, summed in order;
    /// `None` when there are none.
    #[must_use]
    pub fn of(data: impl IntoIterator<Item = f64>) -> Option<WriteStats> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        for v in data {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
            count += 1;
        }
        if count == 0 {
            return None;
        }
        Some(WriteStats {
            lo,
            hi,
            mean: sum / count as f64,
            count,
        })
    }

    /// Merges statistics from a later write to the same object.
    #[must_use]
    pub fn merge(self, other: WriteStats) -> WriteStats {
        let n = self.count + other.count;
        WriteStats {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            mean: (self.mean * self.count as f64 + other.mean * other.count as f64) / n as f64,
            count: n,
        }
    }
}

/// Aggregate virtual time per program phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Host→device wire time.
    pub htod: SimTime,
    /// Device→host wire time.
    pub dtoh: SimTime,
    /// Kernel execution time.
    pub kernel: SimTime,
    /// Host-side conversion time (attributed to its transfer).
    pub host_convert: SimTime,
    /// Device-side conversion time (attributed to its transfer).
    pub device_convert: SimTime,
    /// Retry backoff paid riding out transient faults (zero on a clean
    /// run).
    pub fault_overhead: SimTime,
    /// Sentinel work charged by guarded execution (canary runs and
    /// breaker bookkeeping). Always zero for plain `run_app` timelines —
    /// only the guard's cumulative report accrues it, so per-run
    /// timelines stay bit-identical with the guard enabled.
    pub guard_overhead: SimTime,
}

impl Timeline {
    /// Total program time.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.htod
            + self.dtoh
            + self.kernel
            + self.host_convert
            + self.device_convert
            + self.fault_overhead
            + self.guard_overhead
    }

    /// Merges another timeline into this one, phase by phase.
    pub fn accumulate(&mut self, other: &Timeline) {
        self.htod += other.htod;
        self.dtoh += other.dtoh;
        self.kernel += other.kernel;
        self.host_convert += other.host_convert;
        self.device_convert += other.device_convert;
        self.fault_overhead += other.fault_overhead;
        self.guard_overhead += other.guard_overhead;
    }

    /// Total transfer-side time (wire + both conversion legs) — the
    /// paper's "data transfer" fraction.
    #[must_use]
    pub fn transfer_side(&self) -> SimTime {
        self.htod + self.dtoh + self.host_convert + self.device_convert
    }

    fn add_transfer(&mut self, direction: Direction, cost: TransferCost) {
        match direction {
            Direction::HtoD => self.htod += cost.transfer,
            Direction::DtoH => self.dtoh += cost.transfer,
        }
        self.host_convert += cost.host_convert;
        self.device_convert += cost.device_convert;
    }
}

/// One memory object as observed by the profiler.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectInfo {
    /// Application-chosen label ("A", "B", …).
    pub label: String,
    /// Element count.
    pub len: usize,
    /// The application's original element precision.
    pub declared: Precision,
    /// The device storage precision under the active scaling spec.
    pub device_precision: Precision,
    /// Statistics of host data written to this object, if any writes
    /// occurred (merged across writes).
    pub host_written: Option<WriteStats>,
}

impl ObjectInfo {
    /// Original (unscaled) size in bytes — the paper's "allocated data
    /// size".
    #[must_use]
    pub fn declared_bytes(&self) -> usize {
        self.len * self.declared.size_bytes()
    }
}

/// One profiled runtime event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A buffer transfer (`clEnqueueWriteBuffer`/`clEnqueueReadBuffer`).
    Transfer {
        /// Memory-object label.
        label: String,
        /// Direction.
        direction: Direction,
        /// Elements moved.
        elems: usize,
        /// Bytes on the wire (at the wire precision).
        wire_bytes: usize,
        /// Cost breakdown.
        cost: TransferCost,
    },
    /// A kernel launch (`clEnqueueNDRangeKernel`).
    KernelLaunch {
        /// Kernel name.
        kernel: String,
        /// Buffer-param → memory-object-label mapping snapshot
        /// (the paper's `clSetKernelArg` record).
        args: Vec<(String, String)>,
        /// Scalar-param → value snapshot (the non-buffer half of the
        /// `clSetKernelArg` record), feeding the static range analysis.
        scalar_args: Vec<(String, ScalarBound)>,
        /// The launch NDRange.
        global: [usize; 2],
        /// Dynamic operation counts of this launch (boxed: the per-
        /// precision table dwarfs every other event payload).
        counts: Box<OpCounts>,
        /// Virtual execution time.
        time: SimTime,
    },
}

impl Event {
    /// The virtual duration of this event.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        match self {
            Event::Transfer { cost, .. } => cost.total(),
            Event::KernelLaunch { time, .. } => *time,
        }
    }

    /// The memory-object labels this event touches.
    #[must_use]
    pub fn touches(&self, label: &str) -> bool {
        match self {
            Event::Transfer { label: l, .. } => l == label,
            Event::KernelLaunch { args, .. } => args.iter().any(|(_, obj)| obj == label),
        }
    }
}

/// The complete profile of one application run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileLog {
    /// Memory objects in creation order.
    pub objects: Vec<ObjectInfo>,
    /// Events in execution order.
    pub events: Vec<Event>,
    /// Aggregate times.
    pub timeline: Timeline,
}

impl ProfileLog {
    /// Records a transfer.
    pub(crate) fn record_transfer(
        &mut self,
        label: &str,
        direction: Direction,
        elems: usize,
        wire_bytes: usize,
        cost: TransferCost,
    ) {
        self.timeline.add_transfer(direction, cost);
        self.events.push(Event::Transfer {
            label: label.to_owned(),
            direction,
            elems,
            wire_bytes,
            cost,
        });
    }

    /// Records retry backoff spent riding out a transient fault.
    pub(crate) fn record_fault_overhead(&mut self, t: SimTime) {
        self.timeline.fault_overhead += t;
    }

    /// Records a kernel launch.
    pub(crate) fn record_kernel(
        &mut self,
        kernel: &str,
        args: Vec<(String, String)>,
        scalar_args: Vec<(String, ScalarBound)>,
        global: [usize; 2],
        counts: OpCounts,
        time: SimTime,
    ) {
        self.timeline.kernel += time;
        self.events.push(Event::KernelLaunch {
            kernel: kernel.to_owned(),
            args,
            scalar_args,
            global,
            counts: Box::new(counts),
            time,
        });
    }

    /// Merges host-write value statistics into an object's record.
    pub(crate) fn record_host_write(&mut self, label: &str, stats: Option<WriteStats>) {
        let Some(stats) = stats else { return };
        if let Some(obj) = self.objects.iter_mut().find(|o| o.label == label) {
            obj.host_written = Some(match obj.host_written {
                Some(prev) => prev.merge(stats),
                None => stats,
            });
        }
    }

    /// Looks up an object by label.
    #[must_use]
    pub fn object(&self, label: &str) -> Option<&ObjectInfo> {
        self.objects.iter().find(|o| o.label == label)
    }

    /// The *effective execution time* of a memory object: the summed
    /// durations of all events that touch it — the sort key of the
    /// paper's decision tree (§4.4). Kernel durations are apportioned
    /// over the buffers the launch binds.
    #[must_use]
    pub fn effective_time(&self, label: &str) -> SimTime {
        let mut total = SimTime::ZERO;
        for e in &self.events {
            if !e.touches(label) {
                continue;
            }
            match e {
                Event::Transfer { cost, .. } => total += cost.total(),
                Event::KernelLaunch { args, time, .. } => {
                    let n = args.len().max(1) as f64;
                    total += *time * (1.0 / n);
                }
            }
        }
        total
    }

    /// Object labels sorted by descending effective execution time (the
    /// order in which the decision maker visits them).
    #[must_use]
    pub fn objects_by_effective_time(&self) -> Vec<String> {
        let mut labels: Vec<(String, SimTime)> = self
            .objects
            .iter()
            .map(|o| (o.label.clone(), self.effective_time(&o.label)))
            .collect();
        // total_cmp: a fault-corrupted (NaN) duration must produce a
        // deterministic order, never a panic mid-profiling.
        labels.sort_by(|a, b| b.1.as_secs().total_cmp(&a.1.as_secs()));
        labels.into_iter().map(|(l, _)| l).collect()
    }

    /// Number of data-transfer events touching `label` (the
    /// `#Event(m)` of the paper's Equation 1).
    #[must_use]
    pub fn transfer_event_count(&self, label: &str) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Transfer { label: l, .. } if l == label))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(us: f64) -> TransferCost {
        TransferCost {
            host_convert: SimTime::ZERO,
            transfer: SimTime::from_micros(us),
            device_convert: SimTime::ZERO,
        }
    }

    fn sample_log() -> ProfileLog {
        let mut log = ProfileLog::default();
        log.objects.push(ObjectInfo {
            label: "A".into(),
            len: 1024,
            declared: Precision::Double,
            device_precision: Precision::Double,
            host_written: None,
        });
        log.objects.push(ObjectInfo {
            label: "C".into(),
            len: 1024,
            declared: Precision::Double,
            device_precision: Precision::Double,
            host_written: None,
        });
        log.record_transfer("A", Direction::HtoD, 1024, 8192, cost(100.0));
        log.record_kernel(
            "k",
            vec![("a".into(), "A".into()), ("c".into(), "C".into())],
            vec![("n".into(), ScalarBound::Int(1024))],
            [1024, 1],
            OpCounts::new(),
            SimTime::from_micros(50.0),
        );
        log.record_transfer("C", Direction::DtoH, 1024, 8192, cost(10.0));
        log
    }

    #[test]
    fn timeline_accumulates_by_phase() {
        let log = sample_log();
        assert_eq!(log.timeline.htod, SimTime::from_micros(100.0));
        assert_eq!(log.timeline.dtoh, SimTime::from_micros(10.0));
        assert_eq!(log.timeline.kernel, SimTime::from_micros(50.0));
        assert_eq!(log.timeline.total(), SimTime::from_micros(160.0));
    }

    #[test]
    fn effective_time_apportions_kernel_time() {
        let log = sample_log();
        // A: 100us transfer + 25us (half the kernel).
        assert_eq!(log.effective_time("A"), SimTime::from_micros(125.0));
        // C: 10us transfer + 25us.
        assert_eq!(log.effective_time("C"), SimTime::from_micros(35.0));
        assert_eq!(log.objects_by_effective_time(), vec!["A", "C"]);
    }

    #[test]
    fn transfer_event_counts() {
        let log = sample_log();
        assert_eq!(log.transfer_event_count("A"), 1);
        assert_eq!(log.transfer_event_count("C"), 1);
        assert_eq!(log.transfer_event_count("ghost"), 0);
    }

    #[test]
    fn object_lookup() {
        let log = sample_log();
        assert_eq!(log.object("A").unwrap().declared_bytes(), 8192);
        assert!(log.object("Z").is_none());
    }

    #[test]
    fn host_write_stats_merge_across_writes() {
        let mut log = sample_log();
        log.record_host_write("A", WriteStats::of([1.0, 3.0]));
        log.record_host_write("A", WriteStats::of([-1.0, 5.0]));
        let s = log.object("A").unwrap().host_written.unwrap();
        assert_eq!(s.lo, -1.0);
        assert_eq!(s.hi, 5.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.count, 4);
        // Empty writes and unknown labels are ignored.
        log.record_host_write("A", WriteStats::of([]));
        log.record_host_write("ghost", WriteStats::of([9.0]));
        assert_eq!(log.object("A").unwrap().host_written.unwrap().count, 4);
    }
}
