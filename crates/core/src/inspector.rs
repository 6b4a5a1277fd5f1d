//! The system inspector — the paper's one-time, application-independent
//! probe of everything precision-scaling cares about.
//!
//! [`SystemInspector::inspect`] measures, for every transfer direction,
//! every `(source, intermediate, destination)` precision path and every
//! conversion method, the total {convert + transfer} time across a grid of
//! data sizes, and stores the results in an [`InspectorDb`]. The decision
//! maker later answers "what is the best conversion method for this event?"
//! (the paper's Algorithm 2 / `getBestScalingMethod`) from the database
//! alone — no application execution needed.
//!
//! The database is serializable: inspection runs once per system, exactly
//! as the paper prescribes (its artifact takes hours to days on real
//! hardware; the virtual system answers in milliseconds, but the contract
//! is the same).

use prescaler_ir::Precision;
use prescaler_persist::{snapshot, PersistError};
use prescaler_sim::{Direction, HostMethod, SimTime, SystemModel, TransferPlan};
use serde::{Deserialize, Serialize};

/// A recoverable inspector-database failure.
///
/// The decision maker treats all of these as "the database cannot answer"
/// and falls back to the analytic cost model; none of them is worth a
/// panic. A database that fails *structurally* ([`DbError::EmptyGrid`],
/// [`DbError::GridMismatch`]) should be regenerated with
/// [`SystemInspector::inspect`].
#[derive(Clone, Debug, PartialEq)]
pub enum DbError {
    /// The database has no measurement grid at all.
    EmptyGrid,
    /// A curve's sample count does not match the measurement grid.
    GridMismatch {
        /// Grid length.
        expected: usize,
        /// Curve length.
        got: usize,
    },
    /// A curve holds a non-finite or negative timing — a corrupted
    /// measurement.
    CorruptTimes {
        /// Index of the first bad sample.
        at: usize,
        /// Its value in seconds.
        value: f64,
    },
    /// The requested plan was never measured.
    UnknownPlan,
}

impl core::fmt::Display for DbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DbError::EmptyGrid => write!(f, "inspector database has an empty measurement grid"),
            DbError::GridMismatch { expected, got } => write!(
                f,
                "curve has {got} samples but the grid has {expected} points"
            ),
            DbError::CorruptTimes { at, value } => {
                write!(f, "curve sample {at} is a corrupt measurement ({value} s)")
            }
            DbError::UnknownPlan => write!(f, "plan is not in the inspector database"),
        }
    }
}

impl std::error::Error for DbError {}

/// Static system facts recorded by the inspector (the paper's first
/// inspection phase).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemSummary {
    /// System display name.
    pub name: String,
    /// Host CPU cores / hardware threads.
    pub cpu_cores: u32,
    /// Host hardware threads.
    pub cpu_threads: u32,
    /// GPU compute capability version string.
    pub compute_capability: String,
    /// GPU SM count.
    pub sms: u32,
    /// Interconnect label ("PCIe 3.0 x16").
    pub pcie: String,
    /// Whether FP16 arithmetic is natively supported and worth using
    /// (`false` on cc 6.1, where FP16 runs at 2 results/cycle/SM).
    pub fast_fp16: bool,
    /// Effective PCIe bandwidth in GB/s.
    pub pcie_gbps: f64,
}

/// One measured conversion path: direction, precision path and host
/// method.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// Transfer direction.
    pub direction: Direction,
    /// Source precision.
    pub src: Precision,
    /// Wire (intermediate) precision.
    pub intermediate: Precision,
    /// Destination precision.
    pub dst: Precision,
    /// Host-side method.
    pub host_method: HostMethod,
}

impl PlanKey {
    /// The [`TransferPlan`] this key denotes.
    #[must_use]
    pub fn plan(&self) -> TransferPlan {
        TransferPlan {
            direction: self.direction,
            src: self.src,
            intermediate: self.intermediate,
            dst: self.dst,
            host_method: self.host_method,
        }
    }
}

/// A measured size→time curve for one plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Curve {
    key: PlanKey,
    /// Times at each grid size, same length as the db's `grid`.
    times: Vec<SimTime>,
}

/// The inspector's result database.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InspectorDb {
    /// Static system facts.
    pub summary: SystemSummary,
    /// The element-count grid the curves are sampled on.
    grid: Vec<usize>,
    curves: Vec<Curve>,
    /// Kernel-launch latency (used in expected-time estimates).
    launch_latency: SimTime,
}

/// The one-time system prober.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemInspector;

impl SystemInspector {
    /// Probes `system`, measuring every conversion path × method × size.
    #[must_use]
    pub fn inspect(system: &SystemModel) -> InspectorDb {
        let grid: Vec<usize> = (8..=24).step_by(2).map(|e| 1usize << e).collect();
        let methods = Self::candidate_methods(system);

        // Fault injection may corrupt individual measurements as they are
        // recorded, so the sweep order is also the order of the fault
        // stream's draws.
        let measure = |key: PlanKey| {
            let plan = key.plan();
            let times = grid
                .iter()
                .map(|&n| {
                    let t = plan.time(system, n).total();
                    system
                        .faults
                        .corrupt_db_entry()
                        .map_or(t, SimTime::from_secs_unchecked)
                })
                .collect();
            Curve { key, times }
        };

        // Measure every plan in the canonical sweep order.
        let mut curves = Vec::new();
        for direction in [Direction::HtoD, Direction::DtoH] {
            for src in Precision::ALL {
                for dst in Precision::ALL {
                    for intermediate in Precision::ALL {
                        // The wire type must be on the value path: equal to
                        // an endpoint, or strictly between them (a transient
                        // type *above* both endpoints is never useful).
                        if !valid_intermediate(src, intermediate, dst) {
                            continue;
                        }
                        let host_leg_exists = match direction {
                            Direction::HtoD => src != intermediate,
                            Direction::DtoH => intermediate != dst,
                        };
                        let method_set: &[HostMethod] = if host_leg_exists {
                            &methods
                        } else {
                            &[HostMethod::Loop] // no host leg: method is moot
                        };
                        for &host_method in method_set {
                            curves.push(measure(PlanKey {
                                direction,
                                src,
                                intermediate,
                                dst,
                                host_method,
                            }));
                        }
                    }
                }
            }
        }

        let gpu = &system.gpu;
        let tp = gpu.throughput();
        InspectorDb {
            summary: SystemSummary {
                name: system.name.clone(),
                cpu_cores: system.cpu.cores,
                cpu_threads: system.cpu.threads,
                compute_capability: gpu.compute_capability.version().to_owned(),
                sms: gpu.sms,
                pcie: system.pcie.label(),
                fast_fp16: tp.rate(Precision::Half) >= tp.rate(Precision::Double),
                pcie_gbps: system.pcie.effective_gbps(),
            },
            grid,
            curves,
            launch_latency: gpu.launch_latency,
        }
    }

    /// The host-method candidates worth measuring on this system.
    pub(crate) fn candidate_methods(system: &SystemModel) -> Vec<HostMethod> {
        let threads = system.cpu.threads as usize;
        let cores = system.cpu.cores as usize;
        vec![
            HostMethod::Loop,
            HostMethod::Multithread { threads: cores },
            HostMethod::Multithread { threads },
            HostMethod::Pipelined { threads, chunks: 4 },
            HostMethod::Pipelined { threads, chunks: 8 },
        ]
    }
}

/// `intermediate` lies on the value path from `src` to `dst`.
pub(crate) fn valid_intermediate(src: Precision, intermediate: Precision, dst: Precision) -> bool {
    let lo = src.min(dst);
    let hi = src.max(dst);
    intermediate == src
        || intermediate == dst
        || (intermediate > lo && intermediate < hi)
        || intermediate < lo // a narrower wire than both endpoints (the wildcard's hybrid)
}

impl InspectorDb {
    /// Predicted time of one plan at `elems` elements, interpolated
    /// log-linearly on the measurement grid.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownPlan`] if the plan was never measured, and a
    /// structural/corruption [`DbError`] if its curve is unusable.
    pub fn plan_time(&self, key: &PlanKey, elems: usize) -> Result<SimTime, DbError> {
        let curve = self
            .curves
            .iter()
            .find(|c| &c.key == key)
            .ok_or(DbError::UnknownPlan)?;
        self.interpolate(&curve.times, elems)
    }

    fn interpolate(&self, times: &[SimTime], elems: usize) -> Result<SimTime, DbError> {
        let first = *self.grid.first().ok_or(DbError::EmptyGrid)? as f64;
        if times.len() != self.grid.len() {
            return Err(DbError::GridMismatch {
                expected: self.grid.len(),
                got: times.len(),
            });
        }
        if let Some(at) = times
            .iter()
            .position(|t| !t.as_secs().is_finite() || t.as_secs() < 0.0)
        {
            return Err(DbError::CorruptTimes {
                at,
                value: times[at].as_secs(),
            });
        }
        let n = elems.max(1) as f64;
        let last = self.grid[self.grid.len() - 1] as f64;
        if n <= first || times.len() == 1 {
            // Below the grid: latency-dominated; scale the measured point
            // by the size ratio on the bandwidth share only is overkill —
            // clamp to the smallest measurement.
            return Ok(times[0]);
        }
        if n >= last {
            // Above the grid: extrapolate linearly from the last segment.
            let a = times[times.len() - 2].as_secs();
            let b = times[times.len() - 1].as_secs();
            let x0 = self.grid[self.grid.len() - 2] as f64;
            let x1 = last;
            let slope = (b - a) / (x1 - x0);
            return Ok(SimTime::from_secs((b + slope * (n - x1)).max(0.0)));
        }
        let i = self
            .grid
            .iter()
            .rposition(|&g| (g as f64) <= n)
            .unwrap_or(0);
        if (self.grid[i] as f64 - n).abs() < 0.5 {
            return Ok(times[i]);
        }
        let (x0, x1) = (self.grid[i] as f64, self.grid[i + 1] as f64);
        let (y0, y1) = (times[i].as_secs(), times[i + 1].as_secs());
        // Log-linear in size.
        let t = (n.ln() - x0.ln()) / (x1.ln() - x0.ln());
        Ok(SimTime::from_secs(y0 + (y1 - y0) * t))
    }

    /// The paper's `getBestScalingMethod` (Algorithm 2): the cheapest plan
    /// for transferring `elems` elements from `src` to `dst`, choosing the
    /// host-side method and wire type from `intermediates`.
    ///
    /// Returns `None` if the path is not in the database, or if every
    /// curve on it is corrupted (callers fall back to the analytic cost
    /// model in that case).
    #[must_use]
    pub fn best_plan(
        &self,
        direction: Direction,
        src: Precision,
        dst: Precision,
        elems: usize,
        intermediates: &[Precision],
    ) -> Option<(PlanKey, SimTime)> {
        let mut best: Option<(PlanKey, SimTime)> = None;
        for c in &self.curves {
            let k = &c.key;
            if k.direction != direction || k.src != src || k.dst != dst {
                continue;
            }
            if !intermediates.contains(&k.intermediate) {
                continue;
            }
            // Corrupted curves are skipped, not trusted: a NaN time would
            // poison the `<` comparison below.
            let Ok(t) = self.interpolate(&c.times, elems) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                best = Some((*k, t));
            }
        }
        best
    }

    /// Best *direct* plan (no transient wire type): the normal search's
    /// restriction (Algorithm 1, line 6).
    #[must_use]
    pub fn best_direct_plan(
        &self,
        direction: Direction,
        src: Precision,
        dst: Precision,
        elems: usize,
    ) -> Option<(PlanKey, SimTime)> {
        self.best_plan(direction, src, dst, elems, &[src, dst])
    }

    /// Number of measured curves (size of the inspection).
    #[must_use]
    pub fn curve_count(&self) -> usize {
        self.curves.len()
    }

    /// Number of curves holding at least one corrupted (non-finite or
    /// negative) measurement — curves that lookups will route around.
    #[must_use]
    pub fn corrupt_curve_count(&self) -> usize {
        self.curves
            .iter()
            .filter(|c| {
                c.times
                    .iter()
                    .any(|t| !t.as_secs().is_finite() || t.as_secs() < 0.0)
            })
            .count()
    }

    /// Structural sanity check: a database failing this is unusable as a
    /// whole (as opposed to individual corrupted curves, which lookups
    /// route around) and should be regenerated.
    ///
    /// # Errors
    ///
    /// [`DbError::EmptyGrid`] or [`DbError::GridMismatch`].
    pub fn validate(&self) -> Result<(), DbError> {
        if self.grid.is_empty() {
            return Err(DbError::EmptyGrid);
        }
        for c in &self.curves {
            if c.times.len() != self.grid.len() {
                return Err(DbError::GridMismatch {
                    expected: self.grid.len(),
                    got: c.times.len(),
                });
            }
        }
        Ok(())
    }

    /// The measurement grid.
    #[must_use]
    pub fn grid(&self) -> &[usize] {
        &self.grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> InspectorDb {
        SystemInspector::inspect(&SystemModel::system1())
    }

    #[test]
    fn summary_captures_the_system() {
        let db = db();
        assert_eq!(db.summary.cpu_cores, 10);
        assert_eq!(db.summary.compute_capability, "6.1");
        assert!(!db.summary.fast_fp16, "cc 6.1 half is slower than double");
        let db2 = SystemInspector::inspect(&SystemModel::system2());
        assert!(db2.summary.fast_fp16);
    }

    #[test]
    fn database_has_substantial_coverage() {
        let db = db();
        // 2 directions × many paths × methods × grid — hundreds of curves.
        assert!(db.curve_count() > 100, "{}", db.curve_count());
        assert!(db.grid().len() >= 8);
    }

    #[test]
    fn best_plan_prefers_no_conversion_for_identity() {
        let db = db();
        let (k, _) = db
            .best_direct_plan(
                Direction::HtoD,
                Precision::Double,
                Precision::Double,
                1 << 20,
            )
            .unwrap();
        assert_eq!(k.intermediate, Precision::Double);
    }

    #[test]
    fn best_plan_matches_exhaustive_cost_model() {
        // The DB's interpolated choice at a grid point must equal the
        // direct cost-model minimum.
        let system = SystemModel::system1();
        let db = SystemInspector::inspect(&system);
        let elems = 1 << 20; // on the grid
        let (key, t) = db
            .best_plan(
                Direction::HtoD,
                Precision::Double,
                Precision::Single,
                elems,
                &Precision::ALL,
            )
            .unwrap();
        let got = key.plan().time(&system, elems).total();
        assert!((got.as_secs() - t.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn small_sizes_prefer_simple_methods_large_prefer_parallel() {
        let db = db();
        let (small, _) = db
            .best_direct_plan(Direction::HtoD, Precision::Double, Precision::Single, 256)
            .unwrap();
        assert_eq!(
            small.host_method,
            HostMethod::Loop,
            "spawn/pipeline overheads must lose at 256 elements"
        );
        let (large, _) = db
            .best_direct_plan(
                Direction::HtoD,
                Precision::Double,
                Precision::Single,
                1 << 23,
            )
            .unwrap();
        assert_ne!(
            large.host_method,
            HostMethod::Loop,
            "a single loop must lose at 8M elements"
        );
    }

    #[test]
    fn transient_wire_is_offered_when_allowed() {
        let db = db();
        // double → single with a half wire: only reachable with the
        // full intermediate set.
        let all = db.best_plan(
            Direction::HtoD,
            Precision::Double,
            Precision::Single,
            1 << 23,
            &Precision::ALL,
        );
        assert!(all.is_some());
        let direct_only = db
            .best_direct_plan(
                Direction::HtoD,
                Precision::Double,
                Precision::Single,
                1 << 23,
            )
            .unwrap();
        let (k_all, t_all) = all.unwrap();
        assert!(t_all <= direct_only.1);
        // On system 1's x16 link the transient may or may not win, but the
        // half wire must at least have been considered (present in db).
        let half_wire = PlanKey {
            direction: Direction::HtoD,
            src: Precision::Double,
            intermediate: Precision::Half,
            dst: Precision::Single,
            host_method: HostMethod::Multithread { threads: 20 },
        };
        assert!(db.plan_time(&half_wire, 1 << 23).is_ok());
        let _ = k_all;
    }

    #[test]
    fn interpolation_is_monotone_in_size_for_direct_transfer() {
        let db = db();
        let key = PlanKey {
            direction: Direction::HtoD,
            src: Precision::Double,
            intermediate: Precision::Double,
            dst: Precision::Double,
            host_method: HostMethod::Loop,
        };
        let mut prev = SimTime::ZERO;
        for shift in [10usize, 13, 16, 19, 22, 25] {
            let t = db.plan_time(&key, 1 << shift).unwrap();
            assert!(t >= prev, "size 2^{shift}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn off_grid_queries_interpolate_between_neighbours() {
        let db = db();
        let key = PlanKey {
            direction: Direction::HtoD,
            src: Precision::Double,
            intermediate: Precision::Double,
            dst: Precision::Double,
            host_method: HostMethod::Loop,
        };
        let lo = db.plan_time(&key, 1 << 12).unwrap();
        let hi = db.plan_time(&key, 1 << 14).unwrap();
        let mid = db.plan_time(&key, 3 << 12).unwrap(); // between 2^12 and 2^14
        assert!(lo <= mid && mid <= hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn unknown_plan_is_a_clean_error() {
        let db = db();
        // An HtoD key with a wire wider than both endpoints is never
        // measured (not a valid intermediate).
        let bogus = PlanKey {
            direction: Direction::HtoD,
            src: Precision::Single,
            intermediate: Precision::Double,
            dst: Precision::Single,
            host_method: HostMethod::Loop,
        };
        assert_eq!(db.plan_time(&bogus, 1 << 12), Err(DbError::UnknownPlan));
    }

    #[test]
    fn corrupted_curves_error_on_lookup_and_best_plan_routes_around() {
        use prescaler_sim::FaultPlan;
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(11).with_db_corruption(0.1));
        let db = SystemInspector::inspect(&system);
        assert!(db.corrupt_curve_count() > 0, "injection must have fired");
        assert!(
            db.corrupt_curve_count() < db.curve_count(),
            "at 10% not every curve is corrupt"
        );
        // Some lookup hits a corrupted curve and reports it.
        let mut saw_corrupt = false;
        for direction in [Direction::HtoD, Direction::DtoH] {
            for src in Precision::ALL {
                for dst in Precision::ALL {
                    for wire in Precision::ALL {
                        let key = PlanKey {
                            direction,
                            src,
                            intermediate: wire,
                            dst,
                            host_method: HostMethod::Loop,
                        };
                        if let Err(DbError::CorruptTimes { .. }) = db.plan_time(&key, 1 << 16) {
                            saw_corrupt = true;
                        }
                    }
                }
            }
        }
        assert!(saw_corrupt);
        // best_plan never returns a corrupt time: whatever it answers is
        // finite and non-negative.
        for direction in [Direction::HtoD, Direction::DtoH] {
            for src in Precision::ALL {
                for dst in Precision::ALL {
                    if let Some((_, t)) =
                        db.best_plan(direction, src, dst, 1 << 16, &Precision::ALL)
                    {
                        assert!(t.as_secs().is_finite() && t.as_secs() >= 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn validate_rejects_structural_damage() {
        let db = db();
        assert_eq!(db.validate(), Ok(()));
        let mut broken = db.clone();
        broken.curves[0].times.pop();
        assert!(matches!(
            broken.validate(),
            Err(DbError::GridMismatch { .. })
        ));
        let mut empty = db;
        empty.grid.clear();
        assert_eq!(empty.validate(), Err(DbError::EmptyGrid));
    }
}

impl InspectorDb {
    /// Persists the database: a JSON payload under the atomic,
    /// checksummed snapshot container (temp file + fsync + rename). A
    /// crash mid-save leaves either the old file or the new one on disk —
    /// never a torn mix — and any later corruption is caught by the
    /// container's CRCs at load.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`PersistError::Io`].
    pub fn save(&self, path: &std::path::Path) -> Result<(), PersistError> {
        let json = serde_json::to_string(self).map_err(|e| PersistError::Decode(e.to_string()))?;
        snapshot::save(path, snapshot::KIND_INSPECTOR_DB, json.as_bytes())
    }

    /// Loads a previously saved database. Snapshot containers are
    /// verified (magic, version, kind, CRCs); bare legacy JSON files —
    /// the pre-container on-disk format — still load for backward
    /// compatibility. Structurally broken content (empty grids,
    /// curve/grid length mismatches) is rejected with a typed error; a
    /// caller that loses its database this way degrades to the analytic
    /// cost model (see `PreScaler::best_plan_or_analytic`) rather than
    /// trusting damaged curves.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] for filesystem failures, the container's
    /// taxonomy (truncation, checksum, kind, version) for damaged
    /// snapshots, and [`PersistError::Decode`] for malformed payloads.
    pub fn load(path: &std::path::Path) -> Result<InspectorDb, PersistError> {
        let bytes = std::fs::read(path)?;
        let payload = if snapshot::has_magic(&bytes) {
            snapshot::load_bytes(&bytes, snapshot::KIND_INSPECTOR_DB)?
        } else {
            bytes // legacy bare-JSON database
        };
        let db: InspectorDb =
            serde_json::from_slice(&payload).map_err(|e| PersistError::Decode(e.to_string()))?;
        db.validate()
            .map_err(|e| PersistError::Decode(e.to_string()))?;
        Ok(db)
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn database_round_trips_through_json() {
        let db = SystemInspector::inspect(&SystemModel::system3());
        let dir = std::env::temp_dir().join("prescaler_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("system3.json");
        db.save(&path).unwrap();
        let loaded = InspectorDb::load(&path).unwrap();
        assert_eq!(db, loaded);
        // And the loaded copy answers queries identically.
        let q = |d: &InspectorDb| {
            d.best_direct_plan(
                prescaler_sim::Direction::HtoD,
                prescaler_ir::Precision::Double,
                prescaler_ir::Precision::Half,
                1 << 18,
            )
            .unwrap()
        };
        assert_eq!(q(&db), q(&loaded));
        std::fs::remove_file(&path).ok();
    }
}
