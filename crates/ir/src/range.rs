//! Forward value-range dataflow analysis over kernel bodies.
//!
//! The analysis abstract-interprets a kernel under *real-number*
//! semantics with every value tracked as a [`ValueRange`]: a sound
//! enclosing interval `[lo, hi]` plus an optional distribution-mean
//! estimate. Buffer elements are seeded from the host-observed input
//! magnitude bounds of the profiling run (themselves contained in the
//! declared `InputGen` ranges), scalar parameters from the recorded
//! launch arguments, and `get_global_id(d)` from the launch NDRange.
//!
//! # Lattice and widening
//!
//! The float domain is the interval lattice over the extended reals
//! (⊥ excluded — every expression has *some* value), ordered by
//! inclusion with ⊤ = `[-∞, +∞]`; integers use the same lattice over
//! `i128`. Loop heads widen in one of three ways, most precise first:
//!
//! 1. **Exact unroll** — a loop whose trip count is statically known
//!    and small is executed abstractly iteration by iteration.
//! 2. **Closed-form accumulation** — a known trip count `T` with a
//!    body whose only loop-carried updates are additive recurrences
//!    `v = v ± e` (with `e` independent of every variable assigned in
//!    the body) jumps straight to the loop post-state
//!    `[v.lo + T·min(Δ.lo, 0) …]` / `v + T·Δ`, the interval transitive
//!    closure of the recurrence.
//! 3. **Widening to ⊤** — anything else (unknown trip count, coupled
//!    recurrences) sends every variable assigned in the body to ⊤ after
//!    one descent into the body, the classic one-step widening that
//!    guarantees termination.
//!
//! # Soundness
//!
//! Interval bounds over-approximate: every concrete run under the
//! seeded input bounds stays inside them. The mean stream is an
//! *estimate* that is never allowed to over-state magnitude: sums and
//! differences are exact, and a product keeps its mean only when value
//! provenance shows the factors cannot be adversely correlated —
//! either they share no stochastic source (independent draws, where
//! the mean of the product *is* the product of means), or both are raw
//! draws from one pristine input buffer (the same element gives a
//! square, whose true mean `E[X²] ≥ E[X]²` the estimate only
//! under-states; distinct elements are independent draws). Any other
//! shared-source shape — `x·(c−x)` is the canonical one, negatively
//! correlated so the product of means over-states the truth — degrades
//! the mean to "unknown". [`verdict_for`] therefore
//! proves [`PrecisionVerdict::ProvenUnsafe`] from two criteria only:
//! the *entire* sound interval lies beyond the target's finite range
//! (every execution overflows), or the mean of a definitely-executed
//! store exceeds [`MEAN_OVERFLOW_MARGIN`] times the target's largest
//! finite value — under the declared input model the accumulated
//! values concentrate around that mean, so the stored data saturates
//! to ±∞ and the TOQ oracle cannot pass. Anything short of proof is
//! [`PrecisionVerdict::Unknown`]: the analysis never blocks a trial it
//! cannot reject outright.

use crate::ast::{assigned_vars, visit_expr, visit_stmts, Expr, Kernel, Param, Scopes, Stmt};
use crate::types::{Precision, ScalarType};
use crate::value::{CmpOp, FloatBinOp, UnaryFn};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Trip counts at or below this are unrolled exactly; above, the
/// closed-form/widening summaries take over.
const UNROLL_CAP: i128 = 16;

/// A definitely-executed store whose mean magnitude exceeds
/// `MEAN_OVERFLOW_MARGIN ×` the target's largest finite value is
/// proven to overflow under the declared input distribution.
pub const MEAN_OVERFLOW_MARGIN: f64 = 4.0;

/// A closed interval over the extended reals. `lo <= hi` always holds;
/// ⊤ is `[-∞, +∞]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-∞`).
    pub lo: f64,
    /// Upper bound (may be `+∞`).
    pub hi: f64,
}

impl Interval {
    /// The top element: every real number.
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// A normalized interval; NaN endpoints widen to the matching
    /// infinity so the result is always sound.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Interval {
        let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
        let hi = if hi.is_nan() { f64::INFINITY } else { hi };
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// The singleton interval `[v, v]`.
    #[must_use]
    pub fn point(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// Least upper bound (interval hull).
    #[must_use]
    pub fn hull(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Largest absolute value the interval admits.
    #[must_use]
    pub fn max_abs(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Whether both endpoints are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }

    fn sub(self, o: Interval) -> Interval {
        Interval::new(self.lo - o.hi, self.hi - o.lo)
    }

    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }

    fn mul(self, o: Interval) -> Interval {
        // Moore convention for the 0·∞ corner: the limit of x·y with
        // x → 0 along a finite factor is 0, and the other corner
        // products bound the rest.
        let p = |x: f64, y: f64| {
            let v = x * y;
            if v.is_nan() {
                0.0
            } else {
                v
            }
        };
        let c = [
            p(self.lo, o.lo),
            p(self.lo, o.hi),
            p(self.hi, o.lo),
            p(self.hi, o.hi),
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::new(lo, hi)
    }

    fn div(self, o: Interval) -> Interval {
        if o.lo <= 0.0 && o.hi >= 0.0 {
            return Interval::TOP; // divisor may vanish
        }
        self.mul(Interval::new(1.0 / o.hi, 1.0 / o.lo))
    }

    fn min(self, o: Interval) -> Interval {
        Interval::new(self.lo.min(o.lo), self.hi.min(o.hi))
    }

    fn max(self, o: Interval) -> Interval {
        Interval::new(self.lo.max(o.lo), self.hi.max(o.hi))
    }

    fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval::new(0.0, self.max_abs())
        }
    }

    fn monotone(self, f: impl Fn(f64) -> f64) -> Interval {
        Interval::new(f(self.lo), f(self.hi))
    }
}

/// A float abstract value: sound bounds plus a distribution-mean
/// estimate (`None` when no estimate survives the dataflow).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueRange {
    /// Sound enclosing interval.
    pub bounds: Interval,
    /// Estimated mean under the declared input model; `None` = unknown.
    pub mean: Option<f64>,
}

impl ValueRange {
    /// The unconstrained value: ⊤ bounds, unknown mean.
    pub const TOP: ValueRange = ValueRange {
        bounds: Interval::TOP,
        mean: None,
    };

    /// An exactly-known constant.
    #[must_use]
    pub fn exact(v: f64) -> ValueRange {
        ValueRange {
            bounds: Interval::point(v),
            mean: Some(v),
        }
    }

    /// Bounds with a mean estimate attached.
    #[must_use]
    pub fn with_mean(lo: f64, hi: f64, mean: f64) -> ValueRange {
        ValueRange {
            bounds: Interval::new(lo, hi),
            mean: Some(mean),
        }
    }

    /// Bounds only, mean unknown.
    #[must_use]
    pub fn bounded(lo: f64, hi: f64) -> ValueRange {
        ValueRange {
            bounds: Interval::new(lo, hi),
            mean: None,
        }
    }

    /// Hull of bounds; the mean survives only when both sides agree.
    #[must_use]
    pub fn hull(self, other: ValueRange) -> ValueRange {
        ValueRange {
            bounds: self.bounds.hull(other.bounds),
            mean: match (self.mean, other.mean) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
        }
    }
}

/// An integer abstract value over `i128` (wide enough that index and
/// trip-count arithmetic on `i64` inputs cannot wrap).
#[derive(Clone, Copy, Debug, PartialEq)]
struct IntRange {
    lo: i128,
    hi: i128,
}

impl IntRange {
    const TOP: IntRange = IntRange {
        lo: i128::MIN / 4,
        hi: i128::MAX / 4,
    };

    fn point(v: i128) -> IntRange {
        IntRange { lo: v, hi: v }
    }

    fn new(lo: i128, hi: i128) -> IntRange {
        if lo <= hi {
            IntRange { lo, hi }
        } else {
            IntRange { lo: hi, hi: lo }
        }
    }

    fn exact(self) -> Option<i128> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn hull(self, o: IntRange) -> IntRange {
        IntRange::new(self.lo.min(o.lo), self.hi.max(o.hi))
    }

    fn to_float(self) -> ValueRange {
        let (lo, hi) = (self.lo as f64, self.hi as f64);
        ValueRange {
            bounds: Interval::new(lo, hi),
            mean: self.exact().map(|v| v as f64),
        }
    }

    fn bin(self, op: FloatBinOp, o: IntRange) -> IntRange {
        let sat = |v: i128| v.clamp(i128::MIN / 4, i128::MAX / 4);
        match op {
            FloatBinOp::Add => IntRange::new(sat(self.lo + o.lo), sat(self.hi + o.hi)),
            FloatBinOp::Sub => IntRange::new(sat(self.lo - o.hi), sat(self.hi - o.lo)),
            FloatBinOp::Mul => {
                let c = [
                    self.lo * o.lo,
                    self.lo * o.hi,
                    self.hi * o.lo,
                    self.hi * o.hi,
                ];
                IntRange::new(
                    sat(*c.iter().min().expect("non-empty")),
                    sat(*c.iter().max().expect("non-empty")),
                )
            }
            // Division and min/max on indices are rare; bound loosely
            // but soundly.
            FloatBinOp::Div => {
                if o.lo <= 0 && o.hi >= 0 {
                    IntRange::TOP
                } else {
                    let c = [
                        self.lo / o.lo,
                        self.lo / o.hi,
                        self.hi / o.lo,
                        self.hi / o.hi,
                    ];
                    IntRange::new(
                        *c.iter().min().expect("non-empty"),
                        *c.iter().max().expect("non-empty"),
                    )
                }
            }
            FloatBinOp::Min => IntRange::new(self.lo.min(o.lo), self.hi.min(o.hi)),
            FloatBinOp::Max => IntRange::new(self.lo.max(o.lo), self.hi.max(o.hi)),
        }
    }
}

/// A boolean abstract value.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BoolRange {
    can_true: bool,
    can_false: bool,
}

impl BoolRange {
    const UNKNOWN: BoolRange = BoolRange {
        can_true: true,
        can_false: true,
    };
}

/// Any abstract value flowing through the kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum AVal {
    Int(IntRange),
    Float(ValueRange),
    Bool(BoolRange),
}

impl AVal {
    fn as_float(self) -> ValueRange {
        match self {
            AVal::Float(v) => v,
            AVal::Int(i) => i.to_float(),
            AVal::Bool(_) => ValueRange::TOP,
        }
    }

    fn as_int(self) -> IntRange {
        match self {
            AVal::Int(i) => i,
            _ => IntRange::TOP,
        }
    }

    fn hull(self, o: AVal) -> AVal {
        match (self, o) {
            (AVal::Int(a), AVal::Int(b)) => AVal::Int(a.hull(b)),
            (AVal::Bool(a), AVal::Bool(b)) => AVal::Bool(BoolRange {
                can_true: a.can_true || b.can_true,
                can_false: a.can_false || b.can_false,
            }),
            (a, b) => AVal::Float(a.as_float().hull(b.as_float())),
        }
    }
}

/// A recorded scalar launch argument: the value the host passed.
pub use crate::interp::ArgValue as ScalarBound;

/// Everything known about one launch before it runs: per-buffer element
/// distributions, scalar arguments, and the NDRange.
#[derive(Clone, Debug, Default)]
pub struct LaunchBounds {
    /// Element distribution per buffer parameter name.
    pub buffers: BTreeMap<String, ValueRange>,
    /// Recorded scalar arguments by parameter name.
    pub scalars: BTreeMap<String, ScalarBound>,
    /// The launch NDRange (`get_global_id` bounds).
    pub global: [usize; 2],
}

/// One store the analysis proved the kernel performs.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreSummary {
    /// Buffer parameter stored through.
    pub buf: String,
    /// Abstract range of the stored values.
    pub range: ValueRange,
    /// Whether the store executes on every run reaching the kernel
    /// (`false` under conditions the analysis cannot decide).
    pub definite: bool,
}

/// The verdict for scaling one memory object to one target precision.
#[derive(Clone, Debug, PartialEq)]
pub enum PrecisionVerdict {
    /// Every value provably fits the target's finite range; demotion
    /// cannot overflow (rounding is still the TOQ oracle's call).
    SafeDemote,
    /// Demotion is proven to destroy the data; trialing it is wasted
    /// work.
    ProvenUnsafe(UnsafeReason),
    /// No proof either way — the trial must run.
    Unknown,
}

/// Why a demotion is proven unsafe.
#[derive(Clone, Debug, PartialEq)]
pub enum UnsafeReason {
    /// Stored values exceed the target's largest finite value and
    /// saturate to ±∞.
    OverflowToInf {
        /// The bound (interval edge or mean) that proved the overflow.
        bound: f64,
        /// The target's largest finite value.
        max_finite: f64,
    },
    /// Every stored value is a nonzero subnormal too small to survive:
    /// the whole object flushes to zero.
    SubnormalFlush {
        /// Largest magnitude the stored interval admits.
        bound: f64,
        /// The target's smallest value that rounds away from zero.
        min_nonzero: f64,
    },
}

impl fmt::Display for UnsafeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsafeReason::OverflowToInf { bound, max_finite } => {
                write!(f, "values reach {bound:e} > max finite {max_finite:e}")
            }
            UnsafeReason::SubnormalFlush { bound, min_nonzero } => write!(
                f,
                "all values below {bound:e} flush to zero (min nonzero {min_nonzero:e})"
            ),
        }
    }
}

/// The largest finite value of a precision.
#[must_use]
pub fn max_finite(p: Precision) -> f64 {
    match p {
        Precision::Half => 65504.0,
        Precision::Single => f64::from(f32::MAX),
        Precision::Double => f64::MAX,
    }
}

/// The smallest positive value that rounds to something nonzero
/// (half the minimum subnormal, under round-to-nearest-even).
#[must_use]
pub fn min_nonzero(p: Precision) -> f64 {
    match p {
        Precision::Half => 2.0_f64.powi(-25),
        Precision::Single => 2.0_f64.powi(-150),
        Precision::Double => 0.0, // f64 subnormals are the floor of the model
    }
}

/// Combines the per-store (and host-input) contributions of one memory
/// object into a verdict for demoting it to `target`.
///
/// Each contribution is `(range, definite)`; only definite
/// contributions can *prove* unsafety, while every contribution must
/// fit for [`PrecisionVerdict::SafeDemote`].
#[must_use]
pub fn verdict_for(contributions: &[(ValueRange, bool)], target: Precision) -> PrecisionVerdict {
    if contributions.is_empty() {
        return PrecisionVerdict::Unknown;
    }
    let limit = max_finite(target);
    let floor = min_nonzero(target);
    for (r, definite) in contributions {
        if !definite {
            continue;
        }
        // Every possible value overflows: a genuine interval proof.
        if r.bounds.lo > limit || r.bounds.hi < -limit {
            return PrecisionVerdict::ProvenUnsafe(UnsafeReason::OverflowToInf {
                bound: if r.bounds.lo > limit {
                    r.bounds.lo
                } else {
                    r.bounds.hi
                },
                max_finite: limit,
            });
        }
        // Distributional proof: the mean is far past the finite range,
        // so the accumulated values (concentrated around it under the
        // declared input model) saturate to ±∞.
        if let Some(m) = r.mean {
            if m.abs() > MEAN_OVERFLOW_MARGIN * limit {
                return PrecisionVerdict::ProvenUnsafe(UnsafeReason::OverflowToInf {
                    bound: m,
                    max_finite: limit,
                });
            }
        }
        // Every possible value is a nonzero subnormal that flushes.
        if floor > 0.0
            && ((r.bounds.lo > 0.0 && r.bounds.hi < floor)
                || (r.bounds.hi < 0.0 && r.bounds.lo > -floor))
        {
            return PrecisionVerdict::ProvenUnsafe(UnsafeReason::SubnormalFlush {
                bound: r.bounds.max_abs(),
                min_nonzero: floor,
            });
        }
    }
    let all_fit = contributions
        .iter()
        .all(|(r, _)| r.bounds.is_finite() && r.bounds.max_abs() <= limit);
    if all_fit {
        PrecisionVerdict::SafeDemote
    } else {
        PrecisionVerdict::Unknown
    }
}

/// Abstract-interprets `kernel` under `env`, returning the stores it
/// performs (in evaluation order; conditional paths are joined).
#[must_use]
pub fn analyze_kernel(kernel: &Kernel, env: &LaunchBounds) -> Vec<StoreSummary> {
    let mut a = Absint {
        kernel,
        buffers: env.buffers.clone().into_iter().collect(),
        buffer_sources: HashMap::new(),
        scopes: Scopes::new(),
        stores: Vec::new(),
        global: env.global,
        scalars: env.scalars.clone(),
    };
    a.eval_block(&kernel.body, true);
    a.stores
}

/// Stochastic provenance of an abstract value: the input buffers it
/// draws from, and whether it is a single *raw* draw (a load, or an
/// alias chain back to one) rather than an arithmetic combination.
/// Only the mean stream consults it — being over-broad merely drops
/// mean estimates, never bounds.
#[derive(Clone, Debug, Default, PartialEq)]
struct Provenance {
    /// Buffer names whose contents influence the value.
    sources: HashSet<String>,
    /// True for unmodified draws; any arithmetic clears it.
    raw: bool,
}

impl Provenance {
    /// A value independent of every input draw (constants, thread ids,
    /// scalar parameters, loop variables).
    fn deterministic() -> Provenance {
        Provenance {
            sources: HashSet::new(),
            raw: true,
        }
    }

    /// Join at a control-flow merge: either side's draws may be the
    /// value's.
    fn join(&self, other: &Provenance) -> Provenance {
        let mut sources = self.sources.clone();
        sources.extend(other.sources.iter().cloned());
        Provenance {
            raw: self.raw && other.raw && self.sources == other.sources,
            sources,
        }
    }
}

/// One scope slot: the abstract value plus its provenance.
#[derive(Clone, Debug)]
struct Binding {
    val: AVal,
    prov: Provenance,
}

struct Absint<'k> {
    kernel: &'k Kernel,
    /// Current per-buffer element distribution (input-seeded, updated
    /// by stores).
    buffers: HashMap<String, ValueRange>,
    /// Buffers whose elements are no longer pristine input draws: a
    /// store derived from other stochastic sources lands them here,
    /// keyed to the sources the stored values carry.
    buffer_sources: HashMap<String, HashSet<String>>,
    scopes: Scopes<'k, Binding>,
    stores: Vec<StoreSummary>,
    global: [usize; 2],
    scalars: BTreeMap<String, ScalarBound>,
}

/// An additive recurrence `v = v ± e` found at the top level of a loop
/// body.
struct Recurrence<'b> {
    name: &'b str,
    delta: &'b Expr,
    negated: bool,
}

/// Matches `v = v + e`, `v = e + v`, or `v = v - e`.
fn match_recurrence<'b>(name: &'b str, value: &'b Expr) -> Option<Recurrence<'b>> {
    let Expr::Bin { op, lhs, rhs } = value else {
        return None;
    };
    let is_self = |e: &Expr| matches!(e, Expr::Var(n) if n == name);
    match op {
        FloatBinOp::Add if is_self(lhs) => Some(Recurrence {
            name,
            delta: rhs,
            negated: false,
        }),
        FloatBinOp::Add if is_self(rhs) => Some(Recurrence {
            name,
            delta: lhs,
            negated: false,
        }),
        FloatBinOp::Sub if is_self(lhs) => Some(Recurrence {
            name,
            delta: rhs,
            negated: true,
        }),
        _ => None,
    }
}

impl<'k> Absint<'k> {
    fn lookup(&self, name: &str) -> AVal {
        if let Some(b) = self.scopes.get(name) {
            return b.val;
        }
        match self.kernel.param(name) {
            Some(Param::Scalar { ty, .. }) => match self.scalars.get(name) {
                Some(ScalarBound::Int(v)) => AVal::Int(IntRange::point(i128::from(*v))),
                Some(ScalarBound::Float(v)) => AVal::Float(ValueRange::exact(*v)),
                None => match self.kernel.resolve(ty) {
                    Some(ScalarType::Int) => AVal::Int(IntRange::TOP),
                    _ => AVal::Float(ValueRange::TOP),
                },
            },
            _ => AVal::Float(ValueRange::TOP),
        }
    }

    /// Provenance of a name: its binding's, or deterministic for
    /// unbound names (scalar parameters, which the host fixes before
    /// launch).
    fn lookup_prov(&self, name: &str) -> Provenance {
        self.scopes
            .get(name)
            .map_or_else(Provenance::deterministic, |b| b.prov.clone())
    }

    /// Binds with deterministic provenance (loop variables, widened
    /// slots — anything whose mean can never feed a product).
    fn bind(&mut self, name: &'k str, v: AVal) {
        self.bind_with(name, v, Provenance::deterministic());
    }

    fn bind_with(&mut self, name: &'k str, v: AVal, prov: Provenance) {
        self.scopes.bind(name, Binding { val: v, prov });
    }

    /// Reassigns wherever the name is bound (outer scopes included),
    /// keeping the slot's provenance.
    fn assign(&mut self, name: &'k str, v: AVal) {
        match self.scopes.get_mut(name) {
            Some(slot) => slot.val = v,
            None => self.bind(name, v),
        }
    }

    /// Reassigns value and provenance together wherever the name is
    /// bound.
    fn assign_with(&mut self, name: &'k str, v: AVal, prov: Provenance) {
        match self.scopes.get_mut(name) {
            Some(slot) => *slot = Binding { val: v, prov },
            None => self.bind_with(name, v, prov),
        }
    }

    /// Stochastic provenance of an expression's value.
    fn expr_prov(&self, e: &Expr) -> Provenance {
        match e {
            Expr::FloatConst(_) | Expr::IntConst(_) | Expr::GlobalId(_) => {
                Provenance::deterministic()
            }
            Expr::Var(n) => self.lookup_prov(n),
            Expr::Load { buf, index } => {
                let mut sources = self.expr_prov(index).sources;
                if let Some(extra) = self.buffer_sources.get(buf) {
                    sources.extend(extra.iter().cloned());
                }
                sources.insert(buf.clone());
                Provenance { sources, raw: true }
            }
            // A cast changes representation, not which draw the value
            // is.
            Expr::Cast { arg, .. } => self.expr_prov(arg),
            Expr::Unary { arg, .. } => Provenance {
                sources: self.expr_prov(arg).sources,
                raw: false,
            },
            Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                let mut sources = self.expr_prov(lhs).sources;
                sources.extend(self.expr_prov(rhs).sources);
                Provenance {
                    sources,
                    raw: false,
                }
            }
            Expr::Select { cond, then, els } => {
                let mut sources = self.expr_prov(cond).sources;
                sources.extend(self.expr_prov(then).sources);
                sources.extend(self.expr_prov(els).sources);
                Provenance {
                    sources,
                    raw: false,
                }
            }
        }
    }

    /// Whether `E[l]·E[r]` can never over-state the magnitude of
    /// `E[l·r]`: the factors share no stochastic source (independent
    /// draws — exact), or both are raw draws from the same single
    /// *pristine* input buffer (two iid elements are either the same
    /// one — a square, whose true mean `E[X²] ≥ E[X]²` the estimate
    /// under-states — or independent).
    fn independent_factors(&self, l: &Expr, r: &Expr) -> bool {
        let lp = self.expr_prov(l);
        let rp = self.expr_prov(r);
        lp.sources.is_disjoint(&rp.sources)
            || (lp.raw
                && rp.raw
                && lp.sources == rp.sources
                && lp.sources.len() == 1
                && lp
                    .sources
                    .iter()
                    .all(|b| !self.buffer_sources.contains_key(b)))
    }

    fn buffer_range(&self, buf: &str) -> ValueRange {
        self.buffers.get(buf).copied().unwrap_or(ValueRange::TOP)
    }

    fn eval(&mut self, e: &Expr) -> AVal {
        match e {
            Expr::FloatConst(v) => AVal::Float(ValueRange::exact(*v)),
            Expr::IntConst(v) => AVal::Int(IntRange::point(i128::from(*v))),
            Expr::GlobalId(d) => {
                let n = self.global.get(*d).copied().unwrap_or(1).max(1);
                AVal::Int(IntRange::new(0, n as i128 - 1))
            }
            Expr::Var(name) => self.lookup(name),
            Expr::Load { buf, index } => {
                self.eval(index); // soundness of the value needs no index
                AVal::Float(self.buffer_range(buf))
            }
            Expr::Unary { op, arg } => {
                let a = self.eval(arg);
                match (op, a) {
                    (UnaryFn::Neg, AVal::Int(i)) => AVal::Int(IntRange::new(-i.hi, -i.lo)),
                    (UnaryFn::Neg, _) => {
                        let v = a.as_float();
                        AVal::Float(ValueRange {
                            bounds: v.bounds.neg(),
                            mean: v.mean.map(|m| -m),
                        })
                    }
                    (UnaryFn::Fabs, AVal::Int(i)) => {
                        let lo = i.lo.abs().min(i.hi.abs());
                        let hi = i.lo.abs().max(i.hi.abs());
                        AVal::Int(if i.lo <= 0 && i.hi >= 0 {
                            IntRange::new(0, hi)
                        } else {
                            IntRange::new(lo, hi)
                        })
                    }
                    (UnaryFn::Fabs, _) => {
                        let v = a.as_float();
                        let mean = match v.mean {
                            Some(m) if v.bounds.lo >= 0.0 => Some(m),
                            Some(m) if v.bounds.hi <= 0.0 => Some(-m),
                            _ => None,
                        };
                        AVal::Float(ValueRange {
                            bounds: v.bounds.abs(),
                            mean,
                        })
                    }
                    (UnaryFn::Sqrt, _) => {
                        let b = a.as_float().bounds;
                        // sqrt of a possibly-negative value is NaN; the
                        // clamped interval still encloses every finite
                        // result.
                        let b = Interval::new(b.lo.max(0.0), b.hi.max(0.0));
                        AVal::Float(ValueRange {
                            bounds: b.monotone(f64::sqrt),
                            mean: None,
                        })
                    }
                    (UnaryFn::Exp, _) => AVal::Float(ValueRange {
                        bounds: a.as_float().bounds.monotone(f64::exp),
                        mean: None,
                    }),
                    (UnaryFn::Log, _) => {
                        let b = a.as_float().bounds;
                        let b = Interval::new(b.lo.max(0.0), b.hi.max(0.0));
                        AVal::Float(ValueRange {
                            bounds: b.monotone(f64::ln),
                            mean: None,
                        })
                    }
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs), self.eval(rhs));
                if let (AVal::Int(a), AVal::Int(b)) = (l, r) {
                    return AVal::Int(a.bin(*op, b));
                }
                let (a, b) = (l.as_float(), r.as_float());
                let bounds = match op {
                    FloatBinOp::Add => a.bounds.add(b.bounds),
                    FloatBinOp::Sub => a.bounds.sub(b.bounds),
                    FloatBinOp::Mul => a.bounds.mul(b.bounds),
                    FloatBinOp::Div => a.bounds.div(b.bounds),
                    FloatBinOp::Min => a.bounds.min(b.bounds),
                    FloatBinOp::Max => a.bounds.max(b.bounds),
                };
                let mean = match (op, a.mean, b.mean) {
                    (FloatBinOp::Add, Some(x), Some(y)) => Some(x + y),
                    (FloatBinOp::Sub, Some(x), Some(y)) => Some(x - y),
                    // Mean of a product of *independently drawn* values
                    // is the product of means. Correlated factors can
                    // break that in the unsound direction — for
                    // `x·(c−x)` the product of means over-states the
                    // true mean's magnitude — so the mean survives only
                    // when provenance shows the factors are independent
                    // draws (or same-buffer raw draws, where dependence
                    // means a square and only under-estimates).
                    (FloatBinOp::Mul, Some(x), Some(y)) if self.independent_factors(lhs, rhs) => {
                        Some(x * y)
                    }
                    (FloatBinOp::Div, Some(x), Some(y))
                        if b.bounds.lo == b.bounds.hi && y != 0.0 =>
                    {
                        Some(x / y)
                    }
                    _ => None,
                };
                AVal::Float(ValueRange { bounds, mean })
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs), self.eval(rhs));
                AVal::Bool(self.compare(*op, l, r))
            }
            // The analysis models real-number dataflow; representation
            // effects of a cast are exactly what the precision verdicts
            // quantify, so the value range passes through unchanged
            // (int casts truncate, which the hull absorbs).
            Expr::Cast { to, arg } => {
                let a = self.eval(arg);
                match self.kernel.resolve(to) {
                    // A dangling `ElemOf` (a malformed kernel) is ⊤.
                    None => AVal::Float(ValueRange::TOP),
                    Some(ScalarType::Int) => match a {
                        AVal::Int(i) => AVal::Int(i),
                        _ => {
                            let b = a.as_float().bounds;
                            let clamp = |v: f64| {
                                if v.is_finite() {
                                    v.trunc() as i128
                                } else if v > 0.0 {
                                    i128::MAX / 4
                                } else {
                                    i128::MIN / 4
                                }
                            };
                            AVal::Int(IntRange::new(clamp(b.lo), clamp(b.hi)))
                        }
                    },
                    _ => AVal::Float(a.as_float()),
                }
            }
            Expr::Select { cond, then, els } => {
                let c = self.eval(cond);
                let (t, e2) = (self.eval(then), self.eval(els));
                match c {
                    AVal::Bool(BoolRange {
                        can_true: true,
                        can_false: false,
                    }) => t,
                    AVal::Bool(BoolRange {
                        can_true: false,
                        can_false: true,
                    }) => e2,
                    _ => t.hull(e2),
                }
            }
        }
    }

    fn compare(&self, op: CmpOp, l: AVal, r: AVal) -> BoolRange {
        // Decide on the hull of each side, integer or float alike.
        let (a, b) = match (l, r) {
            (AVal::Int(a), AVal::Int(b)) => (
                Interval::new(a.lo as f64, a.hi as f64),
                Interval::new(b.lo as f64, b.hi as f64),
            ),
            _ => (l.as_float().bounds, r.as_float().bounds),
        };
        match op {
            CmpOp::Lt => BoolRange {
                can_true: a.lo < b.hi,
                can_false: a.hi >= b.lo,
            },
            CmpOp::Le => BoolRange {
                can_true: a.lo <= b.hi,
                can_false: a.hi > b.lo,
            },
            CmpOp::Gt => BoolRange {
                can_true: a.hi > b.lo,
                can_false: a.lo <= b.hi,
            },
            CmpOp::Ge => BoolRange {
                can_true: a.hi >= b.lo,
                can_false: a.lo < b.hi,
            },
            CmpOp::Eq => BoolRange {
                can_true: a.lo <= b.hi && b.lo <= a.hi,
                can_false: !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
            },
            CmpOp::Ne => BoolRange {
                can_true: !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
                can_false: a.lo <= b.hi && b.lo <= a.hi,
            },
        }
    }

    fn eval_block(&mut self, stmts: &'k [Stmt], definite: bool) {
        for s in stmts {
            self.eval_stmt(s, definite);
        }
    }

    fn eval_stmt(&mut self, stmt: &'k Stmt, definite: bool) {
        match stmt {
            Stmt::Let { name, value, .. } => {
                let v = self.eval(value);
                let prov = self.expr_prov(value);
                self.bind_with(name, v, prov);
            }
            Stmt::Assign { name, value } => {
                let v = self.eval(value);
                let prov = self.expr_prov(value);
                self.assign_with(name, v, prov);
            }
            Stmt::Store { buf, index, value } => {
                self.eval(index);
                let v = self.eval(value).as_float();
                self.stores.push(StoreSummary {
                    buf: buf.clone(),
                    range: v,
                    definite,
                });
                // Later loads of this buffer (same kernel) see old or
                // new elements: hull them.
                let merged = self.buffer_range(buf).hull(v);
                self.buffers.insert(buf.clone(), merged);
                // Stored values derived from other draws leave the
                // buffer non-pristine: its loads carry those sources
                // and no longer qualify for the same-buffer product
                // exemption.
                let mut extra = self.expr_prov(value).sources;
                extra.extend(self.expr_prov(index).sources);
                if !extra.is_empty() {
                    self.buffer_sources
                        .entry(buf.clone())
                        .or_default()
                        .extend(extra);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = match self.eval(cond) {
                    AVal::Bool(b) => b,
                    _ => BoolRange::UNKNOWN,
                };
                match (c.can_true, c.can_false) {
                    (true, false) => self.scoped_block(then_body, definite),
                    (false, true) => self.scoped_block(else_body, definite),
                    _ => {
                        // Join over both arms: evaluate each from the
                        // pre-state, then hull variables and buffers.
                        let pre_scopes = self.scopes.clone();
                        let pre_buffers = self.buffers.clone();
                        self.scoped_block(then_body, false);
                        let then_scopes = std::mem::replace(&mut self.scopes, pre_scopes);
                        let then_buffers = std::mem::replace(&mut self.buffers, pre_buffers);
                        self.scoped_block(else_body, false);
                        self.scopes.join(&then_scopes, |slot, b| {
                            slot.val = slot.val.hull(b.val);
                            slot.prov = slot.prov.join(&b.prov);
                        });
                        for (k, v) in then_buffers {
                            let merged = self.buffer_range(&k).hull(v);
                            self.buffers.insert(k, merged);
                        }
                    }
                }
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let s = self.eval(start).as_int();
                let e = self.eval(end).as_int();
                self.eval_for(var, s, e, body, definite);
            }
        }
    }

    fn scoped_block(&mut self, stmts: &'k [Stmt], definite: bool) {
        self.scopes.push();
        self.eval_block(stmts, definite);
        self.scopes.pop();
    }

    fn eval_for(
        &mut self,
        var: &'k str,
        s: IntRange,
        e: IntRange,
        body: &'k [Stmt],
        definite: bool,
    ) {
        match (s.exact(), e.exact()) {
            (Some(s0), Some(e0)) if e0 <= s0 => {} // zero trips
            (Some(s0), Some(e0)) if e0 - s0 <= UNROLL_CAP => {
                for i in s0..e0 {
                    self.scopes.push();
                    self.bind(var, AVal::Int(IntRange::point(i)));
                    self.eval_block(body, definite);
                    self.scopes.pop();
                }
            }
            (Some(s0), Some(e0)) => self.summarize_loop(var, s0, e0, body, definite),
            _ => {
                // Unknown trip count: widen every assigned variable to
                // ⊤ before one descent, so the body's stores are still
                // observed over a sound post-state.
                let assigned = assigned_vars(body);
                for name in &assigned {
                    self.widen_var(name);
                }
                self.scopes.push();
                let lo = s.lo.min(e.lo);
                let hi = e.hi.saturating_sub(1).max(lo);
                self.bind(var, AVal::Int(IntRange::new(lo, hi)));
                self.eval_block(body, false);
                self.scopes.pop();
                for name in &assigned {
                    self.widen_var(name);
                }
            }
        }
    }

    fn widen_var(&mut self, name: &'k str) {
        let widened = match self.lookup(name) {
            AVal::Int(_) => AVal::Int(IntRange::TOP),
            AVal::Bool(_) => AVal::Bool(BoolRange::UNKNOWN),
            AVal::Float(_) => AVal::Float(ValueRange::TOP),
        };
        self.assign(name, widened);
    }

    /// Closed-form summary of a loop with known trip count `e0 - s0 >`
    /// [`UNROLL_CAP`]: additive recurrences with iteration-independent
    /// deltas jump to their post-state, everything else assigned widens
    /// to ⊤.
    fn summarize_loop(
        &mut self,
        var: &'k str,
        s0: i128,
        e0: i128,
        body: &'k [Stmt],
        definite: bool,
    ) {
        let trips = e0 - s0;
        let mut assign_counts: HashMap<&str, usize> = HashMap::new();
        let mut stored = HashSet::new();
        visit_stmts(body, &mut |s| match s {
            Stmt::Assign { name, .. } => *assign_counts.entry(name).or_insert(0) += 1,
            Stmt::Store { buf, .. } => {
                stored.insert(buf.as_str());
            }
            _ => {}
        });
        let assigned: HashSet<&str> = assign_counts.keys().copied().collect();

        // Pass A: walk the top-level statements once in the pre-state
        // (loop variable bound to its full range), binding lets in
        // order and recording, per let, the transitive variables and
        // buffer loads its definition reads. An additive recurrence
        // earns a closed form only when its delta is
        // iteration-independent *through those lets as well*: expanded
        // past every let it references, it must read no variable the
        // body assigns, load no buffer the body stores to, and its
        // target must be assigned exactly once in the whole body. So
        // `let t = f(acc); acc = acc + t` is loop-carried and widens,
        // while `let c = load(w, k); acc = acc + c` still summarizes.
        // Each surviving delta is evaluated at its own program point —
        // exactly the binding environment the first iteration sees — so
        // a let that only shadows later cannot leak into an earlier
        // delta.
        self.scopes.push();
        self.bind(var, AVal::Int(IntRange::new(s0, e0 - 1)));
        let mut let_reads: HashMap<&str, (HashSet<&str>, HashSet<&str>)> = HashMap::new();
        let mut deltas: HashMap<&str, (ValueRange, Provenance)> = HashMap::new();
        for stmt in body {
            match stmt {
                Stmt::Let { name, value, .. } => {
                    let reads = reads_through_lets(value, &let_reads);
                    let v = self.eval(value);
                    let prov = self.expr_prov(value);
                    self.bind_with(name, v, prov);
                    let_reads.insert(name, reads);
                }
                Stmt::Assign { name, value } => {
                    let Some(rec) = match_recurrence(name, value) else {
                        continue;
                    };
                    let (vars, loads) = reads_through_lets(rec.delta, &let_reads);
                    let independent = vars.iter().all(|v| !assigned.contains(v))
                        && loads.iter().all(|b| !stored.contains(b))
                        && assign_counts.get(name.as_str()).copied() == Some(1);
                    if !independent {
                        continue;
                    }
                    let d = self.eval(rec.delta).as_float();
                    let d = if rec.negated {
                        ValueRange {
                            bounds: d.bounds.neg(),
                            mean: d.mean.map(|m| -m),
                        }
                    } else {
                        d
                    };
                    let prov = self.expr_prov(rec.delta);
                    deltas.insert(rec.name, (d, prov));
                }
                _ => {}
            }
        }
        self.scopes.pop();

        // Closed forms: post-state and the hull over all iterations.
        // The recurrence's provenance accumulates the delta's on top of
        // its initial value's.
        let t = trips as f64;
        let mut finals: HashMap<&str, (ValueRange, Provenance)> = HashMap::new();
        let mut hulls: HashMap<&str, (ValueRange, Provenance)> = HashMap::new();
        for (name, (d, dprov)) in &deltas {
            let v0 = self.lookup(name).as_float();
            let mut prov = self.lookup_prov(name);
            prov.sources.extend(dprov.sources.iter().cloned());
            prov.raw = false;
            let post = ValueRange {
                bounds: Interval::new(
                    v0.bounds.lo + t * d.bounds.lo,
                    v0.bounds.hi + t * d.bounds.hi,
                ),
                mean: match (v0.mean, d.mean) {
                    (Some(a), Some(b)) => Some(a + t * b),
                    _ => None,
                },
            };
            let hull = ValueRange {
                bounds: Interval::new(
                    v0.bounds.lo + t * d.bounds.lo.min(0.0),
                    v0.bounds.hi + t * d.bounds.hi.max(0.0),
                ),
                mean: None,
            };
            finals.insert(name, (post, prov.clone()));
            hulls.insert(name, (hull, prov));
        }

        // Pass B: walk the body once for its stores and nested effects,
        // with recurrences held at their iteration hull and every other
        // assigned variable widened to ⊤.
        for &name in &assigned {
            match hulls.get(name) {
                Some((h, p)) => self.assign_with(name, AVal::Float(*h), p.clone()),
                None => self.widen_var(name),
            }
        }
        self.scopes.push();
        self.bind(var, AVal::Int(IntRange::new(s0, e0 - 1)));
        self.eval_block(body, definite);
        self.scopes.pop();

        // Post-state: recurrences land on their closed forms; the rest
        // stays widened.
        for &name in &assigned {
            match finals.get(name) {
                Some((f, p)) => self.assign_with(name, AVal::Float(*f), p.clone()),
                None => self.widen_var(name),
            }
        }
    }
}

/// Variables and buffers `e` reads, expanded transitively through the
/// loop body's `let` bindings walked so far: referencing a let pulls in
/// everything its definition (recursively) reads. The let's own name
/// stays in the set, which is harmless — independence only tests
/// `Assign` targets and stored buffers against it.
fn reads_through_lets<'b>(
    e: &'b Expr,
    let_reads: &HashMap<&str, (HashSet<&'b str>, HashSet<&'b str>)>,
) -> (HashSet<&'b str>, HashSet<&'b str>) {
    let mut vars = HashSet::new();
    let mut loads = HashSet::new();
    visit_expr(e, &mut |x| match x {
        Expr::Var(n) => {
            vars.insert(n.as_str());
        }
        Expr::Load { buf, .. } => {
            loads.insert(buf.as_str());
        }
        _ => {}
    });
    // Entries in `let_reads` are already fully expanded at insertion,
    // so one substitution level closes the set.
    for v in vars.clone() {
        if let Some((dv, dl)) = let_reads.get(v) {
            vars.extend(dv);
            loads.extend(dl);
        }
    }
    (vars, loads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;

    fn gemm_like(nk_arg: i64, n_range: (f64, f64)) -> (Kernel, LaunchBounds) {
        // acc = Σ_k a[..]*b[..]; c = alpha*acc + beta*c[..] — the shape
        // every accumulating polybench kernel shares.
        let k = kernel("mm")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("ni")
            .int_param("nj")
            .int_param("nk")
            .float_param_like("alpha", "c")
            .float_param_like("beta", "c")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("i"), var("ni")),
                    vec![if_(
                        lt(var("j"), var("nj")),
                        vec![
                            let_acc("acc", "c", flit(0.0)),
                            for_(
                                "k",
                                int(0),
                                var("nk"),
                                vec![assign(
                                    "acc",
                                    var("acc")
                                        + load("a", var("i") * var("nk") + var("k"))
                                            * load("b", var("k") * var("nj") + var("j")),
                                )],
                            ),
                            store(
                                "c",
                                var("i") * var("nj") + var("j"),
                                var("alpha") * var("acc")
                                    + var("beta") * load("c", var("i") * var("nj") + var("j")),
                            ),
                        ],
                    )],
                ),
            ]);
        let mid = f64::midpoint(n_range.0, n_range.1);
        let mut env = LaunchBounds {
            global: [8, 8],
            ..LaunchBounds::default()
        };
        for buf in ["a", "b", "c"] {
            env.buffers
                .insert(buf.into(), ValueRange::with_mean(n_range.0, n_range.1, mid));
        }
        env.scalars.insert("ni".into(), ScalarBound::Int(8));
        env.scalars.insert("nj".into(), ScalarBound::Int(8));
        env.scalars.insert("nk".into(), ScalarBound::Int(nk_arg));
        env.scalars.insert("alpha".into(), ScalarBound::Float(1.5));
        env.scalars.insert("beta".into(), ScalarBound::Float(1.2));
        env.buffers
            .insert("c".into(), ValueRange::with_mean(n_range.0, n_range.1, mid));
        (k, env)
    }

    #[test]
    fn interval_arithmetic_is_sound_on_corners() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(4.0, 5.0);
        assert_eq!(a.add(b), Interval::new(2.0, 8.0));
        assert_eq!(a.sub(b), Interval::new(-7.0, -1.0));
        assert_eq!(a.mul(b), Interval::new(-10.0, 15.0));
        assert_eq!(b.div(Interval::new(2.0, 4.0)), Interval::new(1.0, 2.5));
        assert_eq!(a.div(a), Interval::TOP, "divisor spans zero");
        assert_eq!(a.abs(), Interval::new(0.0, 3.0));
        assert_eq!(Interval::new(f64::NAN, 1.0).lo, f64::NEG_INFINITY);
    }

    #[test]
    fn accumulation_overflow_is_detected_for_half() {
        // 64 products of values uniform in (0, 513): mean ≈ 64·256.5²
        // ≈ 4.2M, far beyond 4×65504 — proven unsafe for half.
        let (k, env) = gemm_like(64, (0.0, 513.0));
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores.len(), 1);
        let c = &stores[0];
        assert_eq!(c.buf, "c");
        assert!(c.definite, "guards are provably true at this NDRange");
        let mean = c.range.mean.expect("linear accumulation keeps the mean");
        assert!(mean > 4.0 * 65504.0, "mean {mean}");
        let verdict = verdict_for(&[(c.range, c.definite)], Precision::Half);
        assert!(
            matches!(
                verdict,
                PrecisionVerdict::ProvenUnsafe(UnsafeReason::OverflowToInf { .. })
            ),
            "{verdict:?}"
        );
        // The same data comfortably fits single precision.
        assert_eq!(
            verdict_for(&[(c.range, c.definite)], Precision::Single),
            PrecisionVerdict::SafeDemote
        );
    }

    #[test]
    fn small_inputs_are_safe_for_half() {
        // Uniform (0,1) inputs over a short accumulation stay small.
        let (k, env) = gemm_like(64, (0.0, 1.0));
        let stores = analyze_kernel(&k, &env);
        let c = &stores[0];
        assert!(c.range.bounds.hi <= 200.0, "{:?}", c.range);
        assert_eq!(
            verdict_for(&[(c.range, c.definite)], Precision::Half),
            PrecisionVerdict::SafeDemote
        );
    }

    #[test]
    fn exact_unroll_matches_closed_form() {
        // The same kernel at a trip count under the unroll cap and one
        // over it: sound bounds must agree (the closed form is exact
        // for additive recurrences).
        let (k, env_small) = gemm_like(8, (0.0, 2.0));
        let (_, env_large) = gemm_like(64, (0.0, 2.0));
        let small = &analyze_kernel(&k, &env_small)[0];
        let large = &analyze_kernel(&k, &env_large)[0];
        // 8 trips: hi = 1.5·(8·4) + 1.2·2 = 50.4; 64 trips: 8× the
        // accumulation.
        assert!((small.range.bounds.hi - 50.4).abs() < 1e-9, "{small:?}");
        assert!(
            (large.range.bounds.hi - (1.5 * 256.0 + 2.4)).abs() < 1e-9,
            "{large:?}"
        );
        assert_eq!(small.range.bounds.lo, 0.0);
    }

    #[test]
    fn loop_carried_dependence_through_a_let_widens_instead_of_misproving() {
        // Geometric approach to a fixpoint: acc converges to 60000 and
        // never exceeds it. The delta `t` reads `acc` *through a let*,
        // so it is loop-carried — classifying it as an independent
        // additive recurrence would report ~3e6 on both bounds and
        // wrongly prove Half unsafe for data that fits.
        let k = kernel("conv")
            .buffer("o", Precision::Double, Access::Write)
            .body(vec![
                let_("acc", flit(0.0)),
                for_(
                    "i",
                    int(0),
                    int(100),
                    vec![
                        let_("t", (flit(60000.0) - var("acc")) * flit(0.5)),
                        assign("acc", var("acc") + var("t")),
                    ],
                ),
                store("o", global_id(0), var("acc")),
            ]);
        let env = LaunchBounds {
            global: [1, 1],
            ..LaunchBounds::default()
        };
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores.len(), 1);
        let r = stores[0].range;
        // Sound: the concrete trajectory (0 → 60000) stays inside.
        assert!(
            r.bounds.lo <= 0.0 && r.bounds.hi >= 60000.0,
            "unsound bounds {r:?}"
        );
        // And no proof may fire: the trial would have passed.
        assert_eq!(
            verdict_for(&[(r, stores[0].definite)], Precision::Half),
            PrecisionVerdict::Unknown
        );
    }

    #[test]
    fn iteration_independent_let_delta_still_summarizes() {
        // The delta routes through a let but reads only an un-stored
        // buffer: the closed form (not ⊤ widening) must survive.
        let k = kernel("s")
            .buffer("w", Precision::Double, Access::Read)
            .buffer("o", Precision::Double, Access::Write)
            .body(vec![
                let_("acc", flit(0.0)),
                for_(
                    "i",
                    int(0),
                    int(100),
                    vec![
                        let_("c", load("w", var("i"))),
                        assign("acc", var("acc") + var("c")),
                    ],
                ),
                store("o", global_id(0), var("acc")),
            ]);
        let mut env = LaunchBounds {
            global: [1, 1],
            ..LaunchBounds::default()
        };
        env.buffers
            .insert("w".into(), ValueRange::with_mean(0.0, 2.0, 1.0));
        let stores = analyze_kernel(&k, &env);
        let r = stores[0].range;
        assert!((r.bounds.hi - 200.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.bounds.lo, 0.0);
        assert_eq!(r.mean, Some(100.0));
    }

    #[test]
    fn negatively_correlated_product_drops_its_mean() {
        // x·(c−x): E[X]·E[c−X] over-states |E[X(c−X)]| by Var(X), so
        // keeping the mean would let a "proof" fire on data whose true
        // mean is smaller. The interval stays; the mean must not.
        let k = kernel("p")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("o", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_("x", load("a", var("i"))),
                store("o", var("i"), var("x") * (flit(100.0) - var("x"))),
            ]);
        let mut env = LaunchBounds {
            global: [4, 1],
            ..LaunchBounds::default()
        };
        env.buffers
            .insert("a".into(), ValueRange::with_mean(0.0, 100.0, 50.0));
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores[0].range.mean, None, "{:?}", stores[0].range);
        assert_eq!(stores[0].range.bounds, Interval::new(0.0, 10000.0));
    }

    #[test]
    fn same_buffer_raw_draws_keep_the_product_mean() {
        // The SYRK shape: two raw loads of one pristine buffer are the
        // same element (a square — the estimate under-states) or
        // independent draws (exact). The mean survives.
        let k = kernel("syrkish")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("o", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_("j", global_id(1)),
                store("o", var("i"), load("a", var("i")) * load("a", var("j"))),
            ]);
        let mut env = LaunchBounds {
            global: [4, 4],
            ..LaunchBounds::default()
        };
        env.buffers
            .insert("a".into(), ValueRange::with_mean(0.0, 100.0, 50.0));
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores[0].range.mean, Some(2500.0));
    }

    #[test]
    fn derived_buffer_products_drop_the_mean() {
        // o = c − a makes o's elements anti-correlated with a's; a
        // later a·o product must not multiply means even though the
        // factors load from different buffers.
        let k = kernel("d")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("o", Precision::Double, Access::ReadWrite)
            .buffer("p", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("o", var("i"), flit(100.0) - load("a", var("i"))),
                store("p", var("i"), load("a", var("i")) * load("o", var("i"))),
            ]);
        let mut env = LaunchBounds {
            global: [4, 1],
            ..LaunchBounds::default()
        };
        env.buffers
            .insert("a".into(), ValueRange::with_mean(0.0, 100.0, 50.0));
        // Seed o to the very distribution the first store produces, so
        // the hull preserves the mean and only provenance can (and
        // must) kill the product's.
        env.buffers
            .insert("o".into(), ValueRange::with_mean(0.0, 100.0, 50.0));
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores.len(), 2);
        assert_eq!(stores[0].range.mean, Some(50.0), "{:?}", stores[0].range);
        assert_eq!(stores[1].range.mean, None, "{:?}", stores[1].range);
    }

    #[test]
    fn unknown_trip_count_widens_to_top() {
        let k = kernel("w")
            .buffer("o", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("acc", flit(0.0)),
                for_(
                    "i",
                    int(0),
                    var("n"),
                    vec![assign("acc", var("acc") + flit(1.0))],
                ),
                store("o", global_id(0), var("acc")),
            ]);
        // `n` not recorded → trip count unknown → acc widens to ⊤.
        let env = LaunchBounds {
            global: [4, 1],
            ..LaunchBounds::default()
        };
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores[0].range.bounds, Interval::TOP);
        assert_eq!(
            verdict_for(&[(stores[0].range, true)], Precision::Half),
            PrecisionVerdict::Unknown
        );
    }

    #[test]
    fn may_stores_cannot_prove_unsafety() {
        // A store under an undecidable condition is not definite, so
        // even an enormous mean must not prune.
        let k = kernel("m")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("o", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                if_(
                    gt(load("x", var("i")), flit(0.5)),
                    vec![store("o", var("i"), flit(1.0e9))],
                ),
            ]);
        let mut env = LaunchBounds {
            global: [4, 1],
            ..LaunchBounds::default()
        };
        env.buffers
            .insert("x".into(), ValueRange::with_mean(0.0, 1.0, 0.5));
        env.buffers.insert("o".into(), ValueRange::exact(0.0));
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores.len(), 1);
        assert!(!stores[0].definite);
        assert_eq!(
            verdict_for(&[(stores[0].range, stores[0].definite)], Precision::Half),
            PrecisionVerdict::Unknown
        );
    }

    #[test]
    fn interval_proof_fires_without_a_mean() {
        let r = ValueRange::bounded(70000.0, 90000.0);
        assert!(matches!(
            verdict_for(&[(r, true)], Precision::Half),
            PrecisionVerdict::ProvenUnsafe(UnsafeReason::OverflowToInf { .. })
        ));
    }

    #[test]
    fn subnormal_flush_is_proven() {
        let r = ValueRange::bounded(1.0e-9, 1.0e-8);
        assert!(matches!(
            verdict_for(&[(r, true)], Precision::Half),
            PrecisionVerdict::ProvenUnsafe(UnsafeReason::SubnormalFlush { .. })
        ));
        // The same range is representable (subnormal) in single.
        assert_eq!(
            verdict_for(&[(r, true)], Precision::Single),
            PrecisionVerdict::SafeDemote
        );
    }

    #[test]
    fn empty_contributions_are_unknown() {
        assert_eq!(verdict_for(&[], Precision::Half), PrecisionVerdict::Unknown);
    }

    #[test]
    fn dangling_elem_of_is_top_not_a_panic() {
        // A malformed kernel that skipped the type checker: the cast's
        // target names no buffer, so its value is unconstrained.
        let k = kernel("loose")
            .buffer("o", Precision::Half, Access::Write)
            .body(vec![store("o", int(0), cast_elem_of("ghost", flit(1.0)))]);
        let env = LaunchBounds {
            global: [1, 1],
            ..LaunchBounds::default()
        };
        let stores = analyze_kernel(&k, &env);
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].range, ValueRange::TOP);
    }

    #[test]
    fn provably_false_guard_skips_its_branch() {
        let k = kernel("g")
            .buffer("o", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_(
                    gt(var("i"), var("n")),
                    vec![store("o", var("i"), flit(1.0e9))],
                ),
            ]);
        let mut env = LaunchBounds {
            global: [4, 1],
            ..LaunchBounds::default()
        };
        env.scalars.insert("n".into(), ScalarBound::Int(100));
        // i ∈ [0,3] is never > 100: the store is unreachable.
        assert!(analyze_kernel(&k, &env).is_empty());
    }
}
