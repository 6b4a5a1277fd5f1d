//! Operation counts — the currency of the GPU cost model.
//!
//! Both execution engines produce [`OpCounts`]: the reference interpreter
//! ([`crate::interp`]) counts every operation as it runs, the bytecode VM
//! ([`crate::vm`]) adds per-region deltas its compiler tallied. Both
//! classify operations through the `count_*` methods here. The simulator
//! turns the counts into virtual kernel time using per-architecture
//! throughput tables.

use crate::types::Precision;
use crate::value::{FloatBinOp, UnaryFn};
use core::ops::{Add, AddAssign, Mul};

/// Per-precision operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrecCounts {
    /// Additions and subtractions (and min/max).
    pub add_sub: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Special functions: sqrt, exp, log.
    pub special: u64,
    /// Comparisons evaluated at this precision.
    pub cmp: u64,
    /// Element loads from global memory.
    pub loads: u64,
    /// Element stores to global memory.
    pub stores: u64,
}

impl PrecCounts {
    /// Total arithmetic operations (excluding memory traffic).
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.add_sub + self.mul + self.div + self.special + self.cmp
    }
}

impl AddAssign for PrecCounts {
    fn add_assign(&mut self, rhs: PrecCounts) {
        self.add_sub += rhs.add_sub;
        self.mul += rhs.mul;
        self.div += rhs.div;
        self.special += rhs.special;
        self.cmp += rhs.cmp;
        self.loads += rhs.loads;
        self.stores += rhs.stores;
    }
}

impl Mul<u64> for PrecCounts {
    type Output = PrecCounts;
    fn mul(self, k: u64) -> PrecCounts {
        PrecCounts {
            add_sub: self.add_sub * k,
            mul: self.mul * k,
            div: self.div * k,
            special: self.special * k,
            cmp: self.cmp * k,
            loads: self.loads * k,
            stores: self.stores * k,
        }
    }
}

/// Complete operation counts for one kernel launch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Float operations, indexed by [`Precision`] (`half`, `single`,
    /// `double` in order).
    pub float: [PrecCounts; 3],
    /// Integer ALU operations (index arithmetic, loop bookkeeping).
    pub int_ops: u64,
    /// Precision-changing conversions (explicit casts, implicit store
    /// conversions, int↔float conversions).
    pub converts: u64,
}

impl OpCounts {
    /// An empty counter set.
    #[must_use]
    pub fn new() -> OpCounts {
        OpCounts::default()
    }

    /// The counters for one precision.
    #[must_use]
    pub fn at(&self, p: Precision) -> &PrecCounts {
        &self.float[p as usize]
    }

    /// Mutable counters for one precision.
    pub fn at_mut(&mut self, p: Precision) -> &mut PrecCounts {
        &mut self.float[p as usize]
    }

    /// Total float operations across all precisions.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.float.iter().map(PrecCounts::flops).sum()
    }

    /// Tallies one binary arithmetic operation computing at precision `p`
    /// (`None`: on integers). `min`/`max` count as additions.
    pub(crate) fn count_bin(&mut self, op: FloatBinOp, p: Option<Precision>) {
        let Some(p) = p else {
            self.int_ops += 1;
            return;
        };
        let slot = self.at_mut(p);
        match op {
            FloatBinOp::Add | FloatBinOp::Sub | FloatBinOp::Min | FloatBinOp::Max => {
                slot.add_sub += 1;
            }
            FloatBinOp::Mul => slot.mul += 1,
            FloatBinOp::Div => slot.div += 1,
        }
    }

    /// Tallies one unary function applied at precision `p` (`None`: to an
    /// integer). Negation and `fabs` count as additions, the rest as
    /// special functions.
    pub(crate) fn count_unary(&mut self, op: UnaryFn, p: Option<Precision>) {
        let Some(p) = p else {
            self.int_ops += 1;
            return;
        };
        let slot = self.at_mut(p);
        match op {
            UnaryFn::Neg | UnaryFn::Fabs => slot.add_sub += 1,
            UnaryFn::Sqrt | UnaryFn::Exp | UnaryFn::Log => slot.special += 1,
        }
    }

    /// Tallies one comparison at precision `p` (`None`: of integers).
    pub(crate) fn count_cmp(&mut self, p: Option<Precision>) {
        match p {
            Some(p) => self.at_mut(p).cmp += 1,
            None => self.int_ops += 1,
        }
    }

    /// Scales all counters by `k` (e.g. one work-item's counts × items).
    #[must_use]
    pub fn scaled(self, k: u64) -> OpCounts {
        OpCounts {
            float: [self.float[0] * k, self.float[1] * k, self.float[2] * k],
            int_ops: self.int_ops * k,
            converts: self.converts * k,
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        for i in 0..3 {
            self.float[i] += rhs.float[i];
        }
        self.int_ops += rhs.int_ops;
        self.converts += rhs.converts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_multiplies_every_counter() {
        let mut c = OpCounts::new();
        c.at_mut(Precision::Single).mul = 2;
        c.int_ops = 5;
        c.converts = 1;
        let s = c.scaled(3);
        assert_eq!(s.at(Precision::Single).mul, 6);
        assert_eq!(s.int_ops, 15);
        assert_eq!(s.converts, 3);
    }

    #[test]
    fn addition_is_componentwise() {
        let mut a = OpCounts::new();
        a.at_mut(Precision::Half).add_sub = 1;
        let mut b = OpCounts::new();
        b.at_mut(Precision::Half).add_sub = 2;
        b.at_mut(Precision::Double).div = 4;
        let c = a + b;
        assert_eq!(c.at(Precision::Half).add_sub, 3);
        assert_eq!(c.at(Precision::Double).div, 4);
        assert_eq!(c.total_flops(), 7);
    }

    #[test]
    fn flops_sums_arithmetic_only() {
        let c = PrecCounts {
            add_sub: 1,
            mul: 2,
            div: 3,
            special: 4,
            cmp: 5,
            loads: 100,
            stores: 100,
        };
        assert_eq!(c.flops(), 15);
    }
}
