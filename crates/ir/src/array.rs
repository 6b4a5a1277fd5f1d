//! Typed float arrays — the data that lives inside OpenCL memory objects.

use crate::types::Precision;
use crate::value::Scalar;
use core::fmt;
use prescaler_fp16::F16;

/// A homogeneous float array at one of the three precisions.
///
/// This is the payload of both host arrays and device memory objects in the
/// reproduction. Precision scaling converts a `FloatVec` between variants;
/// every conversion rounds element-wise exactly once, so the numeric effect
/// of host-side, device-side and transient conversion chains is faithful.
///
/// ```
/// use prescaler_ir::{FloatVec, Precision};
///
/// let xs = FloatVec::from_f64_slice(&[1.0, 2.5, 3.25], Precision::Double);
/// let halves = xs.converted(Precision::Half);
/// assert_eq!(halves.precision(), Precision::Half);
/// assert_eq!(halves.get(1), 2.5);
/// ```
#[derive(Clone, PartialEq)]
pub enum FloatVec {
    /// Binary16 storage.
    F16(Vec<F16>),
    /// Binary32 storage.
    F32(Vec<f32>),
    /// Binary64 storage.
    F64(Vec<f64>),
}

impl FloatVec {
    /// An array of `len` zeros at precision `p`.
    #[must_use]
    pub fn zeros(len: usize, p: Precision) -> FloatVec {
        match p {
            Precision::Half => FloatVec::F16(vec![F16::ZERO; len]),
            Precision::Single => FloatVec::F32(vec![0.0; len]),
            Precision::Double => FloatVec::F64(vec![0.0; len]),
        }
    }

    /// Builds an array at precision `p` by rounding each `f64` once.
    #[must_use]
    pub fn from_f64_slice(values: &[f64], p: Precision) -> FloatVec {
        match p {
            Precision::Half => FloatVec::F16(values.iter().map(|&v| F16::from_f64(v)).collect()),
            Precision::Single => FloatVec::F32(values.iter().map(|&v| v as f32).collect()),
            Precision::Double => FloatVec::F64(values.to_vec()),
        }
    }

    /// The storage precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        match self {
            FloatVec::F16(_) => Precision::Half,
            FloatVec::F32(_) => Precision::Single,
            FloatVec::F64(_) => Precision::Double,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FloatVec::F16(v) => v.len(),
            FloatVec::F32(v) => v.len(),
            FloatVec::F64(v) => v.len(),
        }
    }

    /// `true` when the array holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total storage size in bytes at the current precision.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.len() * self.precision().size_bytes()
    }

    /// Reads element `i`, widened to `f64` (exact).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize) -> f64 {
        match self {
            FloatVec::F16(v) => v[i].to_f64(),
            FloatVec::F32(v) => f64::from(v[i]),
            FloatVec::F64(v) => v[i],
        }
    }

    /// Reads element `i` as a [`Scalar`] of the storage precision.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn get_scalar(&self, i: usize) -> Scalar {
        match self {
            FloatVec::F16(v) => Scalar::F16(v[i]),
            FloatVec::F32(v) => Scalar::F32(v[i]),
            FloatVec::F64(v) => Scalar::F64(v[i]),
        }
    }

    /// Writes `value` to element `i`, rounding once to the storage
    /// precision.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: f64) {
        match self {
            FloatVec::F16(v) => v[i] = F16::from_f64(value),
            FloatVec::F32(v) => v[i] = value as f32,
            FloatVec::F64(v) => v[i] = value,
        }
    }

    /// Returns a copy converted to precision `p` (identity if equal).
    ///
    /// Each element is rounded exactly once from its current stored value;
    /// chaining conversions (e.g. double→half→single, the paper's transient
    /// conversion) therefore accumulates real rounding error.
    #[must_use]
    pub fn converted(&self, p: Precision) -> FloatVec {
        // Typed direct loops per (src, dst) pair: same single rounding as
        // `set(i, get(i))` — each narrowing below rounds exactly once —
        // but monomorphic, so the compiler vectorizes them.
        match (self, p) {
            (FloatVec::F16(_), Precision::Half)
            | (FloatVec::F32(_), Precision::Single)
            | (FloatVec::F64(_), Precision::Double) => self.clone(),
            (FloatVec::F16(v), Precision::Single) => {
                FloatVec::F32(v.iter().map(|x| x.to_f64() as f32).collect())
            }
            (FloatVec::F16(v), Precision::Double) => {
                FloatVec::F64(v.iter().map(|x| x.to_f64()).collect())
            }
            (FloatVec::F32(v), Precision::Half) => {
                FloatVec::F16(v.iter().map(|&x| F16::from_f64(f64::from(x))).collect())
            }
            (FloatVec::F32(v), Precision::Double) => {
                FloatVec::F64(v.iter().map(|&x| f64::from(x)).collect())
            }
            (FloatVec::F64(v), Precision::Half) => {
                FloatVec::F16(v.iter().map(|&x| F16::from_f64(x)).collect())
            }
            (FloatVec::F64(v), Precision::Single) => {
                FloatVec::F32(v.iter().map(|&x| x as f32).collect())
            }
        }
    }

    /// Widens to a plain `f64` vector (exact).
    #[must_use]
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Iterator over elements widened to `f64`.
    pub fn iter_f64(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Counts elements that became non-finite at this precision — the
    /// signature of half-precision range overflow (paper §3.2.3).
    #[must_use]
    pub fn count_non_finite(&self) -> usize {
        self.iter_f64().filter(|v| !v.is_finite()).count()
    }
}

impl fmt::Debug for FloatVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FloatVec<{}>[len {}]", self.precision(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_have_requested_precision_and_len() {
        for p in Precision::ALL {
            let v = FloatVec::zeros(5, p);
            assert_eq!(v.precision(), p);
            assert_eq!(v.len(), 5);
            assert_eq!(v.size_bytes(), 5 * p.size_bytes());
            assert!((0..5).all(|i| v.get(i) == 0.0));
        }
        assert!(FloatVec::zeros(0, Precision::Half).is_empty());
    }

    #[test]
    fn set_get_round_trips_at_each_precision() {
        for p in Precision::ALL {
            let mut v = FloatVec::zeros(3, p);
            v.set(1, 1.5); // representable at every precision
            assert_eq!(v.get(1), 1.5);
            assert_eq!(v.get_scalar(1).precision(), Some(p));
        }
    }

    #[test]
    fn storing_rounds_to_storage_precision() {
        let mut v = FloatVec::zeros(1, Precision::Half);
        v.set(0, 2049.0);
        assert_eq!(v.get(0), 2048.0, "2049 is not representable in binary16");
    }

    #[test]
    fn conversion_is_elementwise_single_rounding() {
        let xs = FloatVec::from_f64_slice(&[1.0, 1.0 + 2f64.powi(-11)], Precision::Double);
        let h = xs.converted(Precision::Half);
        assert_eq!(h.get(0), 1.0);
        assert_eq!(h.get(1), 1.0, "tie rounds to even");
        // Identity conversion clones.
        assert_eq!(xs.converted(Precision::Double), xs);
    }

    #[test]
    fn transient_chain_accumulates_error() {
        let x = 0.1f64;
        let direct = FloatVec::from_f64_slice(&[x], Precision::Single);
        let transient = FloatVec::from_f64_slice(&[x], Precision::Double)
            .converted(Precision::Half)
            .converted(Precision::Single);
        // Through half, 0.1 keeps only 11 significand bits.
        assert_ne!(direct.get(0), transient.get(0));
        assert!((transient.get(0) - x).abs() > (direct.get(0) - x).abs());
    }

    #[test]
    fn overflow_to_infinity_is_detected() {
        let xs = FloatVec::from_f64_slice(&[1.0, 1e6, -1e6], Precision::Half);
        assert_eq!(xs.count_non_finite(), 2);
        let ys = FloatVec::from_f64_slice(&[1.0, 1e6], Precision::Single);
        assert_eq!(ys.count_non_finite(), 0);
    }

    #[test]
    fn debug_formatting_is_compact() {
        let v = FloatVec::zeros(4, Precision::Single);
        assert_eq!(format!("{v:?}"), "FloatVec<float>[len 4]");
    }
}
