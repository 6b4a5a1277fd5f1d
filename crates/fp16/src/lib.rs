//! IEEE 754 binary16 ("half precision") implemented in software.
//!
//! The PreScaler paper relies on hardware half-precision support on recent
//! GPUs and on an open-source half-precision math library on the host side
//! (reference \[32\] in the paper). This crate is the reproduction's
//! equivalent of both: a bit-exact binary16 type with correctly rounded
//! conversions and arithmetic, so that target-output-quality (TOQ) failures
//! caused by the limited range of half precision (paper §3.2.3) happen for
//! exactly the same value ranges as on real hardware.
//!
//! # Design
//!
//! * [`F16`] is a `#[repr(transparent)]` newtype over the `u16` bit pattern.
//! * Conversions to/from `f32` and `f64` are implemented directly on bit
//!   patterns with round-to-nearest-even, including subnormals, infinities
//!   and NaN payload preservation (quietened).
//! * Arithmetic widens to `f32`, computes, and rounds back once. Because
//!   `f32` carries 24 significand bits ≥ 2·11+2, this double rounding is
//!   innocuous for `+`, `-`, `*`, `/` and `sqrt` (Figueroa's theorem), so
//!   every operation is correctly rounded binary16 arithmetic.
//!
//! # Examples
//!
//! ```
//! use prescaler_fp16::F16;
//!
//! let x = F16::from_f32(1.5);
//! let y = F16::from_f32(2.25);
//! assert_eq!((x + y).to_f32(), 3.75);
//!
//! // Range overflow: 70000 is not representable in binary16.
//! assert!(F16::from_f32(70000.0).is_infinite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod convert;

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

/// An IEEE 754 binary16 floating-point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 fraction bits.
///
/// ```
/// use prescaler_fp16::F16;
/// assert_eq!(F16::ONE.to_bits(), 0x3C00);
/// assert_eq!(F16::from_bits(0xC000).to_f64(), -2.0);
/// ```
#[derive(Clone, Copy, Default)]
#[repr(transparent)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: the difference between `1.0` and the next larger
    /// representable value, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);
    /// Number of significand digits, including the implicit leading bit.
    pub const MANTISSA_DIGITS: u32 = 11;
    /// Maximum binary exponent of a finite value.
    pub const MAX_EXP: i32 = 16;
    /// Minimum binary exponent of a normal value.
    pub const MIN_EXP: i32 = -13;

    /// Creates a value from its raw bit pattern.
    #[inline]
    #[must_use]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values of magnitude above [`F16::MAX`] round to infinity; tiny values
    /// round to (possibly signed) zero or subnormals. NaN inputs produce a
    /// quiet NaN that preserves the top payload bits.
    #[inline]
    #[must_use]
    pub fn from_f32(x: f32) -> F16 {
        F16(convert::f32_to_f16_bits(x.to_bits()))
    }

    /// Converts an `f64` to binary16 with a single round-to-nearest-even.
    ///
    /// This is a direct conversion, not `from_f32(x as f32)`: going through
    /// `f32` would round twice, which is observably wrong for some inputs.
    #[inline]
    #[must_use]
    pub fn from_f64(x: f64) -> F16 {
        F16(convert::f64_to_f16_bits(x.to_bits()))
    }

    /// Rounds an `f64` to the nearest binary16 value (ties to even) and
    /// returns it as `f64`: bit for bit `F16::from_f64(x).to_f64()`,
    /// without the detour through the bit pattern.
    ///
    /// Below the overflow threshold 65520 the FPU does the rounding. With
    /// `e` the binary exponent of `|x|` clamped at binary16's smallest
    /// normal exponent −14, the constant `c = 1.5·2^(e+42)` has a unit in
    /// the last place of `2^(e−10)`, binary16's spacing at `|x|` (and
    /// `2^−24` across the subnormal range). So `|x| + c` rounds to nearest
    /// even at exactly that spacing, and subtracting `c` back is exact.
    /// Larger magnitudes overflow to a signed infinity; NaN takes the
    /// bit-level path, so its payload narrows exactly as in `from_f64`.
    ///
    /// ```
    /// use prescaler_fp16::F16;
    /// assert_eq!(F16::round_f64(2049.0), 2048.0); // tie to even
    /// assert_eq!(F16::round_f64(65520.0), f64::INFINITY);
    /// ```
    #[inline]
    #[must_use]
    pub fn round_f64(x: f64) -> f64 {
        let a = x.abs();
        if a < 65520.0 {
            let biased_exp = (a.to_bits() >> 52).max(1023 - 14);
            let c = f64::from_bits(((biased_exp + 42) << 52) | (1 << 51));
            ((a + c) - c).copysign(x)
        } else if a.is_nan() {
            F16::from_f64(x).to_f64()
        } else {
            f64::INFINITY.copysign(x)
        }
    }

    /// Converts to `f32`. This conversion is exact.
    #[inline]
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(convert::f16_bits_to_f32(self.0))
    }

    /// Converts to `f64`. This conversion is exact.
    #[inline]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        // f16 -> f32 is exact, f32 -> f64 is exact.
        f64::from(self.to_f32())
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    #[must_use]
    pub const fn is_nan(self) -> bool {
        (self.0 & 0x7FFF) > 0x7C00
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    #[must_use]
    pub const fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    #[must_use]
    pub const fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` for subnormal numbers (not zero, infinity, NaN or
    /// normal).
    #[inline]
    #[must_use]
    pub const fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` for normal numbers (not zero, subnormal, infinite or
    /// NaN).
    #[inline]
    #[must_use]
    pub const fn is_normal(self) -> bool {
        let exp = self.0 & 0x7C00;
        exp != 0 && exp != 0x7C00
    }

    /// Returns `true` if this is positive or negative zero.
    #[inline]
    #[must_use]
    pub const fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// Returns `true` if the sign bit is set (including `-0.0` and NaN with
    /// a negative sign).
    #[inline]
    #[must_use]
    pub const fn is_sign_negative(self) -> bool {
        (self.0 & 0x8000) != 0
    }

    /// Returns `true` if the sign bit is clear.
    #[inline]
    #[must_use]
    pub const fn is_sign_positive(self) -> bool {
        (self.0 & 0x8000) == 0
    }

    /// Returns the absolute value.
    #[inline]
    #[must_use]
    pub const fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }

    /// Returns the square root, correctly rounded.
    #[inline]
    #[must_use]
    pub fn sqrt(self) -> F16 {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// Returns the larger of two values, propagating the non-NaN operand
    /// like `f32::max`.
    #[inline]
    #[must_use]
    pub fn max(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// Returns the smaller of two values, propagating the non-NaN operand
    /// like `f32::min`.
    #[inline]
    #[must_use]
    pub fn min(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// Total ordering on bit patterns as defined by IEEE 754-2008
    /// `totalOrder`: `-NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN`.
    #[must_use]
    pub fn total_cmp(self, other: F16) -> Ordering {
        let a = Self::total_order_key(self.0);
        let b = Self::total_order_key(other.0);
        a.cmp(&b)
    }

    fn total_order_key(bits: u16) -> i32 {
        let magnitude = i32::from(bits & 0x7FFF);
        if bits & 0x8000 != 0 {
            // Negative values order by descending magnitude, and -0 sorts
            // strictly below +0.
            -magnitude - 1
        } else {
            magnitude
        }
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        // +0 == -0.
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> f64 {
        x.to_f64()
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> F16 {
        F16::from_f32(x)
    }
}

impl From<f64> for F16 {
    fn from(x: f64) -> F16 {
        F16::from_f64(x)
    }
}

/// Error returned when parsing an [`F16`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseF16Error(());

impl fmt::Display for ParseF16Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid half-precision float literal")
    }
}

impl std::error::Error for ParseF16Error {}

impl FromStr for F16 {
    type Err = ParseF16Error;

    /// Parses via `f64` then rounds once to binary16.
    fn from_str(s: &str) -> Result<F16, ParseF16Error> {
        s.parse::<f64>()
            .map(F16::from_f64)
            .map_err(|_| ParseF16Error(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_values() {
        assert_eq!(F16::ZERO.to_f64(), 0.0);
        assert_eq!(F16::ONE.to_f64(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f64(), -1.0);
        assert_eq!(F16::MAX.to_f64(), 65504.0);
        assert_eq!(F16::MIN.to_f64(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f64(), 6.103515625e-05);
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f64(), 5.960464477539063e-08);
        assert_eq!(F16::EPSILON.to_f64(), 0.0009765625);
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn classification() {
        assert!(F16::ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert!(F16::ONE.is_normal());
        assert!(F16::MIN_POSITIVE_SUBNORMAL.is_subnormal());
        assert!(!F16::MIN_POSITIVE.is_subnormal());
        assert!(F16::ONE.is_finite());
        assert!(!F16::INFINITY.is_finite());
        assert!(!F16::NAN.is_finite());
        assert!(!F16::NAN.is_infinite());
    }

    #[test]
    fn zero_signs_compare_equal() {
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert_ne!(F16::ZERO.to_bits(), F16::NEG_ZERO.to_bits());
    }

    #[test]
    fn nan_is_not_equal_to_itself() {
        assert_ne!(F16::NAN, F16::NAN);
        assert_eq!(F16::NAN.partial_cmp(&F16::ONE), None);
    }

    #[test]
    fn total_cmp_orders_special_values() {
        let order = [
            F16::NAN.neg_nan_for_test(),
            F16::NEG_INFINITY,
            F16::MIN,
            F16::NEG_ONE,
            F16::NEG_ZERO,
            F16::ZERO,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
            F16::NAN,
        ];
        for w in order.windows(2) {
            assert_eq!(
                w[0].total_cmp(w[1]),
                Ordering::Less,
                "{:?} < {:?}",
                w[0],
                w[1]
            );
        }
    }

    impl F16 {
        fn neg_nan_for_test(self) -> F16 {
            F16::from_bits(self.to_bits() | 0x8000)
        }
    }

    #[test]
    fn parse_round_trips_simple_literals() {
        assert_eq!("1.5".parse::<F16>().unwrap().to_f64(), 1.5);
        assert_eq!("-0.25".parse::<F16>().unwrap().to_f64(), -0.25);
        assert!("wat".parse::<F16>().is_err());
    }

    #[test]
    fn display_matches_f32_formatting() {
        assert_eq!(F16::from_f32(1.5).to_string(), "1.5");
        assert_eq!(format!("{:?}", F16::from_f32(2.0)), "F16(2)");
    }

    #[test]
    fn abs_clears_the_sign() {
        assert_eq!(F16::NEG_ONE.abs(), F16::ONE);
        assert_eq!(F16::NEG_ZERO.abs().to_bits(), F16::ZERO.to_bits());
    }

    #[test]
    fn min_max_behave_like_f32() {
        let a = F16::from_f32(1.0);
        let b = F16::from_f32(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(F16::NAN.max(a), a);
        assert_eq!(F16::NAN.min(a), a);
    }

    #[test]
    fn sqrt_is_correct_for_perfect_squares() {
        assert_eq!(F16::from_f32(9.0).sqrt().to_f32(), 3.0);
        assert!(F16::from_f32(-1.0).sqrt().is_nan());
    }
}
