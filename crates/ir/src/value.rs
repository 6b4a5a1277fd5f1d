//! Runtime scalar values with precision-faithful arithmetic.

use crate::types::{Precision, ScalarType};
use core::fmt;
use prescaler_fp16::F16;

/// A runtime scalar value in the interpreter.
///
/// Float arithmetic on mixed precisions promotes to the wider operand and
/// computes *in that precision*: half×half is true binary16 multiplication
/// (via [`prescaler_fp16`]), not f64 math rounded later. This is what makes
/// the reproduction's accuracy losses real rather than modelled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar {
    /// Binary16 float.
    F16(F16),
    /// Binary32 float.
    F32(f32),
    /// Binary64 float.
    F64(f64),
    /// 64-bit signed integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
}

impl Scalar {
    /// The float value `v` at precision `p` (rounding once).
    #[must_use]
    pub fn float(v: f64, p: Precision) -> Scalar {
        match p {
            Precision::Half => Scalar::F16(F16::from_f64(v)),
            Precision::Single => Scalar::F32(v as f32),
            Precision::Double => Scalar::F64(v),
        }
    }

    /// The type of this value.
    #[must_use]
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Scalar::F16(_) => ScalarType::Float(Precision::Half),
            Scalar::F32(_) => ScalarType::Float(Precision::Single),
            Scalar::F64(_) => ScalarType::Float(Precision::Double),
            Scalar::Int(_) => ScalarType::Int,
            Scalar::Bool(_) => ScalarType::Bool,
        }
    }

    /// Widens any numeric value to `f64` (exact for every float precision).
    ///
    /// # Panics
    ///
    /// Panics on `Bool`.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match self {
            Scalar::F16(x) => x.to_f64(),
            Scalar::F32(x) => f64::from(*x),
            Scalar::F64(x) => *x,
            Scalar::Int(x) => *x as f64,
            Scalar::Bool(_) => panic!("boolean used as a number"),
        }
    }

    /// Integer view.
    ///
    /// # Panics
    ///
    /// Panics unless the value is `Int`.
    #[must_use]
    pub fn as_int(&self) -> i64 {
        match self {
            Scalar::Int(x) => *x,
            other => panic!("expected an integer, found {other:?}"),
        }
    }

    /// Numeric view, or `None` for booleans — the non-panicking twin of
    /// [`Scalar::as_f64`] for callers that must degrade on malformed
    /// kernels instead of aborting.
    #[must_use]
    pub fn try_f64(&self) -> Option<f64> {
        match self {
            Scalar::Bool(_) => None,
            other => Some(other.as_f64()),
        }
    }

    /// Integer view, or `None` unless the value is `Int`.
    #[must_use]
    pub fn try_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// Boolean view, or `None` unless the value is `Bool`.
    #[must_use]
    pub fn try_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(x) => Some(*x),
            _ => None,
        }
    }

    /// Converts to the given float precision with a single rounding, as an
    /// explicit `convert_<type>()` OpenCL call or C cast would.
    #[must_use]
    pub fn cast_float(&self, p: Precision) -> Scalar {
        Scalar::float(self.as_f64(), p)
    }

    /// The precision this value computes in, if it is a float.
    #[must_use]
    pub fn precision(&self) -> Option<Precision> {
        self.scalar_type().precision()
    }

    /// Applies a binary float operation at the promoted precision of the
    /// operands. Integer operands are promoted to the other side's float
    /// precision (or compute exactly as integers when both are ints).
    #[must_use]
    pub fn binop(op: FloatBinOp, a: Scalar, b: Scalar) -> Scalar {
        match (a, b) {
            (Scalar::Int(x), Scalar::Int(y)) => Scalar::Int(op.apply_int(x, y)),
            _ => {
                // Both operands boolean is a type error the checker
                // catches; default to double for robustness.
                let p =
                    Precision::promote(a.precision(), b.precision()).unwrap_or(Precision::Double);
                match p {
                    Precision::Half => {
                        let x = F16::from_f64(a.as_f64());
                        let y = F16::from_f64(b.as_f64());
                        Scalar::F16(op.apply_f16(x, y))
                    }
                    Precision::Single => {
                        let x = a.as_f64() as f32;
                        let y = b.as_f64() as f32;
                        Scalar::F32(op.apply_f32(x, y))
                    }
                    Precision::Double => Scalar::F64(op.apply_f64(a.as_f64(), b.as_f64())),
                }
            }
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::F16(x) => write!(f, "{x}"),
            Scalar::F32(x) => write!(f, "{x}"),
            Scalar::F64(x) => write!(f, "{x}"),
            Scalar::Int(x) => write!(f, "{x}"),
            Scalar::Bool(x) => write!(f, "{x}"),
        }
    }
}

/// Arithmetic binary operators on floats (and ints, for index math).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FloatBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum (IEEE `minNum` semantics on floats).
    Min,
    /// Maximum (IEEE `maxNum` semantics on floats).
    Max,
}

impl FloatBinOp {
    /// The operation in binary64.
    #[inline]
    #[must_use]
    pub(crate) fn apply_f64(self, x: f64, y: f64) -> f64 {
        match self {
            FloatBinOp::Add => x + y,
            FloatBinOp::Sub => x - y,
            FloatBinOp::Mul => x * y,
            FloatBinOp::Div => x / y,
            FloatBinOp::Min => x.min(y),
            FloatBinOp::Max => x.max(y),
        }
    }

    /// The operation in binary32.
    #[inline]
    #[must_use]
    pub(crate) fn apply_f32(self, x: f32, y: f32) -> f32 {
        match self {
            FloatBinOp::Add => x + y,
            FloatBinOp::Sub => x - y,
            FloatBinOp::Mul => x * y,
            FloatBinOp::Div => x / y,
            FloatBinOp::Min => x.min(y),
            FloatBinOp::Max => x.max(y),
        }
    }

    /// The operation in binary16. With both operands NaN the result is the
    /// left one, quieted: the widened `f32` arithmetic would return
    /// whichever operand the compiler happened to order first, and it may
    /// commute them differently in each inlined copy of this rule.
    #[inline]
    #[must_use]
    pub(crate) fn apply_f16(self, x: F16, y: F16) -> F16 {
        if x.is_nan() && y.is_nan() {
            return x + F16::ZERO;
        }
        match self {
            FloatBinOp::Add => x + y,
            FloatBinOp::Sub => x - y,
            FloatBinOp::Mul => x * y,
            FloatBinOp::Div => x / y,
            FloatBinOp::Min => x.min(y),
            FloatBinOp::Max => x.max(y),
        }
    }

    /// The operation on integers: wrapping `+ - *`, truncating `/` with
    /// division by zero defined as 0, exact `min`/`max`.
    #[inline]
    #[must_use]
    pub(crate) fn apply_int(self, x: i64, y: i64) -> i64 {
        match self {
            FloatBinOp::Add => x.wrapping_add(y),
            FloatBinOp::Sub => x.wrapping_sub(y),
            FloatBinOp::Mul => x.wrapping_mul(y),
            FloatBinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            FloatBinOp::Min => x.min(y),
            FloatBinOp::Max => x.max(y),
        }
    }

    /// The C spelling of the operator (`min`/`max` print as calls).
    #[must_use]
    pub const fn c_symbol(self) -> &'static str {
        match self {
            FloatBinOp::Add => "+",
            FloatBinOp::Sub => "-",
            FloatBinOp::Mul => "*",
            FloatBinOp::Div => "/",
            FloatBinOp::Min => "min",
            FloatBinOp::Max => "max",
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Whether `a op b` holds: exact on integers, IEEE on floats (a NaN
    /// operand makes every comparison but `!=` false).
    #[inline]
    #[must_use]
    pub(crate) fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// The C spelling of the operator.
    #[must_use]
    pub const fn c_symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// Unary built-in math functions available to kernels.
///
/// On `Half` operands these compute by widening to `f32` and rounding back,
/// matching how GPU half-precision math libraries implement them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryFn {
    /// Negation.
    Neg,
    /// Absolute value.
    Fabs,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
}

impl UnaryFn {
    /// Applies the function at the operand's precision.
    #[must_use]
    pub fn apply(self, x: Scalar) -> Scalar {
        match x {
            Scalar::Int(v) => match self {
                UnaryFn::Neg => Scalar::Int(v.wrapping_neg()),
                UnaryFn::Fabs => Scalar::Int(v.wrapping_abs()),
                _ => Scalar::F64(self.apply_f64(v as f64)),
            },
            Scalar::F16(v) => Scalar::F16(match self {
                UnaryFn::Neg => -v,
                UnaryFn::Fabs => v.abs(),
                UnaryFn::Sqrt => v.sqrt(),
                UnaryFn::Exp => F16::from_f32(v.to_f32().exp()),
                UnaryFn::Log => F16::from_f32(v.to_f32().ln()),
            }),
            Scalar::F32(v) => Scalar::F32(match self {
                UnaryFn::Neg => -v,
                UnaryFn::Fabs => v.abs(),
                UnaryFn::Sqrt => v.sqrt(),
                UnaryFn::Exp => v.exp(),
                UnaryFn::Log => v.ln(),
            }),
            Scalar::F64(v) => Scalar::F64(self.apply_f64(v)),
            Scalar::Bool(_) => panic!("boolean passed to a math function"),
        }
    }

    fn apply_f64(self, v: f64) -> f64 {
        match self {
            UnaryFn::Neg => -v,
            UnaryFn::Fabs => v.abs(),
            UnaryFn::Sqrt => v.sqrt(),
            UnaryFn::Exp => v.exp(),
            UnaryFn::Log => v.ln(),
        }
    }

    /// The C spelling of the function.
    #[must_use]
    pub const fn c_name(self) -> &'static str {
        match self {
            UnaryFn::Neg => "-",
            UnaryFn::Fabs => "fabs",
            UnaryFn::Sqrt => "sqrt",
            UnaryFn::Exp => "exp",
            UnaryFn::Log => "log",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_precision_promotes_to_wider() {
        let a = Scalar::F16(F16::from_f32(1.5));
        let b = Scalar::F32(2.5);
        let r = Scalar::binop(FloatBinOp::Add, a, b);
        assert_eq!(r.scalar_type(), ScalarType::Float(Precision::Single));
        assert_eq!(r.as_f64(), 4.0);
    }

    #[test]
    fn half_arithmetic_actually_loses_precision() {
        let a = Scalar::float(2048.0, Precision::Half);
        let b = Scalar::float(1.0, Precision::Half);
        let r = Scalar::binop(FloatBinOp::Add, a, b);
        assert_eq!(r.as_f64(), 2048.0, "binary16 cannot represent 2049");
        let rd = Scalar::binop(
            FloatBinOp::Add,
            Scalar::float(2048.0, Precision::Double),
            Scalar::float(1.0, Precision::Double),
        );
        assert_eq!(rd.as_f64(), 2049.0);
    }

    #[test]
    fn int_arithmetic_is_exact() {
        let r = Scalar::binop(FloatBinOp::Mul, Scalar::Int(1 << 40), Scalar::Int(3));
        assert_eq!(r.as_int(), 3 << 40);
        let d = Scalar::binop(FloatBinOp::Div, Scalar::Int(7), Scalar::Int(2));
        assert_eq!(d.as_int(), 3);
        let z = Scalar::binop(FloatBinOp::Div, Scalar::Int(7), Scalar::Int(0));
        assert_eq!(z.as_int(), 0, "division by zero is defined as 0 in the IR");
    }

    #[test]
    fn int_float_mix_promotes_to_float_side() {
        let r = Scalar::binop(FloatBinOp::Div, Scalar::F32(1.0), Scalar::Int(3));
        assert_eq!(r.scalar_type(), ScalarType::Float(Precision::Single));
        assert_eq!(r.as_f64(), f64::from(1.0f32 / 3.0f32));
    }

    #[test]
    fn comparisons_hold_exactly() {
        assert!(CmpOp::Lt.holds(1, 2));
        assert!(CmpOp::Ge.holds(2.0, 2.0));
        assert!(!CmpOp::Ne.holds(1.0, f64::from(1.0f32)));
        assert!(!CmpOp::Eq.holds(f64::NAN, f64::NAN));
        // Integers compare exactly, beyond f64's 53-bit mantissa.
        assert!(CmpOp::Lt.holds(i64::MAX - 1, i64::MAX));
    }

    #[test]
    fn cast_float_rounds_once() {
        let x = Scalar::F64(1.0 + 2f64.powi(-11));
        assert_eq!(x.cast_float(Precision::Half).as_f64(), 1.0);
        assert_eq!(x.cast_float(Precision::Double), x);
    }

    #[test]
    fn unary_fns_respect_precision() {
        let h = Scalar::float(2.0, Precision::Half);
        let r = UnaryFn::Sqrt.apply(h);
        assert_eq!(r.scalar_type(), ScalarType::Float(Precision::Half));
        assert_eq!(r.as_f64(), F16::from_f64(2f64.sqrt()).to_f64());
        assert_eq!(UnaryFn::Neg.apply(Scalar::Int(5)).as_int(), -5);
        assert_eq!(UnaryFn::Fabs.apply(Scalar::F64(-3.0)).as_f64(), 3.0);
    }

    #[test]
    #[should_panic(expected = "expected an integer")]
    fn as_int_panics_on_float() {
        let _ = Scalar::F64(1.0).as_int();
    }

    #[test]
    fn min_max_ops() {
        assert_eq!(
            Scalar::binop(FloatBinOp::Max, Scalar::F64(1.0), Scalar::F64(2.0)).as_f64(),
            2.0
        );
        assert_eq!(
            Scalar::binop(FloatBinOp::Min, Scalar::Int(4), Scalar::Int(2)).as_int(),
            2
        );
    }
}
