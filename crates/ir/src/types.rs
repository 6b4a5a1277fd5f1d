//! Scalar types of the kernel IR.

use core::fmt;
use serde::{Deserialize, Serialize};

/// Floating-point precision of a value or memory object.
///
/// Ordered by width: `Half < Single < Double`, so `max` of two precisions is
/// the promotion target of a mixed binary operation.
///
/// ```
/// use prescaler_ir::Precision;
/// assert!(Precision::Half < Precision::Double);
/// assert_eq!(Precision::Half.max(Precision::Single), Precision::Single);
/// assert_eq!(Precision::Double.size_bytes(), 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// IEEE 754 binary16 (`half` in OpenCL C).
    Half,
    /// IEEE 754 binary32 (`float`).
    Single,
    /// IEEE 754 binary64 (`double`).
    Double,
}

impl Precision {
    /// All precisions in ascending width order.
    pub const ALL: [Precision; 3] = [Precision::Half, Precision::Single, Precision::Double];

    /// Size of one element in bytes.
    #[must_use]
    pub const fn size_bytes(self) -> usize {
        match self {
            Precision::Half => 2,
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// The OpenCL C type name.
    #[must_use]
    pub const fn c_name(self) -> &'static str {
        match self {
            Precision::Half => "half",
            Precision::Single => "float",
            Precision::Double => "double",
        }
    }

    /// Precisions strictly below `self`, in *descending* order — the order
    /// in which the paper's normal search tries scaling targets.
    #[must_use]
    pub fn lower_targets(self) -> Vec<Precision> {
        Precision::ALL
            .into_iter()
            .rev()
            .filter(|p| *p < self)
            .collect()
    }

    /// The precision a binary operation on operands of precisions `a` and
    /// `b` computes in: the wider float, a float beside an integer, or
    /// `None` when both operands are integers (`None < Some(_)` in
    /// `Option`'s order, so this is the maximum).
    #[must_use]
    pub(crate) fn promote(a: Option<Precision>, b: Option<Precision>) -> Option<Precision> {
        a.max(b)
    }

    /// One step down, if any.
    #[must_use]
    pub const fn one_lower(self) -> Option<Precision> {
        match self {
            Precision::Half => None,
            Precision::Single => Some(Precision::Half),
            Precision::Double => Some(Precision::Single),
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// The scalar type of an IR expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// A floating-point value of the given precision.
    Float(Precision),
    /// A 64-bit signed integer (loop counters, sizes, indices).
    Int,
    /// A boolean (comparison results, branch conditions).
    Bool,
}

impl ScalarType {
    /// Returns the precision if this is a float type.
    #[must_use]
    pub const fn precision(self) -> Option<Precision> {
        match self {
            ScalarType::Float(p) => Some(p),
            _ => None,
        }
    }

    /// Returns `true` for float types.
    #[must_use]
    pub const fn is_float(self) -> bool {
        matches!(self, ScalarType::Float(_))
    }

    /// The type a `select` with arms of types `a` and `b` yields: an
    /// integer from two integers, and from two floats the wider precision,
    /// to which the narrower arm converts. `None` for arms that differ in
    /// kind, whose conversion would depend on the branch taken, and for
    /// boolean arms; the type checker rejects both.
    #[must_use]
    pub(crate) fn select(a: ScalarType, b: ScalarType) -> Option<ScalarType> {
        match (a, b) {
            (ScalarType::Int, ScalarType::Int) => Some(ScalarType::Int),
            (ScalarType::Float(p), ScalarType::Float(q)) => Some(ScalarType::Float(p.max(q))),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarType::Float(p) => fmt::Display::fmt(p, f),
            ScalarType::Int => f.write_str("long"),
            ScalarType::Bool => f.write_str("bool"),
        }
    }
}

impl From<Precision> for ScalarType {
    fn from(p: Precision) -> ScalarType {
        ScalarType::Float(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_ordering_matches_width() {
        assert!(Precision::Half < Precision::Single);
        assert!(Precision::Single < Precision::Double);
        assert_eq!(Precision::ALL.map(Precision::size_bytes), [2, 4, 8]);
    }

    #[test]
    fn lower_targets_descend() {
        assert_eq!(
            Precision::Double.lower_targets(),
            vec![Precision::Single, Precision::Half]
        );
        assert_eq!(Precision::Single.lower_targets(), vec![Precision::Half]);
        assert!(Precision::Half.lower_targets().is_empty());
    }

    #[test]
    fn one_lower_steps_down() {
        assert_eq!(Precision::Double.one_lower(), Some(Precision::Single));
        assert_eq!(Precision::Single.one_lower(), Some(Precision::Half));
        assert_eq!(Precision::Half.one_lower(), None);
    }

    #[test]
    fn display_uses_opencl_names() {
        assert_eq!(Precision::Half.to_string(), "half");
        assert_eq!(ScalarType::Float(Precision::Double).to_string(), "double");
        assert_eq!(ScalarType::Int.to_string(), "long");
    }

    #[test]
    fn scalar_type_accessors() {
        assert_eq!(
            ScalarType::Float(Precision::Half).precision(),
            Some(Precision::Half)
        );
        assert_eq!(ScalarType::Int.precision(), None);
        assert!(ScalarType::Float(Precision::Single).is_float());
        assert!(!ScalarType::Bool.is_float());
    }
}
