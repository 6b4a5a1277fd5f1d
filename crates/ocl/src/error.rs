//! Runtime errors.

use core::fmt;
use prescaler_ir::interp::ExecError;
use prescaler_ir::Precision;

/// An error raised by the mini OpenCL runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum OclError {
    /// A kernel name was not found in the program.
    UnknownKernel(String),
    /// A buffer handle did not belong to this session.
    InvalidBuffer(usize),
    /// Two buffers were created with the same label.
    DuplicateLabel(String),
    /// A kernel parameter was left unbound at launch.
    UnboundParam {
        /// Kernel name.
        kernel: String,
        /// Parameter name.
        param: String,
    },
    /// One buffer was bound to two buffer parameters of a launch. The VM
    /// binds a buffer under one parameter name, so the launch is refused
    /// before any data moves.
    AliasedBuffer {
        /// Kernel name.
        kernel: String,
        /// Label of the buffer.
        label: String,
        /// The two parameters it was bound to, in parameter order.
        params: (String, String),
    },
    /// Host data passed to a write did not match the expected precision.
    HostPrecisionMismatch {
        /// Buffer label.
        label: String,
        /// Precision the session expected (the app's original type).
        expected: Precision,
        /// Precision of the supplied data.
        got: Precision,
    },
    /// Host data length did not match the buffer.
    LengthMismatch {
        /// Buffer label.
        label: String,
        /// Buffer length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// The program's kernel carries Error-severity IR-verifier
    /// diagnostics — structurally broken or ill-typed IR caught before
    /// compilation. Every precision variant of the kernel fails with it,
    /// and the diagnostics name the kernel's declared types.
    Verify {
        /// Kernel name.
        kernel: String,
        /// The rendered diagnostics, `; `-joined.
        message: String,
    },
    /// The kernel failed at execution time.
    Exec(ExecError),
    /// A transfer or launch kept failing transiently through every retry
    /// the session makes. Fatal.
    RetriesExhausted {
        /// Description of the operation ("write A", "launch gemm").
        what: String,
        /// Attempts made.
        attempts: u32,
    },
    /// The device fell off the bus mid-operation. Fatal: unlike a
    /// transient transfer/launch bounce there is nothing to retry
    /// against — the caller must fail over and revalidate its tuning
    /// decisions once a device is back.
    DeviceLost {
        /// Description of the operation that found the device gone.
        what: String,
    },
}

impl fmt::Display for OclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OclError::UnknownKernel(n) => write!(f, "unknown kernel `{n}`"),
            OclError::InvalidBuffer(id) => write!(f, "invalid buffer handle {id}"),
            OclError::DuplicateLabel(l) => write!(f, "duplicate buffer label `{l}`"),
            OclError::UnboundParam { kernel, param } => {
                write!(f, "parameter `{param}` of kernel `{kernel}` is unbound")
            }
            OclError::AliasedBuffer {
                kernel,
                label,
                params: (a, b),
            } => write!(
                f,
                "buffer `{label}` is bound to both `{a}` and `{b}` of kernel `{kernel}`"
            ),
            OclError::HostPrecisionMismatch {
                label,
                expected,
                got,
            } => write!(f, "host data for `{label}` is {got}, expected {expected}"),
            OclError::LengthMismatch {
                label,
                expected,
                got,
            } => write!(
                f,
                "host data for `{label}` has {got} elements, buffer holds {expected}"
            ),
            OclError::Verify { kernel, message } => {
                write!(f, "kernel `{kernel}` failed IR verification: {message}")
            }
            OclError::Exec(e) => write!(f, "kernel execution failed: {e}"),
            OclError::RetriesExhausted { what, attempts } => {
                write!(f, "{what} still failing after {attempts} attempts")
            }
            OclError::DeviceLost { what } => {
                write!(f, "device lost during {what}")
            }
        }
    }
}

impl std::error::Error for OclError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OclError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for OclError {
    fn from(e: ExecError) -> OclError {
        OclError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OclError::UnboundParam {
            kernel: "gemm".into(),
            param: "a".into(),
        };
        assert!(e.to_string().contains("gemm"));
        assert!(e.to_string().contains("`a`"));
        let e = OclError::HostPrecisionMismatch {
            label: "A".into(),
            expected: Precision::Double,
            got: Precision::Half,
        };
        assert!(e.to_string().contains("half"));
    }
}
