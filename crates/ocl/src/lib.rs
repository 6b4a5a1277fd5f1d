//! A miniature OpenCL-like runtime on the PreScaler system simulator.
//!
//! The paper implements PreScaler as a link-time interposition layer over
//! the OpenCL API (its Table 2): buffer creation, transfers and kernel
//! launches are wrapped so that (a) a dynamic profiler observes the
//! application's memory objects and events, and (b) a chosen precision
//! configuration is applied without touching application code. This crate
//! is that runtime:
//!
//! * [`session::Session`] — context + command queue: buffers, writes/reads
//!   with conversion plans, kernel launches (functionally executed,
//!   virtually timed);
//! * [`spec::ScalingSpec`] — the applied configuration (mechanism only);
//! * [`profile::ProfileLog`] — the recorded event stream and timeline;
//! * [`app::HostApp`] — the application abstraction the framework re-runs
//!   under different configurations;
//! * [`variants::VariantCache`] — a program's compiled precision-scaled
//!   kernel variants, which the sessions of one tune share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod error;
pub mod profile;
pub mod session;
pub mod spec;
pub mod variants;

pub use app::{run_app, run_app_shared, HostApp, Outputs};
pub use error::OclError;
pub use profile::{Event, ObjectInfo, ProfileLog, Timeline, WriteStats};
pub use session::{default_exec_threads, BufferId, KernelArg, Session};
pub use spec::{PlanChoice, ScalingSpec};
pub use variants::VariantCache;
