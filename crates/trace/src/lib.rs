//! Observability layer for the CellPilot workspace.
//!
//! Every other crate in the stack (the DES kernel, the interconnect model,
//! the MPI layer, the CellPilot runtime, the bench drivers) records what it
//! does through one shared [`Recorder`]: spans and instants keyed on
//! *simulated* time, plus always-cheap counters that aggregate into a
//! [`MetricsSnapshot`], and an op log ([`OpEvent`]: one line per completed
//! channel operation, read back as CellPilot's channel-operation trace and
//! Pilot's call log). [`chrome_trace`] exports a recording as Chrome
//! `trace_event` JSON that loads in `about://tracing` / Perfetto, one lane
//! per rank/SPE/Co-Pilot.
//!
//! A recorder is a handle: a disabled one is a `None` inside and every
//! recording call returns immediately, so instrumented hot paths cost one
//! branch when observability is off. Crucially, recording **never consumes virtual
//! time** — enabling tracing cannot perturb the deterministic schedule, so
//! golden-run byte-identity and schedule-exploration equivalence hold with
//! or without it.
//!
//! The crate depends only on `parking_lot` (it sits *below* `cp-des` in the
//! dependency order) and carries its own minimal JSON tree ([`Json`])
//! because the offline build environment has no serde.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod hb;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod recorder;

pub use chrome::chrome_trace;
pub use hb::{HbEvent, HbOp};
pub use json::Json;
pub use metrics::{
    ChannelTypeMetrics, DesMetrics, FlowMetrics, LatencyStats, MetricsSnapshot, MpiMetrics,
    NetMetrics, OneSidedMetrics,
};
pub use ops::{render_trace, Measure, Op, OpEvent};
pub use recorder::{Event, Phase, Recorder};
