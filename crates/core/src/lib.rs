#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cellpilot — seamless communication for hybrid Cell clusters
//!
//! A Rust reproduction of **CellPilot** (Girard, Gardner, Carter, Grewal —
//! ICPP Workshops 2011): an extension of the Pilot process/channel library
//! that lets processes live on *any* processor of a hybrid cluster — PPEs,
//! SPEs, or non-Cell nodes — and communicate through one uniform
//! `PI_Write`/`PI_Read` API, "while hiding the complications of DMA
//! transfers, signals, mailboxes, alignment issues, and network transfers".
//!
//! Since the Cell BE platform is long unobtainable, the entire substrate is
//! simulated (see the `cp-cellsim`, `cp-simnet`, `cp-mpisim` crates) with a
//! latency model calibrated against the paper's measured baselines; the
//! library logic above it — the Co-Pilot protocol, channel routing, SPE
//! process control — is implemented in full.
//!
//! ## The paper's Figure 3/4 example
//!
//! Two Cell nodes; one SPE process writes an array of 100 integers to an
//! SPE process on the other node (a type-5 channel relayed through two
//! Co-Pilots):
//!
//! ```
//! use cellpilot::{CellPilotConfig, CellPilotOpts, SpeProgram, CP_MAIN};
//! use cp_simnet::ClusterSpec;
//!
//! let spec = ClusterSpec::two_cells_one_xeon();
//! let opts = CellPilotOpts::new();
//! let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
//!
//! let spe_send = SpeProgram::new("spe_send", 2048, |spe, _arg, _ptr| {
//!     let array: Vec<i32> = (0..100).collect();
//!     spe.write_slice(cellpilot::CpChannel(0), &array).unwrap();
//! });
//! let spe_recv = SpeProgram::new("spe_recv", 2048, |spe, _arg, _ptr| {
//!     let vals = spe.read_vec::<i32>(cellpilot::CpChannel(0)).unwrap();
//!     assert_eq!(vals, (0..100).collect::<Vec<i32>>());
//! });
//!
//! let recv_ppe = cfg.create_process("recvFunc", 0, |cp, _| {
//!     // recv_spe is process id 3 (main=0, recvFunc=1, send_spe=2).
//!     let t = cp.run_spe(cellpilot::CpProcess(3), 0, 0).unwrap();
//!     cp.wait_spe(t);
//! }).unwrap();
//! let send_spe = cfg.create_spe_process(&spe_send, CP_MAIN, 0).unwrap();
//! let _recv_spe = cfg.create_spe_process(&spe_recv, recv_ppe, 0).unwrap();
//! let _between_spes = cfg.channel(send_spe, _recv_spe).build().unwrap();
//!
//! cfg.run(move |cp| {
//!     let t = cp.run_spe(send_spe, 0, 0).unwrap();
//!     cp.wait_spe(t);
//! }).unwrap();
//! ```

pub mod baseline;
mod coalesce;
mod collective;
mod config;
pub mod conformance;
mod copilot;
mod costs;
mod dlsvc;
mod error;
mod flow;
pub mod guide;
mod location;
mod program;
mod protocol;
mod runtime;
mod spe_rt;
mod tables;

pub use coalesce::BundleCoalescer;
pub use collective::{reduce_f64, CpBundle};
pub use config::{CellPilotConfig, CellPilotOpts, ChannelBuilder, SupervisionPolicy, TypedChannel};
pub use costs::{CellPilotCosts, SPE_RUNTIME_FOOTPRINT};
pub use cp_des::Backend;
/// Bundle usages are Pilot's; the old name stays for existing callers.
pub use cp_pilot::BundleUsage as CpBundleUsage;
pub use error::{CpError, ErrorKind, OverloadError};
pub use flow::OverloadPolicy;
pub use location::{classify, ChannelKind, ChannelMode, CpChannel, CpProcess, Location, CP_MAIN};
pub use program::SpeProgram;
pub use runtime::{CellPilot, SpeTask};
pub use spe_rt::SpeCtx;
pub use tables::CpTables;

// Re-export the pieces users need from the layers below.
pub use cp_pilot::{PiValue, PilotCosts};
pub use cp_trace::render_trace;
// Static-analysis surface (see `cp-check`): diagnostics come back through
// `SimReport` incidents or a strict-mode abort, both rendering these types.
pub use cp_check::{CheckCode, Diagnostic, LintConfig, LintLevel, Severity};
