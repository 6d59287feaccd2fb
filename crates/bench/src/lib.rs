#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-bench — experiment harness for the CellPilot reproduction
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! * [`table2::measure_table2`] — Table II (latency of 5 channel types ×
//!   CellPilot / hand-coded DMA / hand-coded copy × 1 B / 1600 B), plus
//!   the Figure 5 (latency bars) and Figure 6 (throughput) renderings of
//!   the same data;
//! * the `repro_*` binaries print each artifact with the paper's numbers
//!   side by side;
//! * the seeded campaigns — [`chaos()`], [`overload()`], [`explore()`],
//!   and the cross-backend sweep over `cellpilot::conformance` — check
//!   their runs with the shared `cellpilot::conformance` checks and run
//!   through one driver, [`Campaign`], with one exit contract;
//! * `src/bin/cpbench/` is the one benchmark and perf gate: virtual and
//!   host time of every path and layer (it uses nothing from this library;
//!   see its README).

pub mod campaign;
pub mod chaos;
pub mod check;
pub mod cli;
pub mod codesize;
pub mod explore;
pub mod imb;
pub mod overload;
pub mod pingpong;
pub mod sweep;
pub mod table2;

pub use campaign::{Campaign, Violation};
pub use chaos::{chaos, chaos_plan, golden_end_time, seed_with_failover, ChaosReport};
pub use explore::{deadlock_baseline, explore, fault_replay};
pub use imb::{exchange, pingping};
pub use overload::{overload, overload_plan, OverloadReport};
pub use pingpong::{
    cellpilot_pingpong, cellpilot_pingpong_one_sided, cellpilot_pingpong_with,
    cellpilot_pingpong_xeon_initiator, PingPong, WARMUP,
};
pub use sweep::{dma_copy_crossover, render_sweep, sweep, SweepPoint, DEFAULT_SIZES};
pub use table2::{
    measure_table2, render_fig5, render_fig6, render_table2, Cell, PAPER_TABLE2, SIZES,
};
