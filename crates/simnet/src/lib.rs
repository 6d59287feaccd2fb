#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-simnet — cluster topology and interconnect model
//!
//! Assembles simulated Cell and commodity (Xeon-class) nodes into the hybrid
//! cluster of the paper's evaluation (8 dual-PowerXCell blades + 4 Xeon
//! nodes on gigabit Ethernet) and models the transport cost of moving bytes
//! between and within nodes. The MPI layer (`cp-mpisim`) asks this crate
//! "what does an `n`-byte message from node A to node B cost on the wire?"
//! and adds its own per-rank software costs on top.

mod cluster;
pub mod faults;
pub mod heartbeat;
mod netcosts;
mod window;

pub use cluster::{Cluster, ClusterSpec, NodeHw, NodeId, NodeKind};
pub use faults::{CopilotKill, FaultPlan, LinkVerdict, RetryPolicy};
pub use heartbeat::{Heartbeat, HEARTBEAT_PERIOD, WATCHDOG_TIMEOUT};
pub use netcosts::NetCosts;
pub use window::{
    LandedPut, ParkedReader, PutStatus, WindowCounters, WindowDesc, WindowError, WindowFabric,
};
