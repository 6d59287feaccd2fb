#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-mpisim — an MPI-like message-passing layer for the simulated cluster
//!
//! Implements the slice of MPI-1 that Pilot (and hence CellPilot) builds on:
//! ranks placed on cluster nodes, typed point-to-point messages with tags
//! and wildcards, eager and rendezvous protocols, blocking/non-blocking
//! probe, and the collectives Pilot exposes through bundles (plus a few
//! more). Latencies are composed from `cp-simnet`'s transport model and the
//! per-rank software costs in [`MpiCosts`], calibrated so a PPE↔PPE
//! ping-pong over the wire reproduces the paper's raw-MPI baseline
//! (98 µs / 1 B, 160 µs / 1600 B).
//!
//! ```
//! use cp_mpisim::{mpirun, MpiCosts};
//! use cp_simnet::{ClusterSpec, NodeId};
//!
//! let spec = ClusterSpec::two_cells_one_xeon();
//! mpirun(&spec, vec![NodeId(0), NodeId(1)], MpiCosts::default(), |comm| {
//!     if comm.rank() == 0 {
//!         comm.send(1, 0, &[1.0f64, 2.0]);
//!     } else {
//!         let (v, _) = comm.recv_typed::<f64>(Some(0), Some(0));
//!         assert_eq!(v, vec![1.0, 2.0]);
//!     }
//! }).unwrap();
//! ```

mod collect;
mod costs;
mod datatype;
mod group;
mod message;
mod world;

pub use collect::{
    ReduceOp, ReduceScalar, TAG_ALLGATHER, TAG_ALLTOALL, TAG_BARRIER_DOWN, TAG_BARRIER_UP,
    TAG_BCAST, TAG_GATHER, TAG_REDUCE, TAG_SCAN, TAG_SCATTER,
};
pub use costs::MpiCosts;
pub use datatype::{
    decode_slice, encode_slice, encode_slice_into, Datatype, LongDouble, MpiScalar,
};
pub use group::{Color, SubComm};
pub use message::{Envelope, MailStore, Payload, Rank, Recv, SrcSel, StorePoll, Tag, TagSel};
pub use world::{mpirun, Comm, MpiFault, MpiWorld, Msg};
