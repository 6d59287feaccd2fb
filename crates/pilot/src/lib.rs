#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-pilot — the Pilot library
//!
//! A from-scratch reimplementation of Pilot (Carter, Gardner, Grewal —
//! PDSEC'10), the CSP-flavoured process/channel layer over MPI that
//! CellPilot extends. Applications are written in two phases:
//!
//! 1. **Configuration**: declare processes ([`PilotConfig::create_process`]),
//!    channels between process pairs ([`PilotConfig::create_channel`]) and
//!    bundles ([`PilotConfig::create_bundle`]).
//! 2. **Execution** ([`PilotConfig::run`]): every process runs its
//!    function; `PI_MAIN` (rank 0) runs `main`. Processes communicate only
//!    over the pre-declared channels with stdio-style formats:
//!    `pi_write!(p, chan, "%1000f", data)` / `pi_read!(p, chan, "%*f")`.
//!
//! Pilot's safety story is reproduced: the architecture is enforced at run
//! time (writing someone else's channel, format mismatches, etc. abort
//! with a source-located diagnostic), and the optional deadlock-detection
//! service diagnoses circular waits.
//!
//! ```
//! use cp_pilot::{PilotConfig, PilotOpts};
//! use cp_simnet::ClusterSpec;
//!
//! let mut cfg = PilotConfig::one_rank_per_node(
//!     ClusterSpec::two_cells_one_xeon(), PilotOpts::new());
//! let worker = cfg.create_process("worker", 0, |p, _idx| {
//!     let vals = p.read_vec::<i32>(cp_pilot::PiChannel(0)).unwrap();
//!     assert_eq!(vals, vec![1, 2, 3]);
//! }).unwrap();
//! let chan = cfg.create_channel(cp_pilot::PI_MAIN, worker).unwrap();
//! cfg.run(move |p| {
//!     p.write_slice(chan, &[1i32, 2, 3]).unwrap();
//! }).unwrap();
//! ```
//!
//! The stdio-style formats remain available through [`pi_write!`] /
//! [`pi_read!`] (`pi_write!(p, chan, "%1000f", data)` /
//! `pi_read!(p, chan, "%*f")`), which also reproduce Pilot's
//! abort-with-source-location diagnostics.

mod config;
mod endpoint;
mod error;
pub mod fmt;
mod runtime;
mod service;
mod table;
pub mod value;

pub use config::{PilotConfig, PilotOpts};
pub use cp_des::Backend;
pub use endpoint::{
    check_write, finishers, pack_checked, unpack_checked, Packed, PilotCosts, RankEndpoint, Route,
};
pub use error::PilotError;
pub use fmt::{parse_format, Conversion, CountSpec, FmtError};
pub use runtime::Pilot;
pub use service::{
    decode_event, detector, encode_event, report, DlEndpoint, DlEvent, WaitGraph, EVENT_LEN,
    EV_FINISH, EV_READWAIT, EV_WRITE, GRACE_US, POLL_US, TAG_SVC,
};
pub use table::{
    BundleDecl, BundleUsage, ChannelDecl, DeclTable, PiBundle, PiChannel, PiProcess, Tables,
    PI_MAIN,
};
pub use value::{
    pack_message, pack_message_into, packed_len, payload_bytes, unpack_message, MatchError,
    PiScalar, PiValue,
};
