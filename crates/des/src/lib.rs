#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-des — deterministic discrete-event simulation kernel
//!
//! The foundation of the CellPilot reproduction: a virtual-time kernel in
//! which every simulated process (a PPE thread, an SPE program, an MPI rank,
//! a Co-Pilot service) runs as a real OS thread — or, for a helper written
//! as an `async` block awaiting [`Step`]s, as a *component* on whichever
//! thread is dispatching, which also steps a thread's library waits
//! ([`ProcCtx::drive`]) — yet execution is serialized in strict
//! `(virtual_time, sequence)` order, so every run is deterministic and
//! every latency is an explicit, modelled quantity.
//!
//! Layers above this crate:
//!
//! * `cp-cellsim` — Cell BE node model (local stores, DMA, mailboxes) built
//!   from [`sync::MsgQueue`] and friends;
//! * `cp-simnet` / `cp-mpisim` — cluster fabric and MPI-like ranks;
//! * `cp-pilot` / `cellpilot` — the process/channel libraries under study.
//!
//! ## Quick example
//!
//! ```
//! use cp_des::{Simulation, SimDuration, sync::MsgQueue};
//!
//! let queue: MsgQueue<&'static str> = MsgQueue::new("wire", None);
//! let (tx, rx) = (queue.clone(), queue);
//!
//! let mut sim = Simulation::new();
//! sim.spawn("sender", move |ctx| {
//!     ctx.advance(SimDuration::from_micros(5));     // compute for 5 us
//!     tx.push(ctx, "hello", SimDuration::from_micros(98)); // 98 us wire
//! });
//! sim.spawn("receiver", move |ctx| {
//!     let msg = rx.pop(ctx);                         // resumes at t = 103 us
//!     assert_eq!(msg, "hello");
//!     assert_eq!(ctx.now().as_micros_f64(), 103.0);
//! });
//! sim.run().unwrap();
//! ```

mod backend;
mod error;
mod kernel;
pub mod rng;
pub mod sync;
mod time;

pub use backend::{
    async_component, drive_component, Backend, ComponentBody, Executor, LentWait, ProcBody,
    Spawner, Step,
};
pub use error::{sort_incidents, Incident, IncidentCategory, Pid, SimError, SimReport};
pub use kernel::{ProcCtx, Simulation};
pub use time::{SimDuration, SimTime};
