//! # Architecture guide: how a message crosses the cluster
//!
//! This module is documentation only — a walkthrough of the protocol
//! machinery for readers extending the library or auditing the
//! reproduction. Everything here is implemented in this crate and its
//! substrates; file pointers are given per section.
//!
//! ## The cast
//!
//! A running CellPilot application consists of these simulated processes
//! (each an OS thread — the Co-Pilot's helpers excepted, which are
//! thread-less `cp-des` components — scheduled one-at-a-time in
//! virtual-time order by `cp-des`):
//!
//! * **Application ranks** — `main` (`CP_MAIN`, MPI rank 0) and every
//!   process made with [`CellPilotConfig::create_process`]. They hold a
//!   [`CellPilot`] handle (`runtime.rs`).
//! * **SPE processes** — made with [`CellPilotConfig::create_spe_process`],
//!   dormant until their parent calls [`CellPilot::run_spe`]; their body
//!   receives a [`SpeCtx`] (`spe_rt.rs`).
//! * **Per Cell node, one Co-Pilot rank** (`copilot.rs`), itself composed
//!   of a service loop and an MPI pump.
//!
//! ## Type 1: rank → rank
//!
//! `PI_Write` parses the format (`cp-pilot::fmt`), validates the values
//! against it, packs them into the segment wire format
//! (`cp-pilot::value::pack_message`), charges the Pilot-layer cost, and
//! hands the bytes to `cp-mpisim` under `tag = channel id`. The reader's
//! `PI_Read` receives, unpacks, and *re-verifies the format from the
//! reader's side* — a format disagreement is an abort diagnostic, not
//! silent corruption.
//!
//! ## Type 2/3: rank → SPE
//!
//! The writer does exactly what it does for type 1, except the destination
//! rank is the **Co-Pilot of the reader's node**. Meanwhile (or later) the
//! reading SPE:
//!
//! 1. allocates a local-store buffer sized from its format (or the `%*`
//!    capacity), and writes a 16-byte request block
//!    `[OP_READ, chan, buf, cap]` (`protocol.rs`);
//! 2. posts the block's address as **one word** in its outbound mailbox
//!    and blocks on its inbound mailbox.
//!
//! The Co-Pilot polls the outbound mailbox, reads the word and fetches the
//! block through the problem-state mapping. No process stands polling:
//! when the word is written the instant that poll succeeds is known, so
//! the SPE's own wait queues the request to the service loop at that
//! instant — a doorbell (`SpeCtx::transact` in `spe_rt.rs`). When
//! both the MPI message and the request are in hand, the Co-Pilot
//! translates `buf` to the effective address `ls_ea(spe, buf)`
//! (`cp-cellsim::memory`), stores the payload straight into the local
//! store (charged as an uncached copy — the "directly between the PPE's
//! buffer and the SPE's local memory" path), and posts a completion word
//! carrying the byte count. The SPE wakes, unpacks from its own local
//! store, and verifies the format.
//!
//! The reverse direction (SPE writes, rank reads) mirrors this:
//! `OP_WRITE` makes the Co-Pilot read the SPE's buffer through the mapping
//! and perform the MPI send *on the SPE's behalf* — the SPE participates
//! in MPI without a byte of MPI code in its 256 KB.
//!
//! ## Type 4: SPE → SPE, same node
//!
//! Both SPEs post requests; "whichever address arrives first is stored"
//! (paper §IV.B) in the Co-Pilot's pending tables. When the second
//! arrives, the Co-Pilot pays the pairing cost
//! ([`CellPilotCosts::copilot_pair_poll_us`]), `memcpy`s between the two
//! mapped local stores (double uncached cost), and completes both
//! mailboxes. **No MPI is involved.** Note the consequence: a type-4 write
//! has rendezvous semantics — it blocks until the reader asks.
//!
//! ## Type 5: SPE → SPE, different nodes
//!
//! The writer's leg is the SPE→rank half of type 2 with the *remote
//! Co-Pilot* as the MPI destination; the reader's leg is the rank→SPE
//! half. Two Co-Pilots, one wire crossing, three hops — the paper's "for
//! SPEs of different nodes to intercommunicate requires three hops".
//!
//! ## Where the microseconds go
//!
//! Substrate costs are calibrated (`cp-cellsim::CellCosts`,
//! `cp-simnet::NetCosts`, `cp-mpisim::MpiCosts`) against the *hand-coded*
//! rows of the paper's Table II; the CellPilot-layer constants
//! ([`CellPilotCosts`]) are pinned by just two cells (types 2 and 4), and
//! the remaining eight CellPilot cells emerge from the protocol paths
//! above. Run `cargo run -p cp-bench --bin repro_ablation` to see each
//! constant's contribution, and `repro_table2` for the full comparison.
//!
//! ## Shutdown
//!
//! When every process function has returned, application ranks barrier
//! (each first joins the SPE processes it started), then rank 0 sends each
//! Co-Pilot a shutdown message, and the Co-Pilot exits. The simulation
//! ends when no process remains runnable — and if that happens *before*
//! the application finishes, the kernel names every blocked process and
//! what it was waiting for.
//!
//! [`CellPilotConfig::create_process`]: crate::CellPilotConfig::create_process
//! [`CellPilotConfig::create_spe_process`]: crate::CellPilotConfig::create_spe_process
//! [`CellPilot`]: crate::CellPilot
//! [`CellPilot::run_spe`]: crate::CellPilot::run_spe
//! [`SpeCtx`]: crate::SpeCtx
//! [`CellPilotCosts`]: crate::CellPilotCosts
//! [`CellPilotCosts::copilot_pair_poll_us`]: crate::CellPilotCosts
