//! The Co-Pilot process: CellPilot's key innovation.
//!
//! One extra MPI process runs on each Cell node ("since Cell blades have
//! two PPEs and each PPE has dual hardware threads, an added Co-Pilot
//! process utilizes a computing resource that might otherwise go idle") and
//! services every SPE-connected channel type:
//!
//! * **Type 2/3** (rank → SPE): the rank's MPI message arrives here; when
//!   the SPE posts its read request, the Co-Pilot translates the SPE's
//!   buffer address to a main-memory effective address and moves the data
//!   straight into the local store — "this technique does not need
//!   recourse to DMA transfers".
//! * **Type 2/3** (SPE → rank): the SPE's write request names its buffer;
//!   the Co-Pilot reads it through the mapping and makes the MPI send on
//!   the SPE's behalf — the SPE participates in MPI "as a first-class
//!   citizen" without linking any MPI code into the 256 KB local store.
//! * **Type 4** (SPE ↔ SPE, same node): both SPEs send their buffer
//!   addresses; whichever arrives first is stored, and when the second
//!   arrives the Co-Pilot `memcpy`s between the two mapped local stores
//!   and notifies both mailboxes. No MPI involved.
//! * **Type 5** (SPE ↔ remote SPE): the writer's Co-Pilot relays to the
//!   reader's Co-Pilot via MPI; each does its local-store leg.
//!
//! Structurally the Co-Pilot here is two kinds of simulated process: one
//! **MPI pump** (its blocking `MPI_Recv(ANY_SOURCE)`) and the **service
//! loop** consuming the node's event queue in arrival order. The real
//! Co-Pilot's polling of the SPEs' outbound mailboxes needs no process: a
//! poll succeeds at an instant known when the SPE writes its word, so the
//! SPE's request rings the queue itself at that instant — the mailbox
//! latency, the MMIO read and the mapped fetch of the request block later
//! (`SpeCtx::transact`). None has a thread: each — with, under a fault
//! plan, the heartbeat, the kill timer and the standby — is a `cp-des`
//! *component*, a straight-line `async` block with a pid and a name of its
//! own that awaits each wait as a [`Step`], which the simulator runs on
//! whichever thread is dispatching (`cp-native` runs each on an ordinary
//! thread). What the service loop awaits — the MPI send with its
//! rendezvous, the inbound-mailbox writes, the mapped copies — is the same
//! future a rank's thread runs through when it makes the blocking call.
//!
//! The proxy tables ([`CoState`]) are a local of the serving incarnation's
//! future. A primary that retires — at its scripted kill, or finding its
//! mailbox taken over under a send — leaves them in the node's `handover`
//! queue, and its standby takes them from there before it serves an event.
//! The standby thus waits in the kernel, where the primary still runs, and
//! never on a lock the primary holds. A step runs while some other process
//! sits in a kernel call, so a component touches only locks that are never
//! held across one, and never holds a guard across an `.await` (a lint
//! error): the mailbox and event queues, the local store, the route and
//! credit tables, the recorders.

use crate::location::Location;
use crate::protocol::{
    completion_err, completion_ok, completion_ok_inline, decode_bundle, decode_mcast,
    CompletionError, Request, CP_BUNDLE_TAG, CP_MCAST_TAG, CP_SHUTDOWN_TAG, OP_POLL, OP_READ,
    OP_WRITE, OP_WRITE_INLINE,
};
use crate::runtime::AppShared;
use crate::tables::{CoEvent, CoState, NodeShared, PendingReq};
use cp_cellsim::{ls_ea, CellNode};
use cp_des::{async_component, IncidentCategory, ProcCtx, SimDuration, Step};
use cp_mpisim::{Comm, Datatype, MpiWorld, Msg};
use cp_pilot::{EV_READWAIT, EV_WRITE};
use cp_simnet::{NodeId, HEARTBEAT_PERIOD, WATCHDOG_TIMEOUT};
use cp_trace::{Measure, Op};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The Co-Pilot of `node`, for `world.launch_async`: start its helpers,
/// then serve the node from empty proxy tables.
pub(crate) async fn copilot_body(
    comm: Comm,
    world: MpiWorld,
    shared: Arc<AppShared>,
    node: NodeId,
) {
    let ns = shared.node_shared[&node].clone();
    let ctx = comm.ctx();
    spawn_pump(ctx, &world, comm.rank(), ns.clone());
    if let Some(kill_at) = shared.faults.copilot_kill_of(node) {
        // The node-local liveness signal: beat every period until the
        // scripted death silences it (or a clean shutdown stops the
        // pair). The watchdog in `standby_body` polls the same cell.
        let hb = ns.hb.clone();
        let heartbeat = async_component(move |bctx| async move {
            while !hb.is_stopped() && bctx.now() < kill_at {
                hb.beat(bctx.now());
                Step::Advance(HEARTBEAT_PERIOD).await;
            }
        });
        ctx.spawn_component(&format!("copilot{}-heartbeat", node.0), heartbeat);
        // Deliver the death at exactly the scripted instant as a queue
        // event, so the primary retires at the kill time (events queued
        // later stay behind the marker for the standby to service).
        let ns = ns.clone();
        let kill = async_component(move |kctx| async move {
            Step::Advance(SimDuration::from_nanos(kill_at.as_nanos())).await;
            ns.note_queue_push(&kctx);
            ns.queue.push(&kctx, CoEvent::Die, SimDuration::ZERO);
        });
        ctx.spawn_component(&format!("copilot{}-kill", node.0), kill);
    }
    service_loop(&comm, &shared, &ns, Some(CoState::default())).await;
}

/// The standby Co-Pilot of a node whose primary has a scripted kill, for
/// `world.launch_async`: watch the heartbeat, and on expiry adopt the node —
/// reroute the Co-Pilot rank, take over the dead primary's mailbox, and
/// serve on from the shared event queue with the proxy tables the primary
/// hands over. Type-4/5 traffic continues with no application-visible loss.
pub(crate) async fn standby_body(
    comm: Comm,
    world: MpiWorld,
    shared: Arc<AppShared>,
    node: NodeId,
) {
    let ns = shared.node_shared[&node].clone();
    let (ctx, rank) = (comm.ctx(), comm.rank());
    loop {
        if ns.hb.is_stopped() {
            // Clean shutdown before the kill fired: no failover needed.
            return;
        }
        if ns.hb.expired(ctx.now(), WATCHDOG_TIMEOUT) {
            break;
        }
        Step::Advance(HEARTBEAT_PERIOD).await;
    }
    ctx.report_incident(
        IncidentCategory::CopilotFailover,
        &format!(
            "standby Co-Pilot (rank {rank}) adopting node {}: primary silent since {}",
            node.0,
            ns.hb.last_beat()
        ),
    );
    let primary = shared.tables.copilot_ranks[&node];
    shared.copilot_route.lock().insert(node, rank);
    // Window ownership migrates with the node: one-sided writers that
    // consult the table from here on see the standby as the servicing
    // rank, and landed-but-undelivered puts stay queued for it.
    shared.fabric.take_over_node(node.0, rank);
    world.take_over_rank(ctx, primary, rank);
    spawn_pump(ctx, &world, rank, ns.clone());
    service_loop(&comm, &shared, &ns, None).await;
}

/// Spawn the Co-Pilot's MPI pump (its blocking `MPI_Recv(ANY_SOURCE)`),
/// feeding the node's shared event queue: a component awaiting one
/// wildcard [`Comm::recv_async`] after another. A takeover retires the
/// rank's mailbox mid-receive; the pump sees it dead and finishes — the
/// standby's own pump owns the wire from then on. (The event queue is
/// unbounded, so a push never blocks.)
fn spawn_pump(ctx: &ProcCtx, world: &MpiWorld, rank: usize, ns: Arc<NodeShared>) {
    let world = world.clone();
    let node = ns.cell.id;
    let pump = async_component(move |pctx| async move {
        let comm = world.attach(&pctx, rank);
        while let Some(m) = comm.recv_async(None, None).await {
            ns.note_queue_push(&pctx);
            if m.tag == CP_SHUTDOWN_TAG {
                ns.queue.push(&pctx, CoEvent::Shutdown, SimDuration::ZERO);
                return;
            }
            ns.queue.push(&pctx, CoEvent::Mpi(m), SimDuration::ZERO);
        }
    });
    ctx.spawn_component(&format!("copilot{node}-pump-r{rank}"), pump);
}

/// Serve the node until shutdown, starting from `state` — `None` for a
/// standby, which takes the primary's tables when it first needs them.
/// An incarnation that retires leaves its tables for the standby.
async fn service_loop(
    comm: &Comm,
    shared: &AppShared,
    ns: &NodeShared,
    mut state: Option<CoState>,
) {
    let standby = state.is_none();
    if serve(comm, shared, ns, &mut state, standby).await.is_none() {
        if let Some(st) = state {
            ns.handover.push(comm.ctx(), st, SimDuration::ZERO);
        }
    }
}

/// The service loop proper: `Some` at shutdown, `None` when this
/// incarnation retires — killed by the fault plan, or its mailbox taken
/// over under a rendezvous send.
async fn serve(
    comm: &Comm,
    shared: &AppShared,
    ns: &NodeShared,
    state: &mut Option<CoState>,
    standby: bool,
) -> Option<()> {
    let ctx = comm.ctx();
    let costs = &shared.costs;
    let cell = &*ns.cell;
    let tables = &shared.tables;
    // The Co-Pilot's name on the op log and its trace lane, whichever
    // incarnation serves the node.
    let name: Arc<str> = format!("copilot{}", cell.id).into();
    let p = Proxy {
        ctx,
        shared,
        cell,
        name: &name,
    };
    // A scripted Co-Pilot stall freezes the service loop once, at the first
    // event serviced at or after its scheduled time: requests and MPI
    // deliveries keep queueing, but nothing is serviced for the duration.
    let stall = shared.faults.stall_of(NodeId(cell.id));
    loop {
        let event = ns.queue.pop_async(ctx).await;
        ns.note_queue_pop(ctx);
        // A standby's first event may find the primary still mid-event: the
        // tables arrive when it retires (at once, if it already has).
        if state.is_none() {
            *state = Some(ns.handover.pop_async(ctx).await);
        }
        let st = state.as_mut().expect("proxy tables in hand");
        if let Some(s) = stall {
            if !st.stall_done && ctx.now() >= s.at {
                st.stall_done = true;
                ctx.report_incident(
                    IncidentCategory::CopilotStall,
                    &format!(
                        "Co-Pilot on node {} unresponsive for {} (scheduled at {})",
                        cell.id, s.duration, s.at
                    ),
                );
                Step::Advance(s.duration).await;
            }
        }
        match event {
            CoEvent::Die => {
                // A Die marker reaching the standby is stale — the primary
                // it was aimed at is already gone; the standby serves on.
                if standby {
                    continue;
                }
                ctx.report_incident(
                    IncidentCategory::CopilotDeath,
                    &format!(
                        "Co-Pilot on node {} killed by fault plan at {}",
                        cell.id,
                        ctx.now()
                    ),
                );
                return None;
            }
            CoEvent::Shutdown => {
                // Retire the heartbeat pair so a standby stands down.
                ns.hb.stop();
                // The shutdown *wire message* may have been consumed by a
                // previous incarnation's pump (the primary pumps it, dies
                // to the kill marker, and the standby services the queued
                // event) — leaving this incarnation's own pump parked in
                // recv forever. Echo the shutdown to our own rank so
                // whichever pump still listens drains and exits; if none
                // does, the envelope sits unread and the run ends anyway.
                comm.send_bytes_async(comm.rank(), CP_SHUTDOWN_TAG, Datatype::Byte, 0, Vec::new())
                    .await;
                return Some(());
            }
            CoEvent::Mpi(msg) if msg.tag == CP_MCAST_TAG => {
                // Hierarchical broadcast: one wire message, local fan-out.
                let (chans, data) = decode_mcast(&msg.data);
                for chan in chans {
                    let m = Msg {
                        tag: chan as i32,
                        data: data.clone(),
                        ..msg.clone()
                    };
                    p.deliver_or_park(st, chan as usize, m).await;
                }
            }
            CoEvent::Mpi(msg) if msg.tag == CP_BUNDLE_TAG => {
                // Coalesced bundle envelope: one wire message carrying
                // several small writes, each with its own payload. Unpack
                // and deliver-or-park per entry, exactly as if each had
                // arrived as its own message.
                for (chan, data) in decode_bundle(&msg.data) {
                    let chan = chan as usize;
                    p.deliver_or_park(st, chan, chan_msg(msg.src, chan, data))
                        .await;
                }
            }
            CoEvent::Mpi(msg) => {
                let chan = msg.tag as usize;
                p.deliver_or_park(st, chan, msg).await;
            }
            CoEvent::Request {
                hw,
                req,
                inline: Some(data),
            } if req.op == OP_WRITE_INLINE => {
                // Eager inline write: the payload arrived with the request,
                // so the fast dispatch path applies — no buffer-address
                // translation, no pending-transfer bookkeeping, no DMA reply
                // setup.
                charge(costs.copilot_eager_dispatch_us).await;
                let chan = req.chan as usize;
                crate::dlsvc::report_chan(comm, tables, EV_WRITE, chan).await?;
                let n = data.len();
                // Buffered send: the writer completes immediately (its
                // payload is already in Co-Pilot hands), whether the reader
                // is a local SPE or reached over MPI — its completion does
                // not wait for the MPI call made on its behalf.
                p.complete(hw, completion_ok(n)).await;
                match p.reader_side(chan) {
                    ReaderSide::LocalSpe => {
                        // The data waits for the reader like an MPI-borne
                        // message would, preserving FIFO order against any
                        // rendezvous write the same (now unblocked) writer
                        // issues later.
                        p.report(Op::CopilotWrite, chan, n, None);
                        p.deliver_or_park(st, chan, chan_msg(comm.rank(), chan, data))
                            .await;
                    }
                    ReaderSide::Mpi(dest_rank) => {
                        comm.send_bytes_async(dest_rank, chan as i32, Datatype::Byte, n, data)
                            .await?;
                        p.report(Op::CopilotWrite, chan, n, Some("forward"));
                    }
                }
            }
            CoEvent::Request { hw, req, .. } if req.op == OP_WRITE => {
                charge(costs.copilot_dispatch_us).await;
                let chan = req.chan as usize;
                // Proxy report on behalf of the writing SPE (which cannot
                // reach the deadlock service itself).
                crate::dlsvc::report_chan(comm, tables, EV_WRITE, chan).await?;
                let wreq = pending(hw, &req);
                match p.reader_side(chan) {
                    ReaderSide::LocalSpe => match pop_front(&mut st.pending_reads, chan) {
                        Some(rr) => p.pair_type4(chan, wreq, rr).await,
                        None => st.pending_writes.entry(chan).or_default().push_back(wreq),
                    },
                    ReaderSide::Mpi(dest_rank) => {
                        // Read the SPE's buffer through the mapping and make
                        // the MPI call on its behalf.
                        charge(cell.costs.ea_translate_us).await;
                        let data = cell
                            .ea_read(ls_ea(hw, req.addr as usize), req.len as usize)
                            .expect("write buffer within local store");
                        charge(cell.costs.memcpy_us(data.len(), 1)).await;
                        let n = data.len();
                        comm.send_bytes_async(dest_rank, chan as i32, Datatype::Byte, n, data)
                            .await?;
                        p.complete(hw, completion_ok(n)).await;
                        p.report(Op::CopilotWrite, chan, n, Some("forward"));
                    }
                }
            }
            CoEvent::Request { hw, req, .. } if req.op == OP_POLL => {
                charge(costs.copilot_dispatch_us).await;
                let chan = req.chan as usize;
                // A local SPE writer may have data parked either as a
                // rendezvous request or as a buffered eager payload.
                let has = st.pending_mpi.get(&chan).is_some_and(|q| !q.is_empty())
                    || (p.local_writer(chan)
                        && st.pending_writes.get(&chan).is_some_and(|q| !q.is_empty()));
                p.complete(hw, completion_ok(usize::from(has))).await;
            }
            CoEvent::Request { hw, req, .. } => {
                debug_assert_eq!(req.op, OP_READ);
                let chan = req.chan as usize;
                // Fast dispatch applies to every read posted on an eager
                // channel: whether the read is satisfied on the spot or
                // parked, the Co-Pilot only files the reply-mailbox slot —
                // no buffer-address translation and no transfer
                // bookkeeping up front. The DMA-path costs are charged at
                // delivery time instead (`deliver_to_spe` / `pair_type4`),
                // and only when the payload exceeds the inline budget.
                // Non-eager channels keep the exact schedule they had
                // before eager inlining existed.
                let fast = tables
                    .channels
                    .get(chan)
                    .is_some_and(|e| e.eager_limit() > 0);
                charge(if fast {
                    costs.copilot_eager_dispatch_us
                } else {
                    costs.copilot_dispatch_us
                })
                .await;
                // Proxy report on behalf of the reading SPE. Reported on
                // *every* read — even one satisfied from a pending queue —
                // so write credits and read waits stay paired 1:1 in the
                // detector; a satisfying EV_WRITE always clears the edge.
                crate::dlsvc::report_chan(comm, tables, EV_READWAIT, chan).await?;
                let rr = pending(hw, &req);
                // Buffered eager payloads park in `pending_mpi` and always
                // predate any parked rendezvous write of a local SPE writer
                // (the writer blocks on a rendezvous write until it is
                // paired), so draining them first preserves FIFO.
                if let Some(msg) = pop_front(&mut st.pending_mpi, chan) {
                    p.deliver(chan, &msg.data, rr).await;
                } else if let Some(w) = p
                    .local_writer(chan)
                    .then(|| pop_front(&mut st.pending_writes, chan))
                    .flatten()
                {
                    p.pair_type4(chan, w, rr).await;
                } else if p.writer_dead(chan) {
                    let lost = completion_err(CompletionError::PeerLost);
                    p.complete(hw, lost).await;
                } else {
                    st.pending_reads.entry(chan).or_default().push_back(rr);
                }
            }
        }
    }
}

/// A Co-Pilot's processing time, as the step that charges it.
fn charge(us: f64) -> Step {
    Step::Advance(SimDuration::from_micros_f64(us))
}

fn pop_front<T>(map: &mut HashMap<usize, VecDeque<T>>, chan: usize) -> Option<T> {
    map.get_mut(&chan).and_then(|q| q.pop_front())
}

/// The request SPE `hw` posted, filed until it can be served.
fn pending(hw: usize, req: &Request) -> PendingReq {
    PendingReq {
        hw,
        addr: req.addr,
        len: req.len,
    }
}

/// Channel data from rank `src`, parked as the message that would have
/// carried it over MPI.
fn chan_msg(src: usize, chan: usize, data: Vec<u8>) -> Msg {
    Msg {
        src,
        tag: chan as i32,
        dtype: Datatype::Byte,
        count: data.len(),
        data,
    }
}

enum ReaderSide {
    /// Reader is an SPE on this node (type 4).
    LocalSpe,
    /// Reader is reachable via MPI: a rank (types 2/3) or a remote
    /// Co-Pilot (type 5).
    Mpi(usize),
}

/// What the service loop's helpers act through: the Co-Pilot's own
/// process, the run's shared state, and the Cell node it serves.
#[derive(Clone, Copy)]
struct Proxy<'a> {
    ctx: &'a ProcCtx,
    shared: &'a AppShared,
    cell: &'a CellNode,
    name: &'a Arc<str>,
}

impl Proxy<'_> {
    /// Hand `msg` to the read parked on `chan`, or park it for the next one.
    async fn deliver_or_park(self, st: &mut CoState, chan: usize, msg: Msg) {
        match pop_front(&mut st.pending_reads, chan) {
            Some(rr) => self.deliver(chan, &msg.data, rr).await,
            None => st.pending_mpi.entry(chan).or_default().push_back(msg),
        }
    }

    fn reader_side(self, chan: usize) -> ReaderSide {
        let tables = &self.shared.tables;
        match tables.processes[tables.ends(chan).to].location {
            Location::Rank { rank, .. } => ReaderSide::Mpi(rank),
            Location::Spe { node, .. } if node.0 == self.cell.id => ReaderSide::LocalSpe,
            // Consult the live route: after a failover the reader's node is
            // served by its standby's rank.
            Location::Spe { node, .. } => ReaderSide::Mpi(self.shared.copilot_rank(node)),
        }
    }

    /// Whether the channel's writer is an SPE on this node.
    fn local_writer(self, chan: usize) -> bool {
        let tables = &self.shared.tables;
        matches!(
            tables.processes[tables.ends(chan).from].location,
            Location::Spe { node, .. } if node.0 == self.cell.id
        )
    }

    /// Whether the channel's writer process is already gone: an SPE
    /// permanently lost (crashed unsupervised, or supervised past its restart
    /// budget — a supervised SPE being restarted is *not* gone), or a rank
    /// whose scripted death has fired. Used to fail a data-less SPE read with
    /// `PeerLost` instead of parking it forever. (A message the writer sent
    /// before dying that is still in flight counts as "no data yet" —
    /// fail-fast semantics.)
    fn writer_dead(self, chan: usize) -> bool {
        let shared = self.shared;
        let from = shared.tables.ends(chan).from;
        let gone = shared.chan_writer_gone(chan, self.ctx.now());
        if gone {
            self.ctx.report_incident(
                IncidentCategory::PeerLost,
                &format!(
                    "Co-Pilot on node {} failing read on channel {chan}: writer '{}' is lost",
                    self.cell.id,
                    shared.tables.name(from)
                ),
            );
        }
        gone
    }

    /// Deliver channel data to a waiting SPE reader, picking the eager
    /// inline path when the channel opted into eager inlining and the
    /// payload fits what one mailbox/control-word exchange can carry.
    async fn deliver(self, chan: usize, data: &[u8], rr: PendingReq) {
        let entry = self.shared.tables.channels.get(chan);
        if entry.is_some_and(|e| e.eager_limit() > 0 && data.len() <= e.eager_limit()) {
            self.deliver_to_spe_eager(chan, data, rr).await;
        } else {
            self.deliver_to_spe(chan, data, rr).await;
        }
    }

    /// Eager inline delivery: the payload rides the completion word itself
    /// (a store-gather burst into the reader's inbound mailbox), skipping the
    /// buffer-address translation and the mapped store of the DMA path.
    async fn deliver_to_spe_eager(self, chan: usize, data: &[u8], rr: PendingReq) {
        // Final drain point, same contract as `deliver_to_spe`: the credit
        // returns whether or not the payload fits the posted buffer.
        self.shared.release_credit(chan);
        if data.len() > rr.len as usize {
            let overflow = completion_err(CompletionError::Overflow);
            self.complete(rr.hw, overflow).await;
            return;
        }
        let word = completion_ok_inline(data.len());
        let mbox = &self.cell.spes[rr.hw].mbox;
        mbox.ppe_write_inbox_inline(self.ctx, &self.cell.costs, word, data.to_vec())
            .await;
        self.report(Op::CopilotDeliver, chan, data.len(), Some("deliver"));
    }

    /// Deliver MPI-borne channel data into a waiting SPE's buffer:
    /// translate, store through the mapping, notify.
    async fn deliver_to_spe(self, chan: usize, data: &[u8], rr: PendingReq) {
        // This is the channel's final drain point (rank→SPE types 2/3, the
        // reader-side leg of a type 5, mcast fan-out): the message leaves the
        // pipeline here whether it fits the buffer or not, so its flow-control
        // send credit returns either way.
        self.shared.release_credit(chan);
        let costs = &self.cell.costs;
        charge(costs.ea_translate_us).await;
        if data.len() > rr.len as usize {
            let overflow = completion_err(CompletionError::Overflow);
            self.complete(rr.hw, overflow).await;
            return;
        }
        self.cell
            .ea_write(ls_ea(rr.hw, rr.addr as usize), data)
            .expect("read buffer within local store");
        charge(costs.memcpy_us(data.len(), 1)).await;
        self.complete(rr.hw, completion_ok(data.len())).await;
        self.report(Op::CopilotDeliver, chan, data.len(), Some("deliver"));
    }

    /// Type-4 pairing: both buffer addresses are in hand; `memcpy` between
    /// the two mapped local stores and notify both SPEs. The pairing charge
    /// models the paper's poll-until-second-request behaviour.
    async fn pair_type4(self, chan: usize, w: PendingReq, r: PendingReq) {
        // The pairing drains the write whatever its outcome — return its
        // flow-control send credit.
        self.shared.release_credit(chan);
        charge(self.shared.costs.copilot_pair_poll_us).await;
        charge(2.0 * self.cell.costs.ea_translate_us).await;
        if w.len > r.len {
            let overflow = completion_err(CompletionError::Overflow);
            self.complete(w.hw, overflow).await;
            self.complete(r.hw, overflow).await;
            return;
        }
        let (dst, src) = (ls_ea(r.hw, r.addr as usize), ls_ea(w.hw, w.addr as usize));
        let n = w.len as usize;
        self.cell
            .ppe_memcpy_async(self.ctx, dst, src, n)
            .await
            .expect("type-4 buffers within local stores");
        self.complete(w.hw, completion_ok(n)).await;
        self.complete(r.hw, completion_ok(n)).await;
        self.report(Op::CopilotPair, chan, n, None);
    }

    /// Write a completion word into SPE `hw`'s inbound mailbox.
    async fn complete(self, hw: usize, word: u32) {
        let mbox = &self.cell.spes[hw].mbox;
        mbox.ppe_write_inbox_async(self.ctx, &self.cell.costs, word)
            .await;
    }

    /// Report one Co-Pilot operation of `n` bytes on `chan` to the run's
    /// recorder, counting it as a proxy hop labelled `hop` if it is one. A
    /// type-5 message makes two hops — the writer-side MPI forward plus
    /// the reader-side delivery — while a purely local type-4 pairing
    /// makes none.
    fn report(self, op: Op, chan: usize, n: usize, hop: Option<&'static str>) {
        let rec = &self.shared.recorder;
        if !rec.is_enabled() {
            return;
        }
        let hop = hop.map(|what| Measure::ProxyHop {
            chan_type: self.shared.tables.channels[chan].kind.type_number(),
            what,
        });
        rec.record_op(self.ctx.now().0, self.name, Some(op), chan, n, hop);
    }
}
