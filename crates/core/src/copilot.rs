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
//! Structurally the Co-Pilot here is three kinds of simulated process: one
//! **mailbox watcher** per SPE (modelling the real Co-Pilot's polling of
//! the SPEs' outbound mailboxes), one **MPI pump** (its blocking
//! `MPI_Recv(ANY_SOURCE)`), and the **service loop** consuming both event
//! streams in arrival order. Only the service loop has a thread. The
//! watchers and the pump — and, under a fault plan, the heartbeat and the
//! kill timer — are `cp-des` *components*: straight-line `async` blocks
//! with a pid and a name of their own that await each wait as a [`Step`],
//! which the simulator runs on whichever thread is dispatching (`cp-native`
//! drives each from an ordinary thread). A step runs while some other
//! process — often this node's service loop, holding `ns.co_state` — sits
//! in a kernel call, so a component touches only locks that are never held
//! across one, and never holds a guard across an `.await` (a lint error):
//! the mailbox and event queues, the local store, the recorders.

use crate::location::Location;
use crate::protocol::{
    completion_err, completion_ok, completion_ok_inline, decode_bundle, decode_mcast,
    CompletionError, Request, CP_BUNDLE_TAG, CP_MCAST_TAG, CP_SHUTDOWN_TAG, OP_POLL, OP_READ,
    OP_WRITE, OP_WRITE_INLINE, POISON_WORD, REQ_BLOCK_BYTES,
};
use crate::runtime::AppShared;
use crate::tables::{CoEvent, NodeShared, PendingReq};
use cp_cellsim::{ls_ea, CellNode};
use cp_des::sync::Poll;
use cp_des::{async_component, IncidentCategory, ProcCtx, SimDuration, Step};
use cp_mpisim::{Comm, Datatype, MpiWorld, Msg};
use cp_simnet::{NodeId, HEARTBEAT_PERIOD, WATCHDOG_TIMEOUT};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Build the co-pilot process body for `world.launch`.
pub(crate) fn copilot_body(
    world: MpiWorld,
    shared: Arc<AppShared>,
    node: NodeId,
    rank: usize,
) -> impl FnOnce(Comm) + Send + 'static {
    move |comm: Comm| {
        let ns = shared.node_shared[&node].clone();
        let cell = ns.cell.clone();
        let ctx = comm.ctx().clone();
        for hw in 0..cell.spe_count() {
            spawn_watcher(&ctx, ns.clone(), hw);
        }
        spawn_pump(&ctx, &world, rank, ns.clone());
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
        service_loop(&comm, &shared, &ns, false);
    }
}

/// Build the standby co-pilot body for a node whose primary has a
/// scripted kill: watch the heartbeat, and on expiry adopt the node —
/// reroute the Co-Pilot rank, take over the dead primary's mailbox, and
/// resume servicing the shared proxy tables and event queue. Type-4/5
/// traffic continues with no application-visible loss.
pub(crate) fn standby_body(
    world: MpiWorld,
    shared: Arc<AppShared>,
    node: NodeId,
    rank: usize,
) -> impl FnOnce(Comm) + Send + 'static {
    move |comm: Comm| {
        let ns = shared.node_shared[&node].clone();
        let ctx = comm.ctx().clone();
        let hb = ns.hb.clone();
        loop {
            if hb.is_stopped() {
                // Clean shutdown before the kill fired: no failover needed.
                return;
            }
            if hb.expired(ctx.now(), WATCHDOG_TIMEOUT) {
                break;
            }
            ctx.advance(HEARTBEAT_PERIOD);
        }
        ctx.report_incident(
            IncidentCategory::CopilotFailover,
            &format!(
                "standby Co-Pilot (rank {rank}) adopting node {}: primary silent since {}",
                node.0,
                hb.last_beat()
            ),
        );
        let primary = shared.tables.copilot_ranks[&node];
        shared.copilot_route.lock().insert(node, rank);
        // Window ownership migrates with the node: one-sided writers that
        // consult the table from here on see the standby as the servicing
        // rank, and landed-but-undelivered puts stay queued for it.
        shared.fabric.take_over_node(node.0, rank);
        world.take_over_rank(&ctx, primary, rank);
        spawn_pump(&ctx, &world, rank, ns.clone());
        service_loop(&comm, &shared, &ns, true);
    }
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

/// What the PPE pays to read `n` bytes through a local store's mapping.
fn mapped_read_cost(cell: &CellNode, n: usize) -> SimDuration {
    SimDuration::from_micros_f64(cell.costs.memcpy_us(n, 1))
}

/// Spawn the watcher of SPE `hw`'s outbound mailbox: a component paying
/// each virtual cost the real Co-Pilot's poll-and-fetch pays.
fn spawn_watcher(ctx: &ProcCtx, ns: Arc<NodeShared>, hw: usize) {
    let cell = ns.cell.clone();
    let name = format!("copilot{}-watch-spe{}", cell.id, hw);
    let watcher = async_component(move |wctx| async move {
        let mbox = &cell.spes[hw].mbox;
        loop {
            let word = loop {
                match mbox.ppe_poll_outbox(&wctx) {
                    Poll::Ready(word) => break word,
                    Poll::InFlight(wait) => Step::Advance(wait).await,
                    Poll::Empty => mbox.ppe_outbox_empty().await,
                }
            };
            let mmio = cell.costs.ppe_mmio_op_us;
            Step::Advance(SimDuration::from_micros_f64(mmio)).await;
            if word == POISON_WORD {
                return;
            }
            // Fetch the 16-byte request block through the problem-state
            // mapping (an uncached read, charged accordingly).
            let block = cell
                .ea_read(ls_ea(hw, word as usize), REQ_BLOCK_BYTES)
                .expect("request block within local store");
            let req = Request::decode(&block);
            Step::Advance(mapped_read_cost(&cell, REQ_BLOCK_BYTES)).await;
            // An eager inline write stages its payload immediately after the
            // header: fetch it in the same mapped read (the block is
            // contiguous in the local store), charging only the extra bytes
            // — no second MMIO exchange.
            let inline = if req.op == OP_WRITE_INLINE {
                let payload = cell
                    .ea_read(ls_ea(hw, word as usize + REQ_BLOCK_BYTES), req.len as usize)
                    .expect("inline payload within local store");
                Step::Advance(mapped_read_cost(&cell, req.len as usize)).await;
                Some(payload)
            } else {
                None
            };
            ns.note_queue_push(&wctx);
            let event = CoEvent::Request { hw, req, inline };
            ns.queue.push(&wctx, event, SimDuration::ZERO);
        }
    });
    ctx.spawn_component(&name, watcher);
}

fn service_loop(comm: &Comm, shared: &Arc<AppShared>, ns: &Arc<NodeShared>, standby: bool) {
    let ctx = comm.ctx();
    let costs = &shared.costs;
    let cell = &ns.cell;
    let queue = &ns.queue;
    // A scripted Co-Pilot stall freezes the service loop once, at the first
    // event serviced at or after its scheduled time: requests and MPI
    // deliveries keep queueing, but nothing is serviced for the duration.
    let stall = shared.faults.stall_of(NodeId(cell.id));
    loop {
        let event = queue.pop(ctx);
        ns.note_queue_pop(ctx);
        // Only this service loop touches the proxy tables while it runs —
        // a standby starts only after the primary retired — so holding the
        // guard across an event's (possibly blocking) handling is safe.
        let st = &mut *ns.co_state.lock();
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
                ctx.advance(s.duration);
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
                return;
            }
            CoEvent::Shutdown => {
                // Unblock the mailbox watchers so their processes exit, and
                // retire the heartbeat pair so a standby stands down.
                for spe in &cell.spes {
                    spe.mbox.spu_write_outbox(ctx, &cell.costs, POISON_WORD);
                }
                ns.hb.stop();
                // The shutdown *wire message* may have been consumed by a
                // previous incarnation's pump (the primary pumps it, dies
                // to the kill marker, and the standby services the queued
                // event) — leaving this incarnation's own pump parked in
                // recv forever. Echo the shutdown to our own rank so
                // whichever pump still listens drains and exits; if none
                // does, the envelope sits unread and the run ends anyway.
                comm.send_bytes(comm.rank(), CP_SHUTDOWN_TAG, Datatype::Byte, 0, Vec::new());
                return;
            }
            CoEvent::Mpi(msg) if msg.tag == CP_MCAST_TAG => {
                // Hierarchical broadcast: one wire message, local fan-out.
                let (chans, data) = decode_mcast(&msg.data);
                for chan in chans {
                    let chan = chan as usize;
                    if let Some(rr) = pop_front(&mut st.pending_reads, chan) {
                        deliver(ctx, shared, cell, chan, &data, rr);
                    } else {
                        let mut m = msg.clone();
                        m.tag = chan as i32;
                        m.data = data.clone();
                        st.pending_mpi.entry(chan).or_default().push_back(m);
                    }
                }
            }
            CoEvent::Mpi(msg) if msg.tag == CP_BUNDLE_TAG => {
                // Coalesced bundle envelope: one wire message carrying
                // several small writes, each with its own payload. Unpack
                // and deliver-or-park per entry, exactly as if each had
                // arrived as its own message.
                for (chan, data) in decode_bundle(&msg.data) {
                    let chan = chan as usize;
                    if let Some(rr) = pop_front(&mut st.pending_reads, chan) {
                        deliver(ctx, shared, cell, chan, &data, rr);
                    } else {
                        let count = data.len();
                        st.pending_mpi.entry(chan).or_default().push_back(Msg {
                            src: msg.src,
                            tag: chan as i32,
                            dtype: Datatype::Byte,
                            count,
                            data,
                        });
                    }
                }
            }
            CoEvent::Mpi(msg) => {
                let chan = msg.tag as usize;
                if let Some(rr) = pop_front(&mut st.pending_reads, chan) {
                    deliver(ctx, shared, cell, chan, &msg.data, rr);
                } else {
                    st.pending_mpi.entry(chan).or_default().push_back(msg);
                }
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
                charge(ctx, costs.copilot_eager_dispatch_us);
                let chan = req.chan as usize;
                crate::dlsvc::report(
                    comm,
                    &shared.tables,
                    crate::dlsvc::chan_event(&shared.tables, cp_pilot::EV_WRITE, chan),
                );
                let n = data.len();
                match reader_side(shared, chan, cell.id) {
                    ReaderSide::LocalSpe => {
                        // Buffered send: the writer completes immediately
                        // (its payload is already in Co-Pilot hands); the
                        // data waits for the reader like an MPI-borne
                        // message would, preserving FIFO order against any
                        // rendezvous write the same (now unblocked) writer
                        // issues later.
                        complete(ctx, cell, hw, completion_ok(n));
                        shared.trace.record(
                            ctx.now(),
                            &format!("copilot{}", cell.id),
                            crate::trace::TraceOp::CopilotWrite,
                            chan,
                            n,
                        );
                        if let Some(rr) = pop_front(&mut st.pending_reads, chan) {
                            deliver(ctx, shared, cell, chan, &data, rr);
                        } else {
                            st.pending_mpi.entry(chan).or_default().push_back(Msg {
                                src: comm.rank(),
                                tag: chan as i32,
                                dtype: Datatype::Byte,
                                count: n,
                                data,
                            });
                        }
                    }
                    ReaderSide::Mpi(dest_rank) => {
                        // The payload is in hand: buffered send here too —
                        // the writer's completion does not wait for the MPI
                        // call made on its behalf.
                        complete(ctx, cell, hw, completion_ok(n));
                        comm.send_bytes(dest_rank, chan as i32, Datatype::Byte, n, data);
                        shared.trace.record(
                            ctx.now(),
                            &format!("copilot{}", cell.id),
                            crate::trace::TraceOp::CopilotWrite,
                            chan,
                            n,
                        );
                        record_hop(ctx, shared, cell.id, chan, "forward");
                    }
                }
            }
            CoEvent::Request { hw, req, .. } if req.op == OP_WRITE => {
                charge(ctx, costs.copilot_dispatch_us);
                let chan = req.chan as usize;
                // Proxy report on behalf of the writing SPE (which cannot
                // reach the deadlock service itself).
                crate::dlsvc::report(
                    comm,
                    &shared.tables,
                    crate::dlsvc::chan_event(&shared.tables, cp_pilot::EV_WRITE, chan),
                );
                let wreq = PendingReq {
                    hw,
                    addr: req.addr,
                    len: req.len,
                };
                match reader_side(shared, chan, cell.id) {
                    ReaderSide::LocalSpe => {
                        if let Some(rr) = pop_front(&mut st.pending_reads, chan) {
                            pair_type4(ctx, shared, cell, chan, wreq, rr);
                        } else {
                            st.pending_writes.entry(chan).or_default().push_back(wreq);
                        }
                    }
                    ReaderSide::Mpi(dest_rank) => {
                        // Read the SPE's buffer through the mapping and make
                        // the MPI call on its behalf.
                        charge(ctx, cell.costs.ea_translate_us);
                        let data = cell
                            .ea_read(ls_ea(hw, req.addr as usize), req.len as usize)
                            .expect("write buffer within local store");
                        charge(ctx, cell.costs.memcpy_us(data.len(), 1));
                        let n = data.len();
                        comm.send_bytes(dest_rank, chan as i32, Datatype::Byte, n, data);
                        complete(ctx, cell, hw, completion_ok(n));
                        shared.trace.record(
                            ctx.now(),
                            &format!("copilot{}", cell.id),
                            crate::trace::TraceOp::CopilotWrite,
                            chan,
                            n,
                        );
                        record_hop(ctx, shared, cell.id, chan, "forward");
                    }
                }
            }
            CoEvent::Request { hw, req, .. } if req.op == OP_POLL => {
                charge(ctx, costs.copilot_dispatch_us);
                let chan = req.chan as usize;
                let has_mpi = st.pending_mpi.get(&chan).is_some_and(|q| !q.is_empty());
                let has = match writer_side(shared, chan, cell.id) {
                    // A local SPE writer may have data parked either as a
                    // rendezvous request or as a buffered eager payload.
                    WriterSide::LocalSpe => {
                        has_mpi || st.pending_writes.get(&chan).is_some_and(|q| !q.is_empty())
                    }
                    WriterSide::Mpi => has_mpi,
                };
                complete(ctx, cell, hw, completion_ok(usize::from(has)));
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
                let fast = shared
                    .tables
                    .channels
                    .get(chan)
                    .is_some_and(|e| e.eager_limit() > 0);
                charge(
                    ctx,
                    if fast {
                        costs.copilot_eager_dispatch_us
                    } else {
                        costs.copilot_dispatch_us
                    },
                );
                // Proxy report on behalf of the reading SPE. Reported on
                // *every* read — even one satisfied from a pending queue —
                // so write credits and read waits stay paired 1:1 in the
                // detector; a satisfying EV_WRITE always clears the edge.
                crate::dlsvc::report(
                    comm,
                    &shared.tables,
                    crate::dlsvc::chan_event(&shared.tables, cp_pilot::EV_READWAIT, chan),
                );
                let rr = PendingReq {
                    hw,
                    addr: req.addr,
                    len: req.len,
                };
                match writer_side(shared, chan, cell.id) {
                    WriterSide::LocalSpe => {
                        // Buffered eager payloads park in `pending_mpi` and
                        // always predate any parked rendezvous write (the
                        // writer blocks on a rendezvous write until it is
                        // paired), so draining them first preserves FIFO.
                        if let Some(msg) = pop_front_msg(&mut st.pending_mpi, chan) {
                            deliver(ctx, shared, cell, chan, &msg.data, rr);
                        } else if let Some(w) = pop_front(&mut st.pending_writes, chan) {
                            pair_type4(ctx, shared, cell, chan, w, rr);
                        } else if writer_dead(ctx, shared, cell, chan) {
                            complete(ctx, cell, hw, completion_err(CompletionError::PeerLost));
                        } else {
                            st.pending_reads.entry(chan).or_default().push_back(rr);
                        }
                    }
                    WriterSide::Mpi => {
                        if let Some(msg) = pop_front_msg(&mut st.pending_mpi, chan) {
                            deliver(ctx, shared, cell, chan, &msg.data, rr);
                        } else if writer_dead(ctx, shared, cell, chan) {
                            complete(ctx, cell, hw, completion_err(CompletionError::PeerLost));
                        } else {
                            st.pending_reads.entry(chan).or_default().push_back(rr);
                        }
                    }
                }
            }
        }
    }
}

fn charge(ctx: &ProcCtx, us: f64) {
    ctx.advance(SimDuration::from_micros_f64(us));
}

fn pop_front(map: &mut HashMap<usize, VecDeque<PendingReq>>, chan: usize) -> Option<PendingReq> {
    map.get_mut(&chan).and_then(|q| q.pop_front())
}

fn pop_front_msg(map: &mut HashMap<usize, VecDeque<Msg>>, chan: usize) -> Option<Msg> {
    map.get_mut(&chan).and_then(|q| q.pop_front())
}

enum ReaderSide {
    /// Reader is an SPE on this node (type 4).
    LocalSpe,
    /// Reader is reachable via MPI: a rank (types 2/3) or a remote
    /// Co-Pilot (type 5).
    Mpi(usize),
}

enum WriterSide {
    LocalSpe,
    Mpi,
}

fn reader_side(shared: &AppShared, chan: usize, my_node: usize) -> ReaderSide {
    let entry = &shared.tables.channels[chan];
    match shared.tables.processes[entry.to.0].location {
        Location::Rank { rank, .. } => ReaderSide::Mpi(rank),
        Location::Spe { node, .. } => {
            if node.0 == my_node {
                ReaderSide::LocalSpe
            } else {
                // Consult the live route: after a failover the reader's
                // node is served by its standby's rank.
                ReaderSide::Mpi(shared.copilot_rank(node))
            }
        }
    }
}

/// Whether the channel's writer process is already gone: an SPE
/// permanently lost (crashed unsupervised, or supervised past its restart
/// budget — a supervised SPE being restarted is *not* gone), or a rank
/// whose scripted death has fired. Used to fail a data-less SPE read with
/// `PeerLost` instead of parking it forever. (A message the writer sent
/// before dying that is still in flight counts as "no data yet" —
/// fail-fast semantics.)
fn writer_dead(ctx: &ProcCtx, shared: &AppShared, cell: &Arc<CellNode>, chan: usize) -> bool {
    let from = shared.tables.channels[chan].from;
    let now = ctx.now();
    let gone = match shared.tables.processes[from.0].location {
        Location::Rank { rank, .. } => shared.faults.death_of(rank).is_some_and(|at| now >= at),
        Location::Spe { .. } => shared.spe_gone(from.0, now),
    };
    if gone {
        ctx.report_incident(
            IncidentCategory::PeerLost,
            &format!(
                "Co-Pilot on node {} failing read on channel {chan}: writer '{}' is lost",
                cell.id, shared.tables.processes[from.0].name
            ),
        );
    }
    gone
}

fn writer_side(shared: &AppShared, chan: usize, my_node: usize) -> WriterSide {
    let entry = &shared.tables.channels[chan];
    match shared.tables.processes[entry.from.0].location {
        Location::Rank { .. } => WriterSide::Mpi,
        Location::Spe { node, .. } => {
            if node.0 == my_node {
                WriterSide::LocalSpe
            } else {
                WriterSide::Mpi
            }
        }
    }
}

/// Whether `data` qualifies for eager inline delivery on `chan`: the
/// channel opted into eager inlining and the payload fits what one
/// mailbox/control-word exchange can carry.
fn eager_small(shared: &AppShared, chan: usize, data: &[u8]) -> bool {
    shared
        .tables
        .channels
        .get(chan)
        .is_some_and(|e| e.eager_limit() > 0 && data.len() <= e.eager_limit())
}

/// Deliver channel data to a waiting SPE reader, picking the eager inline
/// path when the channel and payload qualify.
fn deliver(
    ctx: &ProcCtx,
    shared: &AppShared,
    cell: &Arc<CellNode>,
    chan: usize,
    data: &[u8],
    rr: PendingReq,
) {
    if eager_small(shared, chan, data) {
        deliver_to_spe_eager(ctx, shared, cell, chan, data, rr);
    } else {
        deliver_to_spe(ctx, shared, cell, chan, data, rr);
    }
}

/// Eager inline delivery: the payload rides the completion word itself (a
/// store-gather burst into the reader's inbound mailbox), skipping the
/// buffer-address translation and the mapped store of the DMA path.
fn deliver_to_spe_eager(
    ctx: &ProcCtx,
    shared: &AppShared,
    cell: &Arc<CellNode>,
    chan: usize,
    data: &[u8],
    rr: PendingReq,
) {
    // Final drain point, same contract as `deliver_to_spe`: the credit
    // returns whether or not the payload fits the posted buffer.
    shared.release_credit(chan);
    if data.len() > rr.len as usize {
        complete(ctx, cell, rr.hw, completion_err(CompletionError::Overflow));
        return;
    }
    cell.spes[rr.hw].mbox.ppe_write_inbox_inline(
        ctx,
        &cell.costs,
        completion_ok_inline(data.len()),
        data.to_vec(),
    );
    shared.trace.record(
        ctx.now(),
        &format!("copilot{}", cell.id),
        crate::trace::TraceOp::CopilotDeliver,
        chan,
        data.len(),
    );
    record_hop(ctx, shared, cell.id, chan, "deliver");
}

/// Deliver MPI-borne channel data into a waiting SPE's buffer: translate,
/// store through the mapping, notify.
fn deliver_to_spe(
    ctx: &ProcCtx,
    shared: &AppShared,
    cell: &Arc<CellNode>,
    chan: usize,
    data: &[u8],
    rr: PendingReq,
) {
    // This is the channel's final drain point (rank→SPE types 2/3, the
    // reader-side leg of a type 5, mcast fan-out): the message leaves the
    // pipeline here whether it fits the buffer or not, so its flow-control
    // send credit returns either way.
    shared.release_credit(chan);
    charge(ctx, cell.costs.ea_translate_us);
    if data.len() > rr.len as usize {
        complete(ctx, cell, rr.hw, completion_err(CompletionError::Overflow));
        return;
    }
    cell.ea_write(ls_ea(rr.hw, rr.addr as usize), data)
        .expect("read buffer within local store");
    charge(ctx, cell.costs.memcpy_us(data.len(), 1));
    complete(ctx, cell, rr.hw, completion_ok(data.len()));
    shared.trace.record(
        ctx.now(),
        &format!("copilot{}", cell.id),
        crate::trace::TraceOp::CopilotDeliver,
        chan,
        data.len(),
    );
    record_hop(ctx, shared, cell.id, chan, "deliver");
}

/// Count one Co-Pilot proxy hop on `chan` and mark it on the Co-Pilot's
/// Chrome-trace lane. A type-5 message records two hops — the writer-side
/// MPI forward plus the reader-side delivery — while a purely local type-4
/// pairing records none.
fn record_hop(ctx: &ProcCtx, shared: &AppShared, cell_id: usize, chan: usize, what: &str) {
    if !shared.recorder.is_enabled() {
        return;
    }
    let Some(entry) = shared.tables.channels.get(chan) else {
        return;
    };
    let ty = entry.kind.type_number();
    shared.recorder.record_proxy_hop(ty);
    let lane = shared.recorder.lane(&format!("copilot{cell_id}"));
    shared.recorder.instant(
        lane,
        "copilot",
        &format!("{what} c{chan} (type {ty})"),
        ctx.now().0,
        None,
    );
}

/// Type-4 pairing: both buffer addresses are in hand; `memcpy` between the
/// two mapped local stores and notify both SPEs. The pairing charge models
/// the paper's poll-until-second-request behaviour.
fn pair_type4(
    ctx: &ProcCtx,
    shared: &AppShared,
    cell: &Arc<CellNode>,
    chan: usize,
    w: PendingReq,
    r: PendingReq,
) {
    // The pairing drains the write whatever its outcome — return its
    // flow-control send credit.
    shared.release_credit(chan);
    charge(ctx, shared.costs.copilot_pair_poll_us);
    charge(ctx, 2.0 * cell.costs.ea_translate_us);
    if w.len > r.len {
        complete(ctx, cell, w.hw, completion_err(CompletionError::Overflow));
        complete(ctx, cell, r.hw, completion_err(CompletionError::Overflow));
        return;
    }
    cell.ppe_memcpy(
        ctx,
        ls_ea(r.hw, r.addr as usize),
        ls_ea(w.hw, w.addr as usize),
        w.len as usize,
    )
    .expect("type-4 buffers within local stores");
    complete(ctx, cell, w.hw, completion_ok(w.len as usize));
    complete(ctx, cell, r.hw, completion_ok(w.len as usize));
    shared.trace.record(
        ctx.now(),
        &format!("copilot{}", cell.id),
        crate::trace::TraceOp::CopilotPair,
        chan,
        w.len as usize,
    );
}

fn complete(ctx: &ProcCtx, cell: &Arc<CellNode>, hw: usize, word: u32) {
    cell.spes[hw].mbox.ppe_write_inbox(ctx, &cell.costs, word);
}
