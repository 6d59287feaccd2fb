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
//! Structurally the Co-Pilot is a **decision** and an **executor**.
//! [`step`] is a pure function of the proxy tables ([`CoState`]), one event
//! and a [`CoEnv`]: it updates the tables and appends what to do as an
//! ordered list of [`Effect`]s. It has no process, no MPI handle, no
//! hardware and no wait, so every choice is unit-tested without a
//! simulation. [`serve`] pops the node's event queue, steps each event and
//! runs its effects in order; a wait of several steps (a rendezvous send, a
//! full mailbox) is one effect being run, so how far an event got is the
//! index of the effect running. It, the MPI pump, the heartbeat, the kill
//! timer and the standby are the only code here that waits, each a
//! thread-less `cp-des` component awaiting each wait as a [`Step`]. Nothing
//! polls the SPEs' outbound mailboxes: an SPE's request rings the queue
//! itself at the instant the poll would succeed (`SpeCtx::transact`).
//!
//! `step` reads run state only through `CoEnv`, as of the instant it is
//! entered: at pop, `now` for the stall and `Die` checks; for a request,
//! once more after its prologue (the dispatch charge, the detector report
//! and, for an eager write, the writer's completion word) has run, ending
//! in [`Effect::Resume`] — then it reads [`Live`]: the live route to the
//! reader and whether the writer is gone. The effects that can retire the
//! incarnation (a detector report or a forward send finding the mailbox
//! taken over) come before any change to the tables in their arm, so a
//! retiring primary hands over exactly the tables it had before the event.
//!
//! The tables are a local of the serving incarnation. A primary that
//! retires — at its scripted kill, or under a send — leaves them in the
//! node's `handover` queue, where its standby, waiting in the kernel and
//! never on a lock the primary holds, takes them before it serves an
//! event. A component never holds a guard across an `.await` (a lint
//! error).

use crate::location::Location;
use crate::protocol::{
    completion_err, completion_ok, completion_ok_inline, decode_envelope, CompletionError, Request,
    CP_SHUTDOWN_TAG, OP_POLL, OP_WRITE, OP_WRITE_INLINE,
};
use crate::runtime::AppShared;
use crate::tables::{CoEvent, CoState, CpTables, NodeShared, PendingReq};
use crate::CellPilotCosts;
use cp_cellsim::{ls_ea, CellCosts};
use cp_des::{async_component, IncidentCategory, ProcCtx, SimDuration, SimTime, Step};
use cp_mpisim::{Comm, Datatype, MpiWorld};
use cp_pilot::{EV_READWAIT, EV_WRITE};
use cp_simnet::{faults::CopilotStall, NodeId, HEARTBEAT_PERIOD, WATCHDOG_TIMEOUT};
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
    serve(&comm, &shared, &ns, Some(CoState::default())).await;
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
    serve(&comm, &shared, &ns, None).await;
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

/// One thing the Co-Pilot does, as [`step`] decides it and [`serve`] runs
/// it, in list order.
#[derive(Debug, PartialEq)]
pub(crate) enum Effect {
    /// Co-Pilot time, named by the cost field charged (or `"stall"`).
    Charge(&'static str, SimDuration),
    /// The proxy report of an SPE's op (`kind`) on a channel to the
    /// deadlock detector; retires the incarnation if its mailbox is gone.
    Report(u8, usize),
    /// An MPI send on an SPE's behalf. Retires like [`Effect::Report`].
    MpiSend {
        to: usize,
        tag: i32,
        data: Vec<u8>,
    },
    /// Read SPE buffer `buf` through the mapping and send it, likewise.
    SendFromLs {
        buf: PendingReq,
        to: usize,
        tag: i32,
    },
    /// A completion word into SPE `hw`'s inbound mailbox (payload inline).
    MailboxWrite {
        hw: usize,
        word: u32,
        inline: Option<Vec<u8>>,
    },
    /// Store `data` into SPE buffer `buf` through the mapping.
    LsStore {
        buf: PendingReq,
        data: Vec<u8>,
    },
    /// A PPE `memcpy` of SPE buffer `src` into SPE buffer `dst`.
    LsCopy {
        dst: PendingReq,
        src: PendingReq,
    },
    /// Return a channel's flow-control credit: its message left the pipeline.
    ReleaseCredit(usize),
    /// Log a Co-Pilot op of `n` bytes on `chan`, with its proxy hop if any.
    Record {
        op: Op,
        chan: usize,
        n: usize,
        hop: Option<Measure>,
    },
    Incident(IncidentCategory, String),
    /// Step this request again, with [`Live`] read after the effects before.
    Resume {
        hw: usize,
        req: Request,
        inline: Option<Vec<u8>>,
    },
    /// Stop the heartbeat pair, echo the shutdown to this rank's pump, end.
    Shutdown,
    /// End this incarnation, leaving its tables to the standby.
    Retire,
}

/// What [`step`] reads besides its tables and the event: the run's
/// configuration, and run state as of the instant `step` is entered.
pub(crate) struct CoEnv<'a> {
    pub tables: &'a CpTables,
    pub costs: &'a CellPilotCosts,
    pub cell: &'a CellCosts,
    /// The Cell node served.
    pub node: usize,
    /// A `Die` reaching the standby is stale: its primary is already gone.
    pub standby: bool,
    /// Freezes the service once, at the first event popped after its time.
    pub stall: Option<CopilotStall>,
    pub now: SimTime,
    /// `None` at pop; for a resumed request, the run state it reads.
    pub live: Option<&'a dyn Live>,
}

/// The run state a resumed request reads, as of [`CoEnv::now`].
pub(crate) trait Live {
    /// The rank serving Cell node `node` (its standby's after a failover).
    fn route(&self, node: NodeId) -> usize;
    /// Whether channel `chan`'s writer is gone for good at `now`.
    fn writer_gone(&self, chan: usize, now: SimTime) -> bool;
}

impl Live for AppShared {
    fn route(&self, node: NodeId) -> usize {
        self.copilot_rank(node)
    }

    fn writer_gone(&self, chan: usize, now: SimTime) -> bool {
        self.chan_writer_gone(chan, now)
    }
}

/// The Co-Pilot's decision about `ev`: update the proxy tables and append
/// what to do to `out`, in order.
pub(crate) fn step(st: &mut CoState, ev: CoEvent, env: &CoEnv, out: &mut Vec<Effect>) {
    let (node, mut now) = (env.node, env.now);
    if let Some(s) = env.stall {
        if env.live.is_none() && !st.stall_done && now >= s.at {
            st.stall_done = true;
            let (d, at) = (s.duration, s.at);
            let text = format!("Co-Pilot on node {node} unresponsive for {d} (scheduled at {at})");
            out.push(Effect::Incident(IncidentCategory::CopilotStall, text));
            out.push(Effect::Charge("stall", d));
            now += d;
        }
    }
    let (hw, req, inline) = match ev {
        CoEvent::Die if env.standby => return,
        CoEvent::Die => {
            let text = format!("Co-Pilot on node {node} killed by fault plan at {now}");
            out.push(Effect::Incident(IncidentCategory::CopilotDeath, text));
            return out.push(Effect::Retire);
        }
        CoEvent::Shutdown => return out.push(Effect::Shutdown),
        CoEvent::Mpi(msg) => {
            for (chan, data) in decode_envelope(msg) {
                deliver_or_park(st, env, chan, data, out);
            }
            return;
        }
        CoEvent::Request { hw, req, inline } => (hw, req, inline),
    };
    let (chan, c) = (req.chan as usize, env.costs);
    let ends = env.tables.ends(chan);
    let Some(live) = env.live else {
        // The prologue. Eager traffic (a read on an eager channel too) takes
        // the fast dispatch; DMA-path costs are charged at delivery, if any.
        let full = charge("copilot_dispatch_us", c.copilot_dispatch_us);
        let fast = charge("copilot_eager_dispatch_us", c.copilot_eager_dispatch_us);
        let (dispatch, kind) = match req.op {
            OP_WRITE_INLINE => (fast, EV_WRITE),
            OP_WRITE | OP_POLL => (full, EV_WRITE),
            _ if env.tables.channels[chan].eager_limit() > 0 => (fast, EV_READWAIT),
            _ => (full, EV_READWAIT),
        };
        out.push(dispatch);
        if req.op == OP_POLL {
            // A local SPE writer may have data parked either as a
            // rendezvous request or as a buffered eager payload.
            let has = queued(&st.pending_mpi, chan)
                || (on_node(env, ends.from) && queued(&st.pending_writes, chan));
            return out.push(complete(hw, completion_ok(usize::from(has))));
        }
        // For the SPE, which cannot reach the detector; on *every* read, so
        // write credits and read waits pair 1:1.
        out.push(Effect::Report(kind, chan));
        if let Some(data) = &inline {
            // Buffered send: the writer completes at once, whatever its reader.
            out.push(complete(hw, completion_ok(data.len())));
        }
        return out.push(Effect::Resume { hw, req, inline });
    };
    let (local_reader, tag) = (on_node(env, ends.to), chan as i32);
    // An MPI reader: a rank, or a remote SPE through its node's live route.
    let to = || match env.tables.processes[ends.to].location {
        Location::Rank { rank, .. } => rank,
        Location::Spe { node, .. } => live.route(node),
    };
    // The SPE's buffer, filed until it can be served.
    let (addr, len) = (req.addr, req.len);
    let buf = PendingReq { hw, addr, len };
    match (req.op, inline) {
        (OP_WRITE_INLINE, Some(data)) if local_reader => {
            // Parked like an MPI-borne message: FIFO against a rendezvous
            // write the (now unblocked) writer issues later.
            out.push(record(env, Op::CopilotWrite, chan, data.len(), None));
            deliver_or_park(st, env, chan, data, out);
        }
        (OP_WRITE_INLINE, Some(data)) => {
            let n = data.len();
            out.push(Effect::MpiSend {
                to: to(),
                tag,
                data,
            });
            out.push(record(env, Op::CopilotWrite, chan, n, Some("forward")));
        }
        (OP_WRITE, _) if local_reader => match pop_front(&mut st.pending_reads, chan) {
            Some(r) => pair_type4(env, chan, buf, r, out),
            None => park(&mut st.pending_writes, chan, buf),
        },
        (OP_WRITE, _) => {
            let n = req.len as usize;
            out.push(charge("ea_translate_us", env.cell.ea_translate_us));
            out.push(charge("memcpy_us", env.cell.memcpy_us(n, 1)));
            out.push(Effect::SendFromLs { buf, to: to(), tag });
            out.push(complete(hw, completion_ok(n)));
            out.push(record(env, Op::CopilotWrite, chan, n, Some("forward")));
        }
        _ => {
            // A read. Eager payloads parked in `pending_mpi` predate any
            // parked rendezvous write (its writer blocks): FIFO drains them first.
            if let Some(data) = pop_front(&mut st.pending_mpi, chan) {
                deliver(env, chan, data, buf, out);
            } else if let Some(w) = on_node(env, ends.from)
                .then(|| pop_front(&mut st.pending_writes, chan))
                .flatten()
            {
                pair_type4(env, chan, w, buf, out);
            } else if live.writer_gone(chan, env.now) {
                // Fail fast: data still in flight counts as none.
                let writer = env.tables.name(ends.from);
                let text = format!(
                    "Co-Pilot on node {node} failing read on channel {chan}: writer '{writer}' is lost"
                );
                out.push(Effect::Incident(IncidentCategory::PeerLost, text));
                out.push(complete(hw, completion_err(CompletionError::PeerLost)));
            } else {
                park(&mut st.pending_reads, chan, buf);
            }
        }
    }
}

/// Hand `data` to the read parked on `chan`, or park it for the next one.
fn deliver_or_park(
    st: &mut CoState,
    env: &CoEnv,
    chan: usize,
    data: Vec<u8>,
    out: &mut Vec<Effect>,
) {
    match pop_front(&mut st.pending_reads, chan) {
        Some(r) => deliver(env, chan, data, r, out),
        None => park(&mut st.pending_mpi, chan, data),
    }
}

/// Deliver channel data to the SPE read `r`: inline on the completion word
/// (a store-gather burst into its inbound mailbox) when the channel is
/// eager and the payload fits its threshold, else translate, store
/// through the mapping and notify.
fn deliver(env: &CoEnv, chan: usize, data: Vec<u8>, r: PendingReq, out: &mut Vec<Effect>) {
    // The channel's final drain point: its credit returns whether or not
    // the payload fits.
    out.push(Effect::ReleaseCredit(chan));
    let n = data.len();
    let limit = env.tables.channels[chan].eager_limit();
    let inline = limit > 0 && n <= limit;
    if !inline {
        out.push(charge("ea_translate_us", env.cell.ea_translate_us));
    }
    if n > r.len as usize {
        return out.push(complete(r.hw, completion_err(CompletionError::Overflow)));
    }
    if inline {
        out.push(Effect::MailboxWrite {
            hw: r.hw,
            word: completion_ok_inline(n),
            inline: Some(data),
        });
    } else {
        out.push(Effect::LsStore { buf: r, data });
        out.push(charge("memcpy_us", env.cell.memcpy_us(n, 1)));
        out.push(complete(r.hw, completion_ok(n)));
    }
    out.push(record(env, Op::CopilotDeliver, chan, n, Some("deliver")));
}

/// Type-4 pairing: both buffer addresses are in hand; `memcpy` between
/// the two mapped local stores and notify both SPEs. The pairing charge
/// models the paper's poll-until-second-request behaviour.
fn pair_type4(env: &CoEnv, chan: usize, w: PendingReq, r: PendingReq, out: &mut Vec<Effect>) {
    // The pairing drains the write whatever its outcome.
    out.push(Effect::ReleaseCredit(chan));
    let poll = env.costs.copilot_pair_poll_us;
    out.push(charge("copilot_pair_poll_us", poll));
    out.push(charge("ea_translate_us", 2.0 * env.cell.ea_translate_us));
    if w.len > r.len {
        let overflow = completion_err(CompletionError::Overflow);
        return out.extend([complete(w.hw, overflow), complete(r.hw, overflow)]);
    }
    let (n, ok) = (w.len as usize, completion_ok(w.len as usize));
    out.push(Effect::LsCopy { dst: r, src: w });
    out.extend([complete(w.hw, ok), complete(r.hw, ok)]);
    out.push(record(env, Op::CopilotPair, chan, n, None));
}

/// Charge `us` of the cost-model field `cost`.
fn charge(cost: &'static str, us: f64) -> Effect {
    Effect::Charge(cost, SimDuration::from_micros_f64(us))
}

/// A completion word for SPE `hw`.
fn complete(hw: usize, word: u32) -> Effect {
    Effect::MailboxWrite {
        hw,
        word,
        inline: None,
    }
}

/// Log a Co-Pilot op, counting it as a proxy hop labelled `hop` if it is
/// one: a type-5 message makes two (the writer-side forward and the
/// reader-side delivery), a type-4 pairing none.
fn record(env: &CoEnv, op: Op, chan: usize, n: usize, hop: Option<&'static str>) -> Effect {
    let chan_type = env.tables.channels[chan].kind.type_number();
    let hop = hop.map(|what| Measure::ProxyHop { chan_type, what });
    Effect::Record { op, chan, n, hop }
}

/// Whether process `p` is an SPE on the served node.
fn on_node(env: &CoEnv, p: usize) -> bool {
    matches!(env.tables.processes[p].location, Location::Spe { node, .. } if node.0 == env.node)
}

fn queued<T>(map: &HashMap<usize, VecDeque<T>>, chan: usize) -> bool {
    map.get(&chan).is_some_and(|q| !q.is_empty())
}

fn pop_front<T>(map: &mut HashMap<usize, VecDeque<T>>, chan: usize) -> Option<T> {
    map.get_mut(&chan).and_then(|q| q.pop_front())
}

fn park<T>(map: &mut HashMap<usize, VecDeque<T>>, chan: usize, item: T) {
    map.entry(chan).or_default().push_back(item);
}

/// The executor: serve the node until shutdown — pop an event, [`step`]
/// it, run its effects in order — starting from `state`, or, for a
/// standby (`None`), from the tables the primary leaves when it retires.
/// An incarnation that retires (at `Retire`, or when a report or send
/// finds its mailbox taken over) leaves its tables for the standby. Each
/// effect awaits its own future, so a cheap effect builds no large one.
async fn serve(comm: &Comm, shared: &AppShared, ns: &NodeShared, mut state: Option<CoState>) {
    let (ctx, cell, tables, rec) = (comm.ctx(), &*ns.cell, &*shared.tables, &shared.recorder);
    let standby = state.is_none();
    let stall = shared.faults.stall_of(NodeId(cell.id));
    let env = |now, live| CoEnv {
        tables,
        costs: &shared.costs,
        cell: &cell.costs,
        node: cell.id,
        standby,
        stall,
        now,
        live,
    };
    let ea = |buf: PendingReq| ls_ea(buf.hw, buf.addr as usize);
    let send =
        |to, tag, data: Vec<u8>| comm.send_bytes_async(to, tag, Datatype::Byte, data.len(), data);
    // The Co-Pilot's name on the op log and its trace lane, whichever
    // incarnation serves the node.
    let name: Arc<str> = format!("copilot{}", cell.id).into();
    let mut out = Vec::new();
    'serve: loop {
        let mut next = Some(ns.queue.pop_async(ctx).await);
        ns.note_queue_pop(ctx);
        // A standby's first event may find the primary still mid-event: the
        // tables arrive when it retires (at once, if it already has).
        if state.is_none() {
            state = Some(ns.handover.pop_async(ctx).await);
        }
        let mut resumed = false;
        while let Some(ev) = next.take() {
            let st = state.as_mut().expect("proxy tables in hand");
            let live = resumed.then_some(shared as &dyn Live);
            step(st, ev, &env(ctx.now(), live), &mut out);
            for effect in out.drain(..) {
                match effect {
                    Effect::Charge(_, d) => Step::Advance(d).await,
                    Effect::Report(kind, chan) => {
                        if crate::dlsvc::report_chan(comm, tables, kind, chan)
                            .await
                            .is_none()
                        {
                            break 'serve;
                        }
                    }
                    Effect::MpiSend { to, tag, data } => {
                        if send(to, tag, data).await.is_none() {
                            break 'serve;
                        }
                    }
                    Effect::SendFromLs { buf, to, tag } => {
                        let data = cell.ea_read(ea(buf), buf.len as usize);
                        let data = data.expect("write buffer within local store");
                        if send(to, tag, data).await.is_none() {
                            break 'serve;
                        }
                    }
                    Effect::MailboxWrite { hw, word, inline } => {
                        let (mbox, costs) = (&cell.spes[hw].mbox, &cell.costs);
                        match inline {
                            None => mbox.ppe_write_inbox_async(ctx, costs, word).await,
                            Some(data) => mbox.ppe_write_inbox_inline(ctx, costs, word, data).await,
                        }
                    }
                    Effect::LsStore { buf, data } => cell
                        .ea_write(ea(buf), &data)
                        .expect("read buffer within local store"),
                    Effect::LsCopy { dst, src } => cell
                        .ppe_memcpy_async(ctx, ea(dst), ea(src), src.len as usize)
                        .await
                        .expect("type-4 buffers within local stores"),
                    Effect::ReleaseCredit(chan) => shared.release_credit(chan),
                    Effect::Record { op, chan, n, hop } if rec.is_enabled() => {
                        rec.record_op(ctx.now().0, &name, Some(op), chan, n, hop)
                    }
                    Effect::Record { .. } => {}
                    Effect::Incident(category, text) => ctx.report_incident(category, &text),
                    Effect::Resume { hw, req, inline } => {
                        resumed = true;
                        next = Some(CoEvent::Request { hw, req, inline });
                    }
                    Effect::Shutdown => {
                        ns.hb.stop();
                        // A previous incarnation's pump may have consumed the
                        // wire message: echo it so whichever pump listens drains.
                        send(comm.rank(), CP_SHUTDOWN_TAG, Vec::new()).await;
                        return;
                    }
                    Effect::Retire => break 'serve,
                }
            }
        }
    }
    if let Some(st) = state {
        ns.handover.push(ctx, st, SimDuration::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{classify, ChannelMode};
    use crate::protocol::{encode_mcast, CP_MCAST_TAG, OP_READ};
    use crate::tables::{CpChanEntry, CpProcEntry, ProcKind};
    use cp_mpisim::Msg;

    // Processes: the main rank on the served node 0, a rank on node 1, SPEs
    // `a` (hardware SPE 0) and `b` (1) on node 0, and `r` on node 1.
    const MAIN: usize = 0;
    const FAR: usize = 1;
    const A: usize = 2;
    const B: usize = 3;
    const R: usize = 4;

    // Channels, by their Table-I type as seen from node 0.
    const T2_IN: usize = 0; // main -> a
    const T2_OUT: usize = 1; // a -> main
    const T3_IN: usize = 2; // far -> a
    const T3_OUT: usize = 3; // a -> far
    const T4: usize = 4; // a -> b
    const T5_OUT: usize = 5; // a -> r
    const T5_IN: usize = 6; // r -> a
    const EAGER_IN: usize = 7; // main -> a, eager
    const EAGER_OUT: usize = 8; // a -> main, eager
    const EAGER_T4: usize = 9; // a -> b, eager

    fn tables() -> CpTables {
        let mut t = CpTables::default();
        let rank = |rank, node| Location::Rank {
            rank,
            node: NodeId(node),
        };
        let spe = |node, slot| Location::Spe {
            node: NodeId(node),
            slot,
        };
        let procs = [
            ("main", rank(0, 0)),
            ("far", rank(1, 1)),
            ("a", spe(0, 0)),
            ("b", spe(0, 1)),
            ("r", spe(1, 0)),
        ];
        for (name, location) in procs {
            t.decls.add_process(name.into());
            let kind = ProcKind::Rank; // irrelevant to the Co-Pilot
            t.processes.push(CpProcEntry {
                location,
                index: 0,
                kind,
            });
        }
        let chans = [
            (MAIN, A, None),
            (A, MAIN, None),
            (FAR, A, None),
            (A, FAR, None),
            (A, B, None),
            (A, R, None),
            (R, A, None),
            (MAIN, A, Some(16)),
            (A, MAIN, Some(16)),
            (A, B, Some(16)),
        ];
        for (from, to, eager) in chans {
            t.decls.add_channel(from, to).unwrap();
            let kind = classify(t.processes[from].location, t.processes[to].location);
            t.channels.push(CpChanEntry {
                kind,
                mode: ChannelMode::Rendezvous,
                window: None,
                capacity: None,
                policy: crate::OverloadPolicy::Block,
                eager,
                max_payload: None,
            });
        }
        t
    }

    /// A Co-Pilot of node 0 under test: its tables and what it reads.
    struct Rig {
        st: CoState,
        tables: CpTables,
        costs: CellPilotCosts,
        cell: CellCosts,
        standby: bool,
        stall: Option<CopilotStall>,
        now: SimTime,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                st: CoState::default(),
                tables: tables(),
                costs: CellPilotCosts::default(),
                cell: CellCosts::default(),
                standby: false,
                stall: None,
                now: SimTime(1_000),
            }
        }

        fn step(&mut self, ev: CoEvent, live: Option<&dyn Live>) -> Vec<Effect> {
            let env = CoEnv {
                tables: &self.tables,
                costs: &self.costs,
                cell: &self.cell,
                node: 0,
                standby: self.standby,
                stall: self.stall,
                now: self.now,
                live,
            };
            let mut out = Vec::new();
            step(&mut self.st, ev, &env, &mut out);
            out
        }

        /// Pop `ev` and, if its prologue ends in a resume, resume it with
        /// `live`: both effect lists.
        fn serve(&mut self, ev: CoEvent, live: Fixed) -> (Vec<Effect>, Vec<Effect>) {
            let first = self.step(ev, None);
            let Some(Effect::Resume { hw, req, inline }) = first.last() else {
                return (first, Vec::new());
            };
            let (hw, req, inline) = (*hw, *req, inline.clone());
            let resumed = self.step(CoEvent::Request { hw, req, inline }, Some(&live));
            (first, resumed)
        }

        fn charge(&self, cost: &'static str) -> Effect {
            let us = match cost {
                "copilot_dispatch_us" => self.costs.copilot_dispatch_us,
                "copilot_eager_dispatch_us" => self.costs.copilot_eager_dispatch_us,
                "copilot_pair_poll_us" => self.costs.copilot_pair_poll_us,
                "ea_translate_us" => self.cell.ea_translate_us,
                other => panic!("no cost {other}"),
            };
            charge(cost, us)
        }

        fn memcpy(&self, n: usize) -> Effect {
            charge("memcpy_us", self.cell.memcpy_us(n, 1))
        }
    }

    /// The run state a test resumes a request with.
    struct Fixed {
        route: usize,
        gone: bool,
    }

    impl Live for Fixed {
        fn route(&self, _: NodeId) -> usize {
            self.route
        }

        fn writer_gone(&self, _: usize, _: SimTime) -> bool {
            self.gone
        }
    }

    /// A live writer; a remote SPE reader is served by rank 7.
    const ALIVE: Fixed = Fixed {
        route: 7,
        gone: false,
    };

    fn buf(hw: usize, len: u32) -> PendingReq {
        PendingReq {
            hw,
            addr: 0x100 * (hw as u32 + 1),
            len,
        }
    }

    fn request(op: u32, chan: usize, b: PendingReq, inline: Option<Vec<u8>>) -> CoEvent {
        let req = Request {
            op,
            chan: chan as u32,
            addr: b.addr,
            len: b.len,
        };
        CoEvent::Request {
            hw: b.hw,
            req,
            inline,
        }
    }

    fn resume(op: u32, chan: usize, b: PendingReq, data: Option<Vec<u8>>) -> Effect {
        let CoEvent::Request { hw, req, inline } = request(op, chan, b, data) else {
            unreachable!()
        };
        Effect::Resume { hw, req, inline }
    }

    fn mpi(chan: usize, data: &[u8]) -> CoEvent {
        CoEvent::Mpi(Msg {
            src: 0,
            tag: chan as i32,
            dtype: cp_mpisim::Datatype::Byte,
            count: data.len(),
            data: data.to_vec(),
        })
    }

    fn complete_ok(hw: usize, n: usize) -> Effect {
        complete(hw, completion_ok(n))
    }

    fn hop(chan_type: u8, what: &'static str) -> Option<Measure> {
        Some(Measure::ProxyHop { chan_type, what })
    }

    fn rec(op: Op, chan: usize, n: usize, hop: Option<Measure>) -> Effect {
        Effect::Record { op, chan, n, hop }
    }

    /// What delivering `n` bytes into read `b` on `chan` does (DMA path).
    fn delivered(rig: &Rig, chan: usize, b: PendingReq, data: &[u8], t: u8) -> Vec<Effect> {
        let n = data.len();
        vec![
            Effect::ReleaseCredit(chan),
            rig.charge("ea_translate_us"),
            Effect::LsStore {
                buf: b,
                data: data.to_vec(),
            },
            rig.memcpy(n),
            complete_ok(b.hw, n),
            rec(Op::CopilotDeliver, chan, n, hop(t, "deliver")),
        ]
    }

    /// An SPE write to an MPI reader: `to` is the reader's serving rank.
    fn assert_write_forwards(chan: usize, to: usize, chan_type: u8) {
        let mut rig = Rig::new();
        let w = buf(0, 3);
        let (pop, resumed) = rig.serve(request(OP_WRITE, chan, w, None), ALIVE);
        let prologue = vec![
            rig.charge("copilot_dispatch_us"),
            Effect::Report(EV_WRITE, chan),
            resume(OP_WRITE, chan, w, None),
        ];
        assert_eq!(pop, prologue);
        let tag = chan as i32;
        let forward = vec![
            rig.charge("ea_translate_us"),
            rig.memcpy(3),
            Effect::SendFromLs { buf: w, to, tag },
            complete_ok(0, 3),
            rec(Op::CopilotWrite, chan, 3, hop(chan_type, "forward")),
        ];
        assert_eq!(resumed, forward);
    }

    #[test]
    fn type2_type3_type5_writes_forward_over_mpi() {
        assert_write_forwards(T2_OUT, 0, 2);
        assert_write_forwards(T3_OUT, 1, 3);
        // A remote SPE reader: the live route names its node's serving
        // rank (7 here), the standby's after a failover.
        assert_write_forwards(T5_OUT, 7, 5);
    }

    /// An SPE read of MPI-borne data, the read posted first and then the
    /// data first.
    fn assert_read_delivers(chan: usize, chan_type: u8) {
        let mut rig = Rig::new();
        let r = buf(0, 8);
        let (pop, resumed) = rig.serve(request(OP_READ, chan, r, None), ALIVE);
        let prologue = vec![
            rig.charge("copilot_dispatch_us"),
            Effect::Report(EV_READWAIT, chan),
            resume(OP_READ, chan, r, None),
        ];
        assert_eq!(pop, prologue);
        assert_eq!(resumed, vec![], "no data yet: the read parks");
        let data = [1, 2, 3];
        let delivery = delivered(&rig, chan, r, &data, chan_type);
        assert_eq!(rig.step(mpi(chan, &data), None), delivery);

        let mut rig = Rig::new();
        assert_eq!(rig.step(mpi(chan, &data), None), vec![], "parked");
        let (pop, resumed) = rig.serve(request(OP_READ, chan, r, None), ALIVE);
        assert_eq!(pop, prologue);
        assert_eq!(resumed, delivery);
    }

    #[test]
    fn type2_type3_type5_reads_deliver_into_the_local_store() {
        assert_read_delivers(T2_IN, 2);
        assert_read_delivers(T3_IN, 3);
        assert_read_delivers(T5_IN, 5);
    }

    fn pairing(rig: &Rig, w: PendingReq, r: PendingReq) -> Vec<Effect> {
        let n = w.len as usize;
        vec![
            Effect::ReleaseCredit(T4),
            rig.charge("copilot_pair_poll_us"),
            charge("ea_translate_us", 2.0 * rig.cell.ea_translate_us),
            Effect::LsCopy { dst: r, src: w },
            complete_ok(w.hw, n),
            complete_ok(r.hw, n),
            rec(Op::CopilotPair, T4, n, None),
        ]
    }

    #[test]
    fn type4_pairs_in_either_arrival_order() {
        let (w, r) = (buf(0, 4), buf(1, 8));
        let write = || request(OP_WRITE, T4, w, None);
        let read = || request(OP_READ, T4, r, None);
        let mut rig = Rig::new();
        let (pop, parked) = rig.serve(write(), ALIVE);
        let dispatch = rig.charge("copilot_dispatch_us");
        let prologue = vec![
            rig.charge("copilot_dispatch_us"),
            Effect::Report(EV_WRITE, T4),
            resume(OP_WRITE, T4, w, None),
        ];
        assert_eq!(pop, prologue);
        assert_eq!(parked, vec![]);
        let (pop, paired) = rig.serve(read(), ALIVE);
        let read_prologue = vec![
            dispatch,
            Effect::Report(EV_READWAIT, T4),
            resume(OP_READ, T4, r, None),
        ];
        assert_eq!(pop, read_prologue);
        assert_eq!(paired, pairing(&rig, w, r));

        let mut rig = Rig::new();
        assert_eq!(rig.serve(read(), ALIVE).1, vec![]);
        assert_eq!(rig.serve(write(), ALIVE).1, pairing(&rig, w, r));
    }

    #[test]
    fn eager_write_to_a_local_reader_parks_then_goes_inline() {
        let mut rig = Rig::new();
        let (w, r) = (buf(0, 3), buf(1, 8));
        let data = vec![7, 8, 9];
        let ev = request(OP_WRITE_INLINE, EAGER_T4, w, Some(data.clone()));
        let (pop, resumed) = rig.serve(ev, ALIVE);
        let fast = rig.charge("copilot_eager_dispatch_us");
        let prologue = vec![
            rig.charge("copilot_eager_dispatch_us"),
            Effect::Report(EV_WRITE, EAGER_T4),
            complete_ok(0, 3),
            resume(OP_WRITE_INLINE, EAGER_T4, w, Some(data.clone())),
        ];
        assert_eq!(pop, prologue);
        assert_eq!(resumed, vec![rec(Op::CopilotWrite, EAGER_T4, 3, None)]);
        // The read on an eager channel takes the fast dispatch too.
        let (pop, resumed) = rig.serve(request(OP_READ, EAGER_T4, r, None), ALIVE);
        assert_eq!(pop[0], fast);
        let inline = vec![
            Effect::ReleaseCredit(EAGER_T4),
            Effect::MailboxWrite {
                hw: 1,
                word: completion_ok_inline(3),
                inline: Some(data),
            },
            rec(Op::CopilotDeliver, EAGER_T4, 3, hop(4, "deliver")),
        ];
        assert_eq!(resumed, inline);
    }

    #[test]
    fn eager_write_to_an_mpi_reader_completes_then_forwards() {
        let mut rig = Rig::new();
        let w = buf(0, 2);
        let ev = request(OP_WRITE_INLINE, EAGER_OUT, w, Some(vec![5, 6]));
        let (pop, resumed) = rig.serve(ev, ALIVE);
        let prologue = vec![
            rig.charge("copilot_eager_dispatch_us"),
            Effect::Report(EV_WRITE, EAGER_OUT),
            complete_ok(0, 2),
            resume(OP_WRITE_INLINE, EAGER_OUT, w, Some(vec![5, 6])),
        ];
        assert_eq!(pop, prologue);
        let forward = vec![
            Effect::MpiSend {
                to: MAIN,
                tag: EAGER_OUT as i32,
                data: vec![5, 6],
            },
            rec(Op::CopilotWrite, EAGER_OUT, 2, hop(2, "forward")),
        ];
        assert_eq!(resumed, forward);
        // An eager channel's MPI-borne data that fits goes inline too.
        let r = buf(0, 8);
        rig.serve(request(OP_READ, EAGER_IN, r, None), ALIVE);
        assert_eq!(
            rig.step(mpi(EAGER_IN, &[4]), None)[1],
            Effect::MailboxWrite {
                hw: 0,
                word: completion_ok_inline(1),
                inline: Some(vec![4]),
            }
        );
    }

    #[test]
    fn poll_answers_at_once_from_the_tables() {
        let mut rig = Rig::new();
        let p = buf(0, 0);
        let dispatch = rig.charge("copilot_dispatch_us");
        let poll = |rig: &mut Rig| rig.serve(request(OP_POLL, T2_IN, p, None), ALIVE);
        assert_eq!(
            poll(&mut rig),
            (
                vec![rig.charge("copilot_dispatch_us"), complete_ok(0, 0)],
                vec![]
            )
        );
        rig.step(mpi(T2_IN, &[1]), None);
        assert_eq!(poll(&mut rig), (vec![dispatch, complete_ok(0, 1)], vec![]));
    }

    #[test]
    fn overflow_fails_the_read_and_returns_the_credit() {
        let mut rig = Rig::new();
        let r = buf(0, 2);
        rig.serve(request(OP_READ, T2_IN, r, None), ALIVE);
        let overflow = completion_err(CompletionError::Overflow);
        let failed = vec![
            Effect::ReleaseCredit(T2_IN),
            rig.charge("ea_translate_us"),
            complete(0, overflow),
        ];
        assert_eq!(rig.step(mpi(T2_IN, &[1, 2, 3]), None), failed);

        let (w, r) = (buf(0, 9), buf(1, 8));
        rig.serve(request(OP_WRITE, T4, w, None), ALIVE);
        let (_, paired) = rig.serve(request(OP_READ, T4, r, None), ALIVE);
        let failed = vec![
            Effect::ReleaseCredit(T4),
            rig.charge("copilot_pair_poll_us"),
            charge("ea_translate_us", 2.0 * rig.cell.ea_translate_us),
            complete(0, overflow),
            complete(1, overflow),
        ];
        assert_eq!(paired, failed);
    }

    #[test]
    fn read_from_a_dead_writer_fails_with_peer_lost() {
        let mut rig = Rig::new();
        let gone = Fixed {
            route: 7,
            gone: true,
        };
        let (_, resumed) = rig.serve(request(OP_READ, T2_IN, buf(0, 8), None), gone);
        let text = "Co-Pilot on node 0 failing read on channel 0: writer 'main' is lost";
        let lost = vec![
            Effect::Incident(IncidentCategory::PeerLost, text.into()),
            complete(0, completion_err(CompletionError::PeerLost)),
        ];
        assert_eq!(resumed, lost);
    }

    #[test]
    fn stall_fires_once_then_die_retires_the_primary_only() {
        let mut rig = Rig::new();
        let d = SimDuration::from_micros(50);
        rig.stall = Some(CopilotStall {
            node: NodeId(0),
            at: SimTime(2_000),
            duration: d,
        });
        assert_eq!(rig.step(CoEvent::Shutdown, None), vec![Effect::Shutdown]);
        rig.now = SimTime(3_000);
        let text = format!(
            "Co-Pilot on node 0 unresponsive for {d} (scheduled at {})",
            SimTime(2_000)
        );
        let death = format!(
            "Co-Pilot on node 0 killed by fault plan at {}",
            SimTime(53_000)
        );
        let stalled_death = vec![
            Effect::Incident(IncidentCategory::CopilotStall, text),
            Effect::Charge("stall", d),
            Effect::Incident(IncidentCategory::CopilotDeath, death),
            Effect::Retire,
        ];
        assert_eq!(rig.step(CoEvent::Die, None), stalled_death);
        assert!(rig.st.stall_done);
        assert_eq!(rig.step(CoEvent::Shutdown, None), vec![Effect::Shutdown]);
        rig.standby = true;
        assert_eq!(rig.step(CoEvent::Die, None), vec![], "stale at the standby");
    }

    #[test]
    fn multicast_fans_out_to_each_channel() {
        let mut rig = Rig::new();
        let r = buf(0, 8);
        rig.serve(request(OP_READ, T2_IN, r, None), ALIVE);
        let msg = Msg {
            src: 0,
            tag: CP_MCAST_TAG,
            dtype: cp_mpisim::Datatype::Byte,
            count: 0,
            data: encode_mcast(&[T2_IN as u32, T3_IN as u32], &[9]),
        };
        let fanned = rig.step(CoEvent::Mpi(msg), None);
        assert_eq!(fanned, delivered(&rig, T2_IN, r, &[9], 2));
        assert_eq!(rig.st.pending_mpi[&T3_IN], VecDeque::from([vec![9]]));
    }
}
