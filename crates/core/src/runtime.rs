//! The execution-phase handle for PPE / non-Cell processes: channel I/O on
//! all five channel types, SPE process control (`PI_RunSPE`), and the
//! end-of-run synchronization.

use crate::config::{SupervisionPolicy, TypedChannel};
use crate::costs::CellPilotCosts;
use crate::error::CpError;
use crate::location::{ChannelKind, ChannelMode, CpChannel, CpProcess, Location};
use crate::spe_rt::JournalEntry;
use crate::tables::{CpTables, NodeShared, ProcKind};
use cp_des::{IncidentCategory, Pid, ProcCtx, SimDuration, SimTime, Step};
use cp_mpisim::{Comm, Datatype, SrcSel};
use cp_pilot::{
    fmt::parse_format, PiScalar, PiValue, PilotCosts, PilotError, RankEndpoint, Route, EV_READWAIT,
    EV_WRITE,
};
use cp_simnet::{Cluster, FaultPlan, NodeId, ParkedReader};
use cp_trace::{Measure, Op};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The granularity of the library's virtual-time polls: a one-sided
/// doorbell, a window registration, a credit, a fence.
pub(crate) const POLL: SimDuration = SimDuration::from_micros(1);

/// A one-sided reader's looks at its doorbell: one every [`POLL`] from the
/// instant `origin` its read began. The first look at or after `t`.
pub(crate) fn doorbell_look(origin: SimTime, t: SimTime) -> SimTime {
    let period = POLL.as_nanos();
    let k = t
        .as_nanos()
        .saturating_sub(origin.as_nanos())
        .div_ceil(period);
    SimTime(origin.as_nanos() + k * period)
}

/// The look before the first one at or after a put landing at `lands`:
/// the last look of a reader that polls it which finds the window empty.
pub(crate) fn look_before_landing(origin: SimTime, lands: SimTime) -> SimTime {
    doorbell_look(
        origin,
        SimTime(lands.as_nanos().saturating_sub(POLL.as_nanos())),
    )
}

/// State shared by every process of a CellPilot application.
pub(crate) struct AppShared {
    /// The per-channel credit ledger (see [`crate::flow`]): bounds
    /// in-flight messages on every bounded channel, whatever hops the
    /// channel type routes through. Application-wide (not per-node) so a
    /// standby Co-Pilot inherits the accounting across a failover.
    pub flow: crate::flow::FlowControl,
    pub tables: Arc<CpTables>,
    /// Cluster hardware: node handles plus the interconnect cost model the
    /// one-sided fabric charges its transfers against.
    pub cluster: Arc<Cluster>,
    /// The one-sided window fabric: the cluster-wide table of EA-mapped
    /// local-store windows plus their landed-put queues (see
    /// [`cp_simnet::WindowFabric`]).
    pub fabric: cp_simnet::WindowFabric,
    /// Next put sequence number per one-sided channel. Monotonic across
    /// the whole run so the fabric's wire-seq dedup delivers exactly once
    /// through crash-restarts and Co-Pilot failovers.
    pub put_seqs: Mutex<HashMap<usize, u64>>,
    pub node_shared: HashMap<NodeId, Arc<NodeShared>>,
    pub costs: CellPilotCosts,
    pub pilot_costs: PilotCosts,
    /// SPE processes currently running (guards double `PI_RunSPE`).
    pub running_spes: Mutex<HashSet<usize>>,
    /// Rank-side per-read deadline (None = block indefinitely).
    pub channel_timeout: Option<SimDuration>,
    /// The fault plan the cluster runs under (empty when healthy).
    pub faults: Arc<FaultPlan>,
    /// SPE restart policy; `None` keeps fail-stop semantics.
    pub supervision: Option<SupervisionPolicy>,
    /// SPE processes permanently gone: crashed unsupervised, or supervised
    /// past their restart budget. Their channels degrade to `PeerLost`.
    pub failed_spes: Mutex<HashSet<usize>>,
    /// Per-supervised-SPE op journals (checkpoint cursors for restart
    /// replay); an entry lives only while its `run_spe` is in flight.
    pub journals: Mutex<HashMap<usize, Vec<JournalEntry>>>,
    /// The MPI rank currently serving each Cell node's Co-Pilot duties —
    /// the standby's rank after a failover. Starts as `copilot_ranks`.
    pub copilot_route: Mutex<BTreeMap<NodeId, usize>>,
    /// Cluster-wide observability recorder (disabled by default; one
    /// branch per channel operation when disabled).
    pub recorder: cp_trace::Recorder,
}

impl AppShared {
    /// The rank to address for `node`'s Co-Pilot right now.
    pub(crate) fn copilot_rank(&self, node: NodeId) -> usize {
        self.copilot_route.lock()[&node]
    }

    /// Allocate the next put sequence number for one-sided channel `chan`.
    pub(crate) fn next_put_seq(&self, chan: usize) -> u64 {
        let mut seqs = self.put_seqs.lock();
        let s = seqs.entry(chan).or_insert(0);
        let seq = *s;
        *s += 1;
        seq
    }

    /// Execute one one-sided put on `chan` from the process `who` running
    /// on `from_node`: pay the writer's DMA `setup`, if any, wait for the
    /// reader to register its window, charge the fabric transport for the
    /// hop, land the bytes in the window's local store, and apply the
    /// exactly-once fabric put — the reader finds the payload by its own
    /// doorbell, which the put rings with its landing instant before the
    /// bytes leave; no Co-Pilot is interrupted. One hop, no relay buffering.
    /// Returns the window capacity on overflow. The whole put is one wait
    /// driven for the writer ([`ProcCtx::drive`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn one_sided_put(
        self: &Arc<Self>,
        ctx: &ProcCtx,
        who: &Arc<str>,
        chan: usize,
        from_node: NodeId,
        data: Vec<u8>,
        setup: Option<SimDuration>,
    ) -> Result<usize, u32> {
        let (shared, c, who) = (self.clone(), ctx.clone(), who.clone());
        ctx.drive(async move {
            if let Some(d) = setup {
                Step::Advance(d).await;
            }
            shared.put(&c, &who, chan, from_node, data).await
        })
    }

    /// [`AppShared::one_sided_put`] after the DMA setup.
    async fn put(
        &self,
        ctx: &ProcCtx,
        who: &Arc<str>,
        chan: usize,
        from_node: NodeId,
        data: Vec<u8>,
    ) -> Result<usize, u32> {
        // The reader registers its window when its SPE process starts; a
        // writer that gets here first polls deterministically, modelling
        // the one-time window-handle exchange of an RDMA setup.
        let desc = loop {
            if let Some(d) = self.fabric.window(chan as u32) {
                break d;
            }
            Step::Advance(POLL).await;
        };
        if data.len() as u64 > u64::from(desc.len) {
            return Err(desc.len);
        }
        let n = data.len();
        let t0 = ctx.now();
        let seq = self.next_put_seq(chan);
        let to_node = NodeId(desc.node);
        let flight = self.cluster.transfer_delay(t0, from_node, to_node, n);
        // Ring the doorbell: a reader parked on it is woken for the look
        // before the first one that can find the payload (or, that look
        // being past, for the next one).
        let lands = t0 + flight;
        if let Some(reader) = self.fabric.announce(chan as u32, lands) {
            let at =
                look_before_landing(reader.origin, lands).max(doorbell_look(reader.origin, t0));
            wake_reader(ctx, reader, at);
        }
        Step::Advance(flight).await;
        let ns = &self.node_shared[&to_node];
        let cell = &ns.cell;
        cell.ea_write(
            cell.ls_effective_address(desc.spe, desc.start as usize),
            &data,
        )
        .expect("window within local store");
        if let Some(r) = ns.hb_recorder() {
            r.record_hb(
                &ctx.name(),
                ctx.now().as_nanos(),
                cp_trace::HbOp::OneSidedPut {
                    chan: chan as u32,
                    node: desc.node,
                    spe: desc.spe,
                    start: desc.start,
                    len: n as u32,
                    seq,
                },
            );
        }
        // `Duplicate` means a failover replay re-applied a put the fabric
        // already saw: the wire-seq dedup swallows it and the reader will
        // never observe the payload twice.
        let _status = self
            .fabric
            .put(chan as u32, seq, data)
            .expect("window stays registered for the run");
        // A reader parks only while no put is announced, so none is parked
        // here on the simulator; a wall-clock writer that lands later than
        // it announced may find one.
        if let Some(reader) = self.fabric.unpark(chan as u32) {
            wake_reader(ctx, reader, ctx.now());
        }
        let put = Measure::OneSided {
            put: true,
            t0_ns: t0.0,
        };
        self.recorder
            .record_op(ctx.now().0, who, Some(Op::OneSidedPut), chan, n, Some(put));
        Ok(n)
    }

    /// Consume one send credit on `chan` before a write enters the
    /// pipeline, engaging the channel's [`crate::OverloadPolicy`] when the
    /// channel is at capacity.
    ///
    /// Below capacity (and on every unbounded channel) this is a pure
    /// lock-guarded check — no virtual time, no kernel events — so runs
    /// that never saturate a channel are schedule-identical to runs
    /// without flow control. At capacity:
    ///
    /// * `Block` polls (virtual time in the sim, wall-clock on the native
    ///   backend, same idiom as [`AppShared::fence_on`]) until the reader
    ///   drains a message; no incidents — backpressure is the contract.
    /// * `Shed` reports `overload` + `message-shed` incidents and fails
    ///   with [`CpError::Backpressure`] without waiting.
    /// * `DeadlineDrop(d)` polls like `Block` up to `d`, then sheds.
    pub(crate) fn acquire_credit(
        self: &Arc<Self>,
        ctx: &ProcCtx,
        who: &str,
        chan: usize,
    ) -> Result<(), CpError> {
        use crate::flow::{Acquire, OverloadPolicy};
        let capacity = match self.flow.try_acquire(chan) {
            Acquire::Granted { depth } => {
                self.record_queue_depth(chan, depth);
                return Ok(());
            }
            Acquire::Full { capacity } => capacity,
        };
        let policy = self.tables.channels[chan].policy;
        // How long to poll for a credit: `Block` never gives up.
        let deadline = match policy {
            OverloadPolicy::Shed => None,
            OverloadPolicy::DeadlineDrop(d) => Some(ctx.now() + d),
            OverloadPolicy::Block => Some(SimTime(u64::MAX)),
        };
        if let Some(deadline) = deadline {
            if self.recorder.is_enabled() {
                self.recorder.record_backpressure_wait(chan as u32);
            }
            let (shared, c) = (self.clone(), ctx.clone());
            let granted = ctx.drive(async move {
                while c.now() < deadline {
                    Step::Advance(POLL).await;
                    if let Acquire::Granted { depth } = shared.flow.try_acquire(chan) {
                        shared.record_queue_depth(chan, depth);
                        return true;
                    }
                }
                false
            });
            if granted {
                return Ok(());
            }
        }
        // Shed (immediately, or after an expired deadline wait).
        let detail = match policy {
            OverloadPolicy::Shed => "message shed without waiting".to_string(),
            OverloadPolicy::DeadlineDrop(d) => {
                format!("message shed after waiting its {d} credit deadline")
            }
            OverloadPolicy::Block => unreachable!("Block never sheds"),
        };
        self.flow.note_shed(chan);
        if self.recorder.is_enabled() {
            self.recorder.record_shed(chan as u32);
        }
        let err = CpError::Backpressure(crate::error::OverloadError {
            channel: chan,
            capacity,
            policy: policy.as_str(),
            detail,
        });
        ctx.report_incident(
            IncidentCategory::Overload,
            &format!(
                "process '{who}': channel {chan} at capacity ({capacity} in flight, \
                 policy {})",
                policy.as_str()
            ),
        );
        ctx.report_incident(
            IncidentCategory::MessageShed,
            &format!("process '{who}': {err}"),
        );
        Err(err)
    }

    /// Return the send credit of one drained (or unwound) message on
    /// `chan`. Saturating and tolerant of out-of-range ids, so relay-side
    /// callers can release unconditionally.
    pub(crate) fn release_credit(&self, chan: usize) {
        self.flow.release(chan);
    }

    /// Record a bounded channel's queue depth (in-flight count at send
    /// time) in the observability recorder.
    fn record_queue_depth(&self, chan: usize, depth: usize) {
        if self.recorder.is_enabled() && self.flow.capacity(chan).is_some() {
            self.recorder.record_queue_depth(chan as u32, depth as u64);
        }
    }

    /// Whether the writer of channel `chan` is permanently gone — the
    /// liveness check behind blocking reads (a reader must fail with
    /// `PeerLost` rather than wait forever on a dead writer).
    pub(crate) fn chan_writer_gone(&self, chan: usize, now: SimTime) -> bool {
        let from = self.tables.ends(chan).from;
        match self.tables.processes[from].location {
            crate::location::Location::Rank { rank, .. } => {
                self.faults.death_of(rank).is_some_and(|at| now >= at)
            }
            crate::location::Location::Spe { .. } => self.spe_gone(from, now),
        }
    }

    /// When the fault plan has the writer of `chan` gone for good: a
    /// rank's death, or the crash of an SPE nobody restarts. (A supervised
    /// SPE is gone only once abandoned, which [`AppShared::abandon_spe`]
    /// tells its readers.)
    pub(crate) fn scripted_writer_loss(&self, chan: usize) -> Option<SimTime> {
        let from = self.tables.ends(chan).from;
        match self.tables.processes[from].location {
            Location::Rank { rank, .. } => self.faults.death_of(rank),
            Location::Spe { .. } if self.supervision.is_some() => None,
            Location::Spe { .. } => self.faults.spe_crash_of(from),
        }
    }

    /// Mark SPE process `proc` gone for good, and wake the readers parked
    /// on the windows it writes for their next look, which finds it gone.
    fn abandon_spe(&self, ctx: &ProcCtx, proc: usize) {
        self.failed_spes.lock().insert(proc);
        for (chan, e) in self.tables.channels.iter().enumerate() {
            if self.tables.ends(chan).from != proc || e.mode != ChannelMode::OneSided {
                continue;
            }
            if let Some(reader) = self.fabric.unpark(chan as u32) {
                wake_reader(ctx, reader, doorbell_look(reader.origin, ctx.now()));
            }
        }
    }

    /// Whether channel `chan` is one-sided.
    pub(crate) fn one_sided_chan(&self, chan: usize) -> bool {
        self.tables
            .channels
            .get(chan)
            .is_some_and(|e| e.mode == ChannelMode::OneSided)
    }

    /// One-sided fence body shared by the rank- and SPE-side handles:
    /// block (in virtual time) until every put applied on `chan` has been
    /// taken by the reader, i.e. the window is drained.
    pub(crate) fn fence_on(
        self: &Arc<Self>,
        ctx: &ProcCtx,
        chan: CpChannel,
    ) -> Result<(), CpError> {
        let (_, entry) = self.tables.channel(chan.0)?;
        if entry.mode != ChannelMode::OneSided {
            return Err(CpError::WindowMisuse {
                channel: chan.0,
                detail: "fence is only meaningful on one-sided channels".into(),
            });
        }
        let shared = self.clone();
        ctx.drive(async move {
            while !shared.drained(chan.0) {
                Step::Advance(POLL).await;
            }
        });
        Ok(())
    }

    /// Whether the reader has taken every put applied on one-sided `chan`.
    fn drained(&self, chan: usize) -> bool {
        // No window yet means no put ever waited on one: drained.
        !matches!(self.fabric.pending(chan as u32), Ok(n) if n > 0)
    }

    /// Whether the SPE process behind `proc` is permanently gone. Under
    /// supervision only an *abandoned* process counts (a crashed one is
    /// being restarted); without it, a scheduled crash whose time has
    /// passed is final, matching the old fail-stop semantics.
    pub(crate) fn spe_gone(&self, proc: usize, now: SimTime) -> bool {
        if self.supervision.is_some() {
            self.failed_spes.lock().contains(&proc)
        } else {
            self.faults.spe_crash_of(proc).is_some_and(|at| now >= at)
        }
    }
}

/// Wake `reader`, parked on its doorbell, for its look at `at` — unless its
/// own deadline comes first.
fn wake_reader(ctx: &ProcCtx, reader: ParkedReader, at: SimTime) {
    if reader.deadline.is_some_and(|deadline| deadline <= at) {
        return;
    }
    ctx.unblock(reader.pid, at - ctx.now());
}

/// A handle to a launched SPE process, joinable with
/// [`CellPilot::wait_spe`].
#[derive(Debug, Clone, Copy)]
pub struct SpeTask {
    pub(crate) pid: Pid,
    pub(crate) process: CpProcess,
}

impl SpeTask {
    /// The SPE process this task is an execution of.
    pub fn process(&self) -> CpProcess {
        self.process
    }
}

/// The per-process handle of a PPE or non-Cell CellPilot process.
pub struct CellPilot {
    /// This process's channel endpoint: Pilot's, so a type-1 channel is
    /// plain Pilot.
    pub(crate) ep: RankEndpoint,
    pub(crate) shared: Arc<AppShared>,
    pub(crate) me: CpProcess,
    pub(crate) spawned: Mutex<Vec<SpeTask>>,
}

impl CellPilot {
    /// The handle of rank process `me`, attached to `comm`.
    pub(crate) fn new(comm: Comm, shared: Arc<AppShared>, me: CpProcess) -> CellPilot {
        let ep = RankEndpoint::new(
            comm,
            shared.pilot_costs.clone(),
            shared.tables.name(me.0).clone(),
            shared.recorder.clone(),
            shared.tables.detector_rank,
            shared.channel_timeout,
        );
        CellPilot {
            ep,
            shared,
            me,
            spawned: Mutex::new(Vec::new()),
        }
    }

    /// This process's handle.
    pub fn process(&self) -> CpProcess {
        self.me
    }

    /// This process's configured name.
    pub fn name(&self) -> String {
        self.proc_name().to_string()
    }

    /// This process's configured name, borrowed from the tables.
    pub(crate) fn proc_name(&self) -> &Arc<str> {
        self.ep.name()
    }

    /// Total CellPilot processes (rank-backed and SPE).
    pub fn process_count(&self) -> usize {
        self.shared.tables.processes.len()
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.shared.tables.processes[self.me.0].location.node()
    }

    /// The channel's Table-I classification.
    pub fn channel_kind(&self, chan: CpChannel) -> Result<ChannelKind, CpError> {
        Ok(self.shared.tables.channel(chan.0)?.1.kind)
    }

    /// The simulated-process context (for modelling compute time).
    pub fn ctx(&self) -> &ProcCtx {
        self.ep.ctx()
    }

    /// The MPI communicator.
    pub(crate) fn comm(&self) -> &Comm {
        self.ep.comm()
    }

    /// Report a `kind` event on channel `chan` to the deadlock service.
    pub(crate) fn report_chan(&self, kind: u8, chan: usize) {
        self.ep
            .report(crate::dlsvc::chan_event(&self.shared.tables, kind, chan));
    }

    /// The name of process `p`.
    fn name_of(&self, p: usize) -> &str {
        self.shared.tables.name(p)
    }

    /// Begin a write (`EV_WRITE`) or read (`EV_READWAIT`) on `chan`.
    fn route(&self, kind: u8, chan: usize) -> Route<'_> {
        let tables = &self.shared.tables;
        let (ends, entry) = (tables.ends(chan), &tables.channels[chan]);
        let peer = if kind == EV_WRITE { ends.to } else { ends.from };
        let event = crate::dlsvc::chan_event(tables, kind, chan);
        self.ep.route(
            chan,
            self.name_of(peer),
            event,
            Some(entry.kind.type_number()),
        )
    }

    /// `PI_Write` from a PPE / non-Cell process: works on every channel
    /// type whose writer is this process; the library routes via plain MPI
    /// (type 1) or the reader's Co-Pilot (types 2/3) transparently.
    pub fn write(&self, chan: CpChannel, format: &str, values: &[PiValue]) -> Result<(), CpError> {
        let (ends, entry) = self.shared.tables.channel(chan.0)?;
        PilotError::check_writer(
            ends.from == self.me.0,
            chan.0,
            self.proc_name(),
            self.name_of(ends.from),
        )?;
        let route = self.route(EV_WRITE, chan.0);
        let msg = cp_pilot::pack_checked(format, values)?;
        self.shared
            .acquire_credit(self.ctx(), self.proc_name(), chan.0)?;
        self.ep.charge(msg.payload);
        if entry.mode == ChannelMode::OneSided {
            // One-sided transport: land the message directly in the reader
            // SPE's window over the fabric — no Co-Pilot relay hop.
            self.shared
                .one_sided_put(
                    self.ctx(),
                    self.proc_name(),
                    chan.0,
                    self.node(),
                    msg.data,
                    None,
                )
                .map_err(|cap| {
                    // The message never entered the pipeline: unwind its
                    // credit so a failed send does not leak capacity.
                    self.shared.release_credit(chan.0);
                    CpError::SpeBufferOverflow {
                        channel: chan.0,
                        capacity: cap as usize,
                    }
                })?;
            self.ep.report(route.event);
            // The put already logged the op: this only measures it.
            self.ep
                .record(None, chan.0, 0, route.measure(true, msg.payload));
            return Ok(());
        }
        let dest_rank = match self.shared.tables.processes[ends.to].location {
            Location::Rank { rank, .. } => rank,
            Location::Spe { node, .. } => self.shared.copilot_rank(node),
        };
        let gone = || self.shared.spe_gone(ends.to, self.ctx().now());
        self.ep.send(&route, dest_rank, msg, gone).map_err(|e| {
            // The send never took: unwind the credit (credit leaks on
            // failed sends would slowly strangle a bounded channel).
            self.shared.release_credit(chan.0);
            e.into()
        })
    }

    /// Typed `PI_Write`: send one slice of a single scalar type without
    /// spelling the Pilot format string — `cp.write_slice::<i32>(chan, &v)`
    /// is `cp.write(chan, "%*d", ..)`.
    pub fn write_slice<T: PiScalar>(&self, chan: CpChannel, data: &[T]) -> Result<(), CpError> {
        let format = format!("%*{}", T::CONV);
        self.write(chan, &format, &[T::wrap(data.to_vec())])
    }

    /// Typed `PI_Read`: receive one message of a single scalar type as a
    /// `Vec<T>` — `cp.read_vec::<f64>(chan)` is `cp.read(chan, "%*lf")`.
    pub fn read_vec<T: PiScalar>(&self, chan: CpChannel) -> Result<Vec<T>, CpError> {
        let format = format!("%*{}", T::CONV);
        let mut values = self.read(chan, &format)?;
        let v = values.pop().expect("format has exactly one segment");
        Ok(T::unwrap(v).expect("segment dtype verified against format"))
    }

    /// Typed write on a [`TypedChannel`]: the element type is fixed at
    /// configure time by [`crate::config::ChannelBuilder::typed`], so
    /// writer and reader cannot disagree about the payload scalar.
    pub fn send<T: PiScalar>(&self, chan: TypedChannel<T>, data: &[T]) -> Result<(), CpError> {
        self.write_slice(chan.channel(), data)
    }

    /// Typed read on a [`TypedChannel`] (see [`CellPilot::send`]).
    pub fn recv<T: PiScalar>(&self, chan: TypedChannel<T>) -> Result<Vec<T>, CpError> {
        self.read_vec(chan.channel())
    }

    /// One-sided fence: block (in virtual time) until every put applied on
    /// `chan` so far has been taken by the reader — the window is drained.
    /// Errors on rendezvous channels, where delivery is already
    /// synchronous.
    pub fn fence(&self, chan: CpChannel) -> Result<(), CpError> {
        self.shared.fence_on(self.ctx(), chan)
    }

    /// `PI_Read` from a PPE / non-Cell process.
    pub fn read(&self, chan: CpChannel, format: &str) -> Result<Vec<PiValue>, CpError> {
        let (ends, _) = self.shared.tables.channel(chan.0)?;
        PilotError::check_reader(
            ends.to == self.me.0,
            chan.0,
            self.proc_name(),
            self.name_of(ends.to),
        )?;
        let conv = parse_format(format)?;
        let route = self.route(EV_READWAIT, chan.0);
        let gone = || self.shared.spe_gone(ends.from, self.ctx().now());
        let raw = self.ep.recv(&route, self.chan_src_sel(ends.from), gone)?;
        // The message left the pipeline the moment it was received —
        // return its send credit even if the format check below fails.
        self.shared.release_credit(chan.0);
        Ok(self.ep.deliver(&route, &conv, &raw)?)
    }

    /// Non-blocking check whether a read on `chan` would find data.
    pub fn channel_has_data(&self, chan: CpChannel) -> Result<bool, CpError> {
        let (ends, _) = self.shared.tables.channel(chan.0)?;
        PilotError::check_reader(
            ends.to == self.me.0,
            chan.0,
            self.proc_name(),
            self.name_of(ends.to),
        )?;
        Ok(self.ep.has_data(chan.0, self.chan_src_sel(ends.from)))
    }

    /// The MPI source selector for channel data written by `from`: the
    /// writer's own rank or its node's Co-Pilot rank — or the wildcard
    /// when that node has a standby Co-Pilot, because the proxy rank can
    /// change mid-stream across a failover (the channel tag alone
    /// identifies the stream).
    fn chan_src_sel(&self, from: usize) -> SrcSel {
        match self.shared.tables.processes[from].location {
            Location::Rank { rank, .. } => Some(rank),
            Location::Spe { node, .. } => {
                if self.shared.tables.standby_ranks.contains_key(&node) {
                    None
                } else {
                    Some(self.shared.copilot_rank(node))
                }
            }
        }
    }

    /// `PI_RunSPE`: launch a dormant SPE process created with
    /// `PI_CreateSPE`. Only the SPE process's parent (the PPE process "in
    /// charge of" its Cell node) may launch it. `arg_int` and `arg_ptr`
    /// are handed to the SPE program entry (the `PI_SPE_PROCESS(int,
    /// void*)` arguments).
    pub fn run_spe(&self, proc: CpProcess, arg_int: i32, arg_ptr: u64) -> Result<SpeTask, CpError> {
        let entry = self
            .shared
            .tables
            .processes
            .get(proc.0)
            .ok_or(PilotError::NoSuchProcess(proc.0))?;
        let (program, parent) = match &entry.kind {
            ProcKind::Spe { program, parent } => (program.clone(), *parent),
            ProcKind::Rank => return Err(CpError::NotSpeProcess(proc.0)),
        };
        if parent != self.me {
            return Err(CpError::NotParent {
                spe_process: proc.0,
                caller: self.name(),
            });
        }
        {
            let mut running = self.shared.running_spes.lock();
            if !running.insert(proc.0) {
                return Err(CpError::AlreadyRunning(proc.0));
            }
        }
        let node = entry.location.node();
        let ns = self.shared.node_shared[&node].clone();
        let hw = match ns.claim_spe() {
            Some(hw) => hw,
            None => {
                self.shared.running_spes.lock().remove(&proc.0);
                return Err(CpError::NoFreeSpe { node: node.0 });
            }
        };
        let image = program.image_bytes + crate::costs::SPE_RUNTIME_FOOTPRINT;
        let shared = self.shared.clone();
        let body = {
            let ns = ns.clone();
            let program = program.clone();
            move |sctx: &ProcCtx| {
                // A scripted SPE crash unwinds out of the program entry with
                // the `SpeCrashUnwind` sentinel. Under supervision the work
                // function is restarted in place, replaying its op journal
                // so acknowledged channel operations are not re-issued;
                // otherwise (or once the restart budget is spent) the
                // process retires cleanly and only channels touching the
                // dead SPE fail. Any other unwind (a real panic, simulation
                // teardown) is re-raised after the same cleanup.
                let name = shared.tables.name(proc.0);
                let mut attempts = 0u32;
                loop {
                    let spe_ctx =
                        crate::spe_rt::SpeCtx::new(sctx.clone(), shared.clone(), proc, node, hw);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (program.entry)(&spe_ctx, arg_int, arg_ptr);
                    }));
                    spe_ctx.teardown();
                    match outcome {
                        Ok(()) => break,
                        Err(payload) if payload.is::<crate::spe_rt::SpeCrashUnwind>() => {
                            match shared.supervision {
                                Some(p) if attempts < p.max_restarts => {
                                    attempts += 1;
                                    sctx.report_incident(
                                        IncidentCategory::SpeRestart,
                                        &format!(
                                            "restarting SPE process '{name}' from its last \
                                             acknowledged operation (attempt {attempts}/{})",
                                            p.max_restarts
                                        ),
                                    );
                                    sctx.advance(p.restart_delay);
                                }
                                Some(p) => {
                                    shared.abandon_spe(sctx, proc.0);
                                    sctx.report_incident(
                                        IncidentCategory::SpeAbandoned,
                                        &format!(
                                            "SPE process '{name}' abandoned after {} restarts; \
                                             its channels degrade to peer-lost",
                                            p.max_restarts
                                        ),
                                    );
                                    break;
                                }
                                None => {
                                    shared.abandon_spe(sctx, proc.0);
                                    break;
                                }
                            }
                        }
                        Err(payload) => {
                            ns.release_spe(hw);
                            shared.running_spes.lock().remove(&proc.0);
                            shared.journals.lock().remove(&proc.0);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }
                ns.release_spe(hw);
                shared.running_spes.lock().remove(&proc.0);
                shared.journals.lock().remove(&proc.0);
            }
        };
        let pid = match ns
            .cell
            .start_spe(self.ctx(), hw, program.name(), image, body)
        {
            Ok(pid) => pid,
            Err(e) => {
                ns.release_spe(hw);
                self.shared.running_spes.lock().remove(&proc.0);
                return Err(e.into());
            }
        };
        let task = SpeTask { pid, process: proc };
        self.spawned.lock().push(task);
        self.shared.recorder.record_op(
            self.ctx().now().0,
            self.proc_name(),
            Some(Op::RunSpe),
            proc.0,
            0,
            None,
        );
        Ok(task)
    }

    /// Block until an SPE process launched by this process finishes.
    pub fn wait_spe(&self, task: SpeTask) {
        self.ctx().join(task.pid);
    }

    /// Launch every dormant SPE process this process parents (the common
    /// "start all my workers" idiom), with `arg_int` set to each process's
    /// configured index. Returns the tasks in process-id order.
    pub fn run_my_spes(&self) -> Vec<SpeTask> {
        let mine: Vec<(CpProcess, i32)> = self
            .shared
            .tables
            .processes
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match &e.kind {
                ProcKind::Spe { parent, .. } if *parent == self.me => Some((CpProcess(i), e.index)),
                _ => None,
            })
            .collect();
        mine.into_iter()
            .filter_map(|(p, index)| self.run_spe(p, index, 0).ok())
            .collect()
    }

    /// [`CellPilot::run_my_spes`] followed by waiting for them all —
    /// the whole body of a typical host process.
    pub fn run_and_wait_my_spes(&self) {
        for t in self.run_my_spes() {
            self.wait_spe(t);
        }
    }

    /// True while the given SPE process is running.
    pub fn spe_running(&self, proc: CpProcess) -> bool {
        self.shared.running_spes.lock().contains(&proc.0)
    }

    /// End-of-run synchronization: wait for this process's SPE children,
    /// run `PI_StopMain` with every other application rank
    /// ([`RankEndpoint::stop_main`]), then (on rank 0) tell the Co-Pilots
    /// to shut down. Called automatically when a process function or
    /// `main` returns.
    pub(crate) fn finish(&self) {
        let children: Vec<SpeTask> = std::mem::take(&mut *self.spawned.lock());
        for t in children {
            self.ctx().join(t.pid);
        }
        let tables = &self.shared.tables;
        if !self.ep.stop_main(tables.app_ranks()) || self.comm().rank() != 0 {
            return;
        }
        for &cp_rank in tables.copilot_ranks.values() {
            if self.shared.faults.death_of(cp_rank).is_some() {
                continue;
            }
            self.comm().send_bytes(
                cp_rank,
                crate::protocol::CP_SHUTDOWN_TAG,
                Datatype::Byte,
                0,
                Vec::new(),
            );
        }
    }

    /// Abort the application with a CellPilot diagnostic carrying the
    /// source location of the offending call.
    pub fn abort_loc(&self, err: &CpError, file: &str, line: u32) -> ! {
        self.ep.abort_loc(err, file, line)
    }
}

/// `PI_Write` from a PPE / non-Cell process, aborting with a
/// source-located diagnostic on misuse.
#[macro_export]
macro_rules! cp_write {
    ($p:expr, $chan:expr, $fmt:expr $(, $val:expr)* $(,)?) => {
        match $p.write($chan, $fmt, &[$(cp_pilot::PiValue::from($val)),*]) {
            Ok(()) => (),
            Err(e) => $p.abort_loc(&e, file!(), line!()),
        }
    };
}

/// `PI_Read` from a PPE / non-Cell process, aborting with a
/// source-located diagnostic on misuse.
#[macro_export]
macro_rules! cp_read {
    ($p:expr, $chan:expr, $fmt:expr) => {
        match $p.read($chan, $fmt) {
            Ok(v) => v,
            Err(e) => $p.abort_loc(&e, file!(), line!()),
        }
    };
}
