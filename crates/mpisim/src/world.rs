//! The MPI world: rank placement, communicator handles, and point-to-point
//! messaging with eager and rendezvous protocols.

use crate::costs::MpiCosts;
use crate::datatype::{decode_slice, encode_slice, Datatype, MpiScalar};
use crate::message::{
    Envelope, MailStore, Payload, Rank, RankDeadUnwind, Recv, SrcSel, Tag, TagSel,
};
use cp_des::{
    async_component, IncidentCategory, ProcCtx, SimDuration, SimError, SimReport, Simulation,
    Spawner, Step,
};
use cp_simnet::{Cluster, ClusterSpec, FaultPlan, LinkVerdict, NodeId, NodeKind, RetryPolicy};
use cp_trace::Recorder;
use std::fmt;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A fault surfaced by the fault-aware communication calls
/// ([`Comm::try_send_bytes`], [`Comm::try_recv_deadline`]).
///
/// The infallible calls ([`Comm::send_bytes`], [`Comm::recv`]) never produce
/// these: without a fault plan they cannot occur, and with one the infallible
/// calls abort the simulation with a diagnostic instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiFault {
    /// The peer rank was killed by the fault plan before the operation
    /// could complete.
    PeerLost {
        /// The dead peer.
        rank: Rank,
    },
    /// The operation's virtual-time deadline elapsed first.
    Timeout {
        /// Description of what was being waited for.
        what: String,
    },
    /// Every transmission of a message was dropped by the fault plan, and
    /// the retry budget is exhausted.
    SendLost {
        /// The destination rank.
        dst: Rank,
        /// Transmissions attempted (initial send + retries).
        attempts: u32,
    },
}

impl fmt::Display for MpiFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiFault::PeerLost { rank } => write!(f, "peer rank {rank} is dead"),
            MpiFault::Timeout { what } => write!(f, "deadline elapsed waiting for {what}"),
            MpiFault::SendLost { dst, attempts } => write!(
                f,
                "message to rank {dst} lost after {attempts} transmission attempts"
            ),
        }
    }
}

impl std::error::Error for MpiFault {}

/// A received message.
#[derive(Debug, Clone, PartialEq)]
pub struct Msg {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Element type.
    pub dtype: Datatype,
    /// Element count.
    pub count: usize,
    /// Canonical wire bytes.
    pub data: Vec<u8>,
}

impl Msg {
    /// Decode the payload as a slice of `T`, checking the datatype.
    pub fn decode<T: MpiScalar>(&self) -> Vec<T> {
        assert_eq!(
            self.dtype,
            T::DATATYPE,
            "datatype mismatch: message carries {}, caller wants {}",
            self.dtype,
            T::DATATYPE
        );
        decode_slice(&self.data)
    }
}

pub(crate) struct WorldInner {
    pub cluster: Arc<Cluster>,
    pub placement: Vec<NodeId>,
    pub costs: MpiCosts,
    pub boxes: Vec<MailStore>,
    pub faults: Arc<FaultPlan>,
    pub retry: RetryPolicy,
    next_rdv: AtomicU64,
    /// Cluster-unique wire sequence numbers (see [`Envelope::wire_seq`]).
    /// Starts at 1; 0 is the "unsequenced" sentinel.
    next_wire: AtomicU64,
    /// Observability hook, set once by [`MpiWorld::set_recorder`]; unset
    /// means recording is off at the cost of one load per check.
    recorder: OnceLock<Recorder>,
}

impl WorldInner {
    /// Mint the wire sequence number for one logical send. Deterministic
    /// under the DES kernel (exactly one process runs at a time).
    pub(crate) fn mint_wire_seq(&self) -> u64 {
        self.next_wire.fetch_add(1, Ordering::Relaxed)
    }

    /// The attached recorder, only if it actually records.
    pub(crate) fn recorder(&self) -> Option<&Recorder> {
        self.recorder.get().filter(|r| r.is_enabled())
    }
}

/// The set of ranks of one MPI job, mapped onto cluster nodes.
pub struct MpiWorld {
    pub(crate) inner: Arc<WorldInner>,
}

impl Clone for MpiWorld {
    fn clone(&self) -> Self {
        MpiWorld {
            inner: self.inner.clone(),
        }
    }
}

impl MpiWorld {
    /// Create a world with `placement[rank]` giving each rank's node.
    pub fn new(cluster: Arc<Cluster>, placement: Vec<NodeId>, costs: MpiCosts) -> MpiWorld {
        Self::with_faults(
            cluster,
            placement,
            costs,
            Arc::new(FaultPlan::new()),
            RetryPolicy::default(),
        )
    }

    /// Create a world whose fabric misbehaves according to `faults`, with
    /// senders recovering from injected loss under `retry`.
    pub fn with_faults(
        cluster: Arc<Cluster>,
        placement: Vec<NodeId>,
        costs: MpiCosts,
        faults: Arc<FaultPlan>,
        retry: RetryPolicy,
    ) -> MpiWorld {
        for nid in &placement {
            assert!(nid.0 < cluster.len(), "placement names missing node {nid}");
        }
        let boxes = (0..placement.len())
            .map(|r| MailStore::new(&format!("rank{r}")))
            .collect();
        MpiWorld {
            inner: Arc::new(WorldInner {
                cluster,
                placement,
                costs,
                boxes,
                faults,
                retry,
                next_rdv: AtomicU64::new(1),
                next_wire: AtomicU64::new(1),
                recorder: OnceLock::new(),
            }),
        }
    }

    /// Attach an observability [`Recorder`] (first call wins; call before
    /// launching ranks). The MPI layer reports logical sends/receives and
    /// payload bytes, per-attempt wire bytes, collectives, and the link
    /// verdicts the fault plan injects (drops → retransmits, delays,
    /// duplications). Recording never consumes virtual time.
    pub fn set_recorder(&self, recorder: Recorder) {
        let _ = self.inner.recorder.set(recorder);
    }

    /// The fault plan this world runs under (empty by default).
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.inner.faults
    }

    /// The retransmission policy senders use against injected loss.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.placement.len()
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.inner.placement[rank]
    }

    /// The cluster this world runs on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.inner.cluster
    }

    /// Redirect `from`'s mailbox to `to` (Co-Pilot failover): queued
    /// envelopes move across preserving arrival order, the dedup state
    /// merges, future deliveries to `from` land at `to`, and any process
    /// waiting on `from`'s mailbox finds it dead: its receive or rendezvous
    /// send future returns `None`, a blocking call unwinds. See
    /// [`MailStore::take_over`].
    pub fn take_over_rank(&self, ctx: &ProcCtx, from: Rank, to: Rank) {
        assert!(
            from < self.size(),
            "takeover source rank {from} out of range"
        );
        assert!(to < self.size(), "takeover target rank {to} out of range");
        assert_ne!(from, to, "a rank cannot take itself over");
        self.inner.boxes[from].take_over(ctx, &self.inner.boxes[to]);
    }

    /// Bind `rank` to the calling simulated process, yielding its
    /// communicator handle.
    pub fn attach(&self, ctx: &ProcCtx, rank: Rank) -> Comm {
        assert!(rank < self.size(), "rank {rank} out of range");
        Comm {
            inner: self.inner.clone(),
            rank,
            ctx: ctx.clone(),
        }
    }

    /// Spawn a simulated process for `rank` running `body`.
    ///
    /// If the fault plan schedules this rank's death, a companion reaper
    /// component is spawned that poisons the rank's mailbox at the scripted
    /// instant; the rank's process then retires cleanly (fail-stop) at its
    /// next communication call instead of failing the whole simulation.
    pub fn launch<S>(
        &self,
        sim: &mut S,
        rank: Rank,
        name: &str,
        body: impl FnOnce(Comm) + Send + 'static,
    ) where
        S: Spawner + ?Sized,
    {
        self.spawn_reaper(sim, rank);
        let world = self.clone();
        sim.spawn_boxed(
            name,
            Box::new(move |ctx| {
                let comm = world.attach(ctx, rank);
                let result = panic::catch_unwind(AssertUnwindSafe(|| body(comm)));
                if let Err(payload) = result {
                    if payload.downcast_ref::<RankDeadUnwind>().is_some() {
                        // Scripted fail-stop: the process retires quietly and
                        // its joiners are released as for a normal exit.
                        return;
                    }
                    panic::resume_unwind(payload);
                }
            }),
        );
    }

    /// [`MpiWorld::launch`] for a service rank whose body is a future: the
    /// process is a component ([`async_component`]), with the same pid, name
    /// and reaper. Its receives and sends return `None` once the rank's
    /// mailbox dies (a fault plan kills the rank, or another rank takes the
    /// mailbox over), where the thread form unwinds.
    pub fn launch_async<S, Fut>(
        &self,
        sim: &mut S,
        rank: Rank,
        name: &str,
        body: impl FnOnce(Comm) -> Fut + Send + 'static,
    ) where
        S: Spawner + ?Sized,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.spawn_reaper(sim, rank);
        let world = self.clone();
        sim.spawn_component(
            name,
            async_component(move |ctx| body(world.attach(&ctx, rank))),
        );
    }

    /// If the fault plan schedules `rank`'s death, spawn the component that
    /// poisons its mailbox at the scripted instant.
    fn spawn_reaper<S: Spawner + ?Sized>(&self, sim: &mut S, rank: Rank) {
        let Some(at) = self.inner.faults.death_of(rank) else {
            return;
        };
        let world = self.clone();
        let reaper = async_component(move |ctx| async move {
            Step::Advance(SimDuration::from_nanos(at.as_nanos())).await;
            world.inner.boxes[rank].poison(&ctx);
            ctx.report_incident(
                IncidentCategory::RankDeath,
                &format!("rank {rank} killed by fault plan at {at}"),
            );
        });
        sim.spawn_component(&format!("reaper-rank{rank}"), reaper);
    }
}

/// This rank's handle on the world (`MPI_COMM_WORLD` + the owning process).
/// Cheap to clone: a future that runs on the rank's behalf owns a clone.
#[derive(Clone)]
pub struct Comm {
    inner: Arc<WorldInner>,
    rank: Rank,
    ctx: ProcCtx,
}

impl Comm {
    /// This rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.inner.placement.len()
    }

    /// The simulated-process context driving this rank.
    pub fn ctx(&self) -> &ProcCtx {
        &self.ctx
    }

    /// The node this rank runs on.
    pub fn node(&self) -> NodeId {
        self.inner.placement[self.rank]
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: Rank) -> NodeId {
        self.inner.placement[rank]
    }

    /// The cluster hardware.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.inner.cluster
    }

    /// My node's processor kind.
    fn my_kind(&self) -> NodeKind {
        self.inner.cluster.kind(self.node())
    }

    fn is_wire(&self, peer: Rank) -> bool {
        self.node() != self.inner.placement[peer]
    }

    fn transport(&self, peer: Rank, bytes: usize) -> SimDuration {
        // transfer_delay reserves NIC occupancy when the cluster's
        // contention model is enabled; otherwise it is the plain formula.
        self.inner.cluster.transfer_delay(
            self.ctx.now(),
            self.node(),
            self.inner.placement[peer],
            bytes,
        )
    }

    /// This rank's software cost of sending or receiving `bytes`.
    fn side_cost(&self, bytes: usize, wire: bool) -> SimDuration {
        SimDuration::from_micros_f64(self.inner.costs.side_us(self.my_kind(), bytes, wire))
    }

    /// Count one collective participation (every rank entering a
    /// collective counts once, so an N-rank bcast records N).
    pub(crate) fn record_collective(&self, op: &str) {
        if let Some(r) = self.inner.recorder() {
            r.record_collective(op);
        }
    }

    /// The fault plan this rank's world runs under.
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.inner.faults
    }

    /// The retransmission policy this rank's world uses.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.inner.retry
    }

    /// True if the fault plan has already killed `rank` at this instant.
    pub fn peer_lost(&self, rank: Rank) -> bool {
        self.inner
            .faults
            .death_of(rank)
            .is_some_and(|at| self.ctx.now() >= at)
    }

    /// Fail-stop check: true once this rank's own scripted death time has
    /// passed (a blocking call then unwinds the process, which
    /// [`MpiWorld::launch`] retires).
    fn self_dead(&self) -> bool {
        self.peer_lost(self.rank)
    }

    /// Put one envelope on the fabric toward `dst`, consulting the fault
    /// plan at egress. Injected drops are retransmitted under the world's
    /// [`RetryPolicy`] (modelling link-level loss detection: the backoff is
    /// virtual time the NIC spends before retrying, so recovery timing is
    /// exactly reproducible); injected delays add latency; duplications
    /// deliver twice. `bytes` sizes the transport cost of each attempt.
    async fn put(&self, dst: Rank, mut env: Envelope, bytes: usize) -> Result<(), MpiFault> {
        let mut attempt = 0u32;
        loop {
            match self.put_attempt(dst, env, bytes, attempt) {
                Put::Sent => return Ok(()),
                Put::Lost(fault) => return Err(fault),
                Put::Dropped(back, backoff) => {
                    (env, attempt) = (back, attempt + 1);
                    Step::Advance(backoff).await;
                }
            }
        }
    }

    /// Transmission number `attempt` (from 0) of [`Comm::put`]: one egress
    /// verdict, no kernel call.
    fn put_attempt(&self, dst: Rank, env: Envelope, bytes: usize, attempt: u32) -> Put {
        let from = self.node();
        let to = self.inner.placement[dst];
        let retry = self.inner.retry;
        let recorder = self.inner.recorder();
        match self.inner.faults.egress(self.ctx.now(), from, to) {
            LinkVerdict::Deliver => {
                if let Some(r) = recorder {
                    r.record_wire(bytes as u64);
                }
                let latency = self.transport(dst, bytes);
                self.inner.boxes[dst].deliver(&self.ctx, env, latency);
                Put::Sent
            }
            LinkVerdict::Delay(extra) => {
                if let Some(r) = recorder {
                    r.record_wire(bytes as u64);
                    r.record_link_delay();
                }
                let latency = self.transport(dst, bytes) + extra;
                self.inner.boxes[dst].deliver(&self.ctx, env, latency);
                Put::Sent
            }
            LinkVerdict::Duplicate => {
                if let Some(r) = recorder {
                    r.record_wire(2 * bytes as u64);
                    r.record_link_duplicate();
                }
                let latency = self.transport(dst, bytes);
                self.inner.boxes[dst].deliver(&self.ctx, env.clone(), latency);
                self.inner.boxes[dst].deliver(&self.ctx, env, latency);
                Put::Sent
            }
            LinkVerdict::Drop => {
                if let Some(r) = recorder {
                    // The dropped attempt still occupied the wire.
                    r.record_wire(bytes as u64);
                    r.record_link_drop();
                }
                if attempt >= retry.max_retries {
                    return Put::Lost(MpiFault::SendLost {
                        dst,
                        attempts: attempt + 1,
                    });
                }
                if let Some(r) = recorder {
                    r.record_retransmit();
                }
                Put::Dropped(env, retry.backoff(attempt))
            }
        }
    }

    /// Send pre-encoded wire bytes. Small messages go eagerly (buffered);
    /// messages above the eager limit handshake via rendezvous, which
    /// blocks until the receiver has posted a matching receive.
    ///
    /// Infallible form of [`Comm::try_send_bytes`]: an unrecoverable
    /// injected fault aborts the simulation with a diagnostic. Without a
    /// fault plan the two are identical. [`Comm::send_bytes_async`] run on
    /// the rank's own thread.
    pub fn send_bytes(&self, dst: Rank, tag: Tag, dtype: Datatype, count: usize, data: Vec<u8>) {
        let c = self.clone();
        self.drive(async move { c.send_bytes_async(dst, tag, dtype, count, data).await });
    }

    /// [`Comm::send_bytes`] as a future: `None` once this rank's mailbox is
    /// dead (killed by the fault plan, or taken over mid-send), where the
    /// blocking form unwinds.
    pub async fn send_bytes_async(
        &self,
        dst: Rank,
        tag: Tag,
        dtype: Datatype,
        count: usize,
        data: Vec<u8>,
    ) -> Option<()> {
        match self.send_async(dst, tag, dtype, count, data).await? {
            Ok(()) => Some(()),
            Err(fault) => self
                .ctx
                .abort(&format!("MPI send to rank {dst} failed: {fault}")),
        }
    }

    /// Fault-aware send: like [`Comm::send_bytes`] but surfaces
    /// unrecoverable injected faults — a peer already killed by the plan, or
    /// a message dropped more times than the retry budget allows — instead
    /// of aborting. [`Comm::send_async`] run on the rank's own thread.
    pub fn try_send_bytes(
        &self,
        dst: Rank,
        tag: Tag,
        dtype: Datatype,
        count: usize,
        data: Vec<u8>,
    ) -> Result<(), MpiFault> {
        let c = self.clone();
        self.drive(async move { c.send_async(dst, tag, dtype, count, data).await })
    }

    /// The whole of [`Comm::try_send_bytes`] as a future, every wait an
    /// awaited [`Step`]: the send-side software cost, the eager put, or the
    /// rendezvous RTS → CTS → data with each transmission's drop / back-off
    /// retries, and a CTS wait bounded by the peer's scripted death. `None`
    /// when this rank's mailbox is dead — killed by the fault plan, or
    /// taken over while the send waits for its CTS. The blocking forms
    /// drive it on the rank's thread; a component (a Co-Pilot) awaits it.
    /// The kernel calls and their order are the same either way.
    pub async fn send_async(
        &self,
        dst: Rank,
        tag: Tag,
        dtype: Datatype,
        count: usize,
        data: Vec<u8>,
    ) -> Option<Result<(), MpiFault>> {
        assert!(dst < self.size(), "send to rank {dst} out of range");
        debug_assert_eq!(data.len(), count * dtype.wire_size());
        if self.self_dead() {
            return None;
        }
        if self.peer_lost(dst) {
            return Some(Err(MpiFault::PeerLost { rank: dst }));
        }
        let bytes = data.len();
        if let Some(r) = self.inner.recorder() {
            r.record_send(bytes as u64);
        }
        Step::Advance(self.side_cost(bytes, self.is_wire(dst))).await;
        // Each envelope mints its wire sequence number as it is built.
        let envelope = |payload| Envelope {
            src: self.rank,
            dst,
            tag,
            dtype,
            count,
            wire_seq: self.inner.mint_wire_seq(),
            payload,
        };
        if bytes <= self.inner.costs.eager_limit {
            return Some(self.put(dst, envelope(Payload::Data(data)), bytes).await);
        }
        // Rendezvous: RTS → (wait CTS) → data.
        let id = self.inner.next_rdv.fetch_add(1, Ordering::Relaxed);
        if let Err(fault) = self.put(dst, envelope(Payload::Rts { id, bytes }), 0).await {
            return Some(Err(fault));
        }
        // A peer scripted to die bounds the handshake wait, so its death
        // surfaces as PeerLost rather than a simulation deadlock.
        let deadline = self.inner.faults.death_of(dst).map(|death_at| {
            let now = self.ctx.now();
            now + (death_at.since(now) + self.inner.retry.backoff_cap)
        });
        let cts =
            |e: &Envelope| e.src == dst && matches!(e.payload, Payload::Cts { id: i } if i == id);
        let what = || format!("MPI rendezvous CTS from rank {dst}");
        match self
            .store()
            .recv_async(&self.ctx, what, cts, deadline)
            .await
        {
            Recv::Got(_) => {}
            Recv::TimedOut => return Some(Err(MpiFault::PeerLost { rank: dst })),
            Recv::Dead => return None,
        }
        Some(
            self.put(dst, envelope(Payload::RdvData { id, data }), bytes)
                .await,
        )
    }

    /// Send a typed slice.
    pub fn send<T: MpiScalar>(&self, dst: Rank, tag: Tag, data: &[T]) {
        self.send_bytes(dst, tag, T::DATATYPE, data.len(), encode_slice(data));
    }

    /// `MPI_Sendrecv`: a combined send and receive that cannot deadlock
    /// against its mirror image (the send is initiated before the receive
    /// blocks, and small sends are buffered).
    pub fn sendrecv<T: MpiScalar>(
        &self,
        dst: Rank,
        send_tag: Tag,
        data: &[T],
        src: Rank,
        recv_tag: Tag,
    ) -> Vec<T> {
        self.send(dst, send_tag, data);
        let (v, _) = self.recv_typed::<T>(Some(src), Some(recv_tag));
        v
    }

    /// Blocking receive matching `src`/`tag` selectors (`None` = wildcard;
    /// a wildcard tag matches only user tags ≥ 0).
    pub fn recv(&self, src: SrcSel, tag: TagSel) -> Msg {
        let c = self.clone();
        self.drive(async move { c.recv_async(src, tag).await })
    }

    /// Run one of this rank's futures for its thread with
    /// [`ProcCtx::drive`]: the thread form of [`Comm::recv_async`],
    /// [`Comm::send_async`] and the futures built on them, which own a
    /// clone of this `Comm`. A dead mailbox (`None`) unwinds the process,
    /// which [`MpiWorld::launch`] retires.
    pub fn drive<T: Send + 'static>(
        &self,
        fut: impl Future<Output = Option<T>> + Send + 'static,
    ) -> T {
        self.ctx
            .drive(fut)
            .unwrap_or_else(|| panic::resume_unwind(Box::new(RankDeadUnwind)))
    }

    /// This rank's matching store.
    fn store(&self) -> &MailStore {
        &self.inner.boxes[self.rank]
    }

    /// The whole of [`Comm::recv`] as a future, every wait an awaited
    /// [`Step`]: matching, eager data, the rendezvous RTS → CTS → data
    /// exchange including the grant's drop / back-off retries, and the
    /// receive-side software cost. `None` when the rank's mailbox is
    /// poisoned or taken over mid-receive. `Comm::recv` drives it on the
    /// rank's thread; a component (the Co-Pilot's MPI pump, the deadlock
    /// service) awaits it. The kernel calls and their order are the same
    /// either way.
    pub async fn recv_async(&self, src: SrcSel, tag: TagSel) -> Option<Msg> {
        let what = || recv_what(src, tag, "");
        match self
            .store()
            .recv_async(&self.ctx, what, user_match(src, tag), None)
            .await
        {
            Recv::Got(env) => self.finish_recv(env).await,
            Recv::TimedOut | Recv::Dead => None,
        }
    }

    /// Complete a receive whose header envelope is already in hand
    /// (answering a rendezvous RTS if needed, and charging receive costs).
    async fn finish_recv(&self, env: Envelope) -> Option<Msg> {
        let (src, tag, dtype, count) = (env.src, env.tag, env.dtype, env.count);
        let data = match env.payload {
            Payload::Data(data) => data,
            Payload::Rts { id, bytes: _ } => {
                // Grant the send and wait for the data. The grant passes
                // through the fault plan like any other message.
                let cts = Envelope {
                    src: self.rank,
                    dst: src,
                    tag,
                    dtype,
                    count: 0,
                    wire_seq: self.inner.mint_wire_seq(),
                    payload: Payload::Cts { id },
                };
                // If the grant is unrecoverably lost the run cannot
                // continue coherently.
                if let Err(fault) = self.put(src, cts, 0).await {
                    self.ctx.abort(&format!(
                        "MPI rendezvous grant to rank {src} failed: {fault}"
                    ));
                }
                let rdv_data = |e: &Envelope| {
                    e.src == src && matches!(e.payload, Payload::RdvData { id: i, .. } if i == id)
                };
                let what = || format!("MPI rendezvous data from rank {src}");
                match self
                    .store()
                    .recv_async(&self.ctx, what, rdv_data, None)
                    .await
                {
                    Recv::Got(Envelope {
                        payload: Payload::RdvData { data, .. },
                        ..
                    }) => data,
                    Recv::Got(_) => unreachable!("matched RdvData"),
                    Recv::TimedOut | Recv::Dead => return None,
                }
            }
            Payload::Cts { .. } | Payload::RdvData { .. } => {
                unreachable!("control payloads never match a user receive")
            }
        };
        if let Some(r) = self.inner.recorder() {
            r.record_recv(data.len() as u64);
        }
        Step::Advance(self.side_cost(data.len(), self.is_wire(src))).await;
        Some(Msg {
            src,
            tag,
            dtype,
            count,
            data,
        })
    }

    /// Fault-aware receive: like [`Comm::recv`] but gives up after
    /// `deadline` of virtual time. A missed deadline is [`MpiFault::Timeout`]
    /// — or [`MpiFault::PeerLost`] when a named source rank is already dead,
    /// so callers can tell "slow" from "gone".
    pub fn try_recv_deadline(
        &self,
        src: SrcSel,
        tag: TagSel,
        deadline: SimDuration,
    ) -> Result<Msg, MpiFault> {
        if self.self_dead() {
            panic::resume_unwind(Box::new(RankDeadUnwind));
        }
        let what = recv_what(src, tag, &format!(", deadline={deadline}"));
        let until = Some(self.ctx.now() + deadline);
        let pred = user_match(src, tag);
        let (c, w) = (self.clone(), what.clone());
        let got = self.drive(async move {
            match c
                .store()
                .recv_async(&c.ctx, || w.clone(), pred, until)
                .await
            {
                Recv::Got(env) => c.finish_recv(env).await.map(Some),
                Recv::TimedOut => Some(None),
                Recv::Dead => None,
            }
        });
        match (got, src) {
            (Some(msg), _) => Ok(msg),
            (None, Some(s)) if self.peer_lost(s) => Err(MpiFault::PeerLost { rank: s }),
            (None, _) => Err(MpiFault::Timeout { what }),
        }
    }

    /// Typed receive: decode as `T` and return with the source rank.
    pub fn recv_typed<T: MpiScalar>(&self, src: SrcSel, tag: TagSel) -> (Vec<T>, Rank) {
        let m = self.recv(src, tag);
        let r = m.src;
        (m.decode(), r)
    }

    /// Blocking probe: returns `(src, tag, dtype, count)` of the next
    /// matching message without consuming it.
    pub fn probe(&self, src: SrcSel, tag: TagSel) -> (Rank, Tag, Datatype, usize) {
        let env = self
            .store()
            .probe_where(&self.ctx, "MPI_Probe", user_match(src, tag));
        (env.src, env.tag, env.dtype, env.count)
    }

    /// Blocking probe with an arbitrary predicate over candidate messages
    /// (only eager-data / rendezvous-header envelopes are offered). Powers
    /// Pilot's `PI_Select`, which waits on *any* channel of a bundle.
    pub fn probe_match<F>(&self, what: &str, pred: F) -> (Rank, Tag, Datatype, usize)
    where
        F: Fn(&Envelope) -> bool,
    {
        let me = self.rank;
        let env = self.inner.boxes[me].probe_where(&self.ctx, what, |e| {
            e.matches_recv(None, Some(e.tag)) && pred(e)
        });
        (env.src, env.tag, env.dtype, env.count)
    }

    /// Non-blocking variant of [`Comm::probe_match`].
    pub fn iprobe_match<F>(&self, pred: F) -> Option<(Rank, Tag, Datatype, usize)>
    where
        F: Fn(&Envelope) -> bool,
    {
        let me = self.rank;
        self.inner.boxes[me]
            .iprobe(&self.ctx, |e| e.matches_recv(None, Some(e.tag)) && pred(e))
            .map(|e| (e.src, e.tag, e.dtype, e.count))
    }

    /// Non-blocking probe.
    pub fn iprobe(&self, src: SrcSel, tag: TagSel) -> Option<(Rank, Tag, Datatype, usize)> {
        self.store()
            .iprobe(&self.ctx, user_match(src, tag))
            .map(|e| (e.src, e.tag, e.dtype, e.count))
    }
}

/// Which envelopes a user receive with these selectors takes: a wildcard
/// tag matches only user tags ≥ 0.
fn user_match(src: SrcSel, tag: TagSel) -> impl Fn(&Envelope) -> bool {
    move |e| e.matches_recv(src, tag) && (tag.is_some() || e.tag >= 0)
}

/// A blocked receive as deadlock reports show it.
fn recv_what(src: SrcSel, tag: TagSel, extra: &str) -> String {
    format!("MPI_Recv(src={}, tag={}{extra})", Sel(src), Sel(tag))
}

/// A receive selector as text: the value, or `ANY` for a wildcard.
struct Sel<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for Sel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("ANY"),
        }
    }
}

/// Outcome of one transmission attempt ([`Comm::put_attempt`]).
enum Put {
    /// On the fabric (once, late, or twice — whatever the plan said).
    Sent,
    /// Dropped with retries left: the envelope back, and the backoff to
    /// spend before the next attempt.
    Dropped(Envelope, SimDuration),
    /// Dropped with the retry budget exhausted.
    Lost(MpiFault),
}

/// Run an SPMD program: build the cluster, place one rank per entry of
/// `placement`, run `program` on every rank, and return the simulation
/// report.
pub fn mpirun<F>(
    spec: &ClusterSpec,
    placement: Vec<NodeId>,
    costs: MpiCosts,
    program: F,
) -> Result<SimReport, SimError>
where
    F: Fn(Comm) + Send + Sync + 'static,
{
    let cluster = spec.build();
    let world = MpiWorld::new(cluster, placement, costs);
    let mut sim = Simulation::new();
    let program = Arc::new(program);
    for rank in 0..world.size() {
        let p = program.clone();
        world.launch(&mut sim, rank, &format!("rank{rank}"), move |comm| p(comm));
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::LongDouble;

    fn two_node_world() -> (Arc<Cluster>, MpiWorld) {
        let cluster = ClusterSpec::two_cells_one_xeon().build();
        let world = MpiWorld::new(
            cluster.clone(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0)],
            MpiCosts::default(),
        );
        (cluster, world)
    }

    #[test]
    fn typed_send_recv_roundtrip() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        let w = world.clone();
        world.launch(&mut sim, 0, "r0", |comm| {
            comm.send(1, 42, &[1i32, 2, 3]);
        });
        w.launch(&mut sim, 1, "r1", |comm| {
            let (v, src) = comm.recv_typed::<i32>(Some(0), Some(42));
            assert_eq!(v, vec![1, 2, 3]);
            assert_eq!(src, 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn internode_pingpong_matches_type1_baseline() {
        // PPE rank on node0 <-> PPE rank on node1 over the wire: the paper's
        // raw-MPI type-1 baseline is 98 us for 1 B and 160 us for 1600 B.
        let (_c, world) = two_node_world();
        for (elem_count, low, high) in [(1usize, 95.0, 101.0), (100, 155.0, 166.0)] {
            let mut sim = Simulation::new();
            let w = world.clone();
            let reps = 10u32;
            world.launch(&mut sim, 0, "r0", move |comm| {
                let payload = vec![LongDouble(1.0); elem_count];
                let one = vec![0u8; 1];
                let t0 = comm.ctx().now();
                for _ in 0..reps {
                    if elem_count == 1 {
                        comm.send(1, 0, &one);
                    } else {
                        comm.send(1, 0, &payload);
                    }
                    let _ = comm.recv(Some(1), Some(0));
                }
                let total = (comm.ctx().now() - t0).as_micros_f64();
                let one_way = total / (2.0 * reps as f64);
                assert!(
                    one_way > low && one_way < high,
                    "one-way {one_way} us outside [{low},{high}]"
                );
            });
            w.launch(&mut sim, 1, "r1", move |comm| {
                for _ in 0..reps {
                    let m = comm.recv(Some(0), Some(0));
                    comm.send_bytes(0, 0, m.dtype, m.count, m.data);
                }
            });
            sim.run().unwrap();
        }
    }

    #[test]
    fn local_ranks_use_shmem_path() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        let w = world.clone();
        world.launch(&mut sim, 0, "r0", |comm| {
            comm.send(3, 1, &[9u8]);
        });
        w.launch(&mut sim, 3, "r3", |comm| {
            let t0 = comm.ctx().now();
            let _ = comm.recv(Some(0), Some(1));
            let us = (comm.ctx().now() - t0).as_micros_f64();
            // 6 (sender sw, shmem path) + 5 (shmem) + 6 (receiver sw) ≈ 17.
            assert!(us > 15.0 && us < 19.0, "local latency {us}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn eager_limit_is_the_protocol_boundary() {
        // At exactly the limit the send is buffered (sender finishes with
        // no receiver); one byte over, it must rendezvous and deadlock.
        let limit = MpiCosts::default().eager_limit;
        for (bytes, expect_deadlock) in [(limit, false), (limit + 1, true)] {
            let (_c, world) = two_node_world();
            let mut sim = Simulation::new();
            world.launch(&mut sim, 0, "sender", move |comm| {
                comm.send(1, 0, &vec![0u8; bytes]);
            });
            // Rank 1 never posts a receive.
            let result = sim.run();
            match (expect_deadlock, result) {
                (false, Ok(_)) => {}
                (true, Err(SimError::Deadlock { blocked, .. })) => {
                    assert!(blocked[0].2.contains("rendezvous CTS"), "{blocked:?}");
                }
                (e, r) => panic!("bytes={bytes}: expected deadlock={e}, got {r:?}"),
            }
        }
    }

    #[test]
    fn rendezvous_for_large_messages() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        let w = world.clone();
        let n = 64 * 1024; // above the 16 KiB eager limit
        world.launch(&mut sim, 0, "r0", move |comm| {
            let data = vec![7u8; n];
            comm.send(1, 5, &data);
        });
        w.launch(&mut sim, 1, "r1", move |comm| {
            // Delay posting the receive; the sender must wait (rendezvous).
            comm.ctx().advance(SimDuration::from_millis(5));
            let (v, _) = comm.recv_typed::<u8>(Some(0), Some(5));
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&b| b == 7));
        });
        sim.run().unwrap();
    }

    #[test]
    fn sendrecv_ring_shift_does_not_deadlock() {
        // Every rank simultaneously sendrecvs around a ring — the pattern
        // that deadlocks with naive blocking send/recv ordering.
        let spec = ClusterSpec::two_cells_one_xeon();
        let cluster = spec.build();
        let world = MpiWorld::new(
            cluster,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            MpiCosts::default(),
        );
        let mut sim = Simulation::new();
        for rank in 0..3 {
            let w = world.clone();
            world.launch(&mut sim, rank, &format!("r{rank}"), move |comm| {
                let n = comm.size();
                let right = (comm.rank() + 1) % n;
                let left = (comm.rank() + n - 1) % n;
                let got = comm.sendrecv(right, 4, &[comm.rank() as u32], left, 4);
                assert_eq!(got, vec![left as u32]);
                let _ = w;
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn wildcard_recv_and_probe() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        let w = world.clone();
        world.launch(&mut sim, 0, "r0", |comm| {
            comm.send(1, 3, &[1i32]);
        });
        w.launch(&mut sim, 1, "r1", |comm| {
            assert!(comm.iprobe(None, None).is_none());
            let (src, tag, dt, count) = comm.probe(None, None);
            assert_eq!((src, tag, dt, count), (0, 3, Datatype::Int32, 1));
            let (v, _) = comm.recv_typed::<i32>(Some(src), Some(tag));
            assert_eq!(v, vec![1]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn unmatched_recv_deadlocks_with_diagnostic() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", |comm| {
            let _ = comm.recv(Some(1), Some(9));
        });
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert!(blocked[0].2.contains("MPI_Recv"));
                assert!(blocked[0].2.contains("tag=9"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_datatype_mismatch() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        let w = world.clone();
        world.launch(&mut sim, 0, "r0", |comm| {
            comm.send(1, 0, &[1i32]);
        });
        w.launch(&mut sim, 1, "r1", |comm| {
            let m = comm.recv(Some(0), Some(0));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.decode::<f64>()));
            assert!(r.is_err(), "decoding int32 as f64 must panic");
            // Correct decode still works.
            assert_eq!(m.decode::<i32>(), vec![1]);
        });
        sim.run().unwrap();
    }

    #[test]
    fn probe_match_and_iprobe_match() {
        let (_c, world) = two_node_world();
        let mut sim = Simulation::new();
        let w = world.clone();
        world.launch(&mut sim, 0, "r0", |comm| {
            comm.send(1, 11, &[1u8]);
            comm.send(1, 22, &[2u8]);
        });
        w.launch(&mut sim, 1, "r1", |comm| {
            assert!(comm.iprobe_match(|e| e.tag == 99).is_none());
            let (_, tag, _, _) = comm.probe_match("want 22", |e| e.tag == 22);
            assert_eq!(tag, 22);
            // Selective consume of 22 first, then 11, despite send order.
            let (v, _) = comm.recv_typed::<u8>(None, Some(22));
            assert_eq!(v, vec![2]);
            let (v, _) = comm.recv_typed::<u8>(None, Some(11));
            assert_eq!(v, vec![1]);
        });
        sim.run().unwrap();
    }

    fn faulty_world(faults: FaultPlan, retry: RetryPolicy) -> MpiWorld {
        let cluster = ClusterSpec::two_cells_one_xeon().build();
        MpiWorld::with_faults(
            cluster,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0)],
            MpiCosts::default(),
            Arc::new(faults),
            retry,
        )
    }

    #[test]
    fn dropped_sends_recover_by_retransmission() {
        use cp_des::SimTime;
        // Drop the first two messages node0 -> node1; the third attempt
        // goes through. Virtual time must show exactly backoff(0)+backoff(1)
        // of extra sender-side delay.
        let retry = RetryPolicy::default();
        let plan =
            FaultPlan::new().drop_link(NodeId(0), NodeId(1), SimTime(0), SimTime(100_000_000), 2);
        let world = faulty_world(plan, retry);
        let w = world.clone();
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", move |comm| {
            comm.try_send_bytes(1, 7, Datatype::Int32, 1, encode_slice(&[5i32]))
                .unwrap();
        });
        w.launch(&mut sim, 1, "r1", move |comm| {
            let t0 = comm.ctx().now();
            let m = comm.recv(Some(0), Some(7));
            assert_eq!(m.decode::<i32>(), vec![5]);
            let elapsed = (comm.ctx().now() - t0).as_nanos();
            let extra = retry.total_backoff(2).as_nanos();
            // Baseline wire one-way is ~98us (see pingpong test); the two
            // backoffs land on top of it.
            assert!(
                elapsed >= extra,
                "recovery delay {elapsed}ns < injected backoff {extra}ns"
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_is_send_lost() {
        use cp_des::SimTime;
        let retry = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        // More drops than the budget can absorb.
        let plan =
            FaultPlan::new().drop_link(NodeId(0), NodeId(1), SimTime(0), SimTime(100_000_000), 100);
        let world = faulty_world(plan, retry);
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", move |comm| {
            let err = comm
                .try_send_bytes(1, 7, Datatype::Byte, 1, vec![1])
                .unwrap_err();
            assert_eq!(
                err,
                MpiFault::SendLost {
                    dst: 1,
                    attempts: 3
                }
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn duplicated_sends_deliver_once() {
        use cp_des::SimTime;
        let plan = FaultPlan::new().duplicate_link(
            NodeId(0),
            NodeId(1),
            SimTime(0),
            SimTime(100_000_000),
            1,
        );
        let world = faulty_world(plan, RetryPolicy::default());
        let w = world.clone();
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", |comm| {
            comm.send(1, 9, &[42u8]);
            // A later, distinct send must still get through on its own.
            comm.send(1, 9, &[43u8]);
        });
        w.launch(&mut sim, 1, "r1", |comm| {
            // Exactly-once under duplication: the duplicated wire copy is
            // deduped by the receiver's sequence set, so each logical send
            // surfaces once, in order, with nothing left behind.
            let m = comm.recv(Some(0), Some(9));
            assert_eq!(m.decode::<u8>(), vec![42]);
            let m = comm.recv(Some(0), Some(9));
            assert_eq!(m.decode::<u8>(), vec![43]);
            comm.ctx().advance(SimDuration::from_millis(1));
            assert!(comm.iprobe(Some(0), Some(9)).is_none());
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_when_nothing_comes() {
        let world = faulty_world(FaultPlan::new(), RetryPolicy::default());
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", |comm| {
            let t0 = comm.ctx().now();
            let err = comm
                .try_recv_deadline(Some(1), Some(3), SimDuration::from_micros(200))
                .unwrap_err();
            assert!(matches!(err, MpiFault::Timeout { .. }));
            assert_eq!((comm.ctx().now() - t0).as_nanos(), 200_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn rank_death_poisons_mailbox_and_surfaces_peer_lost() {
        use cp_des::SimTime;
        let plan = FaultPlan::new().kill_rank(1, SimTime(50_000));
        let world = faulty_world(plan, RetryPolicy::default());
        let w = world.clone();
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", |comm| {
            // Wait until well past the death, then try to talk to the corpse.
            comm.ctx().advance(SimDuration::from_micros(100));
            let err = comm
                .try_send_bytes(1, 0, Datatype::Byte, 1, vec![1])
                .unwrap_err();
            assert_eq!(err, MpiFault::PeerLost { rank: 1 });
            let err = comm
                .try_recv_deadline(Some(1), Some(0), SimDuration::from_micros(50))
                .unwrap_err();
            assert_eq!(err, MpiFault::PeerLost { rank: 1 });
        });
        // Rank 1 blocks in a receive and is reaped mid-wait.
        w.launch(&mut sim, 1, "r1", |comm| {
            let _ = comm.recv(Some(0), Some(99));
            unreachable!("rank 1 must die blocked in recv");
        });
        let report = sim.run().unwrap();
        assert_eq!(report.incidents.len(), 1);
        assert_eq!(report.incidents[0].category, IncidentCategory::RankDeath);
        assert!(report.incidents[0].detail.contains("rank 1"));
    }

    #[test]
    fn dead_rank_fails_stop_at_next_comm_call() {
        use cp_des::SimTime;
        let plan = FaultPlan::new().kill_rank(0, SimTime(10_000));
        let world = faulty_world(plan, RetryPolicy::default());
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f = flag.clone();
        let mut sim = Simulation::new();
        world.launch(&mut sim, 0, "r0", move |comm| {
            comm.ctx().advance(SimDuration::from_micros(50));
            // Past our own death: this call must unwind, not send.
            comm.send(1, 0, &[1u8]);
            f.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        sim.run().unwrap();
        assert!(
            !flag.load(std::sync::atomic::Ordering::SeqCst),
            "code after the death point must not run"
        );
    }

    #[test]
    fn mpirun_runs_spmd_program() {
        let spec = ClusterSpec::two_cells_one_xeon();
        let placement = vec![NodeId(0), NodeId(1), NodeId(2)];
        let report = mpirun(&spec, placement, MpiCosts::default(), |comm| {
            if comm.rank() == 0 {
                for r in 1..comm.size() {
                    let (v, _) = comm.recv_typed::<u32>(Some(r), Some(0));
                    assert_eq!(v, vec![r as u32]);
                }
            } else {
                comm.send(0, 0, &[comm.rank() as u32]);
            }
        })
        .unwrap();
        assert_eq!(report.processes, 3);
    }
}
