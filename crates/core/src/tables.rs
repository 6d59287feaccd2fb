//! Internal tables and per-node shared state.

use crate::location::{ChannelKind, ChannelMode, CpProcess, Location};
use crate::program::SpeProgram;
use crate::protocol::Request;
use cp_cellsim::CellNode;
use cp_des::sync::MsgQueue;
use cp_des::ProcCtx;
use cp_mpisim::Msg;
use cp_pilot::{ChannelDecl, DeclTable, PilotError};
use cp_simnet::{Heartbeat, NodeId};
use cp_trace::{HbOp, Recorder};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a process is realized.
pub(crate) enum ProcKind {
    /// A regular Pilot process backed by an MPI rank.
    Rank,
    /// An SPE process: dormant until its parent calls `PI_RunSPE`.
    Spe {
        program: SpeProgram,
        parent: CpProcess,
    },
}

/// A process's CellPilot columns (its name is in [`CpTables::decls`]).
pub(crate) struct CpProcEntry {
    pub location: Location,
    pub index: i32,
    pub kind: ProcKind,
}

/// A channel's CellPilot columns (its endpoints are in
/// [`CpTables::decls`]).
pub(crate) struct CpChanEntry {
    pub kind: ChannelKind,
    /// Transport selected at construction: Co-Pilot relay (default) or
    /// the one-sided window fabric.
    pub mode: ChannelMode,
    /// Explicit window placement `(ls_offset, len)` from
    /// `ChannelBuilder::window_at`; `None` lets the runtime allocate the
    /// window in the reader SPE's local store. Only meaningful for
    /// one-sided channels.
    pub window: Option<(u32, u32)>,
    /// Bound on in-flight messages (send accepted, not yet drained by the
    /// reader) from `ChannelBuilder::capacity`; `None` = unbounded.
    pub capacity: Option<usize>,
    /// What a sender does when the channel is at capacity.
    pub policy: crate::flow::OverloadPolicy,
    /// Eager-inlining threshold from `ChannelBuilder::eager`/
    /// `eager_threshold`: packed payloads at or below this many bytes ride
    /// the mailbox/control word instead of a DMA round trip. `None` =
    /// eager inlining off (every transfer takes the rendezvous path).
    pub eager: Option<usize>,
    /// Declared payload bound from [`crate::ChannelBuilder::max_payload`]:
    /// the application's promise that no message on this channel exceeds
    /// this many packed bytes. Purely an analysis hint (the CP203
    /// eager-inlining advisory keys off it); the runtime does not enforce
    /// it. `None` = no promise made.
    pub max_payload: Option<usize>,
}

impl CpChanEntry {
    /// The byte bound under which a payload goes inline: the configured
    /// threshold, which `build()` holds to 1 ..=
    /// [`crate::protocol::EAGER_INLINE_MAX`]. Zero when eager inlining is
    /// off.
    pub fn eager_limit(&self) -> usize {
        self.eager.unwrap_or(0)
    }
}

/// Size/deadline triggers for vectored coalescing on a bundle, from
/// `CellPilotConfig::coalesce_bundle`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CoalescePolicy {
    /// Flush when this many writes are buffered.
    pub max_batch: usize,
    /// Flush (before buffering the next write) once the oldest buffered
    /// write is this old, microseconds of virtual time.
    pub deadline_us: f64,
}

/// The immutable application architecture, shared by every rank, Co-Pilot
/// and SPE process: Pilot's declaration table, and beside it CellPilot's
/// own columns, by the same ids.
#[derive(Default)]
pub struct CpTables {
    /// Process names, channel endpoints and bundles.
    pub(crate) decls: DeclTable,
    pub(crate) processes: Vec<CpProcEntry>,
    pub(crate) channels: Vec<CpChanEntry>,
    /// Each bundle's vectored-coalescing triggers; `None` = off.
    pub(crate) coalesce: Vec<Option<CoalescePolicy>>,
    /// Co-Pilot MPI rank per Cell node.
    pub(crate) copilot_ranks: BTreeMap<NodeId, usize>,
    /// Standby Co-Pilot rank per Cell node whose primary has a scripted
    /// kill — allocated only when the fault plan schedules one, so healthy
    /// runs carry no extra processes.
    pub(crate) standby_ranks: BTreeMap<NodeId, usize>,
    /// MPI rank of the deadlock-detection service, when enabled.
    pub(crate) detector_rank: Option<usize>,
}

impl CpTables {
    /// The MPI ranks of the application's rank processes.
    pub(crate) fn app_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.processes.iter().filter_map(|p| match p.location {
            Location::Rank { rank, .. } => Some(rank),
            Location::Spe { .. } => None,
        })
    }

    /// Channel `c`'s endpoints and columns, or Pilot's `NoSuchChannel`.
    pub(crate) fn channel(&self, c: usize) -> Result<(&ChannelDecl, &CpChanEntry), PilotError> {
        Ok((self.decls.channel(c)?, &self.channels[c]))
    }

    /// The endpoints of channel `c` (a declared id).
    pub(crate) fn ends(&self, c: usize) -> &ChannelDecl {
        &self.decls.channels()[c]
    }

    /// Process `p`'s name.
    pub(crate) fn name(&self, p: usize) -> &Arc<str> {
        self.decls.name(p)
    }
}

/// An event on a Co-Pilot's service queue.
pub(crate) enum CoEvent {
    /// A request block posted by the SPE on hardware SPE `hw`, queued by
    /// the SPE's own wait at the instant the Co-Pilot's mailbox poll and
    /// mapped fetch of the block would have completed. For an
    /// [`crate::protocol::OP_WRITE_INLINE`] request the payload was
    /// fetched with the block — it travels here in `inline`, so the
    /// service loop never touches the SPE's local store.
    Request {
        hw: usize,
        req: Request,
        inline: Option<Vec<u8>>,
    },
    /// An MPI message (channel data from a rank or a remote Co-Pilot).
    Mpi(Msg),
    /// Orderly shutdown at end of run.
    Shutdown,
    /// Scripted death marker for the primary Co-Pilot, pushed at exactly
    /// the fault plan's `kill_copilot` instant so the primary retires at
    /// the kill time rather than at its next unrelated event. Only one is
    /// ever queued; it reaches the standby, which skips it, only when the
    /// primary already retired on finding its mailbox taken over.
    Die,
}

/// A stored SPE request awaiting its counterpart: its buffer in the SPE's
/// local store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingReq {
    pub hw: usize,
    pub addr: u32,
    pub len: u32,
}

/// The Co-Pilot's in-flight proxy state: a local of the serving
/// incarnation's future, never shared. A primary that retires hands it to
/// its standby through [`NodeShared::handover`], so the standby resumes with
/// every pending request, undelivered message, and the stall bookkeeping
/// intact.
#[derive(Default)]
pub(crate) struct CoState {
    /// Read requests waiting for data, per channel.
    pub pending_reads: HashMap<usize, VecDeque<PendingReq>>,
    /// Local write requests waiting for their type-4 partner, per channel.
    pub pending_writes: HashMap<usize, VecDeque<PendingReq>>,
    /// Channel data that arrived before the local reader asked, per
    /// channel: over MPI, or as a local SPE writer's eager payload.
    pub pending_mpi: HashMap<usize, VecDeque<Vec<u8>>>,
    /// Whether the node's scripted Co-Pilot stall has already been served
    /// (a stall fires once per node, not once per service incarnation).
    pub stall_done: bool,
}

/// Shared state of one Cell node: the hardware handle, the Co-Pilot's
/// event queue and proxy-state hand-over slot, the failover heartbeat, and
/// the SPE occupancy registry.
pub(crate) struct NodeShared {
    pub cell: Arc<CellNode>,
    pub queue: MsgQueue<CoEvent>,
    /// `true` = hardware SPE is free.
    pub free_spes: Mutex<Vec<bool>>,
    /// Where a retiring primary Co-Pilot leaves its proxy state and its
    /// standby waits for it, in the kernel: pushed at most once.
    pub handover: MsgQueue<CoState>,
    /// Node-local liveness signal between the primary Co-Pilot and its
    /// standby's watchdog.
    pub hb: Heartbeat,
    /// Happens-before recorder for the event queue (see `cp-check`):
    /// pushes and pops become `MsgSend`/`MsgRecv` edges so SPE requests
    /// are ordered before the Co-Pilot work they trigger.
    hb_rec: Mutex<Recorder>,
    /// Sequence numbers pairing queue pushes with pops.
    queue_sent: AtomicU64,
    queue_received: AtomicU64,
}

impl NodeShared {
    pub(crate) fn new(cell: Arc<CellNode>) -> Arc<NodeShared> {
        let n = cell.spe_count();
        Arc::new(NodeShared {
            queue: MsgQueue::new(&format!("copilot{}-queue", cell.id), None),
            free_spes: Mutex::new(vec![true; n]),
            handover: MsgQueue::new(&format!("copilot{}-handover", cell.id), None),
            hb: Heartbeat::new(),
            hb_rec: Mutex::new(Recorder::disabled()),
            queue_sent: AtomicU64::new(0),
            queue_received: AtomicU64::new(0),
            cell,
        })
    }

    /// Attach a happens-before recorder to the event queue.
    pub(crate) fn set_hb_recorder(&self, rec: Recorder) {
        *self.hb_rec.lock() = rec;
    }

    /// Record a happens-before event against this node's recorder (the
    /// one-sided fabric's put/get edges use this so they reach the race
    /// detector even when checks run without the observability recorder).
    pub(crate) fn record_hb(&self, actor: &str, ts_ns: u64, op: HbOp) {
        if let Some(r) = self.hb_recorder() {
            r.record_hb(actor, ts_ns, op);
        }
    }

    pub(crate) fn hb_recorder(&self) -> Option<Recorder> {
        let r = self.hb_rec.lock();
        r.is_enabled().then(|| r.clone())
    }

    /// Record the happens-before send edge for a queue push. Call
    /// immediately before `queue.push`: the queue is unbounded, so the
    /// push inserts without yielding and the sequence number matches
    /// insertion (hence pop) order.
    pub(crate) fn note_queue_push(&self, actor: &ProcCtx) {
        if let Some(r) = self.hb_recorder() {
            let seq = self.queue_sent.fetch_add(1, Ordering::Relaxed);
            r.record_hb(
                &actor.name(),
                actor.now().as_nanos(),
                HbOp::MsgSend {
                    queue: format!("co-queue-{}", self.cell.id),
                    seq,
                },
            );
        }
    }

    /// Record the happens-before receive edge for a queue pop. Call right
    /// after the pop returns: the queue is FIFO, so pops — by whichever
    /// service incarnation makes them — consume sequence numbers in push
    /// order.
    pub(crate) fn note_queue_pop(&self, actor: &ProcCtx) {
        if let Some(r) = self.hb_recorder() {
            let seq = self.queue_received.fetch_add(1, Ordering::Relaxed);
            r.record_hb(
                &actor.name(),
                actor.now().as_nanos(),
                HbOp::MsgRecv {
                    queue: format!("co-queue-{}", self.cell.id),
                    seq,
                },
            );
        }
    }

    /// Claim the lowest-numbered free SPE, if any.
    pub(crate) fn claim_spe(&self) -> Option<usize> {
        let mut free = self.free_spes.lock();
        let idx = free.iter().position(|&f| f)?;
        free[idx] = false;
        Some(idx)
    }

    /// Release a claimed SPE.
    pub(crate) fn release_spe(&self, idx: usize) {
        self.free_spes.lock()[idx] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_cellsim::CellCosts;

    #[test]
    fn claim_release_cycle() {
        let cell = CellNode::new(0, 3, 1 << 20, CellCosts::default());
        let ns = NodeShared::new(cell);
        assert_eq!(ns.claim_spe(), Some(0));
        assert_eq!(ns.claim_spe(), Some(1));
        assert_eq!(ns.claim_spe(), Some(2));
        assert_eq!(ns.claim_spe(), None);
        ns.release_spe(1);
        assert_eq!(ns.claim_spe(), Some(1));
    }
}
