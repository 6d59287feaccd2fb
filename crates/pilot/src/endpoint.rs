//! The rank side of a channel, written once: the `PI_Write` / `PI_Read`
//! core that [`crate::Pilot`] and every CellPilot PPE / non-Cell process
//! hold. A caller resolves an operation's routing from its own tables — the
//! destination rank or source selector, the far endpoint's name, whether it
//! is gone, the deadlock-detector event — and the endpoint does the rest:
//! pack and charge [`PilotCosts`], send or receive (with the optional read
//! deadline), map an MPI fault to the error and report the incident, report
//! to the deadlock detector, record the op, and run `PI_StopMain`'s
//! barrier. Each step is its own call, so a caller can put what only it
//! has (CellPilot's credits and one-sided puts) between them.

use crate::error::PilotError;
use crate::fmt::{parse_format, Conversion};
use crate::service::{self, DlEvent};
use crate::value::{check_against_format, pack_message, payload_bytes, unpack_message, PiValue};
use cp_des::{IncidentCategory, ProcCtx, SimDuration, SimTime};
use cp_mpisim::{Comm, Datatype, MpiFault, SrcSel};
use cp_simnet::FaultPlan;
use cp_trace::{Measure, Op, Recorder};
use std::sync::Arc;

/// Pilot-layer cost model: what the library's own bookkeeping (format
/// interpretation, table checks, message packing) costs per call and per
/// payload byte. Calibrated from Table II type 1: CellPilot 105/173 µs vs
/// raw MPI 98/160 µs ⇒ ≈ 3.5 µs + 0.004 µs/B per side.
#[derive(Debug, Clone, PartialEq)]
pub struct PilotCosts {
    /// Fixed cost per `PI_Write`/`PI_Read`/bundle call, µs.
    pub op_us: f64,
    /// Per payload byte (format-driven packing), µs/B.
    pub per_byte_us: f64,
}

impl Default for PilotCosts {
    fn default() -> Self {
        PilotCosts {
            op_us: 3.5,
            per_byte_us: 0.004,
        }
    }
}

impl PilotCosts {
    /// What one call moving `bytes` payload bytes costs.
    pub fn call(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros_f64(self.op_us + bytes as f64 * self.per_byte_us)
    }
}

/// Internal barrier tag for `PI_StopMain`.
const TAG_FINI: i32 = -600;

/// One channel operation's routing, resolved by the caller's tables.
#[derive(Clone, Copy)]
pub struct Route<'a> {
    /// The channel id.
    pub chan: usize,
    /// The MPI tag the message travels under: the channel id, or the tree
    /// tag of the broadcast bundle a Pilot read receives through.
    pub tag: i32,
    /// The far endpoint's name: the reader of a write, the writer of a read.
    pub peer: &'a str,
    /// What the deadlock detector is told: an `EV_WRITE` after a write, an
    /// `EV_READWAIT` before a read blocks.
    pub event: DlEvent,
    /// The channel's Table-I type, when the op is measured (CellPilot).
    pub chan_type: Option<u8>,
    /// When the operation began.
    pub t0: SimTime,
}

impl Route<'_> {
    /// What the metrics take from this op, if it is measured.
    pub fn measure(&self, write: bool, payload_bytes: usize) -> Option<Measure> {
        self.chan_type.map(|chan_type| Measure::Channel {
            chan_type,
            write,
            payload_bytes,
            t0_ns: self.t0.0,
        })
    }
}

/// A `PI_Write`'s message, checked against its format and packed.
pub struct Packed {
    /// The wire message.
    pub data: Vec<u8>,
    /// Its payload bytes (the values, without segment headers).
    pub payload: usize,
}

/// Parse a writer's `format` and check `values` against it.
pub fn check_write(format: &str, values: &[PiValue]) -> Result<(), PilotError> {
    let conv = parse_format(format)?;
    Ok(check_against_format(&conv, values)?)
}

/// Parse a writer's `format`, check `values` against it, and pack them.
pub fn pack_checked(format: &str, values: &[PiValue]) -> Result<Packed, PilotError> {
    check_write(format, values)?;
    Ok(Packed {
        data: pack_message(values),
        payload: payload_bytes(values),
    })
}

/// Unpack a received message and check it against the reader's format.
pub fn unpack_checked(
    chan: usize,
    conv: &[Conversion],
    raw: &[u8],
) -> Result<Vec<PiValue>, PilotError> {
    let values = unpack_message(raw).expect("well-formed channel message");
    check_against_format(conv, &values).map_err(|detail| PilotError::FormatMismatch {
        channel: chan,
        detail,
    })?;
    Ok(values)
}

/// A rank process's endpoint of its channels.
pub struct RankEndpoint {
    comm: Comm,
    costs: PilotCosts,
    /// This process's name, as errors, incidents and the op log show it.
    name: Arc<str>,
    recorder: Recorder,
    /// The deadlock detector's rank, when the service runs.
    detector: Option<usize>,
    /// The per-read deadline (`None` blocks indefinitely).
    deadline: Option<SimDuration>,
}

impl RankEndpoint {
    /// The endpoint of the process `name` attached to `comm`.
    pub fn new(
        comm: Comm,
        costs: PilotCosts,
        name: Arc<str>,
        recorder: Recorder,
        detector: Option<usize>,
        deadline: Option<SimDuration>,
    ) -> RankEndpoint {
        RankEndpoint {
            comm,
            costs,
            name,
            recorder,
            detector,
            deadline,
        }
    }

    /// The MPI communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The simulated-process context.
    pub fn ctx(&self) -> &ProcCtx {
        self.comm.ctx()
    }

    /// This process's name.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Begin an operation on `chan` against `peer`, now.
    pub fn route<'a>(
        &self,
        chan: usize,
        peer: &'a str,
        event: DlEvent,
        chan_type: Option<u8>,
    ) -> Route<'a> {
        Route {
            chan,
            tag: chan as i32,
            peer,
            event,
            chan_type,
            t0: self.ctx().now(),
        }
    }

    /// Charge the Pilot-layer cost of a call moving `bytes` payload bytes.
    pub fn charge(&self, bytes: usize) {
        self.ctx().advance(self.costs.call(bytes));
    }

    /// Send `msg` to rank `dst`, report the write and record it. `gone`
    /// says, once a send has failed, whether the peer is known dead.
    pub fn send(
        &self,
        route: &Route,
        dst: usize,
        msg: Packed,
        gone: impl FnOnce() -> bool,
    ) -> Result<(), PilotError> {
        let n = msg.data.len();
        self.comm
            .try_send_bytes(dst, route.tag, Datatype::Byte, n, msg.data)
            .map_err(|fault| self.fault(route, gone(), fault))?;
        self.report(route.event);
        self.record(
            Some(Op::RankWrite),
            route.chan,
            n,
            route.measure(true, msg.payload),
        );
        Ok(())
    }

    /// Receive the next message on the route's tag from `src`. An
    /// unbounded read reports its wait first; a read under the deadline
    /// does not, since it cannot take part in a deadlock and a timed-out
    /// read would leave a stale edge in the wait-for graph. `gone` as for
    /// [`RankEndpoint::send`].
    pub fn recv(
        &self,
        route: &Route,
        src: SrcSel,
        gone: impl FnOnce() -> bool,
    ) -> Result<Vec<u8>, PilotError> {
        let tag = Some(route.tag);
        let msg = match self.deadline {
            None => {
                self.report(route.event);
                self.comm.recv(src, tag)
            }
            Some(d) => self
                .comm
                .try_recv_deadline(src, tag, d)
                .map_err(|fault| self.fault(route, gone(), fault))?,
        };
        Ok(msg.data)
    }

    /// Unpack `raw`, check it against `conv` and charge for its payload.
    pub fn accept(
        &self,
        chan: usize,
        conv: &[Conversion],
        raw: &[u8],
    ) -> Result<Vec<PiValue>, PilotError> {
        let values = unpack_checked(chan, conv, raw)?;
        self.charge(payload_bytes(&values));
        Ok(values)
    }

    /// [`RankEndpoint::accept`] a read's message and record the read.
    pub fn deliver(
        &self,
        route: &Route,
        conv: &[Conversion],
        raw: &[u8],
    ) -> Result<Vec<PiValue>, PilotError> {
        let values = self.accept(route.chan, conv, raw)?;
        let n = payload_bytes(&values);
        self.record(Some(Op::RankRead), route.chan, n, route.measure(false, n));
        Ok(values)
    }

    /// Whether a message on channel `chan` from `src` is waiting.
    pub fn has_data(&self, chan: usize, src: SrcSel) -> bool {
        self.comm.iprobe(src, Some(chan as i32)).is_some()
    }

    /// Map an MPI-layer fault on the route's channel to the error, and
    /// record a structured incident in the [`cp_des::SimReport`] so that a
    /// degraded run shows it. A timeout against a peer known `gone` is
    /// [`PilotError::PeerLost`]: the peer is dead, not slow.
    fn fault(&self, route: &Route, gone: bool, fault: MpiFault) -> PilotError {
        let (channel, peer) = (route.chan, route.peer);
        let err = match fault {
            MpiFault::PeerLost { .. } => PilotError::PeerLost {
                channel,
                peer: peer.into(),
            },
            MpiFault::Timeout { .. } | MpiFault::SendLost { .. } if gone => PilotError::PeerLost {
                channel,
                peer: peer.into(),
            },
            MpiFault::Timeout { what } => PilotError::Timeout {
                channel,
                detail: what,
            },
            MpiFault::SendLost { attempts, .. } => PilotError::Timeout {
                channel,
                detail: format!("message to '{peer}' lost after {attempts} send attempts"),
            },
        };
        let category = match err {
            PilotError::PeerLost { .. } => IncidentCategory::PeerLost,
            _ => IncidentCategory::ChannelTimeout,
        };
        self.ctx()
            .report_incident(category, &format!("process '{}': {err}", self.name));
        err
    }

    /// Report `ev` to the deadlock detector, if the service runs.
    pub fn report(&self, ev: DlEvent) {
        if self.detector.is_some() {
            let (comm, detector) = (self.comm.clone(), self.detector);
            self.comm
                .drive(async move { service::report(&comm, detector, ev).await });
        }
    }

    /// Record one completed operation (see [`Recorder::record_op`]).
    pub fn record(&self, op: Option<Op>, subject: usize, bytes: usize, measure: Option<Measure>) {
        self.recorder
            .record_op(self.ctx().now().0, &self.name, op, subject, bytes, measure);
    }

    /// Abort the application with a diagnostic carrying the source
    /// location of the offending call.
    pub fn abort_loc(&self, err: &impl std::fmt::Display, file: &str, line: u32) -> ! {
        let name = &self.name;
        self.ctx()
            .abort(&format!("[{file}:{line}] in process '{name}': {err}"))
    }

    /// `PI_StopMain`: tell the deadlock detector this rank is done, then
    /// barrier with the other application ranks `ranks` — rank 0 collects
    /// one message from every other rank, then releases them. Perf is
    /// irrelevant here; determinism is not. A rank the fault plan kills
    /// does neither, and the others leave it out: its reaper may not have
    /// fired yet, but every rank consults the same plan, so the survivors
    /// are never wedged on a corpse and the detector waits for exactly the
    /// finishes that come ([`finishers`]). Returns whether this rank took
    /// part.
    pub fn stop_main(&self, ranks: impl IntoIterator<Item = usize>) -> bool {
        let plan = self.comm.fault_plan();
        let alive = |r: usize| plan.death_of(r).is_none();
        if !alive(self.comm.rank()) {
            return false;
        }
        self.report(DlEvent::finish());
        let peers: Vec<usize> = ranks.into_iter().filter(|&r| r != 0 && alive(r)).collect();
        if self.comm.rank() == 0 {
            for &r in &peers {
                let _ = self.comm.recv(Some(r), Some(TAG_FINI));
            }
            for &r in &peers {
                self.comm
                    .send_bytes(r, TAG_FINI, Datatype::Byte, 0, Vec::new());
            }
        } else {
            self.comm
                .send_bytes(0, TAG_FINI, Datatype::Byte, 0, Vec::new());
            let _ = self.comm.recv(Some(0), Some(TAG_FINI));
        }
        true
    }
}

/// How many `EV_FINISH` reports end the deadlock detector: one from each
/// application rank in `ranks` that `plan` does not kill (see
/// [`RankEndpoint::stop_main`]).
pub fn finishers(plan: &FaultPlan, ranks: impl IntoIterator<Item = usize>) -> usize {
    ranks
        .into_iter()
        .filter(|&r| plan.death_of(r).is_none())
        .count()
}
