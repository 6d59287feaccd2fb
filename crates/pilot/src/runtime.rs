//! The execution phase: the per-process `Pilot` handle with
//! `PI_Write`/`PI_Read`, bundle operations, and Pilot's run-time
//! architecture enforcement.

use crate::error::PilotError;
use crate::fmt::parse_format;
use crate::service::{self, TAG_SVC};
use crate::table::{BundleUsage, PiBundle, PiChannel, PiProcess, Tables};
use crate::value::{
    check_against_format, check_read_format, pack_message, payload_bytes, unpack_message, PiScalar,
    PiValue,
};
use cp_des::{IncidentCategory, ProcCtx, SimDuration};
use cp_mpisim::{Comm, Datatype, MpiFault};
use cp_trace::{Op, Recorder};
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

/// Internal barrier tag for `PI_StopMain`.
const TAG_FINI: i32 = -600;

/// A process's handle on the running Pilot application.
pub struct Pilot {
    comm: Comm,
    tables: Arc<Tables>,
    costs: PilotCosts,
    me: PiProcess,
    /// This process's name, as the op log records it.
    name: Arc<str>,
    /// The run's recorder (`-pisvc=c`: every channel call lands in its op
    /// log).
    recorder: Recorder,
    deadline: Option<SimDuration>,
}

impl Pilot {
    pub(crate) fn new(
        comm: Comm,
        tables: Arc<Tables>,
        costs: PilotCosts,
        me: PiProcess,
        recorder: Recorder,
        deadline: Option<SimDuration>,
    ) -> Pilot {
        let name = tables.processes[me.0].name.as_str().into();
        Pilot {
            comm,
            tables,
            costs,
            me,
            name,
            recorder,
            deadline,
        }
    }

    /// Log one completed channel call.
    fn log(&self, op: Op, subject: usize, bytes: usize) {
        self.recorder.record_op(
            self.ctx().now().0,
            &self.name,
            Some(op),
            subject,
            bytes,
            None,
        );
    }

    /// This process's handle.
    pub fn process(&self) -> PiProcess {
        self.me
    }

    /// This process's configured name.
    pub fn name(&self) -> String {
        self.name.to_string()
    }

    /// Total Pilot processes (including `PI_MAIN`).
    pub fn process_count(&self) -> usize {
        self.tables.processes.len()
    }

    /// The simulated-process context (for modelling compute time with
    /// `ctx().advance(..)`).
    pub fn ctx(&self) -> &ProcCtx {
        self.comm.ctx()
    }

    /// The underlying MPI communicator (diagnostics / advanced use).
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    fn charge(&self, bytes: usize) {
        let us = self.costs.op_us + bytes as f64 * self.costs.per_byte_us;
        self.ctx().advance(SimDuration::from_micros_f64(us));
    }

    fn svc_event(&self, ev: service::DlEvent) {
        if let Some(det) = self.tables.detector_rank {
            let payload = service::encode_event(&ev);
            let n = payload.len();
            self.comm
                .send_bytes(det, TAG_SVC, Datatype::Byte, n, payload);
        }
    }

    /// Build a write/read-wait event for `chan`, resolving both channel
    /// endpoints to their MPI ranks (Pilot processes are always ranks).
    fn chan_event(&self, kind: u8, chan: PiChannel) -> service::DlEvent {
        let entry = &self.tables.channels[chan.0];
        service::DlEvent {
            kind,
            chan: chan.0 as u32,
            reader: service::DlEndpoint::Rank(self.tables.processes[entry.to.0].rank),
            writer: service::DlEndpoint::Rank(self.tables.processes[entry.from.0].rank),
            via: None,
        }
    }

    /// `PI_Write`: send `values` described by `format` on `chan`. Only the
    /// channel's writer may call this.
    pub fn write(
        &self,
        chan: PiChannel,
        format: &str,
        values: &[PiValue],
    ) -> Result<(), PilotError> {
        let entry = self.tables.channel(chan)?;
        if entry.from != self.me {
            return Err(PilotError::NotWriter {
                channel: chan.0,
                caller: self.name(),
                writer: self.tables.processes[entry.from.0].name.clone(),
            });
        }
        let conv = parse_format(format)?;
        check_against_format(&conv, values)?;
        let bytes = pack_message(values);
        self.charge(payload_bytes(values));
        let dst = self.tables.processes[entry.to.0].rank;
        let n = bytes.len();
        self.comm
            .try_send_bytes(dst, Tables::chan_tag(chan), Datatype::Byte, n, bytes)
            .map_err(|fault| self.fault_to_pilot(chan, entry.to, fault))?;
        self.svc_event(self.chan_event(service::EV_WRITE, chan));
        self.log(Op::RankWrite, chan.0, n);
        Ok(())
    }

    /// Map an MPI-layer fault on `chan` (whose far endpoint is `peer`) to
    /// the Pilot error, recording a structured incident in the
    /// [`cp_des::SimReport`] so degraded runs are observable.
    fn fault_to_pilot(&self, chan: PiChannel, peer: PiProcess, fault: MpiFault) -> PilotError {
        let peer_name = self.tables.processes[peer.0].name.clone();
        let err = match fault {
            MpiFault::PeerLost { .. } => PilotError::PeerLost {
                channel: chan.0,
                peer: peer_name,
            },
            MpiFault::Timeout { what } => PilotError::Timeout {
                channel: chan.0,
                detail: what,
            },
            MpiFault::SendLost { attempts, .. } => PilotError::Timeout {
                channel: chan.0,
                detail: format!("message to '{peer_name}' lost after {attempts} send attempts"),
            },
        };
        let category = match err {
            PilotError::PeerLost { .. } => IncidentCategory::PeerLost,
            _ => IncidentCategory::ChannelTimeout,
        };
        self.ctx()
            .report_incident(category, &format!("process '{}': {err}", self.name()));
        err
    }

    /// `PI_Read`: receive the next message on `chan`, verifying it against
    /// `format`. Only the channel's reader may call this. If the channel
    /// belongs to a broadcast bundle, this participates in the broadcast
    /// (only the broadcaster calls [`Pilot::broadcast`]; every receiver
    /// just reads its own channel — Pilot's MPMD convention).
    pub fn read(&self, chan: PiChannel, format: &str) -> Result<Vec<PiValue>, PilotError> {
        let entry = self.tables.channel(chan)?;
        if entry.to != self.me {
            return Err(PilotError::NotReader {
                channel: chan.0,
                caller: self.name(),
                reader: self.tables.processes[entry.to.0].name.clone(),
            });
        }
        let conv = parse_format(format)?;
        let raw = if let Some(b) = entry.bundle {
            if self.tables.bundle(b)?.usage == BundleUsage::Broadcast {
                self.bcast_tree_recv(b)?
            } else {
                self.p2p_recv(chan, entry.from)?
            }
        } else {
            self.p2p_recv(chan, entry.from)?
        };
        let values = unpack_message(&raw).expect("well-formed Pilot wire message");
        let segs: Vec<(Datatype, usize)> = values.iter().map(|v| (v.dtype(), v.len())).collect();
        check_read_format(&conv, &segs).map_err(|detail| PilotError::FormatMismatch {
            channel: chan.0,
            detail,
        })?;
        let n = payload_bytes(&values);
        self.charge(n);
        self.log(Op::RankRead, chan.0, n);
        Ok(values)
    }

    /// Typed `PI_Write`: send one slice of a single scalar type without
    /// spelling the Pilot format string — `cp.write_slice::<i32>(chan, &v)`
    /// is `cp.write(chan, "%*d", ..)`.
    pub fn write_slice<T: PiScalar>(&self, chan: PiChannel, data: &[T]) -> Result<(), PilotError> {
        let format = format!("%*{}", T::CONV);
        self.write(chan, &format, &[T::wrap(data.to_vec())])
    }

    /// Typed `PI_Read`: receive one message of a single scalar type as a
    /// `Vec<T>` — `cp.read_vec::<f64>(chan)` is `cp.read(chan, "%*lf")`.
    pub fn read_vec<T: PiScalar>(&self, chan: PiChannel) -> Result<Vec<T>, PilotError> {
        let format = format!("%*{}", T::CONV);
        let mut values = self.read(chan, &format)?;
        let v = values.pop().expect("format has exactly one segment");
        Ok(T::unwrap(v).expect("segment dtype verified against format"))
    }

    fn p2p_recv(&self, chan: PiChannel, from: PiProcess) -> Result<Vec<u8>, PilotError> {
        // Deadline-bounded reads cannot participate in a deadlock (they
        // always come back), and a timed-out read would leave a stale edge
        // in the wait-for graph — so only unbounded reads report.
        if self.deadline.is_none() {
            self.svc_event(self.chan_event(service::EV_READWAIT, chan));
        }
        let src = self.tables.processes[from.0].rank;
        let tag = Some(Tables::chan_tag(chan));
        let msg = match self.deadline {
            None => self.comm.recv(Some(src), tag),
            Some(d) => self
                .comm
                .try_recv_deadline(Some(src), tag, d)
                .map_err(|fault| self.fault_to_pilot(chan, from, fault))?,
        };
        Ok(msg.data)
    }

    /// Receive leg of the binomial broadcast tree for bundle `b`: receive
    /// from the parent, forward to children, return the raw message.
    fn bcast_tree_recv(&self, b: PiBundle) -> Result<Vec<u8>, PilotError> {
        let bundle = self.tables.bundle(b)?;
        let members = self.bundle_member_ranks(b)?;
        let my_rank = self.tables.processes[self.me.0].rank;
        let my_idx = members
            .iter()
            .position(|&r| r == my_rank)
            .expect("reader is a bundle member");
        debug_assert!(my_idx > 0, "broadcaster never calls read");
        let _ = bundle;
        let tag = Tables::bundle_tag(b);
        // Parent: clear my lowest set bit.
        let parent = my_idx & (my_idx - 1);
        let msg = self.comm.recv(Some(members[parent]), Some(tag));
        self.forward_bcast(&members, my_idx, tag, &msg.data);
        Ok(msg.data)
    }

    fn forward_bcast(&self, members: &[usize], my_idx: usize, tag: i32, data: &[u8]) {
        // Children of `my_idx` in a binomial tree: my_idx | mask for each
        // mask above my lowest set bit (or all masks for the root).
        let mut mask = 1usize;
        let low = if my_idx == 0 {
            usize::MAX
        } else {
            my_idx & my_idx.wrapping_neg()
        };
        while mask < members.len() {
            if mask >= low {
                break;
            }
            let child = my_idx | mask;
            if child != my_idx && child < members.len() {
                self.comm.send_bytes(
                    members[child],
                    tag,
                    Datatype::Byte,
                    data.len(),
                    data.to_vec(),
                );
            }
            mask <<= 1;
        }
    }

    fn bundle_member_ranks(&self, b: PiBundle) -> Result<Vec<usize>, PilotError> {
        let bundle = self.tables.bundle(b)?;
        let mut members = vec![self.tables.processes[bundle.common.0].rank];
        for &c in &bundle.channels {
            let e = self.tables.channel(c)?;
            let other = if e.from == bundle.common {
                e.to
            } else {
                e.from
            };
            members.push(self.tables.processes[other.0].rank);
        }
        Ok(members)
    }

    /// `PI_Broadcast`: send `values` to every reader of the bundle's
    /// channels. Only the bundle's common endpoint (the writer) calls this;
    /// receivers each call [`Pilot::read`] on their own channel.
    pub fn broadcast(
        &self,
        b: PiBundle,
        format: &str,
        values: &[PiValue],
    ) -> Result<(), PilotError> {
        let bundle = self.tables.bundle(b)?;
        if bundle.usage != BundleUsage::Broadcast {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: "PI_Broadcast on a non-broadcast bundle".into(),
            });
        }
        if bundle.common != self.me {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: format!(
                    "only the common endpoint '{}' may broadcast",
                    self.tables.processes[bundle.common.0].name
                ),
            });
        }
        let conv = parse_format(format)?;
        check_against_format(&conv, values)?;
        let data = pack_message(values);
        self.charge(payload_bytes(values));
        let members = self.bundle_member_ranks(b)?;
        self.forward_bcast(&members, 0, Tables::bundle_tag(b), &data);
        for &c in &bundle.channels {
            self.svc_event(self.chan_event(service::EV_WRITE, c));
        }
        self.log(Op::Broadcast, b.0, data.len());
        Ok(())
    }

    /// `PI_Gather`: collect one message from every channel of the bundle,
    /// in channel order. Only the common endpoint (the reader) calls this;
    /// writers each call [`Pilot::write`] on their own channel.
    pub fn gather(&self, b: PiBundle, format: &str) -> Result<Vec<Vec<PiValue>>, PilotError> {
        let bundle = self.tables.bundle(b)?.clone();
        if bundle.usage != BundleUsage::Gather {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: "PI_Gather on a non-gather bundle".into(),
            });
        }
        if bundle.common != self.me {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: format!(
                    "only the common endpoint '{}' may gather",
                    self.tables.processes[bundle.common.0].name
                ),
            });
        }
        let conv = parse_format(format)?;
        let mut out = Vec::with_capacity(bundle.channels.len());
        for &c in &bundle.channels {
            let entry = self.tables.channel(c)?;
            let raw = self.p2p_recv(c, entry.from)?;
            let values = unpack_message(&raw).expect("well-formed Pilot wire message");
            let segs: Vec<(Datatype, usize)> =
                values.iter().map(|v| (v.dtype(), v.len())).collect();
            check_read_format(&conv, &segs).map_err(|detail| PilotError::FormatMismatch {
                channel: c.0,
                detail,
            })?;
            self.charge(payload_bytes(&values));
            out.push(values);
        }
        let n = out.iter().map(|v| payload_bytes(v)).sum();
        self.log(Op::Gather, b.0, n);
        Ok(out)
    }

    /// `PI_Select`: block until some channel of the bundle has data ready
    /// to read, and return that channel (so a read on it will not block).
    pub fn select(&self, b: PiBundle) -> Result<PiChannel, PilotError> {
        let bundle = self.tables.bundle(b)?;
        if bundle.usage != BundleUsage::Select {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: "PI_Select on a non-select bundle".into(),
            });
        }
        if bundle.common != self.me {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: "only the common endpoint may select".into(),
            });
        }
        let tags: Vec<i32> = bundle
            .channels
            .iter()
            .map(|&c| Tables::chan_tag(c))
            .collect();
        self.charge(0);
        let (_, tag, _, _) = self
            .comm
            .probe_match("PI_Select", |e| tags.contains(&e.tag));
        self.log(Op::Select, b.0, 0);
        Ok(PiChannel(tag as usize))
    }

    /// `PI_TrySelect`: non-blocking [`Pilot::select`]; `None` if no channel
    /// has data.
    pub fn try_select(&self, b: PiBundle) -> Result<Option<PiChannel>, PilotError> {
        let bundle = self.tables.bundle(b)?;
        if bundle.usage != BundleUsage::Select {
            return Err(PilotError::BundleMisuse {
                bundle: b.0,
                detail: "PI_TrySelect on a non-select bundle".into(),
            });
        }
        let tags: Vec<i32> = bundle
            .channels
            .iter()
            .map(|&c| Tables::chan_tag(c))
            .collect();
        self.charge(0);
        Ok(self
            .comm
            .iprobe_match(|e| tags.contains(&e.tag))
            .map(|(_, tag, _, _)| PiChannel(tag as usize)))
    }

    /// `PI_ChannelHasData`: non-blocking check whether a read on `chan`
    /// would find a message waiting.
    pub fn channel_has_data(&self, chan: PiChannel) -> Result<bool, PilotError> {
        let entry = self.tables.channel(chan)?;
        if entry.to != self.me {
            return Err(PilotError::NotReader {
                channel: chan.0,
                caller: self.name(),
                reader: self.tables.processes[entry.to.0].name.clone(),
            });
        }
        let src = self.tables.processes[entry.from.0].rank;
        self.charge(0);
        Ok(self
            .comm
            .iprobe(Some(src), Some(Tables::chan_tag(chan)))
            .is_some())
    }

    /// End-of-execution synchronization (`PI_StopMain`): all application
    /// processes barrier together, and the deadlock service (if running) is
    /// told to shut down. Called automatically when a process function or
    /// `main` returns.
    pub(crate) fn finish(&self) {
        self.svc_event(service::DlEvent::finish());
        // Linear barrier over application ranks (rank 0 collects, then
        // releases). Perf is irrelevant here; determinism is not.
        //
        // Ranks with a death scheduled in the fault plan are excluded
        // symmetrically: rank 0 does not wait for them, and they do not
        // enter the barrier (their reaper may not have fired yet, but both
        // sides consult the same plan, so the barrier stays consistent and
        // the survivors are never wedged on a corpse).
        let plan = self.comm.fault_plan();
        let dead = |r: usize| plan.death_of(r).is_some();
        let app_ranks: Vec<usize> = self.tables.processes.iter().map(|p| p.rank).collect();
        let my_rank = self.tables.processes[self.me.0].rank;
        if dead(my_rank) {
            return;
        }
        if my_rank == 0 {
            for &r in &app_ranks {
                if r != 0 && !dead(r) {
                    let _ = self.comm.recv(Some(r), Some(TAG_FINI));
                }
            }
            for &r in &app_ranks {
                if r != 0 && !dead(r) {
                    self.comm
                        .send_bytes(r, TAG_FINI, Datatype::Byte, 0, Vec::new());
                }
            }
        } else {
            self.comm
                .send_bytes(0, TAG_FINI, Datatype::Byte, 0, Vec::new());
            let _ = self.comm.recv(Some(0), Some(TAG_FINI));
        }
    }

    /// Abort the application with a Pilot-style diagnostic carrying the
    /// source location of the offending call.
    pub fn abort_loc(&self, err: &PilotError, file: &str, line: u32) -> ! {
        self.ctx().abort(&format!(
            "[{}:{}] in process '{}': {}",
            file,
            line,
            self.name(),
            err
        ));
    }
}

/// `PI_Write` with Pilot-style abort-on-misuse: captures the call site so
/// errors are "reported by source file and line number".
#[macro_export]
macro_rules! pi_write {
    ($pilot:expr, $chan:expr, $fmt:expr $(, $val:expr)* $(,)?) => {
        match $pilot.write($chan, $fmt, &[$($crate::PiValue::from($val)),*]) {
            Ok(()) => (),
            Err(e) => $pilot.abort_loc(&e, file!(), line!()),
        }
    };
}

/// `PI_Read` with Pilot-style abort-on-misuse; returns `Vec<PiValue>`.
#[macro_export]
macro_rules! pi_read {
    ($pilot:expr, $chan:expr, $fmt:expr) => {
        match $pilot.read($chan, $fmt) {
            Ok(v) => v,
            Err(e) => $pilot.abort_loc(&e, file!(), line!()),
        }
    };
}
