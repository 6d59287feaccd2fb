//! The execution phase: the per-process `Pilot` handle with
//! `PI_Write`/`PI_Read`, bundle operations, and Pilot's run-time
//! architecture enforcement.

use crate::endpoint::{pack_checked, PilotCosts, RankEndpoint, Route};
use crate::error::PilotError;
use crate::fmt::parse_format;
use crate::service::{self, DlEndpoint, DlEvent};
use crate::table::{BundleDecl, BundleUsage, PiBundle, PiChannel, PiProcess, Tables};
use crate::value::{payload_bytes, PiScalar, PiValue};
use cp_des::{ProcCtx, SimDuration};
use cp_mpisim::{Comm, Datatype};
use cp_trace::{Op, Recorder};
use std::sync::Arc;

/// A process's handle on the running Pilot application.
pub struct Pilot {
    /// This process's channel endpoint.
    ep: RankEndpoint,
    tables: Arc<Tables>,
    me: PiProcess,
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
        let name = tables.decls.name(me.0).clone();
        let detector = tables.detector_rank;
        Pilot {
            ep: RankEndpoint::new(comm, costs, name, recorder, detector, deadline),
            tables,
            me,
        }
    }

    /// Log one completed channel call.
    fn log(&self, op: Op, subject: usize, bytes: usize) {
        self.ep.record(Some(op), subject, bytes, None);
    }

    /// This process's handle.
    pub fn process(&self) -> PiProcess {
        self.me
    }

    /// This process's configured name.
    pub fn name(&self) -> String {
        self.ep.name().to_string()
    }

    /// Total Pilot processes (including `PI_MAIN`).
    pub fn process_count(&self) -> usize {
        self.tables.decls.process_count()
    }

    /// The simulated-process context (for modelling compute time with
    /// `ctx().advance(..)`).
    pub fn ctx(&self) -> &ProcCtx {
        self.ep.ctx()
    }

    /// The underlying MPI communicator (diagnostics / advanced use).
    pub fn comm(&self) -> &Comm {
        self.ep.comm()
    }

    /// The name of process `p`.
    fn proc_name(&self, p: usize) -> &str {
        self.tables.decls.name(p)
    }

    /// The MPI rank of process `p` (Pilot processes are always ranks).
    fn rank(&self, p: usize) -> usize {
        self.tables.processes[p].rank
    }

    /// Begin a write (`EV_WRITE`) or read (`EV_READWAIT`) on `chan`; its
    /// detector event names both endpoints by rank.
    fn route(&self, kind: u8, chan: usize) -> Route<'_> {
        let entry = &self.tables.decls.channels()[chan];
        let (reader, writer) = (entry.to, entry.from);
        let peer = if kind == service::EV_WRITE {
            reader
        } else {
            writer
        };
        let event = DlEvent::on_channel(
            kind,
            chan,
            DlEndpoint::Rank(self.rank(reader)),
            DlEndpoint::Rank(self.rank(writer)),
            None,
        );
        self.ep.route(chan, self.proc_name(peer), event, None)
    }

    /// `PI_Write`: send `values` described by `format` on `chan`. Only the
    /// channel's writer may call this.
    pub fn write(
        &self,
        chan: PiChannel,
        format: &str,
        values: &[PiValue],
    ) -> Result<(), PilotError> {
        let entry = self.tables.decls.channel(chan.0)?;
        PilotError::check_writer(
            entry.from == self.me.0,
            chan.0,
            self.ep.name(),
            self.proc_name(entry.from),
        )?;
        let route = self.route(service::EV_WRITE, chan.0);
        let msg = pack_checked(format, values)?;
        self.ep.charge(msg.payload);
        self.ep.send(&route, self.rank(entry.to), msg, || false)
    }

    /// `PI_Read`: receive the next message on `chan`, verifying it against
    /// `format`. Only the channel's reader may call this. If the channel
    /// belongs to a broadcast bundle, this participates in the broadcast
    /// (only the broadcaster calls [`Pilot::broadcast`]; every receiver
    /// just reads its own channel — Pilot's MPMD convention).
    pub fn read(&self, chan: PiChannel, format: &str) -> Result<Vec<PiValue>, PilotError> {
        let entry = self.tables.decls.channel(chan.0)?;
        PilotError::check_reader(
            entry.to == self.me.0,
            chan.0,
            self.ep.name(),
            self.proc_name(entry.to),
        )?;
        let conv = parse_format(format)?;
        let route = self.route(service::EV_READWAIT, chan.0);
        let raw = match entry.bundle {
            Some(b) if self.tables.decls.bundle(b)?.usage == BundleUsage::Broadcast => {
                self.bcast_tree_recv(&route, b)?
            }
            _ => self
                .ep
                .recv(&route, Some(self.rank(entry.from)), || false)?,
        };
        self.ep.deliver(&route, &conv, &raw)
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

    /// Receive leg of the binomial broadcast tree for bundle `b`: receive
    /// the read's message from the tree parent under the bundle's tag (with
    /// the read's deadline and detector report), forward it to the
    /// children, and return it.
    fn bcast_tree_recv(&self, route: &Route, b: usize) -> Result<Vec<u8>, PilotError> {
        let members = self.bundle_member_ranks(self.tables.decls.bundle(b)?);
        let my_rank = self.rank(self.me.0);
        let my_idx = members
            .iter()
            .position(|&r| r == my_rank)
            .expect("reader is a bundle member");
        debug_assert!(my_idx > 0, "broadcaster never calls read");
        let tag = Tables::bundle_tag(b);
        // Parent: clear my lowest set bit.
        let parent = my_idx & (my_idx - 1);
        let tree = Route { tag, ..*route };
        let data = self.ep.recv(&tree, Some(members[parent]), || false)?;
        self.forward_bcast(&members, my_idx, tag, &data);
        Ok(data)
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
                self.comm().send_bytes(
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

    /// The ranks of broadcast bundle `bundle`'s tree: the writer, then
    /// each member channel's reader.
    fn bundle_member_ranks(&self, bundle: &BundleDecl) -> Vec<usize> {
        let channels = self.tables.decls.channels();
        std::iter::once(bundle.common)
            .chain(bundle.channels.iter().map(|&c| channels[c].to))
            .map(|p| self.rank(p))
            .collect()
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
        let bundle = self.bundle_op(b, "PI_Broadcast", BundleUsage::Broadcast)?;
        let msg = pack_checked(format, values)?;
        self.ep.charge(msg.payload);
        let members = self.bundle_member_ranks(bundle);
        self.forward_bcast(&members, 0, Tables::bundle_tag(b.0), &msg.data);
        for &c in &bundle.channels {
            self.ep.report(self.route(service::EV_WRITE, c).event);
        }
        self.log(Op::Broadcast, b.0, msg.data.len());
        Ok(())
    }

    /// `PI_Gather`: collect one message from every channel of the bundle,
    /// in channel order. Only the common endpoint (the reader) calls this;
    /// writers each call [`Pilot::write`] on their own channel.
    pub fn gather(&self, b: PiBundle, format: &str) -> Result<Vec<Vec<PiValue>>, PilotError> {
        let bundle = self.bundle_op(b, "PI_Gather", BundleUsage::Gather)?;
        let conv = parse_format(format)?;
        let mut out = Vec::with_capacity(bundle.channels.len());
        for &c in &bundle.channels {
            let from = self.tables.decls.channels()[c].from;
            let route = self.route(service::EV_READWAIT, c);
            let raw = self.ep.recv(&route, Some(self.rank(from)), || false)?;
            out.push(self.ep.accept(c, &conv, &raw)?);
        }
        let n = out.iter().map(|v| payload_bytes(v)).sum();
        self.log(Op::Gather, b.0, n);
        Ok(out)
    }

    /// `PI_Select`: block until some channel of the bundle has data ready
    /// to read, and return that channel (so a read on it will not block).
    pub fn select(&self, b: PiBundle) -> Result<PiChannel, PilotError> {
        let tags = self.select_tags(b, "PI_Select")?;
        self.ep.charge(0);
        let (_, tag, _, _) = self
            .comm()
            .probe_match("PI_Select", |e| tags.contains(&e.tag));
        self.log(Op::Select, b.0, 0);
        Ok(PiChannel(tag as usize))
    }

    /// `PI_TrySelect`: non-blocking [`Pilot::select`]; `None` if no channel
    /// has data.
    pub fn try_select(&self, b: PiBundle) -> Result<Option<PiChannel>, PilotError> {
        let tags = self.select_tags(b, "PI_TrySelect")?;
        self.ep.charge(0);
        Ok(self
            .comm()
            .iprobe_match(|e| tags.contains(&e.tag))
            .map(|(_, tag, _, _)| PiChannel(tag as usize)))
    }

    /// The channel tags of select bundle `b`, checking that `op` is a
    /// select by the bundle's common endpoint (the reader: only its own
    /// mailbox holds the bundle's messages).
    fn select_tags(&self, b: PiBundle, op: &str) -> Result<Vec<i32>, PilotError> {
        let bundle = self.bundle_op(b, op, BundleUsage::Select)?;
        Ok(bundle
            .channels
            .iter()
            .map(|&c| Tables::chan_tag(c))
            .collect())
    }

    /// Bundle `b`, checked for bundle operation `op` by this process.
    fn bundle_op(
        &self,
        b: PiBundle,
        op: &str,
        usage: BundleUsage,
    ) -> Result<&BundleDecl, PilotError> {
        self.tables.decls.bundle_op(b.0, op, usage, Some(self.me.0))
    }

    /// `PI_ChannelHasData`: non-blocking check whether a read on `chan`
    /// would find a message waiting.
    pub fn channel_has_data(&self, chan: PiChannel) -> Result<bool, PilotError> {
        let entry = self.tables.decls.channel(chan.0)?;
        PilotError::check_reader(
            entry.to == self.me.0,
            chan.0,
            self.ep.name(),
            self.proc_name(entry.to),
        )?;
        self.ep.charge(0);
        Ok(self.ep.has_data(chan.0, Some(self.rank(entry.from))))
    }

    /// End-of-execution synchronization ([`RankEndpoint::stop_main`]).
    /// Called automatically when a process function or `main` returns.
    pub(crate) fn finish(&self) {
        self.ep
            .stop_main(self.tables.processes.iter().map(|p| p.rank));
    }

    /// Abort the application with a Pilot-style diagnostic carrying the
    /// source location of the offending call.
    pub fn abort_loc(&self, err: &PilotError, file: &str, line: u32) -> ! {
        self.ep.abort_loc(err, file, line)
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
