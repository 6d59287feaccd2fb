//! The span/event recorder every layer of the stack reports into.

use crate::chrome;
use crate::hb::{HbEvent, HbOp};
use crate::metrics::{MetricsSnapshot, MetricsState, CHANNEL_TYPE_COUNT};
use crate::ops::{Measure, Op, OpEvent};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Chrome-trace phase of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`"ph": "X"`): carries a duration.
    Complete,
    /// An instant marker (`"ph": "i"`).
    Instant,
    /// A counter sample (`"ph": "C"`).
    Counter,
}

/// One recorded trace event, keyed on simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual timestamp, nanoseconds.
    pub ts_ns: u64,
    /// Span duration, nanoseconds (0 for instants and counters).
    pub dur_ns: u64,
    /// Lane id (see [`Recorder::lane`]); one lane per rank/SPE/Co-Pilot.
    pub lane: u32,
    /// What kind of event this is.
    pub phase: Phase,
    /// Display name.
    pub name: String,
    /// Category tag (`"channel"`, `"mpi"`, `"net"`, `"des"`, `"incident"`).
    pub category: &'static str,
    /// Counter value; meaningful only for [`Phase::Counter`].
    pub value: f64,
    /// Free-form detail attached to the event, if any.
    pub detail: Option<String>,
}

#[derive(Debug, Default)]
struct State {
    lanes: Vec<String>,
    lane_ids: BTreeMap<String, u32>,
    events: Vec<Event>,
    metrics: MetricsState,
    hb: Vec<HbEvent>,
    ops: Vec<OpEvent>,
}

impl State {
    fn lane_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.lane_ids.get(name) {
            return id;
        }
        let id = self.lanes.len() as u32;
        self.lanes.push(name.to_string());
        self.lane_ids.insert(name.to_string(), id);
        id
    }

    fn push(&mut self, event: Event) {
        self.events.push(event);
    }
}

/// Sample the kernel queue-depth counter once per this many dispatches, so
/// long runs cannot balloon the trace with one event per context switch.
const QUEUE_SAMPLE_EVERY: u64 = 64;

/// The metrics slot of Table-I channel type `chan_type` (1..=5).
fn type_index(chan_type: u8) -> usize {
    assert!(
        (1..=CHANNEL_TYPE_COUNT as u8).contains(&chan_type),
        "channel type {chan_type} out of range"
    );
    usize::from(chan_type - 1)
}

/// A complete span over `[t0_ns, ts_ns]`, its lane still to be set.
fn span(category: &'static str, name: String, t0_ns: u64, ts_ns: u64) -> Event {
    Event {
        ts_ns: t0_ns,
        dur_ns: ts_ns.saturating_sub(t0_ns),
        lane: 0,
        phase: Phase::Complete,
        name,
        category,
        value: 0.0,
        detail: None,
    }
}

/// Handle to one run's recording, shared by every instrumented layer.
///
/// `Recorder::default()` is *disabled*: there is no storage behind it and
/// every recording call returns after a single branch, which is what makes
/// always-on instrumentation affordable. [`Recorder::enabled`] allocates
/// shared storage; clones are shallow, so the caller keeps one clone and
/// reads [`Recorder::snapshot`] / [`Recorder::chrome_trace`] after the run.
///
/// No method consumes virtual time — the recorder observes the schedule,
/// it never perturbs it.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<State>>>,
}

impl Recorder {
    /// A recording handle with live storage.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Mutex::new(State::default()))),
        }
    }

    /// The no-op handle (what `Default` also returns).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this handle records anything. Instrumentation that must
    /// format names or look up state should check this first.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a lane (one horizontal track in the trace viewer; by
    /// convention the DES process name: rank name, SPE name, `copilotN`).
    /// Returns 0 when disabled.
    pub fn lane(&self, name: &str) -> u32 {
        let Some(inner) = &self.inner else { return 0 };
        inner.lock().lane_id(name)
    }

    /// Record a complete span on `lane` covering `[ts_ns, ts_ns + dur_ns]`.
    pub fn span(&self, lane: u32, category: &'static str, name: &str, ts_ns: u64, dur_ns: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().push(Event {
            ts_ns,
            dur_ns,
            lane,
            phase: Phase::Complete,
            name: name.to_string(),
            category,
            value: 0.0,
            detail: None,
        });
    }

    /// Record a counter sample on `lane`.
    pub fn counter(&self, lane: u32, category: &'static str, name: &str, ts_ns: u64, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().push(Event {
            ts_ns,
            dur_ns: 0,
            lane,
            phase: Phase::Counter,
            name: name.to_string(),
            category,
            value,
            detail: None,
        });
    }

    /// DES kernel: one scheduler dispatch with the pending-queue depth at
    /// dispatch time, and whether it had to wake another OS thread (a
    /// hand-off). Counts always; samples a `queue depth` counter event once
    /// every 64 dispatches.
    pub fn record_dispatch(&self, ts_ns: u64, queue_depth: usize, handoff: bool) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        st.metrics.des.dispatches += 1;
        st.metrics.des.handoffs += u64::from(handoff);
        st.metrics.des.max_queue_depth = st.metrics.des.max_queue_depth.max(queue_depth as u64);
        if st.metrics.des.dispatches % QUEUE_SAMPLE_EVERY == 1 {
            let lane = st.lane_id("kernel");
            st.push(Event {
                ts_ns,
                dur_ns: 0,
                lane,
                phase: Phase::Counter,
                name: "queue depth".to_string(),
                category: "des",
                value: queue_depth as f64,
                detail: None,
            });
        }
    }

    /// DES kernel: a hand-off made outside a dispatch — a lent wait that
    /// finished on another thread passing the CPU to its owner's thread.
    pub fn record_handoff(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.des.handoffs += 1;
    }

    /// A degradation incident (category is the `IncidentCategory`
    /// kebab-case name): counted, and marked as an instant on the
    /// reporting process's lane so failovers are visible in the trace.
    pub fn record_incident(&self, ts_ns: u64, process: &str, category: &str, detail: &str) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        *st.metrics
            .incidents
            .entry(category.to_string())
            .or_insert(0) += 1;
        let lane = st.lane_id(process);
        st.push(Event {
            ts_ns,
            dur_ns: 0,
            lane,
            phase: Phase::Instant,
            name: format!("incident: {category}"),
            category: "incident",
            value: 0.0,
            detail: Some(detail.to_string()),
        });
    }

    /// MPI layer: a logical point-to-point send of `payload_bytes`.
    pub fn record_send(&self, payload_bytes: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        st.metrics.mpi.sends += 1;
        st.metrics.mpi.payload_bytes += payload_bytes;
    }

    /// MPI layer: a completed point-to-point receive of `payload_bytes`.
    pub fn record_recv(&self, payload_bytes: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        st.metrics.mpi.recvs += 1;
        st.metrics.mpi.payload_bytes += payload_bytes;
    }

    /// MPI layer: `wire_bytes` put on the wire for one transmission
    /// attempt (retransmissions call this again).
    pub fn record_wire(&self, wire_bytes: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.mpi.wire_bytes += wire_bytes;
    }

    /// MPI layer: a transmission attempt will be repeated after a drop.
    pub fn record_retransmit(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.mpi.retransmits += 1;
    }

    /// MPI layer: one completed collective operation (`"bcast"`, ...).
    pub fn record_collective(&self, op: &str) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        *st.metrics
            .mpi
            .collectives
            .entry(op.to_string())
            .or_insert(0) += 1;
    }

    /// Interconnect: the fault plan dropped a frame on a link.
    pub fn record_link_drop(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.net.link_drops += 1;
    }

    /// Interconnect: the fault plan delayed a frame on a link.
    pub fn record_link_delay(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.net.link_delays += 1;
    }

    /// Interconnect: the fault plan duplicated a frame on a link.
    pub fn record_link_duplicate(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.net.link_duplicates += 1;
    }

    /// Interconnect: one Co-Pilot heartbeat beat.
    pub fn record_heartbeat(&self) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.net.heartbeats += 1;
    }

    /// CellPilot and Pilot runtimes: report one completed operation by
    /// `process` at `ts_ns`, once. `op` (when some) is its op-log line
    /// (see [`OpEvent`] for what `bytes` counts); `measure` (when some) is
    /// what the metrics and the Chrome trace take from it.
    pub fn record_op(
        &self,
        ts_ns: u64,
        process: &Arc<str>,
        op: Option<Op>,
        subject: usize,
        bytes: usize,
        measure: Option<Measure>,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.lock();
        if let Some(op) = op {
            st.ops.push(OpEvent {
                ts_ns,
                process: process.clone(),
                op,
                subject,
                bytes,
            });
        }
        let Some(measure) = measure else { return };
        let event = match measure {
            Measure::Channel {
                chan_type,
                write,
                payload_bytes,
                t0_ns,
            } => {
                let c = &mut st.metrics.channel[type_index(chan_type)];
                if write {
                    c.writes += 1;
                } else {
                    c.reads += 1;
                }
                c.bytes += payload_bytes as u64;
                c.latencies_ns.push(ts_ns.saturating_sub(t0_ns));
                let verb = if write { "write" } else { "read" };
                span(
                    "channel",
                    format!("{verb} c{subject} (type {chan_type})"),
                    t0_ns,
                    ts_ns,
                )
            }
            Measure::OneSided { put, t0_ns } => {
                let os = &mut st.metrics.one_sided;
                if put {
                    os.puts += 1;
                    os.put_latencies_ns.push(ts_ns.saturating_sub(t0_ns));
                } else {
                    os.gets += 1;
                    os.get_latencies_ns.push(ts_ns.saturating_sub(t0_ns));
                }
                os.bytes += bytes as u64;
                let verb = if put { "put" } else { "get" };
                span("one-sided", format!("{verb} c{subject}"), t0_ns, ts_ns)
            }
            Measure::ProxyHop { chan_type, what } => {
                st.metrics.channel[type_index(chan_type)].proxy_hops += 1;
                Event {
                    ts_ns,
                    dur_ns: 0,
                    lane: 0,
                    phase: Phase::Instant,
                    name: format!("{what} c{subject} (type {chan_type})"),
                    category: "copilot",
                    value: 0.0,
                    detail: None,
                }
            }
        };
        let lane = st.lane_id(process);
        st.push(Event { lane, ..event });
    }

    /// CellPilot runtime: a write on bounded channel `chan` was granted a
    /// credit at in-flight `depth`; tracks the per-channel queue-depth
    /// high watermark the overload campaign compares against capacity.
    pub fn record_queue_depth(&self, chan: u32, depth: u64) {
        let Some(inner) = &self.inner else { return };
        inner.lock().metrics.flow.note_depth(chan, depth);
    }

    /// CellPilot runtime: a write on channel `chan` was shed — refused
    /// under `OverloadPolicy::Shed` or expired under `DeadlineDrop`.
    pub fn record_shed(&self, chan: u32) {
        let Some(inner) = &self.inner else { return };
        *inner.lock().metrics.flow.sheds.entry(chan).or_insert(0) += 1;
    }

    /// CellPilot runtime: a write on channel `chan` found the channel at
    /// capacity and entered a credit wait (whether or not it eventually
    /// got through).
    pub fn record_backpressure_wait(&self, chan: u32) {
        let Some(inner) = &self.inner else { return };
        *inner
            .lock()
            .metrics
            .flow
            .backpressure_waits
            .entry(chan)
            .or_insert(0) += 1;
    }

    /// Happens-before stream: `actor` performed `op` at virtual time
    /// `ts_ns`. Consumed by the `cp-check` race detector; see
    /// [`crate::hb`] for the event model.
    pub fn record_hb(&self, actor: &str, ts_ns: u64, op: HbOp) {
        let Some(inner) = &self.inner else { return };
        inner.lock().hb.push(HbEvent {
            actor: actor.to_string(),
            ts_ns,
            op,
        });
    }

    /// The recorded happens-before stream, in execution (record) order.
    pub fn hb_events(&self) -> Vec<HbEvent> {
        match &self.inner {
            Some(inner) => inner.lock().hb.clone(),
            None => Vec::new(),
        }
    }

    /// The op log, stably sorted by completion time (ties keep record
    /// order).
    pub fn ops(&self) -> Vec<OpEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut ops = inner.lock().ops.clone();
        ops.sort_by_key(|e| e.ts_ns);
        ops
    }

    /// Collapse the counters into a [`MetricsSnapshot`] (all zero when the
    /// recorder is disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.lock().metrics.snapshot(),
            None => MetricsState::default().snapshot(),
        }
    }

    /// All recorded events, stably sorted by timestamp (ties keep record
    /// order).
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut events = inner.lock().events.clone();
        events.sort_by_key(|e| e.ts_ns);
        events
    }

    /// The interned lane names, indexed by lane id.
    pub fn lanes(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.lock().lanes.clone(),
            None => Vec::new(),
        }
    }

    /// Export the recording as Chrome `trace_event` JSON (openable in
    /// `about://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        chrome::chrome_trace(&self.lanes(), &self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::default();
        assert!(!r.is_enabled());
        r.record_dispatch(10, 3, true);
        let main: Arc<str> = "main".into();
        let write = Measure::Channel {
            chan_type: 5,
            write: true,
            payload_bytes: 100,
            t0_ns: 0,
        };
        r.record_op(1000, &main, Some(Op::SpeWrite), 0, 109, Some(write));
        r.record_incident(10, "main", "spe-crash", "x");
        r.record_hb(
            "node0.spe0:w",
            10,
            HbOp::DmaWait {
                node: 0,
                spe: 0,
                mask: 1,
            },
        );
        assert_eq!(r.lane("main"), 0);
        assert!(r.hb_events().is_empty());
        assert!(r.events().is_empty());
        assert!(r.ops().is_empty());
        assert!(r.lanes().is_empty());
        let snap = r.snapshot();
        assert_eq!(snap.des.dispatches, 0);
        assert_eq!(snap.channel_types.len(), 5);
    }

    #[test]
    fn clones_share_storage() {
        let r = Recorder::enabled();
        let c = r.clone();
        c.record_send(128);
        assert_eq!(r.snapshot().mpi.sends, 1);
        assert_eq!(r.snapshot().mpi.payload_bytes, 128);
    }

    #[test]
    fn lanes_are_interned_stably() {
        let r = Recorder::enabled();
        let a = r.lane("rank0");
        let b = r.lane("copilot1");
        assert_eq!(r.lane("rank0"), a);
        assert_ne!(a, b);
        assert_eq!(r.lanes(), vec!["rank0".to_string(), "copilot1".to_string()]);
    }

    #[test]
    fn events_sort_by_virtual_time() {
        let r = Recorder::enabled();
        let lane = r.lane("main");
        r.record_incident(500, "main", "spe-crash", "later");
        r.span(lane, "channel", "earlier", 100, 50);
        let ev = r.events();
        assert_eq!(ev[0].name, "earlier");
        assert_eq!(ev[1].detail.as_deref(), Some("later"));
    }

    #[test]
    fn dispatch_counter_is_sampled_not_dense() {
        let r = Recorder::enabled();
        for i in 0..200u64 {
            r.record_dispatch(i, (i % 10) as usize, i % 4 == 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.des.dispatches, 200);
        assert_eq!(snap.des.handoffs, 50);
        assert_eq!(snap.des.max_queue_depth, 9);
        let counters = r
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Counter)
            .count();
        assert!(
            counters <= 200 / QUEUE_SAMPLE_EVERY as usize + 1,
            "{counters}"
        );
        assert!(counters >= 1);
    }

    /// A type-`chan_type` channel op by `who` over `[t0_ns, ts_ns]`.
    fn chan_op(r: &Recorder, who: &Arc<str>, chan_type: u8, write: bool, t0_ns: u64, ts_ns: u64) {
        let op = if write { Op::RankWrite } else { Op::RankRead };
        let m = Measure::Channel {
            chan_type,
            write,
            payload_bytes: 1600,
            t0_ns,
        };
        r.record_op(ts_ns, who, Some(op), 0, 1609, Some(m));
    }

    #[test]
    fn channel_ops_aggregate_per_type() {
        let r = Recorder::enabled();
        let (main, copilot): (Arc<str>, Arc<str>) = ("main".into(), "copilot1".into());
        chan_op(&r, &main, 4, true, 0, 112_000);
        chan_op(&r, &main, 4, false, 0, 112_000);
        for _ in 0..2 {
            let hop = Measure::ProxyHop {
                chan_type: 5,
                what: "forward",
            };
            r.record_op(5, &copilot, None, 3, 0, Some(hop));
        }
        let snap = r.snapshot();
        assert_eq!(snap.channel_types[3].writes, 1);
        assert_eq!(snap.channel_types[3].reads, 1);
        assert_eq!(snap.channel_types[3].bytes, 3200);
        assert_eq!(snap.channel_types[3].latency_us.median, 112.0);
        assert_eq!(snap.channel_types[4].proxy_hops, 2);
        let events = r.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "write c0 (type 4)",
                "read c0 (type 4)",
                "forward c3 (type 5)",
                "forward c3 (type 5)"
            ]
        );
        assert_eq!(r.lanes(), ["main", "copilot1"]);
        // Only the ops given an `Op` are logged.
        assert_eq!(r.ops().len(), 2);
    }

    #[test]
    fn one_sided_ops_aggregate() {
        let r = Recorder::enabled();
        let who: Arc<str> = "sender#0".into();
        for (put, t0_ns, ts_ns) in [(true, 0, 80_000), (true, 1_000, 83_000), (false, 0, 6_000)] {
            let op = if put {
                Op::OneSidedPut
            } else {
                Op::OneSidedDeliver
            };
            let m = Measure::OneSided { put, t0_ns };
            r.record_op(ts_ns, &who, Some(op), 0, 1600, Some(m));
        }
        let snap = r.snapshot();
        assert_eq!(snap.one_sided.puts, 2);
        assert_eq!(snap.one_sided.gets, 1);
        assert_eq!(snap.one_sided.bytes, 4800);
        assert_eq!(snap.one_sided.put_latency_us.median, 82.0);
        assert_eq!(snap.one_sided.get_latency_us.max, 6.0);
        assert!(snap.one_sided.throughput_mb_s > 0.0);
        // Disabled recorder: single-branch no-op.
        let m = Measure::OneSided {
            put: true,
            t0_ns: 0,
        };
        Recorder::default().record_op(1, &who, Some(Op::OneSidedPut), 0, 1, Some(m));
    }

    #[test]
    fn op_log_sorts_stably_by_time() {
        let r = Recorder::enabled();
        let (a, b): (Arc<str>, Arc<str>) = ("a".into(), "b".into());
        r.record_op(9, &b, Some(Op::RankRead), 1, 8, None);
        r.record_op(3, &a, Some(Op::RankWrite), 1, 8, None);
        r.record_op(9, &a, Some(Op::Select), 2, 0, None);
        let ops = r.ops();
        let order: Vec<(&str, Op)> = ops.iter().map(|e| (&*e.process, e.op)).collect();
        assert_eq!(
            order,
            [("a", Op::RankWrite), ("b", Op::RankRead), ("a", Op::Select)]
        );
        // The log is kept apart from the Chrome-trace events and lanes.
        assert!(r.events().is_empty());
        assert!(r.lanes().is_empty());
        assert_eq!(r.ops(), ops, "reading the log does not drain it");
    }

    #[test]
    fn flow_counters_aggregate() {
        let r = Recorder::enabled();
        r.record_queue_depth(3, 2);
        r.record_queue_depth(3, 5);
        r.record_queue_depth(3, 4);
        r.record_backpressure_wait(3);
        r.record_shed(7);
        r.record_shed(7);
        let snap = r.snapshot();
        assert_eq!(snap.flow.queue_high_watermark.get(&3), Some(&5));
        assert_eq!(snap.flow.backpressure_waits.get(&3), Some(&1));
        assert_eq!(snap.flow.sheds.get(&7), Some(&2));
        // Disabled recorder: single-branch no-op.
        Recorder::default().record_queue_depth(0, 1);
        Recorder::default().record_shed(0);
        Recorder::default().record_backpressure_wait(0);
    }

    #[test]
    fn hb_stream_keeps_record_order() {
        let r = Recorder::enabled();
        r.record_hb(
            "copilot0",
            2_000,
            HbOp::MsgSend {
                queue: "node0.spe1".into(),
                seq: 0,
            },
        );
        r.record_hb(
            "node0.spe1:w",
            1_000, // earlier virtual time, recorded later: order must hold
            HbOp::MsgRecv {
                queue: "node0.spe1".into(),
                seq: 0,
            },
        );
        let hb = r.hb_events();
        assert_eq!(hb.len(), 2);
        assert!(matches!(hb[0].op, HbOp::MsgSend { .. }));
        assert!(matches!(hb[1].op, HbOp::MsgRecv { .. }));
        assert_eq!(hb[1].actor, "node0.spe1:w");
    }

    #[test]
    fn incidents_count_and_mark() {
        let r = Recorder::enabled();
        r.record_incident(
            1_000,
            "copilot1-standby",
            "copilot-failover",
            "adopting node 1",
        );
        r.record_incident(2_000, "reaper-rank1", "rank-death", "rank 1");
        r.record_incident(3_000, "reaper-rank2", "rank-death", "rank 2");
        let snap = r.snapshot();
        assert_eq!(snap.incidents["copilot-failover"], 1);
        assert_eq!(snap.incidents["rank-death"], 2);
        let ev = r.events();
        assert!(ev.iter().any(|e| e.name == "incident: copilot-failover"
            && e.detail.as_deref() == Some("adopting node 1")));
    }
}
