//! Pilot's integrated deadlock-detection service (`-pisvc=d`).
//!
//! The service consumes one MPI process. Application processes report
//! channel operations to it with small fire-and-forget messages: a write
//! reports [`EV_WRITE`] after sending, a read reports [`EV_READWAIT`] before
//! blocking. The detector pairs reads with writes per channel, maintains a
//! wait-for graph of genuinely-blocked readers, and when it finds a cycle
//! that survives a grace period (long enough for any in-flight satisfying
//! writes to be reported), it aborts the application with a diagnostic
//! naming the deadlocked processes — the paper's "errors such as circular
//! wait will cause the program to abort with a diagnostic message
//! identifying the deadlocked processes".
//!
//! Endpoints are not limited to MPI ranks: events carry [`DlEndpoint`]s so
//! that CellPilot Co-Pilots can report on behalf of their SPEs, and a cycle
//! crossing PPE/Co-Pilot/SPE boundaries renders every hop (e.g.
//! `spe(1,3) -> copilot(1) -> rank 0 -> spe(1,3)`). The [`WaitGraph`] is
//! deliberately table-free: each reporter computes both endpoints of the
//! edge from its own routing tables, so the same graph serves Pilot's
//! rank-only world and CellPilot's hybrid one.

use crate::error::PilotError;
use cp_des::{SimDuration, Step};
use cp_mpisim::{Comm, Datatype, Msg};
use std::collections::HashMap;
use std::fmt;

/// Reserved tag for service traffic.
pub const TAG_SVC: i32 = -500;

/// Event kind: a write was posted on a channel.
pub const EV_WRITE: u8 = 0;
/// Event kind: a reader is about to block on a channel.
pub const EV_READWAIT: u8 = 1;
/// Event kind: an application process finished.
pub const EV_FINISH: u8 = 2;

/// How long a detected cycle must persist before it is declared a
/// deadlock. Covers the worst-case reporting latency of a satisfying
/// write already in flight.
pub const GRACE_US: u64 = 2_000;
/// Poll interval while confirming a suspected cycle.
pub const POLL_US: u64 = 100;

/// Fixed wire length of an encoded [`DlEvent`].
pub const EVENT_LEN: usize = 28;

/// A blocking-capable channel endpoint as seen by the deadlock detector.
///
/// MPI-visible processes are identified by rank; SPE contexts (invisible to
/// MPI) are identified by their `(node, slot)` coordinates and are reported
/// by proxy through their node's Co-Pilot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DlEndpoint {
    /// An MPI rank (a PPE process in CellPilot, any process in Pilot).
    Rank(usize),
    /// An SPE context, `spe(node, slot)`.
    Spe {
        /// Hosting node id.
        node: usize,
        /// SPE slot on that node.
        slot: usize,
    },
}

impl fmt::Display for DlEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlEndpoint::Rank(r) => write!(f, "rank {r}"),
            DlEndpoint::Spe { node, slot } => write!(f, "spe({node},{slot})"),
        }
    }
}

/// A decoded deadlock-service event.
///
/// Both endpoints are computed by the *reporter* from its own tables: the
/// detector never needs channel routing information, only the edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DlEvent {
    /// One of [`EV_WRITE`], [`EV_READWAIT`], [`EV_FINISH`].
    pub kind: u8,
    /// Channel id the event concerns (ignored for [`EV_FINISH`]).
    pub chan: u32,
    /// The reading endpoint of the channel.
    pub reader: DlEndpoint,
    /// The writing endpoint of the channel.
    pub writer: DlEndpoint,
    /// For proxied reports: the Co-Pilot node relaying on behalf of the
    /// reader. Rendered as an intermediate `copilot(n)` hop in diagnostics.
    pub via: Option<u32>,
}

impl DlEvent {
    /// A `kind` event ([`EV_WRITE`] or [`EV_READWAIT`]) on channel `chan`
    /// between the resolved endpoints; `via` names the Co-Pilot node that
    /// relays an SPE reader's waits.
    pub fn on_channel(
        kind: u8,
        chan: usize,
        reader: DlEndpoint,
        writer: DlEndpoint,
        via: Option<u32>,
    ) -> DlEvent {
        DlEvent {
            kind,
            chan: chan as u32,
            reader,
            writer,
            via,
        }
    }

    /// A finish event; the endpoint fields are unused.
    pub fn finish() -> DlEvent {
        DlEvent {
            kind: EV_FINISH,
            chan: 0,
            reader: DlEndpoint::Rank(0),
            writer: DlEndpoint::Rank(0),
            via: None,
        }
    }
}

fn put_endpoint(v: &mut Vec<u8>, ep: &DlEndpoint) {
    let (tag, a, b) = match ep {
        DlEndpoint::Rank(r) => (0u8, *r as u32, 0u32),
        DlEndpoint::Spe { node, slot } => (1u8, *node as u32, *slot as u32),
    };
    v.push(tag);
    v.extend_from_slice(&a.to_be_bytes());
    v.extend_from_slice(&b.to_be_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(bytes[at..at + 4].try_into().expect("checked length"))
}

fn get_endpoint(bytes: &[u8], at: usize) -> Result<DlEndpoint, String> {
    let a = get_u32(bytes, at + 1) as usize;
    let b = get_u32(bytes, at + 5) as usize;
    match bytes[at] {
        0 => Ok(DlEndpoint::Rank(a)),
        1 => Ok(DlEndpoint::Spe { node: a, slot: b }),
        t => Err(format!("unknown endpoint tag {t} at offset {at}")),
    }
}

/// Send `ev` to the detector at rank `detector`, if the service runs:
/// fire and forget. `None` when the reporter's own mailbox is dead (see
/// [`Comm::send_bytes_async`]); a rank drives it from its thread, a
/// Co-Pilot awaits it.
pub async fn report(comm: &Comm, detector: Option<usize>, ev: DlEvent) -> Option<()> {
    if let Some(det) = detector {
        let payload = encode_event(&ev);
        let n = payload.len();
        comm.send_bytes_async(det, TAG_SVC, Datatype::Byte, n, payload)
            .await?;
    }
    Some(())
}

/// Encode an event into its fixed [`EVENT_LEN`]-byte wire form.
pub fn encode_event(ev: &DlEvent) -> Vec<u8> {
    let mut v = Vec::with_capacity(EVENT_LEN);
    v.push(ev.kind);
    v.extend_from_slice(&ev.chan.to_be_bytes());
    put_endpoint(&mut v, &ev.reader);
    put_endpoint(&mut v, &ev.writer);
    match ev.via {
        Some(n) => {
            v.push(1);
            v.extend_from_slice(&n.to_be_bytes());
        }
        None => {
            v.push(0);
            v.extend_from_slice(&0u32.to_be_bytes());
        }
    }
    debug_assert_eq!(v.len(), EVENT_LEN);
    v
}

/// Decode an event payload, rejecting truncated or malformed bytes with
/// [`PilotError::MalformedEvent`] instead of panicking.
pub fn decode_event(bytes: &[u8]) -> Result<DlEvent, PilotError> {
    let malformed = |detail: String| PilotError::MalformedEvent {
        len: bytes.len(),
        detail,
    };
    if bytes.len() != EVENT_LEN {
        return Err(malformed(format!("expected {EVENT_LEN} bytes")));
    }
    let kind = bytes[0];
    if kind > EV_FINISH {
        return Err(malformed(format!("unknown event kind {kind}")));
    }
    let chan = get_u32(bytes, 1);
    let reader = get_endpoint(bytes, 5).map_err(&malformed)?;
    let writer = get_endpoint(bytes, 14).map_err(&malformed)?;
    let via = match bytes[23] {
        0 => None,
        1 => Some(get_u32(bytes, 24)),
        f => return Err(malformed(format!("bad via flag {f}"))),
    };
    Ok(DlEvent {
        kind,
        chan,
        reader,
        writer,
        via,
    })
}

/// A wait-for edge: `reader` (the map key) is blocked on `chan`, waiting
/// for `writer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitEdge {
    chan: u32,
    writer: DlEndpoint,
    via: Option<u32>,
}

/// The detector's wait-for graph over [`DlEndpoint`]s.
///
/// Feed it decoded events with [`on_event`]; a returned cycle is a
/// *suspect* that the caller must confirm after a grace period with
/// [`cycle_still_present`] (a satisfying write may still be in flight).
///
/// [`on_event`]: WaitGraph::on_event
/// [`cycle_still_present`]: WaitGraph::cycle_still_present
#[derive(Debug, Default)]
pub struct WaitGraph {
    /// Writes reported but not yet paired with a read, per channel.
    writes_avail: HashMap<u32, usize>,
    /// Reader endpoint currently blocked per channel.
    waiting: HashMap<u32, DlEndpoint>,
    /// reader -> wait-for edge.
    edges: HashMap<DlEndpoint, WaitEdge>,
    finished: usize,
}

impl WaitGraph {
    /// A fresh, empty graph.
    pub fn new() -> WaitGraph {
        WaitGraph::default()
    }

    /// Number of [`EV_FINISH`] events absorbed so far.
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// True if no reader is currently blocked.
    pub fn idle(&self) -> bool {
        self.edges.is_empty()
    }

    /// Absorb one event; returns a suspected cycle (in wait-for order,
    /// first endpoint repeated at the end) if this event closed one.
    pub fn on_event(&mut self, ev: &DlEvent) -> Option<Vec<DlEndpoint>> {
        match ev.kind {
            EV_WRITE => {
                if let Some(reader) = self.waiting.remove(&ev.chan) {
                    self.edges.remove(&reader);
                } else {
                    *self.writes_avail.entry(ev.chan).or_insert(0) += 1;
                }
                None
            }
            EV_READWAIT => {
                let avail = self.writes_avail.entry(ev.chan).or_insert(0);
                if *avail > 0 {
                    *avail -= 1;
                    return None;
                }
                self.waiting.insert(ev.chan, ev.reader);
                self.edges.insert(
                    ev.reader,
                    WaitEdge {
                        chan: ev.chan,
                        writer: ev.writer,
                        via: ev.via,
                    },
                );
                self.find_cycle(ev.reader)
            }
            EV_FINISH => {
                self.finished += 1;
                None
            }
            other => panic!("unknown service event kind {other} (decode_event missed it)"),
        }
    }

    /// Follow wait-for edges from `start`; return the endpoint cycle if we
    /// come back around.
    fn find_cycle(&self, start: DlEndpoint) -> Option<Vec<DlEndpoint>> {
        let mut path = vec![start];
        let mut cur = start;
        while let Some(edge) = self.edges.get(&cur) {
            let next = edge.writer;
            if next == start {
                path.push(start);
                return Some(path);
            }
            if path.contains(&next) {
                // A cycle not involving `start`; it will be found when one
                // of its own members reports.
                return None;
            }
            path.push(next);
            cur = next;
        }
        None
    }

    /// Re-check a suspected cycle after draining newly arrived events.
    pub fn cycle_still_present(&self, cycle: &[DlEndpoint]) -> bool {
        cycle
            .windows(2)
            .all(|w| matches!(self.edges.get(&w[0]), Some(e) if e.writer == w[1]))
    }

    /// Render a confirmed cycle as diagnostic strings, naming each endpoint
    /// via `name` and inserting the `copilot(n)` relay hops recorded on the
    /// edges — e.g. `spe(1,3) -> copilot(1) -> rank 0 -> spe(1,3)`.
    pub fn render_cycle<F>(&self, cycle: &[DlEndpoint], name: F) -> Vec<String>
    where
        F: Fn(&DlEndpoint) -> String,
    {
        let mut out = Vec::new();
        for w in cycle.windows(2) {
            out.push(name(&w[0]));
            if let Some(edge) = self.edges.get(&w[0]) {
                if let Some(via) = edge.via {
                    out.push(format!("copilot({via})"));
                }
            }
        }
        if let Some(last) = cycle.last() {
            out.push(name(last));
        }
        out
    }
}

/// The deadlock-detection service, Pilot's and CellPilot's alike: absorb
/// events until `expected` processes have reported [`EV_FINISH`], and abort
/// the run on a cycle that survives [`GRACE_US`] of re-checks, naming each
/// endpoint with `name`. A component (see [`cp_mpisim::MpiWorld::launch_async`]):
/// every wait is an awaited kernel call, so the service has no thread.
pub async fn detector(comm: Comm, expected: usize, name: impl Fn(&DlEndpoint) -> String) {
    let mut graph = WaitGraph::new();
    let decode = |msg: Msg| match decode_event(&msg.data) {
        Ok(ev) => ev,
        Err(e) => comm.ctx().abort(&e.to_string()),
    };
    loop {
        let Some(msg) = comm.recv_async(None, Some(TAG_SVC)).await else {
            return;
        };
        let suspect = graph.on_event(&decode(msg));
        if graph.finished() == expected {
            return;
        }
        if let Some(cycle) = suspect {
            // Confirmation: a satisfying write (or a proxied report of one)
            // may still be in flight; drain and re-check for a grace period
            // before declaring.
            let mut waited = 0u64;
            let confirmed = loop {
                while let Some((src, _tag, _dt, _count)) = comm.iprobe(None, Some(TAG_SVC)) {
                    let Some(m) = comm.recv_async(Some(src), Some(TAG_SVC)).await else {
                        return;
                    };
                    let _ = graph.on_event(&decode(m));
                }
                if !graph.cycle_still_present(&cycle) {
                    break false;
                }
                if waited >= GRACE_US {
                    break true;
                }
                Step::Advance(SimDuration::from_micros(POLL_US)).await;
                waited += POLL_US;
            };
            if confirmed {
                let err = PilotError::CircularWait {
                    cycle: graph.render_cycle(&cycle, &name),
                };
                comm.ctx().abort(&err.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: DlEndpoint = DlEndpoint::Rank(0);
    const R1: DlEndpoint = DlEndpoint::Rank(1);

    fn ev(kind: u8, chan: u32, reader: DlEndpoint, writer: DlEndpoint) -> DlEvent {
        DlEvent {
            kind,
            chan,
            reader,
            writer,
            via: None,
        }
    }

    #[test]
    fn write_then_read_never_blocks() {
        let mut g = WaitGraph::new();
        assert!(g.on_event(&ev(EV_WRITE, 0, R1, R0)).is_none());
        assert!(g.on_event(&ev(EV_READWAIT, 0, R1, R0)).is_none());
        assert!(g.idle());
    }

    #[test]
    fn read_before_write_makes_edge_then_clears() {
        let mut g = WaitGraph::new();
        assert!(g.on_event(&ev(EV_READWAIT, 0, R1, R0)).is_none()); // worker waits on main
        assert!(!g.idle());
        assert!(g.on_event(&ev(EV_WRITE, 0, R1, R0)).is_none());
        assert!(g.idle());
    }

    #[test]
    fn mutual_reads_form_cycle() {
        let mut g = WaitGraph::new();
        // chan 0: rank0 -> rank1; chan 1: rank1 -> rank0.
        assert!(g.on_event(&ev(EV_READWAIT, 0, R1, R0)).is_none());
        let cycle = g.on_event(&ev(EV_READWAIT, 1, R0, R1));
        assert_eq!(cycle, Some(vec![R0, R1, R0]));
        assert!(g.cycle_still_present(&[R0, R1, R0]));
        // A satisfying write breaks it.
        let _ = g.on_event(&ev(EV_WRITE, 1, R0, R1));
        assert!(!g.cycle_still_present(&[R0, R1, R0]));
    }

    #[test]
    fn spe_cycle_renders_copilot_hops() {
        let mut g = WaitGraph::new();
        let spe = DlEndpoint::Spe { node: 1, slot: 3 };
        // chan 0: rank0 -> spe(1,3), reported via copilot(1);
        // chan 1: spe(1,3) -> rank0.
        let mut rw = ev(EV_READWAIT, 0, spe, R0);
        rw.via = Some(1);
        assert!(g.on_event(&rw).is_none());
        let cycle = g.on_event(&ev(EV_READWAIT, 1, R0, spe)).expect("cycle");
        assert_eq!(cycle, vec![R0, spe, R0]);
        let names = g.render_cycle(&cycle, |e| e.to_string());
        assert_eq!(names, vec!["rank 0", "spe(1,3)", "copilot(1)", "rank 0"]);
    }

    #[test]
    fn event_encoding_roundtrip() {
        for ep in [DlEndpoint::Rank(7), DlEndpoint::Spe { node: 2, slot: 5 }] {
            for via in [None, Some(3u32)] {
                let mut e = ev(EV_READWAIT, 0xDEAD, ep, DlEndpoint::Rank(1));
                e.via = via;
                let bytes = encode_event(&e);
                assert_eq!(bytes.len(), EVENT_LEN);
                assert_eq!(decode_event(&bytes), Ok(e));
            }
        }
        let fin = DlEvent::finish();
        assert_eq!(decode_event(&encode_event(&fin)), Ok(fin));
    }

    #[test]
    fn decode_rejects_truncated_bytes() {
        // The old implementation panicked here; now every malformed shape
        // is a typed error.
        for len in 0..EVENT_LEN {
            let bytes = vec![0u8; len];
            match decode_event(&bytes) {
                Err(PilotError::MalformedEvent { len: l, .. }) => assert_eq!(l, len),
                other => panic!("len {len}: expected MalformedEvent, got {other:?}"),
            }
        }
    }

    #[test]
    fn decode_rejects_bad_fields() {
        let good = encode_event(&ev(EV_WRITE, 1, R0, R1));
        for (at, bad, what) in [
            (0usize, 9u8, "kind"),
            (5, 7, "reader tag"),
            (14, 7, "writer tag"),
            (23, 2, "via flag"),
        ] {
            let mut b = good.clone();
            b[at] = bad;
            assert!(
                matches!(decode_event(&b), Err(PilotError::MalformedEvent { .. })),
                "corrupting {what} must fail"
            );
        }
        // Oversized payloads are rejected too.
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            decode_event(&long),
            Err(PilotError::MalformedEvent { .. })
        ));
    }
}
