//! CellPilot's deadlock-detection service.
//!
//! This generalizes Pilot's `-pisvc=d` to the hybrid cluster: the wait-for
//! graph itself ([`cp_pilot::WaitGraph`]) is shared with the Pilot layer,
//! but here the endpoints are [`DlEndpoint`]s spanning all five channel
//! types. MPI-visible ranks report their own operations; SPEs cannot talk
//! to the service directly, so their node's **Co-Pilot reports by proxy**
//! whenever it handles an `OP_WRITE`/`OP_READ` request block — the same
//! place it already mediates every SPE channel operation. Events carry both
//! channel endpoints (computed from the reporter's [`CpTables`]), so the
//! detector needs no routing knowledge of its own.
//!
//! The detector itself is Pilot's ([`cp_pilot::detector`]), run as the
//! `cp-deadlock-svc` component. A confirmed cycle aborts the run with a
//! diagnostic naming every hop, including the relaying Co-Pilots, e.g.
//! `spe(1,3) -> copilot(1) -> rank 0 -> spe(1,3)`.

use crate::location::Location;
use crate::tables::CpTables;
use cp_mpisim::Comm;
use cp_pilot::{DlEndpoint, DlEvent};

/// The detector endpoint for a process location.
pub(crate) fn dl_endpoint(loc: &Location) -> DlEndpoint {
    match loc {
        Location::Rank { rank, .. } => DlEndpoint::Rank(*rank),
        Location::Spe { node, slot } => DlEndpoint::Spe {
            node: node.0,
            slot: *slot,
        },
    }
}

/// Build a write/read-wait event for channel `chan`, resolving both
/// endpoints. SPE readers get a `via` hop naming the Co-Pilot that relays
/// their waits, so diagnostics can render the full proxy chain.
pub(crate) fn chan_event(tables: &CpTables, kind: u8, chan: usize) -> DlEvent {
    let entry = tables.ends(chan);
    let reader_loc = &tables.processes[entry.to].location;
    let writer_loc = &tables.processes[entry.from].location;
    let via = match reader_loc {
        Location::Spe { node, .. } => Some(node.0 as u32),
        Location::Rank { .. } => None,
    };
    DlEvent::on_channel(
        kind,
        chan,
        dl_endpoint(reader_loc),
        dl_endpoint(writer_loc),
        via,
    )
}

/// Report a `kind` event on channel `chan` from a Co-Pilot, on behalf of
/// its SPE ([`cp_pilot::report`]).
pub(crate) async fn report_chan(
    comm: &Comm,
    tables: &CpTables,
    kind: u8,
    chan: usize,
) -> Option<()> {
    cp_pilot::report(comm, tables.detector_rank, chan_event(tables, kind, chan)).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{ChannelKind, ChannelMode};
    use crate::tables::{CpChanEntry, CpProcEntry, ProcKind};
    use cp_pilot::{WaitGraph, EV_READWAIT, EV_WRITE};
    use cp_simnet::NodeId;

    /// rank 0 on node 2 <-> spe(1,3): one channel each way (type 3).
    fn tables() -> CpTables {
        let mut t = CpTables::default();
        let locations = [
            Location::Rank {
                rank: 0,
                node: NodeId(2),
            },
            Location::Spe {
                node: NodeId(1),
                slot: 3,
            },
        ];
        for (name, location) in ["main", "worker"].into_iter().zip(locations) {
            t.decls.add_process(name.into());
            t.processes.push(CpProcEntry {
                location,
                index: 0,
                kind: ProcKind::Rank, // kind is irrelevant to chan_event
            });
        }
        for (from, to) in [(0, 1), (1, 0)] {
            t.decls.add_channel(from, to).unwrap();
            t.channels.push(CpChanEntry {
                kind: ChannelKind::Type3,
                mode: ChannelMode::Rendezvous,
                window: None,
                capacity: None,
                policy: crate::OverloadPolicy::Block,
                eager: None,
                max_payload: None,
            });
        }
        t
    }

    #[test]
    fn spe_reader_gets_copilot_via() {
        let t = tables();
        let ev = chan_event(&t, EV_READWAIT, 0);
        assert_eq!(ev.reader, DlEndpoint::Spe { node: 1, slot: 3 });
        assert_eq!(ev.writer, DlEndpoint::Rank(0));
        assert_eq!(ev.via, Some(1));
    }

    #[test]
    fn rank_reader_has_no_via() {
        let t = tables();
        let ev = chan_event(&t, EV_WRITE, 1);
        assert_eq!(ev.reader, DlEndpoint::Rank(0));
        assert_eq!(ev.writer, DlEndpoint::Spe { node: 1, slot: 3 });
        assert_eq!(ev.via, None);
    }

    #[test]
    fn cross_boundary_cycle_names_all_hops() {
        let t = tables();
        let mut g = WaitGraph::new();
        // spe(1,3) blocked reading chan 0 (writer rank 0), proxied.
        assert!(g.on_event(&chan_event(&t, EV_READWAIT, 0)).is_none());
        // rank 0 blocked reading chan 1 (writer spe(1,3)) closes the loop.
        let cycle = g.on_event(&chan_event(&t, EV_READWAIT, 1)).expect("cycle");
        let names = g.render_cycle(&cycle, |ep| ep.to_string());
        assert_eq!(names, vec!["rank 0", "spe(1,3)", "copilot(1)", "rank 0"]);
    }
}
