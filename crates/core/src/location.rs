//! Process locations and the channel-type taxonomy of the paper's Table I.
//!
//! CellPilot's defining property is that a channel may join processes at
//! *any* level of the cluster — PPE, SPE, or non-Cell node — and the
//! library transparently applies whichever transport the endpoint pair
//! requires. The five cases are:
//!
//! | Type | Endpoints |
//! |------|-----------|
//! | 1 | PPE/non-Cell ↔ remote PPE/non-Cell |
//! | 2 | PPE ↔ local SPE |
//! | 3 | PPE or non-Cell ↔ remote SPE |
//! | 4 | SPE ↔ local SPE |
//! | 5 | SPE ↔ remote SPE |
//!
//! (Type 1 also covers two ranks co-resident on one node — plain Pilot/MPI
//! handles both.)

use cp_des::SimTime;
use cp_simnet::NodeId;
use cp_trace::Measure;
use std::fmt;

/// Handle to a CellPilot process (PPE-, non-Cell-, or SPE-resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpProcess(pub usize);

/// The distinguished main process (MPI rank 0).
pub const CP_MAIN: CpProcess = CpProcess(0);

/// Handle to a CellPilot channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpChannel(pub usize);

/// Where a process lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// A regular Pilot process: an MPI rank hosted on a node's PPE or on a
    /// non-Cell node.
    Rank {
        /// The MPI rank.
        rank: usize,
        /// The hosting node.
        node: NodeId,
    },
    /// An SPE process on the given Cell node. `slot` is the process's
    /// ordinal among the node's SPE processes (the physical SPE is chosen
    /// when the parent calls `PI_RunSPE`).
    Spe {
        /// The hosting Cell node.
        node: NodeId,
        /// SPE-process ordinal on that node.
        slot: usize,
    },
}

impl Location {
    /// The node this location is on.
    pub fn node(&self) -> NodeId {
        match *self {
            Location::Rank { node, .. } => node,
            Location::Spe { node, .. } => node,
        }
    }

    /// True for SPE-resident processes.
    pub fn is_spe(&self) -> bool {
        matches!(self, Location::Spe { .. })
    }
}

/// How a channel moves its data at run time — orthogonal to the Table-I
/// [`ChannelKind`] taxonomy, which is about *where* the endpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChannelMode {
    /// Two-sided rendezvous: writes travel through the Co-Pilot relay
    /// (one proxy hop per Co-Pilot between the endpoints). The default,
    /// and the fallback every channel supports.
    #[default]
    Rendezvous,
    /// One-sided put/get: the writer lands data directly in a window of
    /// the reading SPE's EA-mapped local store over the window fabric —
    /// one hop, no intermediate relay buffering. Requires the reader to
    /// be an SPE process.
    OneSided,
}

impl fmt::Display for ChannelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChannelMode::Rendezvous => "rendezvous",
            ChannelMode::OneSided => "one-sided",
        })
    }
}

/// The paper's Table I channel classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// PPE/non-Cell ↔ PPE/non-Cell (plain Pilot over MPI).
    Type1,
    /// PPE ↔ local SPE.
    Type2,
    /// PPE/non-Cell ↔ remote SPE.
    Type3,
    /// SPE ↔ SPE on the same Cell node (Co-Pilot `memcpy`, no MPI).
    Type4,
    /// SPE ↔ SPE on different Cell nodes (two Co-Pilots relay via MPI).
    Type5,
}

impl ChannelKind {
    /// The Table-I type number (1–5) — the key observability metrics are
    /// bucketed under.
    pub fn type_number(self) -> u8 {
        match self {
            ChannelKind::Type1 => 1,
            ChannelKind::Type2 => 2,
            ChannelKind::Type3 => 3,
            ChannelKind::Type4 => 4,
            ChannelKind::Type5 => 5,
        }
    }

    /// How the recorder measures a write or read of `payload_bytes` on a
    /// channel of this kind that its endpoint entered at `t0`.
    pub(crate) fn measure(self, write: bool, payload_bytes: usize, t0: SimTime) -> Measure {
        Measure::Channel {
            chan_type: self.type_number(),
            write,
            payload_bytes,
            t0_ns: t0.0,
        }
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type {}", self.type_number())
    }
}

/// Classify a channel from its endpoint locations (order-insensitive:
/// the taxonomy is about the pair, not the direction).
pub fn classify(a: Location, b: Location) -> ChannelKind {
    match (a.is_spe(), b.is_spe()) {
        (false, false) => ChannelKind::Type1,
        (true, true) => {
            if a.node() == b.node() {
                ChannelKind::Type4
            } else {
                ChannelKind::Type5
            }
        }
        _ => {
            if a.node() == b.node() {
                ChannelKind::Type2
            } else {
                ChannelKind::Type3
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(r: usize, n: usize) -> Location {
        Location::Rank {
            rank: r,
            node: NodeId(n),
        }
    }

    fn spe(n: usize, s: usize) -> Location {
        Location::Spe {
            node: NodeId(n),
            slot: s,
        }
    }

    #[test]
    fn table_one_classification() {
        // Every row of Table I, both orientations.
        assert_eq!(classify(rank(0, 0), rank(1, 1)), ChannelKind::Type1);
        assert_eq!(classify(rank(0, 0), spe(0, 0)), ChannelKind::Type2);
        assert_eq!(classify(spe(0, 0), rank(0, 0)), ChannelKind::Type2);
        assert_eq!(classify(rank(0, 2), spe(1, 0)), ChannelKind::Type3);
        assert_eq!(classify(spe(0, 0), spe(0, 1)), ChannelKind::Type4);
        assert_eq!(classify(spe(0, 0), spe(1, 0)), ChannelKind::Type5);
    }

    #[test]
    fn co_resident_ranks_are_type1() {
        assert_eq!(classify(rank(0, 0), rank(1, 0)), ChannelKind::Type1);
    }

    #[test]
    fn display_names() {
        assert_eq!(ChannelKind::Type5.to_string(), "type 5");
    }
}
