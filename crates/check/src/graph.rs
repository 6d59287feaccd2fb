//! The neutral wiring-graph model the verifier lints.
//!
//! `cp-check` sits below the Pilot and CellPilot runtimes in the
//! dependency order, so it defines its own minimal picture of an
//! application architecture — processes placed on ranks or SPE slots,
//! unidirectional channels, collective bundles, and the cluster facts
//! that matter for routing (which nodes are Cells, how many SPEs each
//! has, which nodes host a Co-Pilot). The runtimes translate their
//! configure-phase tables into a [`WiringGraph`] and hand it to
//! [`fn@crate::verify`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Where a process lives, in the deadlock detector's endpoint notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEndpoint {
    /// An MPI-rank-backed process; `node` is the cluster node the rank is
    /// placed on (the hostfile entry).
    Rank {
        /// MPI rank number.
        rank: usize,
        /// Cluster node hosting the rank.
        node: usize,
    },
    /// An SPE process bound to a virtual SPE slot of a Cell node.
    Spe {
        /// Cell node id.
        node: usize,
        /// Virtual SPE slot on that node.
        slot: usize,
    },
}

impl fmt::Display for GraphEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphEndpoint::Rank { rank, .. } => write!(f, "rank {rank}"),
            GraphEndpoint::Spe { node, slot } => write!(f, "spe({node},{slot})"),
        }
    }
}

/// One process of the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphProcess {
    /// Configure-phase name (diagnostics quote it).
    pub name: String,
    /// Placement.
    pub at: GraphEndpoint,
}

/// One unidirectional channel. A well-formed channel has both endpoints;
/// an endpoint can be absent to model a half-wired (orphan) channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphChannel {
    /// Writing process (index into [`WiringGraph::processes`]).
    pub writer: Option<usize>,
    /// Reading process (index into [`WiringGraph::processes`]).
    pub reader: Option<usize>,
    /// Whether the channel uses the one-sided put/get path: the writer
    /// lands data directly in a window of the reading SPE's local store
    /// instead of relaying through Co-Pilots.
    pub one_sided: bool,
}

/// A one-sided window registration: local-store bytes
/// `[start, start + len)` of `spe(node,slot)` serve as the landing region
/// for puts on channel `chan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphWindow {
    /// Channel the window belongs to (index into
    /// [`WiringGraph::channels`]).
    pub chan: usize,
    /// Cell node id.
    pub node: usize,
    /// Virtual SPE slot holding the window.
    pub slot: usize,
    /// First local-store byte of the window.
    pub start: u32,
    /// Window length in bytes.
    pub len: u32,
}

/// Flow-control declaration of one channel, as `cp-check` sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphChannelFlow {
    /// Configured in-flight bound (`ChannelBuilder::capacity`); `None`
    /// means the channel queue is unbounded.
    pub capacity: Option<usize>,
    /// Whether the overload policy is the default `Block` (a non-Block
    /// policy on an unbounded channel is inert — CP013 flags it).
    pub blocks: bool,
}

/// Per-op Co-Pilot dispatch costs and service budget the CP202
/// relay-saturation estimate runs against. The runtimes populate this
/// from their cost model (`CellPilotCosts`); a graph without one skips
/// CP202 entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelayCostModel {
    /// Co-Pilot handling cost of one relayed request, microseconds.
    pub dispatch_us: f64,
    /// Extra pairing/poll cost of a same-node SPE↔SPE (type-4) transfer,
    /// microseconds.
    pub pair_poll_us: f64,
    /// Fast-path handling cost when the channel is eager-inlined,
    /// microseconds.
    pub eager_dispatch_us: f64,
    /// Service budget per Co-Pilot, microseconds: CP202 fires when the
    /// summed static fan-in cost of the channels a Co-Pilot proxies
    /// exceeds this.
    pub service_budget_us: f64,
}

/// What a bundle's collective does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBundleUsage {
    /// The common endpoint writes every member channel.
    Broadcast,
    /// The common endpoint reads every member channel.
    Gather,
}

impl fmt::Display for GraphBundleUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphBundleUsage::Broadcast => "broadcast",
            GraphBundleUsage::Gather => "gather",
        })
    }
}

/// A collective bundle over channels sharing a common endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphBundle {
    /// Collective direction.
    pub usage: GraphBundleUsage,
    /// Member channels (indices into [`WiringGraph::channels`]).
    pub channels: Vec<usize>,
    /// The common process (index into [`WiringGraph::processes`]).
    pub common: usize,
}

/// The full typed process/channel/bundle graph of one application, plus
/// the cluster facts routing depends on.
#[derive(Debug, Clone, Default)]
pub struct WiringGraph {
    /// Number of MPI ranks available to application processes.
    pub ranks: usize,
    /// Cell nodes: node id → number of physical SPEs.
    pub cell_nodes: BTreeMap<usize, usize>,
    /// Nodes on which a Co-Pilot serves SPE channel traffic.
    pub copilot_nodes: BTreeSet<usize>,
    /// All processes.
    pub processes: Vec<GraphProcess>,
    /// All channels.
    pub channels: Vec<GraphChannel>,
    /// All bundles.
    pub bundles: Vec<GraphBundle>,
    /// All one-sided window registrations.
    pub windows: Vec<GraphWindow>,
    /// Per-channel flow-control declarations (channel index → flow).
    /// Channels absent from the map declared nothing (unbounded, Block).
    pub channel_flow: BTreeMap<usize, GraphChannelFlow>,
    /// Whether strict mode asked for flow-control advisories: the
    /// unbounded-channel half of CP013 only fires when this is set.
    pub flow_strict: bool,
    /// Per-channel eager-inlining thresholds (channel index → configured
    /// byte threshold). Channels absent from the map are not eager.
    pub channel_eager: BTreeMap<usize, usize>,
    /// Per-bundle coalescing batch sizes (bundle index → `max_batch`).
    /// Bundles absent from the map do not coalesce.
    pub bundle_coalesce: BTreeMap<usize, usize>,
    /// Per-channel declared payload bounds (channel index → largest
    /// payload in bytes the application will ever send). Channels absent
    /// from the map made no promise; CP203 only reasons about declared
    /// bounds.
    pub channel_max_payload: BTreeMap<usize, usize>,
    /// Co-Pilot dispatch costs and service budget for the CP202
    /// relay-saturation estimate; `None` skips CP202.
    pub relay_costs: Option<RelayCostModel>,
}

/// Bytes one mailbox/control-word exchange can carry inline: the 4-deep
/// inbound mailbox × 4-byte words (CellPilot's `build()` rejects an eager
/// threshold above it).
pub const MAILBOX_INLINE_CAPACITY: usize = 16;

impl WiringGraph {
    /// An empty graph for an application with `ranks` MPI ranks.
    pub fn new(ranks: usize) -> WiringGraph {
        WiringGraph {
            ranks,
            ..WiringGraph::default()
        }
    }

    /// Declare a Cell node with `spe_capacity` physical SPEs.
    pub fn add_cell_node(&mut self, node: usize, spe_capacity: usize) {
        self.cell_nodes.insert(node, spe_capacity);
    }

    /// Declare that `node` hosts a Co-Pilot.
    pub fn add_copilot(&mut self, node: usize) {
        self.copilot_nodes.insert(node);
    }

    /// Add a rank-backed process; returns its index.
    pub fn add_rank_process(&mut self, name: &str, rank: usize, node: usize) -> usize {
        self.processes.push(GraphProcess {
            name: name.to_string(),
            at: GraphEndpoint::Rank { rank, node },
        });
        self.processes.len() - 1
    }

    /// Add an SPE process on `spe(node,slot)`; returns its index.
    pub fn add_spe_process(&mut self, name: &str, node: usize, slot: usize) -> usize {
        self.processes.push(GraphProcess {
            name: name.to_string(),
            at: GraphEndpoint::Spe { node, slot },
        });
        self.processes.len() - 1
    }

    /// Add a fully wired channel from `writer` to `reader`; returns its
    /// index.
    pub fn add_channel(&mut self, writer: usize, reader: usize) -> usize {
        self.channels.push(GraphChannel {
            writer: Some(writer),
            reader: Some(reader),
            one_sided: false,
        });
        self.channels.len() - 1
    }

    /// Add a channel with possibly missing endpoints (to seed orphan
    /// defects); returns its index.
    pub fn add_half_channel(&mut self, writer: Option<usize>, reader: Option<usize>) -> usize {
        self.channels.push(GraphChannel {
            writer,
            reader,
            one_sided: false,
        });
        self.channels.len() - 1
    }

    /// Mark channel `c` as using the one-sided put/get path. No-op for an
    /// out-of-range index (the orphan checks already flag those).
    pub fn mark_one_sided(&mut self, c: usize) {
        if let Some(ch) = self.channels.get_mut(c) {
            ch.one_sided = true;
        }
    }

    /// Record channel `c`'s flow-control declaration (capacity bound and
    /// whether its overload policy is the default `Block`). No-op for an
    /// out-of-range index (the orphan checks already flag those).
    pub fn set_channel_flow(&mut self, c: usize, capacity: Option<usize>, blocks: bool) {
        if self.channels.get(c).is_some() {
            self.channel_flow
                .insert(c, GraphChannelFlow { capacity, blocks });
        }
    }

    /// Enable the strict-mode-only flow advisories of CP013.
    pub fn set_flow_strict(&mut self, strict: bool) {
        self.flow_strict = strict;
    }

    /// Record channel `c`'s eager-inlining threshold (bytes). No-op for an
    /// out-of-range index (the orphan checks already flag those).
    pub fn set_channel_eager(&mut self, c: usize, threshold: usize) {
        if self.channels.get(c).is_some() {
            self.channel_eager.insert(c, threshold);
        }
    }

    /// Record bundle `b`'s coalescing batch size. No-op for an
    /// out-of-range index.
    pub fn set_bundle_coalesce(&mut self, b: usize, max_batch: usize) {
        if self.bundles.get(b).is_some() {
            self.bundle_coalesce.insert(b, max_batch);
        }
    }

    /// Record channel `c`'s declared payload bound (largest payload in
    /// bytes the application promises to send). No-op for an out-of-range
    /// index (the orphan checks already flag those).
    pub fn set_channel_max_payload(&mut self, c: usize, bytes: usize) {
        if self.channels.get(c).is_some() {
            self.channel_max_payload.insert(c, bytes);
        }
    }

    /// Attach the Co-Pilot cost model and service budget CP202 estimates
    /// against. Without one the relay-saturation pass is skipped.
    pub fn set_relay_costs(&mut self, costs: RelayCostModel) {
        self.relay_costs = Some(costs);
    }

    /// Register a one-sided window of `len` bytes at local-store offset
    /// `start` of `spe(node,slot)` for channel `chan`; returns its index.
    pub fn add_window(
        &mut self,
        chan: usize,
        node: usize,
        slot: usize,
        start: u32,
        len: u32,
    ) -> usize {
        self.windows.push(GraphWindow {
            chan,
            node,
            slot,
            start,
            len,
        });
        self.windows.len() - 1
    }

    /// Add a bundle; returns its index.
    pub fn add_bundle(
        &mut self,
        usage: GraphBundleUsage,
        channels: &[usize],
        common: usize,
    ) -> usize {
        self.bundles.push(GraphBundle {
            usage,
            channels: channels.to_vec(),
            common,
        });
        self.bundles.len() - 1
    }

    /// The Table-I channel type (1–5) of channel `c`, or `None` when an
    /// endpoint is missing or references a nonexistent process.
    pub fn channel_type(&self, c: usize) -> Option<u8> {
        let ch = self.channels.get(c)?;
        let w = self.processes.get(ch.writer?)?.at;
        let r = self.processes.get(ch.reader?)?.at;
        Some(match (w, r) {
            (GraphEndpoint::Rank { .. }, GraphEndpoint::Rank { .. }) => 1,
            (GraphEndpoint::Rank { node: rn, .. }, GraphEndpoint::Spe { node: sn, .. })
            | (GraphEndpoint::Spe { node: sn, .. }, GraphEndpoint::Rank { node: rn, .. }) => {
                if rn == sn {
                    2
                } else {
                    3
                }
            }
            (GraphEndpoint::Spe { node: a, .. }, GraphEndpoint::Spe { node: b, .. }) => {
                if a == b {
                    4
                } else {
                    5
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_notation_matches_deadlock_detector() {
        assert_eq!(
            GraphEndpoint::Spe { node: 1, slot: 3 }.to_string(),
            "spe(1,3)"
        );
        assert_eq!(
            GraphEndpoint::Rank { rank: 2, node: 0 }.to_string(),
            "rank 2"
        );
    }

    #[test]
    fn channel_types_follow_table_one() {
        let mut g = WiringGraph::new(2);
        g.add_cell_node(0, 8);
        g.add_cell_node(1, 8);
        let main = g.add_rank_process("main", 0, 0);
        let xeon = g.add_rank_process("xeon", 1, 2);
        let s0a = g.add_spe_process("s0a", 0, 0);
        let s0b = g.add_spe_process("s0b", 0, 1);
        let s1a = g.add_spe_process("s1a", 1, 0);
        let t1 = g.add_channel(main, xeon);
        let t2 = g.add_channel(main, s0a);
        let t3 = g.add_channel(xeon, s1a);
        let t4 = g.add_channel(s0b, s0a);
        let t5 = g.add_channel(s1a, s0b);
        let dangling = g.add_half_channel(Some(main), None);
        assert_eq!(g.channel_type(t1), Some(1));
        assert_eq!(g.channel_type(t2), Some(2));
        assert_eq!(g.channel_type(t3), Some(3));
        assert_eq!(g.channel_type(t4), Some(4));
        assert_eq!(g.channel_type(t5), Some(5));
        assert_eq!(g.channel_type(dangling), None);
    }
}
