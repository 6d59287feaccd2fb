//! The internal tables built during the configuration phase.
//!
//! Pilot's configuration phase "is concurrently executed by every MPI
//! process in the cluster, resulting in the construction of equivalent
//! internal tables on the various processors". In the simulation we build
//! the tables once and share them immutably (`Arc`) with every rank, which
//! models the same property: every process sees the identical architecture,
//! and the runtime enforces it.
//!
//! The declarations themselves — processes, channels, bundles and the
//! checks on them — are one [`DeclTable`], which CellPilot's tables hold
//! too: a cluster's architecture is declared and checked the same way
//! whatever its processes run on.

use crate::error::PilotError;
use std::sync::Arc;

/// Handle to a Pilot process (index into the process table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PiProcess(pub usize);

/// The distinguished main process (MPI rank 0); it has no associated
/// function and simply continues executing `main`.
pub const PI_MAIN: PiProcess = PiProcess(0);

/// Handle to a channel (index into the channel table; doubles as the MPI
/// tag its traffic travels under).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PiChannel(pub usize);

/// Handle to a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PiBundle(pub usize);

/// What a bundle is for (fixed at creation, like Pilot V1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleUsage {
    /// One writer (the common endpoint) to many readers.
    Broadcast,
    /// Many writers to one reader (the common endpoint).
    Gather,
    /// Many writers to one reader who waits for *any* of them.
    Select,
}

/// A declared channel: its endpoints and bundle, by id.
#[derive(Debug, Clone)]
pub struct ChannelDecl {
    /// Writer process id.
    pub from: usize,
    /// Reader process id.
    pub to: usize,
    /// The bundle it belongs to, if any.
    pub bundle: Option<usize>,
}

/// A declared bundle.
#[derive(Debug, Clone)]
pub struct BundleDecl {
    /// What it is for.
    pub usage: BundleUsage,
    /// Member channel ids, in the order given at creation.
    pub channels: Vec<usize>,
    /// The common endpoint: the writer of a broadcast, the reader of a
    /// gather or select.
    pub common: usize,
}

/// The configure phase's declarations — process names, channel endpoints,
/// bundles — and every check on them, for Pilot and CellPilot alike.
///
/// Ids are indices in declaration order; each library wraps them in its own
/// handle types and keeps its own columns beside this table (Pilot: rank
/// and index; CellPilot: location, transport and coalescing). A rejected
/// declaration changes nothing.
#[derive(Debug, Default)]
pub struct DeclTable {
    names: Vec<Arc<str>>,
    channels: Vec<ChannelDecl>,
    bundles: Vec<BundleDecl>,
}

impl DeclTable {
    /// Declare a process; returns its id.
    pub fn add_process(&mut self, name: Arc<str>) -> usize {
        self.names.push(name);
        self.names.len() - 1
    }

    /// How many processes are declared.
    pub fn process_count(&self) -> usize {
        self.names.len()
    }

    /// Process `p`'s name (`p` must be a declared id).
    pub fn name(&self, p: usize) -> &Arc<str> {
        &self.names[p]
    }

    /// Every declared channel, by id.
    pub fn channels(&self) -> &[ChannelDecl] {
        &self.channels
    }

    /// Channel `c`, or `NoSuchChannel`.
    pub fn channel(&self, c: usize) -> Result<&ChannelDecl, PilotError> {
        self.channels.get(c).ok_or(PilotError::NoSuchChannel(c))
    }

    /// `PI_CreateChannel`'s checks for a channel from `from` to `to`:
    /// both are declared processes, and distinct. Returns the id the
    /// channel would get, for the caller's own checks.
    pub fn check_channel(&self, from: usize, to: usize) -> Result<usize, PilotError> {
        for p in [from, to] {
            if p >= self.names.len() {
                return Err(PilotError::NoSuchProcess(p));
            }
        }
        if from == to {
            return Err(PilotError::SelfChannel);
        }
        Ok(self.channels.len())
    }

    /// `PI_CreateChannel`: check and declare a channel from `from` to
    /// `to`; returns its id.
    pub fn add_channel(&mut self, from: usize, to: usize) -> Result<usize, PilotError> {
        let id = self.check_channel(from, to)?;
        self.channels.push(ChannelDecl {
            from,
            to,
            bundle: None,
        });
        Ok(id)
    }

    /// `PI_CreateBundle`: group `members` for `usage`. They must be
    /// declared channels, each listed once and in no other bundle, sharing
    /// the common endpoint — the writer of a broadcast, the reader of a
    /// gather or select. Everything is checked before anything is written.
    pub fn add_bundle(
        &mut self,
        usage: BundleUsage,
        members: &[usize],
    ) -> Result<usize, PilotError> {
        let ends = members
            .iter()
            .map(|&c| self.channel(c).map(|e| (e.from, e.to)))
            .collect::<Result<Vec<_>, _>>()?;
        let common_of = |&(from, to): &(usize, usize)| match usage {
            BundleUsage::Broadcast => from,
            BundleUsage::Gather | BundleUsage::Select => to,
        };
        let common = common_of(ends.first().ok_or(PilotError::EmptyBundle)?);
        if ends.iter().any(|e| common_of(e) != common) {
            return Err(PilotError::BundleCommonEndpoint);
        }
        for (i, &c) in members.iter().enumerate() {
            if self.channels[c].bundle.is_some() || members[..i].contains(&c) {
                return Err(PilotError::ChannelAlreadyBundled(c));
            }
        }
        let id = self.bundles.len();
        for &c in members {
            self.channels[c].bundle = Some(id);
        }
        self.bundles.push(BundleDecl {
            usage,
            channels: members.to_vec(),
            common,
        });
        Ok(id)
    }

    /// Bundle `b`, or `NoSuchBundle`.
    pub fn bundle(&self, b: usize) -> Result<&BundleDecl, PilotError> {
        self.bundles.get(b).ok_or(PilotError::NoSuchBundle(b))
    }

    /// The check of a bundle operation `op` (`"PI_Gather"`, ...): bundle
    /// `b` exists, is a `usage` bundle, and `caller` — when the operation
    /// has one — is its common endpoint. Returns the bundle.
    pub fn bundle_op(
        &self,
        b: usize,
        op: &str,
        usage: BundleUsage,
        caller: Option<usize>,
    ) -> Result<&BundleDecl, PilotError> {
        let bundle = self.bundle(b)?;
        let misuse = |detail| PilotError::BundleMisuse { bundle: b, detail };
        if bundle.usage != usage {
            return Err(misuse(format!(
                "{op} needs a {usage:?} bundle, not a {:?} one",
                bundle.usage
            )));
        }
        match caller {
            Some(p) if p != bundle.common => Err(misuse(format!(
                "{op} by '{}': only the common endpoint '{}' may call it",
                self.names[p], self.names[bundle.common]
            ))),
            _ => Ok(bundle),
        }
    }

    /// Add the declared channels and bundles to `g` (the processes are the
    /// caller's: only it knows where they run).
    pub fn wire(&self, g: &mut cp_check::WiringGraph) {
        for c in &self.channels {
            g.add_channel(c.from, c.to);
        }
        for b in &self.bundles {
            let usage = match b.usage {
                BundleUsage::Broadcast => cp_check::GraphBundleUsage::Broadcast,
                // Gather and Select share the single-reader shape.
                BundleUsage::Gather | BundleUsage::Select => cp_check::GraphBundleUsage::Gather,
            };
            g.add_bundle(usage, &b.channels, b.common);
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ProcessEntry {
    /// MPI rank backing this process.
    pub rank: usize,
    /// Index argument passed to the process function.
    pub index: i32,
}

/// The immutable application architecture shared by every rank.
#[derive(Debug, Default)]
pub struct Tables {
    pub(crate) decls: DeclTable,
    /// Each process's rank and index, by process id.
    pub(crate) processes: Vec<ProcessEntry>,
    /// Rank of the deadlock-detection service, if enabled.
    pub(crate) detector_rank: Option<usize>,
}

impl Tables {
    /// The MPI tag channel `c`'s data travels under.
    pub(crate) fn chan_tag(c: usize) -> i32 {
        c as i32
    }

    /// The MPI tag bundle `b`'s tree traffic travels under (negative:
    /// reserved space, can never collide with channel tags).
    pub(crate) fn bundle_tag(b: usize) -> i32 {
        -(1000 + b as i32)
    }

    /// Name of the process backed by `rank` (for diagnostics).
    pub(crate) fn name_of_rank(&self, rank: usize) -> String {
        self.processes
            .iter()
            .position(|p| p.rank == rank)
            .map(|p| self.decls.name(p).to_string())
            .unwrap_or_else(|| format!("rank{rank}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_spaces_are_disjoint() {
        // Channel tags are >= 0; bundle tags <= -1000; the detector tag and
        // collective tags used by cp-mpisim live in between.
        assert_eq!(Tables::chan_tag(0), 0);
        assert_eq!(Tables::chan_tag(77), 77);
        assert_eq!(Tables::bundle_tag(0), -1000);
        assert_eq!(Tables::bundle_tag(5), -1005);
    }

    #[test]
    fn lookups_reject_unknown_handles() {
        let t = DeclTable::default();
        assert_eq!(t.check_channel(0, 1), Err(PilotError::NoSuchProcess(0)));
        assert!(t.channel(1).is_err());
        assert!(t.bundle(2).is_err());
    }
}
