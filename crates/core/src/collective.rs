//! Collective operations over mixed PPE/SPE bundles — the extension the
//! paper names as future work: "CellPilot does not yet support collective
//! operations among SPEs, much less involving a mixture of SPE and other
//! processes."
//!
//! Pilot's MPMD convention is kept: only the bundle's common endpoint
//! calls [`CellPilot::broadcast`] / [`CellPilot::gather`] (or the
//! [`SpeCtx`] equivalents when the common endpoint is itself an SPE);
//! every other member just reads or writes its own channel. Bundles are
//! declared, and every bundle operation checked, by Pilot's table
//! ([`cp_pilot::DeclTable::bundle_op`]): the bundle exists, has the
//! operation's usage (`select` needs a `Select` bundle, `gather` a
//! `Gather` one) and the caller is its common endpoint. What is
//! CellPilot's own is the transport below.
//!
//! Broadcast from a rank endpoint is **hierarchical**: receivers are
//! grouped by location, rank receivers get individual messages, and each
//! Cell node's SPE receivers share *one* wire message to their Co-Pilot
//! (tag [`CP_MCAST_TAG`]), which fans the payload out locally — crossing
//! the slow gigabit wire once per node instead of once per SPE.
//!
//! [`CP_MCAST_TAG`]: crate::protocol::CP_MCAST_TAG

use crate::error::CpError;
use crate::location::{CpProcess, Location};
use crate::protocol::{encode_mcast, CP_MCAST_TAG};
use crate::runtime::CellPilot;
use crate::spe_rt::SpeCtx;
use crate::tables::CpTables;
use cp_mpisim::Datatype;
use cp_pilot::{BundleDecl, BundleUsage, PiValue};
use cp_simnet::NodeId;
use std::collections::BTreeMap;

/// Handle to a CellPilot bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpBundle(pub usize);

/// Bundle `b` of `tables`, checked for bundle operation `op` by process
/// `me` ([`cp_pilot::DeclTable::bundle_op`]).
pub(crate) fn bundle_op<'t>(
    tables: &'t CpTables,
    b: CpBundle,
    op: &str,
    usage: BundleUsage,
    me: CpProcess,
) -> Result<&'t BundleDecl, CpError> {
    Ok(tables.decls.bundle_op(b.0, op, usage, Some(me.0))?)
}

impl CellPilot {
    /// `PI_Broadcast` (extension): send `values` to every reader of the
    /// bundle's channels. Receivers each call their side's `read` on their
    /// own channel.
    pub fn broadcast(&self, b: CpBundle, format: &str, values: &[PiValue]) -> Result<(), CpError> {
        let tables = self.shared.tables.clone();
        let entry = bundle_op(&tables, b, "PI_Broadcast", BundleUsage::Broadcast, self.me)?;
        let msg = cp_pilot::pack_checked(format, values)?;
        self.ep.charge(msg.payload);
        let data = msg.data;
        // Group SPE readers by node; rank readers send individually.
        // BTreeMap: multicast send order must be deterministic.
        //
        // Flow control is per member channel: each copy of the message
        // consumes one credit on its own channel, even when several SPE
        // members share a single multicast wire message (the Co-Pilot's
        // fan-out drains each member channel individually). A member whose
        // policy sheds aborts the broadcast; credits grouped for the
        // not-yet-sent multicast are unwound so they cannot leak.
        let mut per_node: BTreeMap<NodeId, Vec<u32>> = BTreeMap::new();
        let mut grouped_unsent: Vec<usize> = Vec::new();
        for &c in &entry.channels {
            if let Err(e) = self.shared.acquire_credit(self.ctx(), &self.name(), c) {
                for &u in &grouped_unsent {
                    self.shared.release_credit(u);
                }
                return Err(e);
            }
            match tables.processes[tables.ends(c).to].location {
                Location::Rank { rank, .. } => {
                    self.comm_send(rank, c as i32, data.clone());
                }
                Location::Spe { node, .. } => {
                    grouped_unsent.push(c);
                    per_node.entry(node).or_default().push(c as u32);
                }
            }
        }
        for (node, chans) in per_node {
            let payload = encode_mcast(&chans, &data);
            let cp_rank = self.shared.copilot_rank(node);
            self.comm_send(cp_rank, CP_MCAST_TAG, payload);
        }
        // One write credit per member channel: every receiver (rank or
        // SPE) reports its own read wait against its own channel.
        for &c in &entry.channels {
            self.report_chan(cp_pilot::EV_WRITE, c);
        }
        self.shared.recorder.record_op(
            self.ctx().now().0,
            self.proc_name(),
            Some(cp_trace::Op::Broadcast),
            b.0,
            data.len(),
            None,
        );
        Ok(())
    }

    /// `PI_Gather` (extension): collect one message from every channel of
    /// the bundle, in channel order. Writers — rank or SPE — each call
    /// their side's `write` on their own channel.
    pub fn gather(&self, b: CpBundle, format: &str) -> Result<Vec<Vec<PiValue>>, CpError> {
        let tables = &self.shared.tables;
        let entry = bundle_op(tables, b, "PI_Gather", BundleUsage::Gather, self.me)?;
        let mut out = Vec::with_capacity(entry.channels.len());
        for &c in &entry.channels {
            out.push(self.read(crate::CpChannel(c), format)?);
        }
        Ok(out)
    }

    /// `PI_Select` (extension): block until some channel of a select
    /// bundle has data ready at this (rank) endpoint — whatever the
    /// writers' locations, since SPE-originated data arrives via the
    /// writers' Co-Pilots under the same channel tags.
    pub fn select(&self, b: CpBundle) -> Result<crate::CpChannel, CpError> {
        let tags = self.select_tags(b, "PI_Select")?;
        let (_, tag, _, _) = self
            .comm()
            .probe_match("PI_Select", |e| tags.contains(&e.tag));
        Ok(crate::CpChannel(tag as usize))
    }

    /// `PI_TrySelect` (extension): non-blocking [`CellPilot::select`].
    pub fn try_select(&self, b: CpBundle) -> Result<Option<crate::CpChannel>, CpError> {
        let tags = self.select_tags(b, "PI_TrySelect")?;
        Ok(self
            .comm()
            .iprobe_match(|e| tags.contains(&e.tag))
            .map(|(_, tag, _, _)| crate::CpChannel(tag as usize)))
    }

    /// The channel tags of select bundle `b`, checking that `op` is a
    /// select by the bundle's common endpoint (the reader), which alone
    /// may select on it.
    fn select_tags(&self, b: CpBundle, op: &str) -> Result<Vec<i32>, CpError> {
        let entry = bundle_op(&self.shared.tables, b, op, BundleUsage::Select, self.me)?;
        Ok(entry.channels.iter().map(|&c| c as i32).collect())
    }

    fn comm_send(&self, rank: usize, tag: i32, data: Vec<u8>) {
        let n = data.len();
        self.comm().send_bytes(rank, tag, Datatype::Byte, n, data);
    }
}

impl SpeCtx {
    /// Broadcast from an SPE common endpoint: the SPE hands the message to
    /// its Co-Pilot once per channel (the SPE side stays thin — all
    /// routing intelligence lives on the PPE, per the paper's design
    /// principle).
    pub fn broadcast(&self, b: CpBundle, format: &str, values: &[PiValue]) -> Result<(), CpError> {
        let tables = self.shared_tables();
        let entry = bundle_op(
            &tables,
            b,
            "PI_Broadcast",
            BundleUsage::Broadcast,
            self.process(),
        )?;
        for &c in &entry.channels {
            self.write(crate::CpChannel(c), format, values)?;
        }
        Ok(())
    }

    /// Gather at an SPE common endpoint: read every channel in order.
    pub fn gather(&self, b: CpBundle, format: &str) -> Result<Vec<Vec<PiValue>>, CpError> {
        let tables = self.shared_tables();
        let entry = bundle_op(&tables, b, "PI_Gather", BundleUsage::Gather, self.process())?;
        let mut out = Vec::with_capacity(entry.channels.len());
        for &c in &entry.channels {
            out.push(self.read(crate::CpChannel(c), format)?);
        }
        Ok(out)
    }
}

/// Reduce helper built on gather: apply `combine` elementwise over the
/// gathered contributions' first segment, decoded as `f64`.
pub fn reduce_f64<F>(rows: &[Vec<PiValue>], combine: F) -> Result<Vec<f64>, CpError>
where
    F: Fn(f64, f64) -> f64,
{
    let mut acc: Option<Vec<f64>> = None;
    for row in rows {
        let PiValue::Float64(vals) = &row[0] else {
            return Err(cp_pilot::MatchError::TypeMismatch {
                index: 0,
                expected: Datatype::Float64,
                got: row[0].dtype(),
            }
            .into());
        };
        acc = Some(match acc {
            None => vals.clone(),
            Some(a) => a.iter().zip(vals).map(|(&x, &y)| combine(x, y)).collect(),
        });
    }
    Ok(acc.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_f64_combines_elementwise() {
        let rows = vec![
            vec![PiValue::Float64(vec![1.0, 2.0])],
            vec![PiValue::Float64(vec![10.0, 20.0])],
            vec![PiValue::Float64(vec![100.0, 200.0])],
        ];
        assert_eq!(reduce_f64(&rows, |a, b| a + b).unwrap(), vec![111.0, 222.0]);
        assert_eq!(reduce_f64(&rows, f64::max).unwrap(), vec![100.0, 200.0]);
        assert!(reduce_f64(&[], |a, b| a + b).unwrap().is_empty());
    }

    #[test]
    fn reduce_f64_rejects_wrong_type() {
        let rows = vec![vec![PiValue::Int32(vec![1])]];
        assert!(reduce_f64(&rows, |a, b| a + b).is_err());
    }
}
