//! Vectored bundle coalescing: consecutive small writes on one broadcast
//! bundle, batched into a single wire envelope per destination Co-Pilot.
//!
//! A heavy service workload fans many tiny requests from a front-tier rank
//! to SPE worker pools; sending each as its own MPI message pays the wire
//! and Co-Pilot pump once per request. A [`BundleCoalescer`] buffers the
//! writes and flushes them as one [`CP_BUNDLE_TAG`] envelope per node
//! (rank-destined members are sent individually — there is no Co-Pilot on
//! that side to unpack an envelope). Flushes trigger on **size** (the
//! configured batch fills) and on **deadline** (the oldest buffered write
//! has waited the configured virtual-time budget, checked at the next
//! write or explicit flush — the DES has no preemption).
//!
//! Flow control stays per member channel and is settled at [`write`] time:
//! the credit is acquired *before* the message is buffered, so a `Block`
//! policy blocks the writer right there, and a `Shed`/`DeadlineDrop`
//! rejection surfaces as [`CpError::Backpressure`] with nothing buffered —
//! a coalescer can never hide an overload behind its buffer.
//!
//! [`write`]: BundleCoalescer::write
//! [`CP_BUNDLE_TAG`]: crate::protocol::CP_BUNDLE_TAG

use crate::collective::{bundle_op, CpBundle};
use crate::error::CpError;
use crate::location::Location;
use crate::protocol::{encode_bundle, CP_BUNDLE_TAG};
use crate::runtime::CellPilot;
use crate::tables::CoalescePolicy;
use crate::CpChannel;
use cp_des::SimTime;
use cp_mpisim::Datatype;
use cp_pilot::{BundleUsage, PiValue, PilotError};
use cp_simnet::NodeId;
use std::collections::BTreeMap;

/// Buffers small writes on a coalescing-enabled broadcast bundle and
/// flushes them as batched envelopes. Obtained from
/// [`CellPilot::coalescer`]; dropping it flushes best-effort.
pub struct BundleCoalescer<'a> {
    cp: &'a CellPilot,
    b: CpBundle,
    policy: CoalescePolicy,
    /// Buffered `(channel, packed payload)` writes, in arrival order.
    buf: Vec<(usize, Vec<u8>)>,
    /// Virtual time the oldest buffered write arrived (deadline anchor).
    opened_at: Option<SimTime>,
}

impl CellPilot {
    /// Open a coalescer over `b`. The bundle must be a broadcast bundle
    /// with a coalescing policy configured
    /// ([`CellPilotConfig::coalesce_bundle`]), and only its common
    /// endpoint may coalesce.
    ///
    /// [`CellPilotConfig::coalesce_bundle`]: crate::CellPilotConfig::coalesce_bundle
    pub fn coalescer(&self, b: CpBundle) -> Result<BundleCoalescer<'_>, CpError> {
        let op = "coalescer";
        bundle_op(&self.shared.tables, b, op, BundleUsage::Broadcast, self.me)?;
        let policy = self.shared.tables.coalesce[b.0].ok_or_else(|| PilotError::BundleMisuse {
            bundle: b.0,
            detail: format!(
                "{op}: bundle has no coalescing policy (CellPilotConfig::coalesce_bundle)"
            ),
        })?;
        Ok(BundleCoalescer {
            cp: self,
            b,
            policy,
            buf: Vec::new(),
            opened_at: None,
        })
    }
}

impl BundleCoalescer<'_> {
    /// Buffer one write on a member channel of the bundle. Flushes first
    /// if the oldest buffered write has exceeded the deadline, and after
    /// buffering if the batch is full.
    pub fn write(
        &mut self,
        chan: CpChannel,
        format: &str,
        values: &[PiValue],
    ) -> Result<(), CpError> {
        let tables = &self.cp.shared.tables;
        if !tables.decls.bundle(self.b.0)?.channels.contains(&chan.0) {
            return Err(PilotError::BundleMisuse {
                bundle: self.b.0,
                detail: format!("channel {} is not a member", chan.0),
            }
            .into());
        }
        let msg = cp_pilot::pack_checked(format, values)?;
        if self.deadline_expired() {
            self.flush()?;
        }
        // Settle flow control before buffering: a shed message never
        // enters the coalescer, so the caller sees the overload at the
        // write, not at some later flush.
        self.cp
            .shared
            .acquire_credit(self.cp.ctx(), self.cp.proc_name(), chan.0)?;
        self.cp.ep.charge(msg.payload);
        self.opened_at.get_or_insert(self.cp.ctx().now());
        self.buf.push((chan.0, msg.data));
        if self.buf.len() >= self.policy.max_batch || self.deadline_expired() {
            self.flush()?;
        }
        Ok(())
    }

    /// Number of writes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Flush everything buffered: SPE-destined entries are grouped per
    /// node into one `CP_BUNDLE_TAG` envelope for that node's Co-Pilot;
    /// rank-destined entries are sent individually under their channel
    /// tags. No-op when empty.
    pub fn flush(&mut self) -> Result<(), CpError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let tables = self.cp.shared.tables.clone();
        let entries = std::mem::take(&mut self.buf);
        self.opened_at = None;
        let total: usize = entries.iter().map(|(_, d)| d.len()).sum();
        // BTreeMap: envelope send order must be deterministic.
        let mut per_node: BTreeMap<NodeId, Vec<(u32, Vec<u8>)>> = BTreeMap::new();
        for (c, data) in entries {
            let n = data.len();
            match tables.processes[tables.ends(c).to].location {
                Location::Rank { rank, .. } => {
                    self.cp
                        .comm()
                        .send_bytes(rank, c as i32, Datatype::Byte, n, data);
                }
                Location::Spe { node, .. } => {
                    per_node.entry(node).or_default().push((c as u32, data));
                }
            }
            self.cp.report_chan(cp_pilot::EV_WRITE, c);
        }
        for (node, group) in per_node {
            let payload = encode_bundle(&group);
            let cp_rank = self.cp.shared.copilot_rank(node);
            let n = payload.len();
            self.cp
                .comm()
                .send_bytes(cp_rank, CP_BUNDLE_TAG, Datatype::Byte, n, payload);
        }
        self.cp.shared.recorder.record_op(
            self.cp.ctx().now().0,
            self.cp.proc_name(),
            Some(cp_trace::Op::CoalescedFlush),
            self.b.0,
            total,
            None,
        );
        Ok(())
    }

    fn deadline_expired(&self) -> bool {
        self.opened_at.is_some_and(|t0| {
            let waited_ns = self.cp.ctx().now().as_nanos().saturating_sub(t0.as_nanos());
            waited_ns as f64 >= self.policy.deadline_us * 1_000.0
        })
    }
}

impl Drop for BundleCoalescer<'_> {
    fn drop(&mut self) {
        // Buffered writes already hold their credits; losing them on drop
        // would leak the credits and silently drop acknowledged work.
        let _ = self.flush();
    }
}
