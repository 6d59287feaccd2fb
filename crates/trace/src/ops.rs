//! The op log: one line per completed runtime operation (a channel write
//! or read, a Co-Pilot relay step, a one-sided put or delivery, an SPE
//! launch, a bundle operation), kept by the [`crate::Recorder`] apart from
//! its Chrome-trace events. [`render_trace`] renders it as the
//! channel-operation trace with virtual timestamps: the observability tool
//! behind the Co-Pilot overhead analysis (paper §V: "our current analysis
//! is that all SPE-connected channel types are paying some overhead for
//! the Co-Pilot process"), and Pilot's `-pisvc=c` call log. Every op
//! carries the virtual time it *completed* at, so consecutive ops on one
//! process measure the legs of a transfer; a run that fails keeps the ops
//! it completed.

use std::fmt;
use std::sync::Arc;

/// What a logged operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A rank-side `PI_Write` completed (message handed to MPI).
    RankWrite,
    /// A rank-side `PI_Read` completed (message verified and returned).
    RankRead,
    /// An SPE-side `PI_Write` completed (Co-Pilot confirmed).
    SpeWrite,
    /// An SPE-side `PI_Read` completed.
    SpeRead,
    /// The Co-Pilot finished servicing an SPE write request.
    CopilotWrite,
    /// The Co-Pilot delivered data into an SPE read buffer.
    CopilotDeliver,
    /// The Co-Pilot paired a type-4 write/read couple.
    CopilotPair,
    /// A one-sided put landed in the reader's window (writer side of the
    /// fabric; the acting process is the writing rank or SPE).
    OneSidedPut,
    /// A landed one-sided payload was moved from the window into the
    /// reader SPE's posted buffer.
    OneSidedDeliver,
    /// An SPE process was launched (`PI_RunSPE`).
    RunSpe,
    /// A bundle broadcast was issued by its common endpoint.
    Broadcast,
    /// A bundle gather completed at its common endpoint.
    Gather,
    /// A `PI_Select` found a ready channel.
    Select,
    /// A coalescer flushed buffered small writes as batched envelopes.
    CoalescedFlush,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::RankWrite => "rank-write",
            Op::RankRead => "rank-read",
            Op::SpeWrite => "spe-write",
            Op::SpeRead => "spe-read",
            Op::CopilotWrite => "copilot-write",
            Op::CopilotDeliver => "copilot-deliver",
            Op::CopilotPair => "copilot-pair",
            Op::OneSidedPut => "one-sided-put",
            Op::OneSidedDeliver => "one-sided-deliver",
            Op::RunSpe => "run-spe",
            Op::Broadcast => "broadcast",
            Op::Gather => "gather",
            Op::Select => "select",
            Op::CoalescedFlush => "coalesced-flush",
        })
    }
}

/// One line of the op log.
///
/// `bytes` is not the same count for every op (the golden trace digests
/// pin these counts as they are):
/// - [`Op::RankRead`] and [`Op::Gather`]: the payload bytes read (the
///   values, without the packed message's segment headers);
/// - [`Op::RankWrite`], [`Op::SpeWrite`], [`Op::SpeRead`], the Co-Pilot
///   ops and the one-sided ops: the packed message length, headers
///   included;
/// - [`Op::Broadcast`]: the packed message length once, not per receiver;
/// - [`Op::CoalescedFlush`]: the packed lengths of the flushed writes,
///   summed;
/// - [`Op::RunSpe`] and [`Op::Select`]: 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEvent {
    /// Virtual completion time, nanoseconds.
    pub ts_ns: u64,
    /// Acting process name.
    pub process: Arc<str>,
    /// The operation.
    pub op: Op,
    /// Channel or bundle involved, or the launched SPE process's id for
    /// [`Op::RunSpe`].
    pub subject: usize,
    /// Bytes moved, as listed on the type.
    pub bytes: usize,
}

/// What the metrics and the Chrome trace take from a reported op, beside
/// its op-log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// A channel write or read on a channel of Table-I type `chan_type`
    /// (1..=5), begun at `t0_ns`: counted per type with `payload_bytes`
    /// and drawn as a span on the acting process's lane.
    Channel {
        /// Table-I channel type, 1..=5.
        chan_type: u8,
        /// Write (`true`) or read.
        write: bool,
        /// Payload bytes the per-type counters add.
        payload_bytes: usize,
        /// When the endpoint entered the operation.
        t0_ns: u64,
    },
    /// A one-sided put landing in a window (`put`) or a get delivering a
    /// landed put, begun at `t0_ns`: counted with the op's bytes and drawn
    /// as a span.
    OneSided {
        /// Put (`true`) or get.
        put: bool,
        /// When the acting side entered the operation.
        t0_ns: u64,
    },
    /// A Co-Pilot proxy hop on a channel of type `chan_type`: counted, and
    /// marked as an instant labelled `what` on the Co-Pilot's lane.
    ProxyHop {
        /// Table-I channel type, 1..=5.
        chan_type: u8,
        /// `"forward"` (writer-side MPI send) or `"deliver"`.
        what: &'static str,
    },
}

/// Render an op log (see [`crate::Recorder::ops`]) as an aligned text log,
/// one line per op.
pub fn render_trace(ops: &[OpEvent]) -> String {
    let mut s = String::new();
    for e in ops {
        s.push_str(&format!(
            "{:>12.3}us {:<24} {:<16} subject={:<4} {}B\n",
            e.ts_ns as f64 / 1_000.0,
            e.process,
            e.op.to_string(),
            e.subject,
            e.bytes
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn render_is_line_per_event() {
        let r = Recorder::enabled();
        r.record_op(1_500, &"main".into(), Some(Op::RunSpe), 2, 0, None);
        let out = render_trace(&r.ops());
        assert_eq!(
            out,
            "       1.500us main                     run-spe          subject=2    0B\n"
        );
    }
}
