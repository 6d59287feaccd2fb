//! CellPilot error reporting: Pilot's source-located diagnostics extended
//! with the SPE-specific failure modes.
//!
//! [`CpError`] is the one error type the whole stack surfaces. Errors
//! raised by the layers underneath — the Pilot library ([`PilotError`])
//! and the simulation kernel ([`SimError`]) — are wrapped rather than
//! re-spelled, and remain reachable through [`std::error::Error::source`].
//! A channel operation's failures are Pilot's own: a rank's channel
//! endpoint is Pilot's ([`cp_pilot::RankEndpoint`]), and the SPE side
//! raises the same [`PilotError`]s. So are the configure phase's and the
//! bundle operations': processes, channels and bundles are declared and
//! checked through Pilot's table ([`cp_pilot::DeclTable`]), so CellPilot
//! adds only the variants Pilot has no counterpart for (SPE processes,
//! windows, capacities, local store, backpressure).
//! Callers that only care about the coarse class of a failure (was it
//! misuse? a resource limit? an injected fault?) match on the stable
//! [`CpError::kind`] accessor instead of the full variant list.

use cp_cellsim::{LsError, SpeRunError};
use cp_des::SimError;
use cp_pilot::{FmtError, MatchError, PilotError};
use std::fmt;

/// Coarse, stable classification of a [`CpError`].
///
/// New [`CpError`] variants may appear as the library grows, but each maps
/// into one of these kinds, so matching on `kind()` keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Configuration-phase misuse: bad architecture declarations (unknown
    /// handles, self-channels, bundle shape errors, rank exhaustion).
    Config,
    /// Execution-phase API misuse: wrong process performing an operation.
    Usage,
    /// Format-string or data-description problems.
    Format,
    /// Hardware or resource limits: SPE exhaustion, local-store pressure.
    Resource,
    /// Injected-fault outcomes: deadlines missed, peers lost.
    Fault,
    /// Credit-based flow control pushed back: a bounded channel was at
    /// capacity and its overload policy shed the message or gave up on a
    /// bounded wait. Distinct from [`ErrorKind::Fault`]: nothing failed —
    /// the receiver is merely slower than the sender.
    Backpressure,
    /// An error from the Pilot layer underneath.
    Pilot,
    /// An error from the simulation kernel.
    Sim,
}

/// The structured cause carried by [`CpError::Backpressure`]: which
/// channel was overloaded, its configured capacity, the policy that
/// engaged, and what the policy did. Reachable through
/// [`std::error::Error::source`] so callers can introspect the overload
/// without string-matching the display text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadError {
    /// The saturated channel's id.
    pub channel: usize,
    /// The channel's configured capacity (messages in flight).
    pub capacity: usize,
    /// Stable label of the policy that engaged: `"shed"` or
    /// `"deadline-drop"`.
    pub policy: &'static str,
    /// What happened (shed immediately, or waited how long before drop).
    pub detail: String,
}

impl fmt::Display for OverloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "channel {} at capacity ({} in flight, policy {}): {}",
            self.channel, self.capacity, self.policy, self.detail
        )
    }
}

impl std::error::Error for OverloadError {}

/// Everything a CellPilot call can report.
#[derive(Debug, Clone, PartialEq)]
pub enum CpError {
    /// `PI_CreateSPE` with a parent that is not a PPE-resident process on a
    /// Cell node.
    BadSpeParent {
        /// The proposed parent's process id.
        parent: usize,
        /// Why it cannot parent an SPE process.
        reason: String,
    },
    /// `PI_RunSPE` by a process that is not the SPE process's parent.
    NotParent {
        /// The SPE process someone tried to launch.
        spe_process: usize,
        /// The offending caller.
        caller: String,
    },
    /// `PI_RunSPE` on a process that is not an SPE process.
    NotSpeProcess(usize),
    /// `PI_RunSPE` when every SPE of the node is busy.
    NoFreeSpe {
        /// The exhausted Cell node.
        node: usize,
    },
    /// The SPE process is already running.
    AlreadyRunning(usize),
    /// The incoming message does not fit the SPE's read buffer.
    SpeBufferOverflow {
        /// The channel id.
        channel: usize,
        /// The buffer capacity that was exceeded.
        capacity: usize,
    },
    /// A channel option was declared with a value it cannot take: a zero
    /// capacity, or an eager threshold of zero or above what one mailbox
    /// exchange carries.
    BadChannelOption {
        /// The channel id.
        channel: usize,
        /// What was wrong.
        detail: String,
    },
    /// A one-sided channel or its window was declared or used incorrectly
    /// (rank-resident reader, window placement on a non-one-sided channel,
    /// fence on a rendezvous channel, ...).
    WindowMisuse {
        /// The channel id.
        channel: usize,
        /// What was wrong.
        detail: String,
    },
    /// Local-store management failed (e.g. out of the 256 KB).
    LocalStore(LsError),
    /// SPE context management failed.
    SpeRun(SpeRunError),
    /// Credit-based flow control refused the send: the channel was at its
    /// configured capacity and the overload policy shed the message
    /// (`Shed`) or abandoned a bounded wait (`DeadlineDrop`). The wrapped
    /// [`OverloadError`] is reachable through
    /// [`std::error::Error::source`].
    Backpressure(OverloadError),
    /// A failure of the Pilot layer underneath: every declaration's own
    /// (rank exhaustion, unknown handle, self-channel, bundle shape) and
    /// every channel or bundle operation's (wrong caller or usage, format,
    /// timeout, lost peer).
    Pilot(PilotError),
    /// An error surfaced by the simulation kernel.
    Sim(SimError),
}

impl CpError {
    /// The coarse, stable classification of this error (see [`ErrorKind`]).
    pub fn kind(&self) -> ErrorKind {
        match self {
            CpError::BadSpeParent { .. }
            | CpError::BadChannelOption { .. }
            | CpError::WindowMisuse { .. } => ErrorKind::Config,
            CpError::NotParent { .. } | CpError::NotSpeProcess(_) | CpError::AlreadyRunning(_) => {
                ErrorKind::Usage
            }
            CpError::NoFreeSpe { .. }
            | CpError::SpeBufferOverflow { .. }
            | CpError::LocalStore(_)
            | CpError::SpeRun(_) => ErrorKind::Resource,
            CpError::Backpressure(_) => ErrorKind::Backpressure,
            CpError::Pilot(e) => match e {
                PilotError::TooManyProcesses { .. }
                | PilotError::NoSuchProcess(_)
                | PilotError::NoSuchChannel(_)
                | PilotError::NoSuchBundle(_)
                | PilotError::SelfChannel
                | PilotError::EmptyBundle
                | PilotError::BundleCommonEndpoint
                | PilotError::ChannelAlreadyBundled(_) => ErrorKind::Config,
                PilotError::NotWriter { .. }
                | PilotError::NotReader { .. }
                | PilotError::BundleMisuse { .. } => ErrorKind::Usage,
                PilotError::Format(_) | PilotError::Args(_) | PilotError::FormatMismatch { .. } => {
                    ErrorKind::Format
                }
                PilotError::Timeout { .. } | PilotError::PeerLost { .. } => ErrorKind::Fault,
                _ => ErrorKind::Pilot,
            },
            CpError::Sim(_) => ErrorKind::Sim,
        }
    }
}

impl fmt::Display for CpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpError::BadSpeParent { parent, reason } => {
                write!(
                    f,
                    "PI_CreateSPE: process {parent} cannot parent an SPE process: {reason}"
                )
            }
            CpError::NotParent {
                spe_process,
                caller,
            } => write!(
                f,
                "PI_RunSPE: '{caller}' is not the parent of SPE process {spe_process}"
            ),
            CpError::NotSpeProcess(p) => {
                write!(
                    f,
                    "PI_RunSPE: process {p} was not created with PI_CreateSPE"
                )
            }
            CpError::NoFreeSpe { node } => {
                write!(f, "PI_RunSPE: no free SPE on node {node}")
            }
            CpError::AlreadyRunning(p) => {
                write!(f, "PI_RunSPE: SPE process {p} is already running")
            }
            CpError::SpeBufferOverflow { channel, capacity } => write!(
                f,
                "PI_Read on channel {channel}: message exceeds the SPE read buffer \
                 ({capacity} B); use a fixed-count format or raise the buffer limit"
            ),
            CpError::BadChannelOption { channel, detail } => {
                write!(f, "channel {channel}: invalid option: {detail}")
            }
            CpError::WindowMisuse { channel, detail } => {
                write!(f, "channel {channel} window misuse: {detail}")
            }
            CpError::LocalStore(e) => write!(f, "{e}"),
            CpError::SpeRun(e) => write!(f, "{e}"),
            CpError::Backpressure(e) => {
                write!(f, "PI_Write backpressure: {e}")
            }
            CpError::Pilot(e) => write!(f, "{e}"),
            CpError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for CpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpError::LocalStore(e) => Some(e),
            CpError::SpeRun(e) => Some(e),
            CpError::Pilot(e) => Some(e),
            CpError::Sim(e) => Some(e),
            CpError::Backpressure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FmtError> for CpError {
    fn from(e: FmtError) -> Self {
        CpError::Pilot(e.into())
    }
}

impl From<MatchError> for CpError {
    fn from(e: MatchError) -> Self {
        CpError::Pilot(e.into())
    }
}

impl From<LsError> for CpError {
    fn from(e: LsError) -> Self {
        CpError::LocalStore(e)
    }
}

impl From<SpeRunError> for CpError {
    fn from(e: SpeRunError) -> Self {
        CpError::SpeRun(e)
    }
}

impl From<PilotError> for CpError {
    fn from(e: PilotError) -> Self {
        CpError::Pilot(e)
    }
}

impl From<SimError> for CpError {
    fn from(e: SimError) -> Self {
        CpError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CpError::NoFreeSpe { node: 3 };
        assert!(e.to_string().contains("no free SPE on node 3"));
        let e = CpError::SpeBufferOverflow {
            channel: 9,
            capacity: 16384,
        };
        assert!(e.to_string().contains("16384"));
    }

    #[test]
    fn conversions() {
        let ls = LsError::BadFree(4);
        let e: CpError = ls.clone().into();
        assert_eq!(e, CpError::LocalStore(ls));
    }

    #[test]
    fn kinds_are_stable_coarse_classes() {
        assert_eq!(
            CpError::WindowMisuse {
                channel: 0,
                detail: "x".into()
            }
            .kind(),
            ErrorKind::Config
        );
        assert_eq!(CpError::NotSpeProcess(1).kind(), ErrorKind::Usage);
        assert_eq!(CpError::NoFreeSpe { node: 0 }.kind(), ErrorKind::Resource);
        assert_eq!(
            CpError::Pilot(PilotError::Timeout {
                channel: 0,
                detail: "x".into()
            })
            .kind(),
            ErrorKind::Fault
        );
        assert_eq!(
            CpError::Pilot(PilotError::PeerLost {
                channel: 0,
                peer: "p".into()
            })
            .kind(),
            ErrorKind::Fault
        );
        // The declaration and channel failures Pilot raises keep the kinds
        // they had as CpError's own variants; the rest stay Pilot's.
        let config = [
            PilotError::TooManyProcesses { available: 3 },
            PilotError::NoSuchProcess(0),
            PilotError::NoSuchChannel(0),
            PilotError::NoSuchBundle(0),
            PilotError::SelfChannel,
            PilotError::EmptyBundle,
            PilotError::BundleCommonEndpoint,
            PilotError::ChannelAlreadyBundled(0),
        ];
        for e in config {
            assert_eq!(CpError::Pilot(e.clone()).kind(), ErrorKind::Config, "{e}");
        }
        assert_eq!(
            CpError::Pilot(PilotError::BundleMisuse {
                bundle: 0,
                detail: "x".into()
            })
            .kind(),
            ErrorKind::Usage
        );
        let e: CpError = cp_pilot::parse_format("%q").unwrap_err().into();
        assert_eq!(e.kind(), ErrorKind::Format);
        assert_eq!(
            CpError::Pilot(PilotError::CircularWait { cycle: Vec::new() }).kind(),
            ErrorKind::Pilot
        );
    }

    #[test]
    fn source_chains_reach_wrapped_errors() {
        use std::error::Error;
        let e = CpError::Pilot(PilotError::NoSuchChannel(3));
        let src = e.source().expect("pilot source");
        assert!(src.to_string().contains("no such channel"));
        let e = CpError::Sim(SimError::TimeLimitExceeded {
            limit: cp_des::SimTime(5),
        });
        assert!(e
            .source()
            .expect("sim source")
            .to_string()
            .contains("limit"));
        let e: CpError = LsError::BadFree(4).into();
        assert!(e.source().is_some());
        assert!(CpError::NotSpeProcess(1).source().is_none());
    }

    #[test]
    fn backpressure_is_its_own_kind_with_a_source_chain() {
        use std::error::Error;
        let e = CpError::Backpressure(OverloadError {
            channel: 4,
            capacity: 8,
            policy: "shed",
            detail: "message shed without waiting".into(),
        });
        // Backpressure must classify as its own kind — a saturated channel
        // is not a fault, and harnesses dispatch on the distinction.
        assert_eq!(e.kind(), ErrorKind::Backpressure);
        assert_ne!(
            e.kind(),
            CpError::Pilot(PilotError::Timeout {
                channel: 4,
                detail: "x".into()
            })
            .kind()
        );
        let src = e.source().expect("overload source");
        assert!(src.to_string().contains("capacity"), "{src}");
        assert!(src.downcast_ref::<OverloadError>().is_some());
        assert!(e.to_string().contains("backpressure"), "{e}");
    }
}
