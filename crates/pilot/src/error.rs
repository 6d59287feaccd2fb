//! Pilot error reporting.
//!
//! One of the benefits the paper claims for the Pilot approach is "the
//! elimination of categories of common parallel programming errors", with
//! API misuse "reported by source file and line number". The [`pi_write!`]
//! and [`pi_read!`] macros reproduce that: they capture `file!()`/`line!()`
//! and abort the simulated application with a Pilot-style diagnostic when a
//! call is invalid.
//!
//! [`pi_write!`]: crate::pi_write
//! [`pi_read!`]: crate::pi_read

use crate::fmt::FmtError;
use crate::value::MatchError;
use std::fmt;

/// Everything that can go wrong in a Pilot call.
#[derive(Debug, Clone, PartialEq)]
pub enum PilotError {
    /// `PI_CreateProcess` when every MPI rank is already assigned.
    TooManyProcesses {
        /// Ranks the `mpirun` equivalent made available.
        available: usize,
    },
    /// A channel id that was never created.
    NoSuchChannel(usize),
    /// A bundle id that was never created.
    NoSuchBundle(usize),
    /// A process id that was never created.
    NoSuchProcess(usize),
    /// Writing on a channel this process is not the writer of.
    NotWriter {
        /// The channel id.
        channel: usize,
        /// The offending process.
        caller: String,
        /// The configured writer.
        writer: String,
    },
    /// Reading on a channel this process is not the reader of.
    NotReader {
        /// The channel id.
        channel: usize,
        /// The offending process.
        caller: String,
        /// The configured reader.
        reader: String,
    },
    /// A malformed format string.
    Format(FmtError),
    /// Supplied values do not satisfy the format.
    Args(MatchError),
    /// The reader's format disagrees with what the writer sent.
    FormatMismatch {
        /// The channel id.
        channel: usize,
        /// The disagreement.
        detail: MatchError,
    },
    /// Both endpoints of a channel are the same process.
    SelfChannel,
    /// Bundle channels do not share the required common endpoint.
    BundleCommonEndpoint,
    /// A channel was placed in more than one bundle.
    ChannelAlreadyBundled(usize),
    /// An empty bundle.
    EmptyBundle,
    /// A bundle operation invoked by a process other than the common
    /// endpoint, or the wrong operation for the bundle's usage.
    BundleMisuse {
        /// The bundle id.
        bundle: usize,
        /// What was wrong.
        detail: String,
    },
    /// The deadlock-detection service found a circular wait.
    CircularWait {
        /// Process names forming the cycle, in wait-for order.
        cycle: Vec<String>,
    },
    /// A channel operation missed its deadline or exhausted its retry
    /// budget without the peer being known dead.
    Timeout {
        /// The channel id.
        channel: usize,
        /// What ran out of time (operation and bound).
        detail: String,
    },
    /// The peer process of a channel was lost to an injected fault.
    PeerLost {
        /// The channel id.
        channel: usize,
        /// Name of the lost peer process.
        peer: String,
    },
    /// A deadlock-service event payload that could not be decoded (short
    /// buffer, unknown event kind, or bad endpoint tag).
    MalformedEvent {
        /// Bytes received.
        len: usize,
        /// What was wrong with them.
        detail: String,
    },
}

impl fmt::Display for PilotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PilotError::TooManyProcesses { available } => write!(
                f,
                "PI_CreateProcess: all {available} MPI processes already assigned \
                 (launch with more ranks)"
            ),
            PilotError::NoSuchChannel(id) => write!(f, "no such channel (id {id})"),
            PilotError::NoSuchBundle(id) => write!(f, "no such bundle (id {id})"),
            PilotError::NoSuchProcess(id) => write!(f, "no such process (id {id})"),
            PilotError::NotWriter {
                channel,
                caller,
                writer,
            } => write!(
                f,
                "PI_Write: process '{caller}' is not the writer of channel {channel} \
                 (writer is '{writer}')"
            ),
            PilotError::NotReader {
                channel,
                caller,
                reader,
            } => write!(
                f,
                "PI_Read: process '{caller}' is not the reader of channel {channel} \
                 (reader is '{reader}')"
            ),
            PilotError::Format(e) => write!(f, "bad format string: {e}"),
            PilotError::Args(e) => write!(f, "arguments do not satisfy format: {e}"),
            PilotError::FormatMismatch { channel, detail } => write!(
                f,
                "PI_Read on channel {channel}: reader format disagrees with writer: {detail}"
            ),
            PilotError::SelfChannel => {
                write!(f, "PI_CreateChannel: endpoints must be distinct processes")
            }
            PilotError::BundleCommonEndpoint => write!(
                f,
                "PI_CreateBundle: channels must share a common endpoint on the bundle side"
            ),
            PilotError::ChannelAlreadyBundled(id) => {
                write!(
                    f,
                    "PI_CreateBundle: channel {id} already belongs to a bundle"
                )
            }
            PilotError::EmptyBundle => write!(f, "PI_CreateBundle: no channels given"),
            PilotError::BundleMisuse { bundle, detail } => {
                write!(f, "bundle {bundle} misuse: {detail}")
            }
            PilotError::CircularWait { cycle } => {
                write!(
                    f,
                    "DEADLOCK: circular wait detected: {}",
                    cycle.join(" -> ")
                )
            }
            PilotError::Timeout { channel, detail } => {
                write!(f, "channel {channel} operation timed out: {detail}")
            }
            PilotError::PeerLost { channel, peer } => {
                write!(f, "channel {channel}: peer process '{peer}' was lost")
            }
            PilotError::MalformedEvent { len, detail } => {
                write!(
                    f,
                    "malformed deadlock-service event ({len} bytes): {detail}"
                )
            }
        }
    }
}

impl PilotError {
    /// A `PI_Write`'s caller check: `NotWriter` unless `caller` is (`ok`)
    /// channel `channel`'s writer, `writer`.
    pub fn check_writer(ok: bool, channel: usize, caller: &str, writer: &str) -> Result<(), Self> {
        if ok {
            return Ok(());
        }
        Err(PilotError::NotWriter {
            channel,
            caller: caller.into(),
            writer: writer.into(),
        })
    }

    /// A `PI_Read`'s caller check: `NotReader` unless `caller` is (`ok`)
    /// channel `channel`'s reader, `reader`.
    pub fn check_reader(ok: bool, channel: usize, caller: &str, reader: &str) -> Result<(), Self> {
        if ok {
            return Ok(());
        }
        Err(PilotError::NotReader {
            channel,
            caller: caller.into(),
            reader: reader.into(),
        })
    }
}

impl std::error::Error for PilotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PilotError::Format(e) => Some(e),
            PilotError::Args(e) => Some(e),
            PilotError::FormatMismatch { detail, .. } => Some(detail),
            _ => None,
        }
    }
}

impl From<FmtError> for PilotError {
    fn from(e: FmtError) -> Self {
        PilotError::Format(e)
    }
}

impl From<MatchError> for PilotError {
    fn from(e: MatchError) -> Self {
        PilotError::Args(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_offenders() {
        let e = PilotError::NotWriter {
            channel: 3,
            caller: "worker2".into(),
            writer: "main".into(),
        };
        let s = e.to_string();
        assert!(s.contains("worker2") && s.contains("main") && s.contains("channel 3"));
    }

    #[test]
    fn circular_wait_lists_cycle() {
        let e = PilotError::CircularWait {
            cycle: vec!["a".into(), "b".into(), "a".into()],
        };
        assert_eq!(
            e.to_string(),
            "DEADLOCK: circular wait detected: a -> b -> a"
        );
    }
}
