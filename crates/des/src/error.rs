//! Simulation outcomes and error reporting.

use crate::time::SimTime;
use std::fmt;

/// Identifier of a simulated process within one [`crate::Simulation`].
pub type Pid = usize;

/// Why a simulation ended unsuccessfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every runnable process is blocked and no future event can wake one.
    ///
    /// This is the simulation-level analogue of the circular-wait hangs that
    /// Pilot's deadlock-detection service diagnoses on a real cluster.
    Deadlock {
        /// Virtual time at which progress stopped.
        at: SimTime,
        /// `(pid, process name, blocking reason)` for every blocked process.
        blocked: Vec<(Pid, String, String)>,
    },
    /// A simulated process panicked (a bug in user code or the library).
    ProcessPanicked {
        /// The panicking process.
        pid: Pid,
        /// Its registered name.
        name: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// A process requested an abort (e.g. a Pilot API-misuse diagnostic).
    Aborted {
        /// The aborting process.
        pid: Pid,
        /// Its registered name.
        name: String,
        /// The abort diagnostic.
        message: String,
    },
    /// Virtual time passed the limit set with
    /// [`crate::Simulation::set_time_limit`].
    TimeLimitExceeded {
        /// The configured limit.
        limit: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                writeln!(f, "simulation deadlock at {at}: all processes blocked")?;
                for (pid, name, reason) in blocked {
                    writeln!(f, "  [{pid}] {name}: blocked on {reason}")?;
                }
                Ok(())
            }
            SimError::ProcessPanicked { pid, name, message } => {
                write!(f, "process [{pid}] {name} panicked: {message}")
            }
            SimError::Aborted { pid, name, message } => {
                write!(f, "process [{pid}] {name} aborted: {message}")
            }
            SimError::TimeLimitExceeded { limit } => {
                write!(f, "simulation exceeded the virtual time limit ({limit})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Machine-matchable classification of an [`Incident`].
///
/// Closed enum rather than a free-form string so harnesses that filter
/// incidents (blast-radius tests, the chaos campaign driver) cannot drift
/// out of sync with the reporters. The [`fmt::Display`] renderings are the
/// exact kebab-case strings the categories were before they were typed
/// (`"spe-crash"`, `"rank-death"`, ...), so golden traces and log scrapes
/// stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidentCategory {
    /// A scripted SPE crash fired (fail-stop of one SPE process).
    SpeCrash,
    /// A supervised SPE process was restarted after a crash.
    SpeRestart,
    /// A supervised SPE process exhausted its restart budget and was
    /// abandoned; its channels degrade to the peer-lost path.
    SpeAbandoned,
    /// An MPI rank was killed by the fault plan.
    RankDeath,
    /// A channel operation failed because its peer process is gone.
    PeerLost,
    /// A channel operation's virtual-time deadline elapsed.
    ChannelTimeout,
    /// A Co-Pilot service loop was unresponsive for a scripted duration.
    CopilotStall,
    /// A Co-Pilot process was killed by the fault plan.
    CopilotDeath,
    /// A standby Co-Pilot adopted a dead primary's node after missed
    /// heartbeats.
    CopilotFailover,
    /// The configure-time wiring verifier (`cp-check`) flagged an
    /// ill-formed process/channel/bundle graph in non-strict mode.
    WiringLint,
    /// The happens-before race detector (`cp-check`) flagged overlapping
    /// local-store accesses without an ordering edge.
    DmaRace,
    /// A bounded channel hit its configured capacity and its overload
    /// policy engaged (a sender was shed or deadline-dropped).
    Overload,
    /// A message was dropped by a `Shed` or `DeadlineDrop` overload policy
    /// instead of being queued past the channel's capacity.
    MessageShed,
}

impl IncidentCategory {
    /// The stable kebab-case rendering (what [`fmt::Display`] prints).
    pub fn as_str(&self) -> &'static str {
        match self {
            IncidentCategory::SpeCrash => "spe-crash",
            IncidentCategory::SpeRestart => "spe-restart",
            IncidentCategory::SpeAbandoned => "spe-abandoned",
            IncidentCategory::RankDeath => "rank-death",
            IncidentCategory::PeerLost => "peer-lost",
            IncidentCategory::ChannelTimeout => "channel-timeout",
            IncidentCategory::CopilotStall => "copilot-stall",
            IncidentCategory::CopilotDeath => "copilot-death",
            IncidentCategory::CopilotFailover => "copilot-failover",
            IncidentCategory::WiringLint => "wiring-lint",
            IncidentCategory::DmaRace => "dma-race",
            IncidentCategory::Overload => "overload",
            IncidentCategory::MessageShed => "message-shed",
        }
    }
}

impl fmt::Display for IncidentCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A non-fatal degradation event recorded during a run.
///
/// Fault-injection experiments (see `cp-simnet`'s fault plans) deliberately
/// break parts of the simulated cluster; the parts that keep working report
/// what they lost here instead of tearing the simulation down. The collected
/// incidents come back in [`SimReport::incidents`] so a harness can assert on
/// the exact blast radius of an injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Virtual time at which the incident was reported.
    pub at: SimTime,
    /// Name of the reporting process.
    pub process: String,
    /// Machine-matchable category.
    pub category: IncidentCategory,
    /// Human-readable description of what degraded.
    pub detail: String,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {}: {}",
            self.at, self.process, self.category, self.detail
        )
    }
}

/// Summary of a completed simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time when the last process finished.
    pub end_time: SimTime,
    /// Total number of processes that ran.
    pub processes: usize,
    /// Total number of scheduler dispatches: grants of the virtual CPU to
    /// the owner of the earliest event. Most are not context switches — a
    /// process whose own event is the earliest keeps running, and a
    /// component runs on whichever thread dispatched it.
    pub dispatches: u64,
    /// The dispatches that woke a different OS thread. Deterministic and
    /// host-independent like `dispatches`, and the count the host clock
    /// follows: a hand-off costs microseconds, any other dispatch tens of
    /// nanoseconds. Always 0 on `Backend::Native`, which hands nothing off.
    pub handoffs: u64,
    /// Dispatch trace `(time, pid)` if tracing was enabled.
    pub trace: Option<Vec<(SimTime, Pid)>>,
    /// Degradation incidents reported via
    /// [`crate::ProcCtx::report_incident`], sorted deterministically by
    /// virtual time, then category, then reporting process, then detail —
    /// so golden incident digests are stable regardless of the order in
    /// which detectors happened to report (see [`sort_incidents`]).
    pub incidents: Vec<Incident>,
}

/// Sort `incidents` into the canonical deterministic order golden digests
/// rely on: virtual time first, then category (by its stable kebab-case
/// string), then reporting process, then detail text. Both the DES kernel
/// and the native backend apply this before returning a [`SimReport`], so
/// detector arrival order never leaks into the report.
pub fn sort_incidents(incidents: &mut [Incident]) {
    incidents.sort_by(|a, b| {
        a.at.cmp(&b.at)
            .then_with(|| a.category.as_str().cmp(b.category.as_str()))
            .then_with(|| a.process.cmp(&b.process))
            .then_with(|| a.detail.cmp(&b.detail))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_lists_processes() {
        let e = SimError::Deadlock {
            at: SimTime(2_000),
            blocked: vec![(1, "reader".into(), "channel c0 read".into())],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("reader"));
        assert!(s.contains("channel c0 read"));
    }

    #[test]
    fn abort_display() {
        let e = SimError::Aborted {
            pid: 3,
            name: "main".into(),
            message: "PI_Write: not an endpoint".into(),
        };
        assert!(e.to_string().contains("not an endpoint"));
    }
}
