//! Diagnostics: stable machine-readable codes, severities and rendering.

use std::fmt;

/// Stable machine-readable code of one lint or race finding.
///
/// Codes are a contract: tools (CI filters, golden tests, log scrapes)
/// match on them, so a code is never renumbered or reused. New checks
/// append new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckCode {
    /// Channel has no writer endpoint: nothing can ever write it.
    Cp001,
    /// Channel has no reader endpoint: nothing can ever read it.
    Cp002,
    /// Bundle member's direction contradicts the bundle's common
    /// endpoint (e.g. a broadcast member not written by the common
    /// process).
    Cp003,
    /// Process placed on a nonexistent MPI rank (or a channel endpoint
    /// referencing a nonexistent process).
    Cp004,
    /// SPE process placed on a node that is not a configured Cell node.
    Cp005,
    /// More SPE slots used on a Cell node than the node has SPEs.
    Cp006,
    /// Channel with an SPE endpoint routed through a node with no
    /// Co-Pilot.
    Cp007,
    /// Bundle mixes channel types from incompatible rendezvous classes.
    Cp008,
    /// Channel whose writer and reader are the same process.
    Cp009,
    /// Two SPE processes bound to the same `spe(node,slot)`.
    Cp010,
    /// Overlapping or duplicate one-sided window registration: two
    /// windows claim the same local-store bytes of one SPE, or one
    /// channel registers two windows.
    Cp011,
    /// One-sided put/get targeting an unregistered or wrong-direction
    /// window: a one-sided channel with no window, a window for a
    /// channel that is not one-sided, or a window that is not in the
    /// reading SPE's local store.
    Cp012,
    /// Flow-control misconfiguration: a non-Block overload policy on a
    /// channel with no capacity (the policy is inert), or — in strict
    /// mode, once any channel is bounded — a channel left unbounded.
    Cp013,
    /// Eager/coalescing misconfiguration: an eager threshold larger than
    /// the mailbox-word capacity (the excess can never go inline), or
    /// coalescing on a bundle whose member channel's capacity is smaller
    /// than the batch size (a full batch can never accumulate).
    Cp014,
    /// Race detector: overlapping local-store byte ranges accessed
    /// without a happens-before edge.
    Cp101,
    /// Progress analyzer: credit-deadlock cycle — a cycle in the channel
    /// dependency graph on which every edge is a `Block`-policy bounded
    /// channel, so a full round of in-flight messages wedges every
    /// writer.
    Cp201,
    /// Progress analyzer: Co-Pilot relay saturation — the static fan-in
    /// dispatch cost of the channels a Co-Pilot proxies exceeds its
    /// service budget.
    Cp202,
    /// Progress analyzer (advice): a channel whose declared payloads
    /// always fit the mailbox inline capacity is left non-eager, paying
    /// a DMA round trip per message for nothing.
    Cp203,
    /// Progress analyzer: one-sided window whose channel config makes
    /// fence placement unsatisfiable (coalesced bundles or eager
    /// inlining over a fenced window).
    Cp204,
}

impl CheckCode {
    /// The stable rendering (`"CP001"`, ...).
    pub fn as_str(&self) -> &'static str {
        match self {
            CheckCode::Cp001 => "CP001",
            CheckCode::Cp002 => "CP002",
            CheckCode::Cp003 => "CP003",
            CheckCode::Cp004 => "CP004",
            CheckCode::Cp005 => "CP005",
            CheckCode::Cp006 => "CP006",
            CheckCode::Cp007 => "CP007",
            CheckCode::Cp008 => "CP008",
            CheckCode::Cp009 => "CP009",
            CheckCode::Cp010 => "CP010",
            CheckCode::Cp011 => "CP011",
            CheckCode::Cp012 => "CP012",
            CheckCode::Cp013 => "CP013",
            CheckCode::Cp014 => "CP014",
            CheckCode::Cp101 => "CP101",
            CheckCode::Cp201 => "CP201",
            CheckCode::Cp202 => "CP202",
            CheckCode::Cp203 => "CP203",
            CheckCode::Cp204 => "CP204",
        }
    }

    /// One-line rule summary (the SARIF `shortDescription` text).
    pub fn summary(&self) -> &'static str {
        match self {
            CheckCode::Cp001 => "channel has no writer endpoint",
            CheckCode::Cp002 => "channel has no reader endpoint",
            CheckCode::Cp003 => "bundle member contradicts the collective direction",
            CheckCode::Cp004 => "process placed on a nonexistent rank",
            CheckCode::Cp005 => "SPE process placed on a non-Cell node",
            CheckCode::Cp006 => "SPE slots oversubscribed",
            CheckCode::Cp007 => "SPE channel routed through a node with no Co-Pilot",
            CheckCode::Cp008 => "bundle mixes incompatible rendezvous classes",
            CheckCode::Cp009 => "channel connects a process to itself",
            CheckCode::Cp010 => "two SPE processes bound to the same slot",
            CheckCode::Cp011 => "overlapping or duplicate one-sided window registration",
            CheckCode::Cp012 => "one-sided traffic without a usable window",
            CheckCode::Cp013 => "inert or inconsistent flow-control declaration",
            CheckCode::Cp014 => "coalescing declaration can never take effect",
            CheckCode::Cp101 => "unordered overlapping local-store DMA accesses",
            CheckCode::Cp201 => "credit-deadlock cycle of Block-bounded channels",
            CheckCode::Cp202 => "Co-Pilot relay saturated by static channel fan-in",
            CheckCode::Cp203 => "always-small channel left non-eager",
            CheckCode::Cp204 => "one-sided window fence placement unsatisfiable",
        }
    }
}

impl fmt::Display for CheckCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A missed optimization, not a defect: the wiring works, a cheaper
    /// configuration exists. Never aborts a run.
    Advice,
    /// Suspicious but possibly intentional; never aborts a run.
    Warning,
    /// Ill-formed; strict mode turns any error into a pre-run abort.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Advice => "advice",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding from the wiring verifier or the race detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code.
    pub code: CheckCode,
    /// Severity (strict mode aborts on any [`Severity::Error`]).
    pub severity: Severity,
    /// Human-readable description of the defect.
    pub message: String,
    /// Offending endpoints, rendered in the deadlock detector's notation
    /// (`rank N`, `spe(node,slot)`).
    pub endpoints: Vec<String>,
}

impl Diagnostic {
    pub(crate) fn new(
        code: CheckCode,
        severity: Severity,
        message: impl Into<String>,
        endpoints: Vec<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            endpoints,
        }
    }

    /// Whether strict mode must abort on this finding.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// The finding's identity for baselines and suppressions: the
    /// rendered form minus the severity prefix, so remapping a code's
    /// lint level never invalidates a committed baseline.
    pub fn fingerprint(&self) -> String {
        let mut s = format!("{} {}", self.code, self.message);
        if !self.endpoints.is_empty() {
            s.push_str(&format!(" ({})", self.endpoints.join(", ")));
        }
        s
    }
}

impl fmt::Display for Diagnostic {
    /// `error[CP006] message (endpoint, endpoint)` — pinned by the golden
    /// diagnostics file; change it only with a bless.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.message)?;
        if !self.endpoints.is_empty() {
            write!(f, " ({})", self.endpoints.join(", "))?;
        }
        Ok(())
    }
}

/// Render a batch of diagnostics, one per line (the strict-mode abort
/// message and the `repro_check` report body). The lines are sorted by
/// (code, endpoints, message) and deduplicated, so a report assembled
/// from several passes is deterministic regardless of pass order and
/// never repeats a finding two passes both draw.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by(|a, b| {
        (a.code, &a.endpoints, &a.message).cmp(&(b.code, &b.endpoints, &b.message))
    });
    let mut lines: Vec<String> = sorted.iter().map(|d| d.to_string()).collect();
    lines.dedup();
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let d = Diagnostic::new(
            CheckCode::Cp009,
            Severity::Error,
            "channel 3 connects process 'a' to itself",
            vec!["rank 1".into()],
        );
        assert_eq!(
            d.to_string(),
            "error[CP009] channel 3 connects process 'a' to itself (rank 1)"
        );
        let w = Diagnostic::new(CheckCode::Cp008, Severity::Warning, "m", vec![]);
        assert_eq!(w.to_string(), "warning[CP008] m");
        assert!(!w.is_error());
        let a = Diagnostic::new(CheckCode::Cp203, Severity::Advice, "m", vec![]);
        assert_eq!(a.to_string(), "advice[CP203] m");
        assert!(!a.is_error());
    }

    #[test]
    fn render_sorts_by_code_endpoints_message_and_dedups() {
        let d = |code, msg: &str, eps: &[&str]| {
            Diagnostic::new(
                code,
                Severity::Warning,
                msg,
                eps.iter().map(|e| e.to_string()).collect(),
            )
        };
        let batch = vec![
            d(CheckCode::Cp014, "b", &["rank 1"]),
            d(CheckCode::Cp008, "z", &["rank 0"]),
            d(CheckCode::Cp014, "a", &["rank 1"]),
            d(CheckCode::Cp014, "b", &["rank 0"]),
            d(CheckCode::Cp008, "z", &["rank 0"]),
        ];
        assert_eq!(
            render(&batch),
            "warning[CP008] z (rank 0)\n\
             warning[CP014] b (rank 0)\n\
             warning[CP014] a (rank 1)\n\
             warning[CP014] b (rank 1)"
        );
    }

    #[test]
    fn fingerprint_drops_the_severity() {
        let d = Diagnostic::new(
            CheckCode::Cp201,
            Severity::Warning,
            "cycle",
            vec!["rank 0".into(), "rank 1".into()],
        );
        assert_eq!(d.fingerprint(), "CP201 cycle (rank 0, rank 1)");
    }
}
