//! What every cell run returns, whichever workload it belongs to.
//!
//! A *cell* is one simulation: one channel path at one payload size, one
//! service route, or one offered rate. A workload is a fixed list of cells
//! with a fixed operation count each, so its virtual-time results are the
//! same on every machine.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cp_des::{Incident, IncidentCategory, SimError, SimReport};
use cp_trace::Recorder;

use crate::spans::SpanSink;

/// What a run records besides its latencies. Both are off by default, and
/// for every end-to-end number.
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// `cp_trace` recorder handed to `CellPilotOpts::with_tracing`.
    pub recorder: Recorder,
    /// The benchmark's own span buffer.
    pub spans: Option<SpanSink>,
}

/// Filled by the benchmark's closures while the simulation runs.
#[derive(Debug, Default)]
pub struct Probe {
    /// Virtual latency of each timed operation, in completion order.
    pub lat_ns: Vec<u64>,
    /// Replies that did not carry the expected payload.
    pub wrong: u64,
    /// Host instants of the first timed operation's start and the last
    /// one's end: steady-state host time, without spawn and teardown.
    pub host_first: Option<Instant>,
    pub host_last: Option<Instant>,
    /// The same two instants on the virtual clock.
    pub sim_first_ns: u64,
    pub sim_last_ns: u64,
    /// Open loop: how late the generator sent, at worst.
    pub gen_late_max_ns: u64,
    /// Open loop: replies seen per worker, for the exactly-once check.
    pub per_worker: Vec<u64>,
}

pub type SharedProbe = Arc<Mutex<Probe>>;

pub fn shared_probe(ops: usize, workers: usize) -> SharedProbe {
    Arc::new(Mutex::new(Probe {
        lat_ns: Vec::with_capacity(ops),
        per_worker: vec![0; workers],
        ..Probe::default()
    }))
}

/// Lock a probe. The DES runs one process at a time, so the lock is never
/// contended; it only satisfies `Send + Sync`.
pub fn lock(p: &SharedProbe) -> std::sync::MutexGuard<'_, Probe> {
    p.lock()
        .expect("a benchmark closure panicked holding the probe")
}

/// Result of one cell.
#[derive(Debug, Clone, Default)]
pub struct CellRun {
    /// Timed operations attempted (warm-up rounds excluded).
    pub ops: u64,
    /// Operations that failed, were refused, shed, timed out or answered
    /// wrongly. A simulation that sinks fails all of its operations.
    pub failed: u64,
    pub lat_ns: Vec<u64>,
    pub end_ns: u64,
    pub dispatches: u64,
    pub processes: usize,
    pub incidents: Vec<Incident>,
    /// Host time of configure + run + teardown.
    pub host_ns: u64,
    /// Host time of configure + `check()` alone.
    pub configure_host_ns: u64,
    /// Host and virtual time between the first timed operation's start and
    /// the last one's end.
    pub steady_host_ns: u64,
    pub steady_sim_ns: u64,
    pub gen_late_max_ns: u64,
    /// Why the cell counts as failed, when it does.
    pub error: Option<String>,
}

impl CellRun {
    /// Assemble the result of a simulation that ran `ops` timed operations.
    pub fn finish(
        ops: usize,
        probe: &SharedProbe,
        outcome: Result<SimReport, SimError>,
        started: Instant,
        configure_host_ns: u64,
    ) -> CellRun {
        let host_ns = started.elapsed().as_nanos() as u64;
        let mut p = lock(probe);
        let mut run = CellRun {
            ops: ops as u64,
            lat_ns: std::mem::take(&mut p.lat_ns),
            host_ns,
            configure_host_ns,
            gen_late_max_ns: p.gen_late_max_ns,
            steady_sim_ns: p.sim_last_ns.saturating_sub(p.sim_first_ns),
            steady_host_ns: match (p.host_first, p.host_last) {
                (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                _ => 0,
            },
            ..CellRun::default()
        };
        match outcome {
            Ok(report) => {
                run.end_ns = report.end_time.as_nanos();
                run.dispatches = report.dispatches;
                run.processes = report.processes;
                run.incidents = report.incidents;
                let missing = (ops as u64).saturating_sub(run.lat_ns.len() as u64);
                run.failed = (p.wrong + missing).min(ops as u64);
                if run.failed > 0 {
                    run.error = Some(format!(
                        "{} wrong replies, {missing} of {ops} operations never completed",
                        p.wrong
                    ));
                }
            }
            Err(e) => {
                run.failed = ops as u64;
                run.error = Some(format!("simulation sank: {e}"));
            }
        }
        run
    }

    /// Fail the cell unless its incident log is exactly `allowed` (by
    /// category, each at least once, nothing else).
    pub fn require_incidents(&mut self, allowed: &[IncidentCategory]) {
        if self.error.is_some() {
            return;
        }
        let stray = self
            .incidents
            .iter()
            .find(|i| !allowed.contains(&i.category));
        let absent = allowed
            .iter()
            .find(|c| !self.incidents.iter().any(|i| i.category == **c));
        let problem = match (stray, absent) {
            (Some(i), _) => Some(format!("unplanned incident {:?}: {}", i.category, i.detail)),
            (None, Some(c)) => Some(format!("expected a {c:?} incident, saw none")),
            (None, None) => None,
        };
        if let Some(problem) = problem {
            self.failed = self.ops;
            self.error = Some(problem);
        }
    }

    /// Fold another simulation of the same cell into this one (a cell may
    /// split its operations over several independent simulations).
    pub fn absorb(&mut self, other: CellRun) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.lat_ns.extend(other.lat_ns);
        self.end_ns += other.end_ns;
        self.dispatches += other.dispatches;
        self.processes = self.processes.max(other.processes);
        self.incidents.extend(other.incidents);
        self.host_ns += other.host_ns;
        self.configure_host_ns += other.configure_host_ns;
        self.steady_host_ns += other.steady_host_ns;
        self.steady_sim_ns += other.steady_sim_ns;
        self.gen_late_max_ns = self.gen_late_max_ns.max(other.gen_late_max_ns);
        self.error = self.error.take().or(other.error);
    }

    #[cfg(test)]
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.error.is_none()
    }

    /// The cell's latency samples in ascending order.
    pub fn sorted_lat_ns(&self) -> Vec<u64> {
        let mut v = self.lat_ns.clone();
        v.sort_unstable();
        v
    }
}
