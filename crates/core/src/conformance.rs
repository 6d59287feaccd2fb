//! The observation record and the checks every seeded campaign shares,
//! plus the cross-backend conformance harness built from them.
//!
//! A workload run collapses into a [`Run`]: the backend-independent
//! [`Observed`] record — per-channel payload FIFOs logged at the readers
//! ([`PayloadLog`]), the incident multiset, the outcome class and the
//! process census — next to the kernel's own [`SimReport`]. Each guarantee
//! is one small check over those: the run completed ([`Run::completed`]),
//! payloads equal an oracle's ([`same_payloads`]), incidents fall within an
//! allowed set ([`incidents_within`]), an incident count is exact
//! ([`incident_count`]), every queue stayed within its capacity
//! ([`watermarks_within`]). The chaos, overload and explore campaigns in
//! `cp-bench` check their runs with them; [`diff`] is the same checks
//! applied between two backends.
//!
//! For conformance the simulator is the oracle — it is deterministic, its
//! golden traces are pinned, and its semantics define the library. The
//! native backend ([`Backend::Native`]) must *agree on every observable*.
//! What it legitimately differs on — wall-clock timestamps, dispatch
//! counts, thread interleavings between independent channels — is exactly
//! what [`Observed`] does not record.
//!
//! Used by `tests/conformance.rs` (proptest over seeds) and the
//! `repro_conformance` bench binary (fixed seed sweep for CI, with
//! divergence artifacts). Both share [`WiringPlan::from_seed`] so a failing
//! seed reported by either is replayable in the other.

use crate::config::{CellPilotConfig, CellPilotOpts};
use crate::error::ErrorKind;
use crate::flow::OverloadPolicy;
use crate::location::{CpChannel, CpProcess, CP_MAIN};
use crate::program::SpeProgram;
use cp_des::rng::SplitMix64;
use cp_des::{Backend, IncidentCategory, SimError, SimReport};
use cp_simnet::ClusterSpec;
use cp_trace::{FlowMetrics, Recorder};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::error::Error as _;
use std::fmt;
use std::sync::Arc;

/// What one conformance target does with the payloads main sends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// A rank process that echoes each payload back (ping-pong: two
    /// channels, strict alternation).
    RankEcho,
    /// A rank process that only consumes (burst: messages queue in its
    /// mailbox, FIFO order is the observable).
    RankSink,
    /// An SPE process that echoes each payload back through its Co-Pilot.
    SpeEcho,
    /// An SPE process that only consumes.
    SpeSink,
}

/// One spoke of the star: a peer process, its channel(s) from/to main, and
/// the payload schedule.
#[derive(Debug, Clone)]
pub struct TargetPlan {
    /// What the peer does.
    pub kind: TargetKind,
    /// Carry the inbound channel over the one-sided window fabric instead
    /// of the Co-Pilot relay (SPE targets only — one-sided readers must be
    /// SPE-resident).
    pub one_sided: bool,
    /// The payloads main writes, in order.
    pub msgs: Vec<Vec<i32>>,
}

/// A seeded random wiring graph: main plus 1–4 peers, mixed rank/SPE
/// endpoints, mixed rendezvous/one-sided transports, seeded payloads.
#[derive(Debug, Clone)]
pub struct WiringPlan {
    /// The generating seed ([`WiringPlan::from_seed`]) — quote it to replay.
    pub seed: u64,
    /// The spokes, in channel-declaration order.
    pub targets: Vec<TargetPlan>,
}

impl WiringPlan {
    /// Derive a plan deterministically from `seed`. The same seed always
    /// yields the same plan, on any host — the replay contract divergence
    /// reports depend on.
    pub fn from_seed(seed: u64) -> WiringPlan {
        let mut rng = SplitMix64(seed ^ 0xc0ff_ee11_d00d_f00d);
        let n_targets = 1 + rng.below(4) as usize;
        let mut rank_left = 2; // app ranks 1 and 2 on two_cells_one_xeon
        let mut targets = Vec::with_capacity(n_targets);
        for _ in 0..n_targets {
            let roll = rng.below(4);
            let kind = match roll {
                0 if rank_left > 0 => TargetKind::RankEcho,
                1 if rank_left > 0 => TargetKind::RankSink,
                2 => TargetKind::SpeEcho,
                _ => TargetKind::SpeSink,
            };
            if matches!(kind, TargetKind::RankEcho | TargetKind::RankSink) {
                rank_left -= 1;
            }
            let one_sided = matches!(kind, TargetKind::SpeEcho | TargetKind::SpeSink)
                && rng.next_u64().is_multiple_of(2);
            let n_msgs = 1 + rng.below(3) as usize;
            let msgs = (0..n_msgs)
                .map(|_| {
                    let len = 1 + rng.below(6) as usize;
                    (0..len).map(|_| rng.next_u64() as i32).collect()
                })
                .collect();
            targets.push(TargetPlan {
                kind,
                one_sided,
                msgs,
            });
        }
        WiringPlan { seed, targets }
    }
}

/// Per-channel payload FIFOs: channel id → the payloads its reader took,
/// in order.
pub type Payloads = BTreeMap<usize, Vec<Vec<i32>>>;

/// The backend-independent observables of one workload execution.
///
/// Everything here must match between backends; anything timing-dependent
/// (virtual vs wall timestamps, dispatch counts, cross-channel
/// interleaving) is deliberately absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Per-channel payload sequences in completion order, recorded at each
    /// reader.
    pub payloads: Payloads,
    /// Sorted multiset of incident category strings from the report.
    pub incidents: Vec<String>,
    /// `Ok(())` or the coarse error class (`"deadlock"`, `"panicked"`,
    /// `"aborted"`, `"time-limit"`) — error *messages* embed timestamps.
    pub outcome: Result<(), String>,
    /// Total process census from the report (0 when the run failed).
    pub processes: usize,
}

impl fmt::Display for Observed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            Ok(()) => writeln!(f, "outcome: ok ({} processes)", self.processes)?,
            Err(class) => writeln!(f, "outcome: error ({class})")?,
        }
        for (ch, fifo) in &self.payloads {
            writeln!(f, "channel {ch}: {} messages", fifo.len())?;
            for (i, p) in fifo.iter().enumerate() {
                writeln!(f, "  [{i}] {p:?}")?;
            }
        }
        for inc in &self.incidents {
            writeln!(f, "incident: {inc}")?;
        }
        Ok(())
    }
}

/// Where a workload's readers log what they read: clone it into every
/// reading process, then collapse it with [`PayloadLog::into_run`] once the
/// run returns. Logging is host-side bookkeeping and costs no virtual time.
#[derive(Debug, Clone, Default)]
pub struct PayloadLog(Arc<Mutex<Payloads>>);

impl PayloadLog {
    /// Log `payload` as the next message read on `chan`.
    pub fn record(&self, chan: CpChannel, payload: Vec<i32>) {
        self.0.lock().entry(chan.0).or_default().push(payload);
    }

    /// Collapse the log and the run's result into a [`Run`].
    pub fn into_run(self, result: Result<SimReport, SimError>) -> Run {
        let payloads = std::mem::take(&mut *self.0.lock());
        let observed = match &result {
            Ok(report) => {
                let mut incidents: Vec<String> = report
                    .incidents
                    .iter()
                    .map(|i| i.category.as_str().to_string())
                    .collect();
                incidents.sort();
                Observed {
                    payloads,
                    incidents,
                    outcome: Ok(()),
                    processes: report.processes,
                }
            }
            Err(e) => Observed {
                payloads,
                incidents: Vec::new(),
                outcome: Err(match e {
                    SimError::Deadlock { .. } => "deadlock".into(),
                    SimError::ProcessPanicked { .. } => "panicked".into(),
                    SimError::Aborted { .. } => "aborted".into(),
                    SimError::TimeLimitExceeded { .. } => "time-limit".into(),
                }),
                processes: 0,
            },
        };
        Run { observed, result }
    }
}

/// One workload execution: its [`Observed`] record, and the kernel's own
/// result for the checks that need typed incidents, timestamps or the full
/// error text.
#[derive(Debug, Clone)]
pub struct Run {
    /// The backend-independent observables.
    pub observed: Observed,
    /// The report, or the error the run ended with.
    pub result: Result<SimReport, SimError>,
}

impl Run {
    /// Check: the run completed — no deadlock, panic, abort or time limit.
    pub fn completed(&self) -> Result<&SimReport, String> {
        self.result.as_ref().map_err(|e| format!("run sank: {e}"))
    }
}

/// Check: every channel's payload FIFO in `candidate` equals `oracle`'s.
pub fn same_payloads(oracle: &Payloads, candidate: &Payloads) -> Result<(), String> {
    for ch in oracle.keys().chain(candidate.keys()) {
        let (a, b) = (oracle.get(ch), candidate.get(ch));
        if a != b {
            return Err(format!(
                "channel {ch} FIFO diverged:\n  oracle:    {a:?}\n  candidate: {b:?}"
            ));
        }
    }
    Ok(())
}

/// Check: every incident's category is in `allowed`.
pub fn incidents_within(report: &SimReport, allowed: &[IncidentCategory]) -> Result<(), String> {
    match report
        .incidents
        .iter()
        .find(|i| !allowed.contains(&i.category))
    {
        Some(inc) => Err(format!(
            "unplanned '{}' incident: {}",
            inc.category, inc.detail
        )),
        None => Ok(()),
    }
}

/// Check: the run reported exactly `expected` incidents of `category`.
pub fn incident_count(
    report: &SimReport,
    category: IncidentCategory,
    expected: usize,
) -> Result<(), String> {
    let got = report
        .incidents
        .iter()
        .filter(|i| i.category == category)
        .count();
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "expected {expected} '{category}' incidents, got {got}"
        ))
    }
}

/// Check: every bounded channel's queue-depth high watermark stayed at or
/// below `capacity`.
pub fn watermarks_within(flow: &FlowMetrics, capacity: usize) -> Result<(), String> {
    match flow
        .queue_high_watermark
        .iter()
        .find(|(_, &hwm)| hwm > capacity as u64)
    {
        Some((chan, hwm)) => Err(format!(
            "channel {chan} queue grew to {hwm}, capacity {capacity}: \
             flow control failed to bound it"
        )),
        None => Ok(()),
    }
}

/// The report's incidents counted per category, in order of first
/// appearance (the report is sorted by time, so that is the order they
/// began).
pub fn tally(report: &SimReport) -> Vec<(IncidentCategory, usize)> {
    let mut tally: Vec<(IncidentCategory, usize)> = Vec::new();
    for inc in &report.incidents {
        match tally.iter_mut().find(|(c, _)| *c == inc.category) {
            Some((_, n)) => *n += 1,
            None => tally.push((inc.category, 1)),
        }
    }
    tally
}

/// Compare two executions of the same workload: the same outcome class,
/// process census and incident multiset, and the same payload FIFOs.
pub fn diff(oracle: &Observed, candidate: &Observed) -> Result<(), String> {
    if oracle.outcome != candidate.outcome {
        return Err(format!(
            "outcome diverged: oracle {:?}, candidate {:?}",
            oracle.outcome, candidate.outcome
        ));
    }
    if oracle.processes != candidate.processes {
        return Err(format!(
            "process census diverged: oracle {}, candidate {}",
            oracle.processes, candidate.processes
        ));
    }
    if oracle.incidents != candidate.incidents {
        return Err(format!(
            "incident categories diverged: oracle {:?}, candidate {:?}",
            oracle.incidents, candidate.incidents
        ));
    }
    same_payloads(&oracle.payloads, &candidate.payloads)
}

/// Execute `plan` on `backend` and collect its observables. An enabled
/// `recorder` keeps the run's metrics — `repro_conformance` reads the
/// native backend's wall-clock event and message rates from it.
pub fn run_plan(plan: &WiringPlan, backend: Backend, recorder: Recorder) -> Observed {
    let log = PayloadLog::default();
    let mut cfg = CellPilotConfig::one_rank_per_node(
        ClusterSpec::two_cells_one_xeon(),
        CellPilotOpts::new()
            .with_backend(backend)
            .with_tracing(recorder),
    );

    // main's execution script: per target, the channel ids to drive and
    // whether to ping-pong or burst; SPE targets carry the process to start.
    struct MainStep {
        inbound: CpChannel,
        outbound: Option<CpChannel>,
        spe: Option<CpProcess>,
        msgs: Vec<Vec<i32>>,
    }
    let mut script = Vec::new();
    let mut next_chan = 0usize;

    for (t_idx, t) in plan.targets.iter().enumerate() {
        let inbound = CpChannel(next_chan);
        let echo = matches!(t.kind, TargetKind::RankEcho | TargetKind::SpeEcho);
        let outbound = echo.then_some(CpChannel(next_chan + 1));
        next_chan += 1 + usize::from(echo);
        let n_msgs = t.msgs.len();

        let peer = match t.kind {
            TargetKind::RankEcho | TargetKind::RankSink => {
                let log = log.clone();
                cfg.create_process(&format!("peer{t_idx}"), t_idx as i32, move |cp, _| {
                    for _ in 0..n_msgs {
                        let v = cp.read_vec::<i32>(inbound).unwrap();
                        log.record(inbound, v.clone());
                        if let Some(out) = outbound {
                            cp.write_slice(out, &v).unwrap();
                        }
                    }
                })
                .expect("rank budget respected by the generator")
            }
            TargetKind::SpeEcho | TargetKind::SpeSink => {
                let log = log.clone();
                let prog = SpeProgram::new(&format!("spe{t_idx}"), 2048, move |spe, _, _| {
                    for _ in 0..n_msgs {
                        let v = spe.read_vec::<i32>(inbound).unwrap();
                        log.record(inbound, v.clone());
                        if let Some(out) = outbound {
                            spe.write_slice(out, &v).unwrap();
                        }
                    }
                });
                cfg.create_spe_process(&prog, CP_MAIN, t_idx as i32)
                    .expect("SPE slots plentiful on two_cells_one_xeon")
            }
        };

        let built_in = {
            let b = cfg.channel(CP_MAIN, peer);
            if t.one_sided {
                b.one_sided().build()
            } else {
                b.build()
            }
        }
        .expect("generator emits only well-formed channels");
        assert_eq!(
            built_in, inbound,
            "channel ids must follow declaration order"
        );
        if let Some(out) = outbound {
            let built_out = cfg.channel(peer, CP_MAIN).build().unwrap();
            assert_eq!(built_out, out);
        }

        script.push(MainStep {
            inbound,
            outbound,
            spe: matches!(t.kind, TargetKind::SpeEcho | TargetKind::SpeSink).then_some(peer),
            msgs: t.msgs.clone(),
        });
    }

    let main_log = log.clone();
    let result = cfg.run(move |cp| {
        let mut tasks = Vec::new();
        for step in &script {
            if let Some(spe) = step.spe {
                tasks.push(cp.run_spe(spe, 0, 0).unwrap());
            }
        }
        for step in &script {
            for msg in &step.msgs {
                cp.write_slice(step.inbound, msg).unwrap();
                if let Some(out) = step.outbound {
                    // Ping-pong: the echo must round-trip before the next
                    // write, or rendezvous legs would cross-block.
                    let back = cp.read_vec::<i32>(out).unwrap();
                    main_log.record(out, back);
                }
            }
        }
        for t in tasks {
            cp.wait_spe(t);
        }
    });
    log.into_run(result).observed
}

/// The overload workload: on the two-Cells-one-Xeon cluster, main bursts
/// `burst` writes into [`OverloadPlan::DATA`] (bounded at `capacity`, under
/// `policy`) towards a rank reader, then saturates a second bounded channel
/// that a Co-Pilot relays to an SPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPlan {
    /// Capacity of both bounded channels.
    pub capacity: usize,
    /// Write attempts main makes on the data channel.
    pub burst: usize,
    /// The data channel's overload policy.
    pub policy: OverloadPolicy,
}

impl OverloadPlan {
    /// The bounded data channel, main → the `xeon` rank.
    pub const DATA: CpChannel = CpChannel(0);
    /// How many data writes main got accepted, sent after the burst.
    pub const COUNT: CpChannel = CpChannel(1);
    /// The SPE leg's inbound channel, bounded at `capacity` under `Block`.
    pub const SPE_IN: CpChannel = CpChannel(2);
    /// The SPE leg's reply: the sum of everything it drained.
    pub const SPE_OUT: CpChannel = CpChannel(3);

    /// Messages the SPE leg pushes through its bounded channel.
    fn spe_burst(&self) -> usize {
        self.capacity * 2 + 1
    }

    /// Writes the policy must shed. Under `Block` the reader drains during
    /// the burst and nothing sheds; under the shedding policies it is
    /// parked behind [`OverloadPlan::COUNT`], so everything past the first
    /// `capacity` writes sheds, whatever the backend's timing.
    pub fn sheds(&self) -> usize {
        match self.policy {
            OverloadPolicy::Block => 0,
            OverloadPolicy::Shed | OverloadPolicy::DeadlineDrop(_) => self.burst - self.capacity,
        }
    }

    /// The payload FIFOs a correct run logs: every accepted data write in
    /// order, the accepted count, every SPE-leg message and its sum.
    pub fn expected_payloads(&self) -> Payloads {
        let accepted = (self.burst - self.sheds()) as i32;
        let n = self.spe_burst() as i32;
        Payloads::from([
            (
                Self::DATA.0,
                (0..accepted).map(|i| vec![i, i * 2]).collect(),
            ),
            (Self::COUNT.0, vec![vec![accepted]]),
            (Self::SPE_IN.0, (0..n).map(|i| vec![i, 1]).collect()),
            (Self::SPE_OUT.0, vec![vec![(0..n).sum::<i32>() + n]]),
        ])
    }
}

/// The saturated scenario [`check_saturated`] runs on both backends: a
/// `Shed` channel burst at three times its capacity.
const SATURATED: OverloadPlan = OverloadPlan {
    capacity: 3,
    burst: 9,
    policy: OverloadPolicy::Shed,
};

/// Execute the overload workload at `plan` on `backend`. Every shed write
/// must fail with [`ErrorKind::Backpressure`] carrying a `source()` chain,
/// or the writer panics. The flow-control watermarks land in `recorder`
/// when it is enabled.
pub fn run_overload(plan: OverloadPlan, backend: Backend, recorder: Recorder) -> Run {
    let OverloadPlan {
        capacity,
        burst,
        policy,
    } = plan;
    let log = PayloadLog::default();
    let mut cfg = CellPilotConfig::one_rank_per_node(
        ClusterSpec::two_cells_one_xeon(),
        CellPilotOpts::new()
            .with_backend(backend)
            .with_tracing(recorder),
    );

    let n_spe = plan.spe_burst() as i32;
    let spe_log = log.clone();
    let drain = SpeProgram::new("drain", 2048, move |spe, _, _| {
        let mut acc = 0i32;
        for _ in 0..n_spe {
            let v = spe.read_vec::<i32>(OverloadPlan::SPE_IN).unwrap();
            acc += v.iter().sum::<i32>();
            spe_log.record(OverloadPlan::SPE_IN, v);
        }
        spe.write_slice(OverloadPlan::SPE_OUT, &[acc]).unwrap();
    });

    // Under Block the reader drains the burst concurrently (the writer
    // stalls at capacity and resumes as credits return); under the
    // shedding policies it is gated behind the count message, so nothing
    // drains during the burst and the shed count is exact.
    let gated = policy != OverloadPolicy::Block;
    let reader_log = log.clone();
    let xeon = cfg
        .create_process("xeon", 0, move |cp, _| {
            let count = |cp: &crate::CellPilot| {
                let n = cp.read_vec::<i32>(OverloadPlan::COUNT).unwrap();
                reader_log.record(OverloadPlan::COUNT, n.clone());
                n[0] as usize
            };
            let expect = if gated { count(cp) } else { burst };
            for _ in 0..expect {
                let v = cp.read_vec::<i32>(OverloadPlan::DATA).unwrap();
                reader_log.record(OverloadPlan::DATA, v);
            }
            if !gated {
                assert_eq!(count(cp), expect, "writer and reader disagree");
            }
        })
        .expect("two_cells_one_xeon has an app rank free");
    let s0a = cfg.create_spe_process(&drain, CP_MAIN, 0).unwrap();

    let data = cfg
        .channel(CP_MAIN, xeon)
        .capacity(capacity)
        .overload_policy(policy)
        .build()
        .unwrap();
    let count = cfg.channel(CP_MAIN, xeon).build().unwrap();
    let spe_in = cfg
        .channel(CP_MAIN, s0a)
        .capacity(capacity)
        .build()
        .unwrap();
    let spe_out = cfg.channel(s0a, CP_MAIN).build().unwrap();
    assert_eq!(
        [data, count, spe_in, spe_out],
        [
            OverloadPlan::DATA,
            OverloadPlan::COUNT,
            OverloadPlan::SPE_IN,
            OverloadPlan::SPE_OUT
        ],
        "the readers name these channel ids"
    );

    let main_log = log.clone();
    let result = cfg.run(move |cp| {
        let _tasks = cp.run_my_spes();
        let mut accepted = 0i32;
        for i in 0..burst as i32 {
            match cp.write_slice(data, &[i, i * 2]) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    // Graceful degradation: a shed is an error the writer
                    // sees and can act on, not a lost run.
                    assert_eq!(e.kind(), ErrorKind::Backpressure, "shed kind: {e}");
                    assert!(e.source().is_some(), "Backpressure must carry its cause");
                }
            }
        }
        cp.write_slice(count, &[accepted]).unwrap();
        for i in 0..n_spe {
            cp.write_slice(spe_in, &[i, 1]).unwrap();
        }
        let v = cp.read_vec::<i32>(spe_out).unwrap();
        main_log.record(spe_out, v);
    });
    log.into_run(result)
}

/// Run `observe` on the sim backend (the oracle), then on the native one,
/// and [`diff`] them.
fn on_both_backends(
    observe: impl Fn(Backend) -> Observed,
) -> (Observed, Observed, Result<(), String>) {
    let oracle = observe(Backend::Sim);
    let candidate = observe(Backend::Native);
    let verdict = diff(&oracle, &candidate);
    (oracle, candidate, verdict)
}

/// Run `plan` on both backends and return both observations and the
/// verdict.
pub fn check_plan(plan: &WiringPlan) -> (Observed, Observed, Result<(), String>) {
    on_both_backends(|backend| run_plan(plan, backend, Recorder::disabled()))
}

/// Run the overload workload saturated under `Shed` (capacity 3, burst 9)
/// on both backends and return both observations and the verdict. The
/// reader is parked during the burst, so exactly `burst - capacity` writes shed *regardless of backend
/// timing* (a wall-clock reader that drained mid-burst would make native
/// shed counts nondeterministic), and both backends must agree on the
/// accepted-payload FIFOs and the `overload` / `message-shed` incidents.
pub fn check_saturated() -> (Observed, Observed, Result<(), String>) {
    on_both_backends(|backend| run_overload(SATURATED, backend, Recorder::disabled()).observed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = WiringPlan::from_seed(seed);
            let b = WiringPlan::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(!a.targets.is_empty() && a.targets.len() <= 4);
            let ranks = a
                .targets
                .iter()
                .filter(|t| matches!(t.kind, TargetKind::RankEcho | TargetKind::RankSink))
                .count();
            assert!(ranks <= 2, "seed {seed} overcommits app ranks");
        }
    }

    #[test]
    fn sim_run_is_reproducible() {
        let plan = WiringPlan::from_seed(7);
        let a = run_plan(&plan, Backend::Sim, Recorder::disabled());
        let b = run_plan(&plan, Backend::Sim, Recorder::disabled());
        assert_eq!(a, b, "the oracle must be deterministic");
        assert_eq!(a.outcome, Ok(()));
        assert!(!a.payloads.is_empty());
    }

    #[test]
    fn saturated_oracle_sheds_exactly_and_delivers_the_rest() {
        let obs = run_overload(SATURATED, Backend::Sim, Recorder::disabled()).observed;
        assert_eq!(obs.outcome, Ok(()));
        let fifo = &obs.payloads[&OverloadPlan::DATA.0];
        assert_eq!(
            fifo.len(),
            SATURATED.capacity,
            "with the reader parked, exactly `capacity` writes may land"
        );
        for (i, p) in fifo.iter().enumerate() {
            let i = i as i32;
            assert_eq!(p, &vec![i, i * 2], "accepted messages keep FIFO order");
        }
        assert_eq!(
            same_payloads(&SATURATED.expected_payloads(), &obs.payloads),
            Ok(())
        );
        let sheds = SATURATED.burst - SATURATED.capacity;
        let expect: Vec<String> = std::iter::repeat_n("message-shed", sheds)
            .chain(std::iter::repeat_n("overload", sheds))
            .map(str::to_string)
            .collect();
        assert_eq!(obs.incidents, expect, "each shed reports both categories");
    }

    #[test]
    fn backends_agree_on_a_mixed_plan() {
        // Seed 3 exercises both transports; any divergence fails loudly
        // with the full observation dump.
        let plan = WiringPlan::from_seed(3);
        let (oracle, candidate, verdict) = check_plan(&plan);
        if let Err(why) = verdict {
            panic!("seed 3 diverged: {why}\n--- sim ---\n{oracle}\n--- native ---\n{candidate}");
        }
    }
}
