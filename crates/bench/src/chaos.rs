//! Seeded chaos campaigns: reproducible randomized fault injection with
//! invariant checking.
//!
//! A campaign draws a [`FaultPlan`] from the workspace's seeded PRNG
//! ([`SplitMix64`], so a seed is a complete bug report) restricted to **recoverable** faults
//! — message drops within the sender's retry budget, link delays,
//! duplicate deliveries (absorbed by the exactly-once wire contract), SPE
//! crashes within the supervision budget, bounded Co-Pilot stalls, and at
//! most one Co-Pilot kill per node (covered by the standby failover) — and
//! runs a fixed workload exercising all five channel types of the paper's
//! Table I under it. Three invariants must hold for every seed:
//!
//! 1. **Completion** — the run finishes; no deadlock, no abort.
//! 2. **Byte-identity** — the application output (every rank-side read, in
//!    order) equals the fault-free golden run's, by the same payload check
//!    conformance applies between backends: recovery is seamless, the
//!    application cannot tell it happened.
//! 3. **Accounted incidents** — every incident category in the
//!    [`cp_des::SimReport`] traces back to a fault the plan scheduled;
//!    nothing degrades (no `PeerLost`, no abandonment) and nothing fires
//!    that was not injected.
//!
//! The checks are the shared ones from [`cellpilot::conformance`]; the
//! `repro_chaos` binary sweeps seeds through [`crate::campaign`], and
//! [`chaos`] runs one.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cellpilot::conformance::{incidents_within, same_payloads, tally, PayloadLog, Payloads, Run};
use cellpilot::{
    CellPilotConfig, CellPilotOpts, ChannelKind, CpChannel, SpeProgram, SupervisionPolicy, CP_MAIN,
};
use cp_des::rng::SplitMix64;
use cp_des::{IncidentCategory, SimDuration, SimTime};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use cp_trace::Recorder;

use crate::campaign::{render_tally, Violation};

/// Per-SPE-process crash budget a campaign may spend — the supervision
/// policy grants one more restart than this, so a chaos run can never
/// exhaust it into abandonment.
const CRASH_BUDGET: u32 = 2;

/// Maximum messages a generated drop fault may eat on one ordered link,
/// kept below the retry budget so every payload still gets through.
const DROP_BUDGET: u32 = 2;

/// What one passing chaos run did, for campaign logs.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The generating seed.
    pub seed: u64,
    /// Faults the plan scheduled: `(drops, delays, duplicates, spe
    /// crashes, copilot stalls, copilot kills)`.
    pub planned: (u32, u32, u32, u32, u32, u32),
    /// Incidents the run reported (category, count), in order of first
    /// appearance.
    pub incidents: Vec<(IncidentCategory, usize)>,
    /// Virtual completion time (the golden run took
    /// [`golden_end_time`]).
    pub end_time: SimTime,
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (drops, delays, dups, crashes, stalls, kills) = self.planned;
        write!(
            f,
            "  seed {:>3}: planned [drop {drops}, delay {delays}, dup {dups}, \
             crash {crashes}, stall {stalls}, kill {kills}] incidents [{}] end {}",
            self.seed,
            render_tally(&self.incidents),
            self.end_time
        )
    }
}

/// The fixed chaos workload: three nodes (two Cells, one Xeon), three
/// ranks, three SPE processes, and one channel of every Table-I type
/// carrying three messages each. Data flows
/// `xeon → s1a → s0b → s0a → main` with `main → s0a` and `main → xeon`
/// feeding the ends, so every payload crosses several channel types before
/// it is collected. The application output is every rank-side read: the
/// payloads `xeon` and `main` collect, logged per channel.
fn run_workload(opts: CellPilotOpts) -> Run {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let log = PayloadLog::default();

    let s0a_prog = SpeProgram::new("s0a", 2048, |spe, _, _| {
        for _ in 0..3 {
            let a = spe.read_vec::<i32>(CpChannel(1)).unwrap();
            let b = spe.read_vec::<i32>(CpChannel(4)).unwrap();
            let mut reply = a;
            reply.extend(b);
            spe.write_slice(CpChannel(2), &reply).unwrap();
        }
    });
    let s0b_prog = SpeProgram::new("s0b", 2048, |spe, _, _| {
        for r in 0..3i32 {
            let v = spe.read_vec::<i32>(CpChannel(5)).unwrap();
            let sum: i32 = v.iter().sum();
            spe.write_slice(CpChannel(4), &[sum, r]).unwrap();
        }
    });
    let s1a_prog = SpeProgram::new("s1a", 2048, |spe, _, _| {
        for r in 0..3i32 {
            let v = spe.read_vec::<i32>(CpChannel(3)).unwrap();
            spe.write_slice(CpChannel(5), &[v[0] + v[1], r]).unwrap();
        }
    });

    let xeon_log = log.clone();
    let ppe1 = cfg
        .create_process("ppe1", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let xeon = cfg
        .create_process("xeon", 0, move |cp, _| {
            for _ in 0..3 {
                let v = cp.read_vec::<i32>(CpChannel(0)).unwrap();
                xeon_log.record(CpChannel(0), v);
            }
            for i in 0..3i32 {
                cp.write_slice(CpChannel(3), &[i * 3, 1000 + i]).unwrap();
            }
        })
        .unwrap();
    let s0a = cfg.create_spe_process(&s0a_prog, CP_MAIN, 0).unwrap();
    let s0b = cfg.create_spe_process(&s0b_prog, CP_MAIN, 1).unwrap();
    let s1a = cfg.create_spe_process(&s1a_prog, ppe1, 0).unwrap();
    assert_eq!(
        (s0a.0, s0b.0, s1a.0),
        (3, 4, 5),
        "chaos plans target these process ids"
    );

    let t1 = cfg.channel(CP_MAIN, xeon).build().unwrap();
    let t2 = cfg.channel(CP_MAIN, s0a).build().unwrap();
    let t2b = cfg.channel(s0a, CP_MAIN).build().unwrap();
    let t3 = cfg.channel(xeon, s1a).build().unwrap();
    let t4 = cfg.channel(s0b, s0a).build().unwrap();
    let t5 = cfg.channel(s1a, s0b).build().unwrap();
    for (c, kind) in [
        (t1, ChannelKind::Type1),
        (t2, ChannelKind::Type2),
        (t2b, ChannelKind::Type2),
        (t3, ChannelKind::Type3),
        (t4, ChannelKind::Type4),
        (t5, ChannelKind::Type5),
    ] {
        assert_eq!(cfg.channel_kind(c), Some(kind), "workload covers Table I");
    }

    let main_log = log.clone();
    let result = cfg.run(move |cp| {
        let _tasks = cp.run_my_spes();
        for i in 0..3i32 {
            cp.write_slice(t1, &[i * 7, i]).unwrap();
            cp.write_slice(t2, &[i, i + 10]).unwrap();
        }
        for _ in 0..3 {
            let v = cp.read_vec::<i32>(t2b).unwrap();
            main_log.record(t2b, v);
        }
    });
    log.into_run(result)
}

/// The golden (fault-free) output and end time, computed once per process;
/// every chaos run is compared against it.
fn golden() -> &'static (Payloads, SimTime) {
    static GOLDEN: OnceLock<(Payloads, SimTime)> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let run = run_workload(base_opts());
        let report = run.completed().expect("the fault-free workload completes");
        assert!(
            report.incidents.is_empty(),
            "golden run must be incident-free: {:?}",
            report.incidents
        );
        let end = report.end_time;
        (run.observed.payloads, end)
    })
}

/// Virtual end time of the fault-free workload — the horizon chaos fault
/// times are drawn from.
pub fn golden_end_time() -> SimTime {
    golden().1
}

fn base_opts() -> CellPilotOpts {
    CellPilotOpts::new().with_supervision(SupervisionPolicy {
        max_restarts: CRASH_BUDGET + 1,
        restart_delay: SimDuration::from_micros(50),
    })
}

/// Draw a recoverable-only [`FaultPlan`] for `seed` with roughly
/// `intensity` fault entries, bounded so every fault is one the runtime is
/// expected to absorb. Returns the plan and the per-kind counts
/// `(drops, delays, duplicates, crashes, stalls, kills)`.
pub fn chaos_plan(seed: u64, intensity: u32) -> (FaultPlan, (u32, u32, u32, u32, u32, u32)) {
    let mut rng = SplitMix64(seed ^ 0x00C4_A05C_4A05_u64);
    let horizon = golden_end_time().as_nanos().max(1);
    let nodes = [NodeId(0), NodeId(1), NodeId(2)];
    let spe_procs = [3usize, 4, 5];
    let cell_nodes = [NodeId(0), NodeId(1)];

    let mut plan = FaultPlan::new();
    let mut counts = (0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
    // Budgets that keep every draw recoverable.
    let mut dropped_pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut crashes_per_proc = [0u32; 6];
    let mut stalled: Vec<NodeId> = Vec::new();
    let mut killed: Vec<NodeId> = Vec::new();

    for _ in 0..intensity {
        let at = SimTime(rng.below(horizon));
        let until = SimTime(at.as_nanos().saturating_add(rng.below(horizon)).max(1));
        match rng.below(6) {
            // Drop: at most one drop window per ordered link, eating fewer
            // messages than the sender retries.
            0 => {
                let from = nodes[rng.below(3) as usize];
                let to = nodes[rng.below(3) as usize];
                if from != to && !dropped_pairs.contains(&(from, to)) {
                    dropped_pairs.push((from, to));
                    let n = 1 + rng.below(u64::from(DROP_BUDGET)) as u32;
                    plan = plan.drop_link(from, to, at, until, n);
                    counts.0 += 1;
                }
            }
            // Delay: pure latency, always recoverable. Open-ended window:
            // a delay that switches off mid-stream would let a later
            // message overtake a delayed earlier one on the same link,
            // violating the non-overtaking order MPI guarantees (and the
            // channel abstraction relies on). With no trailing edge every
            // subsequent message is delayed at least as much, so per-link
            // FIFO order is preserved.
            1 => {
                let from = nodes[rng.below(3) as usize];
                let to = nodes[rng.below(3) as usize];
                if from != to {
                    let extra = SimDuration::from_micros(10 + rng.below(490));
                    plan = plan.delay_link(from, to, at, SimTime(u64::MAX), extra);
                    counts.1 += 1;
                }
            }
            // Duplicate: absorbed by the wire-level dedup.
            2 => {
                let from = nodes[rng.below(3) as usize];
                let to = nodes[rng.below(3) as usize];
                if from != to {
                    let n = 1 + rng.below(3) as u32;
                    plan = plan.duplicate_link(from, to, at, until, n);
                    counts.2 += 1;
                }
            }
            // SPE crash: within the supervision budget.
            3 => {
                let p = spe_procs[rng.below(3) as usize];
                if crashes_per_proc[p] < CRASH_BUDGET {
                    crashes_per_proc[p] += 1;
                    plan = plan.crash_spe(p, at);
                    counts.3 += 1;
                }
            }
            // Co-Pilot stall: one bounded freeze per Cell node.
            4 => {
                let node = cell_nodes[rng.below(2) as usize];
                if !stalled.contains(&node) {
                    stalled.push(node);
                    let d = SimDuration::from_micros(50 + rng.below(450));
                    plan = plan.stall_copilot(node, at, d);
                    counts.4 += 1;
                }
            }
            // Co-Pilot kill: one per Cell node; the runtime provisions a
            // standby whenever the plan schedules one.
            _ => {
                let node = cell_nodes[rng.below(2) as usize];
                if !killed.contains(&node) {
                    killed.push(node);
                    plan = plan.kill_copilot(node, at);
                    counts.5 += 1;
                }
            }
        }
    }
    (plan, counts)
}

/// Incident categories a plan with the given per-kind counts is allowed to
/// produce. Anything else failing to appear is fine (a crash scheduled
/// after an SPE's last op never fires); anything *extra* appearing is an
/// invariant violation.
fn allowed_categories(counts: (u32, u32, u32, u32, u32, u32)) -> Vec<IncidentCategory> {
    let mut ok = Vec::new();
    if counts.3 > 0 {
        ok.push(IncidentCategory::SpeCrash);
        ok.push(IncidentCategory::SpeRestart);
    }
    if counts.4 > 0 {
        ok.push(IncidentCategory::CopilotStall);
    }
    if counts.5 > 0 {
        ok.push(IncidentCategory::CopilotDeath);
        ok.push(IncidentCategory::CopilotFailover);
    }
    ok
}

/// The smallest seed whose `(seed, intensity)` chaos plan schedules at
/// least one Co-Pilot kill — the interesting trace to export, because it
/// exercises the standby failover path end to end.
pub fn seed_with_failover(intensity: u32) -> u64 {
    (0..).find(|&s| chaos_plan(s, intensity).1 .5 > 0).unwrap()
}

/// Run one seeded chaos campaign at the given intensity (roughly the
/// number of fault entries drawn; see [`chaos_plan`]) and check the three
/// invariants. Deterministic: the same `(seed, intensity)` replays the
/// same faults against the same workload, timestamp for timestamp.
///
/// An enabled `recorder` keeps the run's Chrome trace: every rank, SPE and
/// Co-Pilot lane with the failover incidents. That the invariants still
/// hold with recording on is itself a regression check — tracing must never
/// consume virtual time, so the traced run stays byte-identical to the
/// untraced golden run.
pub fn chaos(seed: u64, intensity: u32, recorder: Recorder) -> Result<ChaosReport, Violation> {
    let (golden, _) = golden();
    let (plan, counts) = chaos_plan(seed, intensity);
    let opts = base_opts()
        .with_faults(Arc::new(plan))
        .with_retry(RetryPolicy::default())
        .with_tracing(recorder);
    let run = run_workload(opts);
    let violation = Violation::at(seed);
    let report = run.completed().map_err(&violation)?;
    same_payloads(golden, &run.observed.payloads)
        .map_err(|d| violation(format!("output diverged from golden run: {d}")))?;
    incidents_within(report, &allowed_categories(counts)).map_err(&violation)?;
    Ok(ChaosReport {
        seed,
        planned: counts,
        incidents: tally(report),
        end_time: report.end_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_deterministic() {
        let (a, ca) = chaos_plan(42, 8);
        let (b, cb) = chaos_plan(42, 8);
        assert_eq!(ca, cb);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (_, cc) = chaos_plan(43, 8);
        assert_ne!(
            format!("{a:?}"),
            format!("{:?}", chaos_plan(43, 8).0),
            "different seeds draw different plans ({ca:?} vs {cc:?})"
        );
    }

    #[test]
    fn zero_intensity_is_the_golden_run() {
        let r = chaos(7, 0, Recorder::disabled()).expect("an empty plan cannot fail");
        assert_eq!(r.planned, (0, 0, 0, 0, 0, 0));
        assert!(r.incidents.is_empty());
        assert_eq!(r.end_time, golden_end_time());
    }

    /// The "zero cost when disabled, zero noise when enabled" contract of
    /// `cp-check`: with strict static checks and the race detector on, the
    /// chaos workload — all five Table-I channel types — runs
    /// byte-identical to the unchecked golden run (same output, same
    /// virtual end time) and draws no wiring lints or race findings. The
    /// wiring verifier runs at configure time and the happens-before
    /// recorder consumes no virtual time.
    #[test]
    fn static_checks_are_zero_overhead() {
        let (golden, golden_end) = golden();
        let run = run_workload(base_opts().with_strict_checks());
        let report = run.completed().unwrap();
        assert_eq!(same_payloads(golden, &run.observed.payloads), Ok(()));
        assert_eq!(
            report.end_time, *golden_end,
            "static checks must not consume virtual time"
        );
        assert!(
            report.incidents.is_empty(),
            "checked golden run must be finding-free: {:?}",
            report.incidents
        );
    }

    /// A handful of seeds at moderate intensity as a unit-level smoke; the
    /// `repro_chaos` binary sweeps the full campaign.
    #[test]
    fn smoke_campaign_holds_invariants() {
        for seed in 0..4 {
            if let Err(e) = chaos(seed, 6, Recorder::disabled()) {
                panic!("chaos invariant violated: {e}");
            }
        }
    }
}
