//! Seeded overload campaigns: drive a bounded channel well past its
//! capacity and check that credit-based flow control degrades the run
//! gracefully instead of letting queues grow without limit.
//!
//! Each seed deterministically draws a channel capacity, a burst size and
//! (for the deadline policy) a shed deadline, then runs a fixed workload
//! on the two-Cells-one-Xeon cluster: a rank writer bursts messages at a
//! reader that is either draining concurrently (`Block`) or gated behind
//! a control message (`Shed` / `DeadlineDrop`), plus a Co-Pilot-relayed
//! SPE leg saturating a second bounded channel. Four invariants must hold
//! for every seed:
//!
//! 1. **Completion** — the run finishes; backpressure never deadlocks.
//! 2. **Bounded queues** — every bounded channel's queue-depth high
//!    watermark (from the trace flow metrics) stays at or below its
//!    configured capacity.
//! 3. **Exact shedding** — under `Shed` and `DeadlineDrop` with the
//!    reader gated, exactly `burst - capacity` writes fail, each with
//!    [`ErrorKind::Backpressure`] and a `source()` chain, and the run
//!    reports matching `Overload` / `MessageShed` incidents; under
//!    `Block` nothing sheds and nothing is lost.
//! 4. **Delivery** — every message the writer's `write` accepted is read
//!    back intact, in order.
//!
//! The `repro_overload` binary sweeps seeds; [`overload`] runs one.

use std::error::Error as _;
use std::fmt;
use std::sync::{Arc, Mutex};

use cellpilot::{
    CellPilotConfig, CellPilotOpts, CpChannel, ErrorKind, OverloadPolicy, SpeProgram, CP_MAIN,
};
use cp_des::{IncidentCategory, SimDuration, SimTime};
use cp_simnet::ClusterSpec;

use crate::chaos::SplitMix64;

/// How an overload run failed its invariants.
#[derive(Debug, Clone)]
pub enum OverloadFailure {
    /// The run aborted or deadlocked instead of completing.
    Sunk {
        /// The generating seed.
        seed: u64,
        /// The simulator's error rendering.
        error: String,
    },
    /// A bounded channel's queue grew past its configured capacity.
    QueueOverflow {
        /// The generating seed.
        seed: u64,
        /// The offending channel.
        chan: u32,
        /// Observed queue-depth high watermark.
        high_watermark: u64,
        /// The capacity it was supposed to respect.
        capacity: u64,
    },
    /// A policy- or delivery-invariant did not hold.
    Invariant {
        /// The generating seed.
        seed: u64,
        /// What was expected and what happened.
        detail: String,
    },
}

impl fmt::Display for OverloadFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverloadFailure::Sunk { seed, error } => {
                write!(f, "seed {seed}: run sank: {error}")
            }
            OverloadFailure::QueueOverflow {
                seed,
                chan,
                high_watermark,
                capacity,
            } => write!(
                f,
                "seed {seed}: channel {chan} queue grew to {high_watermark}, \
                 capacity {capacity}: flow control failed to bound it"
            ),
            OverloadFailure::Invariant { seed, detail } => {
                write!(f, "seed {seed}: {detail}")
            }
        }
    }
}

impl std::error::Error for OverloadFailure {}

/// What one passing overload run did, for campaign logs.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The generating seed.
    pub seed: u64,
    /// The policy the data channel ran under.
    pub policy: OverloadPolicy,
    /// Capacity of each bounded channel.
    pub capacity: usize,
    /// Write attempts the writer made on the data channel.
    pub burst: usize,
    /// Writes the data channel accepted (the rest shed).
    pub accepted: usize,
    /// Queue-depth high watermark of the data channel.
    pub data_high_watermark: u64,
    /// Queue-depth high watermark of the SPE-leg channel.
    pub spe_high_watermark: u64,
    /// Writes that entered a credit wait, across all channels.
    pub backpressure_waits: u64,
    /// Incidents the run reported (category, count), in category order.
    pub incidents: Vec<(IncidentCategory, usize)>,
    /// Virtual completion time.
    pub end_time: SimTime,
}

/// The seed's drawn scenario: capacity, burst and policy. Seeds rotate
/// through the three policies so any contiguous window of three covers
/// them all.
pub fn overload_plan(seed: u64) -> (usize, usize, OverloadPolicy) {
    let mut rng = SplitMix64(seed ^ 0x0F10_3C01_u64);
    let capacity = 2 + rng.below(4) as usize; // 2..=5
    let burst = capacity * 3;
    let policy = match seed % 3 {
        0 => OverloadPolicy::Block,
        1 => OverloadPolicy::Shed,
        _ => OverloadPolicy::DeadlineDrop(SimDuration::from_micros(40 + rng.below(200))),
    };
    (capacity, burst, policy)
}

struct RunOutcome {
    accepted: usize,
    shed_errors: Vec<String>,
    xeon_got: Vec<Vec<i32>>,
    spe_sum: i32,
    report: cp_des::SimReport,
    flow: cp_trace::FlowMetrics,
}

/// Channel indices of the fixed workload, in creation order.
const DATA: usize = 0;
const COUNT: usize = 1;
const SPE_IN: usize = 2;
const SPE_OUT: usize = 3;

/// Messages the SPE leg pushes through its bounded channel.
fn spe_burst(capacity: usize) -> usize {
    capacity * 2 + 1
}

fn run_workload(
    capacity: usize,
    burst: usize,
    policy: OverloadPolicy,
    recorder: cp_trace::Recorder,
) -> Result<RunOutcome, String> {
    let spec = ClusterSpec::two_cells_one_xeon();
    let opts = CellPilotOpts::new().with_tracing(recorder.clone());
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);

    let accepted: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));
    let shed_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let xeon_out: Arc<Mutex<Vec<Vec<i32>>>> = Arc::new(Mutex::new(Vec::new()));
    let spe_sum: Arc<Mutex<i32>> = Arc::new(Mutex::new(0));

    let n_spe = spe_burst(capacity) as i32;
    let s0a_prog = SpeProgram::new("drain", 2048, move |spe, _, _| {
        let mut acc = 0i32;
        for _ in 0..n_spe {
            let v = spe.read_vec::<i32>(CpChannel(SPE_IN)).unwrap();
            acc += v.iter().sum::<i32>();
        }
        spe.write_slice(CpChannel(SPE_OUT), &[acc]).unwrap();
    });

    // Under Block the reader drains the burst concurrently (the writer
    // stalls at capacity and resumes as credits return); under the
    // shedding policies it is gated behind the count message, so nothing
    // drains during the burst and the shed count is exact.
    let gated = policy != OverloadPolicy::Block;
    let xeon_sink = xeon_out.clone();
    let xeon = cfg
        .create_process("xeon", 0, move |cp, _| {
            let expect = if gated {
                let n = cp.read_vec::<i32>(CpChannel(COUNT)).unwrap();
                n[0] as usize
            } else {
                burst
            };
            for _ in 0..expect {
                let v = cp.read_vec::<i32>(CpChannel(DATA)).unwrap();
                xeon_sink.lock().unwrap().push(v);
            }
            if !gated {
                let n = cp.read_vec::<i32>(CpChannel(COUNT)).unwrap();
                assert_eq!(n[0] as usize, expect, "writer and reader disagree");
            }
        })
        .unwrap();
    let s0a = cfg.create_spe_process(&s0a_prog, CP_MAIN, 0).unwrap();

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
        (data.0, count.0, spe_in.0, spe_out.0),
        (DATA, COUNT, SPE_IN, SPE_OUT),
        "the SPE program names these channel ids"
    );

    let ok_count = accepted.clone();
    let errs = shed_errors.clone();
    let sum_sink = spe_sum.clone();
    let report = cfg
        .run(move |cp| {
            let _tasks = cp.run_my_spes();
            for i in 0..burst as i32 {
                match cp.write_slice(data, &[i, i * 2]) {
                    Ok(()) => *ok_count.lock().unwrap() += 1,
                    Err(e) => {
                        // Graceful degradation: a shed is an error the
                        // writer sees and can act on, not a lost run.
                        assert_eq!(e.kind(), ErrorKind::Backpressure, "shed kind: {e}");
                        assert!(e.source().is_some(), "Backpressure must carry its cause");
                        errs.lock().unwrap().push(e.to_string());
                    }
                }
            }
            let sent = *ok_count.lock().unwrap() as i32;
            cp.write_slice(count, &[sent]).unwrap();
            for i in 0..spe_burst(capacity) as i32 {
                cp.write_slice(spe_in, &[i, 1]).unwrap();
            }
            let v = cp.read_vec::<i32>(spe_out).unwrap();
            *sum_sink.lock().unwrap() = v[0];
        })
        .map_err(|e| e.to_string())?;
    let flow = recorder.snapshot().flow;
    let accepted = *accepted.lock().unwrap();
    let shed_errors = std::mem::take(&mut *shed_errors.lock().unwrap());
    let xeon_got = std::mem::take(&mut *xeon_out.lock().unwrap());
    let spe_sum = *spe_sum.lock().unwrap();
    Ok(RunOutcome {
        accepted,
        shed_errors,
        xeon_got,
        spe_sum,
        report,
        flow,
    })
}

/// Run one seeded overload campaign and check the four invariants.
/// Deterministic: the same seed replays the same capacities, burst and
/// policy, timestamp for timestamp.
pub fn overload(seed: u64) -> Result<OverloadReport, OverloadFailure> {
    overload_traced(seed).map(|(r, _)| r)
}

/// [`overload`] with the run's recorder returned, for Chrome-trace export
/// of a saturated run.
pub fn overload_traced(seed: u64) -> Result<(OverloadReport, cp_trace::Recorder), OverloadFailure> {
    let (capacity, burst, policy) = overload_plan(seed);
    let rec = cp_trace::Recorder::enabled();
    let out = run_workload(capacity, burst, policy, rec.clone())
        .map_err(|error| OverloadFailure::Sunk { seed, error })?;

    // Invariant 2: every bounded queue stayed within its capacity.
    for (&chan, &hwm) in &out.flow.queue_high_watermark {
        if hwm > capacity as u64 {
            return Err(OverloadFailure::QueueOverflow {
                seed,
                chan,
                high_watermark: hwm,
                capacity: capacity as u64,
            });
        }
    }

    // Invariant 3: policy-exact shedding (and incident accounting).
    let expected_shed = match policy {
        OverloadPolicy::Block => 0,
        // The reader is gated, so everything past the first `capacity`
        // writes must shed.
        OverloadPolicy::Shed | OverloadPolicy::DeadlineDrop(_) => burst - capacity,
    };
    let invariant = |detail: String| OverloadFailure::Invariant { seed, detail };
    if out.shed_errors.len() != expected_shed {
        return Err(invariant(format!(
            "policy {policy:?} shed {} writes, expected {expected_shed}",
            out.shed_errors.len()
        )));
    }
    let overloads = count_of(&out.report, IncidentCategory::Overload);
    let sheds = count_of(&out.report, IncidentCategory::MessageShed);
    if overloads != expected_shed || sheds != expected_shed {
        return Err(invariant(format!(
            "expected {expected_shed} Overload and MessageShed incidents, \
             got {overloads} and {sheds}"
        )));
    }
    if policy == OverloadPolicy::Block && !out.report.incidents.is_empty() {
        return Err(invariant(format!(
            "Block policy must not report incidents: {:?}",
            out.report.incidents
        )));
    }

    // Invariant 4: everything accepted was delivered, in order, intact.
    if out.accepted != burst - expected_shed || out.xeon_got.len() != out.accepted {
        return Err(invariant(format!(
            "accepted {} of {burst}, reader saw {} (expected {})",
            out.accepted,
            out.xeon_got.len(),
            burst - expected_shed
        )));
    }
    for (i, v) in out.xeon_got.iter().enumerate() {
        let i = i as i32;
        if v != &[i, i * 2] {
            return Err(invariant(format!("message {i} corrupted: {v:?}")));
        }
    }
    let n = spe_burst(capacity) as i32;
    let want = (0..n).sum::<i32>() + n;
    if out.spe_sum != want {
        return Err(invariant(format!(
            "SPE leg summed {}, expected {want}",
            out.spe_sum
        )));
    }

    let mut tally: Vec<(IncidentCategory, usize)> = Vec::new();
    for inc in &out.report.incidents {
        match tally.iter_mut().find(|(c, _)| *c == inc.category) {
            Some((_, k)) => *k += 1,
            None => tally.push((inc.category, 1)),
        }
    }
    let hwm = |c: usize| {
        out.flow
            .queue_high_watermark
            .get(&(c as u32))
            .copied()
            .unwrap_or(0)
    };
    Ok((
        OverloadReport {
            seed,
            policy,
            capacity,
            burst,
            accepted: out.accepted,
            data_high_watermark: hwm(DATA),
            spe_high_watermark: hwm(SPE_IN),
            backpressure_waits: out.flow.backpressure_waits.values().sum(),
            incidents: tally,
            end_time: out.report.end_time,
        },
        rec,
    ))
}

fn count_of(report: &cp_des::SimReport, cat: IncidentCategory) -> usize {
    report
        .incidents
        .iter()
        .filter(|i| i.category == cat)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_cover_all_three_policies() {
        let policies: Vec<OverloadPolicy> = (0..3).map(|s| overload_plan(s).2).collect();
        assert_eq!(policies[0], OverloadPolicy::Block);
        assert_eq!(policies[1], OverloadPolicy::Shed);
        assert!(matches!(policies[2], OverloadPolicy::DeadlineDrop(_)));
        let (c, b, _) = overload_plan(5);
        assert_eq!(b, c * 3, "burst always overruns capacity");
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let a = overload(1).expect("shed run passes");
        let b = overload(1).expect("shed run passes");
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.data_high_watermark, b.data_high_watermark);
    }

    /// A window of seeds covering every policy as a unit-level smoke; the
    /// `repro_overload` binary sweeps the full campaign.
    #[test]
    fn smoke_campaign_holds_invariants() {
        for seed in 0..3 {
            match overload(seed) {
                Ok(r) => assert!(
                    r.data_high_watermark <= r.capacity as u64,
                    "watermark above capacity slipped through"
                ),
                Err(e) => panic!("overload invariant violated: {e}"),
            }
        }
    }

    #[test]
    fn incidents_come_out_sorted() {
        // Satellite contract: SimReport incidents are deterministically
        // ordered by (time, category, process, detail), whatever order
        // the shed reports arrived in.
        let (capacity, burst, _) = overload_plan(1);
        let out = run_workload(
            capacity,
            burst,
            OverloadPolicy::Shed,
            cp_trace::Recorder::disabled(),
        )
        .expect("shed workload completes");
        let keys: Vec<_> = out
            .report
            .incidents
            .iter()
            .map(|i| {
                (
                    i.at,
                    i.category.as_str(),
                    i.process.clone(),
                    i.detail.clone(),
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "incidents must arrive pre-sorted");
        assert!(!keys.is_empty(), "the shed run reports incidents");
    }
}
