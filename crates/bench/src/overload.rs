//! Seeded overload campaigns: drive a bounded channel well past its
//! capacity and check that credit-based flow control degrades the run
//! gracefully instead of letting queues grow without limit.
//!
//! Each seed deterministically draws a channel capacity, a burst size and
//! (for the deadline policy) a shed deadline, then runs the overload
//! workload ([`cellpilot::conformance::run_overload`]) on the
//! two-Cells-one-Xeon cluster: a rank writer bursts messages at a reader
//! that is either draining concurrently (`Block`) or gated behind a control
//! message (`Shed` / `DeadlineDrop`), plus a Co-Pilot-relayed SPE leg
//! saturating a second bounded channel. Four invariants must hold for
//! every seed, each one of the shared checks:
//!
//! 1. **Completion** — the run finishes; backpressure never deadlocks.
//! 2. **Bounded queues** — every bounded channel's queue-depth high
//!    watermark (from the trace flow metrics) stays at or below its
//!    configured capacity.
//! 3. **Exact shedding** — under `Shed` and `DeadlineDrop` with the
//!    reader gated, exactly `burst - capacity` writes fail, each with
//!    `ErrorKind::Backpressure` and a `source()` chain, and the run
//!    reports matching `Overload` / `MessageShed` incidents; under
//!    `Block` nothing sheds and nothing is reported.
//! 4. **Delivery** — every payload FIFO equals the plan's oracle: each
//!    accepted write read back intact, in order.
//!
//! The `repro_overload` binary sweeps seeds through [`crate::campaign`];
//! [`overload`] runs one.

use std::fmt;

use cellpilot::conformance::{
    incident_count, incidents_within, run_overload, same_payloads, tally, watermarks_within,
    OverloadPlan,
};
use cellpilot::{Backend, OverloadPolicy};
use cp_des::rng::SplitMix64;
use cp_des::{IncidentCategory, SimDuration, SimTime};
use cp_trace::Recorder;

use crate::campaign::{render_tally, Violation};

/// What one passing overload run did, for campaign logs.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// The generating seed.
    pub seed: u64,
    /// The drawn scenario.
    pub plan: OverloadPlan,
    /// Writes the data channel accepted (the rest shed).
    pub accepted: usize,
    /// Queue-depth high watermark of the data channel.
    pub data_high_watermark: u64,
    /// Queue-depth high watermark of the SPE-leg channel.
    pub spe_high_watermark: u64,
    /// Writes that entered a credit wait, across all channels.
    pub backpressure_waits: u64,
    /// Incidents the run reported (category, count), in order of first
    /// appearance.
    pub incidents: Vec<(IncidentCategory, usize)>,
    /// Virtual completion time.
    pub end_time: SimTime,
}

impl fmt::Display for OverloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  seed {:>3}: {:>16} cap {} burst {:>2} accepted {:>2} \
             hwm [data {}, spe {}] waits {:>3} incidents [{}] end {}",
            self.seed,
            format!("{:?}", self.plan.policy),
            self.plan.capacity,
            self.plan.burst,
            self.accepted,
            self.data_high_watermark,
            self.spe_high_watermark,
            self.backpressure_waits,
            render_tally(&self.incidents),
            self.end_time
        )
    }
}

/// The seed's drawn scenario: capacity, a burst three times it, and the
/// policy. Seeds rotate through the three policies so any contiguous window
/// of three covers them all.
pub fn overload_plan(seed: u64) -> OverloadPlan {
    let mut rng = SplitMix64(seed ^ 0x0F10_3C01_u64);
    let capacity = 2 + rng.below(4) as usize; // 2..=5
    let policy = match seed % 3 {
        0 => OverloadPolicy::Block,
        1 => OverloadPolicy::Shed,
        _ => OverloadPolicy::DeadlineDrop(SimDuration::from_micros(40 + rng.below(200))),
    };
    OverloadPlan {
        capacity,
        burst: capacity * 3,
        policy,
    }
}

/// Run one seeded overload campaign and check the four invariants.
/// Deterministic: the same seed replays the same capacities, burst and
/// policy, timestamp for timestamp. The watermark check reads `recorder`'s
/// flow metrics, so it must be enabled; keep a clone for the Chrome trace
/// of the saturated run.
pub fn overload(seed: u64, recorder: Recorder) -> Result<OverloadReport, Violation> {
    assert!(
        recorder.is_enabled(),
        "overload checks its watermarks on the recorder"
    );
    let plan = overload_plan(seed);
    let run = run_overload(plan, Backend::Sim, recorder.clone());
    let violation = Violation::at(seed);
    let report = run.completed().map_err(&violation)?;
    let flow = recorder.snapshot().flow;
    watermarks_within(&flow, plan.capacity).map_err(&violation)?;
    let sheds = plan.sheds();
    let allowed: &[IncidentCategory] = match plan.policy {
        OverloadPolicy::Block => &[],
        _ => &[IncidentCategory::Overload, IncidentCategory::MessageShed],
    };
    incidents_within(report, allowed).map_err(&violation)?;
    incident_count(report, IncidentCategory::Overload, sheds).map_err(&violation)?;
    incident_count(report, IncidentCategory::MessageShed, sheds).map_err(&violation)?;
    same_payloads(&plan.expected_payloads(), &run.observed.payloads).map_err(&violation)?;

    let hwm = |c: cellpilot::CpChannel| {
        flow.queue_high_watermark
            .get(&(c.0 as u32))
            .copied()
            .unwrap_or(0)
    };
    Ok(OverloadReport {
        seed,
        plan,
        accepted: plan.burst - sheds,
        data_high_watermark: hwm(OverloadPlan::DATA),
        spe_high_watermark: hwm(OverloadPlan::SPE_IN),
        backpressure_waits: flow.backpressure_waits.values().sum(),
        incidents: tally(report),
        end_time: report.end_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_cover_all_three_policies() {
        let policies: Vec<OverloadPolicy> = (0..3).map(|s| overload_plan(s).policy).collect();
        assert_eq!(policies[0], OverloadPolicy::Block);
        assert_eq!(policies[1], OverloadPolicy::Shed);
        assert!(matches!(policies[2], OverloadPolicy::DeadlineDrop(_)));
        let plan = overload_plan(5);
        assert_eq!(
            plan.burst,
            plan.capacity * 3,
            "burst always overruns capacity"
        );
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let a = overload(1, Recorder::enabled()).expect("shed run passes");
        let b = overload(1, Recorder::enabled()).expect("shed run passes");
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.data_high_watermark, b.data_high_watermark);
    }

    /// A window of seeds covering every policy as a unit-level smoke; the
    /// `repro_overload` binary sweeps the full campaign.
    #[test]
    fn smoke_campaign_holds_invariants() {
        for seed in 0..3 {
            match overload(seed, Recorder::enabled()) {
                Ok(r) => assert!(
                    r.data_high_watermark <= r.plan.capacity as u64,
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
        let plan = OverloadPlan {
            policy: OverloadPolicy::Shed,
            ..overload_plan(1)
        };
        let run = run_overload(plan, Backend::Sim, Recorder::disabled());
        let keys: Vec<_> = run
            .completed()
            .expect("shed workload completes")
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
