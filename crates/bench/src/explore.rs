//! Schedule exploration: run scenarios under many legal DES schedules and
//! require the same application outcome from every one.
//!
//! The DES kernel's schedule seed (see
//! [`cp_des::Simulation::set_schedule_seed`]) permutes the dispatch order
//! of same-timestamp events — every permutation is a schedule that could
//! legally occur, so *traces* may differ between seeds but application
//! *outcomes* must not. [`explore`] checks one seed: the fault-replay
//! scenario must deliver exactly what was sent, and a type-5 circular wait
//! must draw the same detector diagnostic as under seed 0's FIFO order.
//! Virtual end times and incident counts legitimately vary and are not
//! compared.
//!
//! The fault-replay scenario itself ([`fault_replay`]) is shared with
//! `repro_faults` and `tests/fault_replay.rs`.

use std::sync::{Arc, OnceLock};

use cellpilot::conformance::{same_payloads, PayloadLog, Payloads};
use cellpilot::{
    render_trace, CellPilotConfig, CellPilotOpts, ChannelKind, CpChannel, SpeProgram, CP_MAIN,
};
use cp_des::{SimDuration, SimError, SimReport, SimTime};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId};
use cp_trace::Recorder;

use crate::campaign::Violation;

/// What the fault-replay sender writes, and so what the receiver must read.
fn fault_replay_payloads() -> Payloads {
    Payloads::from([(0, vec![(0..100).collect()])])
}

/// The fault-replay scenario: an SPE on node 0 computes for 300 µs, then
/// writes `0..100` over a type-5 channel (Co-Pilot → Co-Pilot relay) to an
/// SPE on node 1. With `drops`, the first two messages leaving node 0 for
/// node 1 from t = 200 µs on — the data relay's send attempts — are
/// dropped, well inside the default four-retry budget, so the channel's
/// retry machinery rides them out. Runs under `schedule_seed` and returns
/// the report and the rendered channel trace once the run completed and
/// the receiver read exactly what was sent.
pub fn fault_replay(drops: bool, schedule_seed: u64) -> Result<(SimReport, String), String> {
    let rec = Recorder::enabled();
    let mut opts = CellPilotOpts::new()
        .with_tracing(rec.clone())
        .with_schedule_seed(schedule_seed);
    if drops {
        opts = opts.with_faults(Arc::new(FaultPlan::new().drop_link(
            NodeId(0),
            NodeId(1),
            SimTime::ZERO + SimDuration::from_micros(200),
            SimTime(u64::MAX),
            2,
        )));
    }
    let mut cfg = CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
    let log = PayloadLog::default();
    let sender = SpeProgram::new("sender", 2048, |spe, _, _| {
        // Model some compute so the write lands inside the fault window.
        spe.ctx().advance(SimDuration::from_micros(300));
        spe.write_slice(CpChannel(0), &(0..100).collect::<Vec<i32>>())
            .unwrap();
    });
    let reader_log = log.clone();
    let receiver = SpeProgram::new("receiver", 2048, move |spe, _, _| {
        let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
        reader_log.record(CpChannel(0), v);
    });
    let parent = cfg
        .create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let a = cfg.create_spe_process(&sender, CP_MAIN, 0).unwrap();
    let b = cfg.create_spe_process(&receiver, parent, 0).unwrap();
    let chan = cfg.channel(a, b).build().unwrap();
    assert_eq!(
        cfg.channel_kind(chan).unwrap(),
        ChannelKind::Type5,
        "the scenario must exercise the Co-Pilot → Co-Pilot relay"
    );
    let run = log.into_run(cfg.run(move |cp| cp.run_and_wait_my_spes()));
    let report = run.completed()?.clone();
    same_payloads(&fault_replay_payloads(), &run.observed.payloads)?;
    Ok((report, render_trace(&rec.ops())))
}

/// A type-5 circular wait under one schedule seed: the deadlock service's
/// abort diagnostic, or what the run did instead.
fn deadlock_diagnostic(schedule_seed: u64) -> Result<String, String> {
    let opts = CellPilotOpts::new()
        .with_deadlock_service()
        .with_schedule_seed(schedule_seed);
    let mut cfg = CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
    let x = SpeProgram::new("x", 2048, |spe, _, _| {
        let _ = spe.read_vec::<i32>(CpChannel(1));
        spe.write_slice(CpChannel(0), &[1i32]).unwrap();
    });
    let y = SpeProgram::new("y", 2048, |spe, _, _| {
        let _ = spe.read_vec::<i32>(CpChannel(0));
        spe.write_slice(CpChannel(1), &[1i32]).unwrap();
    });
    let parent = cfg
        .create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let px = cfg.create_spe_process(&x, CP_MAIN, 0).unwrap();
    let py = cfg.create_spe_process(&y, parent, 0).unwrap();
    let _xy = cfg.channel(px, py).build().unwrap();
    let _yx = cfg.channel(py, px).build().unwrap();
    match cfg.run(move |cp| cp.run_and_wait_my_spes()) {
        Err(SimError::Aborted { message, .. }) => Ok(message),
        other => Err(format!("expected the detector's abort, got {other:?}")),
    }
}

/// The circular wait's diagnostic under seed 0's FIFO schedule — the
/// baseline every other schedule must reproduce.
pub fn deadlock_baseline() -> Result<&'static str, String> {
    static BASELINE: OnceLock<Result<String, String>> = OnceLock::new();
    BASELINE
        .get_or_init(|| deadlock_diagnostic(0))
        .as_deref()
        .map_err(Clone::clone)
}

/// Check one schedule seed: the fault-replay scenario completes and
/// delivers exactly what was sent, and the circular wait draws the
/// baseline diagnostic. Returns the sum the receiver read.
pub fn explore(seed: u64) -> Result<i64, Violation> {
    let violation = Violation::at(seed);
    fault_replay(true, seed).map_err(&violation)?;
    let baseline = deadlock_baseline().map_err(&violation)?;
    let diagnostic = deadlock_diagnostic(seed).map_err(&violation)?;
    if diagnostic != baseline {
        return Err(violation(format!(
            "deadlock diagnostic depends on the schedule: {diagnostic:?} vs seed 0's {baseline:?}"
        )));
    }
    Ok(fault_replay_payloads()[&0][0]
        .iter()
        .map(|&x| i64::from(x))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: the fault-replay scenario must produce an
    /// identical application outcome under at least 8 distinct schedule
    /// seeds (seed 0 is the canonical FIFO schedule).
    #[test]
    fn fault_replay_outcome_is_schedule_invariant() {
        for seed in 0..=8 {
            assert_eq!(explore(seed), Ok(4950)); // sum 0..100
        }
    }
}
