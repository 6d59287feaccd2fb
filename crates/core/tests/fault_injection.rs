//! Scripted fault injection: SPE crashes, Co-Pilot stalls and rank deaths
//! must degrade gracefully — only channels touching the lost process fail,
//! the run completes, and every degradation shows up as a structured
//! incident in the [`cp_des::SimReport`].

use cellpilot::{
    CellPilotConfig, CellPilotOpts, CpChannel, CpError, SpeProgram, SupervisionPolicy, CP_MAIN,
};
use cp_des::{IncidentCategory, SimDuration, SimReport, SimTime};
use cp_pilot::PilotError;
use cp_simnet::{ClusterSpec, FaultPlan, NodeId};
use cp_trace::{Op, OpEvent, Recorder};
use std::sync::{Arc, Mutex};

/// Type-4 blast radius: a crashed SPE writer fails its own channel with
/// `PeerLost`, while an unrelated same-node SPE pair keeps working, and the
/// run still finishes cleanly.
#[test]
fn type4_spe_crash_fails_only_touching_channels() {
    let spec = ClusterSpec::two_cells_one_xeon();
    // Process ids are assigned in creation order: main = 0, then the four
    // SPE processes below. The victim is the first one created (id 1).
    let plan = Arc::new(FaultPlan::new().crash_spe(1, SimTime::ZERO));
    let opts = CellPilotOpts::new().with_faults(plan);
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);

    let dying = SpeProgram::new("dying", 2048, |spe, _, _| {
        // The scripted crash fires at this first channel operation; the
        // line below never completes.
        let _ = spe.write_slice(CpChannel(0), &[1i32, 2, 3]);
        unreachable!("the fault plan kills this SPE at its first write");
    });
    let bereft = SpeProgram::new("bereft", 2048, |spe, _, _| {
        let err = spe.read_vec::<i32>(CpChannel(0)).unwrap_err();
        match err {
            CpError::Pilot(PilotError::PeerLost { channel, peer }) => {
                assert_eq!(channel, 0);
                assert!(peer.starts_with("dying"), "{peer}");
            }
            other => panic!("expected PeerLost, got {other}"),
        }
    });
    let healthy_w = SpeProgram::new("healthy_w", 2048, |spe, _, _| {
        spe.write_slice(CpChannel(1), &[7.5f64, -1.25]).unwrap();
    });
    let healthy_r = SpeProgram::new("healthy_r", 2048, |spe, _, _| {
        let v = spe.read_vec::<f64>(CpChannel(1)).unwrap();
        assert_eq!(v, vec![7.5, -1.25]);
    });

    let victim = cfg.create_spe_process(&dying, CP_MAIN, 0).unwrap();
    assert_eq!(victim.0, 1, "the fault plan targets process id 1");
    let reader = cfg.create_spe_process(&bereft, CP_MAIN, 1).unwrap();
    let w2 = cfg.create_spe_process(&healthy_w, CP_MAIN, 2).unwrap();
    let r2 = cfg.create_spe_process(&healthy_r, CP_MAIN, 3).unwrap();
    let broken = cfg.channel(victim, reader).build().unwrap();
    assert_eq!(broken.0, 0);
    let _healthy = cfg.channel(w2, r2).build().unwrap();

    let report = cfg
        .run(move |cp| {
            let tasks: Vec<_> = [victim, reader, w2, r2]
                .iter()
                .map(|&p| cp.run_spe(p, 0, 0).unwrap())
                .collect();
            for t in tasks {
                cp.wait_spe(t);
            }
        })
        .expect("a scripted SPE crash degrades the run, it does not sink it");

    let cats: Vec<IncidentCategory> = report.incidents.iter().map(|i| i.category).collect();
    assert!(
        cats.contains(&IncidentCategory::SpeCrash),
        "incidents: {:?}",
        report.incidents
    );
    assert!(
        cats.contains(&IncidentCategory::PeerLost),
        "incidents: {:?}",
        report.incidents
    );
}

/// Type-5 blast radius: the crash of a writer SPE on node 0 is seen by its
/// reader SPE on node 1 (via the reader's own Co-Pilot consulting the
/// global plan), while a healthy type-5 pair between the same two nodes
/// still delivers.
#[test]
fn type5_spe_crash_blast_radius_spans_nodes() {
    let spec = ClusterSpec::two_cells_one_xeon();
    // main = 0, recvFunc = 1, then SPEs: victim = 2.
    let plan = Arc::new(FaultPlan::new().crash_spe(2, SimTime::ZERO));
    let opts = CellPilotOpts::new().with_faults(plan);
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);

    let dying = SpeProgram::new("dying", 2048, |spe, _, _| {
        let _ = spe.write_slice(CpChannel(0), &[9i32]);
        unreachable!("the fault plan kills this SPE at its first write");
    });
    let bereft = SpeProgram::new("bereft", 2048, |spe, _, _| {
        match spe.read_vec::<i32>(CpChannel(0)).unwrap_err() {
            CpError::Pilot(PilotError::PeerLost { channel: 0, peer }) => {
                assert!(peer.starts_with("dying"), "{peer}")
            }
            other => panic!("expected PeerLost on channel 0, got {other}"),
        }
    });
    let healthy_w = SpeProgram::new("healthy_w", 2048, |spe, _, _| {
        spe.write_slice(CpChannel(1), &[42i64, -42]).unwrap();
    });
    let healthy_r = SpeProgram::new("healthy_r", 2048, |spe, _, _| {
        assert_eq!(spe.read_vec::<i64>(CpChannel(1)).unwrap(), vec![42, -42]);
    });

    let recv_ppe = cfg
        .create_process("recvFunc", 0, |cp, _| {
            // Its SPE children are processes 3 (bereft) and 5 (healthy_r).
            cp.run_and_wait_my_spes();
        })
        .unwrap();
    let victim = cfg.create_spe_process(&dying, CP_MAIN, 0).unwrap();
    assert_eq!(victim.0, 2, "the fault plan targets process id 2");
    let reader = cfg.create_spe_process(&bereft, recv_ppe, 0).unwrap();
    let w2 = cfg.create_spe_process(&healthy_w, CP_MAIN, 1).unwrap();
    let r2 = cfg.create_spe_process(&healthy_r, recv_ppe, 1).unwrap();
    let broken = cfg.channel(victim, reader).build().unwrap();
    assert_eq!(broken.0, 0);
    let _healthy = cfg.channel(w2, r2).build().unwrap();

    let report = cfg
        .run(move |cp| {
            cp.run_and_wait_my_spes();
        })
        .expect("the crash fails two channels' endpoints, not the run");

    let cats: Vec<IncidentCategory> = report.incidents.iter().map(|i| i.category).collect();
    assert!(
        cats.contains(&IncidentCategory::SpeCrash),
        "incidents: {:?}",
        report.incidents
    );
    assert!(
        cats.contains(&IncidentCategory::PeerLost),
        "incidents: {:?}",
        report.incidents
    );
}

/// A stalled Co-Pilot delays every channel it services but loses nothing:
/// the same workload finishes later than a healthy run, delivers the same
/// data, and the stall is reported as an incident.
#[test]
fn copilot_stall_delays_but_preserves_delivery() {
    let build = |plan: Option<Arc<FaultPlan>>| {
        let spec = ClusterSpec::two_cells_one_xeon();
        let mut opts = CellPilotOpts::new();
        if let Some(p) = plan {
            opts = opts.with_faults(p);
        }
        let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
        let writer = SpeProgram::new("writer", 2048, |spe, _, _| {
            spe.write_slice(CpChannel(0), &[1i32, 2, 3, 4]).unwrap();
        });
        let s = cfg.create_spe_process(&writer, CP_MAIN, 0).unwrap();
        let chan = cfg.channel(s, CP_MAIN).build().unwrap();
        cfg.run(move |cp| {
            let t = cp.run_spe(s, 0, 0).unwrap();
            assert_eq!(cp.read_vec::<i32>(chan).unwrap(), vec![1, 2, 3, 4]);
            cp.wait_spe(t);
        })
    };

    let healthy = build(None).unwrap();
    let stall = Arc::new(FaultPlan::new().stall_copilot(
        NodeId(0),
        SimTime::ZERO,
        SimDuration::from_millis(50),
    ));
    let stalled = build(Some(stall)).unwrap();

    assert!(
        stalled.end_time >= healthy.end_time + SimDuration::from_millis(50),
        "stall must show up in the virtual clock: {} vs {}",
        stalled.end_time,
        healthy.end_time
    );
    assert!(
        stalled
            .incidents
            .iter()
            .any(|i| i.category == IncidentCategory::CopilotStall),
        "incidents: {:?}",
        stalled.incidents
    );
    assert!(healthy.incidents.is_empty(), "{:?}", healthy.incidents);
}

/// The whole point of a scripted [`FaultPlan`]: the same plan replayed on
/// the same configuration yields a bit-identical execution — same trace,
/// same incidents, same end time.
#[test]
fn fault_plan_replays_identically() {
    let run_once = || {
        let spec = ClusterSpec::two_cells_one_xeon();
        let plan = Arc::new(
            FaultPlan::new()
                .delay_link(
                    NodeId(0),
                    NodeId(1),
                    SimTime::ZERO,
                    SimTime(u64::MAX),
                    SimDuration::from_micros(700),
                )
                .crash_spe(4, SimTime::ZERO)
                .stall_copilot(NodeId(1), SimTime::ZERO, SimDuration::from_millis(5)),
        );
        let rec = Recorder::enabled();
        let opts = CellPilotOpts::new()
            .with_tracing(rec.clone())
            .with_faults(plan);
        let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
        let writer = SpeProgram::new("writer", 2048, |spe, _, _| {
            spe.write_slice(CpChannel(0), &[5i32; 64]).unwrap();
        });
        let reader = SpeProgram::new("reader", 2048, |spe, _, _| {
            assert_eq!(spe.read_vec::<i32>(CpChannel(0)).unwrap(), vec![5i32; 64]);
        });
        let doomed = SpeProgram::new("doomed", 2048, |spe, _, _| {
            let _ = spe.write_slice(CpChannel(1), &[0u8]);
            unreachable!("scripted crash");
        });
        let bereft = SpeProgram::new("bereft", 2048, |spe, _, _| {
            assert!(matches!(
                spe.read_vec::<u8>(CpChannel(1)).unwrap_err(),
                CpError::Pilot(PilotError::PeerLost { channel: 1, .. })
            ));
        });
        let recv_ppe = cfg
            .create_process("recvFunc", 0, |cp, _| cp.run_and_wait_my_spes())
            .unwrap();
        let w = cfg.create_spe_process(&writer, CP_MAIN, 0).unwrap();
        let r = cfg.create_spe_process(&reader, recv_ppe, 0).unwrap();
        let d = cfg.create_spe_process(&doomed, CP_MAIN, 1).unwrap();
        assert_eq!(d.0, 4, "the fault plan targets process id 4");
        let b = cfg.create_spe_process(&bereft, recv_ppe, 1).unwrap();
        cfg.channel(w, r).build().unwrap();
        cfg.channel(d, b).build().unwrap();
        let report = cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap();
        (report, rec.ops())
    };

    let (report_a, trace_a) = run_once();
    let (report_b, trace_b) = run_once();
    assert_eq!(trace_a, trace_b, "fault replay must be deterministic");
    assert_eq!(report_a.incidents, report_b.incidents);
    assert_eq!(report_a.end_time, report_b.end_time);
    assert!(!trace_a.is_empty());
    assert!(report_a
        .incidents
        .iter()
        .any(|i| i.category == IncidentCategory::SpeCrash));
    assert!(report_a
        .incidents
        .iter()
        .any(|i| i.category == IncidentCategory::CopilotStall));
}

/// Recovery harness: a 5-round SPE ↔ main ping-pong whose sequence of
/// rank-side reads is the "application output" recovery is judged against.
/// Returns the report, the trace, and that output. The SPE writer is
/// process id 1 and writes channel 0; main acks on channel 1.
fn ping_pong(
    plan: Option<Arc<FaultPlan>>,
    supervise: bool,
) -> (SimReport, Vec<OpEvent>, Vec<Vec<i32>>) {
    let spec = ClusterSpec::two_cells_one_xeon();
    let rec = Recorder::enabled();
    let mut opts = CellPilotOpts::new().with_tracing(rec.clone());
    if let Some(p) = plan {
        opts = opts.with_faults(p);
    }
    if supervise {
        opts = opts.with_supervision(SupervisionPolicy::default());
    }
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let writer = SpeProgram::new("writer", 2048, |spe, _, _| {
        for i in 0..5i32 {
            spe.write_slice(CpChannel(0), &[i, i * i, i + 100]).unwrap();
            // A restarted attempt re-yields this ack from its journal
            // instead of re-reading the wire, so the assertion must hold
            // across crashes too.
            assert_eq!(spe.read_vec::<i32>(CpChannel(1)).unwrap(), vec![i]);
        }
    });
    let s = cfg.create_spe_process(&writer, CP_MAIN, 0).unwrap();
    assert_eq!(s.0, 1, "fault plans in these tests target process id 1");
    let data = cfg.channel(s, CP_MAIN).build().unwrap();
    let ack = cfg.channel(CP_MAIN, s).build().unwrap();
    let collected = Arc::new(Mutex::new(Vec::new()));
    let sink = collected.clone();
    let report = cfg
        .run(move |cp| {
            let t = cp.run_spe(s, 0, 0).unwrap();
            for i in 0..5i32 {
                let v = cp.read_vec::<i32>(data).unwrap();
                sink.lock().unwrap().push(v);
                cp.write_slice(ack, &[i]).unwrap();
            }
            cp.wait_spe(t);
        })
        .expect("recovery keeps the run alive");
    let out = std::mem::take(&mut *collected.lock().unwrap());
    (report, rec.ops(), out)
}

/// The virtual time main completed its third read in a trace — a point
/// guaranteed to be mid-stream, with acknowledged operations behind the
/// writer and live ones ahead of it.
fn third_read_at(trace: &[OpEvent]) -> SimTime {
    trace
        .iter()
        .filter(|e| e.op == Op::RankRead && &*e.process == "main")
        .nth(2)
        .map(|e| SimTime(e.ts_ns))
        .expect("the golden run makes five rank reads")
}

/// The tentpole recovery guarantee, SPE side: a supervised SPE crashed
/// mid-stream is restarted from its op journal, and the application output
/// is byte-identical to the fault-free golden run — peers observe every
/// message exactly once, no `PeerLost` anywhere.
#[test]
fn supervised_spe_crash_output_matches_fault_free_run() {
    let (golden_report, golden_trace, golden_out) = ping_pong(None, true);
    assert!(
        golden_report.incidents.is_empty(),
        "{:?}",
        golden_report.incidents
    );
    assert_eq!(golden_out.len(), 5);

    let plan = Arc::new(FaultPlan::new().crash_spe(1, third_read_at(&golden_trace)));
    let (report, _trace, out) = ping_pong(Some(plan), true);
    assert_eq!(out, golden_out, "supervised recovery must be lossless");

    let cats: Vec<IncidentCategory> = report.incidents.iter().map(|i| i.category).collect();
    assert!(cats.contains(&IncidentCategory::SpeCrash), "{cats:?}");
    assert!(cats.contains(&IncidentCategory::SpeRestart), "{cats:?}");
    assert!(!cats.contains(&IncidentCategory::PeerLost), "{cats:?}");
    assert!(!cats.contains(&IncidentCategory::SpeAbandoned), "{cats:?}");
}

/// The tentpole recovery guarantee, Co-Pilot side: killing a node's
/// Co-Pilot mid-stream hands its proxy tables, queued mailbox traffic and
/// dedup state to the standby, and the application output is byte-identical
/// to the fault-free golden run.
#[test]
fn copilot_failover_output_matches_fault_free_run() {
    let (golden_report, golden_trace, golden_out) = ping_pong(None, false);
    assert!(
        golden_report.incidents.is_empty(),
        "{:?}",
        golden_report.incidents
    );

    let plan = Arc::new(FaultPlan::new().kill_copilot(NodeId(0), third_read_at(&golden_trace)));
    let (report, _trace, out) = ping_pong(Some(plan), false);
    assert_eq!(out, golden_out, "failover must be application-invisible");

    let cats: Vec<IncidentCategory> = report.incidents.iter().map(|i| i.category).collect();
    assert!(cats.contains(&IncidentCategory::CopilotDeath), "{cats:?}");
    assert!(
        cats.contains(&IncidentCategory::CopilotFailover),
        "{cats:?}"
    );
    assert!(!cats.contains(&IncidentCategory::PeerLost), "{cats:?}");
}

/// Supervision is a budget, not a blank cheque: enough stacked crashes
/// exhaust `max_restarts`, the SPE is abandoned with an incident, and its
/// channels degrade to the unsupervised `PeerLost` behaviour.
#[test]
fn restart_exhaustion_abandons_spe_and_degrades_to_peer_lost() {
    let spec = ClusterSpec::two_cells_one_xeon();
    // Three stacked crashes: the initial attempt and both permitted
    // restarts (`max_restarts: 2`) each die at their first write.
    let plan = Arc::new(
        FaultPlan::new()
            .crash_spe(1, SimTime::ZERO)
            .crash_spe(1, SimTime::ZERO)
            .crash_spe(1, SimTime::ZERO),
    );
    let opts = CellPilotOpts::new()
        .with_faults(plan)
        .with_supervision(SupervisionPolicy::default())
        .with_channel_timeout(SimDuration::from_millis(5));
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let doomed = SpeProgram::new("doomed", 2048, |spe, _, _| {
        let _ = spe.write_slice(CpChannel(0), &[1i32]);
        unreachable!("every attempt dies at its first write");
    });
    let s = cfg.create_spe_process(&doomed, CP_MAIN, 0).unwrap();
    let chan = cfg.channel(s, CP_MAIN).build().unwrap();
    let report = cfg
        .run(move |cp| {
            let t = cp.run_spe(s, 0, 0).unwrap();
            match cp.read_vec::<i32>(chan) {
                Err(CpError::Pilot(PilotError::PeerLost { channel: 0, peer })) => {
                    assert!(peer.starts_with("doomed"), "{peer}")
                }
                other => panic!("expected PeerLost after abandonment, got {other:?}"),
            }
            cp.wait_spe(t);
        })
        .expect("an abandoned SPE degrades the run, it does not sink it");

    let cats: Vec<IncidentCategory> = report.incidents.iter().map(|i| i.category).collect();
    let restarts = cats
        .iter()
        .filter(|&&c| c == IncidentCategory::SpeRestart)
        .count();
    assert_eq!(restarts, 2, "incidents: {:?}", report.incidents);
    assert!(cats.contains(&IncidentCategory::SpeAbandoned), "{cats:?}");
    assert!(cats.contains(&IncidentCategory::PeerLost), "{cats:?}");
}

/// Error-matrix: an injected fault and a saturated channel, in the same
/// run, classify under *different* [`ErrorKind`]s — the crashed peer's
/// read fails as `Fault`, the shed write as `Backpressure` — and the
/// backpressure error chains its structured [`OverloadError`] cause
/// through `source()`, so callers can introspect the overload (channel,
/// capacity, policy) without string-matching. Both degradations also land
/// in the incident report under their own categories.
#[test]
fn backpressure_and_faults_classify_distinctly() {
    use cellpilot::{ErrorKind, OverloadError, OverloadPolicy};
    use std::error::Error as _;

    let spec = ClusterSpec::two_cells_one_xeon();
    let plan = Arc::new(FaultPlan::new().crash_spe(1, SimTime::ZERO));
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new().with_faults(plan));

    let dying = SpeProgram::new("dying", 2048, |spe, _, _| {
        let _ = spe.write_slice(CpChannel(0), &[1i32]);
        unreachable!("the fault plan kills this SPE at its first write");
    });
    let victim = cfg.create_spe_process(&dying, CP_MAIN, 0).unwrap();
    assert_eq!(victim.0, 1, "the fault plan targets process id 1");

    // Fault leg: the bereft reader's channel fails with PeerLost — the
    // `Fault` row of the matrix.
    let bereft = SpeProgram::new("bereft", 2048, |spe, _, _| {
        let fault = spe.read_vec::<i32>(CpChannel(0)).unwrap_err();
        assert_eq!(fault.kind(), ErrorKind::Fault, "got: {fault}");
    });
    let reader = cfg.create_spe_process(&bereft, CP_MAIN, 1).unwrap();

    // Parked sink: it reads its go-signal only after main's burst is over,
    // so nothing drains the bounded channel while main saturates it and
    // the shed count is exact.
    let sink = SpeProgram::new("sink", 2048, |spe, _, _| {
        let n = spe.read_vec::<i32>(CpChannel(2)).unwrap()[0] as usize;
        for _ in 0..n {
            spe.read_vec::<i32>(CpChannel(1)).unwrap();
        }
    });
    let parked = cfg.create_spe_process(&sink, CP_MAIN, 2).unwrap();

    let broken = cfg.channel(victim, reader).build().unwrap();
    assert_eq!(broken.0, 0);
    let bounded = cfg
        .channel(CP_MAIN, parked)
        .capacity(2)
        .overload_policy(OverloadPolicy::Shed)
        .build()
        .unwrap();
    assert_eq!(bounded.0, 1);
    let gate = cfg.channel(CP_MAIN, parked).build().unwrap();
    assert_eq!(gate.0, 2);

    let report = cfg
        .run(move |cp| {
            let t_victim = cp.run_spe(victim, 0, 0).unwrap();
            let t_reader = cp.run_spe(reader, 0, 0).unwrap();
            let t_sink = cp.run_spe(parked, 0, 0).unwrap();

            // Backpressure leg: burst 6 into capacity 2 with the reader
            // parked — exactly 4 writes shed.
            let mut accepted = 0i32;
            let mut shed_errs = Vec::new();
            for i in 0..6i32 {
                match cp.write_slice(bounded, &[i]) {
                    Ok(()) => accepted += 1,
                    Err(e) => shed_errs.push(e),
                }
            }
            assert_eq!(accepted, 2);
            assert_eq!(shed_errs.len(), 4);
            for shed in &shed_errs {
                assert_eq!(shed.kind(), ErrorKind::Backpressure, "got: {shed}");
                assert_ne!(
                    shed.kind(),
                    ErrorKind::Fault,
                    "the matrix must keep overload distinct from faults"
                );
                let cause = shed
                    .source()
                    .expect("Backpressure chains its cause through source()")
                    .downcast_ref::<OverloadError>()
                    .expect("the cause is the structured OverloadError");
                assert_eq!(cause.channel, bounded.0);
                assert_eq!(cause.capacity, 2);
                assert_eq!(cause.policy, "shed");
            }

            cp.write_slice(gate, &[accepted]).unwrap();
            cp.wait_spe(t_sink);
            cp.wait_spe(t_reader);
            cp.wait_spe(t_victim);
        })
        .expect("both degradations are graceful: the run still completes");

    let cats: Vec<IncidentCategory> = report.incidents.iter().map(|i| i.category).collect();
    for needed in [
        IncidentCategory::SpeCrash,
        IncidentCategory::PeerLost,
        IncidentCategory::Overload,
        IncidentCategory::MessageShed,
    ] {
        assert!(cats.contains(&needed), "missing {needed:?} in {cats:?}");
    }
    let sheds = cats
        .iter()
        .filter(|&&c| c == IncidentCategory::MessageShed)
        .count();
    assert_eq!(sheds, 4, "one message-shed incident per refused write");
}

/// FNV-1a of an outcome text.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Six 64 KB round trips (past `MpiCosts::eager_limit`, so every leg over
/// the wire is an MPI rendezvous) between an SPE under `CP_MAIN` on node 0
/// and either an SPE under a rank on the other Cell (type 5) or that rank
/// itself (type 3), with node 0's Co-Pilot killed at `kill_us`. The run's
/// whole outcome as text: end time, dispatch count and incident log, or
/// the error with its per-process blocked-on report.
fn bulk_failover_outcome(type5: bool, kill_us: u64) -> String {
    use cellpilot::PiValue;
    use cp_simnet::RetryPolicy;
    const ROUNDS: u8 = 6;
    const FMT: &str = "%65536b";
    fn payload(i: u8) -> Vec<PiValue> {
        vec![PiValue::Byte((0..65536u32).map(|k| k as u8 ^ i).collect())]
    }

    let at = SimTime::ZERO + SimDuration::from_micros(kill_us);
    let opts = CellPilotOpts::new()
        .with_time_limit(SimDuration::from_millis(500))
        .with_faults(Arc::new(FaultPlan::new().kill_copilot(NodeId(0), at)))
        .with_retry(RetryPolicy::default());
    let mut cfg = CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), opts);
    let ping = SpeProgram::new("ping", 2048, |spe, _, _| {
        for i in 0..ROUNDS {
            spe.write(CpChannel(0), FMT, &payload(i)).unwrap();
            assert_eq!(spe.read(CpChannel(1), FMT).unwrap(), payload(i));
        }
    });
    let echo = SpeProgram::new("echo", 2048, |spe, _, _| {
        for _ in 0..ROUNDS {
            let v = spe.read(CpChannel(0), FMT).unwrap();
            spe.write(CpChannel(1), FMT, &v).unwrap();
        }
    });
    let peer = cfg
        .create_process("peer", 0, move |cp, _| {
            if type5 {
                return cp.run_and_wait_my_spes();
            }
            for _ in 0..ROUNDS {
                let v = cp.read(CpChannel(0), FMT).unwrap();
                cp.write(CpChannel(1), FMT, &v).unwrap();
            }
        })
        .unwrap();
    let near = cfg.create_spe_process(&ping, CP_MAIN, 0).unwrap();
    let far = if type5 {
        cfg.create_spe_process(&echo, peer, 0).unwrap()
    } else {
        peer
    };
    cfg.channel(near, far).build().unwrap();
    cfg.channel(far, near).build().unwrap();
    match cfg.run(|cp| cp.run_and_wait_my_spes()) {
        Ok(r) => {
            let log: Vec<String> = r.incidents.iter().map(|i| i.to_string()).collect();
            format!("ok end={} dispatches={} {log:#?}", r.end_time, r.dispatches)
        }
        Err(e) => format!("failed: {e}"),
    }
}

/// A Co-Pilot kill with a 64 KB type-3 / type-5 transfer in flight ends
/// with the incident log, or the deadlock report process by process, that
/// it had before the Co-Pilot's helpers became components. Two instants
/// per type: one where the standby
/// recovers the run, one where the rendezvous the primary had started is
/// lost and the run ends diagnosed as a deadlock (ROADMAP item 1 owns
/// fixing that; this test only holds the behaviour still until it does).
#[test]
fn copilot_kill_with_64k_rendezvous_in_flight_ends_as_before() {
    for (type5, kill_us, starts, pinned) in [
        (true, 7_000, "ok end=", 0xa3f8_1916_1c3b_e75d_u64),
        (
            true,
            4_000,
            "failed: simulation deadlock at ",
            0xcf75_27f0_af80_512e,
        ),
        (false, 7_000, "ok end=", 0x3d9c_24a8_2814_8cd2),
        (
            false,
            4_000,
            "failed: simulation deadlock at ",
            0x89a5_ebee_fb94_928d,
        ),
    ] {
        let got = bulk_failover_outcome(type5, kill_us);
        assert!(
            got.starts_with(starts),
            "type5={type5} kill={kill_us}us: {got}"
        );
        assert_eq!(
            fnv1a(&got),
            pinned,
            "type5={type5} kill={kill_us}us moved (digest {:#018x}):\n{got}",
            fnv1a(&got)
        );
    }
}

/// The Co-Pilot kill swept over the six 64 KB round trips of
/// `bulk_failover_outcome`: node 0's Co-Pilot killed at every instant from
/// 1 ms to 46 ms in 1.5 ms steps, as `(kill µs, type-3 digest, type-5
/// digest)` of the outcome text. Each instant that ended before the proxy
/// tables were handed over through the kernel ends exactly as it did then.
/// Three type-5 instants (8.5, 25 and 41.5 ms) used to hang the host: the
/// standby's thread waited on a lock the primary held mid-rendezvous, so the
/// kernel never got the CPU back. Now the standby waits in the kernel, the
/// primary retires when it finds its mailbox taken over, and each ends as a
/// diagnosed simulation deadlock: the rendezvous in flight is lost, as at
/// 4 ms (ROADMAP item 1 owns adopting it). No report names a mailbox
/// watcher: there are none.
const KILL_SWEEP: [(u64, u64, u64); 31] = [
    (1000, 0x4710_0cc7_3595_0d12, 0xd427_5531_5ac8_1cfa),
    (2500, 0xba10_16d7_3348_a4c7, 0xa7c2_e943_2ddf_2478),
    (4000, 0x89a5_ebee_fb94_928d, 0xcf75_27f0_af80_512e),
    (5500, 0x4a7b_446c_a8d3_bb84, 0xfaf4_2a37_b8dd_ead4),
    (7000, 0x3d9c_24a8_2814_8cd2, 0xa3f8_1916_1c3b_e75d),
    (8500, 0x1758_5ac0_1291_7c80, 0x1c72_4d96_8408_fb9c),
    (10000, 0x82f0_84f9_8ed5_5fc3, 0x165e_6d91_589f_e721),
    (11500, 0x37fe_e199_33ab_4466, 0x51ee_2e39_b6c7_3c7c),
    (13000, 0xa7bf_b88f_5a86_417a, 0x51ee_2e39_b6c7_3c7c),
    (14500, 0xff65_d3a6_fecc_92f7, 0x4592_463e_a5af_ee9c),
    (16000, 0x52aa_42c1_32eb_fadb, 0x3be1_7622_e36a_c4c1),
    (17500, 0x1a29_3393_59f5_7e8c, 0xf480_5717_7b51_c4f7),
    (19000, 0x2ed1_d66c_a067_3356, 0x9244_1adc_265e_1e79),
    (20500, 0xba86_12a2_7b85_c40c, 0xcd7d_f77d_dc85_e3e0),
    (22000, 0xd0fe_a43d_f105_c727, 0x89a2_9d3a_ecf7_3789),
    (23500, 0x0aa9_cd97_a231_db3c, 0xcaca_8df6_a3a3_c8c2),
    (25000, 0x60ad_f21c_4bd2_ae30, 0x8e19_b5ca_ba0c_aa8e),
    (26500, 0x9626_22bc_f64f_ba1f, 0x1a3a_b46c_b672_5827),
    (28000, 0xf061_e2b4_3578_d415, 0x9f20_ca76_924c_4b40),
    (29500, 0x588c_e3b3_ff9b_6a98, 0x6829_8d88_9c88_6ed4),
    (31000, 0x5c71_0817_5550_4c19, 0x7a2f_d8f6_b4bd_6e16),
    (32500, 0xbb2d_0809_0a72_552c, 0x0011_b08f_ce12_8d51),
    (34000, 0x1500_c42a_d4df_a558, 0xdb4b_af7a_f18a_5829),
    (35500, 0x092e_2069_d9de_ac93, 0x122e_92a6_0bfb_556a),
    (37000, 0xdca0_32e8_6fc6_025e, 0x1b00_3503_e88a_d639),
    (38500, 0x5ae4_3ff9_c13a_e427, 0xe154_54d7_acb8_0fa8),
    (40000, 0x7842_4e31_446d_29d0, 0x85f3_7c33_3897_0c3f),
    (41500, 0x77e1_4f22_720e_881f, 0x82ee_d523_a0ae_e52e),
    (43000, 0xe992_19ce_f1a8_db30, 0x5982_9e53_6ad3_cdc3),
    (44500, 0x68f4_d974_b690_9d24, 0xc506_bc35_5ad7_6089),
    (46000, 0x0b75_3252_bad5_fac0, 0x5e0a_6b66_60cf_c8f9),
];

/// Run one column of [`KILL_SWEEP`], reporting every instant that moved.
fn assert_kill_sweep(type5: bool) {
    let moved: Vec<String> = KILL_SWEEP
        .iter()
        .filter_map(|&(kill_us, t3, t5)| {
            let got = bulk_failover_outcome(type5, kill_us);
            assert!(
                !got.contains("-watch-spe"),
                "kill={kill_us}us names a mailbox watcher:\n{got}"
            );
            let pinned = if type5 { t5 } else { t3 };
            (fnv1a(&got) != pinned)
                .then(|| format!("kill={kill_us}us (digest {:#018x}):\n{got}", fnv1a(&got)))
        })
        .collect();
    assert!(moved.is_empty(), "type5={type5}: {}", moved.join("\n\n"));
}

#[test]
fn copilot_kill_sweep_type3_ends_on_every_instant() {
    assert_kill_sweep(false);
}

#[test]
fn copilot_kill_sweep_type5_ends_on_every_instant() {
    assert_kill_sweep(true);
}
