//! Experiment OS: the one-sided put/get path over the shared-memory window
//! fabric (DESIGN.md §16). Golden-trace digests pin the one-sided variants
//! of every SPE-read channel type (2–5) the way `channel_types.rs` pins
//! the relay path; property tests cover window-overlap rejection; fence
//! ordering, window overflow, exactly-once delivery across a supervised
//! writer crash, and window-ownership migration across a Co-Pilot failover
//! are each exercised end to end.

use cellpilot::{
    render_trace, CellPilotConfig, CellPilotOpts, ChannelKind, ChannelMode, CpChannel, CpError,
    SpeProgram, SupervisionPolicy, CP_MAIN,
};
use cp_des::{IncidentCategory, SimDuration, SimError, SimReport, SimTime};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId};
use cp_trace::{Op, OpEvent, Recorder};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const PAYLOAD: usize = 32;

fn data() -> Vec<i32> {
    (0..PAYLOAD as i32).collect()
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Run `scenario` twice; assert non-empty byte-identical traces and the
/// pinned digest — the same replay guarantee the relay goldens make, on
/// the put/get path.
fn assert_golden(kind: ChannelKind, pinned: u64, scenario: impl Fn() -> String) {
    let a = scenario();
    let b = scenario();
    assert!(!a.is_empty(), "{kind} scenario produced no trace");
    assert_eq!(a, b, "{kind} one-sided replay must be byte-identical");
    assert_eq!(
        fnv1a(&a),
        pinned,
        "{kind} one-sided trace digest drifted (got {:#018x}); current trace:\n{a}",
        fnv1a(&a)
    );
}

fn traced_cfg(rec: &Recorder) -> CellPilotConfig {
    CellPilotConfig::one_rank_per_node(
        ClusterSpec::two_cells_one_xeon(),
        CellPilotOpts::new().with_tracing(rec.clone()),
    )
}

/// Type 2, one-sided forward leg: main's write lands in the local SPE's
/// window; the ack leg has a rank reader and stays rendezvous.
#[test]
fn golden_one_sided_type2() {
    assert_golden(ChannelKind::Type2, 0xe3f1_3e79_d73a_6949, || {
        let rec = Recorder::enabled();
        let mut cfg = traced_cfg(&rec);
        let prog = SpeProgram::new("echo", 2048, |spe, _, _| {
            let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
            spe.write_slice(CpChannel(1), &v).unwrap();
        });
        let spe = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
        let to_spe = cfg.channel(CP_MAIN, spe).one_sided().build().unwrap();
        let back = cfg.channel(spe, CP_MAIN).build().unwrap();
        assert_eq!(cfg.channel_kind(to_spe).unwrap(), ChannelKind::Type2);
        assert_eq!(cfg.channel_mode(to_spe), Some(ChannelMode::OneSided));
        assert_eq!(cfg.channel_mode(back), Some(ChannelMode::Rendezvous));
        cfg.run(move |cp| {
            let task = cp.run_spe(spe, 0, 0).unwrap();
            cp.write_slice(to_spe, &data()).unwrap();
            assert_eq!(cp.read_vec::<i32>(back).unwrap(), data());
            cp.wait_spe(task);
        })
        .unwrap();
        render_trace(&rec.ops())
    });
}

/// Type 3, one-sided toward the SPE: the remote rank's echo lands straight
/// in the SPE's window across the wire; the SPE→rank leg stays rendezvous.
#[test]
fn golden_one_sided_type3() {
    assert_golden(ChannelKind::Type3, 0xfd87_97c6_dbde_3814, || {
        let rec = Recorder::enabled();
        let mut cfg = traced_cfg(&rec);
        let prog = SpeProgram::new("src", 2048, |spe, _, _| {
            spe.write_slice(CpChannel(0), &data()).unwrap();
            assert_eq!(spe.read_vec::<i32>(CpChannel(1)).unwrap(), data());
        });
        let worker = cfg
            .create_process("worker", 0, |cp, _| {
                let v = cp.read_vec::<i32>(CpChannel(0)).unwrap();
                cp.write_slice(CpChannel(1), &v).unwrap();
            })
            .unwrap();
        let spe = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
        let out = cfg.channel(spe, worker).build().unwrap();
        let back = cfg.channel(worker, spe).one_sided().build().unwrap();
        assert_eq!(cfg.channel_kind(out).unwrap(), ChannelKind::Type3);
        assert_eq!(cfg.channel_mode(back), Some(ChannelMode::OneSided));
        cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap();
        render_trace(&rec.ops())
    });
}

/// Type 4, one-sided both ways: two same-node SPEs exchange through each
/// other's windows; the shared Co-Pilot never touches the data.
#[test]
fn golden_one_sided_type4() {
    assert_golden(ChannelKind::Type4, 0xc32c_0afb_775e_18f0, || {
        let rec = Recorder::enabled();
        let mut cfg = traced_cfg(&rec);
        let a = SpeProgram::new("a", 2048, |spe, _, _| {
            spe.write_slice(CpChannel(0), &data()).unwrap();
            assert_eq!(spe.read_vec::<i32>(CpChannel(1)).unwrap(), data());
        });
        let b = SpeProgram::new("b", 2048, |spe, _, _| {
            let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
            spe.write_slice(CpChannel(1), &v).unwrap();
        });
        let pa = cfg.create_spe_process(&a, CP_MAIN, 0).unwrap();
        let pb = cfg.create_spe_process(&b, CP_MAIN, 0).unwrap();
        let ab = cfg.channel(pa, pb).one_sided().build().unwrap();
        let _ba = cfg.channel(pb, pa).one_sided().build().unwrap();
        assert_eq!(cfg.channel_kind(ab).unwrap(), ChannelKind::Type4);
        cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap();
        render_trace(&rec.ops())
    });
}

/// Type 5, one-sided both ways: the paper's slowest pairing, now one hop —
/// remote SPE to remote SPE with no Co-Pilot relay on either side.
#[test]
fn golden_one_sided_type5() {
    assert_golden(ChannelKind::Type5, 0xc562_90a5_7660_6e19, || {
        let rec = Recorder::enabled();
        let mut cfg = traced_cfg(&rec);
        let x = SpeProgram::new("x", 2048, |spe, _, _| {
            spe.write_slice(CpChannel(0), &data()).unwrap();
            assert_eq!(spe.read_vec::<i32>(CpChannel(1)).unwrap(), data());
        });
        let y = SpeProgram::new("y", 2048, |spe, _, _| {
            let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
            spe.write_slice(CpChannel(1), &v).unwrap();
        });
        let parent = cfg
            .create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
            .unwrap();
        let px = cfg.create_spe_process(&x, CP_MAIN, 0).unwrap();
        let py = cfg.create_spe_process(&y, parent, 0).unwrap();
        let xy = cfg.channel(px, py).one_sided().build().unwrap();
        let _yx = cfg.channel(py, px).one_sided().build().unwrap();
        assert_eq!(cfg.channel_kind(xy).unwrap(), ChannelKind::Type5);
        cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap();
        render_trace(&rec.ops())
    });
}

/// `fence` blocks the writer until the reader has drained the window: the
/// rank writes twice back to back, fences, and only returns once a reader
/// that sat idle for 500 µs has taken both puts.
#[test]
fn fence_waits_for_the_window_to_drain() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new());
    let lazy = SpeProgram::new("lazy", 2048, |spe, _, _| {
        spe.ctx().advance(SimDuration::from_micros(500));
        assert_eq!(spe.read_vec::<i32>(CpChannel(0)).unwrap(), vec![1, 2]);
        assert_eq!(spe.read_vec::<i32>(CpChannel(0)).unwrap(), vec![3, 4]);
    });
    let s = cfg.create_spe_process(&lazy, CP_MAIN, 0).unwrap();
    let chan = cfg.channel(CP_MAIN, s).one_sided().build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        cp.write_slice(chan, &[1i32, 2]).unwrap();
        cp.write_slice(chan, &[3i32, 4]).unwrap();
        cp.fence(chan).unwrap();
        assert!(
            cp.ctx().now() >= SimTime::ZERO + SimDuration::from_micros(500),
            "fence returned at {} before the reader drained",
            cp.ctx().now()
        );
        cp.wait_spe(t);
    })
    .unwrap();
}

/// `fence` on a rendezvous channel is a window-misuse configuration error.
#[test]
fn fence_rejects_rendezvous_channels() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new());
    let prog = SpeProgram::new("echo", 2048, |spe, _, _| {
        let _ = spe.read_vec::<i32>(CpChannel(0)).unwrap();
    });
    let s = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
    let chan = cfg.channel(CP_MAIN, s).build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        match cp.fence(chan) {
            Err(CpError::WindowMisuse { channel, .. }) => assert_eq!(channel, chan.0),
            other => panic!("expected WindowMisuse, got {other:?}"),
        }
        cp.write_slice(chan, &[7i32]).unwrap();
        cp.wait_spe(t);
    })
    .unwrap();
}

/// A put larger than the reader's registered window is a buffer overflow
/// at the writer, not a corruption at the reader.
#[test]
fn put_larger_than_the_window_overflows() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new());
    let prog = SpeProgram::new("tiny", 2048, |spe, _, _| {
        assert_eq!(spe.read_vec::<i32>(CpChannel(0)).unwrap(), vec![9i32]);
    });
    let s = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
    // 32 bytes of window: a one-int message (13 wire bytes) fits, a
    // 32-int message (137 bytes) does not.
    let chan = cfg
        .channel(CP_MAIN, s)
        .one_sided()
        .window_at(4096, 32)
        .build()
        .unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        match cp.write_slice(chan, &data()) {
            Err(CpError::SpeBufferOverflow { channel, capacity }) => {
                assert_eq!(channel, chan.0);
                assert_eq!(capacity, 32);
            }
            other => panic!("expected SpeBufferOverflow, got {other:?}"),
        }
        cp.write_slice(chan, &[9i32]).unwrap();
        cp.wait_spe(t);
    })
    .unwrap();
}

/// Recovery harness over one-sided type-5 channels: a 5-round remote
/// SPE↔SPE ping-pong whose reader-side sequence of received messages is
/// the output recovery is judged against.
fn one_sided_ping_pong(
    plan: Option<Arc<FaultPlan>>,
    supervise: bool,
) -> (Vec<IncidentCategory>, Vec<OpEvent>, Vec<Vec<i32>>) {
    let (report, trace, out) = one_sided_ping_pong_run(plan, supervise);
    let cats = report.incidents.iter().map(|i| i.category).collect();
    (cats, trace, out)
}

/// [`one_sided_ping_pong`] with the whole report.
fn one_sided_ping_pong_run(
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
            assert_eq!(spe.read_vec::<i32>(CpChannel(1)).unwrap(), vec![i]);
        }
    });
    let collected: Arc<Mutex<Vec<Vec<i32>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = collected.clone();
    let reader = SpeProgram::new("reader", 2048, move |spe, _, _| {
        for i in 0..5i32 {
            let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
            sink.lock().unwrap().push(v);
            spe.write_slice(CpChannel(1), &[i]).unwrap();
        }
    });
    let parent = cfg
        .create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let w = cfg.create_spe_process(&writer, CP_MAIN, 0).unwrap();
    assert_eq!(w.0, 2, "fault plans in these tests target process id 2");
    let r = cfg.create_spe_process(&reader, parent, 0).unwrap();
    let fwd = cfg.channel(w, r).one_sided().build().unwrap();
    let _ack = cfg.channel(r, w).one_sided().build().unwrap();
    assert_eq!(cfg.channel_kind(fwd).unwrap(), ChannelKind::Type5);
    let report = cfg
        .run(move |cp| cp.run_and_wait_my_spes())
        .expect("recovery keeps the run alive");
    let out = std::mem::take(&mut *collected.lock().unwrap());
    (report, rec.ops(), out)
}

/// A run's incident log, one line per incident.
fn incident_log(report: &SimReport) -> Vec<String> {
    report.incidents.iter().map(|i| i.to_string()).collect()
}

/// Mid-stream instant: when the third one-sided delivery completed.
fn third_deliver_at(trace: &[OpEvent]) -> SimTime {
    trace
        .iter()
        .filter(|e| e.op == Op::OneSidedDeliver && e.subject == 0)
        .nth(2)
        .map(|e| SimTime(e.ts_ns))
        .expect("the golden run delivers five forward messages")
}

/// Killing the reader-side Co-Pilot mid-stream migrates window ownership
/// to the standby (`take_over_rank`) while puts keep landing: the
/// application output is byte-identical to the fault-free run and every
/// message is delivered exactly once.
#[test]
fn one_sided_survives_copilot_failover() {
    let (golden_cats, golden_trace, golden_out) = one_sided_ping_pong(None, false);
    assert!(golden_cats.is_empty(), "{golden_cats:?}");
    assert_eq!(golden_out.len(), 5);

    // The reader SPE lives on node 1 (child of `parent`); its Co-Pilot
    // owns the forward window.
    let plan = Arc::new(FaultPlan::new().kill_copilot(NodeId(1), third_deliver_at(&golden_trace)));
    let (report, trace, out) = one_sided_ping_pong_run(Some(plan), false);
    assert_eq!(out, golden_out, "failover must be application-invisible");
    let cats: Vec<_> = report.incidents.iter().map(|i| i.category).collect();
    assert!(cats.contains(&IncidentCategory::CopilotDeath), "{cats:?}");
    assert!(
        cats.contains(&IncidentCategory::CopilotFailover),
        "{cats:?}"
    );
    assert!(!cats.contains(&IncidentCategory::PeerLost), "{cats:?}");
    // The readers parked on their doorbells across the takeover are woken
    // by the puts that follow it: the incidents, and every delivery, keep
    // the instants the polling readers gave them.
    assert_eq!(
        incident_log(&report),
        [
            "[491.964us] copilot1 copilot-death: Co-Pilot on node 1 killed by fault plan at \
             491.964us",
            "[1600.000us] copilot1-standby copilot-failover: standby Co-Pilot (rank 5) adopting \
             node 1: primary silent since 400.000us",
        ]
    );
    assert_eq!(fnv1a(&render_trace(&trace)), 0x96a2_6858_9a8d_746e);
}

/// A supervised writer crash mid-stream restarts from the op journal; the
/// fabric's wire-seq dedup swallows any replayed put, so the reader still
/// observes every message exactly once, in order.
#[test]
fn one_sided_exactly_once_across_supervised_writer_crash() {
    let (golden_cats, golden_trace, golden_out) = one_sided_ping_pong(None, true);
    assert!(golden_cats.is_empty(), "{golden_cats:?}");

    let plan = Arc::new(FaultPlan::new().crash_spe(2, third_deliver_at(&golden_trace)));
    let (report, trace, out) = one_sided_ping_pong_run(Some(plan), true);
    assert_eq!(out, golden_out, "supervised recovery must be lossless");
    let cats: Vec<_> = report.incidents.iter().map(|i| i.category).collect();
    assert!(cats.contains(&IncidentCategory::SpeCrash), "{cats:?}");
    assert!(cats.contains(&IncidentCategory::SpeRestart), "{cats:?}");
    assert!(!cats.contains(&IncidentCategory::PeerLost), "{cats:?}");
    // The reader parked while its writer restarts is woken by the
    // restarted writer's put, at the instant the polling reader found it.
    assert_eq!(
        incident_log(&report),
        [
            "[562.435us] node0.spe0:writer spe-crash: SPE process 'writer#0' crashed \
             (scheduled at 491.964us)",
            "[562.435us] node0.spe0:writer spe-restart: restarting SPE process 'writer#0' from \
             its last acknowledged operation (attempt 1/2)",
        ]
    );
    assert_eq!(fnv1a(&render_trace(&trace)), 0x78fb_bec7_1be1_4da4);
}

// ---------------------------------------------------------------------------
// Wake sources of a parked reader. A one-sided reader with no put in flight
// parks on its window; each way its writer can be lost must end the read
// with `PeerLost` at the 1 µs doorbell tick where the polling reader used
// to notice, and a writer that never writes must end the run as a named
// deadlock.
// ---------------------------------------------------------------------------

/// A scripted writer loss in the middle of the run.
const LOSS_AT: SimTime = SimTime(2_500_500);

/// Three one-sided reads by an SPE reader under `CP_MAIN` on node 0 of a
/// writer that puts two 1-int messages and is then lost; the writer is a
/// rank on node 1 (`writer_rank`), or an SPE on node 1 that computes for
/// 5 ms before its third write. Each read's outcome with its instant, and
/// the run's incident log.
fn stranded_reader(opts: CellPilotOpts, writer_rank: bool) -> (Vec<String>, Vec<String>) {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let outcomes: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = outcomes.clone();
    let reader = SpeProgram::new("reader", 2048, move |spe, _, _| {
        for _ in 0..3 {
            let got = match spe.read_vec::<i32>(CpChannel(0)) {
                Ok(v) => format!("{v:?}"),
                Err(e) => e.to_string(),
            };
            sink.lock()
                .unwrap()
                .push(format!("{got} at {}", spe.ctx().now()));
        }
    });
    let writer_spe = SpeProgram::new("writer", 2048, |spe, _, _| {
        for i in 0..2 {
            spe.write_slice(CpChannel(0), &[i]).unwrap();
        }
        spe.ctx().advance(SimDuration::from_millis(5));
        let _ = spe.write_slice(CpChannel(0), &[2]);
    });
    let remote = cfg
        .create_process("remote", 0, move |cp, _| {
            if !writer_rank {
                return cp.run_and_wait_my_spes();
            }
            for i in 0..2 {
                cp.write_slice(CpChannel(0), &[i]).unwrap();
            }
        })
        .unwrap();
    let r = cfg.create_spe_process(&reader, CP_MAIN, 0).unwrap();
    let w = if writer_rank {
        remote
    } else {
        let w = cfg.create_spe_process(&writer_spe, remote, 0).unwrap();
        assert_eq!(w.0, 3, "fault plans in these tests target process id 3");
        w
    };
    cfg.channel(w, r).one_sided().build().unwrap();
    let report = cfg
        .run(|cp| cp.run_and_wait_my_spes())
        .expect("a lost writer fails the read, not the run");
    let outcomes = std::mem::take(&mut *outcomes.lock().unwrap());
    (outcomes, incident_log(&report))
}

#[test]
fn parked_reader_fails_at_its_rank_writers_scripted_death() {
    let plan = FaultPlan::new().kill_rank(1, LOSS_AT);
    let (outcomes, log) = stranded_reader(CellPilotOpts::new().with_faults(Arc::new(plan)), true);
    assert_eq!(
        outcomes,
        [
            "[0] at 216.622us",
            "[1] at 279.625us",
            "channel 0: peer process 'remote' was lost at 2500.625us",
        ]
    );
    assert_eq!(log, [
        "[2500.500us] reaper-rank1 rank-death: rank 1 killed by fault plan at 2500.500us",
        "[2500.625us] node0.spe0:reader peer-lost: SPE process 'reader#0' failing one-sided read on channel 0: writer 'remote' is lost",
    ]);
}

#[test]
fn parked_reader_fails_at_its_spe_writers_scripted_crash() {
    let plan = FaultPlan::new().crash_spe(3, LOSS_AT);
    let (outcomes, log) = stranded_reader(CellPilotOpts::new().with_faults(Arc::new(plan)), false);
    assert_eq!(
        outcomes,
        [
            "[0] at 219.622us",
            "[1] at 283.625us",
            "channel 0: peer process 'writer#0' was lost at 2500.625us",
        ]
    );
    assert_eq!(log, [
        "[2500.625us] node0.spe0:reader peer-lost: SPE process 'reader#0' failing one-sided read on channel 0: writer 'writer#0' is lost",
        "[5278.949us] node1.spe0:writer spe-crash: SPE process 'writer#0' crashed (scheduled at 2500.500us)",
    ]);
}

#[test]
fn parked_reader_is_woken_by_its_writers_abandonment() {
    let plan = FaultPlan::new().crash_spe(3, LOSS_AT);
    let opts = CellPilotOpts::new()
        .with_faults(Arc::new(plan))
        .with_supervision(SupervisionPolicy {
            max_restarts: 0,
            restart_delay: SimDuration::from_micros(50),
        });
    let (outcomes, log) = stranded_reader(opts, false);
    assert_eq!(
        outcomes,
        [
            "[0] at 219.622us",
            "[1] at 283.625us",
            "channel 0: peer process 'writer#0' was lost at 5279.625us",
        ]
    );
    assert_eq!(log, [
        "[5278.949us] node1.spe0:writer spe-abandoned: SPE process 'writer#0' abandoned after 0 restarts; its channels degrade to peer-lost",
        "[5278.949us] node1.spe0:writer spe-crash: SPE process 'writer#0' crashed (scheduled at 2500.500us)",
        "[5279.625us] node0.spe0:reader peer-lost: SPE process 'reader#0' failing one-sided read on channel 0: writer 'writer#0' is lost",
    ]);
}

/// A reader whose writer never writes stays parked: the run ends as a
/// deadlock that names it and what it waits on, well before its time
/// limit.
#[test]
fn reader_whose_writer_never_writes_is_a_named_deadlock() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let opts = CellPilotOpts::new().with_time_limit(SimDuration::from_millis(50));
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let reader = SpeProgram::new("reader", 2048, |spe, _, _| {
        let _ = spe.read_vec::<i32>(CpChannel(0));
    });
    let silent = cfg.create_process("silent", 0, |_, _| {}).unwrap();
    let r = cfg.create_spe_process(&reader, CP_MAIN, 0).unwrap();
    cfg.channel(silent, r).one_sided().build().unwrap();
    match cfg.run(|cp| cp.run_and_wait_my_spes()) {
        Err(SimError::Deadlock { blocked, .. }) => {
            let reader = blocked
                .iter()
                .find(|(_, name, _)| name == "node0.spe0:reader")
                .unwrap_or_else(|| panic!("the reader is not in {blocked:?}"));
            assert_eq!(reader.2, "one-sided window c0: doorbell (no put in flight)");
        }
        other => panic!("expected a deadlock naming the reader, got {other:?}"),
    }
}

/// A run that fails keeps its op log: the caller's clone of the recorder
/// still renders every op completed before the run deadlocked.
#[test]
fn deadlocked_run_keeps_its_op_log() {
    let rec = Recorder::enabled();
    let spec = ClusterSpec::two_cells_one_xeon();
    let opts = CellPilotOpts::new()
        .with_tracing(rec.clone())
        .with_time_limit(SimDuration::from_millis(50));
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let reader = SpeProgram::new("reader", 2048, |spe, _, _| {
        assert_eq!(spe.read_vec::<i32>(CpChannel(0)).unwrap(), data());
        let _ = spe.read_vec::<i32>(CpChannel(0));
    });
    let writer = cfg
        .create_process("writer", 0, |cp, _| {
            cp.write_slice(CpChannel(0), &data()).unwrap()
        })
        .unwrap();
    let r = cfg.create_spe_process(&reader, CP_MAIN, 0).unwrap();
    cfg.channel(writer, r).one_sided().build().unwrap();
    let result = cfg.run(|cp| cp.run_and_wait_my_spes());
    assert!(
        matches!(result, Err(SimError::Deadlock { .. })),
        "expected a deadlock, got {result:?}"
    );
    let ops: Vec<(Op, String)> = rec
        .ops()
        .iter()
        .map(|e| (e.op, e.process.to_string()))
        .collect();
    assert_eq!(
        ops,
        [
            (Op::RunSpe, "main".to_string()),
            (Op::OneSidedPut, "writer".to_string()),
            (Op::OneSidedDeliver, "reader#0".to_string()),
            (Op::SpeRead, "reader#0".to_string()),
        ]
    );
    let rendered = render_trace(&rec.ops());
    assert_eq!(rendered.lines().count(), 4, "{rendered}");
}

proptest! {
    /// CP011, property-checked: two explicit windows on the same SPE are
    /// flagged exactly when their byte ranges overlap.
    #[test]
    fn overlapping_explicit_windows_are_flagged(
        start1 in 0u32..8192,
        len1 in 1u32..2048,
        start2 in 0u32..8192,
        len2 in 1u32..2048,
    ) {
        let spec = ClusterSpec::two_cells_one_xeon();
        let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new());
        let prog = SpeProgram::new("w", 1024, |_, _, _| {});
        let s = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
        let ppe = cfg.create_process("ppe", 0, |_, _| {}).unwrap();
        cfg.channel(CP_MAIN, s)
            .one_sided()
            .window_at(start1, len1)
            .build()
            .unwrap();
        cfg.channel(ppe, s)
            .one_sided()
            .window_at(start2, len2)
            .build()
            .unwrap();
        let overlap = start1 < start2 + len2 && start2 < start1 + len1;
        let flagged = cfg
            .check()
            .iter()
            .any(|d| d.code.as_str() == "CP011");
        prop_assert_eq!(flagged, overlap, "windows ({}, {}) and ({}, {})", start1, len1, start2, len2);
    }
}
