//! End-to-end Pilot application tests: full configure→execute runs on the
//! simulated cluster.

use cp_des::{SimError, SimReport};
use cp_pilot::{pi_read, pi_write, BundleUsage, PiValue, PilotConfig, PilotOpts, PI_MAIN};
use cp_simnet::{ClusterSpec, NodeId, NodeKind};
use cp_trace::{render_trace, Op, Recorder};
use parking_lot::Mutex;
use std::sync::Arc;

fn commodity_spec(n: usize) -> ClusterSpec {
    ClusterSpec {
        nodes: vec![NodeKind::Commodity { cores: 4 }; n],
        ..ClusterSpec::two_cells_one_xeon()
    }
}

fn cfg_n(ranks: usize) -> PilotConfig {
    cfg_traced(ranks, PilotOpts::default(), &Recorder::disabled())
}

/// `ranks` commodity ranks, one per node, under `opts` recorded on `rec`.
fn cfg_traced(ranks: usize, opts: PilotOpts, rec: &Recorder) -> PilotConfig {
    let spec = commodity_spec(ranks);
    let placement = (0..ranks).map(NodeId).collect();
    PilotConfig::new(spec, placement, opts.with_tracing(rec.clone()))
}

#[test]
fn paper_style_write_read_roundtrip() {
    paper_roundtrip(&Recorder::disabled());
}

/// The paper's first example: PI_Write(workerdata, "%1000f", data).
fn paper_roundtrip(rec: &Recorder) -> SimReport {
    let mut cfg = cfg_traced(2, PilotOpts::new(), rec);
    let worker = cfg
        .create_process("worker", 0, |p, _| {
            let vals = pi_read!(p, cp_pilot::PiChannel(0), "%1000f");
            match &vals[0] {
                PiValue::Float32(v) => {
                    assert_eq!(v.len(), 1000);
                    assert_eq!(v[7], 7.0);
                }
                other => panic!("wrong type {other:?}"),
            }
        })
        .unwrap();
    let workerdata = cfg.create_channel(PI_MAIN, worker).unwrap();
    cfg.run(move |p| {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        pi_write!(p, workerdata, "%1000f", data);
    })
    .unwrap()
}

#[test]
fn star_format_reads_runtime_length() {
    let mut cfg = cfg_n(2);
    let worker = cfg
        .create_process("worker", 0, |p, _| {
            // "%*d" with "*" illustrating argument-supplied length.
            let vals = pi_read!(p, cp_pilot::PiChannel(0), "%*d");
            assert_eq!(vals[0], PiValue::Int32((0..100).collect()));
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, worker).unwrap();
    cfg.run(move |p| {
        let arr: Vec<i32> = (0..100).collect();
        pi_write!(p, chan, "%100d", arr);
    })
    .unwrap();
}

#[test]
fn multi_segment_message() {
    let mut cfg = cfg_n(2);
    let worker = cfg
        .create_process("worker", 0, |p, _| {
            let vals = pi_read!(p, cp_pilot::PiChannel(0), "%d %*lf %3c");
            assert_eq!(vals[0], PiValue::Int32(vec![42]));
            assert_eq!(vals[1], PiValue::Float64(vec![1.5, -2.5]));
            assert_eq!(vals[2], PiValue::Char(b"abc".to_vec()));
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, worker).unwrap();
    cfg.run(move |p| {
        let r = p.write(
            chan,
            "%d %2lf %3c",
            &[
                PiValue::Int32(vec![42]),
                PiValue::Float64(vec![1.5, -2.5]),
                PiValue::Char(b"abc".to_vec()),
            ],
        );
        r.unwrap();
    })
    .unwrap();
}

#[test]
fn index_parameter_distinguishes_instances() {
    // "The same function body can be associated with multiple processes,
    // and an index parameter can be passed so it can identify its own
    // instance."
    let mut cfg = cfg_n(4);
    let body = |p: &cp_pilot::Pilot, idx: i32| {
        pi_write!(p, cp_pilot::PiChannel(idx as usize), "%d", idx * 100);
    };
    let mut chans = Vec::new();
    for i in 0..3 {
        let proc = cfg.create_process("worker", i, body).unwrap();
        chans.push(cfg.create_channel(proc, PI_MAIN).unwrap());
    }
    cfg.run(move |p| {
        for (i, &c) in chans.iter().enumerate() {
            let vals = pi_read!(p, c, "%d");
            assert_eq!(vals[0], PiValue::Int32(vec![i as i32 * 100]));
        }
    })
    .unwrap();
}

#[test]
fn wrong_writer_aborts_with_location() {
    let mut cfg = cfg_n(3);
    let a = cfg
        .create_process("innocent", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(0), "%d");
        })
        .unwrap();
    let _intruder = cfg
        .create_process("intruder", 0, |p, _| {
            // Channel 0 belongs to main->innocent; this write must abort.
            pi_write!(p, cp_pilot::PiChannel(0), "%d", 1);
        })
        .unwrap();
    let _chan = cfg.create_channel(PI_MAIN, a).unwrap();
    match cfg.run(|_p| {}) {
        Err(SimError::Aborted { message, .. }) => {
            assert!(message.contains("intruder"), "{message}");
            assert!(message.contains("not the writer"), "{message}");
            assert!(message.contains("pilot_e2e.rs"), "source file: {message}");
        }
        other => panic!("expected abort, got {other:?}"),
    }
}

#[test]
fn format_mismatch_between_endpoints_aborts() {
    let mut cfg = cfg_n(2);
    let w = cfg
        .create_process("reader", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(0), "%5d"); // writer sends floats
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, w).unwrap();
    match cfg.run(move |p| {
        pi_write!(p, chan, "%5f", vec![0f32; 5]);
    }) {
        Err(SimError::Aborted { message, .. }) => {
            assert!(message.contains("disagrees with writer"), "{message}");
        }
        other => panic!("expected abort, got {other:?}"),
    }
}

#[test]
fn broadcast_bundle_mpmd_convention() {
    // Only the broadcaster calls broadcast; receivers call read.
    let n_workers = 5;
    let mut cfg = cfg_n(n_workers + 1);
    let mut chans = Vec::new();
    let mut procs = Vec::new();
    for i in 0..n_workers {
        let w = cfg
            .create_process("recv", i as i32, move |p, idx| {
                let vals = pi_read!(p, cp_pilot::PiChannel(idx as usize), "%4u");
                assert_eq!(vals[0], PiValue::UInt32(vec![10, 20, 30, 40]));
            })
            .unwrap();
        procs.push(w);
    }
    for &w in &procs {
        chans.push(cfg.create_channel(PI_MAIN, w).unwrap());
    }
    let bundle = cfg.create_bundle(BundleUsage::Broadcast, &chans).unwrap();
    cfg.run(move |p| {
        p.broadcast(bundle, "%4u", &[PiValue::UInt32(vec![10, 20, 30, 40])])
            .unwrap();
    })
    .unwrap();
}

#[test]
fn gather_bundle_collects_in_channel_order() {
    let n_workers = 4;
    let mut cfg = cfg_n(n_workers + 1);
    let mut chans = Vec::new();
    for i in 0..n_workers {
        let w = cfg
            .create_process("send", i as i32, move |p, idx| {
                pi_write!(p, cp_pilot::PiChannel(idx as usize), "%d", idx * 2);
            })
            .unwrap();
        chans.push(cfg.create_channel(w, PI_MAIN).unwrap());
    }
    let bundle = cfg.create_bundle(BundleUsage::Gather, &chans).unwrap();
    cfg.run(move |p| {
        let rows = p.gather(bundle, "%d").unwrap();
        let got: Vec<i32> = rows
            .iter()
            .map(|r| match &r[0] {
                PiValue::Int32(v) => v[0],
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![0, 2, 4, 6]);
    })
    .unwrap();
}

#[test]
fn select_returns_ready_channel() {
    let mut cfg = cfg_n(3);
    let fast = cfg
        .create_process("fast", 0, |p, _| {
            pi_write!(p, cp_pilot::PiChannel(0), "%b", 1u8);
        })
        .unwrap();
    let slow = cfg
        .create_process("slow", 0, |p, _| {
            p.ctx().advance(cp_des::SimDuration::from_millis(50));
            pi_write!(p, cp_pilot::PiChannel(1), "%b", 2u8);
        })
        .unwrap();
    let c_fast = cfg.create_channel(fast, PI_MAIN).unwrap();
    let c_slow = cfg.create_channel(slow, PI_MAIN).unwrap();
    let bundle = cfg
        .create_bundle(BundleUsage::Select, &[c_fast, c_slow])
        .unwrap();
    cfg.run(move |p| {
        let ready = p.select(bundle).unwrap();
        assert_eq!(ready, c_fast, "fast channel is ready first");
        let v = pi_read!(p, ready, "%b");
        assert_eq!(v[0], PiValue::Byte(vec![1]));
        // try_select: slow not ready yet right after the first message.
        let second = p.select(bundle).unwrap();
        assert_eq!(second, c_slow);
        let v = pi_read!(p, second, "%b");
        assert_eq!(v[0], PiValue::Byte(vec![2]));
    })
    .unwrap();
}

#[test]
fn channel_has_data_nonblocking() {
    let mut cfg = cfg_n(2);
    let w = cfg
        .create_process("w", 0, |p, _| {
            p.ctx().advance(cp_des::SimDuration::from_millis(10));
            pi_write!(p, cp_pilot::PiChannel(0), "%d", 5);
        })
        .unwrap();
    let chan = cfg.create_channel(w, PI_MAIN).unwrap();
    cfg.run(move |p| {
        assert!(!p.channel_has_data(chan).unwrap());
        p.ctx().advance(cp_des::SimDuration::from_millis(20));
        assert!(p.channel_has_data(chan).unwrap());
        let _ = pi_read!(p, chan, "%d");
    })
    .unwrap();
}

#[test]
fn deadlock_service_diagnoses_circular_wait() {
    // Two processes each read before anyone writes: classic circular wait.
    // With -pisvc=d the Pilot service must name the deadlocked processes.
    let spec = commodity_spec(4);
    let placement = (0..4).map(NodeId).collect();
    let opts = PilotOpts {
        deadlock_detection: true,
        ..Default::default()
    };
    let mut cfg = PilotConfig::new(spec, placement, opts);
    let ping = cfg
        .create_process("ping", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(1), "%d"); // waits on pong
            pi_write!(p, cp_pilot::PiChannel(0), "%d", 1);
        })
        .unwrap();
    let pong = cfg
        .create_process("pong", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(0), "%d"); // waits on ping
            pi_write!(p, cp_pilot::PiChannel(1), "%d", 2);
        })
        .unwrap();
    let _c0 = cfg.create_channel(ping, pong).unwrap();
    let _c1 = cfg.create_channel(pong, ping).unwrap();
    match cfg.run(|_p| {}) {
        Err(SimError::Aborted { message, .. }) => {
            assert!(message.contains("DEADLOCK"), "{message}");
            assert!(
                message.contains("ping") && message.contains("pong"),
                "{message}"
            );
        }
        other => panic!("expected service abort, got {other:?}"),
    }
}

#[test]
fn deadlock_service_stays_quiet_on_healthy_pingpong() {
    dl_pingpong(&Recorder::disabled());
}

/// The grace-period logic must not flag a real exchange as deadlock.
fn dl_pingpong(rec: &Recorder) -> SimReport {
    let mut cfg = cfg_traced(4, PilotOpts::new().with_deadlock_service(), rec);
    let ping = cfg
        .create_process("ping", 0, |p, _| {
            for i in 0..20 {
                pi_write!(p, cp_pilot::PiChannel(0), "%d", i);
                let v = pi_read!(p, cp_pilot::PiChannel(1), "%d");
                assert_eq!(v[0], PiValue::Int32(vec![i]));
            }
        })
        .unwrap();
    let pong = cfg
        .create_process("pong", 0, |p, _| {
            for _ in 0..20 {
                let v = pi_read!(p, cp_pilot::PiChannel(0), "%d");
                let PiValue::Int32(x) = &v[0] else {
                    unreachable!()
                };
                pi_write!(p, cp_pilot::PiChannel(1), "%d", x[0]);
            }
        })
        .unwrap();
    let _c0 = cfg.create_channel(ping, pong).unwrap();
    let _c1 = cfg.create_channel(pong, ping).unwrap();
    cfg.run(|_p| {}).unwrap()
}

#[test]
fn without_service_deadlock_is_still_caught_by_simulator() {
    let mut cfg = cfg_n(3);
    let a = cfg
        .create_process("a", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(0), "%d");
        })
        .unwrap();
    let b = cfg
        .create_process("b", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(1), "%d");
        })
        .unwrap();
    let _c0 = cfg.create_channel(b, a).unwrap();
    let _c1 = cfg.create_channel(a, b).unwrap();
    match cfg.run(|_p| {}) {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert!(blocked.iter().any(|(_, n, _)| n == "a"));
            assert!(blocked.iter().any(|(_, n, _)| n == "b"));
        }
        other => panic!("expected simulator deadlock, got {other:?}"),
    }
}

#[test]
fn many_messages_preserve_order_and_content() {
    let mut cfg = cfg_n(2);
    let sink = cfg
        .create_process("sink", 0, |p, _| {
            let log = Arc::new(Mutex::new(Vec::new()));
            for _ in 0..50 {
                let v = pi_read!(p, cp_pilot::PiChannel(0), "%d");
                let PiValue::Int32(x) = &v[0] else {
                    unreachable!()
                };
                log.lock().push(x[0]);
            }
            let l = log.lock();
            assert_eq!(*l, (0..50).collect::<Vec<i32>>());
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, sink).unwrap();
    cfg.run(move |p| {
        for i in 0..50 {
            pi_write!(p, chan, "%d", i);
        }
    })
    .unwrap();
}

#[test]
fn every_datatype_travels_intact() {
    use cp_mpisim::LongDouble;
    let mut cfg = cfg_n(2);
    let w = cfg
        .create_process("w", 0, |p, _| {
            let v = pi_read!(
                p,
                cp_pilot::PiChannel(0),
                "%2b %2c %2hd %2d %2u %2ld %2f %2lf %2Lf"
            );
            assert_eq!(v[0], PiValue::Byte(vec![1, 255]));
            assert_eq!(v[1], PiValue::Char(b"hi".to_vec()));
            assert_eq!(v[2], PiValue::Int16(vec![-5, 300]));
            assert_eq!(v[3], PiValue::Int32(vec![i32::MIN, i32::MAX]));
            assert_eq!(v[4], PiValue::UInt32(vec![0, u32::MAX]));
            assert_eq!(v[5], PiValue::Int64(vec![i64::MIN, i64::MAX]));
            assert_eq!(v[6], PiValue::Float32(vec![1.5, -0.25]));
            assert_eq!(v[7], PiValue::Float64(vec![std::f64::consts::PI, -1.0]));
            assert_eq!(
                v[8],
                PiValue::LongDouble(vec![LongDouble(2.5), LongDouble(-9.0)])
            );
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, w).unwrap();
    cfg.run(move |p| {
        p.write(
            chan,
            "%2b %2c %2hd %2d %2u %2ld %2f %2lf %2Lf",
            &[
                PiValue::Byte(vec![1, 255]),
                PiValue::Char(b"hi".to_vec()),
                PiValue::Int16(vec![-5, 300]),
                PiValue::Int32(vec![i32::MIN, i32::MAX]),
                PiValue::UInt32(vec![0, u32::MAX]),
                PiValue::Int64(vec![i64::MIN, i64::MAX]),
                PiValue::Float32(vec![1.5, -0.25]),
                PiValue::Float64(vec![std::f64::consts::PI, -1.0]),
                PiValue::LongDouble(vec![LongDouble(2.5), LongDouble(-9.0)]),
            ],
        )
        .unwrap();
    })
    .unwrap();
}

#[test]
fn heterogeneous_endpoints_xeon_to_ppe() {
    // A Xeon-hosted process talks to a PPE-hosted process; MPI's canonical
    // wire format bridges word length and endianness.
    let spec = ClusterSpec::two_cells_one_xeon();
    let placement = vec![NodeId(2), NodeId(0)]; // main on Xeon, worker on Cell PPE
    let mut cfg = PilotConfig::new(spec, placement, PilotOpts::default());
    let w = cfg
        .create_process("on-ppe", 0, |p, _| {
            let v = pi_read!(p, cp_pilot::PiChannel(0), "%3ld");
            assert_eq!(v[0], PiValue::Int64(vec![1, -2, 3]));
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, w).unwrap();
    cfg.run(move |p| {
        pi_write!(p, chan, "%3ld", vec![1i64, -2, 3]);
    })
    .unwrap();
}

#[test]
fn op_log_records_pilot_calls_in_time_order() {
    // -pisvc=c: the recorder's op log shows every channel call, timestamped.
    let rec = Recorder::enabled();
    let mut cfg = PilotConfig::new(
        commodity_spec(2),
        (0..2).map(NodeId).collect(),
        PilotOpts {
            tracing: rec.clone(),
            ..Default::default()
        },
    );
    let w = cfg
        .create_process("worker", 0, |p, _| {
            let v = pi_read!(p, cp_pilot::PiChannel(0), "%d");
            pi_write!(p, cp_pilot::PiChannel(1), "%d", {
                let PiValue::Int32(x) = &v[0] else {
                    unreachable!()
                };
                x[0] + 1
            });
        })
        .unwrap();
    let c0 = cfg.create_channel(PI_MAIN, w).unwrap();
    let c1 = cfg.create_channel(w, PI_MAIN).unwrap();
    cfg.run(move |p| {
        pi_write!(p, c0, "%d", 5);
        let _ = pi_read!(p, c1, "%d");
    })
    .unwrap();
    let log = rec.ops();
    let ops: Vec<(Op, usize, &str)> = log.iter().map(|r| (r.op, r.subject, &*r.process)).collect();
    assert_eq!(
        ops,
        [
            (Op::RankWrite, 0, "main"),
            (Op::RankRead, 0, "worker"),
            (Op::RankWrite, 1, "worker"),
            (Op::RankRead, 1, "main"),
        ]
    );
    assert!(log.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // One switch: the same recorder also saw the MPI layer and the kernel.
    let snap = rec.snapshot();
    assert!(
        snap.mpi.sends >= 2,
        "two channel messages, plus PI_StopMain's"
    );
    assert!(snap.des.dispatches > 0);
}

#[test]
fn untraced_run_logs_no_ops() {
    let rec = Recorder::disabled();
    let mut cfg = PilotConfig::new(
        commodity_spec(2),
        (0..2).map(NodeId).collect(),
        PilotOpts::new().with_tracing(rec.clone()),
    );
    let w = cfg
        .create_process("worker", 0, |p, _| {
            let _ = pi_read!(p, cp_pilot::PiChannel(0), "%d");
        })
        .unwrap();
    let c0 = cfg.create_channel(PI_MAIN, w).unwrap();
    cfg.run(move |p| {
        pi_write!(p, c0, "%d", 1);
    })
    .unwrap();
    assert!(rec.ops().is_empty());
}

#[test]
fn broadcast_tree_spans_eleven_ranks() {
    bcast_tree(&Recorder::disabled());
}

/// A 10-receiver broadcast bundle exercises a 4-level binomial tree
/// (receivers forward inside their read calls).
fn bcast_tree(rec: &Recorder) -> SimReport {
    let n = 10;
    let mut cfg = cfg_traced(n + 1, PilotOpts::new(), rec);
    let mut chans = Vec::new();
    let mut procs = Vec::new();
    for i in 0..n {
        procs.push(
            cfg.create_process("r", i as i32, move |p, idx| {
                let vals = pi_read!(p, cp_pilot::PiChannel(idx as usize), "%*ld");
                assert_eq!(vals[0], PiValue::Int64((0..32).collect()));
            })
            .unwrap(),
        );
    }
    for &w in &procs {
        chans.push(cfg.create_channel(PI_MAIN, w).unwrap());
    }
    let bundle = cfg.create_bundle(BundleUsage::Broadcast, &chans).unwrap();
    cfg.run(move |p| {
        p.broadcast(bundle, "%32ld", &[PiValue::Int64((0..32).collect())])
            .unwrap();
    })
    .unwrap()
}

#[test]
fn typed_helpers_roundtrip() {
    let mut cfg = cfg_n(2);
    let worker = cfg
        .create_process("worker", 0, |p, _| {
            let ints = p.read_vec::<i32>(cp_pilot::PiChannel(0)).unwrap();
            assert_eq!(ints, vec![1, 2, 3]);
            let floats = p.read_vec::<f64>(cp_pilot::PiChannel(0)).unwrap();
            assert_eq!(floats, vec![0.5, -1.5]);
            let empty = p.read_vec::<u8>(cp_pilot::PiChannel(0)).unwrap();
            assert!(empty.is_empty());
        })
        .unwrap();
    let chan = cfg.create_channel(PI_MAIN, worker).unwrap();
    cfg.run(move |p| {
        p.write_slice(chan, &[1i32, 2, 3]).unwrap();
        p.write_slice(chan, &[0.5f64, -1.5]).unwrap();
        p.write_slice::<u8>(chan, &[]).unwrap();
    })
    .unwrap();
}

#[test]
fn builder_opts_match_field_style() {
    let built = PilotOpts::new()
        .with_deadlock_service()
        .with_tracing(Recorder::enabled())
        .with_channel_timeout(cp_des::SimDuration::from_millis(7));
    let field = PilotOpts {
        deadlock_detection: true,
        tracing: Recorder::enabled(),
        channel_timeout: Some(cp_des::SimDuration::from_millis(7)),
        ..Default::default()
    };
    assert_eq!(built.deadlock_detection, field.deadlock_detection);
    assert_eq!(built.tracing.is_enabled(), field.tracing.is_enabled());
    assert_eq!(built.channel_timeout, field.channel_timeout);
    assert!(built.faults.is_none());
    assert_eq!(built.retry.max_retries, field.retry.max_retries);
}

#[test]
fn read_times_out_under_channel_deadline() {
    read_deadline(&Recorder::disabled());
}

fn read_deadline(rec: &Recorder) -> SimReport {
    use cp_pilot::PilotError;
    let opts = PilotOpts::new().with_channel_timeout(cp_des::SimDuration::from_millis(5));
    let mut cfg = cfg_traced(2, opts, rec);
    let w = cfg
        .create_process("worker", 0, |p, _| {
            // Nobody ever writes channel 0: the read must fail after 5 ms
            // of virtual time instead of blocking forever.
            let before = p.ctx().now();
            match p.read(cp_pilot::PiChannel(0), "%d") {
                Err(PilotError::Timeout { channel: 0, .. }) => {}
                other => panic!("expected timeout, got {other:?}"),
            }
            let waited = p.ctx().now().since(before);
            assert!(waited >= cp_des::SimDuration::from_millis(5));
        })
        .unwrap();
    let _chan = cfg.create_channel(PI_MAIN, w).unwrap();
    let report = cfg.run(|_p| {}).unwrap();
    assert!(
        report.incidents.iter().any(
            |i| i.category == cp_des::IncidentCategory::ChannelTimeout && i.process == "worker"
        ),
        "{:?}",
        report.incidents
    );
    report
}

#[test]
fn rank_death_fails_only_touching_channels() {
    rank_death(&Recorder::disabled());
}

/// Blast radius: losing "victim" fails main's channel from victim but
/// leaves the bystander channel fully usable.
fn rank_death(rec: &Recorder) -> SimReport {
    use cp_des::SimTime;
    use cp_pilot::PilotError;
    use cp_simnet::FaultPlan;

    let plan = Arc::new(FaultPlan::new().kill_rank(1, SimTime(1_000_000))); // 1 ms
    let opts = PilotOpts::new()
        .with_channel_timeout(cp_des::SimDuration::from_millis(5))
        .with_faults(plan);
    let mut cfg = cfg_traced(3, opts, rec);
    let victim = cfg
        .create_process("victim", 0, |p, _| {
            // Dies at 1 ms without ever writing its channel.
            p.ctx().advance(cp_des::SimDuration::from_millis(2));
        })
        .unwrap();
    let bystander = cfg
        .create_process("bystander", 0, |p, _| {
            p.write_slice(cp_pilot::PiChannel(1), &[7i32]).unwrap();
        })
        .unwrap();
    let c_victim = cfg.create_channel(victim, PI_MAIN).unwrap();
    let c_by = cfg.create_channel(bystander, PI_MAIN).unwrap();
    let report = cfg
        .run(move |p| {
            match p.read(c_victim, "%d") {
                Err(PilotError::PeerLost { peer, .. }) => assert_eq!(peer, "victim"),
                other => panic!("expected PeerLost, got {other:?}"),
            }
            // The bystander channel is unaffected by the death.
            assert_eq!(p.read_vec::<i32>(c_by).unwrap(), vec![7]);
        })
        .unwrap();
    assert!(
        report
            .incidents
            .iter()
            .any(|i| i.category == cp_des::IncidentCategory::RankDeath),
        "{:?}",
        report.incidents
    );
    assert!(
        report
            .incidents
            .iter()
            .any(|i| i.category == cp_des::IncidentCategory::PeerLost),
        "{:?}",
        report.incidents
    );
    report
}

#[test]
fn write_to_dead_peer_errors() {
    use cp_des::SimTime;
    use cp_pilot::PilotError;
    use cp_simnet::FaultPlan;

    let spec = commodity_spec(2);
    let placement = (0..2).map(NodeId).collect();
    let plan = Arc::new(FaultPlan::new().kill_rank(1, SimTime(1_000_000)));
    let opts = PilotOpts::new().with_faults(plan);
    let mut cfg = PilotConfig::new(spec, placement, opts);
    let victim = cfg.create_process("victim", 0, |_p, _| {}).unwrap();
    let chan = cfg.create_channel(PI_MAIN, victim).unwrap();
    cfg.run(move |p| {
        p.ctx().advance(cp_des::SimDuration::from_millis(2));
        match p.write_slice(chan, &[1i32]) {
            Err(PilotError::PeerLost { peer, .. }) => assert_eq!(peer, "victim"),
            other => panic!("expected PeerLost, got {other:?}"),
        }
    })
    .unwrap();
}

#[test]
fn select_server_drains_clients_in_readiness_order() {
    select_server(&Recorder::disabled());
}

/// A server uses PI_Select in a loop to serve whichever client is ready —
/// the "Unix select" pattern the paper describes.
fn select_server(rec: &Recorder) -> SimReport {
    let n = 4;
    let mut cfg = cfg_traced(n + 1, PilotOpts::new(), rec);
    let mut chans = Vec::new();
    for i in 0..n {
        let w = cfg
            .create_process("client", i as i32, move |p, idx| {
                // Client i speaks up at t = (n - i) * 10ms: reverse order.
                let delay = (4 - idx as u64) * 10;
                p.ctx().advance(cp_des::SimDuration::from_millis(delay));
                pi_write!(p, cp_pilot::PiChannel(idx as usize), "%d", idx);
            })
            .unwrap();
        chans.push(cfg.create_channel(w, PI_MAIN).unwrap());
    }
    let bundle = cfg.create_bundle(BundleUsage::Select, &chans).unwrap();
    cfg.run(move |p| {
        let mut served = Vec::new();
        for _ in 0..n {
            let ready = p.select(bundle).unwrap();
            let vals = pi_read!(p, ready, "%d");
            let PiValue::Int32(v) = &vals[0] else {
                unreachable!()
            };
            served.push(v[0]);
        }
        // Readiness order is reverse client order.
        assert_eq!(served, vec![3, 2, 1, 0]);
    })
    .unwrap()
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Pilot's rank path, pinned: each scenario's `(end_time ns, dispatches,
/// hand-offs, FNV-1a of its rendered op log)`. Any change to the timing,
/// order or routing of Pilot's channel calls shows up here.
#[test]
fn rank_path_goldens() {
    type Scenario = fn(&Recorder) -> SimReport;
    /// `(end_time ns, dispatches, hand-offs, op-log digest)`.
    type Pin = (u64, u64, u64, u64);
    let pins: [(&str, Scenario, Pin); 6] = [
        (
            "paper round trip",
            paper_roundtrip,
            (315_149, 13, 5, 0x5584_9e55_2b2e_ca14),
        ),
        (
            "broadcast tree",
            bcast_tree,
            (448_757, 107, 56, 0xdb1f_67c3_9117_423a),
        ),
        (
            "select server",
            select_server,
            (40_182_247, 53, 17, 0x04fc_7b4b_0222_552d),
        ),
        (
            "read deadline",
            read_deadline,
            (5_140_000, 9, 5, 0xcbf2_9ce4_8422_2325),
        ),
        (
            "rank death",
            rank_death,
            (5_083_542, 17, 7, 0xdad9_5a35_797d_2210),
        ),
        (
            "deadlock-service ping-pong",
            dl_pingpong,
            (3_244_936, 423, 50, 0xf4d5_1f39_8c51_4108),
        ),
    ];
    for (name, scenario, pin) in pins {
        let rec = Recorder::enabled();
        let report = scenario(&rec);
        let got = (
            report.end_time.as_nanos(),
            report.dispatches,
            report.handoffs,
            fnv1a(&render_trace(&rec.ops())),
        );
        assert_eq!(got, pin, "{name} (digest {:#018x})", got.3);
    }
}

#[test]
fn try_select_rejects_a_caller_that_is_not_the_common_endpoint() {
    use cp_pilot::{PiBundle, PilotError};
    let mut cfg = cfg_n(2);
    let client = cfg
        .create_process("client", 0, |p, _| {
            // The bundle's channels are read by main: a probe of the
            // client's own mailbox could only ever come back empty.
            match p.try_select(PiBundle(0)) {
                Err(PilotError::BundleMisuse { bundle: 0, .. }) => {}
                other => panic!("expected BundleMisuse, got {other:?}"),
            }
            pi_write!(p, cp_pilot::PiChannel(0), "%d", 1);
        })
        .unwrap();
    let chan = cfg.create_channel(client, PI_MAIN).unwrap();
    let bundle = cfg.create_bundle(BundleUsage::Select, &[chan]).unwrap();
    assert_eq!(bundle, PiBundle(0));
    cfg.run(move |p| {
        let _ = pi_read!(p, chan, "%d");
    })
    .unwrap();
}

#[test]
fn deadlock_service_expects_no_finish_from_a_rank_the_plan_kills() {
    use cp_des::SimTime;
    use cp_pilot::PilotError;
    use cp_simnet::FaultPlan;

    // "victim" dies at 1 ms and never reaches PI_StopMain: the detector
    // must not wait for its finish, or the healthy rest of the run ends
    // as a simulation deadlock on the detector's receive.
    let plan = Arc::new(FaultPlan::new().kill_rank(1, SimTime(1_000_000)));
    let opts = PilotOpts::new()
        .with_deadlock_service()
        .with_channel_timeout(cp_des::SimDuration::from_millis(5))
        .with_faults(plan);
    let mut cfg = PilotConfig::new(commodity_spec(3), (0..3).map(NodeId).collect(), opts);
    let victim = cfg
        .create_process("victim", 0, |p, _| {
            p.ctx().advance(cp_des::SimDuration::from_millis(2));
        })
        .unwrap();
    let chan = cfg.create_channel(victim, PI_MAIN).unwrap();
    cfg.run(move |p| match p.read(chan, "%d") {
        Err(PilotError::PeerLost { peer, .. }) => assert_eq!(peer, "victim"),
        other => panic!("expected PeerLost, got {other:?}"),
    })
    .unwrap();
}

#[test]
fn broadcast_read_times_out_under_channel_deadline() {
    use cp_pilot::PilotError;
    // A broadcast bundle whose writer never broadcasts: each reader's
    // read is a receive from its tree parent, and the channel deadline
    // bounds it like any other read.
    let opts = PilotOpts::new().with_channel_timeout(cp_des::SimDuration::from_millis(5));
    let mut cfg = cfg_traced(3, opts, &Recorder::disabled());
    let mut chans = Vec::new();
    for i in 0..2 {
        let r = cfg
            .create_process("r", i, |p, idx| {
                let before = p.ctx().now();
                let chan = idx as usize;
                match p.read(cp_pilot::PiChannel(chan), "%d") {
                    Err(PilotError::Timeout { channel, .. }) if channel == chan => {}
                    other => panic!("expected a timeout on channel {chan}, got {other:?}"),
                }
                let waited = p.ctx().now().since(before);
                assert!(waited >= cp_des::SimDuration::from_millis(5));
            })
            .unwrap();
        chans.push(cfg.create_channel(PI_MAIN, r).unwrap());
    }
    cfg.create_bundle(BundleUsage::Broadcast, &chans).unwrap();
    let report = cfg.run(|_p| {}).unwrap();
    let timeouts = report
        .incidents
        .iter()
        .filter(|i| i.category == cp_des::IncidentCategory::ChannelTimeout)
        .count();
    assert_eq!(timeouts, 2, "{:?}", report.incidents);
}
