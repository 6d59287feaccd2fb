//! SPE-inclusive collective operations (the paper's future-work
//! extension): broadcast and gather over bundles whose members mix PPE,
//! non-Cell, and SPE processes.

use cellpilot::{
    reduce_f64, CellPilotConfig, CellPilotOpts, CpBundleUsage, CpChannel, SpeProgram, CP_MAIN,
};
use cp_pilot::{PiValue, PilotError};
use cp_simnet::ClusterSpec;
use cp_trace::{Op, Recorder};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn broadcast_to_mixed_spe_and_rank_receivers() {
    // main broadcasts one array to: 2 SPEs on node 0, 2 SPEs on node 1,
    // and a rank process — five receivers, three destinations on the wire.
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let expected = PiValue::Int32((0..50).collect());
    let exp2 = expected.clone();

    let recv_prog = SpeProgram::new("recv", 2048, move |spe, _, _| {
        let vals = spe.read(CpChannel(spe.index() as usize), "%50d").unwrap();
        assert_eq!(vals[0], exp2);
    });
    let exp3 = expected.clone();
    let ppe1 = cfg
        .create_process("ppe1", 0, move |cp, _| {
            // Launch my SPE children, then read my own channel (id 4).
            let mut ts = Vec::new();
            for p in 0..cp.process_count() {
                if let Ok(t) = cp.run_spe(cellpilot::CpProcess(p), 0, 0) {
                    ts.push(t);
                }
            }
            let vals = cp.read(CpChannel(4), "%50d").unwrap();
            assert_eq!(vals[0], exp3);
            for t in ts {
                cp.wait_spe(t);
            }
        })
        .unwrap();
    let mut chans = Vec::new();
    for i in 0..2 {
        let s = cfg.create_spe_process(&recv_prog, CP_MAIN, i).unwrap();
        chans.push(cfg.channel(CP_MAIN, s).build().unwrap());
    }
    for i in 2..4 {
        let s = cfg.create_spe_process(&recv_prog, ppe1, i).unwrap();
        chans.push(cfg.channel(CP_MAIN, s).build().unwrap());
    }
    chans.push(cfg.channel(CP_MAIN, ppe1).build().unwrap());
    let bundle = cfg.create_bundle(CpBundleUsage::Broadcast, &chans).unwrap();
    cfg.run(move |cp| {
        let mut ts = Vec::new();
        for p in 0..cp.process_count() {
            if let Ok(t) = cp.run_spe(cellpilot::CpProcess(p), 0, 0) {
                ts.push(t);
            }
        }
        cp.broadcast(bundle, "%50d", std::slice::from_ref(&expected))
            .unwrap();
        for t in ts {
            cp.wait_spe(t);
        }
    })
    .unwrap();
}

#[test]
fn gather_from_spe_writers() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let send_prog = SpeProgram::new("send", 2048, |spe, _, _| {
        let idx = spe.index();
        let contribution = vec![idx as f64, idx as f64 * 10.0];
        spe.write(
            CpChannel(idx as usize),
            "%2lf",
            &[PiValue::Float64(contribution)],
        )
        .unwrap();
    });
    let mut chans = Vec::new();
    for i in 0..4 {
        let s = cfg.create_spe_process(&send_prog, CP_MAIN, i).unwrap();
        chans.push(cfg.channel(s, CP_MAIN).build().unwrap());
    }
    let bundle = cfg.create_bundle(CpBundleUsage::Gather, &chans).unwrap();
    cfg.run(move |cp| {
        let mut ts = Vec::new();
        for p in 0..cp.process_count() {
            if let Ok(t) = cp.run_spe(cellpilot::CpProcess(p), 0, 0) {
                ts.push(t);
            }
        }
        let rows = cp.gather(bundle, "%2lf").unwrap();
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], PiValue::Float64(vec![i as f64, i as f64 * 10.0]));
        }
        // The reduce helper composes with gather.
        let sum = reduce_f64(&rows, |a, b| a + b).unwrap();
        assert_eq!(sum, vec![0.0 + 1.0 + 2.0 + 3.0, 0.0 + 10.0 + 20.0 + 30.0]);
        for t in ts {
            cp.wait_spe(t);
        }
    })
    .unwrap();
}

#[test]
fn spe_common_endpoint_gathers_from_siblings() {
    // An SPE is the gather point for two sibling SPEs (all on one node).
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let send_prog = SpeProgram::new("send", 2048, |spe, _, _| {
        let idx = spe.index();
        spe.write(
            CpChannel(idx as usize),
            "%d",
            &[PiValue::Int32(vec![idx * 7])],
        )
        .unwrap();
    });
    let done: Arc<Mutex<bool>> = Arc::new(Mutex::new(false));
    let done2 = done.clone();
    let hub_prog = SpeProgram::new("hub", 2048, move |spe, _, _| {
        let rows = spe.gather(cellpilot::CpBundle(0), "%d").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], PiValue::Int32(vec![0]));
        assert_eq!(rows[1][0], PiValue::Int32(vec![7]));
        *done2.lock() = true;
    });
    let hub = cfg.create_spe_process(&hub_prog, CP_MAIN, 9).unwrap();
    let mut chans = Vec::new();
    for i in 0..2 {
        let s = cfg.create_spe_process(&send_prog, CP_MAIN, i).unwrap();
        chans.push(cfg.channel(s, hub).build().unwrap());
    }
    cfg.create_bundle(CpBundleUsage::Gather, &chans).unwrap();
    cfg.run(move |cp| {
        let mut ts = Vec::new();
        for p in 0..cp.process_count() {
            if let Ok(t) = cp.run_spe(cellpilot::CpProcess(p), 0, 0) {
                ts.push(t);
            }
        }
        for t in ts {
            cp.wait_spe(t);
        }
    })
    .unwrap();
    assert!(*done.lock());
}

#[test]
fn hierarchical_broadcast_beats_linear_writes() {
    // Broadcasting to 6 remote SPEs crosses the wire once (multicast to
    // their Co-Pilot) instead of six times. Compare against writing each
    // channel individually.
    fn run_broadcast(linear: bool) -> f64 {
        let spec = ClusterSpec::two_cells_one_xeon();
        let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
        let n = 6;
        let recv_prog = SpeProgram::new("recv", 2048, |spe, _, _| {
            let _ = spe.read(CpChannel(spe.index() as usize), "%100d").unwrap();
        });
        let ppe1 = cfg
            .create_process("ppe1", 0, move |cp, _| {
                let mut ts = Vec::new();
                for p in 0..cp.process_count() {
                    if let Ok(t) = cp.run_spe(cellpilot::CpProcess(p), 0, 0) {
                        ts.push(t);
                    }
                }
                for t in ts {
                    cp.wait_spe(t);
                }
            })
            .unwrap();
        let mut chans = Vec::new();
        for i in 0..n {
            let s = cfg.create_spe_process(&recv_prog, ppe1, i).unwrap();
            chans.push(cfg.channel(CP_MAIN, s).build().unwrap());
        }
        let bundle = cfg.create_bundle(CpBundleUsage::Broadcast, &chans).unwrap();
        let elapsed = Arc::new(Mutex::new(0.0f64));
        let el = elapsed.clone();
        cfg.run(move |cp| {
            let data = PiValue::Int32((0..100).collect());
            let t0 = cp.ctx().now();
            if linear {
                for &c in &chans {
                    cp.write(c, "%100d", std::slice::from_ref(&data)).unwrap();
                }
            } else {
                cp.broadcast(bundle, "%100d", &[data]).unwrap();
            }
            *el.lock() = (cp.ctx().now() - t0).as_micros_f64();
        })
        .unwrap();
        let v = *elapsed.lock();
        v
    }
    let linear = run_broadcast(true);
    let hierarchical = run_broadcast(false);
    assert!(
        hierarchical < linear / 2.0,
        "hierarchical {hierarchical} vs linear {linear}"
    );
}

#[test]
fn bundle_misuse_is_reported() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let a = cfg.create_process("a", 0, |_, _| {}).unwrap();
    let b = cfg.create_process("b", 0, |_, _| {}).unwrap();
    let c1 = cfg.channel(CP_MAIN, a).build().unwrap();
    let c2 = cfg.channel(CP_MAIN, b).build().unwrap();
    let c3 = cfg.channel(a, b).build().unwrap();
    // Mixed writers cannot form a broadcast bundle.
    assert!(matches!(
        cfg.create_bundle(CpBundleUsage::Broadcast, &[c1, c3]),
        Err(cellpilot::CpError::Pilot(PilotError::BundleCommonEndpoint))
    ));
    // Empty bundle.
    assert!(matches!(
        cfg.create_bundle(CpBundleUsage::Gather, &[]),
        Err(cellpilot::CpError::Pilot(PilotError::EmptyBundle))
    ));
    // Double membership.
    cfg.create_bundle(CpBundleUsage::Broadcast, &[c1, c2])
        .unwrap();
    assert!(matches!(
        cfg.create_bundle(CpBundleUsage::Broadcast, &[c1]),
        Err(cellpilot::CpError::Pilot(
            PilotError::ChannelAlreadyBundled(_)
        ))
    ));
}

#[test]
fn trace_records_channel_legs() {
    use cellpilot::CellPilotConfig;
    // A type-2 round trip with tracing on: the trace must show the rank
    // write, the Co-Pilot delivering into the SPE, the SPE's read, the
    // SPE's write serviced by the Co-Pilot, and the rank read — in time
    // order.
    let spec = ClusterSpec::two_cells_one_xeon();
    let rec = Recorder::enabled();
    let opts = cellpilot::CellPilotOpts::new().with_tracing(rec.clone());
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let echo = SpeProgram::new("echo", 2048, |spe, _, _| {
        let v = spe.read(CpChannel(0), "%d").unwrap();
        spe.write(CpChannel(1), "%d", &v).unwrap();
    });
    let s = cfg.create_spe_process(&echo, CP_MAIN, 0).unwrap();
    cfg.channel(CP_MAIN, s).build().unwrap();
    cfg.channel(s, CP_MAIN).build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        cp.write(CpChannel(0), "%d", &[PiValue::Int32(vec![5])])
            .unwrap();
        let _ = cp.read(CpChannel(1), "%d").unwrap();
        cp.wait_spe(t);
    })
    .unwrap();
    let trace = rec.ops();
    let ops: Vec<Op> = trace.iter().map(|e| e.op).collect();
    assert!(ops.contains(&Op::RunSpe));
    assert!(ops.contains(&Op::RankWrite));
    assert!(ops.contains(&Op::CopilotDeliver));
    assert!(ops.contains(&Op::SpeRead));
    assert!(ops.contains(&Op::SpeWrite));
    assert!(ops.contains(&Op::CopilotWrite));
    assert!(ops.contains(&Op::RankRead));
    // Monotone timestamps.
    assert!(trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // The render is printable.
    let rendered = cellpilot::render_trace(&trace);
    assert!(rendered.contains("copilot0"));
}

#[test]
fn select_over_mixed_writers() {
    // A select bundle with one SPE writer and one rank writer; select
    // returns whichever channel has data first.
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let slow_spe = SpeProgram::new("slow", 2048, |spe, _, _| {
        spe.ctx().advance(cp_des::SimDuration::from_millis(5));
        spe.write(CpChannel(0), "%b", &[PiValue::Byte(vec![1])])
            .unwrap();
    });
    let fast_rank = cfg
        .create_process("fast", 0, |cp, _| {
            cp.write(CpChannel(1), "%b", &[PiValue::Byte(vec![2])])
                .unwrap();
        })
        .unwrap();
    let s = cfg.create_spe_process(&slow_spe, CP_MAIN, 0).unwrap();
    let c0 = cfg.channel(s, CP_MAIN).build().unwrap();
    let c1 = cfg.channel(fast_rank, CP_MAIN).build().unwrap();
    let bundle = cfg.create_bundle(CpBundleUsage::Select, &[c0, c1]).unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        let first = cp.select(bundle).unwrap();
        assert_eq!(first, c1, "the rank writer wins the race");
        let v = cp.read(first, "%b").unwrap();
        assert_eq!(v[0], PiValue::Byte(vec![2]));
        // try_select: the slow SPE's message is not there yet.
        assert_eq!(cp.try_select(bundle).unwrap(), None);
        let second = cp.select(bundle).unwrap();
        assert_eq!(second, c0);
        let v = cp.read(second, "%b").unwrap();
        assert_eq!(v[0], PiValue::Byte(vec![1]));
        cp.wait_spe(t);
    })
    .unwrap();
}

#[test]
fn select_misuse_rejected() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let a = cfg.create_process("a", 0, |_, _| {}).unwrap();
    let c = cfg.channel(CP_MAIN, a).build().unwrap();
    let bundle = cfg.create_bundle(CpBundleUsage::Broadcast, &[c]).unwrap();
    cfg.run(move |cp| {
        // select on a broadcast bundle is misuse.
        assert!(matches!(
            cp.select(bundle),
            Err(cellpilot::CpError::Pilot(PilotError::BundleMisuse { .. }))
        ));
        cp.broadcast(bundle, "%b", &[PiValue::Byte(vec![0])])
            .unwrap();
    })
    .unwrap(); // the eager broadcast is buffered; 'a' exiting unread is fine
}

#[test]
fn type5_traverses_both_copilots_three_hops() {
    // The paper: "for SPEs of different nodes to intercommunicate requires
    // three hops involving two PPEs." The trace of a type-5 transfer must
    // show the writer's Co-Pilot (copilot0) making the MPI send and the
    // reader's Co-Pilot (copilot1) doing the local-store delivery, in
    // that order.
    let spec = ClusterSpec::two_cells_one_xeon();
    let rec = Recorder::enabled();
    let opts = CellPilotOpts::new().with_tracing(rec.clone());
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, opts);
    let sender = SpeProgram::new("snd", 2048, |spe, _, _| {
        spe.write(CpChannel(0), "%d", &[PiValue::Int32(vec![7])])
            .unwrap();
    });
    let receiver = SpeProgram::new("rcv", 2048, |spe, _, _| {
        let _ = spe.read(CpChannel(0), "%d").unwrap();
    });
    let parent = cfg
        .create_process("parent", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let a = cfg.create_spe_process(&sender, CP_MAIN, 0).unwrap();
    let b = cfg.create_spe_process(&receiver, parent, 0).unwrap();
    cfg.channel(a, b).build().unwrap();
    cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap();
    let trace = rec.ops();
    let hop_senders: Vec<&str> = trace
        .iter()
        .filter(|e| matches!(e.op, Op::CopilotWrite | Op::CopilotDeliver))
        .map(|e| &*e.process)
        .collect();
    assert_eq!(
        hop_senders,
        vec!["copilot0", "copilot1"],
        "writer's Co-Pilot relays, then reader's Co-Pilot delivers"
    );
    let w = trace.iter().find(|e| e.op == Op::CopilotWrite).unwrap();
    let d = trace.iter().find(|e| e.op == Op::CopilotDeliver).unwrap();
    // The wire separates the two Co-Pilot legs by at least its latency.
    assert!(
        d.ts_ns - w.ts_ns >= 60_000,
        "wire crossing between hops: {} ns -> {} ns",
        w.ts_ns,
        d.ts_ns
    );
}
