//! Correctness matrix: every Table-I channel type, both directions,
//! 1-byte and 1600-byte payloads (the two sizes of Table II), plus
//! SPE-specific failure modes.

use cellpilot::{
    CellPilotConfig, CellPilotOpts, ChannelKind, CpChannel, CpError, SpeProgram, CP_MAIN,
};
use cp_mpisim::LongDouble;
use cp_pilot::PiValue;
use cp_pilot::PilotError;
use cp_simnet::ClusterSpec;

fn payload_small() -> Vec<PiValue> {
    vec![PiValue::Byte(vec![0x5A])]
}

fn payload_array() -> Vec<PiValue> {
    vec![PiValue::LongDouble(
        (0..100).map(|i| LongDouble(i as f64 * 0.5)).collect(),
    )]
}

/// Build a two-Cell+Xeon app with one channel between the named endpoint
/// kinds, run a one-way transfer of each payload, and assert integrity.
fn run_matrix_case(kind: ChannelKind, spe_writer: bool) {
    for (fmt_w, fmt_r, payload) in [
        ("%b", "%b", payload_small()),
        ("%100Lf", "%*Lf", payload_array()),
    ] {
        let spec = ClusterSpec::two_cells_one_xeon();
        let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
        let expected = payload.clone();
        let payload2 = payload.clone();

        let writer_prog = SpeProgram::new("writer", 2048, move |spe, _, _| {
            spe.write(CpChannel(0), fmt_w, &payload2).unwrap();
        });
        let expected2 = expected.clone();
        let reader_prog = SpeProgram::new("reader", 2048, move |spe, _, _| {
            let vals = spe.read(CpChannel(0), fmt_r).unwrap();
            assert_eq!(vals, expected2);
        });

        // Process layout per channel kind. `main` lives on node 0 (a Cell
        // node's PPE); `ppe1` on node 1; `xeon` on node 2.
        let ppe1 = cfg
            .create_process("ppe1", 0, move |cp, _| {
                // Runs any SPE children assigned to it by the scenario.
                let mine: Vec<_> = (0..cp.process_count())
                    .map(cellpilot::CpProcess)
                    .filter(|p| cp.run_spe(*p, 0, 0).is_ok())
                    .collect();
                let _ = mine;
            })
            .unwrap();

        let (from, to);
        match (kind, spe_writer) {
            (ChannelKind::Type1, _) => {
                from = CP_MAIN;
                to = ppe1;
            }
            (ChannelKind::Type2, true) => {
                from = cfg.create_spe_process(&writer_prog, CP_MAIN, 0).unwrap();
                to = CP_MAIN;
            }
            (ChannelKind::Type2, false) => {
                from = CP_MAIN;
                to = cfg.create_spe_process(&reader_prog, CP_MAIN, 0).unwrap();
            }
            (ChannelKind::Type3, true) => {
                from = cfg.create_spe_process(&writer_prog, ppe1, 0).unwrap();
                to = CP_MAIN;
            }
            (ChannelKind::Type3, false) => {
                from = CP_MAIN;
                to = cfg.create_spe_process(&reader_prog, ppe1, 0).unwrap();
            }
            (ChannelKind::Type4, _) => {
                from = cfg.create_spe_process(&writer_prog, CP_MAIN, 0).unwrap();
                to = cfg.create_spe_process(&reader_prog, CP_MAIN, 1).unwrap();
            }
            (ChannelKind::Type5, _) => {
                from = cfg.create_spe_process(&writer_prog, CP_MAIN, 0).unwrap();
                to = cfg.create_spe_process(&reader_prog, ppe1, 0).unwrap();
            }
        }
        let chan = cfg.channel(from, to).build().unwrap();
        assert_eq!(chan, CpChannel(0));
        assert_eq!(cfg.channel_kind(chan), Some(kind), "classification");

        cfg.run(move |cp| {
            // Start any SPE children parented by main.
            for p in 0..cp.process_count() {
                let _ = cp.run_spe(cellpilot::CpProcess(p), 0, 0);
            }
            // Main plays rank endpoint when the scenario needs it.
            match (kind, spe_writer) {
                (ChannelKind::Type1, _) => {
                    cp.write(chan, fmt_w, &payload).unwrap();
                }
                (ChannelKind::Type2, true) | (ChannelKind::Type3, true) => {
                    let vals = cp.read(chan, fmt_r).unwrap();
                    assert_eq!(vals, expected);
                }
                (ChannelKind::Type2, false) | (ChannelKind::Type3, false) => {
                    cp.write(chan, fmt_w, &payload).unwrap();
                }
                _ => {}
            }
        })
        .unwrap();
        // Type1 reader side runs in ppe1's body? No: ppe1 only launches
        // SPEs. For Type1 we instead read here:
        if kind == ChannelKind::Type1 {
            // covered in dedicated test below
        }
    }
}

#[test]
fn type2_both_directions() {
    run_matrix_case(ChannelKind::Type2, true);
    run_matrix_case(ChannelKind::Type2, false);
}

#[test]
fn type3_both_directions() {
    run_matrix_case(ChannelKind::Type3, true);
    run_matrix_case(ChannelKind::Type3, false);
}

#[test]
fn type4_spe_to_spe_local() {
    run_matrix_case(ChannelKind::Type4, true);
}

#[test]
fn type5_spe_to_spe_remote() {
    run_matrix_case(ChannelKind::Type5, true);
}

#[test]
fn type1_rank_to_rank() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let reader = cfg
        .create_process("reader", 0, |cp, _| {
            let vals = cp.read(CpChannel(0), "%*Lf").unwrap();
            assert_eq!(vals[0].len(), 100);
        })
        .unwrap();
    let chan = cfg.channel(CP_MAIN, reader).build().unwrap();
    assert_eq!(cfg.channel_kind(chan), Some(ChannelKind::Type1));
    cfg.run(move |cp| {
        cp.write(chan, "%100Lf", &payload_array()).unwrap();
    })
    .unwrap();
}

#[test]
fn xeon_to_spe_is_type3_and_works() {
    // Non-Cell (Xeon) endpoint to a remote SPE — the "or non-Cell" half of
    // the type-3 row.
    let spec = ClusterSpec::two_cells_one_xeon();
    // main on the Xeon node, one PPE process on Cell node 0.
    let placement = vec![cp_simnet::NodeId(2), cp_simnet::NodeId(0)];
    let mut cfg = CellPilotConfig::new(spec, placement, CellPilotOpts::default());
    let reader_prog = SpeProgram::new("reader", 2048, |spe, _, _| {
        let vals = spe.read(CpChannel(0), "%3d").unwrap();
        assert_eq!(vals[0], PiValue::Int32(vec![7, 8, 9]));
    });
    let ppe = cfg
        .create_process("ppe", 0, |cp, _| {
            let t = cp.run_spe(cellpilot::CpProcess(2), 0, 0).unwrap();
            cp.wait_spe(t);
        })
        .unwrap();
    let spe = cfg.create_spe_process(&reader_prog, ppe, 0).unwrap();
    let chan = cfg.channel(CP_MAIN, spe).build().unwrap();
    assert_eq!(cfg.channel_kind(chan), Some(ChannelKind::Type3));
    cfg.run(move |cp| {
        cp.write(chan, "%3d", &[PiValue::Int32(vec![7, 8, 9])])
            .unwrap();
    })
    .unwrap();
}

#[test]
fn spe_ping_pong_many_rounds() {
    // Sustained bidirectional type-4 traffic through one Co-Pilot.
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let rounds = 25i32;
    let ping = SpeProgram::new("ping", 2048, move |spe, _, _| {
        for i in 0..rounds {
            spe.write(CpChannel(0), "%d", &[PiValue::Int32(vec![i])])
                .unwrap();
            let v = spe.read(CpChannel(1), "%d").unwrap();
            assert_eq!(v[0], PiValue::Int32(vec![i + 1000]));
        }
    });
    let pong = SpeProgram::new("pong", 2048, move |spe, _, _| {
        for _ in 0..rounds {
            let v = spe.read(CpChannel(0), "%d").unwrap();
            let PiValue::Int32(x) = &v[0] else {
                unreachable!()
            };
            spe.write(CpChannel(1), "%d", &[PiValue::Int32(vec![x[0] + 1000])])
                .unwrap();
        }
    });
    let a = cfg.create_spe_process(&ping, CP_MAIN, 0).unwrap();
    let b = cfg.create_spe_process(&pong, CP_MAIN, 1).unwrap();
    let c0 = cfg.channel(a, b).build().unwrap();
    let c1 = cfg.channel(b, a).build().unwrap();
    assert_eq!((c0, c1), (CpChannel(0), CpChannel(1)));
    cfg.run(move |cp| {
        let t1 = cp.run_spe(a, 0, 0).unwrap();
        let t2 = cp.run_spe(b, 0, 0).unwrap();
        cp.wait_spe(t1);
        cp.wait_spe(t2);
    })
    .unwrap();
}

#[test]
fn spe_buffer_overflow_reported() {
    // A %* read's default buffer can be exceeded by a huge message.
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let reader = SpeProgram::new("reader", 2048, |spe, _, _| {
        // Default limit is 16 KiB; the writer sends ~32 KiB.
        match spe.read(CpChannel(0), "%*d") {
            Err(CpError::SpeBufferOverflow { .. }) => {}
            other => panic!("expected overflow, got {other:?}"),
        }
    });
    let spe = cfg.create_spe_process(&reader, CP_MAIN, 0).unwrap();
    let chan = cfg.channel(CP_MAIN, spe).build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(cellpilot::CpProcess(1), 0, 0).unwrap();
        let big: Vec<i32> = vec![0; 8192];
        cp.write(chan, "%8192d", &[PiValue::Int32(big)]).unwrap();
        cp.wait_spe(t);
        let _ = chan;
    })
    .unwrap();
}

#[test]
fn wrong_spe_writer_aborts() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let intruder = SpeProgram::new("intruder", 2048, |spe, _, _| {
        match spe.write(CpChannel(0), "%b", &[PiValue::Byte(vec![1])]) {
            Err(CpError::Pilot(PilotError::NotWriter { channel: 0, .. })) => {}
            other => panic!("expected NotWriter, got {other:?}"),
        }
    });
    let a = cfg.create_spe_process(&intruder, CP_MAIN, 0).unwrap();
    let ppe1 = cfg.create_process("ppe1", 0, |_, _| {}).unwrap();
    // Channel 0 belongs to main -> ppe1, not the SPE.
    let _chan = cfg.channel(CP_MAIN, ppe1).build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(a, 0, 0).unwrap();
        cp.wait_spe(t);
        // The eager write below is buffered, so ppe1 exiting without
        // reading is harmless — the run completes.
        cp.write(CpChannel(0), "%b", &[PiValue::Byte(vec![9])])
            .unwrap();
    })
    .unwrap();
}

#[test]
fn run_spe_misuse_errors() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let prog = SpeProgram::new("w", 2048, |spe, _, _| {
        spe.ctx().advance(cp_des::SimDuration::from_millis(1));
    });
    let other_ppe = cfg
        .create_process("ppe1", 0, |cp, _| {
            // Not the parent of SPE process 2.
            match cp.run_spe(cellpilot::CpProcess(2), 0, 0) {
                Err(CpError::NotParent { .. }) => {}
                other => panic!("expected NotParent, got {other:?}"),
            }
        })
        .unwrap();
    let spe = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
    let _ = other_ppe;
    cfg.run(move |cp| {
        // Running a rank process is an error.
        match cp.run_spe(cellpilot::CpProcess(1), 0, 0) {
            Err(CpError::NotSpeProcess(1)) => {}
            other => panic!("expected NotSpeProcess, got {other:?}"),
        }
        let t = cp.run_spe(spe, 0, 0).unwrap();
        // Double-run while running is an error.
        match cp.run_spe(spe, 0, 0) {
            Err(CpError::AlreadyRunning(_)) => {}
            other => panic!("expected AlreadyRunning, got {other:?}"),
        }
        cp.wait_spe(t);
        // After completion it can be run again (load/reload pattern).
        let t2 = cp.run_spe(spe, 1, 0).unwrap();
        cp.wait_spe(t2);
    })
    .unwrap();
}

#[test]
fn spe_args_are_delivered() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let prog = SpeProgram::new("w", 2048, |spe, arg, ptr| {
        spe.write(
            CpChannel(0),
            "%d %ld",
            &[PiValue::Int32(vec![arg]), PiValue::Int64(vec![ptr as i64])],
        )
        .unwrap();
    });
    let spe = cfg.create_spe_process(&prog, CP_MAIN, 7).unwrap();
    let chan = cfg.channel(spe, CP_MAIN).build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(spe, 1234, 0xDEAD_BEEF).unwrap();
        let vals = cp.read(chan, "%d %ld").unwrap();
        assert_eq!(vals[0], PiValue::Int32(vec![1234]));
        assert_eq!(vals[1], PiValue::Int64(vec![0xDEAD_BEEF]));
        cp.wait_spe(t);
    })
    .unwrap();
}

#[test]
fn no_free_spe_is_reported() {
    // two_cells_one_xeon gives 8 SPEs per Cell node; occupy all 8, then a
    // 9th launch must fail, and succeed again once an SPE frees up.
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let hog = SpeProgram::new("hog", 2048, |spe, _, _| {
        spe.ctx().advance(cp_des::SimDuration::from_millis(5));
    });
    let mut procs = Vec::new();
    for i in 0..9 {
        procs.push(cfg.create_spe_process(&hog, CP_MAIN, i).unwrap());
    }
    cfg.run(move |cp| {
        let mut tasks = Vec::new();
        for p in &procs[..8] {
            tasks.push(cp.run_spe(*p, 0, 0).unwrap());
        }
        match cp.run_spe(procs[8], 0, 0) {
            Err(CpError::NoFreeSpe { node: 0 }) => {}
            other => panic!("expected NoFreeSpe, got {other:?}"),
        }
        for t in tasks {
            cp.wait_spe(t);
        }
        let t9 = cp.run_spe(procs[8], 0, 0).unwrap();
        cp.wait_spe(t9);
    })
    .unwrap();
}

#[test]
fn spe_channel_has_data_poll() {
    // The OP_POLL extension: an SPE can check for pending data without
    // blocking, then read it.
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let poller = SpeProgram::new("poller", 2048, |spe, _, _| {
        // Nothing written yet at t ~ startup.
        assert!(!spe.channel_has_data(CpChannel(0)).unwrap());
        // Announce readiness, then poll until the data shows up.
        spe.write(CpChannel(1), "%b", &[PiValue::Byte(vec![1])])
            .unwrap();
        while !spe.channel_has_data(CpChannel(0)).unwrap() {
            spe.ctx().advance(cp_des::SimDuration::from_micros(50));
        }
        let v = spe.read(CpChannel(0), "%d").unwrap();
        assert_eq!(v[0], PiValue::Int32(vec![77]));
        // Polling a channel I do not read is misuse.
        assert!(matches!(
            spe.channel_has_data(CpChannel(1)),
            Err(CpError::Pilot(PilotError::NotReader { .. }))
        ));
    });
    let s = cfg.create_spe_process(&poller, CP_MAIN, 0).unwrap();
    let to_spe = cfg.channel(CP_MAIN, s).build().unwrap();
    let from_spe = cfg.channel(s, CP_MAIN).build().unwrap();
    cfg.run(move |cp| {
        let t = cp.run_spe(s, 0, 0).unwrap();
        let _ = cp.read(from_spe, "%b").unwrap();
        cp.ctx().advance(cp_des::SimDuration::from_micros(500));
        cp.write(to_spe, "%d", &[PiValue::Int32(vec![77])]).unwrap();
        cp.wait_spe(t);
    })
    .unwrap();
}

#[test]
fn run_my_spes_launches_only_my_children() {
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::default());
    let worker = SpeProgram::new("w", 2048, |spe, arg, _| {
        // run_my_spes passes the configured index as arg_int.
        assert_eq!(arg, spe.index());
        spe.write(
            CpChannel(spe.index() as usize),
            "%d",
            &[PiValue::Int32(vec![arg * 5])],
        )
        .unwrap();
    });
    let host = cfg
        .create_process("host", 0, |cp, _| cp.run_and_wait_my_spes())
        .unwrap();
    let mut chans = Vec::new();
    for i in 0..3 {
        let parent = if i < 2 { CP_MAIN } else { host };
        let s = cfg.create_spe_process(&worker, parent, i).unwrap();
        chans.push(cfg.channel(s, CP_MAIN).build().unwrap());
    }
    cfg.run(move |cp| {
        let tasks = cp.run_my_spes();
        assert_eq!(tasks.len(), 2, "main parents exactly two SPE processes");
        for (i, &c) in chans.iter().enumerate() {
            let v = cp.read(c, "%d").unwrap();
            assert_eq!(v[0], PiValue::Int32(vec![i as i32 * 5]));
        }
        for t in tasks {
            cp.wait_spe(t);
        }
    })
    .unwrap();
}
