//! Experiment T-I: the paper's Table I channel-type taxonomy, asserted for
//! every endpoint pairing the classification function can see (this is the
//! "static" experiment of DESIGN.md's index) — plus golden-trace
//! regression tests: one pinned trace digest per channel type, with the
//! byte-identical-replay guarantee checked on every run.

use cellpilot::trace::TraceEvent;
use cellpilot::{
    classify, render_trace, CellPilotConfig, CellPilotOpts, ChannelKind, CpChannel, Location,
    SpeProgram, CP_MAIN,
};
use cp_des::SimReport;
use cp_simnet::{ClusterSpec, NodeId};

fn rank(node: usize) -> Location {
    Location::Rank {
        rank: node,
        node: NodeId(node),
    }
}

fn spe(node: usize, slot: usize) -> Location {
    Location::Spe {
        node: NodeId(node),
        slot,
    }
}

#[test]
fn table_one_is_exhaustive_over_endpoint_shapes() {
    // The five rows, plus the direction-insensitivity and the co-resident
    // rank case. Nodes: 0 and 1 are Cells, 2 is the Xeon.
    let cases = [
        // (a, b, expected)
        (rank(0), rank(1), ChannelKind::Type1), // PPE <-> remote PPE
        (rank(0), rank(2), ChannelKind::Type1), // PPE <-> non-Cell
        (rank(2), rank(1), ChannelKind::Type1), // non-Cell <-> PPE
        (rank(0), spe(0, 0), ChannelKind::Type2), // PPE <-> local SPE
        (rank(1), spe(0, 0), ChannelKind::Type3), // PPE <-> remote SPE
        (rank(2), spe(0, 0), ChannelKind::Type3), // non-Cell <-> remote SPE
        (spe(0, 0), spe(0, 1), ChannelKind::Type4), // SPE <-> local SPE
        (spe(0, 0), spe(1, 0), ChannelKind::Type5), // SPE <-> remote SPE
    ];
    for (a, b, expected) in cases {
        assert_eq!(classify(a, b), expected, "{a:?} <-> {b:?}");
        assert_eq!(classify(b, a), expected, "direction-insensitive");
    }
}

#[test]
fn every_kind_is_reachable() {
    use std::collections::HashSet;
    let locs = [rank(0), rank(1), rank(2), spe(0, 0), spe(0, 1), spe(1, 0)];
    let mut seen = HashSet::new();
    for &a in &locs {
        for &b in &locs {
            if a != b {
                seen.insert(classify(a, b));
            }
        }
    }
    assert_eq!(seen.len(), 5, "all five Table-I types occur: {seen:?}");
}

// ---------------------------------------------------------------------------
// Golden traces: each channel type runs a fixed 32-integer echo scenario
// under the default (FIFO, seed-0) schedule. The rendered trace is pinned by
// a FNV-1a digest — any change to timing, routing, or event order shows up
// as a digest drift here before it shows up anywhere else — and every
// scenario is run twice to re-assert byte-identical replay.
// ---------------------------------------------------------------------------

const PAYLOAD: usize = 32;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn data() -> Vec<i32> {
    (0..PAYLOAD as i32).collect()
}

/// Run `scenario` twice; assert non-empty byte-identical traces, the pinned
/// digest, and the pinned count of kernel hand-offs (dispatches that woke
/// another OS thread — the part of a run's host cost that is a property of
/// the program, not of the machine).
fn assert_golden(
    kind: ChannelKind,
    pinned: u64,
    handoffs: u64,
    scenario: impl Fn() -> (SimReport, Vec<TraceEvent>),
) {
    let (report, a) = scenario();
    let (again, b) = scenario();
    let (a, b) = (render_trace(&a), render_trace(&b));
    assert!(!a.is_empty(), "{kind} scenario produced no trace");
    assert_eq!(a, b, "{kind} replay must be byte-identical");
    assert_eq!(report.handoffs, again.handoffs, "{kind} hand-offs replay");
    assert_eq!(
        report.handoffs, handoffs,
        "{kind} hand-off count drifted ({} dispatches)",
        report.dispatches
    );
    assert_eq!(
        fnv1a(&a),
        pinned,
        "{kind} trace digest drifted (got {:#018x}); current trace:\n{a}",
        fnv1a(&a)
    );
}

fn traced_cfg() -> CellPilotConfig {
    CellPilotConfig::one_rank_per_node(
        ClusterSpec::two_cells_one_xeon(),
        CellPilotOpts::new().with_trace(),
    )
}

/// Type 1: PPE rank 0 <-> PPE rank 1 on another node, pure Pilot/MPI path.
#[test]
fn golden_trace_type1_rank_to_rank() {
    assert_golden(ChannelKind::Type1, 0xcb00_3640_5a3d_da16, 5, || {
        let mut cfg = traced_cfg();
        let worker = cfg
            .create_process("worker", 0, |cp, _| {
                let v = cp.read_vec::<i32>(CpChannel(0)).unwrap();
                cp.write_slice(CpChannel(1), &v).unwrap();
            })
            .unwrap();
        let out = cfg.channel(CP_MAIN, worker).build().unwrap();
        let back = cfg.channel(worker, CP_MAIN).build().unwrap();
        assert_eq!(cfg.channel_kind(out).unwrap(), ChannelKind::Type1);
        cfg.run_traced(move |cp| {
            cp.write_slice(out, &data()).unwrap();
            assert_eq!(cp.read_vec::<i32>(back).unwrap(), data());
        })
        .unwrap()
    });
}

/// The Type-1 golden scenario with both channels bounded far above their
/// actual traffic: below capacity the credit check is a pure lock-guarded
/// branch (no virtual time, no kernel events), so the trace must match
/// the unbounded scenario's pinned digest *byte for byte*. This is the
/// determinism contract of flow control — bounding a channel you never
/// saturate changes nothing.
#[test]
fn golden_trace_unchanged_by_large_capacities() {
    assert_golden(ChannelKind::Type1, 0xcb00_3640_5a3d_da16, 5, || {
        let mut cfg = traced_cfg();
        let worker = cfg
            .create_process("worker", 0, |cp, _| {
                let v = cp.read_vec::<i32>(CpChannel(0)).unwrap();
                cp.write_slice(CpChannel(1), &v).unwrap();
            })
            .unwrap();
        let out = cfg.channel(CP_MAIN, worker).capacity(1024).build().unwrap();
        let back = cfg.channel(worker, CP_MAIN).capacity(1024).build().unwrap();
        cfg.run_traced(move |cp| {
            cp.write_slice(out, &data()).unwrap();
            assert_eq!(cp.read_vec::<i32>(back).unwrap(), data());
        })
        .unwrap()
    });
}

/// Type 2: PPE rank <-> SPE on the same Cell node, via that node's
/// Co-Pilot.
#[test]
fn golden_trace_type2_rank_to_local_spe() {
    assert_golden(ChannelKind::Type2, 0x6753_a07b_3455_70fd, 7, || {
        let mut cfg = traced_cfg();
        let prog = SpeProgram::new("echo", 2048, |spe, _, _| {
            let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
            spe.write_slice(CpChannel(1), &v).unwrap();
        });
        let spe = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
        let to_spe = cfg.channel(CP_MAIN, spe).build().unwrap();
        let back = cfg.channel(spe, CP_MAIN).build().unwrap();
        assert_eq!(cfg.channel_kind(to_spe).unwrap(), ChannelKind::Type2);
        cfg.run_traced(move |cp| {
            let task = cp.run_spe(spe, 0, 0).unwrap();
            cp.write_slice(to_spe, &data()).unwrap();
            assert_eq!(cp.read_vec::<i32>(back).unwrap(), data());
            cp.wait_spe(task);
        })
        .unwrap()
    });
}

/// Type 3: remote PPE rank <-> SPE, relayed by the SPE node's Co-Pilot.
#[test]
fn golden_trace_type3_rank_to_remote_spe() {
    assert_golden(ChannelKind::Type3, 0x906c_d23f_4df4_9fe2, 7, || {
        let mut cfg = traced_cfg();
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
        let _back = cfg.channel(worker, spe).build().unwrap();
        assert_eq!(cfg.channel_kind(out).unwrap(), ChannelKind::Type3);
        cfg.run_traced(move |cp| cp.run_and_wait_my_spes()).unwrap()
    });
}

/// Type 4: two SPEs on one Cell node, paired locally by their shared
/// Co-Pilot.
#[test]
fn golden_trace_type4_spe_to_local_spe() {
    assert_golden(ChannelKind::Type4, 0x4330_0edc_02f1_c124, 11, || {
        let mut cfg = traced_cfg();
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
        let ab = cfg.channel(pa, pb).build().unwrap();
        let _ba = cfg.channel(pb, pa).build().unwrap();
        assert_eq!(cfg.channel_kind(ab).unwrap(), ChannelKind::Type4);
        cfg.run_traced(move |cp| cp.run_and_wait_my_spes()).unwrap()
    });
}

/// Type 5: SPEs on two different Cell nodes, relayed by both Co-Pilots.
#[test]
fn golden_trace_type5_spe_to_remote_spe() {
    assert_golden(ChannelKind::Type5, 0x2686_3d58_dd8f_6264, 15, || {
        let mut cfg = traced_cfg();
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
        let xy = cfg.channel(px, py).build().unwrap();
        let _yx = cfg.channel(py, px).build().unwrap();
        assert_eq!(cfg.channel_kind(xy).unwrap(), ChannelKind::Type5);
        cfg.run_traced(move |cp| cp.run_and_wait_my_spes()).unwrap()
    });
}
