//! Experiment T-I: the paper's Table I channel-type taxonomy, asserted for
//! every endpoint pairing the classification function can see (this is the
//! "static" experiment of DESIGN.md's index) — plus golden-trace
//! regression tests: one pinned trace digest per channel type, with the
//! byte-identical-replay guarantee checked on every run.

use cellpilot::{
    classify, render_trace, CellPilotConfig, CellPilotOpts, ChannelKind, CpChannel, Location,
    PiValue, SpeProgram, CP_MAIN,
};
use cp_des::{SimDuration, SimReport};
use cp_simnet::{ClusterSpec, NodeId};
use cp_trace::{OpEvent, Recorder};

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

/// Run `scenario` twice traced; assert non-empty byte-identical traces,
/// the pinned digest, and the pinned count of kernel hand-offs (dispatches
/// that woke another OS thread — the part of a run's host cost that is a
/// property of the program, not of the machine). A third, untraced run
/// must take the same schedule: tracing observes a run, it never moves it.
fn assert_golden(
    kind: ChannelKind,
    pinned: u64,
    handoffs: u64,
    scenario: impl Fn(&Recorder) -> SimReport,
) {
    let traced = || {
        let rec = Recorder::enabled();
        let report = scenario(&rec);
        (report, render_trace(&rec.ops()))
    };
    let (report, a) = traced();
    let (again, b) = traced();
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
    let untraced = scenario(&Recorder::disabled());
    let schedule = |r: &SimReport| (r.end_time, r.dispatches, r.handoffs);
    assert_eq!(
        schedule(&untraced),
        schedule(&report),
        "{kind}: tracing changed the run"
    );
}

fn traced_cfg(rec: &Recorder) -> CellPilotConfig {
    traced_cfg_on(ClusterSpec::two_cells_one_xeon(), rec)
}

fn traced_cfg_on(spec: ClusterSpec, rec: &Recorder) -> CellPilotConfig {
    CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new().with_tracing(rec.clone()))
}

/// Type 1: PPE rank 0 <-> PPE rank 1 on another node, pure Pilot/MPI path.
#[test]
fn golden_trace_type1_rank_to_rank() {
    assert_golden(ChannelKind::Type1, 0xcb00_3640_5a3d_da16, 5, |rec| {
        let mut cfg = traced_cfg(rec);
        let worker = cfg
            .create_process("worker", 0, |cp, _| {
                let v = cp.read_vec::<i32>(CpChannel(0)).unwrap();
                cp.write_slice(CpChannel(1), &v).unwrap();
            })
            .unwrap();
        let out = cfg.channel(CP_MAIN, worker).build().unwrap();
        let back = cfg.channel(worker, CP_MAIN).build().unwrap();
        assert_eq!(cfg.channel_kind(out).unwrap(), ChannelKind::Type1);
        cfg.run(move |cp| {
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
    assert_golden(ChannelKind::Type1, 0xcb00_3640_5a3d_da16, 5, |rec| {
        let mut cfg = traced_cfg(rec);
        let worker = cfg
            .create_process("worker", 0, |cp, _| {
                let v = cp.read_vec::<i32>(CpChannel(0)).unwrap();
                cp.write_slice(CpChannel(1), &v).unwrap();
            })
            .unwrap();
        let out = cfg.channel(CP_MAIN, worker).capacity(1024).build().unwrap();
        let back = cfg.channel(worker, CP_MAIN).capacity(1024).build().unwrap();
        cfg.run(move |cp| {
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
    assert_golden(ChannelKind::Type2, 0x6753_a07b_3455_70fd, 5, |rec| {
        let mut cfg = traced_cfg(rec);
        let prog = SpeProgram::new("echo", 2048, |spe, _, _| {
            let v = spe.read_vec::<i32>(CpChannel(0)).unwrap();
            spe.write_slice(CpChannel(1), &v).unwrap();
        });
        let spe = cfg.create_spe_process(&prog, CP_MAIN, 0).unwrap();
        let to_spe = cfg.channel(CP_MAIN, spe).build().unwrap();
        let back = cfg.channel(spe, CP_MAIN).build().unwrap();
        assert_eq!(cfg.channel_kind(to_spe).unwrap(), ChannelKind::Type2);
        cfg.run(move |cp| {
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
    assert_golden(ChannelKind::Type3, 0x906c_d23f_4df4_9fe2, 7, |rec| {
        let mut cfg = traced_cfg(rec);
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
        cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap()
    });
}

/// Type 4: two SPEs on one Cell node, paired locally by their shared
/// Co-Pilot.
#[test]
fn golden_trace_type4_spe_to_local_spe() {
    assert_golden(ChannelKind::Type4, 0x4330_0edc_02f1_c124, 9, |rec| {
        let mut cfg = traced_cfg(rec);
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
        cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap()
    });
}

/// Type 5: SPEs on two different Cell nodes, relayed by both Co-Pilots.
#[test]
fn golden_trace_type5_spe_to_remote_spe() {
    assert_golden(ChannelKind::Type5, 0x2686_3d58_dd8f_6264, 13, |rec| {
        let mut cfg = traced_cfg(rec);
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
        cfg.run(move |cp| cp.run_and_wait_my_spes()).unwrap()
    });
}

// ---------------------------------------------------------------------------
// Hand-off pins of the library's virtual-time waits. A one-sided reader
// looks at its doorbell on a 1 µs grid and a writer at a full bounded
// channel polls for a credit every 1 µs; both would pay an OS-thread
// hand-off per step unless the wait is stepped by whichever thread is
// dispatching, and the reader takes only the looks that can find a put.
// Each scenario pins its schedule — end time, dispatch count, trace digest —
// and its hand-offs per round trip, measured as the difference between a
// run of `2 * ROUNDS` and one of `ROUNDS` round trips, so start-up and
// shutdown cancel out.
// ---------------------------------------------------------------------------

/// Round trips of the shorter run of each hand-off scenario.
const ROUNDS: usize = 8;

/// A scenario's pinned schedule (of its `ROUNDS`-round-trip run) and cost.
#[derive(Debug, PartialEq)]
struct Pinned {
    end_ns: u64,
    dispatches: u64,
    digest: u64,
    handoffs_per_round_trip: u64,
}

fn pinned(scenario: impl Fn(usize) -> (SimReport, Vec<OpEvent>)) -> Pinned {
    let (short, trace) = scenario(ROUNDS);
    let (long, _) = scenario(2 * ROUNDS);
    let extra = long.handoffs - short.handoffs;
    assert_eq!(extra % ROUNDS as u64, 0, "hand-offs not periodic: {extra}");
    Pinned {
        end_ns: short.end_time.as_nanos(),
        dispatches: short.dispatches,
        digest: fnv1a(&render_trace(&trace)),
        handoffs_per_round_trip: extra / ROUNDS as u64,
    }
}

/// The 1-byte message of round `r`.
fn byte(r: usize) -> Vec<PiValue> {
    vec![PiValue::Byte(vec![r as u8])]
}

/// `rounds` 1 B round trips over channel type `chan_type` (2–5), every
/// SPE-read leg one-sided: channel 0 carries the ping, channel 1 the echo.
/// Types 2 and 3 ping from the main rank, types 4 and 5 from an SPE.
fn one_sided_pingpong(chan_type: u8, rounds: usize) -> (SimReport, Vec<OpEvent>) {
    one_sided_pingpong_on(ClusterSpec::two_cells_one_xeon(), chan_type, rounds)
}

/// [`one_sided_pingpong`] on the cluster `spec`.
fn one_sided_pingpong_on(
    spec: ClusterSpec,
    chan_type: u8,
    rounds: usize,
) -> (SimReport, Vec<OpEvent>) {
    let rec = Recorder::enabled();
    let mut cfg = traced_cfg_on(spec, &rec);
    let echo = SpeProgram::new("echo", 2048, move |spe, _, _| {
        for _ in 0..rounds {
            let v = spe.read(CpChannel(0), "%b").unwrap();
            spe.write(CpChannel(1), "%b", &v).unwrap();
        }
    });
    let ping = SpeProgram::new("ping", 2048, move |spe, _, _| {
        for r in 0..rounds {
            spe.write(CpChannel(0), "%b", &byte(r)).unwrap();
            assert_eq!(spe.read(CpChannel(1), "%b").unwrap(), byte(r));
        }
    });
    let remote_parent = |cfg: &mut CellPilotConfig| {
        cfg.create_process("remote-parent", 0, |cp, _| cp.run_and_wait_my_spes())
            .unwrap()
    };
    let (from, to) = match chan_type {
        2 => (CP_MAIN, cfg.create_spe_process(&echo, CP_MAIN, 0).unwrap()),
        3 => {
            let parent = remote_parent(&mut cfg);
            (CP_MAIN, cfg.create_spe_process(&echo, parent, 0).unwrap())
        }
        4 => (
            cfg.create_spe_process(&ping, CP_MAIN, 0).unwrap(),
            cfg.create_spe_process(&echo, CP_MAIN, 1).unwrap(),
        ),
        5 => {
            let parent = remote_parent(&mut cfg);
            (
                cfg.create_spe_process(&ping, CP_MAIN, 0).unwrap(),
                cfg.create_spe_process(&echo, parent, 0).unwrap(),
            )
        }
        other => panic!("no SPE-read channel type {other}"),
    };
    let out = cfg.channel(from, to).one_sided().build().unwrap();
    let back = cfg.channel(to, from);
    let back = if chan_type >= 4 {
        back.one_sided()
    } else {
        back
    };
    back.build().unwrap();
    assert_eq!(cfg.channel_kind(out).unwrap().type_number(), chan_type);
    let report = cfg.run(move |cp| {
        let tasks = cp.run_my_spes();
        if chan_type <= 3 {
            for r in 0..rounds {
                cp.write(CpChannel(0), "%b", &byte(r)).unwrap();
                assert_eq!(cp.read(CpChannel(1), "%b").unwrap(), byte(r));
            }
        }
        for t in tasks {
            cp.wait_spe(t);
        }
    });
    (report.unwrap(), rec.ops())
}

/// `rounds` 1 B messages from the main rank to a worker rank over a type-1
/// channel of capacity 2 under the default `Block` policy. The writer runs
/// ahead and the reader drains one message every 10 µs, so from the third
/// message on each write polls for its credit.
fn backpressure(rounds: usize) -> (SimReport, Vec<OpEvent>) {
    let rec = Recorder::enabled();
    let mut cfg = traced_cfg(&rec);
    let worker = cfg
        .create_process("worker", 0, move |cp, _| {
            for r in 0..rounds {
                cp.ctx().advance(SimDuration::from_micros(10));
                assert_eq!(cp.read(CpChannel(0), "%b").unwrap(), byte(r));
            }
        })
        .unwrap();
    let chan = cfg.channel(CP_MAIN, worker).capacity(2).build().unwrap();
    assert_eq!(cfg.channel_kind(chan).unwrap(), ChannelKind::Type1);
    let report = cfg.run(move |cp| {
        for r in 0..rounds {
            cp.write(chan, "%b", &byte(r)).unwrap();
        }
    });
    (report.unwrap(), rec.ops())
}

#[test]
fn one_sided_type2_pingpong_hand_offs() {
    let got = pinned(|rounds| one_sided_pingpong(2, rounds));
    let want = Pinned {
        end_ns: 907_671,
        dispatches: 333,
        digest: 0xf00f_b48c_dff3_8f74,
        handoffs_per_round_trip: 2,
    };
    assert_eq!(got, want);
}

#[test]
fn one_sided_type3_pingpong_hand_offs() {
    let got = pinned(|rounds| one_sided_pingpong(3, rounds));
    let want = Pinned {
        end_ns: 2_039_635,
        dispatches: 341,
        digest: 0x785f_a113_02e4_4ee5,
        handoffs_per_round_trip: 2,
    };
    assert_eq!(got, want);
}

#[test]
fn one_sided_type4_pingpong_hand_offs() {
    let got = pinned(|rounds| one_sided_pingpong(4, rounds));
    let want = Pinned {
        end_ns: 484_699,
        dispatches: 148,
        digest: 0x0d3b_09b6_127a_eff3,
        handoffs_per_round_trip: 2,
    };
    assert_eq!(got, want);
}

#[test]
fn one_sided_type5_pingpong_hand_offs() {
    let got = pinned(|rounds| one_sided_pingpong(5, rounds));
    let want = Pinned {
        end_ns: 1_477_635,
        dispatches: 156,
        digest: 0xe932_565f_c9b6_0e8a,
        handoffs_per_round_trip: 2,
    };
    assert_eq!(got, want);
}

#[test]
fn blocked_credit_wait_hand_offs() {
    let got = pinned(backpressure);
    let want = Pinned {
        end_ns: 671_840,
        dispatches: 247,
        digest: 0x1eb0_41ae_75ad_a156,
        handoffs_per_round_trip: 6,
    };
    assert_eq!(got, want);
}

/// The 1 B type-3 one-sided ping-pong on a wire of `wire_us` one-way
/// latency: its dispatches per round trip, and the instant and trace
/// digest of its `ROUNDS`-round-trip run.
fn type3_pingpong_on_wire(wire_us: f64) -> (u64, u64, u64) {
    let mut spec = ClusterSpec::two_cells_one_xeon();
    spec.net.wire_latency_us = wire_us;
    let (short, trace) = one_sided_pingpong_on(spec.clone(), 3, ROUNDS);
    let (long, _) = one_sided_pingpong_on(spec, 3, 2 * ROUNDS);
    let extra = long.dispatches - short.dispatches;
    assert_eq!(extra % ROUNDS as u64, 0, "dispatches not periodic: {extra}");
    let last = trace.last().expect("a traced ping-pong").ts_ns;
    (extra / ROUNDS as u64, last, fnv1a(&render_trace(&trace)))
}

/// A one-sided reader is woken at the instant its put lands instead of
/// being stepped through every 1 µs poll of its flight, so a round trip
/// costs the same dispatches on a 60 µs wire as on a 600 µs one — while
/// every traced operation keeps the instant the polling reader gave it
/// (the last traced instant and the digest are the polling schedule's).
#[test]
fn one_sided_dispatches_do_not_scale_with_flight_time() {
    let (near_rt, near_last, near_digest) = type3_pingpong_on_wire(60.0);
    let (far_rt, far_last, far_digest) = type3_pingpong_on_wire(600.0);
    assert_eq!(near_rt, far_rt, "dispatches per round trip follow the wire");
    assert_eq!((near_last, near_digest), (1_887_895, 0x785f_a113_02e4_4ee5));
    assert_eq!((far_last, far_digest), (10_527_895, 0xa29c_4c91_4f69_875f));
}

// ---------------------------------------------------------------------------
// Type 1 is plain Pilot: the same rank <-> rank program run through
// `PilotConfig` and through `CellPilotConfig` gives the same schedule and the
// same op log, with and without the deadlock service.
// ---------------------------------------------------------------------------

/// Round trips of the type-1 equivalence ping-pong.
const T1_ROUNDS: usize = 20;

/// Two commodity nodes: no Cell node, so CellPilot starts no Co-Pilot.
fn commodity_pair() -> ClusterSpec {
    ClusterSpec {
        nodes: vec![cp_simnet::NodeKind::Commodity { cores: 4 }; 2],
        ..ClusterSpec::two_cells_one_xeon()
    }
}

/// The 1600 B message of round `r`.
fn t1_msg(r: usize) -> Vec<u8> {
    (0..1600).map(|i| (i + r) as u8).collect()
}

/// A schedule and its op log, as `(ts, op, channel)`.
type T1Run = (u64, u64, Vec<(u64, cp_trace::Op, usize)>);

fn t1_run(report: SimReport, rec: &Recorder) -> T1Run {
    let ops = rec
        .ops()
        .iter()
        .map(|e| (e.ts_ns, e.op, e.subject))
        .collect();
    (report.end_time.as_nanos(), report.dispatches, ops)
}

/// The ping-pong through Pilot; its detector, when on, is rank 2 on node 0.
fn t1_pilot(deadlock: bool) -> T1Run {
    use cp_pilot::{PiChannel, PilotConfig, PilotOpts, PI_MAIN};
    let rec = Recorder::enabled();
    let mut opts = PilotOpts::new().with_tracing(rec.clone());
    let mut placement = vec![NodeId(0), NodeId(1)];
    if deadlock {
        opts = opts.with_deadlock_service();
        placement.push(NodeId(0));
    }
    let mut cfg = PilotConfig::new(commodity_pair(), placement, opts);
    let worker = cfg
        .create_process("worker", 0, |p, _| {
            for _ in 0..T1_ROUNDS {
                let v = p.read_vec::<u8>(PiChannel(0)).unwrap();
                p.write_slice(PiChannel(1), &v).unwrap();
            }
        })
        .unwrap();
    let out = cfg.create_channel(PI_MAIN, worker).unwrap();
    let back = cfg.create_channel(worker, PI_MAIN).unwrap();
    let report = cfg
        .run(move |p| {
            for r in 0..T1_ROUNDS {
                p.write_slice(out, &t1_msg(r)).unwrap();
                assert_eq!(p.read_vec::<u8>(back).unwrap(), t1_msg(r));
            }
        })
        .unwrap();
    t1_run(report, &rec)
}

/// The ping-pong through CellPilot, which places its detector on node 0.
fn t1_cellpilot(deadlock: bool) -> T1Run {
    let rec = Recorder::enabled();
    let mut opts = CellPilotOpts::new().with_tracing(rec.clone());
    if deadlock {
        opts = opts.with_deadlock_service();
    }
    let mut cfg = CellPilotConfig::new(commodity_pair(), vec![NodeId(0), NodeId(1)], opts);
    let worker = cfg
        .create_process("worker", 0, |cp, _| {
            for _ in 0..T1_ROUNDS {
                let v = cp.read_vec::<u8>(CpChannel(0)).unwrap();
                cp.write_slice(CpChannel(1), &v).unwrap();
            }
        })
        .unwrap();
    let out = cfg.channel(CP_MAIN, worker).build().unwrap();
    let back = cfg.channel(worker, CP_MAIN).build().unwrap();
    assert_eq!(cfg.channel_kind(out).unwrap(), ChannelKind::Type1);
    let report = cfg
        .run(move |cp| {
            for r in 0..T1_ROUNDS {
                cp.write_slice(out, &t1_msg(r)).unwrap();
                assert_eq!(cp.read_vec::<u8>(back).unwrap(), t1_msg(r));
            }
        })
        .unwrap();
    t1_run(report, &rec)
}

#[test]
fn type1_is_plain_pilot() {
    for (deadlock, end_ns, dispatches) in [(false, 4_728_960, 207), (true, 4_730_982, 413)] {
        let pilot = t1_pilot(deadlock);
        let cellpilot = t1_cellpilot(deadlock);
        assert_eq!(pilot, cellpilot, "deadlock service {deadlock}");
        assert_eq!(
            (pilot.0, pilot.1),
            (end_ns, dispatches),
            "deadlock service {deadlock}"
        );
    }
}

/// The same bad declarations and bundle operations, in the same order:
/// an unknown process, a self channel, an empty bundle, a mixed common
/// endpoint, a member listed twice, a channel already bundled, rank
/// exhaustion, then at run time a gather on a broadcast bundle (main), a
/// broadcast by a process that is not its writer (a) and a select on a
/// gather bundle (b).
const CONFIGURE_ERRORS: usize = 10;

fn configure_errors_pilot() -> Vec<cp_pilot::PilotError> {
    use cp_pilot::{BundleUsage, PiBundle, PiProcess, PilotConfig, PilotOpts, PI_MAIN};
    let ran = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = PilotConfig::one_rank_per_node(spec, PilotOpts::new());
    let r = ran.clone();
    let a = cfg
        .create_process("a", 0, move |p, _| {
            let e = p.broadcast(PiBundle(0), "%d", &[PiValue::from(1i32)]);
            r.lock().push((1, e.unwrap_err()));
        })
        .unwrap();
    let r = ran.clone();
    let b = cfg
        .create_process("b", 0, move |p, _| {
            r.lock().push((2, p.select(PiBundle(1)).unwrap_err()))
        })
        .unwrap();
    let c1 = cfg.create_channel(PI_MAIN, a).unwrap();
    let c2 = cfg.create_channel(PI_MAIN, b).unwrap();
    let c3 = cfg.create_channel(a, b).unwrap();
    let mut errs = vec![
        cfg.create_channel(PI_MAIN, PiProcess(9)).unwrap_err(),
        cfg.create_channel(a, a).unwrap_err(),
        cfg.create_bundle(BundleUsage::Broadcast, &[]).unwrap_err(),
        cfg.create_bundle(BundleUsage::Broadcast, &[c1, c3])
            .unwrap_err(),
        cfg.create_bundle(BundleUsage::Gather, &[c3, c3])
            .unwrap_err(),
    ];
    cfg.create_bundle(BundleUsage::Broadcast, &[c1, c2])
        .unwrap();
    errs.push(
        cfg.create_bundle(BundleUsage::Broadcast, &[c1])
            .unwrap_err(),
    );
    cfg.create_bundle(BundleUsage::Gather, &[c3]).unwrap();
    errs.push(cfg.create_process("c", 0, |_, _| {}).unwrap_err());
    let r = ran.clone();
    cfg.run(move |p| r.lock().push((0, p.gather(PiBundle(0), "%d").unwrap_err())))
        .unwrap();
    let mut ran = ran.lock().clone();
    ran.sort_by_key(|&(who, _)| who);
    errs.extend(ran.into_iter().map(|(_, e)| e));
    errs
}

fn configure_errors_cellpilot() -> Vec<cellpilot::CpError> {
    use cellpilot::{CpBundle, CpBundleUsage, CpProcess};
    let ran = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
    let spec = ClusterSpec::two_cells_one_xeon();
    let mut cfg = CellPilotConfig::one_rank_per_node(spec, CellPilotOpts::new());
    let r = ran.clone();
    let a = cfg
        .create_process("a", 0, move |cp, _| {
            let e = cp.broadcast(CpBundle(0), "%d", &[PiValue::from(1i32)]);
            r.lock().push((1, e.unwrap_err()));
        })
        .unwrap();
    let r = ran.clone();
    let b = cfg
        .create_process("b", 0, move |cp, _| {
            r.lock().push((2, cp.select(CpBundle(1)).unwrap_err()))
        })
        .unwrap();
    let c1 = cfg.channel(CP_MAIN, a).build().unwrap();
    let c2 = cfg.channel(CP_MAIN, b).build().unwrap();
    let c3 = cfg.channel(a, b).build().unwrap();
    let mut errs = vec![
        cfg.channel(CP_MAIN, CpProcess(9)).build().unwrap_err(),
        cfg.channel(a, a).build().unwrap_err(),
        cfg.create_bundle(CpBundleUsage::Broadcast, &[])
            .unwrap_err(),
        cfg.create_bundle(CpBundleUsage::Broadcast, &[c1, c3])
            .unwrap_err(),
        cfg.create_bundle(CpBundleUsage::Gather, &[c3, c3])
            .unwrap_err(),
    ];
    cfg.create_bundle(CpBundleUsage::Broadcast, &[c1, c2])
        .unwrap();
    errs.push(
        cfg.create_bundle(CpBundleUsage::Broadcast, &[c1])
            .unwrap_err(),
    );
    cfg.create_bundle(CpBundleUsage::Gather, &[c3]).unwrap();
    errs.push(cfg.create_process("c", 0, |_, _| {}).unwrap_err());
    let r = ran.clone();
    cfg.run(move |cp| {
        r.lock()
            .push((0, cp.gather(CpBundle(0), "%d").unwrap_err()))
    })
    .unwrap();
    let mut ran = ran.lock().clone();
    ran.sort_by_key(|&(who, _)| who);
    errs.extend(ran.into_iter().map(|(_, e)| e));
    errs
}

#[test]
fn configure_phase_is_plain_pilot() {
    use cellpilot::{CpError, ErrorKind};
    let pilot = configure_errors_pilot();
    let cellpilot = configure_errors_cellpilot();
    assert_eq!(pilot.len(), CONFIGURE_ERRORS);
    assert_eq!(cellpilot.len(), CONFIGURE_ERRORS);
    for (i, (p, cp)) in pilot.into_iter().zip(cellpilot).enumerate() {
        assert_eq!(cp, CpError::Pilot(p.clone()), "case {i}");
        assert_eq!(cp.to_string(), p.to_string(), "case {i}");
        let want = if i < 7 {
            ErrorKind::Config
        } else {
            ErrorKind::Usage
        };
        assert_eq!(cp.kind(), want, "case {i}: {cp}");
    }
}
