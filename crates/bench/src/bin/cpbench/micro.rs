//! Micro-timings: each layer measured from outside, in the smallest
//! `Simulation` that can call its public functions.
//!
//! Host figures are the median of three repetitions, timed inside the
//! simulated process that drives the loop (so thread spawn and teardown stay
//! out) and after one untimed iteration. Virtual figures repeat exactly.
//! None of these depends on the workload or the seed.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use cellpilot::{
    CellPilotConfig, CellPilotOpts, CpBundleUsage, CpChannel, PiValue, SpeProgram, CP_MAIN,
};
use cp_cellsim::{ls_ea, CellCosts, CellNode, DmaDir};
use cp_check::{RelayCostModel, WiringGraph};
use cp_des::sync::MsgQueue;
use cp_des::{ProcCtx, SimDuration, Simulation};
use cp_mpisim::{mpirun, Datatype, MpiCosts, ReduceOp};
use cp_pilot::{pack_message, parse_format, unpack_message, PilotConfig, PilotOpts, PI_MAIN};
use cp_simnet::{ClusterSpec, NodeId, WindowDesc, WindowFabric};

use crate::metrics::{Metric, HOST_MS, HOST_NS, HOST_US, SIM_US};
use crate::service::{self, Route};
use crate::stats::median_f64;
use crate::workload::Size;

/// What the driving process measured around its loop.
#[derive(Debug, Default)]
struct Slot {
    host_ns: AtomicU64,
    sim_ns: AtomicU64,
}

impl Slot {
    fn timed(&self, ctx: &ProcCtx, body: impl FnOnce()) {
        let (h0, s0) = (Instant::now(), ctx.now());
        body();
        self.host_ns.store(h0.elapsed().as_nanos() as u64, Relaxed);
        self.sim_ns.store((ctx.now() - s0).as_nanos(), Relaxed);
    }
}

/// Per-iteration cost of one micro-timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub host_ns: f64,
    pub sim_us: f64,
}

const REPEATS: usize = 3;

/// Run `one` [`REPEATS`] times; each call runs `per_call` iterations and
/// fills a slot.
fn measure(per_call: u64, one: impl Fn(Arc<Slot>)) -> Timing {
    let mut host = Vec::with_capacity(REPEATS);
    let mut sim_us = 0.0;
    for _ in 0..REPEATS {
        let slot = Arc::new(Slot::default());
        one(slot.clone());
        host.push(slot.host_ns.load(Relaxed) as f64 / per_call as f64);
        sim_us = slot.sim_ns.load(Relaxed) as f64 / 1e3 / per_call as f64;
    }
    Timing {
        host_ns: median_f64(&host),
        sim_us,
    }
}

const TICK: SimDuration = SimDuration(2);

/// Two processes whose `advance` calls interleave, so every dispatch hands
/// the virtual CPU to the other thread; `parked` more sit blocked on an
/// empty queue. Per dispatch.
pub fn des_switch(n: u64, parked: usize) -> Timing {
    measure(2 * n, |slot| {
        let mut sim = Simulation::new();
        let gate: MsgQueue<u8> = MsgQueue::new("gate", None);
        for i in 0..parked {
            let gate = gate.clone();
            sim.spawn(&format!("parked{i}"), move |ctx| {
                gate.pop(ctx);
            });
        }
        sim.spawn("a", move |ctx| {
            ctx.advance(TICK);
            slot.timed(ctx, || (0..n).for_each(|_| ctx.advance(TICK)));
            for _ in 0..parked {
                gate.push(ctx, 0, SimDuration::ZERO);
            }
        });
        sim.spawn("b", move |ctx| {
            ctx.advance(SimDuration(1));
            (0..=n).for_each(|_| ctx.advance(TICK));
        });
        sim.run().expect("des switch micro");
    })
}

/// One process advancing alone: the kernel re-dispatches the caller without
/// a hand-off. The floor a cheaper hand-off aims at.
fn des_solo_advance(n: u64) -> Timing {
    measure(n, |slot| {
        let mut sim = Simulation::new();
        sim.spawn("solo", move |ctx| {
            ctx.advance(TICK);
            slot.timed(ctx, || (0..n).for_each(|_| ctx.advance(TICK)));
        });
        sim.run().expect("des solo micro");
    })
}

/// Two processes bouncing a word through two `MsgQueue`s. Per hop.
fn des_queue_pingpong(n: u64) -> Timing {
    measure(2 * n, |slot| {
        let mut sim = Simulation::new();
        let there: MsgQueue<u64> = MsgQueue::new("there", None);
        let back: MsgQueue<u64> = MsgQueue::new("back", None);
        let (there2, back2) = (there.clone(), back.clone());
        let hop = SimDuration::from_micros(1);
        sim.spawn("a", move |ctx| {
            let round = |i| {
                there.push(ctx, i, hop);
                black_box(back.pop(ctx));
            };
            round(0);
            slot.timed(ctx, || (0..n).for_each(round));
        });
        sim.spawn("b", move |ctx| {
            for _ in 0..=n {
                let v = there2.pop(ctx);
                back2.push(ctx, v, hop);
            }
        });
        sim.run().expect("des queue micro");
    })
}

/// Spawn a child process and join it. Per spawn + join.
fn des_spawn_join(n: u64) -> Timing {
    measure(n, |slot| {
        let mut sim = Simulation::new();
        sim.spawn("root", move |ctx| {
            let once = || {
                let pid = ctx.spawn("child", |_| {});
                ctx.join(pid);
            };
            once();
            slot.timed(ctx, || (0..n).for_each(|_| once()));
        });
        sim.run().expect("des spawn micro");
    })
}

/// A PPE process and one SPE program on a bare Cell node.
fn on_cell_node(
    ppe: impl FnOnce(&ProcCtx, &Arc<CellNode>) + Send + 'static,
    spe: impl FnOnce(&ProcCtx, &Arc<CellNode>) + Send + 'static,
) {
    let node = CellNode::new(0, 8, 1 << 20, CellCosts::default());
    let mut sim = Simulation::new();
    sim.spawn("ppe", move |ctx| {
        let node2 = node.clone();
        let pid = node
            .start_spe(ctx, 0, "micro", 2048, move |sctx| spe(sctx, &node2))
            .expect("SPE 0 is free");
        ppe(ctx, &node);
        ctx.join(pid);
    });
    sim.run().expect("cellsim micro");
}

/// Inbox write → SPU read → outbox write → PPE read. Per round trip.
fn cellsim_mailbox_rt(n: u64) -> Timing {
    measure(n, |slot| {
        on_cell_node(
            move |ctx, node| {
                let (mbox, costs) = (&node.spes[0].mbox, &node.costs);
                let round = |i: u64| {
                    mbox.ppe_write_inbox(ctx, costs, i as u32);
                    black_box(mbox.ppe_read_outbox(ctx, costs));
                };
                round(0);
                slot.timed(ctx, || (0..n).for_each(round));
            },
            move |sctx, node| {
                let (mbox, costs) = (&node.spes[0].mbox, &node.costs);
                for _ in 0..=n {
                    let w = mbox.spu_read_inbox(sctx, costs);
                    mbox.spu_write_outbox(sctx, costs, w);
                }
            },
        );
    })
}

/// One MFC get of `bytes` plus the tag wait, issued by the SPE.
fn cellsim_dma(n: u64, bytes: usize) -> Timing {
    measure(n, |slot| {
        on_cell_node(
            |_, _| {},
            move |sctx, node| {
                let ls = node.spes[0].ls.alloc(bytes, 16).expect("LS buffer");
                let ea = node.mem.alloc(bytes, 16).expect("main-memory buffer");
                let once = || {
                    node.dma(sctx, 0, DmaDir::Get, 0, ls, ea, bytes)
                        .expect("aligned DMA");
                    node.dma_wait(sctx, 0, 1);
                };
                once();
                slot.timed(sctx, || (0..n).for_each(|_| once()));
            },
        );
    })
}

/// A PPE copy of 64 KB from main memory into a mapped local store, the way
/// the Co-Pilot moves a relayed payload.
fn cellsim_memcpy_64k(n: u64) -> Timing {
    const BYTES: usize = 65_536;
    measure(n, |slot| {
        on_cell_node(
            move |ctx, node| {
                let src = node.mem.alloc(BYTES, 16).expect("main-memory buffer");
                let dst = ls_ea(0, node.spes[0].ls.alloc(BYTES, 16).expect("LS buffer"));
                let once = || node.ppe_memcpy(ctx, dst, src, BYTES).expect("mapped copy");
                once();
                slot.timed(ctx, || (0..n).for_each(|_| once()));
            },
            |_, _| {},
        );
    })
}

/// Raw MPI ping-pong between the two PPE ranks across the wire. Per
/// one-way message.
fn mpisim_p2p(n: u64, bytes: usize) -> Timing {
    measure(2 * n, |slot| {
        let spec = ClusterSpec::two_cells_one_xeon();
        mpirun(
            &spec,
            vec![NodeId(0), NodeId(1)],
            MpiCosts::default(),
            move |comm| {
                let data = vec![0x5Au8; bytes];
                if comm.rank() == 0 {
                    let round = || {
                        comm.send_bytes(1, 0, Datatype::Byte, bytes, data.clone());
                        black_box(comm.recv(Some(1), Some(0)));
                    };
                    round();
                    slot.timed(comm.ctx(), || (0..n).for_each(|_| round()));
                } else {
                    for _ in 0..=n {
                        let m = comm.recv(Some(0), Some(0));
                        comm.send_bytes(0, 0, Datatype::Byte, m.count, m.data);
                    }
                }
            },
        )
        .expect("mpisim p2p micro");
    })
}

/// `allreduce` of one double over 16 ranks spread across the three nodes.
fn mpisim_allreduce16(n: u64) -> Timing {
    measure(n, |slot| {
        let spec = ClusterSpec::two_cells_one_xeon();
        let placement = (0..16).map(|r| NodeId(r % 3)).collect();
        mpirun(&spec, placement, MpiCosts::default(), move |comm| {
            let mine = [comm.rank() as f64];
            let once = || {
                black_box(comm.allreduce(ReduceOp::Sum, &mine));
            };
            once();
            if comm.rank() == 0 {
                slot.timed(comm.ctx(), || (0..n).for_each(|_| once()));
            } else {
                (0..n).for_each(|_| once());
            }
        })
        .expect("mpisim allreduce micro");
    })
}

/// A 16-byte put into a registered window and its take: the one-sided data
/// plane's bookkeeping, no simulation involved.
fn simnet_window_put_take(n: u64) -> f64 {
    let fabric = WindowFabric::new();
    fabric
        .register(WindowDesc {
            chan: 0,
            node: 0,
            spe: 0,
            start: 0,
            len: 1024,
            owner_rank: 3,
        })
        .expect("fresh fabric");
    let mut seq = 0;
    host_loop_ns(n, || {
        fabric.put(0, seq, vec![0xA5; 16]).expect("registered");
        black_box(fabric.take(0).expect("registered"));
        seq += 1;
    })
}

/// Plain Pilot: 16 ints to a rank on the other Cell and back.
fn pilot_rt_16i(n: u64) -> Timing {
    measure(n, |slot| {
        let spec = ClusterSpec::two_cells_one_xeon();
        let mut cfg = PilotConfig::one_rank_per_node(spec, PilotOpts::new());
        let echo = cfg
            .create_process("echo", 0, move |p, _| {
                for _ in 0..=n {
                    let v = p
                        .read_vec::<i32>(cp_pilot::PiChannel(0))
                        .expect("echo read");
                    p.write_slice(cp_pilot::PiChannel(1), &v)
                        .expect("echo write");
                }
            })
            .expect("echo rank");
        let there = cfg.create_channel(PI_MAIN, echo).expect("channel");
        let back = cfg.create_channel(echo, PI_MAIN).expect("channel");
        cfg.run(move |p| {
            let words: Vec<i32> = (0..16).collect();
            let round = || {
                p.write_slice(there, &words).expect("write");
                black_box(p.read_vec::<i32>(back).expect("read"));
            };
            round();
            slot.timed(p.ctx(), || (0..n).for_each(|_| round()));
        })
        .expect("pilot micro");
    })
}

fn host_loop_ns(n: u64, mut body: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            (0..n).for_each(|_| body());
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median_f64(&per_call)
}

/// `pack_message` + `unpack_message` of one byte segment.
fn pilot_pack(n: u64, bytes: usize) -> f64 {
    let values = [PiValue::Byte(vec![0x3C; bytes])];
    host_loop_ns(n, || {
        let packed = pack_message(black_box(&values));
        black_box(unpack_message(&packed).expect("round trip"));
    })
}

fn pilot_parse_format(n: u64) -> f64 {
    host_loop_ns(n, || {
        black_box(parse_format(black_box("%d %100Lf %*b")).expect("valid format"));
    })
}

/// Build the `type5-remote-hop` service wiring and run `check()` over it.
fn core_configure(n: u64) -> f64 {
    host_loop_ns(n, || {
        black_box(service::configure_only(Route::Type5RemoteHop));
    })
}

/// An application with no processes and no channels: what every cell pays
/// to start and stop its ranks, Co-Pilots and mailbox watchers.
fn core_run_fixed(n: u64) -> f64 {
    host_loop_ns(n, || {
        let cfg = CellPilotConfig::one_rank_per_node(
            ClusterSpec::two_cells_one_xeon(),
            CellPilotOpts::new(),
        );
        black_box(cfg.run(|_| {}).expect("empty run"));
    })
}

/// Virtual time `CP_MAIN` spends sending one int to each of six local SPEs
/// over eager channels — a `broadcast` of six sends, or six writes through a
/// coalescer that ships them as one envelope. The writer's cost, per round:
/// delivery is pipelined behind it and bounded by the Co-Pilot either way.
fn core_bcast6(rounds: u64, coalesced: bool) -> f64 {
    const FAN: usize = 6;
    let writer_ns = Arc::new(AtomicU64::new(0));
    let writer_ns2 = writer_ns.clone();
    let reader = SpeProgram::new("bcast-reader", 2048, move |spe, arg, _| {
        for _ in 0..rounds {
            spe.read(CpChannel(arg as usize), "%d")
                .expect("bundle read");
        }
    });
    let mut cfg =
        CellPilotConfig::one_rank_per_node(ClusterSpec::two_cells_one_xeon(), CellPilotOpts::new());
    let chans: Vec<CpChannel> = (0..FAN)
        .map(|i| {
            let spe = cfg
                .create_spe_process(&reader, CP_MAIN, i as i32)
                .expect("reader SPE");
            cfg.channel(CP_MAIN, spe)
                .eager()
                .build()
                .expect("bundle channel")
        })
        .collect();
    let bundle = cfg
        .create_bundle(CpBundleUsage::Broadcast, &chans)
        .expect("bundle");
    if coalesced {
        cfg.coalesce_bundle(bundle, FAN, 1_000.0)
            .expect("coalescing policy");
    }
    cfg.run(move |cp| {
        let spes = cp.run_my_spes();
        let value = |round: u64| [PiValue::Int32(vec![round as i32])];
        let t0 = cp.ctx().now();
        if coalesced {
            let mut co = cp.coalescer(bundle).expect("coalescer");
            for round in 0..rounds {
                for &c in &chans {
                    co.write(c, "%d", &value(round)).expect("coalesced write");
                }
            }
            co.flush().expect("final flush");
        } else {
            for round in 0..rounds {
                cp.broadcast(bundle, "%d", &value(round))
                    .expect("broadcast");
            }
        }
        writer_ns2.store((cp.ctx().now() - t0).as_nanos(), Relaxed);
        for t in spes {
            cp.wait_spe(t);
        }
    })
    .expect("bcast micro");
    writer_ns.load(Relaxed) as f64 / 1e3 / rounds as f64
}

/// `cp_check::verify` + `analyze` over a graph shaped like the
/// `type5-remote-hop` service wiring (3 ranks, 8 SPEs, 12 eager channels).
fn check_verify_analyze(n: u64) -> f64 {
    let mut g = WiringGraph::new(3);
    for node in 0..2 {
        g.add_cell_node(node, 8);
        g.add_copilot(node);
    }
    g.add_rank_process("main", 0, 0);
    g.add_rank_process("ppe1", 1, 1);
    let front = g.add_rank_process("front", 2, 2);
    for w in 0..service::POOL_WORKERS {
        let gw = g.add_spe_process(&format!("gw{w}"), 0, w);
        let wk = g.add_spe_process(&format!("wk{w}"), 1, w);
        for (from, to) in [(front, gw), (gw, wk), (wk, front)] {
            let c = g.add_channel(from, to);
            g.set_channel_eager(c, 16);
        }
    }
    let costs = cellpilot::CellPilotCosts::default();
    g.set_relay_costs(RelayCostModel {
        dispatch_us: costs.copilot_dispatch_us,
        pair_poll_us: costs.copilot_pair_poll_us,
        eager_dispatch_us: costs.copilot_eager_dispatch_us,
        service_budget_us: costs.copilot_service_budget_us,
    });
    host_loop_ns(n, || {
        let mut findings = cp_check::verify(black_box(&g));
        findings.extend(cp_check::analyze(&g));
        black_box(findings);
    })
}

/// Every workload-independent per-layer metric except
/// `des.switch_unpinned.host_ns`, which only an unpinned process can take.
pub fn all(size: Size) -> Vec<Metric> {
    // Iterations: enough for a stable median at full size.
    let n = |full: u64| match size {
        Size::Full => full,
        Size::Quick => (full / 200).max(3),
    };
    let mut out = Vec::new();
    let mut host_ns = |name: &str, v: f64| out.push(Metric::new(name, v, HOST_NS));
    host_ns("des.switch.host_ns", des_switch(n(20_000), 0).host_ns);
    host_ns(
        "des.switch_64parked.host_ns",
        des_switch(n(20_000), 64).host_ns,
    );
    host_ns(
        "des.solo_advance.host_ns",
        des_solo_advance(n(200_000)).host_ns,
    );
    host_ns(
        "des.queue_pingpong.host_ns",
        des_queue_pingpong(n(20_000)).host_ns,
    );
    host_ns(
        "simnet.window_put_take.host_ns",
        simnet_window_put_take(n(200_000)),
    );
    host_ns("pilot.pack_1b.host_ns", pilot_pack(n(200_000), 1));
    host_ns("pilot.pack_64k.host_ns", pilot_pack(n(4_000), 65_536));
    host_ns("pilot.parse_format.host_ns", pilot_parse_format(n(200_000)));
    let mut both = |stem: &str, t: Timing| {
        out.push(Metric::new(format!("{stem}.host_ns"), t.host_ns, HOST_NS));
        out.push(Metric::new(format!("{stem}.sim_us"), t.sim_us, SIM_US));
    };
    both("cellsim.mailbox_rt", cellsim_mailbox_rt(n(10_000)));
    both("cellsim.dma_1k", cellsim_dma(n(50_000), 1024));
    both("cellsim.dma_16k", cellsim_dma(n(20_000), 16_384));
    both("cellsim.memcpy_64k", cellsim_memcpy_64k(n(4_000)));
    both("mpisim.p2p_1b", mpisim_p2p(n(10_000), 1));
    both("mpisim.p2p_64k", mpisim_p2p(n(2_000), 65_536));
    both("pilot.rt_16i", pilot_rt_16i(n(5_000)));
    let mut host_us = |name: &str, ns: f64| out.push(Metric::new(name, ns / 1e3, HOST_US));
    host_us("des.spawn_join.host_us", des_spawn_join(n(2_000)).host_ns);
    host_us(
        "mpisim.allreduce16.host_us",
        mpisim_allreduce16(n(400)).host_ns,
    );
    host_us("core.configure.host_us", core_configure(n(2_000)));
    host_us(
        "check.verify_analyze.host_us",
        check_verify_analyze(n(4_000)),
    );
    out.push(Metric::new(
        "core.run_fixed.host_ms",
        core_run_fixed(n(60)) / 1e6,
        HOST_MS,
    ));
    let rounds = n(400).max(3);
    out.push(Metric::new(
        "core.bcast6.sim_us",
        core_bcast6(rounds, false),
        SIM_US,
    ));
    out.push(Metric::new(
        "core.bcast6_coalesced.sim_us",
        core_bcast6(rounds, true),
        SIM_US,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_timing_runs_and_is_positive() {
        let m = all(Size::Quick);
        assert_eq!(m.len(), 29);
        for metric in &m {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} = {}",
                metric.name,
                metric.value
            );
        }
    }

    #[test]
    fn virtual_costs_match_the_cost_model() {
        // One mailbox round trip is four channel/MMIO operations and two
        // mailbox latencies of the default `CellCosts`.
        let c = CellCosts::default();
        let expect = 2.0 * (c.ppe_mmio_op_us + c.spu_channel_op_us + c.mailbox_latency_us);
        let got = cellsim_mailbox_rt(16).sim_us;
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
        // A solo process pays exactly its ticks.
        assert_eq!(des_solo_advance(10).sim_us, 0.002);
        // The writer's cost per broadcast does not depend on how many it sends.
        assert_eq!(core_bcast6(8, false), core_bcast6(32, false));
        assert_ne!(core_bcast6(8, true), core_bcast6(8, false));
    }
}
