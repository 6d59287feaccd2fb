//! The MPI receive future (`Comm::recv_async`) against the blocking call
//! that drives it: one receiver on rank 1, run as a thread inside
//! `Comm::recv(None, None)`, as the future awaited by a component, and as
//! that component driven from a thread, must be told apart by nothing but
//! `SimReport::handoffs` — over eager data, a message exactly at the eager
//! limit and one byte over it, rendezvous, a rendezvous whose CTS the link
//! drops (the grant's back-off), and a mailbox poisoned or taken over while
//! the receiver is parked in it. `Comm::recv` now runs the same future, so
//! every form is also held to the `(end time, dispatches, trace digest,
//! messages)` the blocking receive produced before the two shared an
//! implementation.
//!
//! The send side is held to the same contract: rank 0's sends made by the
//! blocking `Comm::try_send_bytes` on its thread and by the future
//! `Comm::send_async` awaited in a component — eager at 1 B and exactly at
//! the eager limit, rendezvous one byte over it and at 64 KB, a CTS the link
//! drops twice, a peer scripted to die (the bounded CTS wait), and the
//! sender's own mailbox taken over while it waits for its CTS — each pinned
//! to what the blocking send gave before it drove the future.

use cp_des::{
    async_component, drive_component, ComponentBody, Pid, ProcCtx, SimDuration, SimReport, SimTime,
    Simulation,
};
use cp_mpisim::{Comm, Datatype, MpiCosts, MpiFault, MpiWorld, Rank, SrcSel, Tag, TagSel};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Receiver {
    Blocking,
    ThreadDriven,
    Component,
}

/// `(source, tag, bytes, arrival time in ns)` of a received message.
type Got = (Rank, Tag, usize, u64);
type Log = Arc<Mutex<Vec<Got>>>;

/// What the blocking call gave on the commit before it ran the future.
struct Pinned<L: 'static = Got> {
    end_ns: u64,
    dispatches: u64,
    digest: u64,
    log: &'static [L],
}

fn note(log: &Log, ctx: &ProcCtx, m: &cp_mpisim::Msg) {
    assert!(
        m.data.iter().all(|&b| b == m.tag as u8),
        "payload of tag {}",
        m.tag
    );
    log.lock()
        .push((m.src, m.tag, m.data.len(), ctx.now().as_nanos()));
}

/// FNV-1a over the `(time, pid)` dispatch trace.
fn digest(trace: &[(SimTime, Pid)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(t, pid) in trace {
        for b in t
            .as_nanos()
            .to_le_bytes()
            .into_iter()
            .chain((pid as u64).to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Receive on rank 1 until `limit` messages are in or the mailbox dies: what
/// `Comm::recv` does on its thread, short of unwinding on a dead mailbox.
fn blocking_receiver(world: MpiWorld, log: Log, limit: usize) -> impl FnOnce(&ProcCtx) + Send {
    move |ctx| {
        let comm = world.attach(ctx, 1);
        for _ in 0..limit {
            let c = comm.clone();
            let Some(m) = ctx.drive(async move { c.recv_async(None, None).await }) else {
                return;
            };
            note(&log, ctx, &m);
        }
    }
}

fn async_receiver(world: MpiWorld, log: Log, limit: usize) -> ComponentBody {
    async_component(move |ctx| async move {
        let comm = world.attach(&ctx, 1);
        for _ in 0..limit {
            let Some(m) = comm.recv_async(None, None).await else {
                return;
            };
            note(&log, &ctx, &m);
        }
    })
}

/// Ranks 0 and 3 on node 0, rank 1 on node 1, rank 2 on the Xeon.
fn world(plan: FaultPlan) -> MpiWorld {
    MpiWorld::with_faults(
        ClusterSpec::two_cells_one_xeon().build(),
        vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0)],
        MpiCosts::default(),
        Arc::new(plan),
        RetryPolicy::default(),
    )
}

/// `rest` launches everything but rank 1's receiver, which expects `limit`
/// messages.
fn scenario(
    receiver: Receiver,
    plan: FaultPlan,
    limit: usize,
    rest: impl Fn(&MpiWorld, &mut Simulation, &Log),
) -> (SimReport, Vec<Got>) {
    let world = world(plan);
    let log: Log = Arc::default();
    let mut sim = Simulation::with_trace();
    rest(&world, &mut sim, &log);
    let (w, l) = (world.clone(), log.clone());
    world.launch(&mut sim, 1, "r1", move |comm| {
        let ctx = comm.ctx();
        match receiver {
            Receiver::Blocking => ctx.spawn("r1-recv", blocking_receiver(w, l, limit)),
            Receiver::ThreadDriven => {
                ctx.spawn("r1-recv", drive_component(async_receiver(w, l, limit)))
            }
            Receiver::Component => ctx.spawn_component("r1-recv", async_receiver(w, l, limit)),
        };
    });
    let report = sim.run().unwrap();
    let got = log.lock().clone();
    (report, got)
}

/// Run `rest` under all three receivers, hold each to `pinned` and the
/// blocking run; returns the blocking run.
fn assert_equivalent(
    what: &str,
    pinned: Pinned,
    plan: impl Fn() -> FaultPlan,
    limit: usize,
    rest: impl Fn(&MpiWorld, &mut Simulation, &Log),
) -> SimReport {
    let runs = [
        Receiver::Blocking,
        Receiver::ThreadDriven,
        Receiver::Component,
    ]
    .map(|receiver| (receiver, scenario(receiver, plan(), limit, &rest)));
    let blocking = &runs[0].1 .0;
    for (receiver, (report, got)) in &runs {
        let trace = report.trace.as_deref().expect("traced");
        assert_eq!(got, pinned.log, "{what} {receiver:?}: messages");
        assert_eq!(digest(trace), pinned.digest, "{what} {receiver:?}: trace");
        assert_eq!(
            report.end_time.as_nanos(),
            pinned.end_ns,
            "{what} {receiver:?}"
        );
        assert_eq!(report.dispatches, pinned.dispatches, "{what} {receiver:?}");
        assert_eq!(report.processes, blocking.processes, "{what} {receiver:?}");
        assert_eq!(report.incidents, blocking.incidents, "{what} {receiver:?}");
        if *receiver == Receiver::Component {
            assert!(report.handoffs < blocking.handoffs, "{what}: hand-offs");
        } else {
            assert_eq!(report.handoffs, blocking.handoffs, "{what}: hand-offs");
        }
    }
    let [(_, (blocking, _)), ..] = runs;
    blocking
}

/// Rank 0 sends one message per entry of `sizes` to rank 1, tagged by
/// position and filled with the tag.
fn sender(sizes: &'static [usize]) -> impl Fn(&MpiWorld, &mut Simulation, &Log) {
    move |world, sim, _| {
        world.launch(sim, 0, "r0", move |comm| {
            for (tag, &n) in sizes.iter().enumerate() {
                comm.send_bytes(1, tag as Tag, Datatype::Byte, n, vec![tag as u8; n]);
            }
        });
    }
}

#[test]
fn eager_limit_and_rendezvous_sizes() {
    const SIZES: &[usize] = &[1, 16 * 1024, 64 * 1024, 1, 16 * 1024 + 1];
    assert_eq!(MpiCosts::default().eager_limit, 16 * 1024);
    let pinned = Pinned {
        end_ns: 3_584_357,
        dispatches: 20,
        digest: 0x2383_c444_3f7d_e69c,
        log: &[
            (0, 0, 1, 98_039),
            (0, 1, 16_384, 751_073),
            (0, 2, 65_536, 3_006_887),
            (0, 3, 1, 3_025_900),
            (0, 4, 16_385, 3_584_357),
        ],
    };
    assert_equivalent("sizes", pinned, FaultPlan::new, SIZES.len(), sender(SIZES));
}

#[test]
fn dropped_cts_walks_the_back_off_states() {
    // The first two envelopes node 1 puts on the wire toward node 0 are the
    // first two transmissions of the rendezvous grant.
    let plan =
        || FaultPlan::new().drop_link(NodeId(1), NodeId(0), SimTime(0), SimTime(100_000_000), 2);
    let pinned = Pinned {
        end_ns: 2_923_257,
        dispatches: 12,
        digest: 0xb436_4b1e_d779_dbc2,
        log: &[(0, 0, 65_536, 2_904_244), (0, 1, 1, 2_923_257)],
    };
    let faulty = assert_equivalent("cts drop", pinned, plan, 2, sender(&[64 * 1024, 1]));
    let (clean, _) = scenario(
        Receiver::Blocking,
        FaultPlan::new(),
        2,
        sender(&[64 * 1024, 1]),
    );
    assert_eq!(
        (faulty.end_time - clean.end_time).as_nanos(),
        RetryPolicy::default().total_backoff(2).as_nanos(),
        "exactly two back-offs were spent"
    );
}

#[test]
fn mailbox_poisoned_mid_wait_retires_the_receiver() {
    let plan = || FaultPlan::new().kill_rank(1, SimTime(150_000));
    let pinned = Pinned {
        end_ns: 1_019_013,
        dispatches: 10,
        digest: 0x3e95_905d_7872_ba1d,
        // The receiver died parked waiting for a second message.
        log: &[(0, 0, 1, 98_039)],
    };
    let report = assert_equivalent("poison", pinned, plan, usize::MAX, |world, sim, _| {
        world.launch(sim, 0, "r0", |comm| {
            comm.send_bytes(1, 0, Datatype::Byte, 1, vec![0]);
            comm.ctx().advance(SimDuration::from_millis(1));
            let lost = comm.try_send_bytes(1, 1, Datatype::Byte, 1, vec![1]);
            assert_eq!(lost, Err(MpiFault::PeerLost { rank: 1 }));
        });
    });
    assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
}

#[test]
fn mailbox_taken_over_mid_wait_retires_the_receiver() {
    let pinned = Pinned {
        end_ns: 604_040,
        dispatches: 13,
        digest: 0x5062_a8cd_ed4e_c627,
        // First to rank 1, second to its adopter.
        log: &[(0, 0, 1, 98_039), (0, 1, 1, 604_040)],
    };
    assert_equivalent(
        "take over",
        pinned,
        FaultPlan::new,
        usize::MAX,
        |world, sim, log| {
            world.launch(sim, 0, "r0", |comm| {
                comm.send_bytes(1, 0, Datatype::Byte, 1, vec![0]);
                comm.ctx().advance(SimDuration::from_micros(500));
                // Addressed to rank 1, delivered to the rank that adopted it.
                comm.send_bytes(1, 1, Datatype::Byte, 1, vec![1]);
            });
            let (w, l) = (world.clone(), log.clone());
            world.launch(sim, 3, "r3", move |comm| {
                comm.ctx().advance(SimDuration::from_micros(200));
                w.take_over_rank(comm.ctx(), 1, 3);
                note(&l, comm.ctx(), &comm.recv(None, None));
            });
        },
    );
}

/// How rank 0 makes the sends of the scenario below.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sender {
    /// `Comm::try_send_bytes` on the rank's thread, driving the future.
    Blocking,
    /// The future itself, awaited by the rank launched as a component.
    Component,
}

type Lines = Arc<Mutex<Vec<String>>>;

fn sent(log: &Lines, comm: &Comm, tag: Tag, outcome: Result<(), MpiFault>) {
    let now = comm.ctx().now().as_nanos();
    log.lock().push(format!("sent {tag} at {now}: {outcome:?}"));
}

fn recv_logged(comm: &Comm, log: &Lines, src: SrcSel, tag: TagSel) {
    let m = comm.recv(src, tag);
    let now = comm.ctx().now().as_nanos();
    log.lock()
        .push(format!("recv {} at {now}: {} B", m.tag, m.data.len()));
}

/// Rank 0 sends each `(tag, bytes)` of `sends` to rank 1 and logs the
/// outcome; `rest` launches the other ranks. A sender whose mailbox dies
/// under it stops: the blocking one's process unwinds and retires, the
/// component's future ends.
fn send_scenario(
    sender: Sender,
    plan: FaultPlan,
    sends: &'static [(Tag, usize)],
    rest: &impl Fn(&MpiWorld, &mut Simulation, &Lines),
) -> (SimReport, Vec<String>) {
    let world = world(plan);
    let log: Lines = Arc::default();
    let mut sim = Simulation::with_trace();
    let l = log.clone();
    match sender {
        Sender::Blocking => world.launch(&mut sim, 0, "r0", move |comm| {
            for &(tag, n) in sends {
                let outcome = comm.try_send_bytes(1, tag, Datatype::Byte, n, vec![tag as u8; n]);
                sent(&l, &comm, tag, outcome);
            }
        }),
        Sender::Component => world.launch_async(&mut sim, 0, "r0", move |comm| async move {
            for &(tag, n) in sends {
                let payload = vec![tag as u8; n];
                let Some(outcome) = comm.send_async(1, tag, Datatype::Byte, n, payload).await
                else {
                    return;
                };
                sent(&l, &comm, tag, outcome);
            }
        }),
    }
    rest(&world, &mut sim, &log);
    let report = sim.run().unwrap();
    let lines = log.lock().clone();
    (report, lines)
}

/// Run the send scenario both ways and hold each to `pinned`.
fn assert_sends_equivalent(
    what: &str,
    pinned: Pinned<&'static str>,
    plan: impl Fn() -> FaultPlan,
    sends: &'static [(Tag, usize)],
    rest: impl Fn(&MpiWorld, &mut Simulation, &Lines),
) {
    let [(_, blocking), (_, component)] =
        [Sender::Blocking, Sender::Component].map(|s| (s, send_scenario(s, plan(), sends, &rest)));
    for (sender, (report, lines)) in [
        (Sender::Blocking, &blocking),
        (Sender::Component, &component),
    ] {
        let trace = report.trace.as_deref().expect("traced");
        assert_eq!(lines, pinned.log, "{what} {sender:?}: log");
        assert_eq!(digest(trace), pinned.digest, "{what} {sender:?}: trace");
        assert_eq!(
            report.end_time.as_nanos(),
            pinned.end_ns,
            "{what} {sender:?}"
        );
        assert_eq!(report.dispatches, pinned.dispatches, "{what} {sender:?}");
        assert_eq!(report.incidents, blocking.0.incidents, "{what} {sender:?}");
    }
    assert!(
        component.0.handoffs < blocking.0.handoffs,
        "{what}: hand-offs"
    );
}

#[test]
fn send_eager_and_rendezvous_sizes() {
    const SENDS: &[(Tag, usize)] = &[(0, 1), (1, 16 * 1024), (2, 16 * 1024 + 1), (3, 64 * 1024)];
    let pinned = Pinned {
        end_ns: 4_066_887,
        dispatches: 16,
        digest: 0xd54f_f76d_0679_6cef,
        log: &[
            "sent 0 at 19013: Ok(())",
            "sent 1 at 252643: Ok(())",
            "recv 0 at 1019013: 1 B",
            "recv 1 at 1252643: 16384 B",
            "sent 2 at 1312643: Ok(())",
            "recv 2 at 1811100: 16385 B",
            "sent 3 at 2310165: Ok(())",
            "recv 3 at 4066887: 65536 B",
        ],
    };
    assert_sends_equivalent("sizes", pinned, FaultPlan::new, SENDS, |world, sim, log| {
        let l = log.clone();
        world.launch(sim, 1, "r1", move |comm| {
            // Posted late: every rendezvous waits for its CTS.
            comm.ctx().advance(SimDuration::from_millis(1));
            for _ in SENDS {
                recv_logged(&comm, &l, Some(0), None);
            }
        });
    });
}

#[test]
fn send_through_a_dropped_cts_walks_the_back_off() {
    // The first two envelopes node 1 puts on the wire toward node 0 are the
    // first two transmissions of the CTS.
    let plan =
        || FaultPlan::new().drop_link(NodeId(1), NodeId(0), SimTime(0), SimTime(100_000_000), 2);
    let pinned = Pinned {
        end_ns: 2_904_244,
        dispatches: 9,
        digest: 0xaf65_bbaf_ae49_6bfc,
        log: &["sent 0 at 1147522: Ok(())", "recv 0 at 2904244: 65536 B"],
    };
    assert_sends_equivalent(
        "cts drop",
        pinned,
        plan,
        &[(0, 64 * 1024)],
        |world, sim, log| {
            let l = log.clone();
            world.launch(sim, 1, "r1", move |comm| {
                recv_logged(&comm, &l, Some(0), None)
            });
        },
    );
}

#[test]
fn send_to_a_peer_scripted_to_die_gives_up_at_the_deadline() {
    let plan = || FaultPlan::new().kill_rank(1, SimTime(300_000));
    let pinned = Pinned {
        end_ns: 2_877_522,
        dispatches: 7,
        digest: 0xe9af_5fd9_f367_e07e,
        // The CTS wait ends at the death plus the back-off cap; the next
        // send sees the corpse at once.
        log: &[
            "sent 0 at 2877522: Err(PeerLost { rank: 1 })",
            "sent 1 at 2877522: Err(PeerLost { rank: 1 })",
        ],
    };
    let sends = &[(0, 64 * 1024), (1, 1)];
    assert_sends_equivalent("peer dies", pinned, plan, sends, |world, sim, _| {
        world.launch(sim, 1, "r1", |comm| {
            let _ = comm.recv(Some(0), Some(99));
            unreachable!("rank 1 dies waiting for a message nobody sends");
        });
    });
}

#[test]
fn send_whose_mailbox_is_taken_over_mid_cts_retires_the_sender() {
    let pinned = Pinned {
        end_ns: 2_019_013,
        dispatches: 8,
        digest: 0xf1a9_001e_33ee_3648,
        // Rank 0 logs nothing: it retired waiting for its CTS.
        log: &["recv 7 at 2019013: 1 B"],
    };
    let sends = &[(0, 64 * 1024)];
    assert_sends_equivalent(
        "take over",
        pinned,
        FaultPlan::new,
        sends,
        |world, sim, log| {
            let l = log.clone();
            world.launch(sim, 1, "r1", move |comm| {
                comm.ctx().advance(SimDuration::from_millis(2));
                recv_logged(&comm, &l, Some(3), Some(7));
            });
            let w = world.clone();
            world.launch(sim, 3, "r3", move |comm| {
                comm.ctx().advance(SimDuration::from_micros(200));
                w.take_over_rank(comm.ctx(), 0, 3);
                comm.send_bytes(1, 7, Datatype::Byte, 1, vec![7]);
            });
        },
    );
}
