//! The wildcard-receive state machine ([`Recv`]) against the blocking call
//! it was lifted out of: one receiver on rank 1, run as a thread inside
//! `Comm::recv(None, None)`, as the machine driven from a thread, and as the
//! machine stepped by the kernel as a component, must be told apart by
//! nothing but `SimReport::handoffs` — over eager data, a message exactly at
//! the eager limit, rendezvous, a rendezvous whose CTS the link drops (the
//! grant's back-off states), and a mailbox poisoned or taken over while the
//! receiver is parked in it.

use cp_des::{
    drive_component, ComponentBody, ProcCtx, SimDuration, SimReport, SimTime, Simulation, Step,
};
use cp_mpisim::{
    absorb_rank_death, Datatype, MpiCosts, MpiFault, MpiWorld, Rank, Recv, RecvPoll, Tag,
};
use cp_simnet::{ClusterSpec, FaultPlan, NodeId, RetryPolicy};
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Receiver {
    Blocking,
    ThreadDriven,
    Component,
}

/// `(source, tag, bytes, arrival time in ns)` of every message received.
type Log = Arc<Mutex<Vec<(Rank, Tag, usize, u64)>>>;

fn note(log: &Log, ctx: &ProcCtx, m: &cp_mpisim::Msg) {
    assert!(
        m.data.iter().all(|&b| b == m.tag as u8),
        "payload of tag {}",
        m.tag
    );
    log.lock()
        .push((m.src, m.tag, m.data.len(), ctx.now().as_nanos()));
}

/// Receive on rank 1 until `limit` messages are in or the mailbox dies.
fn blocking_receiver(world: MpiWorld, log: Log, limit: usize) -> impl FnOnce(&ProcCtx) + Send {
    move |ctx| {
        let _ = absorb_rank_death(|| {
            let comm = world.attach(ctx, 1);
            for _ in 0..limit {
                note(&log, ctx, &comm.recv(None, None));
            }
        });
    }
}

fn receiver_machine(world: MpiWorld, log: Log, limit: usize) -> ComponentBody {
    let mut attached = None;
    let mut got = 0;
    Box::new(move |ctx| {
        let (comm, recv) =
            attached.get_or_insert_with(|| (world.attach(ctx, 1), Recv::new(None, None)));
        while got < limit {
            match recv.poll(comm) {
                RecvPoll::Ready(m) => note(&log, ctx, &m),
                RecvPoll::Wait(step) => return step,
                RecvPoll::Dead => return Step::Done,
            }
            *recv = Recv::new(None, None);
            got += 1;
        }
        Step::Done
    })
}

/// Ranks 0 and 3 on node 0, rank 1 on node 1, rank 2 on the Xeon. `rest`
/// launches everything but rank 1's receiver, which expects `limit`
/// messages.
fn scenario(
    receiver: Receiver,
    plan: FaultPlan,
    limit: usize,
    rest: impl Fn(&MpiWorld, &mut Simulation, &Log),
) -> (SimReport, Vec<(Rank, Tag, usize, u64)>) {
    let world = MpiWorld::with_faults(
        ClusterSpec::two_cells_one_xeon().build(),
        vec![NodeId(0), NodeId(1), NodeId(2), NodeId(0)],
        MpiCosts::default(),
        Arc::new(plan),
        RetryPolicy::default(),
    );
    let log: Log = Arc::default();
    let mut sim = Simulation::with_trace();
    rest(&world, &mut sim, &log);
    let (w, l) = (world.clone(), log.clone());
    world.launch(&mut sim, 1, "r1", move |comm| {
        let ctx = comm.ctx();
        match receiver {
            Receiver::Blocking => ctx.spawn("r1-recv", blocking_receiver(w, l, limit)),
            Receiver::ThreadDriven => {
                ctx.spawn("r1-recv", drive_component(receiver_machine(w, l, limit)))
            }
            Receiver::Component => ctx.spawn_component("r1-recv", receiver_machine(w, l, limit)),
        };
    });
    let report = sim.run().unwrap();
    let got = log.lock().clone();
    (report, got)
}

/// Run `rest` under all three receivers and hold them equal; returns the
/// blocking run.
fn assert_equivalent(
    what: &str,
    plan: impl Fn() -> FaultPlan,
    limit: usize,
    rest: impl Fn(&MpiWorld, &mut Simulation, &Log),
) -> (SimReport, Vec<(Rank, Tag, usize, u64)>) {
    let (blocking, want) = scenario(Receiver::Blocking, plan(), limit, &rest);
    for other in [Receiver::ThreadDriven, Receiver::Component] {
        let (report, got) = scenario(other, plan(), limit, &rest);
        assert_eq!(got, want, "{what} {other:?}: messages");
        assert_eq!(report.trace, blocking.trace, "{what} {other:?}: trace");
        assert_eq!(report.end_time, blocking.end_time, "{what} {other:?}");
        assert_eq!(report.dispatches, blocking.dispatches, "{what} {other:?}");
        assert_eq!(report.processes, blocking.processes, "{what} {other:?}");
        assert_eq!(report.incidents, blocking.incidents, "{what} {other:?}");
        if other == Receiver::Component {
            assert!(report.handoffs < blocking.handoffs, "{what}: hand-offs");
        } else {
            assert_eq!(report.handoffs, blocking.handoffs, "{what}: hand-offs");
        }
    }
    (blocking, want)
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
    let (_, got) = assert_equivalent("sizes", FaultPlan::new, SIZES.len(), sender(SIZES));
    let sizes: Vec<usize> = got.iter().map(|&(_, _, n, _)| n).collect();
    assert_eq!(sizes, SIZES, "one sender: FIFO");
}

#[test]
fn dropped_cts_walks_the_back_off_states() {
    // The first two envelopes node 1 puts on the wire toward node 0 are the
    // first two transmissions of the rendezvous grant.
    let plan =
        || FaultPlan::new().drop_link(NodeId(1), NodeId(0), SimTime(0), SimTime(100_000_000), 2);
    let (faulty, got) = assert_equivalent("cts drop", plan, 2, sender(&[64 * 1024, 1]));
    let (clean, _) = scenario(
        Receiver::Blocking,
        FaultPlan::new(),
        2,
        sender(&[64 * 1024, 1]),
    );
    assert_eq!(got.len(), 2);
    assert_eq!(
        (faulty.end_time - clean.end_time).as_nanos(),
        RetryPolicy::default().total_backoff(2).as_nanos(),
        "exactly two back-offs were spent"
    );
}

#[test]
fn mailbox_poisoned_mid_wait_retires_the_receiver() {
    let plan = || FaultPlan::new().kill_rank(1, SimTime(150_000));
    let (report, got) = assert_equivalent("poison", plan, usize::MAX, |world, sim, _| {
        world.launch(sim, 0, "r0", |comm| {
            comm.send_bytes(1, 0, Datatype::Byte, 1, vec![0]);
            comm.ctx().advance(SimDuration::from_millis(1));
            let lost = comm.try_send_bytes(1, 1, Datatype::Byte, 1, vec![1]);
            assert_eq!(lost, Err(MpiFault::PeerLost { rank: 1 }));
        });
    });
    assert_eq!(
        got.len(),
        1,
        "the receiver died parked waiting for a second"
    );
    assert_eq!(report.incidents.len(), 1, "{:?}", report.incidents);
}

#[test]
fn mailbox_taken_over_mid_wait_retires_the_receiver() {
    let (_, got) = assert_equivalent(
        "take over",
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
    let tags: Vec<Tag> = got.iter().map(|&(_, tag, _, _)| tag).collect();
    assert_eq!(tags, [0, 1], "first to rank 1, second to its adopter");
}
