//! The kernel's thread hand-off (decide under the lock, wake after it, park
//! per thread) under the conditions that would lose or invent a wake-up.
//! Every test here finishes in seconds; a lost wake-up makes it hang rather
//! than fail, which is why CI runs this crate once more under `timeout`.

use cp_des::sync::{MsgQueue, SimBarrier, SimSemaphore};
use cp_des::{Pid, ProcCtx, SimDuration, SimError, SimTime, Simulation};
use std::sync::Arc;

const RING: usize = 64;
const HOPS: u64 = 20_000;

/// A token goes round a ring of `RING` processes `HOPS` times in all; at any
/// instant one process is runnable and 63 are parked.
fn ring_trace(seed: u64) -> Vec<(SimTime, Pid)> {
    let queues: Vec<MsgQueue<u64>> = (0..RING)
        .map(|i| MsgQueue::new(&format!("ring{i}"), None))
        .collect();
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    for i in 0..RING {
        let (mine, next) = (queues[i].clone(), queues[(i + 1) % RING].clone());
        sim.spawn(&format!("node{i}"), move |ctx| {
            if i == 0 {
                mine.push(ctx, 0, SimDuration::ZERO);
            }
            let visits = (HOPS - i as u64).div_ceil(RING as u64);
            for _ in 0..visits {
                let hop = mine.pop(ctx);
                assert_eq!(hop as usize % RING, i, "token reached the wrong node");
                if hop + 1 < HOPS {
                    next.push(ctx, hop + 1, SimDuration::from_nanos(3));
                }
            }
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.as_nanos(), 3 * (HOPS - 1));
    report.trace.unwrap()
}

#[test]
fn ring_of_64_is_deterministic_under_two_schedule_seeds() {
    for seed in [0, 7] {
        let first = ring_trace(seed);
        assert!(first.len() as u64 >= HOPS);
        assert_eq!(first, ring_trace(seed), "seed {seed} did not repeat");
    }
}

/// Eight processes advancing by short, uneven steps, so most instants are
/// a tie among several of them and the schedule seed alone orders them.
fn tied_trace(seed: u64) -> Vec<(SimTime, Pid)> {
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    for i in 0..8u64 {
        sim.spawn(&format!("tie{i}"), move |ctx| {
            for k in 0..16u64 {
                ctx.advance(SimDuration::from_nanos(1 + (i * k) % 3));
            }
        });
    }
    sim.run().unwrap().trace.unwrap()
}

/// FNV-1a over a `(time, pid)` trace.
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

#[test]
fn seeded_tie_breaks_are_pinned() {
    let fifo = tied_trace(0);
    let permuted = tied_trace(0x5EED);
    assert_ne!(fifo, permuted, "a nonzero seed must reorder ties");
    let sorted = |mut t: Vec<(SimTime, Pid)>| {
        t.sort();
        t
    };
    assert_eq!(sorted(fifo), sorted(permuted.clone()), "only ties move");
    assert_eq!(digest(&permuted), 0x83df_eb70_c214_18be);
}

#[test]
fn spawn_storm_children_dispatched_before_their_threads_register() {
    let mut sim = Simulation::new();
    sim.spawn("parent", |ctx| {
        // Joined at once: each child is made Running while its OS thread is
        // most likely still starting, so nobody is there to unpark.
        for i in 0..200 {
            let child = ctx.spawn(&format!("eager{i}"), |c| {
                c.advance(SimDuration::from_nanos(1));
            });
            ctx.join(child);
        }
        // Spawned as a batch, joined afterwards: most have parked by then.
        let batch: Vec<Pid> = (0..200)
            .map(|i| ctx.spawn(&format!("batch{i}"), |c| c.yield_now()))
            .collect();
        for child in batch {
            ctx.join(child);
        }
    });
    let report = sim.run().unwrap();
    assert_eq!(report.processes, 401);
    assert_eq!(report.end_time.as_nanos(), 200);
}

/// Two processes alternating through `advance` and a queue; with `stray`
/// the bodies also poke their own park token between kernel calls.
fn pingpong(stray: bool) -> (u64, Vec<(SimTime, Pid)>) {
    let poke = move || {
        if stray {
            std::thread::park_timeout(std::time::Duration::from_millis(1));
            std::thread::current().unpark();
        }
    };
    let q: MsgQueue<u32> = MsgQueue::new("pp", Some(1));
    let (tx, rx) = (q.clone(), q);
    let mut sim = Simulation::with_trace();
    sim.spawn("ping", move |ctx| {
        for k in 0..50 {
            poke();
            ctx.advance(SimDuration::from_nanos(5));
            poke();
            tx.push(ctx, k, SimDuration::from_nanos(2));
        }
    });
    sim.spawn("pong", move |ctx| {
        for k in 0..50 {
            poke();
            assert_eq!(rx.pop(ctx), k);
            poke();
            assert!(!ctx.block_timeout("nobody wakes this", SimDuration::from_nanos(1)));
        }
    });
    let report = sim.run().unwrap();
    (report.dispatches, report.trace.unwrap())
}

#[test]
fn stray_unpark_and_park_timeout_neither_lose_nor_invent_a_dispatch() {
    assert_eq!(pingpong(true), pingpong(false));
}

/// Run `trigger` beside 64 parked processes (half blocked, half waiting on
/// a far event, or all blocked) and return the error. Every body holds a
/// clone of one `Arc`, so a count of 1 afterwards means every thread
/// unwound and was joined.
fn teardown_with_64_parked(
    all_blocked: bool,
    limit: Option<SimTime>,
    trigger: impl FnOnce(&ProcCtx) + Send + 'static,
) -> SimError {
    let alive = Arc::new(());
    let mut sim = Simulation::new();
    if let Some(limit) = limit {
        sim.set_time_limit(limit);
    }
    for i in 0..64 {
        let held = alive.clone();
        sim.spawn(&format!("parked{i}"), move |ctx| {
            let _held = held;
            if all_blocked || i % 2 == 0 {
                ctx.block("parked");
            } else {
                ctx.advance(SimDuration::from_millis(10_000));
            }
        });
    }
    let held = alive.clone();
    sim.spawn("trigger", move |ctx| {
        let _held = held;
        ctx.advance(SimDuration::from_micros(1));
        trigger(ctx);
    });
    let err = sim.run().expect_err("the run must fail");
    assert_eq!(
        Arc::strong_count(&alive),
        1,
        "a process thread outlived run()"
    );
    err
}

#[test]
fn every_failure_tears_down_64_parked_threads() {
    match teardown_with_64_parked(true, None, |_| {}) {
        SimError::Deadlock { blocked, .. } => assert_eq!(blocked.len(), 64),
        other => panic!("expected deadlock, got {other:?}"),
    }
    match teardown_with_64_parked(false, None, |_| panic!("trigger gives up")) {
        SimError::ProcessPanicked { name, message, .. } => {
            assert_eq!(name, "trigger");
            assert_eq!(message, "trigger gives up");
        }
        other => panic!("expected a process panic, got {other:?}"),
    }
    match teardown_with_64_parked(false, None, |ctx| ctx.abort("trigger aborts")) {
        SimError::Aborted { name, message, .. } => {
            assert_eq!(name, "trigger");
            assert_eq!(message, "trigger aborts");
        }
        other => panic!("expected an abort, got {other:?}"),
    }
    let limit = SimTime(50_000);
    match teardown_with_64_parked(false, Some(limit), |ctx| loop {
        ctx.advance(SimDuration::from_micros(10));
    }) {
        SimError::TimeLimitExceeded { limit: l } => assert_eq!(l, limit),
        other => panic!("expected the time limit, got {other:?}"),
    }
}

#[test]
fn deadlock_report_text_is_pinned() {
    // A reason that outlasts every final one: the per-process buffer is
    // refilled in place and must never show this one's tail.
    const LONG: &str = "an earlier and considerably longer blocked-on reason";
    fn earlier(ctx: &ProcCtx) {
        assert!(!ctx.block_timeout(LONG, SimDuration::from_nanos(1)));
    }

    let mut sim = Simulation::new();
    let empty: MsgQueue<u8> = MsgQueue::new("inbox", None);
    let popper = sim.spawn("pop", move |ctx| {
        earlier(ctx);
        empty.pop(ctx);
    });
    let full: MsgQueue<u8> = MsgQueue::new("mbox", Some(1));
    sim.spawn("push", move |ctx| {
        earlier(ctx);
        full.push(ctx, 1, SimDuration::ZERO);
        full.push(ctx, 2, SimDuration::ZERO);
    });
    let sem = SimSemaphore::new("credits", 0);
    sim.spawn("acquire", move |ctx| {
        earlier(ctx);
        sem.acquire(ctx);
    });
    let barrier = SimBarrier::new("phase", 2);
    sim.spawn("barrier", move |ctx| {
        earlier(ctx);
        barrier.wait(ctx);
    });
    sim.spawn("join", move |ctx| {
        earlier(ctx);
        ctx.join(popper);
    });
    // Plain block after a longer block that was woken, then a timed block
    // that fired: three refills of the same buffer, each shorter.
    let plain = sim.spawn("plain", |ctx| {
        ctx.block(LONG);
        assert!(!ctx.block_timeout("y", SimDuration::from_nanos(1)));
        ctx.block("x");
    });
    sim.spawn("two-part", move |ctx| {
        earlier(ctx);
        ctx.unblock(plain, SimDuration::ZERO);
        assert!(!ctx.block_on_timeout("t", "timed", SimDuration::from_micros(1)));
        ctx.block_on("", "empty label");
    });

    match sim.run() {
        Err(SimError::Deadlock { at, blocked }) => {
            assert_eq!(at.as_nanos(), 1_001);
            let got: Vec<(&str, &str)> = blocked
                .iter()
                .map(|(_, name, reason)| (name.as_str(), reason.as_str()))
                .collect();
            assert_eq!(
                got,
                vec![
                    ("pop", "inbox: pop (queue empty)"),
                    ("push", "mbox: push (queue full)"),
                    ("acquire", "credits: acquire"),
                    ("barrier", "phase: barrier wait"),
                    ("join", "join(pid=0)"),
                    ("plain", "x"),
                    ("two-part", ": empty label"),
                ]
            );
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}
