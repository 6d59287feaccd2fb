//! Components: processes whose body is a `Step` state machine that the
//! kernel runs on whichever thread is dispatching. The contract is that a
//! component is indistinguishable from the thread it replaces in everything
//! the simulation can observe — pids, the `(time, pid)` dispatch trace, end
//! time, dispatch count, incident log, deadlock text — and differs only in
//! `SimReport::handoffs`. A lost wake-up here hangs rather than fails, so CI
//! runs this file under `timeout` as well.

use cp_des::sync::{MsgQueue, Poll};
use cp_des::{
    async_component, drive_component, ComponentBody, IncidentCategory, Pid, ProcCtx, SimDuration,
    SimError, SimReport, SimTime, Simulation, Spawner, Step,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// How the helper of the scenario below is run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Helper {
    /// Blocking calls on a thread of its own: what components replace.
    Blocking,
    /// The state machine, driven by `Executor::spawn_component`'s default.
    ThreadDriven,
    /// The state machine as a kernel component.
    Component,
    /// The `async` form, run for a thread by `ProcCtx::drive`: lent to the
    /// kernel, which steps it like a component.
    AsyncInline,
    /// The `async` form as a component, driven from a thread.
    AsyncThreadDriven,
    /// The `async` form as a kernel component.
    AsyncComponent,
}

const SENTINEL: u32 = u32::MAX;

/// The helper's states: one per blocking call of `blocking_helper`.
enum Relay {
    Pop,
    Forward(u32),
}

/// Pop a word, pay 2 µs for it, pass it on with 1 µs of latency; report
/// every fourth as an incident; finish on the sentinel.
fn blocking_helper(inq: MsgQueue<u32>, outq: MsgQueue<u32>) -> impl FnOnce(&ProcCtx) + Send {
    move |ctx| loop {
        let word = inq.pop(ctx);
        ctx.advance(us(2));
        if word == SENTINEL {
            outq.push(ctx, word, SimDuration::ZERO);
            return;
        }
        if word.is_multiple_of(4) {
            ctx.report_incident(IncidentCategory::ChannelTimeout, &format!("word {word}"));
        }
        outq.push(ctx, word, us(1));
    }
}

fn helper_machine(inq: MsgQueue<u32>, outq: MsgQueue<u32>) -> ComponentBody {
    let mut state = Relay::Pop;
    Box::new(move |ctx| loop {
        match std::mem::replace(&mut state, Relay::Pop) {
            Relay::Pop => match inq.poll_pop(ctx) {
                Poll::Ready(word) => {
                    state = Relay::Forward(word);
                    return Step::Advance(us(2));
                }
                Poll::InFlight(wait) => return Step::Advance(wait),
                Poll::Empty => return inq.pop_empty(),
            },
            Relay::Forward(SENTINEL) => {
                outq.push(ctx, SENTINEL, SimDuration::ZERO);
                return Step::Done;
            }
            Relay::Forward(word) => {
                if word.is_multiple_of(4) {
                    ctx.report_incident(IncidentCategory::ChannelTimeout, &format!("word {word}"));
                }
                outq.push(ctx, word, us(1));
            }
        }
    })
}

/// `blocking_helper` as straight-line `async` code: each kernel call an
/// awaited `Step`.
async fn relay(ctx: ProcCtx, inq: MsgQueue<u32>, outq: MsgQueue<u32>) {
    loop {
        let word = loop {
            match inq.poll_pop(&ctx) {
                Poll::Ready(word) => break word,
                Poll::InFlight(wait) => Step::Advance(wait).await,
                Poll::Empty => inq.pop_empty().await,
            }
        };
        Step::Advance(us(2)).await;
        if word == SENTINEL {
            outq.push(&ctx, word, SimDuration::ZERO);
            return;
        }
        if word.is_multiple_of(4) {
            ctx.report_incident(IncidentCategory::ChannelTimeout, &format!("word {word}"));
        }
        outq.push(&ctx, word, us(1));
    }
}

/// Producer → helper → consumer over two queues, the producer's schedule
/// scripted so the helper meets every case: a word already available, a
/// word still in flight, an empty queue, bursts that tie on the timestamp,
/// and a consumer slower than the helper.
fn relay_scenario(helper: Helper, seed: u64) -> (SimReport, Vec<(u32, u64)>) {
    let inq: MsgQueue<u32> = MsgQueue::new("in", None);
    let outq: MsgQueue<u32> = MsgQueue::new("out", None);
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let q = inq.clone();
    sim.spawn("producer", move |ctx| {
        for word in 0..24u32 {
            match word % 6 {
                0 => ctx.advance(us(7)), // the helper is parked on an empty queue
                1 | 2 => {}              // a burst at one instant
                3 => ctx.advance(us(1)), // faster than the helper's 2 µs
                _ => ctx.yield_now(),    // a same-time tie for the seed to permute
            }
            q.push(ctx, word, us(u64::from(word % 3)));
        }
        q.push(ctx, SENTINEL, us(5));
    });
    let (hin, hout) = (inq, outq.clone());
    match helper {
        Helper::Blocking => {
            sim.spawn("helper", blocking_helper(hin, hout));
        }
        Helper::ThreadDriven => {
            sim.spawn_boxed("helper", drive_component(helper_machine(hin, hout)));
        }
        Helper::Component => {
            Spawner::spawn_component(&mut sim, "helper", helper_machine(hin, hout));
        }
        Helper::AsyncInline => {
            sim.spawn("helper", move |ctx| {
                ctx.drive(relay(ctx.clone(), hin, hout))
            });
        }
        Helper::AsyncThreadDriven => {
            let body = async_component(move |ctx| relay(ctx, hin, hout));
            sim.spawn_boxed("helper", drive_component(body));
        }
        Helper::AsyncComponent => {
            let body = async_component(move |ctx| relay(ctx, hin, hout));
            Spawner::spawn_component(&mut sim, "helper", body);
        }
    }
    let sink = got.clone();
    sim.spawn("consumer", move |ctx| loop {
        let word = outq.pop(ctx);
        if word == SENTINEL {
            return;
        }
        sink.lock().push((word, ctx.now().as_nanos()));
        ctx.advance(us(if word.is_multiple_of(5) { 6 } else { 1 }));
    });
    let report = sim.run().unwrap();
    let got = got.lock().clone();
    (report, got)
}

/// Run `scenario` with its helper in each of `forms` under seeds 0…8: every
/// run must match the blocking one in what it observed, its trace, end
/// time, dispatch count, process count and incident log. Hand-offs match
/// too, except that a kernel component has fewer and a lent wait no more.
fn assert_forms_agree<T: PartialEq + std::fmt::Debug>(
    forms: &[Helper],
    scenario: impl Fn(Helper, u64) -> (SimReport, T),
) {
    for seed in 0..=8 {
        let (blocking, seen) = scenario(Helper::Blocking, seed);
        for &other in forms {
            let (report, got) = scenario(other, seed);
            assert_eq!(got, seen, "seed {seed} {other:?}: observed");
            assert_eq!(report.trace, blocking.trace, "seed {seed} {other:?}: trace");
            assert_eq!(report.end_time, blocking.end_time, "seed {seed} {other:?}");
            assert_eq!(
                report.dispatches, blocking.dispatches,
                "seed {seed} {other:?}"
            );
            assert_eq!(
                report.processes, blocking.processes,
                "seed {seed} {other:?}"
            );
            assert_eq!(
                report.incidents, blocking.incidents,
                "seed {seed} {other:?}"
            );
            match other {
                Helper::ThreadDriven | Helper::AsyncThreadDriven => {
                    assert_eq!(report.handoffs, blocking.handoffs, "seed {seed}");
                }
                // Lent once the CPU goes elsewhere: never more.
                Helper::AsyncInline => assert!(
                    report.handoffs <= blocking.handoffs,
                    "seed {seed}: {} hand-offs lent, {} as a thread",
                    report.handoffs,
                    blocking.handoffs
                ),
                _ => assert!(
                    report.handoffs < blocking.handoffs,
                    "seed {seed}: {} hand-offs as a component, {} as a thread",
                    report.handoffs,
                    blocking.handoffs
                ),
            }
        }
    }
}

/// The forms an `async` helper runs in besides the blocking one.
const ASYNC_FORMS: [Helper; 3] = [
    Helper::AsyncInline,
    Helper::AsyncThreadDriven,
    Helper::AsyncComponent,
];

/// Spawn `helper` as the scenario's helper: `blocking` for
/// [`Helper::Blocking`], else the future `body` builds, in the async form
/// asked for.
fn spawn_helper<F, Fut>(
    sim: &mut Simulation,
    helper: Helper,
    blocking: impl FnOnce(&ProcCtx) + Send + 'static,
    body: F,
) -> Pid
where
    F: FnOnce(ProcCtx) -> Fut + Send + 'static,
    Fut: std::future::Future<Output = ()> + Send + 'static,
{
    match helper {
        Helper::Blocking => sim.spawn("helper", blocking),
        Helper::AsyncInline => sim.spawn("helper", move |ctx| ctx.drive(body(ctx.clone()))),
        Helper::AsyncThreadDriven => {
            sim.spawn_boxed("helper", drive_component(async_component(body)))
        }
        Helper::AsyncComponent => Spawner::spawn_component(sim, "helper", async_component(body)),
        other => unreachable!("{other:?} has no async body"),
    }
}

#[test]
fn component_helper_is_indistinguishable_from_its_thread_under_nine_seeds() {
    let forms = [
        Helper::ThreadDriven,
        Helper::Component,
        Helper::AsyncInline,
        Helper::AsyncThreadDriven,
        Helper::AsyncComponent,
    ];
    assert_forms_agree(&forms, |helper, seed| {
        let (report, words) = relay_scenario(helper, seed);
        assert_eq!(words.len(), 24, "seed {seed}");
        assert_eq!(report.processes, 3);
        assert_eq!(report.incidents.len(), 6);
        (report, words)
    });
}

/// Rounds of the gate below, and how long each waits at most.
const GATE_ROUNDS: u64 = 12;
const GATE_DEADLINE_US: u64 = 5;

/// `(round, woken, time in ns)` of each wait at the gate.
type Waits = Arc<Mutex<Vec<(u64, bool, u64)>>>;

/// The helper waits at a gate with a deadline, then works 1 µs; a waker
/// opens the gate on a schedule that sometimes beats the deadline, sometimes
/// misses it, and sometimes lands while the helper works (a banked wake).
fn gate_scenario(helper: Helper, seed: u64) -> (SimReport, Vec<(u64, bool, u64)>) {
    let waits: Waits = Arc::default();
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let log = waits.clone();
    let blocking = move |ctx: &ProcCtx| {
        for round in 0..GATE_ROUNDS {
            let woken = ctx.block_on_timeout("gate", "open", us(GATE_DEADLINE_US));
            log.lock().push((round, woken, ctx.now().as_nanos()));
            ctx.advance(us(1));
        }
    };
    let log = waits.clone();
    let body = move |ctx: ProcCtx| async move {
        for round in 0..GATE_ROUNDS {
            let woken = Step::Block {
                label: "gate".into(),
                what: "open".into(),
                deadline: Some(us(GATE_DEADLINE_US)),
            }
            .woken()
            .await;
            log.lock().push((round, woken, ctx.now().as_nanos()));
            Step::Advance(us(1)).await;
        }
    };
    let gate = spawn_helper(&mut sim, helper, blocking, body);
    sim.spawn("waker", move |ctx| {
        for k in 0..GATE_ROUNDS {
            ctx.advance(us(k % 4 + 2));
            if k % 3 != 0 {
                ctx.unblock(gate, SimDuration::ZERO);
            }
        }
    });
    let report = sim.run().unwrap();
    let waits = waits.lock().clone();
    (report, waits)
}

#[test]
fn a_deadline_block_is_the_same_woken_early_or_timed_out_under_nine_seeds() {
    assert_forms_agree(&ASYNC_FORMS, |helper, seed| {
        let (report, waits) = gate_scenario(helper, seed);
        let woken = waits.iter().filter(|w| w.1).count();
        assert!(
            (1..waits.len()).contains(&woken),
            "seed {seed}: both outcomes occur: {waits:?}"
        );
        (report, waits)
    });
}

/// The helper pushes 16 words, 1 µs apart, into a queue two deep that a
/// slower consumer drains, so most pushes find it full.
fn full_queue_scenario(helper: Helper, seed: u64) -> (SimReport, Vec<(u32, u64)>) {
    let q: MsgQueue<u32> = MsgQueue::new("narrow", Some(2));
    let got = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let qb = q.clone();
    let blocking = move |ctx: &ProcCtx| {
        for word in 0..16u32 {
            qb.push(ctx, word, us(u64::from(word % 2)));
            ctx.advance(us(1));
        }
    };
    let qa = q.clone();
    let body = move |ctx: ProcCtx| async move {
        for word in 0..16u32 {
            qa.push_async(&ctx, word, us(u64::from(word % 2))).await;
            Step::Advance(us(1)).await;
        }
    };
    spawn_helper(&mut sim, helper, blocking, body);
    let sink = got.clone();
    sim.spawn("consumer", move |ctx| {
        for _ in 0..16 {
            let word = q.pop(ctx);
            sink.lock().push((word, ctx.now().as_nanos()));
            ctx.advance(us(if word.is_multiple_of(3) { 6 } else { 2 }));
        }
    });
    let report = sim.run().unwrap();
    let got = got.lock().clone();
    (report, got)
}

#[test]
fn a_push_onto_a_full_queue_is_the_same_under_nine_seeds() {
    assert_forms_agree(&ASYNC_FORMS, |helper, seed| {
        let (report, got) = full_queue_scenario(helper, seed);
        let words: Vec<u32> = got.iter().map(|w| w.0).collect();
        assert_eq!(words, (0..16).collect::<Vec<_>>(), "seed {seed}: FIFO");
        (report, got)
    });
}

#[test]
fn pending_wake_is_consumed_without_a_dispatch() {
    let label: Arc<str> = "gate".into();
    let steps = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    let (log, mut n) = (steps.clone(), 0);
    let comp = sim.spawn_component("comp", move |ctx| {
        n += 1;
        log.lock().push((n, ctx.now().as_nanos()));
        match n {
            1 => Step::Advance(us(10)),
            // The wake was banked at t = 1 µs, while the component waited.
            2 => Step::Block {
                label: label.clone(),
                what: "open".into(),
                deadline: None,
            },
            _ => Step::Done,
        }
    });
    sim.spawn("waker", move |ctx| {
        ctx.advance(us(1));
        ctx.unblock(comp, SimDuration::ZERO);
    });
    let report = sim.run().unwrap();
    assert_eq!(*steps.lock(), [(1, 0), (2, 10_000), (3, 10_000)]);
    let dispatched = report.trace.unwrap();
    let of_comp: Vec<u64> = dispatched
        .iter()
        .filter(|(_, pid)| *pid == comp)
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(of_comp, [0, 10_000], "step 3 ran without a dispatch");
    assert_eq!(report.end_time.as_nanos(), 10_000);
}

#[test]
fn poll_pop_reports_in_flight_then_ready() {
    let q: MsgQueue<u8> = MsgQueue::new("wire", None);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new();
    let qp = q.clone();
    sim.spawn("producer", move |ctx| qp.push(ctx, 9, us(5)));
    let log = seen.clone();
    sim.spawn_component("poller", move |ctx| {
        let polled = q.poll_pop(ctx);
        log.lock().push((ctx.now().as_nanos(), polled));
        match log.lock().last().unwrap().1 {
            Poll::Ready(_) => Step::Done,
            Poll::InFlight(wait) => Step::Advance(wait),
            Poll::Empty => q.pop_empty(),
        }
    });
    let report = sim.run().unwrap();
    assert_eq!(
        *seen.lock(),
        [(0, Poll::InFlight(us(5))), (5_000, Poll::Ready(9))]
    );
    assert_eq!(report.end_time.as_nanos(), 5_000);
}

/// `reader` pops a queue nobody pushes to, next to a thread that blocks for
/// good: the deadlock both ways of running the reader end in.
fn orphan_pop(component: bool) -> SimError {
    let q: MsgQueue<u8> = MsgQueue::new("orphan", None);
    let mut sim = Simulation::new();
    sim.spawn("bystander", |ctx| ctx.block("never"));
    if component {
        sim.spawn_component("reader", move |ctx| match q.poll_pop(ctx) {
            Poll::Empty => q.pop_empty(),
            other => panic!("nothing was pushed, got {other:?}"),
        });
    } else {
        sim.spawn("reader", move |ctx| {
            q.pop(ctx);
        });
    }
    sim.run().unwrap_err()
}

#[test]
fn blocked_component_is_named_in_the_deadlock_report_with_the_same_text() {
    let err = orphan_pop(true);
    assert_eq!(err, orphan_pop(false));
    assert_eq!(
        err,
        SimError::Deadlock {
            at: SimTime::ZERO,
            blocked: vec![
                (0, "bystander".into(), "never".into()),
                (1, "reader".into(), "orphan: pop (queue empty)".into()),
            ],
        }
    );
}

#[test]
fn time_limit_fires_while_only_components_are_runnable() {
    let mut sim = Simulation::new();
    sim.set_time_limit(SimTime(1_000_000));
    sim.spawn("parked", |ctx| ctx.block("never"));
    sim.spawn_component("spinner", |_| Step::Advance(us(10)));
    assert_eq!(
        sim.run().unwrap_err(),
        SimError::TimeLimitExceeded {
            limit: SimTime(1_000_000)
        }
    );
}

/// Last word of the rally below.
const RALLY: u32 = 1000;

#[test]
fn a_run_of_components_only_is_stepped_by_the_run_thread() {
    let (ping, pong): (MsgQueue<u32>, MsgQueue<u32>) =
        (MsgQueue::new("ping", None), MsgQueue::new("pong", None));
    let mut sim = Simulation::new();
    let runner = std::thread::current().id();
    for (name, rx, tx, serve) in [
        ("left", pong.clone(), ping.clone(), true),
        ("right", ping, pong, false),
    ] {
        let mut serve = serve;
        sim.spawn_component(name, move |ctx| {
            assert_eq!(std::thread::current().id(), runner);
            if std::mem::replace(&mut serve, false) {
                tx.push(ctx, 0, us(1));
            }
            loop {
                match rx.poll_pop(ctx) {
                    Poll::Ready(RALLY) => return Step::Done,
                    Poll::Ready(n) => {
                        tx.push(ctx, n + 1, us(1));
                        if n + 1 == RALLY {
                            return Step::Done;
                        }
                    }
                    Poll::InFlight(wait) => return Step::Advance(wait),
                    Poll::Empty => return rx.pop_empty(),
                }
            }
        });
    }
    let report = sim.run().unwrap();
    assert_eq!(report.processes, 2);
    assert_eq!(report.end_time.as_nanos(), (u64::from(RALLY) + 1) * 1_000);
    assert_eq!(report.handoffs, 0, "no thread exists to hand off to");
    assert!(report.dispatches > u64::from(RALLY));
}

type Outcome = Result<SimReport, SimError>;

/// What `misbehaving`'s component does on its third step; handed the pid of
/// a process that never finishes.
type ThirdStep = fn(&ProcCtx, Pid) -> Step;

/// A simulation whose component misbehaves on its third step, while one
/// thread sits in `advance` (and so runs the step) and another is blocked.
/// Also hands back a token the component's body owns.
fn misbehaving(third_step: ThirdStep) -> (Outcome, Arc<()>) {
    let token = Arc::new(());
    let held = token.clone();
    let mut sim = Simulation::new();
    let parked = sim.spawn("parked", |ctx| ctx.block("never"));
    sim.spawn("host", |ctx| loop {
        ctx.advance(us(100));
    });
    let mut n = 0;
    sim.spawn_component("culprit", move |ctx| {
        let _ = &held;
        n += 1;
        if n < 3 {
            return Step::Advance(us(30));
        }
        third_step(ctx, parked)
    });
    (sim.run(), token)
}

#[test]
fn a_panicking_step_fails_the_run_naming_the_component() {
    let (result, _) = misbehaving(|_, _| panic!("step went wrong: {}", 7));
    match result {
        Err(SimError::ProcessPanicked { pid, name, message }) => {
            assert_eq!((pid, name.as_str()), (2, "culprit"));
            assert_eq!(message, "step went wrong: 7");
        }
        other => panic!("expected a panic report, got {other:?}"),
    }
}

#[test]
fn an_aborting_step_ends_the_run_as_aborted() {
    let (result, _) = misbehaving(|ctx, _| ctx.abort("PI_Write: not an endpoint"));
    assert_eq!(
        result.unwrap_err(),
        SimError::Aborted {
            pid: 2,
            name: "culprit".into(),
            message: "PI_Write: not an endpoint".into(),
        }
    );
}

#[test]
fn a_blocking_call_inside_a_step_aborts_instead_of_parking_the_dispatcher() {
    let cases: [(&str, ThirdStep); 4] = [
        ("advance", |ctx, _| {
            ctx.advance(us(1));
            Step::Done
        }),
        ("block", |ctx, _| {
            ctx.block_on("gate", "open");
            Step::Done
        }),
        ("block", |ctx, _| {
            ctx.block_timeout("gate", us(1));
            Step::Done
        }),
        ("join", |ctx, parked| {
            ctx.join(parked);
            Step::Done
        }),
    ];
    for (op, step) in cases {
        match misbehaving(step).0 {
            Err(SimError::Aborted { pid, name, message }) => {
                assert_eq!((pid, name.as_str()), (2, "culprit"));
                assert!(
                    message.contains("'culprit'") && message.contains(&format!("`{op}`")),
                    "{op}: {message}"
                );
            }
            other => panic!("{op}: expected an abort, got {other:?}"),
        }
    }
}

#[test]
fn run_drops_every_component_body_on_every_outcome() {
    // Aborted, panicked: the body is dropped by the thread that ran the step.
    let (_, token) = misbehaving(|ctx, _| ctx.abort("stop"));
    assert_eq!(Arc::strong_count(&token), 1, "abort");
    let (_, token) = misbehaving(|_, _| panic!("stop"));
    assert_eq!(Arc::strong_count(&token), 1, "panic");

    // Deadlock: the body is still in its slot, blocked, when the run ends.
    // Time limit: likewise, waiting. Completed: dropped at `Step::Done`.
    type Script = fn(u32) -> Step;
    type Expect = fn(&Outcome) -> bool;
    let scripts: [(&str, Script, Expect); 3] = [
        (
            "deadlock",
            |_| Step::Block {
                label: "gate".into(),
                what: "open".into(),
                deadline: None,
            },
            |r| matches!(r, Err(SimError::Deadlock { .. })),
        ),
        (
            "time limit",
            |_| Step::Advance(us(400)),
            |r| matches!(r, Err(SimError::TimeLimitExceeded { .. })),
        ),
        (
            "completed",
            |n| {
                if n < 3 {
                    Step::Advance(us(1))
                } else {
                    Step::Done
                }
            },
            |r| r.is_ok(),
        ),
    ];
    for (what, script, expected) in scripts {
        let token = Arc::new(());
        let held = token.clone();
        let mut sim = Simulation::new();
        sim.set_time_limit(SimTime(1_000_000));
        let (mut n, mut kept) = (0, None);
        sim.spawn_component("comp", move |ctx| {
            // The body holds the kernel (through a `ProcCtx` of its own, as
            // a `Comm` would): the cycle `run()` has to break.
            let _ = (&held, kept.get_or_insert_with(|| ctx.clone()));
            n += 1;
            script(n)
        });
        let result = sim.run();
        assert!(expected(&result), "{what}: {result:?}");
        assert_eq!(Arc::strong_count(&token), 1, "{what}: body leaked");
    }
}

/// How the `async` culprit below ends, after one 30 µs step.
#[derive(Debug, Clone, Copy)]
enum End {
    Complete,
    Panic,
    Abort,
    /// Suspends on a future that is not a `Step`: nothing can resume it.
    PendingWithoutStep,
    Block,
    Spin,
}

async fn culprit(ctx: ProcCtx, end: End) {
    Step::Advance(us(30)).await;
    match end {
        End::Complete => {}
        End::Panic => panic!("step went wrong: {}", 7),
        End::Abort => ctx.abort("PI_Write: not an endpoint"),
        End::PendingWithoutStep => std::future::pending().await,
        End::Block => {
            Step::Block {
                label: "gate".into(),
                what: "open".into(),
                deadline: None,
            }
            .await
        }
        End::Spin => loop {
            Step::Advance(us(400)).await;
        },
    }
}

/// Run `culprit(end)` as a component next to an observer thread that sits
/// in `advance` (and so runs the culprit's steps) until 100 µs, under a
/// 1 ms time limit. Returns the outcome and how many owners a token the
/// future holds has at 100 µs (the test's own alone once the future is
/// gone) and after the run.
fn run_culprit(end: End) -> (Outcome, Option<usize>, usize) {
    let token = Arc::new(());
    let held = token.clone();
    let seen = Arc::new(Mutex::new(None));
    let mut sim = Simulation::new();
    sim.set_time_limit(SimTime(1_000_000));
    let (owners, log) = (Arc::downgrade(&token), seen.clone());
    sim.spawn("observer", move |ctx| {
        ctx.advance(us(100));
        *log.lock() = Some(owners.strong_count());
    });
    let body = async_component(move |ctx| async move {
        let _held = held;
        culprit(ctx, end).await;
    });
    Spawner::spawn_component(&mut sim, "culprit", body);
    let outcome = sim.run();
    let seen = *seen.lock();
    (outcome, seen, Arc::strong_count(&token))
}

#[test]
fn an_async_component_suspended_without_a_step_panics_naming_it() {
    match run_culprit(End::PendingWithoutStep).0 {
        Err(SimError::ProcessPanicked { pid, name, message }) => {
            assert_eq!((pid, name.as_str()), (1, "culprit"));
            assert!(message.contains("without awaiting a `Step`"), "{message}");
        }
        other => panic!("expected a panic report, got {other:?}"),
    }
}

#[test]
fn an_async_component_panic_or_abort_ends_the_run_naming_it() {
    assert_eq!(
        run_culprit(End::Panic).0.unwrap_err(),
        SimError::ProcessPanicked {
            pid: 1,
            name: "culprit".into(),
            message: "step went wrong: 7".into(),
        }
    );
    assert_eq!(
        run_culprit(End::Abort).0.unwrap_err(),
        SimError::Aborted {
            pid: 1,
            name: "culprit".into(),
            message: "PI_Write: not an endpoint".into(),
        }
    );
}

#[test]
fn an_async_component_future_is_dropped_on_every_outcome() {
    let (outcome, at_100us, _) = run_culprit(End::Complete);
    assert!(outcome.is_ok(), "{outcome:?}");
    assert_eq!(at_100us, Some(1), "dropped when it completed, at 30 µs");
    for end in [
        End::Panic,
        End::Abort,
        End::PendingWithoutStep,
        End::Block,
        End::Spin,
    ] {
        let (outcome, _, after) = run_culprit(end);
        let expected = match end {
            End::Block => matches!(
                &outcome,
                Err(SimError::Deadlock { blocked, .. })
                    if *blocked == [(1, "culprit".to_string(), "gate: open".to_string())]
            ),
            End::Spin => matches!(outcome, Err(SimError::TimeLimitExceeded { .. })),
            _ => outcome.is_err(),
        };
        assert!(expected, "{end:?}: {outcome:?}");
        assert_eq!(after, 1, "{end:?}: future leaked");
    }
}

// ---------------------------------------------------------------------------
// Lent waits: a thread that runs a library wait through `ProcCtx::drive`
// makes the same kernel calls as one that makes them itself, whichever
// thread ends up polling the future. Each scenario below runs its wait both
// ways under seeds 0…8 and pins the schedule both must produce: end time,
// dispatch count and a digest of the `(time, pid)` trace. Driving the wait
// may only save hand-offs.
// ---------------------------------------------------------------------------

/// How a scenario's owner makes its wait.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wait {
    /// Blocking calls on the owner's thread.
    Blocking,
    /// The same wait as a future, run by `ProcCtx::drive`.
    Driven,
}

/// `(end time in ns, dispatches, FNV-1a digest of the (time, pid) trace)`.
type Schedule = (u64, u64, u64);

fn schedule(report: &SimReport) -> Schedule {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (t, pid) in report.trace.as_ref().expect("traced run") {
        for b in format!("{}:{pid};", t.as_nanos()).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (report.end_time.as_nanos(), report.dispatches, h)
}

/// Run `scenario` both ways under seeds 0…8: the two must observe the same
/// and produce the same schedule, and the driven wait must not hand off
/// more. The schedules, one per seed, for the caller to pin.
fn driven_agrees<T: PartialEq + std::fmt::Debug>(
    scenario: impl Fn(Wait, u64) -> (SimReport, T),
) -> Vec<Schedule> {
    (0..=8)
        .map(|seed| {
            let (blocking, seen) = scenario(Wait::Blocking, seed);
            let (driven, got) = scenario(Wait::Driven, seed);
            assert_eq!(got, seen, "seed {seed}: observed");
            assert_eq!(driven.trace, blocking.trace, "seed {seed}: trace");
            assert_eq!(driven.dispatches, blocking.dispatches, "seed {seed}");
            assert_eq!(driven.end_time, blocking.end_time, "seed {seed}");
            assert!(
                driven.handoffs <= blocking.handoffs,
                "seed {seed}: {} hand-offs driven, {} blocking",
                driven.handoffs,
                blocking.handoffs
            );
            schedule(&driven)
        })
        .collect()
}

/// When the doorbell scenario's setter raises the level, each time after
/// the last.
const RAISE_AFTER_US: [u64; 6] = [1, 6, 2, 9, 1, 4];

/// The owner waits six times for a level another process raises: 1 µs to
/// look, then a 1 µs poll until the level is reached — the shape of the
/// one-sided doorbell — then 3 µs of work. The setter raises the level on
/// an uneven schedule, so some waits find it raised at their first look
/// and some poll until the setter comes round. Logs the polls of each wait,
/// and in `on_owner` whether a driven wait finished on the owner's thread.
fn doorbell_scenario(
    wait: Wait,
    seed: u64,
    on_owner: &Arc<Mutex<Vec<bool>>>,
) -> (SimReport, Vec<u32>) {
    let level = Arc::new(AtomicU32::new(0));
    let polls = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let (lvl, log, on_owner) = (level.clone(), polls.clone(), on_owner.clone());
    sim.spawn("owner", move |ctx| {
        let owner = std::thread::current().id();
        for want in 1..=RAISE_AFTER_US.len() as u32 {
            let n = match wait {
                Wait::Blocking => {
                    ctx.advance(us(1));
                    let mut n = 0;
                    while lvl.load(Ordering::Relaxed) < want {
                        ctx.advance(us(1));
                        n += 1;
                    }
                    n
                }
                Wait::Driven => {
                    let (lvl, on_owner) = (lvl.clone(), on_owner.clone());
                    ctx.drive(async move {
                        Step::Advance(us(1)).await;
                        let mut n = 0;
                        while lvl.load(Ordering::Relaxed) < want {
                            Step::Advance(us(1)).await;
                            n += 1;
                        }
                        on_owner.lock().push(std::thread::current().id() == owner);
                        n
                    })
                }
            };
            log.lock().push(n);
            ctx.advance(us(3));
        }
    });
    sim.spawn("setter", move |ctx| {
        for after in RAISE_AFTER_US {
            ctx.advance(us(after));
            level.fetch_add(1, Ordering::Relaxed);
        }
    });
    let report = sim.run().unwrap();
    let polls = polls.lock().clone();
    (report, polls)
}

#[test]
fn a_driven_poll_keeps_its_schedule_under_nine_seeds() {
    let got = driven_agrees(|wait, seed| doorbell_scenario(wait, seed, &Arc::default()));
    let want: Vec<Schedule> = vec![
        (29_000, 25, 0x0022_5cb3_092c_ad6c),
        (30_000, 26, 0x5487_4703_25b6_6174),
        (30_000, 26, 0x1288_6fae_b017_2274),
        (29_000, 25, 0x371e_5979_16f0_0aa3),
        (30_000, 26, 0x5487_4703_25b6_6174),
        (29_000, 25, 0x371e_5979_16f0_0aa3),
        (30_000, 26, 0xdb3a_8b7c_90fe_9f5c),
        (29_000, 25, 0x1819_198f_26fc_d377),
        (30_000, 26, 0x5fa2_96a4_1de1_224b),
    ];
    assert_eq!(got, want);
}

#[test]
fn a_lent_wait_finishes_on_its_owners_thread_and_on_others() {
    let on_owner = Arc::new(Mutex::new(Vec::new()));
    let (mut blocking, mut driven) = (0, 0);
    for seed in 0..=8 {
        blocking += doorbell_scenario(Wait::Blocking, seed, &Arc::default())
            .0
            .handoffs;
        driven += doorbell_scenario(Wait::Driven, seed, &on_owner).0.handoffs;
    }
    assert!(
        driven < blocking,
        "{driven} hand-offs driven, {blocking} blocking"
    );
    // A wait whose level was raised while the owner worked ends on the
    // owner's thread, which is dispatching when it lends; one that polls
    // until the setter comes round ends on the setter's.
    let on_owner = on_owner.lock();
    assert!(
        on_owner.contains(&true) && on_owner.contains(&false),
        "{on_owner:?}"
    );
}

/// The owner computes 5 µs while a waker unblocks it at 1 µs (a banked
/// wake), then waits at a gate three times — the first wait finds the wake
/// banked — each followed by 2 µs of work inside the wait; the waker opens
/// the gate twice more. Logs the time each wait ends.
fn banked_wake_scenario(wait: Wait, seed: u64) -> (SimReport, Vec<u64>) {
    let ends = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let log = ends.clone();
    let owner = sim.spawn("owner", move |ctx| {
        ctx.advance(us(5));
        for _ in 0..3 {
            match wait {
                Wait::Blocking => {
                    ctx.block_on("gate", "open");
                    ctx.advance(us(2));
                }
                Wait::Driven => ctx.drive(async {
                    Step::Block {
                        label: "gate".into(),
                        what: "open".into(),
                        deadline: None,
                    }
                    .await;
                    Step::Advance(us(2)).await;
                }),
            }
            log.lock().push(ctx.now().as_nanos());
        }
    });
    sim.spawn("waker", move |ctx| {
        for at in [1, 8, 4] {
            ctx.advance(us(at));
            ctx.unblock(owner, SimDuration::ZERO);
        }
    });
    let report = sim.run().unwrap();
    let ends = ends.lock().clone();
    (report, ends)
}

#[test]
fn a_banked_wake_is_consumed_when_the_wait_is_lent_under_nine_seeds() {
    let got = driven_agrees(banked_wake_scenario);
    let want: Vec<Schedule> = vec![
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xaf71_851b_5396_ee9d),
        (15_000, 11, 0xdef0_bd82_3c69_a2f9),
        (15_000, 11, 0xaf71_851b_5396_ee9d),
    ];
    assert_eq!(got, want);
}

/// The owner makes eight waits: 1 µs of work, then a 4 µs deadline wait at
/// a gate. A ticker due every microsecond, half a microsecond out of step,
/// takes the CPU during the work, so the deadline wait happens inside the
/// lent wait. The waker opens the gate on a schedule that sometimes beats
/// the deadline, sometimes misses it, and sometimes lands while the owner
/// works. Logs `(woken, time)` of each wait, and in `lent` how each lent
/// wait that finished on another thread ended.
fn deadline_scenario(
    wait: Wait,
    seed: u64,
    lent: &Arc<Mutex<Vec<bool>>>,
) -> (SimReport, Vec<(bool, u64)>) {
    let waits = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::with_trace();
    sim.set_schedule_seed(seed);
    let (log, lent) = (waits.clone(), lent.clone());
    let owner = sim.spawn("owner", move |ctx| {
        let owner = std::thread::current().id();
        for _ in 0..8 {
            let woken = match wait {
                Wait::Blocking => {
                    ctx.advance(us(1));
                    ctx.block_on_timeout("gate", "open", us(4))
                }
                Wait::Driven => {
                    let lent = lent.clone();
                    ctx.drive(async move {
                        Step::Advance(us(1)).await;
                        let woken = Step::Block {
                            label: "gate".into(),
                            what: "open".into(),
                            deadline: Some(us(4)),
                        }
                        .woken()
                        .await;
                        if std::thread::current().id() != owner {
                            lent.lock().push(woken);
                        }
                        woken
                    })
                }
            };
            log.lock().push((woken, ctx.now().as_nanos()));
        }
    });
    sim.spawn("waker", move |ctx| {
        for after in [6, 2, 9, 1, 3, 7, 2, 5] {
            ctx.advance(us(after));
            ctx.unblock(owner, SimDuration::ZERO);
        }
    });
    sim.spawn("ticker", |ctx| {
        ctx.advance(SimDuration::from_nanos(500));
        for _ in 0..40 {
            ctx.advance(us(1));
        }
    });
    let report = sim.run().unwrap();
    let waits = waits.lock().clone();
    (report, waits)
}

#[test]
fn a_deadline_inside_a_lent_wait_fires_or_is_beaten_under_nine_seeds() {
    let lent = Arc::new(Mutex::new(Vec::new()));
    let got = driven_agrees(|wait, seed| {
        let (report, waits) = deadline_scenario(wait, seed, &lent);
        let woken = waits.iter().filter(|w| w.0).count();
        assert!(
            (1..waits.len()).contains(&woken),
            "seed {seed}: both outcomes occur: {waits:?}"
        );
        (report, waits)
    });
    let want: Vec<Schedule> = vec![
        (40_500, 66, 0x1876_ed14_8f24_ffa7),
        (40_500, 66, 0x1876_ed14_8f24_ffa7),
        (40_500, 67, 0xfde4_1e43_c84f_accd),
        (40_500, 68, 0x1f20_0583_4d94_b30c),
        (40_500, 67, 0x459f_9ad0_3ebd_f5ba),
        (40_500, 68, 0x387e_c571_9f41_36d8),
        (40_500, 67, 0xdae8_488b_32a8_dded),
        (40_500, 68, 0x1f20_0583_4d94_b30c),
        (40_500, 67, 0xdae8_488b_32a8_dded),
    ];
    assert_eq!(got, want);
    // Both ends of a deadline wait were met inside a lent wait.
    let lent = lent.lock();
    assert!(lent.contains(&true) && lent.contains(&false), "{lent:?}");
}

/// How the wait of [`ending_wait`] ends after its first 30 µs.
#[derive(Debug, Clone, Copy)]
enum WaitEnd {
    Panic,
    Abort,
    /// Blocks at a gate nobody opens.
    Block,
}

/// The owner runs a wait that ends as `end` after 30 µs, while `host` sits
/// in `advance` (so it is the thread that polls the driven wait) and
/// `parked` is blocked for good.
fn ending_wait(wait: Wait, end: WaitEnd, seed: u64) -> SimError {
    let mut sim = Simulation::new();
    sim.set_schedule_seed(seed);
    sim.spawn("parked", |ctx| ctx.block("never"));
    sim.spawn("host", |ctx| {
        for _ in 0..3 {
            ctx.advance(us(20));
        }
    });
    sim.spawn("owner", move |ctx| match wait {
        Wait::Blocking => {
            ctx.advance(us(30));
            match end {
                WaitEnd::Panic => panic!("wait went wrong: {}", 7),
                WaitEnd::Abort => ctx.abort("PI_Read: not an endpoint"),
                WaitEnd::Block => ctx.block_on("doorbell", "poll"),
            }
        }
        Wait::Driven => {
            let c = ctx.clone();
            ctx.drive(async move {
                Step::Advance(us(30)).await;
                match end {
                    WaitEnd::Panic => panic!("wait went wrong: {}", 7),
                    WaitEnd::Abort => c.abort("PI_Read: not an endpoint"),
                    WaitEnd::Block => {
                        Step::Block {
                            label: "doorbell".into(),
                            what: "poll".into(),
                            deadline: None,
                        }
                        .await
                    }
                }
            })
        }
    });
    sim.run().unwrap_err()
}

#[test]
fn a_panic_or_abort_inside_a_lent_wait_ends_the_run_naming_its_owner() {
    for seed in 0..=8 {
        for wait in [Wait::Blocking, Wait::Driven] {
            assert_eq!(
                ending_wait(wait, WaitEnd::Panic, seed),
                SimError::ProcessPanicked {
                    pid: 2,
                    name: "owner".into(),
                    message: "wait went wrong: 7".into(),
                },
                "seed {seed} {wait:?}"
            );
            assert_eq!(
                ending_wait(wait, WaitEnd::Abort, seed),
                SimError::Aborted {
                    pid: 2,
                    name: "owner".into(),
                    message: "PI_Read: not an endpoint".into(),
                },
                "seed {seed} {wait:?}"
            );
        }
    }
}

#[test]
fn a_deadlock_with_a_lent_wait_reads_the_same() {
    for seed in 0..=8 {
        for wait in [Wait::Blocking, Wait::Driven] {
            let err = ending_wait(wait, WaitEnd::Block, seed);
            assert_eq!(
                err.to_string(),
                "simulation deadlock at 60.000us: all processes blocked\n  \
                 [0] parked: blocked on never\n  \
                 [2] owner: blocked on doorbell: poll\n",
                "seed {seed} {wait:?}"
            );
        }
    }
}

#[test]
fn a_nested_drive_that_waits_inside_a_lent_wait_aborts_naming_its_owner() {
    let mut sim = Simulation::new();
    sim.spawn("host", |ctx| ctx.advance(us(10)));
    sim.spawn("owner", move |ctx| {
        let c = ctx.clone();
        ctx.drive(async move {
            // `host` is due first: the wait is lent, and stepped from here
            // on by `host`'s thread as it exits.
            Step::Advance(us(20)).await;
            // Ready at once: a nested drive that never waits is fine.
            assert_eq!(c.drive(async { 7 }), 7);
            // This one waits: it would park its dispatcher.
            c.drive(async { Step::Advance(us(1)).await });
        });
    });
    match sim.run() {
        Err(SimError::Aborted { pid, name, message }) => {
            assert_eq!((pid, name.as_str()), (1, "owner"));
            assert!(
                message.contains("lent wait of 'owner'") && message.contains("`drive`"),
                "{message}"
            );
        }
        other => panic!("expected an abort, got {other:?}"),
    }
}
