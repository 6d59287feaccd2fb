//! The discrete-event kernel: virtual clock, event queue, and cooperative
//! scheduling of simulated processes — thread-backed ones and components.
//!
//! # Execution model
//!
//! A simulated process runs on its own OS thread (or, as a component, on
//! whichever thread dispatches it — see below), but the kernel grants the
//! CPU to **exactly one** process at a time, always the one owning the
//! earliest `(virtual_time, sequence)` event in the queue. A process gives up
//! the CPU only inside kernel calls ([`ProcCtx::advance`], [`ProcCtx::block`],
//! [`ProcCtx::join`], or process exit), so between kernel calls a process may
//! freely mutate shared state without data races *or* lost determinism: the
//! interleaving is a pure function of the event timestamps and spawn order.
//!
//! If the event queue drains while unfinished processes remain, every one of
//! them is blocked with no possible waker: the kernel reports a
//! [`SimError::Deadlock`] naming each process and its blocking reason.
//!
//! # Components
//!
//! A **component** ([`ProcCtx::spawn_component`]) is a process without a
//! thread: it owns a pid, a name, a blocked-on reason and events in the
//! queue like any other, but its body runs from one kernel call to the next
//! and *returns* that call as a [`Step`] — usually an `async` block turned
//! into a body by [`crate::async_component`], each `.await` on a `Step` one
//! step. When `dispatch` grants a component the CPU, the thread doing the
//! dispatching — an `advance` / `block` caller, an exiting process, or
//! [`Simulation::run`] — releases `Kernel::state`, runs one step, takes the
//! lock again, applies the step by the rules a thread's call would have hit
//! (`push_event`, the pending-wake bank, `Blocked` + reason — plus, for a
//! block with a deadline, the timeout event `block_timeout` pushes — and
//! exit), and dispatches again, in a loop, until a thread-backed owner comes
//! up (possibly itself). The next step of a component whose deadline fired
//! learns so from [`Step::woken`], as `block_timeout`'s caller does from its
//! result. The kernel calls and their order are the same as the
//! thread form's, so the `(time, pid)` trace does not change; only the
//! wake-ups do ([`SimReport::handoffs`]). A step runs on somebody else's
//! thread while that thread's own process is `Waiting` or `Blocked`, so it
//! may take only locks that are never held across a kernel call (never
//! across an `.await`: `clippy.toml` makes that a lint error), and a
//! blocking call on its own pid aborts the run instead of parking the
//! dispatcher.
//!
//! # Lent waits
//!
//! A thread-backed process runs a library wait — an MPI send or receive, a
//! 1 µs doorbell poll — as a future through [`ProcCtx::drive`]. Its
//! thread polls the future and applies each [`Step`] exactly as a
//! component's step is applied (so a block that finds a wake banked costs
//! no dispatch), then dispatches; while its own event comes up next it
//! simply polls on. The first time the CPU goes elsewhere the wait is
//! *lent*: the future goes into the process's slot, and from then on the
//! slot is stepped like a component's by whichever thread dispatches it.
//! When the future finishes, its output (or its panic, or the unwind of an
//! abort) is left in the slot and the CPU passes to the owner *inside the
//! same dispatch*: no trace entry, no dispatch, and a hand-off only when
//! the owner is not the dispatching thread. The owner's thread therefore
//! wakes to run its own code, never to poll. While its wait is lent a
//! process is stepped like a component in every other way too: a blocking
//! call made from inside the future, a nested [`ProcCtx::drive`] that goes
//! `Pending` included, aborts the run.
//!
//! # Hand-off protocol
//!
//! 1. Every `advance` / `block` / `block_timeout` / process exit takes
//!    `Kernel::state` **once**, decides the next owner of the virtual CPU
//!    under it, releases it, and only then unparks that owner's thread — the
//!    woken thread never collides with the lock it needs.
//! 2. Only `dispatch` (under the lock) sets `Status::Running`; a caller whose
//!    own event is the earliest keeps the CPU and returns without parking.
//! 3. Everybody else calls `std::thread::park()` and confirms `Running` /
//!    `Poisoned` under the lock only after waking. `unpark` leaves a token
//!    when it beats the `park`, so a grant delivered early is not lost.
//! 4. A spurious wake, a stray `unpark` or a stale token finds the status
//!    still `Waiting` / `Blocked` and simply parks again.
//! 5. A thread registers its handle under the lock before its first park and
//!    checks its status in the same critical section, so a dispatch or a
//!    teardown that beat the registration is seen there, without any wake.
//! 6. A lent wait that finishes leaves its outcome in the owner's slot,
//!    clears the slot's `stepped` mark and keeps the CPU busy for the owner;
//!    the dispatching thread then returns to the owner (when that is
//!    itself) or unparks it, like a grant. The owner confirms `Running`
//!    *and* unmarked: a spurious wake while its future is mid-step on
//!    another thread finds the mark still set and parks again.
//!
//! The kernel is one implementation of the [`Executor`] seam; `cp-native`
//! provides a wall-clock thread implementation of the same trait, and
//! [`ProcCtx`] dispatches to whichever substrate spawned the process.

use crate::backend::{
    poll_once, resume, Backend, ComponentBody, Executor, LentWait, ProcBody, Spawner, Step,
    DONE_ON_A_THREAD,
};
use crate::error::{Incident, IncidentCategory, Pid, SimError, SimReport};
use crate::rng::SplitMix64;
use crate::time::{SimDuration, SimTime};
use cp_trace::Recorder;
use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::{JoinHandle, Thread};

/// Payload used to unwind a simulated process when the simulation is torn
/// down early (deadlock, abort, or another process panicking).
struct SimUnwind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Has an event in the queue; parked until that event is dispatched.
    Waiting,
    /// Currently owns the virtual CPU.
    Running,
    /// Parked with no queued event (or only a `block_timeout` deadline);
    /// needs an `unblock` to become Waiting. Why is in [`ProcSlot::reason`].
    Blocked,
    /// Thread has exited.
    Finished,
    /// Simulation is tearing down; parked threads must unwind on wake.
    Poisoned,
}

struct ProcSlot {
    name: String,
    status: Status,
    /// Wake permits delivered while the process was not blocked; consumed by
    /// the next `block` call without yielding.
    pending_wakes: u32,
    /// Sequence number of the most recent event pushed for this process.
    /// Dispatch honours a popped event only if its sequence matches, which
    /// invalidates stale timeout events left behind when a timed block is
    /// woken early by `unblock`.
    expected_seq: Option<u64>,
    /// Set by dispatch when the wake came from a `block_timeout` deadline
    /// rather than an `unblock`; consumed by `block_timeout` on resume.
    timed_out: bool,
    /// Processes blocked in `join` on this process.
    join_waiters: Vec<Pid>,
    /// What the process is blocked on, for the deadlock report. Refilled in
    /// place by every block; meaningful only while `status` is `Blocked`.
    reason: String,
    /// The OS thread behind the process, registered by that thread itself
    /// before its first park. `None` until then: a dispatch that beats the
    /// registration wakes nobody and is seen by the thread's first check.
    /// Always `None` for a component.
    thread: Option<Thread>,
    /// True for a component, and for a thread while its wait is lent:
    /// whoever dispatches it runs its step.
    stepped: bool,
    /// A component's state machine or a thread's lent wait; taken out while
    /// a step runs, gone once it is done. Holds a `ProcCtx`, hence this
    /// kernel: `run()` clears it.
    body: Option<Body>,
    /// How the thread's lent wait ended, left for the owner to collect.
    lent_out: Option<LentOutcome>,
}

/// What the dispatcher steps.
enum Body {
    Component(ProcCtx, ComponentBody),
    Lent(LentWait),
}

/// A lent wait's output, or the payload it unwound with.
type LentOutcome = Result<Box<dyn Any + Send>, Box<dyn Any + Send>>;

/// What one step of a [`Body`] came to.
enum Stepped {
    /// The kernel call it ends in; [`Step::Done`] when a component is done.
    Call(Step),
    /// A lent wait's output.
    Output(Box<dyn Any + Send>),
}

impl Body {
    fn step(&mut self) -> Stepped {
        match self {
            Body::Component(ctx, body) => Stepped::Call(body(ctx)),
            Body::Lent(wait) => match poll_once(wait.as_mut()) {
                Ok(out) => Stepped::Output(out),
                Err(Step::Done) => panic!("{DONE_ON_A_THREAD}"),
                Err(step) => Stepped::Call(step),
            },
        }
    }
}

/// What `dispatch` decided.
enum Next {
    /// The caller's own event was the earliest: it keeps the CPU.
    Me,
    /// A component or a lent wait owns the CPU; the caller runs its step.
    Step(Pid),
    /// Another thread owns the CPU, or the run ended: fire `wake`.
    Other,
}

/// Threads to unpark once `Kernel::state` has been released.
#[derive(Default)]
struct Wake {
    /// The next owner of the virtual CPU.
    next: Option<Thread>,
    /// End of the run: every poisoned process and the `run()` caller.
    rest: Vec<Thread>,
}

impl Wake {
    fn fire(self) {
        for t in self.next.iter().chain(&self.rest) {
            t.unpark();
        }
    }
}

enum Outcome {
    Completed,
    Failed(SimError),
}

struct KState {
    now: SimTime,
    limit: Option<SimTime>,
    next_seq: u64,
    /// Schedule-exploration seed. Zero (the default) orders same-timestamp
    /// events FIFO by sequence number; any other value permutes the
    /// tie-break deterministically (see [`Kernel::push_event`]), yielding a
    /// different — but equally legal and fully reproducible — interleaving.
    sched_seed: u64,
    /// Entries are `(time, tie_key, seq, pid)`: time first, then the seeded
    /// tie key for same-timestamp events, with the raw sequence number as
    /// the final total-order tiebreaker.
    queue: BinaryHeap<Reverse<(u64, u64, u64, Pid)>>,
    procs: Vec<ProcSlot>,
    /// Number of processes not yet Finished.
    live: usize,
    /// True while some process owns the virtual CPU.
    cpu_busy: bool,
    outcome: Option<Outcome>,
    dispatches: u64,
    /// Dispatches that had to wake another OS thread.
    handoffs: u64,
    trace: Option<Vec<(SimTime, Pid)>>,
    incidents: Vec<Incident>,
    /// Observability hook; disabled by default, so recording costs one
    /// branch per dispatch unless [`Simulation::set_recorder`] arms it.
    recorder: Recorder,
    /// The thread inside [`Simulation::run`], woken when `outcome` is set.
    runner: Option<Thread>,
}

pub(crate) struct Kernel {
    state: Mutex<KState>,
    /// Mirror of `KState::now`, written by `dispatch` under the lock. A
    /// process reads the clock only while it owns the CPU, and the hand-off
    /// that gave it the CPU already ordered the store before it, so
    /// `Relaxed` is enough and `now()` needs no lock.
    now: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Self-reference so `Executor::spawn_boxed` can hand each new process a
    /// `ProcCtx` holding an owning handle on this kernel.
    me: Weak<Kernel>,
}

impl Kernel {
    fn new(trace: bool) -> Arc<Kernel> {
        Arc::new_cyclic(|me| Kernel {
            state: Mutex::new(KState {
                now: SimTime::ZERO,
                limit: None,
                next_seq: 0,
                sched_seed: 0,
                queue: BinaryHeap::new(),
                procs: Vec::new(),
                live: 0,
                cpu_busy: false,
                outcome: None,
                dispatches: 0,
                handoffs: 0,
                trace: if trace { Some(Vec::new()) } else { None },
                incidents: Vec::new(),
                recorder: Recorder::disabled(),
                runner: None,
            }),
            now: AtomicU64::new(0),
            handles: Mutex::new(Vec::new()),
            me: me.clone(),
        })
    }

    /// Push an event waking `pid` at time `at`. The new event supersedes any
    /// earlier one still queued for `pid` (see [`ProcSlot::expected_seq`]).
    ///
    /// With a zero schedule seed the tie key equals the sequence number, so
    /// same-timestamp events dispatch FIFO. A nonzero seed hashes the seed
    /// with the sequence number instead, permuting only the order of
    /// same-timestamp events across processes — every schedule it produces is
    /// still a legal interleaving, and the same seed always reproduces the
    /// same schedule.
    fn push_event(st: &mut KState, at: SimTime, pid: Pid) {
        let seq = st.next_seq;
        st.next_seq += 1;
        st.procs[pid].expected_seq = Some(seq);
        let tie = if st.sched_seed == 0 {
            seq
        } else {
            SplitMix64(st.sched_seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
        };
        st.queue.push(Reverse((at.0, tie, seq, pid)));
    }

    /// Hand the virtual CPU to the owner of the earliest event, or end the
    /// simulation (completion or deadlock). Caller must have already released
    /// the CPU (`cpu_busy == false`). When the owner is neither stepped (a
    /// component, or a lent wait — even `me`'s own) nor `me`, whoever has
    /// to be woken is left in `wake`, to be fired after the lock is
    /// released.
    fn dispatch(&self, st: &mut KState, me: Option<Pid>, wake: &mut Wake) -> Next {
        debug_assert!(!st.cpu_busy);
        if st.outcome.is_some() {
            return Next::Other;
        }
        while let Some(Reverse((t, _tie, seq, pid))) = st.queue.pop() {
            // A popped event is live only if it is the most recent one pushed
            // for its process; superseded events (e.g. a timeout whose block
            // was already woken by `unblock`) are skipped, as are events for
            // processes that finished or were torn down meanwhile.
            if st.procs[pid].expected_seq != Some(seq) {
                continue;
            }
            // A live event for a Blocked process can only be a pending
            // `block_timeout` deadline: plain `block` queues nothing.
            let timed_wake = match st.procs[pid].status {
                Status::Waiting => false,
                Status::Blocked => true,
                _ => continue,
            };
            debug_assert!(t >= st.now.0, "event queue went backwards");
            if let Some(limit) = st.limit {
                if SimTime(t) > limit {
                    let err = SimError::TimeLimitExceeded { limit };
                    Kernel::finish(st, Outcome::Failed(err), wake);
                    return Next::Other;
                }
            }
            st.now = SimTime(t);
            self.now.store(t, Ordering::Relaxed);
            st.procs[pid].status = Status::Running;
            st.procs[pid].timed_out = timed_wake;
            st.cpu_busy = true;
            st.dispatches += 1;
            let handoff = me != Some(pid) && !st.procs[pid].stepped;
            st.handoffs += u64::from(handoff);
            st.recorder
                .record_dispatch(st.now.0, st.queue.len(), handoff);
            if let Some(trace) = st.trace.as_mut() {
                trace.push((st.now, pid));
            }
            if st.procs[pid].stepped {
                return Next::Step(pid);
            }
            if me == Some(pid) {
                return Next::Me;
            }
            wake.next = st.procs[pid].thread.clone();
            return Next::Other;
        }
        // No runnable event. Either everything finished or we are deadlocked.
        let outcome = if st.live == 0 {
            Outcome::Completed
        } else {
            let blocked = st
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.status == Status::Blocked)
                .map(|(pid, p)| (pid, p.name.clone(), p.reason.clone()))
                .collect();
            Outcome::Failed(SimError::Deadlock {
                at: st.now,
                blocked,
            })
        };
        Kernel::finish(st, outcome, wake);
        Next::Other
    }

    /// Give the CPU away (the caller has released it) and keep dispatching,
    /// running the step of every component and lent wait that comes up on
    /// this thread, until a thread-backed process owns it. The lock, still
    /// held, when that is `me` — which keeps running — otherwise `None`: the
    /// lock has been dropped, `wake` fired, and a caller that is a process
    /// has to park.
    fn hand_off<'a>(
        &'a self,
        mut st: MutexGuard<'a, KState>,
        me: Option<Pid>,
        mut wake: Wake,
    ) -> Option<MutexGuard<'a, KState>> {
        let next = self.dispatch(&mut st, me, &mut wake);
        self.follow(st, next, me, wake)
    }

    /// [`Kernel::hand_off`] from the point where `dispatch` decided `next`.
    fn follow<'a>(
        &'a self,
        mut st: MutexGuard<'a, KState>,
        mut next: Next,
        me: Option<Pid>,
        mut wake: Wake,
    ) -> Option<MutexGuard<'a, KState>> {
        loop {
            let pid = match next {
                Next::Me => return Some(st),
                Next::Step(pid) => pid,
                Next::Other => {
                    drop(st);
                    wake.fire();
                    return None;
                }
            };
            let lent_done;
            (st, lent_done) = self.run_steps(st, pid, &mut wake);
            if lent_done {
                // The CPU is the owner's now.
                if me == Some(pid) {
                    return Some(st);
                }
                st.handoffs += 1;
                st.recorder.record_handoff();
                wake.next = st.procs[pid].thread.clone();
                drop(st);
                wake.fire();
                return None;
            }
            next = self.dispatch(&mut st, me, &mut wake);
        }
    }

    /// Step `pid`, which `dispatch` just made `Running`, until it gives up
    /// the CPU: each step with the lock released, then applied under it
    /// exactly as the same call from a thread would have been. `true` with
    /// the lock when `pid` was a lent wait that finished: the CPU, still
    /// busy, is its owner's.
    fn run_steps<'a>(
        &'a self,
        mut st: MutexGuard<'a, KState>,
        pid: Pid,
        wake: &mut Wake,
    ) -> (MutexGuard<'a, KState>, bool) {
        let mut body = st.procs[pid].body.take();
        let mut woken = !st.procs[pid].timed_out;
        loop {
            drop(st);
            let lent = matches!(body, Some(Body::Lent(_)));
            let step = {
                let b = body.as_mut().expect("a stepped process has a body");
                resume(woken);
                panic::catch_unwind(AssertUnwindSafe(|| b.step()))
            };
            if !matches!(
                step,
                Ok(Stepped::Call(Step::Advance(_) | Step::Block { .. }))
            ) {
                // Finished one way or another: drop the body (and whatever
                // it captured) before the lock is taken again.
                body = None;
            }
            st = self.state.lock();
            match step {
                Ok(Stepped::Call(Step::Done)) => Kernel::retire(&mut st, pid, None, wake),
                Ok(Stepped::Call(step)) => {
                    if Kernel::apply(&mut st, pid, step) {
                        woken = true;
                        continue;
                    }
                }
                Ok(Stepped::Output(out)) => return (Kernel::lent_done(st, pid, Ok(out)), true),
                Err(payload) if lent => return (Kernel::lent_done(st, pid, Err(payload)), true),
                Err(payload) => Kernel::retire(&mut st, pid, Some(payload), wake),
            }
            st.procs[pid].body = body;
            st.cpu_busy = false;
            return (st, false);
        }
    }

    /// Apply `step`, an `Advance` or a `Block`, for `pid`, which owns the
    /// CPU: by the rules `advance` and `block_on*` follow, except that the
    /// CPU is not handed on here. `true` when `pid` keeps it — the block
    /// consumed a banked wake.
    fn apply(st: &mut KState, pid: Pid, step: Step) -> bool {
        match step {
            Step::Advance(d) => {
                let at = st.now + d;
                Kernel::push_event(st, at, pid);
                st.procs[pid].status = Status::Waiting;
            }
            Step::Block {
                label,
                what,
                deadline,
            } => {
                let slot = &mut st.procs[pid];
                if slot.pending_wakes > 0 {
                    slot.pending_wakes -= 1;
                    return true;
                }
                slot.status = Status::Blocked;
                slot.reason.clear();
                two_part(&label, &what)(&mut slot.reason);
                if let Some(d) = deadline {
                    let at = st.now + d;
                    Kernel::push_event(st, at, pid);
                }
            }
            Step::Done => unreachable!("`Step::Done` is not a call to apply"),
        }
        false
    }

    /// `pid`'s lent wait ended with `outcome`: leave it for the owner, which
    /// takes the still-busy CPU over.
    fn lent_done(
        mut st: MutexGuard<'_, KState>,
        pid: Pid,
        outcome: LentOutcome,
    ) -> MutexGuard<'_, KState> {
        let slot = &mut st.procs[pid];
        slot.stepped = false;
        slot.lent_out = Some(outcome);
        st
    }

    /// Process exit: mark `pid` finished and release its joiners. A payload
    /// that is not the teardown unwind is a genuine panic and fails the run.
    fn retire(st: &mut KState, pid: Pid, panicked: Option<Box<dyn Any + Send>>, wake: &mut Wake) {
        st.procs[pid].status = Status::Finished;
        st.live -= 1;
        let waiters = std::mem::take(&mut st.procs[pid].join_waiters);
        let now = st.now;
        for w in waiters {
            match st.procs[w].status {
                Status::Blocked => {
                    st.procs[w].status = Status::Waiting;
                    Kernel::push_event(st, now, w);
                }
                Status::Finished | Status::Poisoned => {}
                _ => st.procs[w].pending_wakes += 1,
            }
        }
        if let Some(payload) = panicked.filter(|p| !p.is::<SimUnwind>()) {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            let name = st.procs[pid].name.clone();
            let err = SimError::ProcessPanicked { pid, name, message };
            Kernel::finish(st, Outcome::Failed(err), wake);
        }
    }

    /// A component step or a lent wait made a blocking call on its own pid.
    /// Parking here would park the dispatcher for good; end the run and say
    /// who and what.
    fn blocking_call_in_step(&self, st: MutexGuard<'_, KState>, pid: Pid, op: &str) -> ! {
        let name = st.procs[pid].name.clone();
        let message = if st.procs[pid].thread.is_none() {
            format!(
                "component '{name}' called the blocking kernel operation `{op}` \
                 inside a step; a component returns it as a `Step` instead"
            )
        } else {
            format!(
                "the lent wait of '{name}' called the blocking kernel operation `{op}` \
                 inside a step; a driven future awaits it as a `Step` instead"
            )
        };
        drop(st);
        self.abort(pid, &message)
    }

    /// End the run with `outcome` (the first one stands): mark every parked
    /// process poisoned and queue its thread, and the `run()` caller, for a
    /// wake so they can unwind and exit. A process whose thread has not
    /// registered yet finds `Poisoned` at its first check instead.
    fn finish(st: &mut KState, outcome: Outcome, wake: &mut Wake) {
        st.outcome.get_or_insert(outcome);
        for p in st.procs.iter_mut() {
            if matches!(p.status, Status::Waiting | Status::Blocked) {
                p.status = Status::Poisoned;
                wake.rest.extend(p.thread.clone());
            }
        }
        wake.rest.extend(st.runner.clone());
    }

    /// The lock once `pid` owns the CPU, `None` while it still has to wait
    /// (its lent wait still being stepped included). Unwinds if the
    /// simulation is tearing down.
    fn granted(st: MutexGuard<'_, KState>, pid: Pid) -> Option<MutexGuard<'_, KState>> {
        match st.procs[pid].status {
            Status::Running if !st.procs[pid].stepped => Some(st),
            Status::Poisoned => {
                drop(st);
                // resume_unwind skips the panic hook: teardown unwinds are
                // expected control flow, not reportable panics.
                panic::resume_unwind(Box::new(SimUnwind));
            }
            _ => None,
        }
    }

    /// Park the calling process until it is granted the CPU, and return the
    /// lock. Must be called with `pid`'s status already set to
    /// Waiting/Blocked, the CPU released and the state lock dropped. The
    /// status is confirmed under the lock after every wake, so spurious
    /// wake-ups and stale tokens only cost another round.
    fn park(&self, pid: Pid) -> MutexGuard<'_, KState> {
        loop {
            std::thread::park();
            if let Some(st) = Kernel::granted(self.state.lock(), pid) {
                return st;
            }
        }
    }

    /// The one body behind `block`, `block_timeout`, their two-part forms
    /// and `join`: consume a pending wake, or write the reason into the
    /// slot's buffer, give up the CPU and park. `true` means woken (or
    /// pending wake consumed), `false` that the deadline fired.
    fn block_with(
        &self,
        mut st: MutexGuard<'_, KState>,
        pid: Pid,
        timeout: Option<SimDuration>,
        reason: impl FnOnce(&mut String),
    ) -> bool {
        debug_assert_eq!(st.procs[pid].status, Status::Running);
        if st.procs[pid].stepped {
            self.blocking_call_in_step(st, pid, "block");
        }
        let slot = &mut st.procs[pid];
        if slot.pending_wakes > 0 {
            slot.pending_wakes -= 1;
            return true;
        }
        slot.status = Status::Blocked;
        slot.reason.clear();
        reason(&mut slot.reason);
        if let Some(timeout) = timeout {
            let at = st.now + timeout;
            Kernel::push_event(&mut st, at, pid);
        }
        st.cpu_busy = false;
        // `Some`: nothing thread-backed was due before our own wake-up.
        let st = match self.hand_off(st, Some(pid), Wake::default()) {
            Some(st) => st,
            None => self.park(pid),
        };
        !st.procs[pid].timed_out
    }
}

/// A blocked-on reason given whole.
fn one_part(reason: &str) -> impl FnOnce(&mut String) + '_ {
    move |r| r.push_str(reason)
}

/// The two-part blocked-on reason, rendered as `label: what`.
fn two_part<'a>(label: &'a str, what: &'a str) -> impl FnOnce(&mut String) + 'a {
    move |r| {
        r.push_str(label);
        r.push_str(": ");
        r.push_str(what);
    }
}

impl Executor for Kernel {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn proc_name(&self, pid: Pid) -> String {
        self.state.lock().procs[pid].name.clone()
    }

    fn now(&self) -> SimTime {
        SimTime(self.now.load(Ordering::Relaxed))
    }

    fn advance(&self, pid: Pid, d: SimDuration) {
        let mut st = self.state.lock();
        debug_assert_eq!(st.procs[pid].status, Status::Running);
        if st.procs[pid].stepped {
            self.blocking_call_in_step(st, pid, "advance");
        }
        let at = st.now + d;
        Kernel::push_event(&mut st, at, pid);
        st.procs[pid].status = Status::Waiting;
        st.cpu_busy = false;
        if self.hand_off(st, Some(pid), Wake::default()).is_none() {
            drop(self.park(pid));
        }
    }

    fn block(&self, pid: Pid, reason: &str) {
        self.block_with(self.state.lock(), pid, None, one_part(reason));
    }

    fn block_on(&self, pid: Pid, label: &str, what: &str) {
        self.block_with(self.state.lock(), pid, None, two_part(label, what));
    }

    fn block_timeout(&self, pid: Pid, reason: &str, timeout: SimDuration) -> bool {
        self.block_with(self.state.lock(), pid, Some(timeout), one_part(reason))
    }

    fn block_on_timeout(&self, pid: Pid, label: &str, what: &str, timeout: SimDuration) -> bool {
        self.block_with(self.state.lock(), pid, Some(timeout), two_part(label, what))
    }

    fn unblock(&self, pid: Pid, delay: SimDuration) {
        let mut st = self.state.lock();
        let at = st.now + delay;
        match st.procs[pid].status {
            Status::Blocked => {
                st.procs[pid].status = Status::Waiting;
                Kernel::push_event(&mut st, at, pid);
            }
            Status::Finished | Status::Poisoned => {}
            _ => st.procs[pid].pending_wakes += 1,
        }
    }

    fn report_incident(&self, pid: Pid, category: IncidentCategory, detail: &str) {
        let mut st = self.state.lock();
        let at = st.now;
        let process = st.procs[pid].name.clone();
        st.recorder
            .record_incident(at.0, &process, category.as_str(), detail);
        st.incidents.push(Incident {
            at,
            process,
            category,
            detail: detail.to_string(),
        });
    }

    fn spawn_boxed(&self, name: &str, body: ProcBody) -> Pid {
        let kernel = self.me.upgrade().expect("kernel alive while spawning");
        spawn_process(&kernel, name, body)
    }

    fn spawn_component(&self, name: &str, body: ComponentBody) -> Pid {
        let kernel = self.me.upgrade().expect("kernel alive while spawning");
        new_slot(&kernel, name, Some(body))
    }

    fn drive(&self, ctx: &ProcCtx, mut wait: LentWait) -> Box<dyn Any + Send> {
        let pid = ctx.pid();
        let mut wake = Wake::default();
        // Step the wait on this thread for as long as it keeps the CPU.
        let (st, next) = loop {
            let step = match poll_once(wait.as_mut()) {
                Ok(out) => return out,
                Err(Step::Done) => panic!("{DONE_ON_A_THREAD}"),
                Err(step) => step,
            };
            let mut st = self.state.lock();
            debug_assert_eq!(st.procs[pid].status, Status::Running);
            if st.procs[pid].stepped {
                // A nested drive inside a step: nothing may park here.
                self.blocking_call_in_step(st, pid, "drive");
            }
            let woken = if Kernel::apply(&mut st, pid, step) {
                true
            } else {
                st.cpu_busy = false;
                match self.dispatch(&mut st, Some(pid), &mut wake) {
                    // Its own event is next: what lending it would step on
                    // this very thread.
                    Next::Me => !st.procs[pid].timed_out,
                    next => break (st, next),
                }
            };
            drop(st);
            resume(woken);
        };
        // Lend the wait: from here on it is stepped like a component,
        // starting with whatever `dispatch` just granted the CPU to.
        let mut st = st;
        let slot = &mut st.procs[pid];
        slot.stepped = true;
        slot.body = Some(Body::Lent(wait));
        let mut st = match self.follow(st, next, Some(pid), wake) {
            Some(st) => st,
            None => self.park(pid),
        };
        let outcome = st.procs[pid].lent_out.take();
        drop(st);
        match outcome.expect("a finished lent wait leaves its outcome") {
            Ok(out) => out,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    fn join(&self, me: Pid, target: Pid) {
        loop {
            let mut st = self.state.lock();
            if st.procs[me].stepped {
                self.blocking_call_in_step(st, me, "join");
            }
            if st.procs[target].status == Status::Finished {
                return;
            }
            st.procs[target].join_waiters.push(me);
            self.block_with(st, me, None, |r| {
                let _ = write!(r, "join(pid={target})");
            });
        }
    }

    fn abort(&self, pid: Pid, message: &str) -> ! {
        let mut wake = Wake::default();
        {
            let mut st = self.state.lock();
            let err = SimError::Aborted {
                pid,
                name: st.procs[pid].name.clone(),
                message: message.to_string(),
            };
            Kernel::finish(&mut st, Outcome::Failed(err), &mut wake);
        }
        wake.fire();
        panic::resume_unwind(Box::new(SimUnwind));
    }
}

/// Handle a simulated process uses to interact with the virtual world.
///
/// A `ProcCtx` is passed by reference into every process closure. It is also
/// `Clone` so library layers can stash copies inside connection objects.
/// All calls dispatch through the [`Executor`] that spawned the process, so
/// the same program body runs unchanged on the DES kernel and on
/// `cp-native`'s wall-clock threads.
#[derive(Clone)]
pub struct ProcCtx {
    exec: Arc<dyn Executor>,
    pid: Pid,
}

impl std::fmt::Debug for ProcCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcCtx(pid={})", self.pid)
    }
}

impl ProcCtx {
    /// Build the context handed to process `pid` of `exec`. Only backend
    /// implementations ([`Simulation`], `cp-native`) need this.
    pub fn from_executor(exec: Arc<dyn Executor>, pid: Pid) -> ProcCtx {
        ProcCtx { exec, pid }
    }

    /// Which execution substrate this process runs on.
    pub fn backend(&self) -> Backend {
        self.exec.backend()
    }

    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's registered name.
    pub fn name(&self) -> String {
        self.exec.proc_name(self.pid)
    }

    /// Current time: virtual on the DES backend, wall-clock nanoseconds
    /// since launch on the native backend.
    pub fn now(&self) -> SimTime {
        self.exec.now()
    }

    /// Spend `d` of virtual time (the process "computes" for that long).
    /// Other processes with earlier events run meanwhile.
    pub fn advance(&self, d: SimDuration) {
        self.exec.advance(self.pid, d);
    }

    /// Yield the CPU without consuming virtual time. Any same-time events
    /// queued earlier run first.
    pub fn yield_now(&self) {
        self.advance(SimDuration::ZERO);
    }

    /// Park this process until another process calls [`ProcCtx::unblock`] on
    /// it. `reason` appears in deadlock diagnostics.
    ///
    /// If an unblock was already delivered while this process was running
    /// (a "pending wake"), the call consumes it and returns immediately.
    pub fn block(&self, reason: &str) {
        self.exec.block(self.pid, reason);
    }

    /// Park this process until another process calls [`ProcCtx::unblock`] on
    /// it **or** `timeout` of virtual time elapses, whichever happens first.
    ///
    /// Returns `true` if the process was woken by an `unblock` (or consumed a
    /// pending wake without parking) and `false` if the deadline fired. On a
    /// timeout the clock reads exactly `block-time + timeout`. A stale
    /// deadline left behind by an early wake is discarded, never delivered.
    pub fn block_timeout(&self, reason: &str, timeout: SimDuration) -> bool {
        self.exec.block_timeout(self.pid, reason, timeout)
    }

    /// [`ProcCtx::block`] with the reason given as a `label` (the object
    /// waited on) and `what` (the operation); diagnostics show
    /// `"{label}: {what}"`. The blocking primitives use this form so a block
    /// formats nothing unless a deadlock report asks.
    pub fn block_on(&self, label: &str, what: &str) {
        self.exec.block_on(self.pid, label, what);
    }

    /// [`ProcCtx::block_timeout`] with the two-part reason of
    /// [`ProcCtx::block_on`].
    pub fn block_on_timeout(&self, label: &str, what: &str, timeout: SimDuration) -> bool {
        self.exec.block_on_timeout(self.pid, label, what, timeout)
    }

    /// Record a non-fatal degradation [`Incident`] (e.g. "peer rank died,
    /// abandoning channel 3"). Incidents are collected in
    /// [`SimReport::incidents`] so fault-injection harnesses can assert on
    /// exactly what degraded.
    pub fn report_incident(&self, category: IncidentCategory, detail: &str) {
        self.exec.report_incident(self.pid, category, detail);
    }

    /// Wake `pid` no earlier than `delay` from now. If `pid` is not currently
    /// blocked, a pending wake is recorded instead (and the delay is dropped:
    /// the target was busy, so the waker's latency has already been absorbed
    /// by whatever the target was doing).
    pub fn unblock(&self, pid: Pid, delay: SimDuration) {
        self.exec.unblock(pid, delay);
    }

    /// Spawn a new simulated process. It becomes runnable at the current
    /// virtual time (after the caller next yields).
    pub fn spawn<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        self.exec.spawn_boxed(name, Box::new(f))
    }

    /// Spawn a component: a process whose body is a state machine returning
    /// one [`Step`] per call instead of blocking. On [`Backend::Sim`] no
    /// thread is created — whichever thread dispatches the component runs
    /// its step; elsewhere an ordinary process drives it. Same pid, name and
    /// schedule either way.
    pub fn spawn_component<F>(&self, name: &str, f: F) -> Pid
    where
        F: FnMut(&ProcCtx) -> Step + Send + 'static,
    {
        self.exec.spawn_component(name, Box::new(f))
    }

    /// Run the library wait `fut` to its output: the same future a
    /// component awaits step by step, so one protocol has one
    /// implementation whichever kind of process runs it. Each [`Step`] it
    /// awaits is the kernel call a thread would make there, in the same
    /// order. On [`Backend::Sim`] the wait is lent: once the CPU goes to
    /// another process, the kernel steps it under this process's pid from
    /// whichever thread is dispatching, and this thread wakes only when it
    /// has finished (see the kernel's module docs). Elsewhere the executor
    /// runs it inline, each step the blocking call.
    ///
    /// A lent wait costs a boxed future and a boxed output, so a wait that
    /// is a single kernel call (a queue pop, a mailbox word) is better made
    /// as that call: lending it could save no hand-off.
    ///
    /// The future must own what it uses (`Send + 'static`): clone the
    /// `Arc`-backed handles it needs into an `async move` block. It must
    /// await every kernel call as a `Step`; a blocking call from inside it
    /// (a nested `drive` that goes `Pending` included) aborts the run once
    /// the wait is lent.
    ///
    /// # Panics
    ///
    /// If `fut` awaits [`Step::Done`]: a thread leaves only by returning.
    /// A panic inside `fut` is raised on this thread, wherever it happened.
    pub fn drive<F>(&self, fut: F) -> F::Output
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let wait: LentWait = Box::pin(async move { Box::new(fut.await) as Box<dyn Any + Send> });
        *self
            .exec
            .drive(self, wait)
            .downcast::<F::Output>()
            .expect("a wait's output has the type it was driven with")
    }

    /// Block until process `pid` finishes.
    pub fn join(&self, pid: Pid) {
        self.exec.join(self.pid, pid);
    }

    /// Abort the whole simulation with a diagnostic (used for fatal API
    /// misuse, mirroring Pilot's abort-with-message behaviour). Unwinds the
    /// calling process and never returns.
    pub fn abort(&self, message: &str) -> ! {
        self.exec.abort(self.pid, message)
    }
}

/// Register a new process, runnable at the current instant.
fn new_slot(kernel: &Arc<Kernel>, name: &str, body: Option<ComponentBody>) -> Pid {
    let mut st = kernel.state.lock();
    let pid = st.procs.len();
    st.procs.push(ProcSlot {
        name: name.to_string(),
        status: Status::Waiting,
        pending_wakes: 0,
        expected_seq: None,
        timed_out: false,
        join_waiters: Vec::new(),
        reason: String::new(),
        thread: None,
        stepped: body.is_some(),
        body: body.map(|body| Body::Component(ProcCtx::from_executor(kernel.clone(), pid), body)),
        lent_out: None,
    });
    st.live += 1;
    let now = st.now;
    Kernel::push_event(&mut st, now, pid);
    pid
}

fn spawn_process(kernel: &Arc<Kernel>, name: &str, f: ProcBody) -> Pid {
    let pid = new_slot(kernel, name, None);
    let kern = kernel.clone();
    let tname = name.to_string();
    let handle = std::thread::Builder::new()
        .name(format!("sim-{tname}"))
        .spawn(move || {
            let ctx = ProcCtx::from_executor(kern.clone(), pid);
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                // Register, and look before the first park: the dispatcher
                // may already have made us Running (or poisoned us) while no
                // handle was there to wake.
                let mut st = kern.state.lock();
                st.procs[pid].thread = Some(std::thread::current());
                if Kernel::granted(st, pid).is_none() {
                    drop(kern.park(pid));
                }
                f(&ctx)
            }));
            let mut wake = Wake::default();
            let mut st = kern.state.lock();
            Kernel::retire(&mut st, pid, result.err(), &mut wake);
            st.cpu_busy = false;
            kern.hand_off(st, None, wake);
        })
        .expect("failed to spawn simulation thread");
    kernel.handles.lock().push(handle);
    pid
}

/// A complete simulation: build it, spawn root processes, then [`run`].
///
/// [`run`]: Simulation::run
///
/// # Example
///
/// ```
/// use cp_des::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new();
/// sim.spawn("hello", |ctx| {
///     ctx.advance(SimDuration::from_micros(10));
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.as_micros_f64(), 10.0);
/// ```
pub struct Simulation {
    kernel: Arc<Kernel>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// A fresh simulation with the clock at zero.
    pub fn new() -> Simulation {
        Simulation {
            kernel: Kernel::new(false),
        }
    }

    /// A fresh simulation that records a `(time, pid)` dispatch trace, for
    /// determinism checks.
    pub fn with_trace() -> Simulation {
        Simulation {
            kernel: Kernel::new(true),
        }
    }

    /// Fail the run with [`SimError::TimeLimitExceeded`] if virtual time
    /// would pass `limit` — a guard against runaway or livelocked
    /// simulations (e.g. a service process polling forever).
    pub fn set_time_limit(&mut self, limit: SimTime) {
        self.kernel.state.lock().limit = Some(limit);
    }

    /// Select a schedule-exploration seed. Seed `0` (the default) keeps the
    /// canonical FIFO ordering of same-timestamp events; any nonzero seed
    /// deterministically permutes those ties, producing an alternative legal
    /// interleaving. Call before spawning processes so the whole run is
    /// scheduled under the same seed.
    pub fn set_schedule_seed(&mut self, seed: u64) {
        self.kernel.state.lock().sched_seed = seed;
    }

    /// Attach an observability [`Recorder`]. The kernel reports every
    /// scheduler dispatch (with the pending-queue depth) and forwards each
    /// [`Incident`] to it. The default recorder is disabled and costs one
    /// branch per dispatch; recording never consumes virtual time, so the
    /// schedule is identical with and without it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.kernel.state.lock().recorder = recorder;
    }

    /// Spawn a root process, runnable at t = 0.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_process(&self.kernel, name, Box::new(f))
    }

    /// Spawn a root component (see [`ProcCtx::spawn_component`]), runnable
    /// at t = 0.
    pub fn spawn_component<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnMut(&ProcCtx) -> Step + Send + 'static,
    {
        new_slot(&self.kernel, name, Some(Box::new(f)))
    }

    /// Drive the simulation to completion, returning the report or the first
    /// failure (deadlock, panic, or abort).
    pub fn run(self) -> Result<SimReport, SimError> {
        {
            let mut st = self.kernel.state.lock();
            st.runner = Some(std::thread::current());
            self.kernel.hand_off(st, None, Wake::default());
        }
        // Same protocol as a process: park, then confirm under the lock.
        while self.kernel.state.lock().outcome.is_none() {
            std::thread::park();
        }
        // All processes are finished or poisoned; join their threads.
        let handles = std::mem::take(&mut *self.kernel.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        // A component body or lent wait left in its slot (blocked at a
        // deadlock, waiting at an abort) holds a `ProcCtx`, hence this
        // kernel: a cycle that would leak the whole run. Nothing can step it
        // any more; drop it, and whatever it captured, outside the lock.
        let mut st = self.kernel.state.lock();
        let bodies: Vec<Body> = st.procs.iter_mut().filter_map(|p| p.body.take()).collect();
        drop(st);
        drop(bodies);
        let mut st = self.kernel.state.lock();
        match st.outcome.take().expect("outcome present") {
            Outcome::Completed => {
                let mut incidents = std::mem::take(&mut st.incidents);
                crate::error::sort_incidents(&mut incidents);
                Ok(SimReport {
                    end_time: st.now,
                    processes: st.procs.len(),
                    dispatches: st.dispatches,
                    handoffs: st.handoffs,
                    trace: st.trace.take(),
                    incidents,
                })
            }
            Outcome::Failed(e) => Err(e),
        }
    }
}

impl Spawner for Simulation {
    fn spawn_boxed(&mut self, name: &str, body: ProcBody) -> Pid {
        spawn_process(&self.kernel, name, body)
    }

    fn spawn_component(&mut self, name: &str, body: ComponentBody) -> Pid {
        new_slot(&self.kernel, name, Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn single_process_advances_clock() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::from_micros(3));
            assert_eq!(ctx.now().as_nanos(), 3_000);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.end_time.as_nanos(), 3_000);
        assert_eq!(r.processes, 1);
    }

    #[test]
    fn sim_backend_identifies_itself() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            assert_eq!(ctx.backend(), Backend::Sim);
        });
        sim.run().unwrap();
    }

    #[test]
    fn processes_interleave_in_time_order() {
        let log: Arc<PMutex<Vec<(&'static str, u64)>>> = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step) in [("a", 10u64), ("b", 15u64)] {
            let log = log.clone();
            sim.spawn(name, move |ctx| {
                for _ in 0..3 {
                    ctx.advance(SimDuration::from_micros(step));
                    log.lock().push((name, ctx.now().as_nanos() / 1000));
                }
            });
        }
        sim.run().unwrap();
        let got = log.lock().clone();
        assert_eq!(
            got,
            vec![
                ("a", 10),
                ("b", 15),
                ("a", 20),
                // At the t=30 tie, b enqueued its event first (at t=15, vs
                // a's at t=20), so b's lower sequence number wins.
                ("b", 30),
                ("a", 30),
                ("b", 45)
            ]
        );
    }

    /// Run the two-process interleave scenario under a schedule seed and
    /// return the observed `(name, time_us)` log.
    fn tie_scenario(seed: u64) -> Vec<(&'static str, u64)> {
        let log: Arc<PMutex<Vec<(&'static str, u64)>>> = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.set_schedule_seed(seed);
        for name in ["a", "b", "c", "d"] {
            let log = log.clone();
            sim.spawn(name, move |ctx| {
                for _ in 0..4 {
                    ctx.advance(SimDuration::from_micros(10));
                    log.lock().push((name, ctx.now().as_nanos() / 1000));
                }
            });
        }
        sim.run().unwrap();
        let got = log.lock().clone();
        got
    }

    #[test]
    fn schedule_seed_zero_keeps_fifo_ties() {
        // Seed 0 must be byte-identical to the default FIFO schedule: every
        // golden trace in the repo depends on this.
        assert_eq!(tie_scenario(0), tie_scenario(0));
        let got = tie_scenario(0);
        // FIFO tie-break: at each 10us step all four wake in spawn order.
        let spawn_order: Vec<&str> = got.iter().take(4).map(|(n, _)| *n).collect();
        assert_eq!(spawn_order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn schedule_seed_is_deterministic_and_permutes_ties() {
        // Same seed -> same schedule, every time.
        for seed in 1..=5u64 {
            assert_eq!(tie_scenario(seed), tie_scenario(seed));
        }
        // Some nonzero seed must reorder at least one same-time tie; the
        // multiset of (name, time) pairs is schedule-invariant either way.
        let baseline = tie_scenario(0);
        let mut permuted = false;
        for seed in 1..=20u64 {
            let alt = tie_scenario(seed);
            let mut a = baseline.clone();
            let mut b = alt.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed} changed outcomes, not just order");
            if alt != baseline {
                permuted = true;
            }
        }
        assert!(permuted, "no seed in 1..=20 permuted any tie");
    }

    #[test]
    fn block_unblock_roundtrip() {
        let mut sim = Simulation::new();
        let mut ids = Vec::new();
        let flag = Arc::new(PMutex::new(false));
        let f2 = flag.clone();
        ids.push(0); // placeholder, replaced below
        let waiter = sim.spawn("waiter", move |ctx| {
            ctx.block("the signal");
            *f2.lock() = true;
            assert_eq!(ctx.now().as_nanos(), 7_000);
        });
        ids[0] = waiter;
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_micros(2));
            ctx.unblock(waiter, SimDuration::from_micros(5));
        });
        sim.run().unwrap();
        assert!(*flag.lock());
    }

    #[test]
    fn pending_wake_prevents_lost_signal() {
        // Unblock delivered while target is running must not be lost.
        let mut sim = Simulation::new();
        let t = sim.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            // Wake was delivered at t=1us while we were "computing".
            ctx.block("should not actually block");
            ctx.advance(SimDuration::from_micros(1));
        });
        sim.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.unblock(t, SimDuration::ZERO);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.end_time.as_nanos(), 11_000);
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let mut sim = Simulation::new();
        sim.spawn("stuck-a", |ctx| ctx.block("peer message"));
        sim.spawn("stuck-b", |ctx| ctx.block("peer message"));
        match sim.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked.iter().any(|(_, n, _)| n == "stuck-a"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn panic_in_process_fails_run() {
        let mut sim = Simulation::new();
        sim.spawn("bad", |_ctx| panic!("boom {}", 42));
        sim.spawn("innocent", |ctx| ctx.block("never"));
        match sim.run() {
            Err(SimError::ProcessPanicked { name, message, .. }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom 42"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn abort_reports_message() {
        let mut sim = Simulation::new();
        sim.spawn("aborter", |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.abort("PI_Write: channel endpoint mismatch");
        });
        match sim.run() {
            Err(SimError::Aborted { message, .. }) => {
                assert!(message.contains("endpoint mismatch"));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn spawn_nested_and_join() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |c| {
                c.advance(SimDuration::from_micros(100));
            });
            ctx.join(child);
            assert_eq!(ctx.now().as_nanos(), 100_000);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.processes, 2);
    }

    #[test]
    fn join_already_finished_process_returns_immediately() {
        let mut sim = Simulation::new();
        sim.spawn("parent", |ctx| {
            let child = ctx.spawn("quick", |_c| {});
            ctx.advance(SimDuration::from_micros(50));
            ctx.join(child);
            assert_eq!(ctx.now().as_nanos(), 50_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn report_counts_and_names() {
        let mut sim = Simulation::new();
        sim.spawn("alpha", |ctx| {
            assert_eq!(ctx.name(), "alpha");
            let child = ctx.spawn("beta", |c| {
                assert_eq!(c.name(), "beta");
                c.advance(SimDuration::from_nanos(5));
            });
            ctx.join(child);
        });
        let r = sim.run().unwrap();
        assert_eq!(r.processes, 2);
        assert!(r.dispatches >= 3, "at least spawn/advance/join dispatches");
        assert!(r.trace.is_none(), "tracing off by default");
    }

    #[test]
    fn determinism_same_trace_twice() {
        fn build() -> Simulation {
            let mut sim = Simulation::with_trace();
            for i in 0..5u64 {
                sim.spawn(&format!("p{i}"), move |ctx| {
                    for k in 0..4u64 {
                        ctx.advance(SimDuration::from_nanos(100 + i * 37 + k));
                    }
                });
            }
            sim
        }
        let t1 = build().run().unwrap().trace.unwrap();
        let t2 = build().run().unwrap().trace.unwrap();
        assert_eq!(t1, t2);
        assert!(!t1.is_empty());
    }

    #[test]
    fn time_limit_stops_runaway_simulations() {
        let mut sim = Simulation::new();
        sim.set_time_limit(SimTime(1_000_000));
        sim.spawn("spinner", |ctx| loop {
            ctx.advance(SimDuration::from_micros(10));
        });
        match sim.run() {
            Err(SimError::TimeLimitExceeded { limit }) => {
                assert_eq!(limit, SimTime(1_000_000));
            }
            other => panic!("expected time limit, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_not_hit_is_harmless() {
        let mut sim = Simulation::new();
        sim.set_time_limit(SimTime(1_000_000));
        sim.spawn("quick", |ctx| ctx.advance(SimDuration::from_micros(5)));
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_fires_at_deadline() {
        let mut sim = Simulation::new();
        sim.spawn("t", |ctx| {
            let woken = ctx.block_timeout("data that never comes", SimDuration::from_micros(25));
            assert!(!woken, "nobody unblocked us");
            assert_eq!(ctx.now().as_nanos(), 25_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_woken_early_discards_stale_deadline() {
        let mut sim = Simulation::new();
        let t = sim.spawn("t", |ctx| {
            let woken = ctx.block_timeout("signal", SimDuration::from_micros(100));
            assert!(woken, "unblock arrived before the deadline");
            assert_eq!(ctx.now().as_nanos(), 10_000);
            // If the stale deadline event at t=100us were still live it
            // would wake this follow-up block early (at 100us, not 300us).
            let woken2 = ctx.block_timeout("second wait", SimDuration::from_micros(290));
            assert!(!woken2);
            assert_eq!(ctx.now().as_nanos(), 300_000);
        });
        sim.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            ctx.unblock(t, SimDuration::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_consumes_pending_wake_without_parking() {
        let mut sim = Simulation::new();
        let t = sim.spawn("t", |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            // The wake arrived at t=1us while we were computing.
            let woken = ctx.block_timeout("already satisfied", SimDuration::from_micros(5));
            assert!(woken);
            assert_eq!(ctx.now().as_nanos(), 10_000, "no virtual time consumed");
        });
        sim.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.unblock(t, SimDuration::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn block_timeout_then_plain_block_still_deadlocks() {
        // A consumed deadline must not leave a live event behind that could
        // mask a genuine deadlock later.
        let mut sim = Simulation::new();
        sim.spawn("t", |ctx| {
            let woken = ctx.block_timeout("first", SimDuration::from_micros(5));
            assert!(!woken);
            ctx.block("forever");
        });
        match sim.run() {
            Err(SimError::Deadlock { at, blocked }) => {
                assert_eq!(at.as_nanos(), 5_000);
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].2, "forever");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn incidents_are_collected_in_report() {
        let mut sim = Simulation::new();
        sim.spawn("survivor", |ctx| {
            ctx.advance(SimDuration::from_micros(2));
            ctx.report_incident(
                IncidentCategory::PeerLost,
                "rank 3 died; abandoning channel 7",
            );
        });
        let r = sim.run().unwrap();
        assert_eq!(r.incidents.len(), 1);
        let inc = &r.incidents[0];
        assert_eq!(inc.process, "survivor");
        assert_eq!(inc.category, IncidentCategory::PeerLost);
        assert_eq!(inc.category.to_string(), "peer-lost");
        assert_eq!(inc.at.as_nanos(), 2_000);
        assert!(inc.detail.contains("channel 7"));
    }

    #[test]
    fn yield_now_costs_no_time() {
        let mut sim = Simulation::new();
        sim.spawn("y", |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
    }

    #[test]
    fn spawner_trait_matches_inherent_spawn() {
        fn generic_spawn<S: Spawner>(s: &mut S) -> Pid {
            s.spawn_boxed(
                "via-trait",
                Box::new(|ctx| ctx.advance(SimDuration::from_micros(1))),
            )
        }
        let mut sim = Simulation::new();
        let pid = generic_spawn(&mut sim);
        assert_eq!(pid, 0);
        let r = sim.run().unwrap();
        assert_eq!(r.end_time.as_nanos(), 1_000);
    }
}
