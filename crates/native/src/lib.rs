#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # cp-native — the CellPilot program on free-running OS threads
//!
//! A second implementation of the [`cp_des::Executor`] seam: where the DES
//! kernel serializes thread-backed processes under a virtual clock, this
//! backend lets every process thread run concurrently under the wall
//! clock. Each rank/SPE process is a spawned thread; the relay channel
//! paths become real shared-memory queues (the same mutex-protected
//! mailboxes, now contended for real) and the one-sided put/get/fence path
//! operates on the same mutex-protected window table — no program body,
//! channel implementation, or Co-Pilot changes between substrates.
//!
//! The mapping of [`cp_des::ProcCtx`] calls:
//!
//! * `now()` — wall-clock nanoseconds since the runner was created;
//! * `advance(d)` — sleep for `d` (capped per call; callers that wait for
//!   a point in time re-check and sleep again, so the cap only bounds the
//!   latency of a single call);
//! * `block`/`unblock`/`block_timeout` — per-process condition variables
//!   with the same pending-wake banking semantics as the sim kernel, so
//!   the channel layers' check-then-block protocols lose no signal;
//! * deadlock — declared when **every** live process sits in an untimed
//!   `block` (a timed block will wake itself, a runnable thread may wake
//!   others; neither counts). Sound because a wake can only come from a
//!   live process.
//!
//! What stays sim-only: fault plans and supervision, schedule-seed
//! exploration, virtual time limits, and the CP101 DMA race detection
//! (its happens-before timestamps are meaningful only under the virtual
//! clock). The config layers guard or document each.

use cp_des::{
    Backend, ComponentBody, Executor, Incident, IncidentCategory, Pid, ProcBody, ProcCtx,
    SimDuration, SimError, SimReport, SimTime, Spawner,
};
use cp_trace::Recorder;
use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Payload used to unwind a native process when the run is torn down early
/// (deadlock, abort, or another process panicking).
struct NativeUnwind;

/// Longest real sleep a single `advance` call performs. Waiters that target
/// an absolute instant (e.g. a modelled arrival time already stamped on a
/// message) loop on "has the clock passed it yet" and re-advance, so the
/// cap bounds per-call latency without changing semantics.
const ADVANCE_CAP: Duration = Duration::from_millis(5);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Thread is runnable (executing, sleeping in `advance`, or between
    /// kernel calls).
    Running,
    /// Parked in `block`/`block_timeout`; `timed` blocks wake themselves at
    /// the deadline and therefore never count toward deadlock.
    Blocked { reason: String, timed: bool },
    /// Thread has exited.
    Finished,
    /// Run is tearing down; parked threads must unwind on wake.
    Poisoned,
}

struct ProcSlot {
    name: String,
    status: Status,
    /// Wake permits delivered while the process was runnable; consumed by
    /// the next `block` call without parking (same banking semantics as the
    /// DES kernel — the channel layers rely on it).
    pending_wakes: u32,
    /// Processes blocked in `join` on this process.
    join_waiters: Vec<Pid>,
    cv: Arc<Condvar>,
}

enum Outcome {
    Completed,
    Failed(SimError),
}

struct NState {
    procs: Vec<ProcSlot>,
    /// Number of processes not yet Finished.
    live: usize,
    /// Deadlock detection is armed only once `run` begins: threads start at
    /// spawn time, so before `run` a waiter can be the only live process for
    /// an instant while its peers are still being spawned. All root spawns
    /// precede `run`, and nested spawns register their slot while the
    /// spawning parent is Running, so the gate is only needed pre-run.
    started: bool,
    outcome: Option<Outcome>,
    /// Wake-ups delivered (the native analogue of scheduler dispatches).
    dispatches: u64,
    incidents: Vec<Incident>,
    recorder: Recorder,
}

/// The wall-clock executor: shared state plus the self-reference needed to
/// hand each spawned process an owning [`ProcCtx`].
pub struct NativeKernel {
    state: Mutex<NState>,
    done_cv: Condvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Set once the run fails; checked lock-free on the `advance` fast path
    /// so runaway compute loops still notice teardown promptly.
    poisoned: AtomicBool,
    start: Instant,
    me: Weak<NativeKernel>,
}

impl NativeKernel {
    fn new() -> Arc<NativeKernel> {
        Arc::new_cyclic(|me| NativeKernel {
            state: Mutex::new(NState {
                procs: Vec::new(),
                live: 0,
                started: false,
                outcome: None,
                dispatches: 0,
                incidents: Vec::new(),
                recorder: Recorder::disabled(),
            }),
            done_cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            start: Instant::now(),
            me: me.clone(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Declare deadlock if every live process is in an untimed block. A
    /// timed block wakes itself at its deadline and a runnable thread may
    /// yet wake others, so neither counts; wakes only ever originate from
    /// live processes, which makes the all-untimed-blocked state permanent
    /// and the detection sound. Called with the state lock held, at
    /// block-entry and at process exit.
    fn check_deadlock(&self, st: &mut NState) {
        if !st.started || st.outcome.is_some() || st.live == 0 {
            return;
        }
        let stuck = st
            .procs
            .iter()
            .filter(|p| matches!(p.status, Status::Blocked { timed: false, .. }))
            .count();
        if stuck != st.live {
            return;
        }
        let blocked = st
            .procs
            .iter()
            .enumerate()
            .filter_map(|(pid, p)| match &p.status {
                Status::Blocked { reason, .. } => Some((pid, p.name.clone(), reason.clone())),
                _ => None,
            })
            .collect();
        let at = SimTime(self.now_ns());
        self.fail(st, SimError::Deadlock { at, blocked });
    }

    fn fail(&self, st: &mut NState, err: SimError) {
        if st.outcome.is_none() {
            st.outcome = Some(Outcome::Failed(err));
        }
        self.poisoned.store(true, Ordering::Release);
        for p in st.procs.iter_mut() {
            if matches!(p.status, Status::Blocked { .. }) {
                p.status = Status::Poisoned;
                p.cv.notify_one();
            }
        }
        self.done_cv.notify_all();
    }

    fn unwind() -> ! {
        // resume_unwind skips the panic hook: teardown unwinds are expected
        // control flow, not reportable panics.
        panic::resume_unwind(Box::new(NativeUnwind))
    }
}

impl Executor for NativeKernel {
    fn backend(&self) -> Backend {
        Backend::Native
    }

    fn proc_name(&self, pid: Pid) -> String {
        self.state.lock().procs[pid].name.clone()
    }

    fn now(&self) -> SimTime {
        SimTime(self.now_ns())
    }

    fn advance(&self, _pid: Pid, d: SimDuration) {
        if self.poisoned.load(Ordering::Acquire) {
            NativeKernel::unwind();
        }
        if d == SimDuration::ZERO {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_nanos(d.as_nanos()).min(ADVANCE_CAP));
        }
    }

    fn block(&self, pid: Pid, reason: &str) {
        let mut st = self.state.lock();
        if st.outcome.is_some() {
            drop(st);
            NativeKernel::unwind();
        }
        if st.procs[pid].pending_wakes > 0 {
            st.procs[pid].pending_wakes -= 1;
            return;
        }
        st.procs[pid].status = Status::Blocked {
            reason: reason.to_string(),
            timed: false,
        };
        self.check_deadlock(&mut st);
        let cv = st.procs[pid].cv.clone();
        loop {
            match &st.procs[pid].status {
                Status::Running => return,
                Status::Poisoned => {
                    drop(st);
                    NativeKernel::unwind();
                }
                _ => cv.wait(&mut st),
            }
        }
    }

    fn block_timeout(&self, pid: Pid, reason: &str, timeout: SimDuration) -> bool {
        let mut st = self.state.lock();
        if st.outcome.is_some() {
            drop(st);
            NativeKernel::unwind();
        }
        if st.procs[pid].pending_wakes > 0 {
            st.procs[pid].pending_wakes -= 1;
            return true;
        }
        st.procs[pid].status = Status::Blocked {
            reason: reason.to_string(),
            timed: true,
        };
        let deadline = Instant::now() + Duration::from_nanos(timeout.as_nanos());
        let cv = st.procs[pid].cv.clone();
        loop {
            match &st.procs[pid].status {
                Status::Running => return true,
                Status::Poisoned => {
                    drop(st);
                    NativeKernel::unwind();
                }
                _ => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        st.procs[pid].status = Status::Running;
                        return false;
                    }
                    let _ = cv.wait_for(&mut st, left);
                }
            }
        }
    }

    fn unblock(&self, pid: Pid, _delay: SimDuration) {
        // The waker's latency is real on this backend — it already elapsed
        // on the wall clock — so the modelled delay is dropped.
        let mut st = self.state.lock();
        match st.procs[pid].status {
            Status::Blocked { .. } => {
                st.procs[pid].status = Status::Running;
                st.dispatches += 1;
                let now = self.now_ns();
                st.recorder.record_dispatch(now, 0, false);
                st.procs[pid].cv.notify_one();
            }
            Status::Finished | Status::Poisoned => {}
            Status::Running => st.procs[pid].pending_wakes += 1,
        }
    }

    fn report_incident(&self, pid: Pid, category: IncidentCategory, detail: &str) {
        let mut st = self.state.lock();
        let at = SimTime(self.now_ns());
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
        spawn_thread(&kernel, name, body)
    }

    fn join(&self, me: Pid, target: Pid) {
        loop {
            {
                let mut st = self.state.lock();
                if st.procs[target].status == Status::Finished {
                    return;
                }
                st.procs[target].join_waiters.push(me);
            }
            self.block(me, &format!("join(pid={target})"));
        }
    }

    fn abort(&self, pid: Pid, message: &str) -> ! {
        {
            let mut st = self.state.lock();
            let err = SimError::Aborted {
                pid,
                name: st.procs[pid].name.clone(),
                message: message.to_string(),
            };
            self.fail(&mut st, err);
        }
        NativeKernel::unwind()
    }
}

fn spawn_thread(kernel: &Arc<NativeKernel>, name: &str, body: ProcBody) -> Pid {
    let pid;
    let lane;
    {
        let mut st = kernel.state.lock();
        pid = st.procs.len();
        st.procs.push(ProcSlot {
            name: name.to_string(),
            status: Status::Running,
            pending_wakes: 0,
            join_waiters: Vec::new(),
            cv: Arc::new(Condvar::new()),
        });
        st.live += 1;
        st.dispatches += 1;
        lane = if st.recorder.is_enabled() {
            Some(st.recorder.lane(name))
        } else {
            None
        };
    }
    let kern = kernel.clone();
    let tname = name.to_string();
    let start_ns = kern.now_ns();
    let handle = std::thread::Builder::new()
        .name(format!("cp-{tname}"))
        .spawn(move || {
            let ctx = ProcCtx::from_executor(kern.clone(), pid);
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&ctx)));
            let end_ns = kern.now_ns();
            let mut st = kern.state.lock();
            st.procs[pid].status = Status::Finished;
            st.live -= 1;
            if let Some(lane) = lane {
                // A real wall-clock span per process: this is what gives
                // BENCH reports genuine events/sec numbers on this backend.
                st.recorder.span(
                    lane,
                    "process",
                    &tname,
                    start_ns,
                    end_ns.saturating_sub(start_ns),
                );
            }
            let waiters = std::mem::take(&mut st.procs[pid].join_waiters);
            for w in waiters {
                match st.procs[w].status {
                    Status::Blocked { .. } => {
                        st.procs[w].status = Status::Running;
                        st.dispatches += 1;
                        st.procs[w].cv.notify_one();
                    }
                    Status::Finished | Status::Poisoned => {}
                    Status::Running => st.procs[w].pending_wakes += 1,
                }
            }
            if let Err(payload) = result {
                if payload.downcast_ref::<NativeUnwind>().is_none() {
                    // A genuine panic in user/library code: fail the run.
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic payload>".into());
                    let name = st.procs[pid].name.clone();
                    kern.fail(&mut st, SimError::ProcessPanicked { pid, name, message });
                }
            }
            if st.outcome.is_none() {
                if st.live == 0 {
                    st.outcome = Some(Outcome::Completed);
                    kern.done_cv.notify_all();
                } else {
                    // This exit may have removed the last runnable thread.
                    kern.check_deadlock(&mut st);
                }
            }
        })
        .expect("failed to spawn native process thread");
    kernel.handles.lock().push(handle);
    pid
}

/// A complete native run: spawn root processes, then [`run`].
///
/// The wall-clock counterpart of [`cp_des::Simulation`] — same spawn/run
/// shape, same [`SimReport`]/[`SimError`] results, so config layers
/// dispatch between the two without restructuring. `end_time` and incident
/// timestamps are wall-clock nanoseconds since the runner was created and
/// vary run to run; payloads, per-channel FIFO orders, and incident
/// *categories* are the observables the conformance suite diffs against
/// the sim oracle.
///
/// [`run`]: NativeRun::run
///
/// # Example
///
/// ```
/// use cp_native::NativeRun;
/// use cp_des::SimDuration;
///
/// let mut run = NativeRun::new();
/// run.spawn("hello", |ctx| {
///     ctx.advance(SimDuration::from_micros(10));
/// });
/// let report = run.run().unwrap();
/// assert_eq!(report.processes, 1);
/// ```
pub struct NativeRun {
    kernel: Arc<NativeKernel>,
}

impl Default for NativeRun {
    fn default() -> Self {
        Self::new()
    }
}

impl NativeRun {
    /// A fresh runner with the wall clock anchored at zero.
    pub fn new() -> NativeRun {
        NativeRun {
            kernel: NativeKernel::new(),
        }
    }

    /// Attach an observability [`Recorder`]. The kernel reports every
    /// wake-up as a dispatch and emits a wall-clock span per process, so a
    /// snapshot yields real events/sec and msgs/sec for BENCH reports.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.kernel.state.lock().recorder = recorder;
    }

    /// Spawn a root process; its thread starts immediately.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        spawn_thread(&self.kernel, name, Box::new(f))
    }

    /// Wait for every process to finish, returning the report or the first
    /// failure (deadlock, panic, or abort).
    pub fn run(self) -> Result<SimReport, SimError> {
        {
            let mut st = self.kernel.state.lock();
            st.started = true;
            if st.outcome.is_none() && st.live == 0 {
                // Zero processes (or all finished before run was called).
                st.outcome = Some(Outcome::Completed);
            } else {
                // Catch up on any all-blocked state reached while detection
                // was still gated off.
                self.kernel.check_deadlock(&mut st);
            }
            while st.outcome.is_none() {
                self.kernel.done_cv.wait(&mut st);
            }
        }
        // All processes are finished or poisoned; join their threads.
        let handles = std::mem::take(&mut *self.kernel.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        let mut st = self.kernel.state.lock();
        match st.outcome.take().expect("outcome present") {
            Outcome::Completed => {
                let mut incidents = std::mem::take(&mut st.incidents);
                cp_des::sort_incidents(&mut incidents);
                Ok(SimReport {
                    end_time: SimTime(self.kernel.now_ns()),
                    processes: st.procs.len(),
                    dispatches: st.dispatches,
                    handoffs: 0,
                    trace: None,
                    incidents,
                })
            }
            Outcome::Failed(e) => Err(e),
        }
    }
}

impl Spawner for NativeRun {
    fn spawn_boxed(&mut self, name: &str, body: ProcBody) -> Pid {
        spawn_thread(&self.kernel, name, body)
    }
}

/// A backend-selected runner: the [`Spawner`] the config layers launch
/// onto, dispatching to [`cp_des::Simulation`] or [`NativeRun`] without the
/// launch code knowing which.
pub enum Runner {
    /// The deterministic DES oracle.
    Sim(cp_des::Simulation),
    /// Free-running OS threads.
    Native(NativeRun),
}

impl Runner {
    /// A runner for the requested backend.
    pub fn for_backend(backend: Backend) -> Runner {
        match backend {
            Backend::Sim => Runner::Sim(cp_des::Simulation::new()),
            Backend::Native => Runner::Native(NativeRun::new()),
        }
    }

    /// Which backend this runner drives.
    pub fn backend(&self) -> Backend {
        match self {
            Runner::Sim(_) => Backend::Sim,
            Runner::Native(_) => Backend::Native,
        }
    }

    /// Schedule-exploration seed — meaningful only on the sim backend (the
    /// native thread scheduler is the OS's); ignored on native.
    pub fn set_schedule_seed(&mut self, seed: u64) {
        if let Runner::Sim(sim) = self {
            sim.set_schedule_seed(seed);
        }
    }

    /// Fail the run once virtual time passes `limit` — meaningful only on
    /// the sim backend (native threads have no virtual clock); ignored on
    /// native.
    pub fn set_time_limit(&mut self, limit: cp_des::SimTime) {
        if let Runner::Sim(sim) = self {
            sim.set_time_limit(limit);
        }
    }

    /// Attach an observability [`Recorder`] to whichever backend runs.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        match self {
            Runner::Sim(sim) => sim.set_recorder(recorder),
            Runner::Native(run) => run.set_recorder(recorder),
        }
    }

    /// Drive the run to completion.
    pub fn run(self) -> Result<SimReport, SimError> {
        match self {
            Runner::Sim(sim) => sim.run(),
            Runner::Native(run) => run.run(),
        }
    }
}

impl Spawner for Runner {
    fn spawn_boxed(&mut self, name: &str, body: ProcBody) -> Pid {
        match self {
            Runner::Sim(sim) => sim.spawn_boxed(name, body),
            Runner::Native(run) => run.spawn_boxed(name, body),
        }
    }

    fn spawn_component(&mut self, name: &str, body: ComponentBody) -> Pid {
        match self {
            Runner::Sim(sim) => Spawner::spawn_component(sim, name, body),
            Runner::Native(run) => run.spawn_component(name, body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;

    #[test]
    fn single_process_completes() {
        let mut run = NativeRun::new();
        run.spawn("p", |ctx| {
            assert_eq!(ctx.backend(), Backend::Native);
            assert_eq!(ctx.name(), "p");
            ctx.advance(SimDuration::from_micros(3));
        });
        let r = run.run().unwrap();
        assert_eq!(r.processes, 1);
        assert!(r.incidents.is_empty());
    }

    #[test]
    fn empty_run_completes() {
        let r = NativeRun::new().run().unwrap();
        assert_eq!(r.processes, 0);
    }

    #[test]
    fn wall_clock_advances() {
        let mut run = NativeRun::new();
        run.spawn("sleeper", |ctx| {
            let t0 = ctx.now();
            ctx.advance(SimDuration::from_micros(500));
            assert!(ctx.now() > t0, "wall clock must move across a sleep");
        });
        run.run().unwrap();
    }

    #[test]
    fn block_unblock_roundtrip() {
        let mut run = NativeRun::new();
        let flag = Arc::new(PMutex::new(false));
        let f2 = flag.clone();
        let waiter = run.spawn("waiter", move |ctx| {
            ctx.block("the signal");
            *f2.lock() = true;
        });
        run.spawn("waker", move |ctx| {
            ctx.advance(SimDuration::from_micros(100));
            ctx.unblock(waiter, SimDuration::ZERO);
        });
        run.run().unwrap();
        assert!(*flag.lock());
    }

    #[test]
    fn pending_wake_prevents_lost_signal() {
        // An unblock delivered while the target is runnable must be banked
        // and consumed by its next block — exactly the sim semantics the
        // channel layers' check-then-register-then-block protocol needs.
        for _ in 0..20 {
            let mut run = NativeRun::new();
            let t = run.spawn("t", |ctx| {
                ctx.advance(SimDuration::from_micros(200));
                ctx.block("should consume the banked wake");
            });
            run.spawn("w", move |ctx| {
                ctx.unblock(t, SimDuration::ZERO);
            });
            run.run().unwrap();
        }
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let mut run = NativeRun::new();
        run.spawn("stuck-a", |ctx| ctx.block("peer message"));
        run.spawn("stuck-b", |ctx| ctx.block("peer message"));
        match run.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 2);
                assert!(blocked.iter().any(|(_, n, _)| n == "stuck-a"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn timed_block_is_not_a_deadlock() {
        // One process in a timed block + one in an untimed block: the timed
        // one wakes itself, so this must resolve, not deadlock.
        let mut run = NativeRun::new();
        let t = run.spawn("stuck", |ctx| ctx.block("peer message"));
        run.spawn("timed", move |ctx| {
            let woken = ctx.block_timeout("poll window", SimDuration::from_micros(500));
            assert!(!woken, "nobody unblocked the timed waiter");
            ctx.unblock(t, SimDuration::ZERO);
        });
        run.run().unwrap();
    }

    #[test]
    fn block_timeout_woken_early() {
        let mut run = NativeRun::new();
        let t = run.spawn("t", |ctx| {
            let woken = ctx.block_timeout("signal", SimDuration::from_millis(30_000));
            assert!(woken, "unblock must win long before the deadline");
        });
        run.spawn("w", move |ctx| {
            ctx.advance(SimDuration::from_micros(100));
            ctx.unblock(t, SimDuration::ZERO);
        });
        run.run().unwrap();
    }

    #[test]
    fn panic_in_process_fails_run() {
        let mut run = NativeRun::new();
        run.spawn("bad", |_ctx| panic!("boom {}", 42));
        run.spawn("innocent", |ctx| ctx.block("never"));
        match run.run() {
            Err(SimError::ProcessPanicked { name, message, .. }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom 42"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn abort_reports_message() {
        let mut run = NativeRun::new();
        run.spawn("aborter", |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            ctx.abort("PI_Write: channel endpoint mismatch");
        });
        run.spawn("bystander", |ctx| ctx.block("never comes"));
        match run.run() {
            Err(SimError::Aborted { message, .. }) => {
                assert!(message.contains("endpoint mismatch"));
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn spawn_nested_and_join() {
        let mut run = NativeRun::new();
        let done = Arc::new(PMutex::new(false));
        let d2 = done.clone();
        run.spawn("parent", move |ctx| {
            let d3 = d2.clone();
            let child = ctx.spawn("child", move |c| {
                c.advance(SimDuration::from_micros(200));
                *d3.lock() = true;
            });
            ctx.join(child);
            assert!(*d2.lock(), "join returned before the child finished");
        });
        let r = run.run().unwrap();
        assert_eq!(r.processes, 2);
    }

    #[test]
    fn join_already_finished_process_returns_immediately() {
        let mut run = NativeRun::new();
        run.spawn("parent", |ctx| {
            let child = ctx.spawn("quick", |_c| {});
            ctx.advance(SimDuration::from_millis(2));
            ctx.join(child);
        });
        run.run().unwrap();
    }

    #[test]
    fn incidents_are_collected_in_report() {
        let mut run = NativeRun::new();
        run.spawn("survivor", |ctx| {
            ctx.report_incident(
                IncidentCategory::PeerLost,
                "rank 3 died; abandoning channel 7",
            );
        });
        let r = run.run().unwrap();
        assert_eq!(r.incidents.len(), 1);
        assert_eq!(r.incidents[0].category, IncidentCategory::PeerLost);
        assert_eq!(r.incidents[0].process, "survivor");
    }

    #[test]
    fn recorder_sees_dispatches_and_process_spans() {
        let mut run = NativeRun::new();
        let rec = Recorder::enabled();
        run.set_recorder(rec.clone());
        let t = run.spawn("pinger", |ctx| ctx.block("pong"));
        run.spawn("ponger", move |ctx| {
            ctx.advance(SimDuration::from_micros(50));
            ctx.unblock(t, SimDuration::ZERO);
        });
        run.run().unwrap();
        let snap = rec.snapshot();
        assert!(snap.des.dispatches >= 1, "wakes count as dispatches");
        assert!(
            rec.events().iter().any(|e| e.name == "pinger"),
            "each process leaves a wall-clock span"
        );
    }

    #[test]
    fn runner_dispatches_per_backend() {
        for backend in [Backend::Sim, Backend::Native] {
            let mut runner = Runner::for_backend(backend);
            assert_eq!(runner.backend(), backend);
            runner.set_schedule_seed(7); // no-op on native
            let seen = Arc::new(PMutex::new(None));
            let s2 = seen.clone();
            runner.spawn_boxed(
                "probe",
                Box::new(move |ctx| {
                    *s2.lock() = Some(ctx.backend());
                }),
            );
            runner.run().unwrap();
            assert_eq!(*seen.lock(), Some(backend));
        }
    }

    #[test]
    fn many_producers_one_consumer_fifo_per_producer() {
        // A relay-shaped stress: N producers bank wakes into one consumer
        // via a shared queue; per-producer FIFO order must hold.
        let queue: Arc<PMutex<Vec<(usize, u32)>>> = Arc::new(PMutex::new(Vec::new()));
        let mut run = NativeRun::new();
        let total = 4 * 50;
        let q = queue.clone();
        let consumer = run.spawn("consumer", move |ctx| {
            while q.lock().len() < total {
                ctx.block("items");
            }
        });
        for p in 0..4usize {
            let q = queue.clone();
            run.spawn(&format!("producer{p}"), move |ctx| {
                for i in 0..50u32 {
                    q.lock().push((p, i));
                    ctx.unblock(consumer, SimDuration::ZERO);
                    if i % 16 == 0 {
                        ctx.advance(SimDuration::from_micros(10));
                    }
                }
            });
        }
        run.run().unwrap();
        let items = queue.lock().clone();
        assert_eq!(items.len(), total);
        for p in 0..4usize {
            let seq: Vec<u32> = items
                .iter()
                .filter(|(o, _)| *o == p)
                .map(|(_, i)| *i)
                .collect();
            assert_eq!(
                seq,
                (0..50).collect::<Vec<_>>(),
                "producer {p} out of order"
            );
        }
    }
}
