//! The execution-backend seam: [`Backend`] selection, the [`Executor`]
//! trait a scheduling substrate implements, the [`Spawner`] trait launch
//! helpers are generic over, and the component forms of a process body.
//!
//! The DES kernel ([`crate::Simulation`]) is one implementation: processes
//! run under a virtual clock, serialized in `(time, sequence)` order, fully
//! deterministic. A second implementation (`cp-native`) runs the identical
//! process/channel program on free-running OS threads under the wall
//! clock. Everything above this seam — mailboxes, the window fabric,
//! Co-Pilots, channels — talks only to [`crate::ProcCtx`], so a program
//! body never knows which substrate it is on.
//!
//! A component body is a [`ComponentBody`], one [`Step`] per call. It is
//! usually written as straight-line `async` code instead: awaiting a `Step`
//! hands that kernel call to whichever driver polls the future and resumes
//! on the next poll. Two drivers exist, and both poll with
//! [`Waker::noop`], since only the scheduler decides when a step runs:
//! [`async_component`] makes the future a `ComponentBody`, and
//! [`ProcCtx::drive`] runs it for a thread-backed process, handing it to
//! [`Executor::drive`] as a [`LentWait`]. A [`Step::Block`] with a deadline
//! is `block_on_timeout`; awaiting it through [`Step::woken`] tells the
//! future whether the deadline fired. The blocking primitives built on the
//! kernel (`MsgQueue::push` / `pop`, and above this crate the MPI send and
//! receive, the PPE mailbox writes and the library's virtual-time polls)
//! are such futures driven for the caller, so a component awaits the very
//! implementation a thread blocks in.
//!
//! How a thread's future is driven is the executor's business. By default
//! ([`Executor::drive`]) it runs inline on the caller's thread, each awaited
//! `Step` made as the blocking call — what `cp-native` does. The DES kernel
//! instead *lends* the wait: once the CPU goes to another process, the
//! future is handed to the kernel under the caller's own pid, whichever
//! thread is dispatching steps it as it steps a component, and the
//! caller's thread is woken only when the future has finished. The
//! kernel calls and their order are the same either way; the lent form
//! saves the OS-thread hand-offs of a wait that takes many steps, such as a
//! 1 µs poll.

use crate::error::{IncidentCategory, Pid};
use crate::kernel::ProcCtx;
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::borrow::Cow;
use std::cell::Cell;
use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Which execution substrate runs the process/channel program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The deterministic discrete-event simulator (the oracle).
    #[default]
    Sim,
    /// Free-running OS threads under the wall clock (`cp-native`).
    Native,
}

impl Backend {
    /// Read the backend from the `CP_BACKEND` environment variable:
    /// `native` selects [`Backend::Native`], anything else (including an
    /// unset variable) selects [`Backend::Sim`]. Lets examples and
    /// conformance drivers switch substrate without touching program
    /// bodies.
    pub fn from_env() -> Backend {
        match std::env::var("CP_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("native") => Backend::Native,
            _ => Backend::Sim,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        })
    }
}

/// A process body as handed to an executor: the type-erased form of the
/// closures passed to [`crate::Simulation::spawn`].
pub type ProcBody = Box<dyn FnOnce(&ProcCtx) + Send + 'static>;

/// What a component asks of its scheduler at the end of one step: exactly
/// the kernel call a thread-backed process would have made at that point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// [`ProcCtx::advance`]: run the next step `d` from now.
    Advance(SimDuration),
    /// [`ProcCtx::block_on`]: run the next step once somebody unblocks the
    /// component (at once, if a wake is already banked). With a `deadline`,
    /// [`ProcCtx::block_on_timeout`]: at the latest that long from now.
    Block {
        /// The object waited on.
        label: Arc<str>,
        /// The operation, as it appears in deadlock reports.
        what: Cow<'static, str>,
        /// Give up waiting this long from now; `None` waits for an unblock.
        /// Awaiting the step with [`Step::woken`] says which came first.
        deadline: Option<SimDuration>,
    },
    /// Process exit: the component is finished and its joiners are released.
    Done,
}

impl Step {
    /// Make this step's kernel call as the blocking call of `ctx`'s own
    /// thread: `Some(woken)`, where `woken` is `false` only when a
    /// [`Step::Block`]'s deadline fired, or `None` for [`Step::Done`]. How a
    /// thread-backed process drives a state machine written for a component.
    pub fn block_here(&self, ctx: &ProcCtx) -> Option<bool> {
        match self {
            Step::Advance(d) => ctx.advance(*d),
            Step::Block {
                label,
                what,
                deadline: None,
            } => ctx.block_on(label, what),
            Step::Block {
                label,
                what,
                deadline: Some(d),
            } => return Some(ctx.block_on_timeout(label, what, *d)),
            Step::Done => return None,
        }
        Some(true)
    }

    /// Await this step and say how it ended: `false` when it is a
    /// [`Step::Block`] whose deadline fired before an unblock, `true`
    /// otherwise. The component form of [`ProcCtx::block_on_timeout`]'s
    /// result.
    pub async fn woken(self) -> bool {
        self.await;
        WOKEN.get()
    }
}

/// A component body as handed to an executor: a state machine that runs from
/// one kernel call to the next each time it is called and returns that call
/// as a [`Step`]. It must not make a blocking call (`advance`, `block*`,
/// `join`) on its own [`ProcCtx`], and may take only locks that are never
/// held across a kernel call.
pub type ComponentBody = Box<dyn FnMut(&ProcCtx) -> Step + Send + 'static>;

/// A thread's library wait as [`ProcCtx::drive`] hands it to
/// [`Executor::drive`]: the caller's future, boxed, with its output boxed
/// as [`Any`] so that one executor method serves every output type. Like a
/// component's body it may run on another thread, so it is `Send` and owns
/// everything it uses.
pub type LentWait = Pin<Box<dyn Future<Output = Box<dyn Any + Send>> + Send + 'static>>;

/// The thread driver: a process body that runs `body` to completion with
/// each [`Step`] made as a blocking call. The default behind
/// [`Executor::spawn_component`] and [`Spawner::spawn_component`].
pub fn drive_component(mut body: ComponentBody) -> ProcBody {
    Box::new(move |ctx| {
        while let Some(woken) = body(ctx).block_here(ctx) {
            resume(woken);
        }
    })
}

thread_local! {
    /// The step the future being polled on this thread has just awaited:
    /// put by [`Awaited`], taken by the driver as soon as the poll returns.
    static AWAITED: Cell<Option<Step>> = const { Cell::new(None) };
    /// How the step made for the future polled next on this thread ended
    /// (`false`: its deadline fired), read back by [`Step::woken`]. Set by
    /// the driver after the kernel call and before the poll.
    static WOKEN: Cell<bool> = const { Cell::new(true) };
}

/// Tell the future about to be polled on this thread how its last step
/// ended.
pub(crate) fn resume(woken: bool) {
    WOKEN.set(woken);
}

/// The future of an awaited [`Step`]: pending once, which hands the step to
/// the driver, and ready on the next poll, after the driver has made it.
pub struct Awaited(Option<Step>);

impl Future for Awaited {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        match self.0.take() {
            Some(step) => {
                AWAITED.set(Some(step));
                Poll::Pending
            }
            None => Poll::Ready(()),
        }
    }
}

impl IntoFuture for Step {
    type Output = ();
    type IntoFuture = Awaited;

    /// Awaiting a step makes that kernel call: [`Step::Advance`] and
    /// [`Step::Block`] resume once the call returns; [`Step::Done`] ends a
    /// component there (its future is dropped, never resumed).
    fn into_future(self) -> Awaited {
        Awaited(Some(self))
    }
}

/// Why a thread's future may not await [`Step::Done`].
pub(crate) const DONE_ON_A_THREAD: &str = "`Step::Done` awaited on a thread";

/// Poll `fut` once: its output, or the [`Step`] it awaited. A future that
/// suspends on anything but a `Step` has nothing to resume it, so that is a
/// panic, which the kernel reports naming the process.
pub(crate) fn poll_once<F: Future + ?Sized>(fut: Pin<&mut F>) -> Result<F::Output, Step> {
    match fut.poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => Ok(out),
        Poll::Pending => Err(AWAITED.take().expect(
            "a component future returned `Pending` without awaiting a `Step`; \
             only a `Step` can suspend it",
        )),
    }
}

/// The component driver: a [`ComponentBody`] running the future `body`
/// builds from the component's own [`ProcCtx`] on its first step. Each step
/// polls it once and returns the [`Step`] it awaited, or [`Step::Done`]
/// when it is finished; the kernel drops the body, and with it the future,
/// when the component ends.
pub fn async_component<F, Fut>(body: F) -> ComponentBody
where
    F: FnOnce(ProcCtx) -> Fut + Send + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    let mut start = Some(body);
    let mut running: Option<Pin<Box<Fut>>> = None;
    Box::new(move |ctx| {
        let fut = running.get_or_insert_with(|| {
            let body = start.take().expect("a component body starts once");
            Box::pin(body(ctx.clone()))
        });
        poll_once(fut.as_mut()).err().unwrap_or(Step::Done)
    })
}

/// The substrate beneath [`ProcCtx`]: everything a simulated (or native)
/// process can ask of its scheduler.
///
/// Implementations must uphold the `ProcCtx` contract exactly — in
/// particular the pending-wake semantics of [`Executor::block`] /
/// [`Executor::unblock`] (a wake delivered while the target is not blocked
/// is banked and consumed by its next block without parking), because the
/// channel layers' check-then-block protocols rely on it to never lose a
/// signal.
pub trait Executor: Send + Sync {
    /// Which substrate this is.
    fn backend(&self) -> Backend;
    /// Registered name of process `pid`.
    fn proc_name(&self, pid: Pid) -> String;
    /// Current time (virtual on [`Backend::Sim`], wall-clock nanoseconds
    /// since launch on [`Backend::Native`]).
    fn now(&self) -> SimTime;
    /// Let `pid` spend `d` of time computing.
    fn advance(&self, pid: Pid, d: SimDuration);
    /// Park `pid` until somebody unblocks it (or consume a pending wake).
    fn block(&self, pid: Pid, reason: &str);
    /// Park `pid` until an unblock or the deadline, whichever first;
    /// `true` means woken (or pending wake consumed), `false` timed out.
    fn block_timeout(&self, pid: Pid, reason: &str, timeout: SimDuration) -> bool;
    /// [`Executor::block`] with the reason in two parts, rendered as
    /// `"{label}: {what}"`. A substrate that keeps the reason can override
    /// this to skip the intermediate `String`.
    fn block_on(&self, pid: Pid, label: &str, what: &str) {
        self.block(pid, &format!("{label}: {what}"));
    }
    /// [`Executor::block_timeout`] with the reason in two parts.
    fn block_on_timeout(&self, pid: Pid, label: &str, what: &str, timeout: SimDuration) -> bool {
        self.block_timeout(pid, &format!("{label}: {what}"), timeout)
    }
    /// Wake `pid` no earlier than `delay` from now (banked if not blocked).
    fn unblock(&self, pid: Pid, delay: SimDuration);
    /// Record a non-fatal degradation incident on behalf of `pid`.
    fn report_incident(&self, pid: Pid, category: IncidentCategory, detail: &str);
    /// Spawn a new process runnable now; returns its pid.
    fn spawn_boxed(&self, name: &str, body: ProcBody) -> Pid;
    /// Spawn a component: a process whose body is a [`Step`] state machine.
    /// By default an ordinary process drives it ([`drive_component`]); a
    /// substrate that owns the schedule can run the steps itself.
    fn spawn_component(&self, name: &str, body: ComponentBody) -> Pid {
        self.spawn_boxed(name, drive_component(body))
    }
    /// Run `wait` to its output for `ctx`'s process, which is the caller
    /// and owns the CPU. By default the wait runs inline on the caller's
    /// thread, each awaited [`Step`] made as the blocking call; a substrate
    /// that owns the schedule may step it from whichever thread is
    /// dispatching instead, as long as it makes the same kernel calls.
    ///
    /// # Panics
    ///
    /// If `wait` awaits [`Step::Done`]: a thread leaves only by returning.
    fn drive(&self, ctx: &ProcCtx, mut wait: LentWait) -> Box<dyn Any + Send> {
        loop {
            match poll_once(wait.as_mut()) {
                Ok(out) => return out,
                Err(step) => resume(step.block_here(ctx).expect(DONE_ON_A_THREAD)),
            }
        }
    }
    /// Block `me` until `target` finishes.
    fn join(&self, me: Pid, target: Pid);
    /// Abort the whole run with a diagnostic; unwinds the calling process.
    fn abort(&self, pid: Pid, message: &str) -> !;
}

/// Anything root processes can be launched onto: the DES [`Simulation`],
/// `cp-native`'s thread runner, or the backend-selected wrapper around
/// either. `MpiWorld::launch` and the config layers are generic over this,
/// which is what lets one configuration run on every backend.
///
/// [`Simulation`]: crate::Simulation
pub trait Spawner {
    /// Spawn a root process.
    fn spawn_boxed(&mut self, name: &str, body: ProcBody) -> Pid;
    /// Spawn a root component (see [`Executor::spawn_component`]).
    fn spawn_component(&mut self, name: &str, body: ComponentBody) -> Pid {
        self.spawn_boxed(name, drive_component(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_default_and_display() {
        assert_eq!(Backend::default(), Backend::Sim);
        assert_eq!(Backend::Sim.to_string(), "sim");
        assert_eq!(Backend::Native.to_string(), "native");
    }

    /// An executor that overrides nothing optional and records the reasons
    /// it is asked to block on.
    struct Plain(parking_lot::Mutex<Vec<String>>);

    impl Executor for Plain {
        fn backend(&self) -> Backend {
            Backend::Native
        }
        fn proc_name(&self, _: Pid) -> String {
            String::new()
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn advance(&self, _: Pid, _: SimDuration) {}
        fn block(&self, _: Pid, reason: &str) {
            self.0.lock().push(reason.to_string());
        }
        fn block_timeout(&self, _: Pid, reason: &str, _: SimDuration) -> bool {
            self.0.lock().push(reason.to_string());
            false
        }
        fn unblock(&self, _: Pid, _: SimDuration) {}
        fn report_incident(&self, _: Pid, _: IncidentCategory, _: &str) {}
        fn spawn_boxed(&self, _: &str, _: ProcBody) -> Pid {
            0
        }
        fn join(&self, _: Pid, _: Pid) {}
        fn abort(&self, _: Pid, message: &str) -> ! {
            panic!("{message}")
        }
    }

    #[test]
    fn two_part_block_defaults_to_the_rendered_single_reason() {
        let exec = Plain(parking_lot::Mutex::new(Vec::new()));
        exec.block_on(0, "inbox", "pop (queue empty)");
        assert!(!exec.block_on_timeout(0, "", "recv", SimDuration::ZERO));
        assert_eq!(*exec.0.lock(), ["inbox: pop (queue empty)", ": recv"]);
    }

    #[test]
    fn executor_is_object_safe() {
        fn _takes(_: &dyn Executor) {}
        fn _takes_spawner(_: &mut dyn Spawner) {}
    }
}
