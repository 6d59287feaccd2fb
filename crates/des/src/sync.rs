//! Blocking synchronization primitives for simulated processes.
//!
//! These are the building blocks the higher layers (mailboxes, MPI matching
//! engines, Pilot channels) are made of. All of them integrate with the
//! kernel's virtual clock: a message can carry an *availability time* so a
//! receiver resumes exactly when the modelled transfer completes, and all
//! blocking operations park the calling process with a descriptive reason
//! that shows up in deadlock diagnostics.

use crate::backend::Step;
use crate::error::Pid;
use crate::kernel::ProcCtx;
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// What an empty-queue `pop` is blocked on, as deadlock reports show it.
const POP_EMPTY: &str = "pop (queue empty)";
/// What a full-queue `push` is blocked on.
const PUSH_FULL: &str = "push (queue full)";

/// Outcome of [`MsgQueue::poll_pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Poll<T> {
    /// The front message, dequeued.
    Ready(T),
    /// The front message becomes available this long from now.
    InFlight(SimDuration),
    /// Nothing queued; the caller is registered to be unblocked by the next
    /// push.
    Empty,
}

struct QueueState<T> {
    items: VecDeque<(SimTime, T)>,
    pop_waiters: VecDeque<Pid>,
    push_waiters: VecDeque<Pid>,
}

/// A FIFO message queue between simulated processes.
///
/// `capacity = None` gives an unbounded queue; `Some(n)` blocks pushers while
/// `n` messages are enqueued (like the Cell's 4-deep inbound mailbox).
/// Each pushed message carries a delivery latency: the receiver cannot
/// consume it before `push_time + latency`.
pub struct MsgQueue<T> {
    state: Arc<Mutex<QueueState<T>>>,
    capacity: Option<usize>,
    /// Outside the state lock, so a blocking call borrows it for the
    /// two-part reason instead of cloning it.
    label: Arc<str>,
}

impl<T> Clone for MsgQueue<T> {
    fn clone(&self) -> Self {
        MsgQueue {
            state: self.state.clone(),
            capacity: self.capacity,
            label: self.label.clone(),
        }
    }
}

impl<T> MsgQueue<T> {
    /// Create a queue. `label` appears in blocking/deadlock diagnostics.
    pub fn new(label: &str, capacity: Option<usize>) -> MsgQueue<T> {
        MsgQueue {
            state: Arc::new(Mutex::new(QueueState {
                items: VecDeque::new(),
                pop_waiters: VecDeque::new(),
                push_waiters: VecDeque::new(),
            })),
            capacity,
            label: label.into(),
        }
    }

    /// Number of enqueued messages (including not-yet-available ones).
    pub fn len(&self) -> usize {
        self.state.lock().items.len()
    }

    /// True if no messages are enqueued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue `item`, blocking while the queue is full. The item becomes
    /// available to receivers at `now + latency`. The thread form of
    /// [`MsgQueue::push_async`], made with the blocking call: each wait is
    /// one block, which lending could not make cheaper (see
    /// [`ProcCtx::drive`]).
    pub fn push(&self, ctx: &ProcCtx, item: T, latency: SimDuration) {
        let mut item = item;
        while let Err(back) = self.poll_push(ctx, item, latency) {
            item = back;
            ctx.block_on(&self.label, PUSH_FULL);
        }
    }

    /// [`MsgQueue::push`] as a future, each wait an awaited [`Step`].
    pub async fn push_async(&self, ctx: &ProcCtx, item: T, latency: SimDuration) {
        let mut item = item;
        while let Err(back) = self.poll_push(ctx, item, latency) {
            item = back;
            self.push_full().await;
        }
    }

    /// One round of [`MsgQueue::push`] without its kernel call: `Ok` once
    /// the item is enqueued, or — the queue being full — the item back with
    /// the caller registered as the process to wake, exactly as `push`
    /// registers before it blocks. A component then awaits
    /// [`MsgQueue::push_full`] and polls again.
    pub fn poll_push(&self, ctx: &ProcCtx, item: T, latency: SimDuration) -> Result<(), T> {
        self.enqueue(ctx, item, latency, true)
    }

    /// The block `push` makes on a full queue, for a component to return
    /// after [`MsgQueue::poll_push`] gave the item back.
    pub fn push_full(&self) -> Step {
        self.block(PUSH_FULL)
    }

    /// Enqueue without blocking; returns the item back if the queue is full.
    pub fn try_push(&self, ctx: &ProcCtx, item: T, latency: SimDuration) -> Result<(), T> {
        self.enqueue(ctx, item, latency, false)
    }

    /// Enqueue `item` if there is room, waking the first popper; otherwise
    /// give it back, registering the caller as a pusher to wake if
    /// `register`.
    fn enqueue(
        &self,
        ctx: &ProcCtx,
        item: T,
        latency: SimDuration,
        register: bool,
    ) -> Result<(), T> {
        let mut st = self.state.lock();
        if self.capacity.is_some_and(|c| st.items.len() >= c) {
            if register {
                st.push_waiters.push_back(ctx.pid());
            }
            return Err(item);
        }
        let avail = ctx.now() + latency;
        st.items.push_back((avail, item));
        if let Some(w) = st.pop_waiters.pop_front() {
            ctx.unblock(w, latency);
        }
        Ok(())
    }

    /// Dequeue the front message, blocking while the queue is empty and
    /// advancing virtual time to the message's availability instant. The
    /// thread form of [`MsgQueue::pop_async`], made with the blocking
    /// calls: each wait is one call, which lending could not make cheaper
    /// (see [`ProcCtx::drive`]).
    pub fn pop(&self, ctx: &ProcCtx) -> T {
        loop {
            match self.poll_pop(ctx) {
                Poll::Ready(item) => return item,
                Poll::InFlight(wait) => ctx.advance(wait),
                Poll::Empty => ctx.block_on(&self.label, POP_EMPTY),
            }
        }
    }

    /// [`MsgQueue::pop`] as a future, each wait an awaited [`Step`].
    pub async fn pop_async(&self, ctx: &ProcCtx) -> T {
        loop {
            match self.poll_pop(ctx) {
                Poll::Ready(item) => return item,
                Poll::InFlight(wait) => Step::Advance(wait).await,
                Poll::Empty => self.pop_empty().await,
            }
        }
    }

    /// One round of [`MsgQueue::pop`] without its kernel call: the front
    /// message if it is available now, how long it is still in flight, or —
    /// the queue being empty — the caller registered as the process to wake,
    /// exactly as `pop` registers before it blocks. A component turns the
    /// last two into [`Step::Advance`] and [`MsgQueue::pop_empty`] and polls
    /// again on its next step.
    pub fn poll_pop(&self, ctx: &ProcCtx) -> Poll<T> {
        let mut st = self.state.lock();
        match st.items.front() {
            Some(&(avail, _)) if avail <= ctx.now() => {
                let (_, item) = st.items.pop_front().unwrap();
                if let Some(w) = st.push_waiters.pop_front() {
                    ctx.unblock(w, SimDuration::ZERO);
                }
                Poll::Ready(item)
            }
            // Front message still in flight: wait for it.
            Some(&(avail, _)) => Poll::InFlight(avail - ctx.now()),
            None => {
                st.pop_waiters.push_back(ctx.pid());
                Poll::Empty
            }
        }
    }

    /// The block `pop` makes on an empty queue, for a component to return
    /// after [`Poll::Empty`].
    pub fn pop_empty(&self) -> Step {
        self.block(POP_EMPTY)
    }

    fn block(&self, what: &'static str) -> Step {
        Step::Block {
            label: self.label.clone(),
            what: what.into(),
            deadline: None,
        }
    }

    /// Dequeue the front message if one is available *now*; never blocks and
    /// never advances time.
    pub fn try_pop(&self, ctx: &ProcCtx) -> Option<T> {
        let mut st = self.state.lock();
        match st.items.front() {
            Some(&(avail, _)) if avail <= ctx.now() => {
                let (_, item) = st.items.pop_front().unwrap();
                if let Some(w) = st.push_waiters.pop_front() {
                    ctx.unblock(w, SimDuration::ZERO);
                }
                Some(item)
            }
            _ => None,
        }
    }

    /// True if a message is available for `try_pop` at the current time.
    pub fn has_available(&self, ctx: &ProcCtx) -> bool {
        let st = self.state.lock();
        matches!(st.items.front(), Some(&(avail, _)) if avail <= ctx.now())
    }
}

/// A counting semaphore for simulated processes.
pub struct SimSemaphore {
    state: Arc<Mutex<SemState>>,
    label: Arc<str>,
}

struct SemState {
    permits: u64,
    waiters: VecDeque<Pid>,
}

impl Clone for SimSemaphore {
    fn clone(&self) -> Self {
        SimSemaphore {
            state: self.state.clone(),
            label: self.label.clone(),
        }
    }
}

impl SimSemaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(label: &str, permits: u64) -> SimSemaphore {
        SimSemaphore {
            state: Arc::new(Mutex::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
            label: label.into(),
        }
    }

    /// Take one permit, blocking until one is available.
    pub fn acquire(&self, ctx: &ProcCtx) {
        loop {
            {
                let mut st = self.state.lock();
                if st.permits > 0 {
                    st.permits -= 1;
                    return;
                }
                let me = ctx.pid();
                st.waiters.push_back(me);
            }
            ctx.block_on(&self.label, "acquire");
        }
    }

    /// Release one permit, waking a waiter if any.
    pub fn release(&self, ctx: &ProcCtx) {
        let mut st = self.state.lock();
        st.permits += 1;
        if let Some(w) = st.waiters.pop_front() {
            ctx.unblock(w, SimDuration::ZERO);
        }
    }

    /// Current permit count (diagnostics only).
    pub fn permits(&self) -> u64 {
        self.state.lock().permits
    }
}

/// A reusable barrier for a fixed party count.
pub struct SimBarrier {
    state: Arc<Mutex<BarrierState>>,
    parties: usize,
    label: Arc<str>,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    waiters: Vec<Pid>,
}

impl Clone for SimBarrier {
    fn clone(&self) -> Self {
        SimBarrier {
            state: self.state.clone(),
            parties: self.parties,
            label: self.label.clone(),
        }
    }
}

impl SimBarrier {
    /// A barrier that releases once `parties` processes have arrived.
    pub fn new(label: &str, parties: usize) -> SimBarrier {
        assert!(parties > 0, "barrier needs at least one party");
        SimBarrier {
            state: Arc::new(Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
            })),
            parties,
            label: label.into(),
        }
    }

    /// Arrive and wait for all parties. Returns true for exactly one caller
    /// per generation (the "leader", the last to arrive).
    pub fn wait(&self, ctx: &ProcCtx) -> bool {
        let my_gen;
        {
            let mut st = self.state.lock();
            st.arrived += 1;
            my_gen = st.generation;
            if st.arrived == self.parties {
                st.arrived = 0;
                st.generation += 1;
                let waiters = std::mem::take(&mut st.waiters);
                for w in waiters {
                    ctx.unblock(w, SimDuration::ZERO);
                }
                return true;
            }
            let me = ctx.pid();
            st.waiters.push(me);
        }
        loop {
            ctx.block_on(&self.label, "barrier wait");
            let st = self.state.lock();
            if st.generation != my_gen {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Simulation;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn queue_delivers_in_fifo_order_with_latency() {
        let q: MsgQueue<u32> = MsgQueue::new("q", None);
        let got = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let (qp, qc, g) = (q.clone(), q, got.clone());
        sim.spawn("producer", move |ctx| {
            qp.push(ctx, 1, SimDuration::from_micros(10));
            ctx.advance(SimDuration::from_micros(1));
            qp.push(ctx, 2, SimDuration::from_micros(10));
        });
        sim.spawn("consumer", move |ctx| {
            let a = qc.pop(ctx);
            g.lock().push((a, ctx.now().as_nanos()));
            let b = qc.pop(ctx);
            g.lock().push((b, ctx.now().as_nanos()));
        });
        sim.run().unwrap();
        let v = got.lock().clone();
        assert_eq!(v, vec![(1, 10_000), (2, 11_000)]);
    }

    #[test]
    fn bounded_queue_blocks_pusher() {
        let q: MsgQueue<u8> = MsgQueue::new("mb", Some(1));
        let mut sim = Simulation::new();
        let (qp, qc) = (q.clone(), q);
        sim.spawn("producer", move |ctx| {
            qp.push(ctx, 1, SimDuration::ZERO);
            qp.push(ctx, 2, SimDuration::ZERO); // must block until consumer pops
            assert_eq!(ctx.now().as_nanos(), 5_000);
        });
        sim.spawn("consumer", move |ctx| {
            ctx.advance(SimDuration::from_micros(5));
            assert_eq!(qc.pop(ctx), 1);
            assert_eq!(qc.pop(ctx), 2);
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_pop_respects_availability_time() {
        let q: MsgQueue<u8> = MsgQueue::new("q", None);
        let mut sim = Simulation::new();
        let (qp, qc) = (q.clone(), q);
        sim.spawn("producer", move |ctx| {
            qp.push(ctx, 9, SimDuration::from_micros(100));
        });
        sim.spawn("poller", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            assert!(qc.try_pop(ctx).is_none(), "message still in flight");
            assert!(!qc.has_available(ctx));
            ctx.advance(SimDuration::from_micros(100));
            assert!(qc.has_available(ctx));
            assert_eq!(qc.try_pop(ctx), Some(9));
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_push_full_returns_item() {
        let q: MsgQueue<u8> = MsgQueue::new("mb1", Some(1));
        let mut sim = Simulation::new();
        sim.spawn("p", move |ctx| {
            assert!(q.try_push(ctx, 1, SimDuration::ZERO).is_ok());
            assert_eq!(q.try_push(ctx, 2, SimDuration::ZERO), Err(2));
            assert_eq!(q.pop(ctx), 1);
        });
        sim.run().unwrap();
    }

    #[test]
    fn semaphore_serializes() {
        let sem = SimSemaphore::new("s", 1);
        let order = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..3u32 {
            let sem = sem.clone();
            let order = order.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                sem.acquire(ctx);
                order.lock().push((i, ctx.now().as_nanos()));
                ctx.advance(SimDuration::from_micros(10));
                sem.release(ctx);
            });
        }
        sim.run().unwrap();
        let v = order.lock().clone();
        assert_eq!(v.len(), 3);
        // Entries are 10us apart: mutual exclusion held.
        assert_eq!(v[1].1 - v[0].1, 10_000);
        assert_eq!(v[2].1 - v[1].1, 10_000);
    }

    #[test]
    fn barrier_releases_all_at_latest_arrival() {
        let bar = SimBarrier::new("b", 3);
        let times = Arc::new(PMutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for i in 0..3u64 {
            let bar = bar.clone();
            let times = times.clone();
            sim.spawn(&format!("p{i}"), move |ctx| {
                ctx.advance(SimDuration::from_micros(10 * (i + 1)));
                bar.wait(ctx);
                times.lock().push(ctx.now().as_nanos());
            });
        }
        sim.run().unwrap();
        let v = times.lock().clone();
        assert_eq!(v, vec![30_000, 30_000, 30_000]);
    }

    #[test]
    fn barrier_is_reusable() {
        let bar = SimBarrier::new("b", 2);
        let mut sim = Simulation::new();
        let mut leaders = Vec::new();
        for i in 0..2u64 {
            let bar = bar.clone();
            let counter = Arc::new(PMutex::new(0u32));
            leaders.push(counter.clone());
            sim.spawn(&format!("p{i}"), move |ctx| {
                for _ in 0..4 {
                    ctx.advance(SimDuration::from_micros(1 + i));
                    if bar.wait(ctx) {
                        *counter.lock() += 1;
                    }
                }
            });
        }
        sim.run().unwrap();
        let total: u32 = leaders.iter().map(|c| *c.lock()).sum();
        assert_eq!(total, 4, "exactly one leader per generation");
    }

    #[test]
    fn queue_empty_deadlock_reports_label() {
        let q: MsgQueue<u8> = MsgQueue::new("orphan-queue", None);
        let mut sim = Simulation::new();
        sim.spawn("reader", move |ctx| {
            q.pop(ctx);
        });
        match sim.run() {
            Err(crate::SimError::Deadlock { blocked, .. }) => {
                assert!(blocked[0].2.contains("orphan-queue"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
