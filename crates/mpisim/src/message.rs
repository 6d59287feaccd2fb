//! Message envelopes and the per-rank matching store.
//!
//! Each rank owns a [`MailStore`]: delivered envelopes wait there (with
//! their modelled arrival instants) until the rank consumes them with a
//! matching receive. Matching follows MPI semantics — by source and tag,
//! either of which may be a wildcard — and preserves non-overtaking order
//! between any one sender/receiver pair.

use crate::datatype::Datatype;
use cp_des::{Pid, ProcCtx, SimDuration, SimTime, Step};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// An MPI rank number.
pub type Rank = usize;

/// An MPI message tag. User tags are non-negative; negative tags are
/// reserved for internal protocol traffic (collectives, Pilot services).
pub type Tag = i32;

/// Wildcard-capable source selector (`MPI_ANY_SOURCE` = `None`).
pub type SrcSel = Option<Rank>;

/// Wildcard-capable tag selector (`MPI_ANY_TAG` = `None`).
pub type TagSel = Option<Tag>;

/// What an envelope carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An eager data message.
    Data(Vec<u8>),
    /// Rendezvous request-to-send: "I have `bytes` for you under this id".
    Rts {
        /// Handshake id.
        id: u64,
        /// Payload size the sender holds.
        bytes: usize,
    },
    /// Rendezvous clear-to-send for the given id.
    Cts {
        /// Handshake id.
        id: u64,
    },
    /// Rendezvous data for the given id.
    RdvData {
        /// Handshake id.
        id: u64,
        /// The payload.
        data: Vec<u8>,
    },
}

/// One in-flight or queued message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Element type of the data.
    pub dtype: Datatype,
    /// Number of elements.
    pub count: usize,
    /// Wire sequence number for exactly-once delivery: every *logical* send
    /// gets a cluster-unique non-zero id, and every wire-level copy of it
    /// (fault-plan duplicates, retransmissions after a dropped attempt)
    /// carries the same id, so the receiving [`MailStore`] can discard all
    /// but the first copy. `0` means "unsequenced" and is never deduped
    /// (used by hand-built envelopes in tests).
    pub wire_seq: u64,
    /// The payload.
    pub payload: Payload,
}

impl Envelope {
    /// True if this envelope is the *start* of a user-visible message
    /// (eager data or a rendezvous header) matching the given selectors.
    pub fn matches_recv(&self, src: SrcSel, tag: TagSel) -> bool {
        let kind_ok = matches!(self.payload, Payload::Data(_) | Payload::Rts { .. });
        kind_ok && src.is_none_or(|s| s == self.src) && tag.is_none_or(|t| t == self.tag)
    }
}

/// Unwind payload raised when a process touches the mailbox of a rank that a
/// fault plan has killed. [`crate::MpiWorld::launch`] catches it and retires
/// the rank's process cleanly instead of failing the whole simulation.
pub(crate) struct RankDeadUnwind;

/// How [`MailStore::recv_async`] ended.
#[derive(Debug, PartialEq)]
pub enum Recv {
    /// The matching envelope, removed from the store.
    Got(Envelope),
    /// The deadline came first; the clock reads exactly the deadline.
    TimedOut,
    /// The store is poisoned or taken over: its owner is gone.
    Dead,
}

/// Outcome of [`MailStore::poll_where`].
#[derive(Debug, PartialEq)]
pub enum StorePoll {
    /// The matching envelope, removed from the store.
    Ready(Envelope),
    /// The earliest match arrives this long from now.
    InFlight(SimDuration),
    /// No match; the caller is registered to be unblocked by the next
    /// delivery (or by `poison` / `take_over`).
    Empty,
    /// The store is poisoned or taken over: its owner is gone.
    Dead,
}

struct StoreInner {
    arrived: Vec<(SimTime, u64, Envelope)>,
    next_arrival: u64,
    waiters: VecDeque<Pid>,
    /// Set when the owning rank is killed by a fault plan: deliveries are
    /// discarded and the owner's receives unwind with [`RankDeadUnwind`].
    poisoned: bool,
    /// Wire sequence numbers already delivered (exactly-once dedup): a
    /// second wire copy of a sequenced envelope is silently discarded.
    seen: HashSet<u64>,
    /// Set by [`MailStore::take_over`]: future deliveries are forwarded to
    /// the adopting store and blocked receivers unwind as dead so the old
    /// owner's pump can retire.
    forward_to: Option<MailStore>,
}

/// Index and arrival instant of the earliest-arriving envelope matching
/// `pred` (ties by delivery order).
fn earliest(st: &StoreInner, pred: impl Fn(&Envelope) -> bool) -> Option<(usize, SimTime)> {
    st.arrived
        .iter()
        .enumerate()
        .filter(|(_, (_, _, e))| pred(e))
        .min_by_key(|(_, (at, seq, _))| (*at, *seq))
        .map(|(i, (at, _, _))| (i, *at))
}

/// The matching store of one rank.
pub struct MailStore {
    inner: Arc<Mutex<StoreInner>>,
    label: Arc<str>,
}

impl Clone for MailStore {
    fn clone(&self) -> Self {
        MailStore {
            inner: self.inner.clone(),
            label: self.label.clone(),
        }
    }
}

impl MailStore {
    /// A fresh store labelled for diagnostics.
    pub fn new(label: &str) -> MailStore {
        MailStore {
            inner: Arc::new(Mutex::new(StoreInner {
                arrived: Vec::new(),
                next_arrival: 0,
                waiters: VecDeque::new(),
                poisoned: false,
                seen: HashSet::new(),
                forward_to: None,
            })),
            label: label.into(),
        }
    }

    /// Deliver an envelope that becomes visible `latency` from now.
    ///
    /// Exactly-once: a sequenced envelope (`wire_seq != 0`) whose sequence
    /// number was already delivered here is silently discarded, so
    /// fault-plan duplicates and retransmitted copies never surface twice.
    ///
    /// Wakes *every* waiter: several processes may wait on one store with
    /// different predicates (e.g. a Co-Pilot's MPI pump waiting for data
    /// while the Co-Pilot itself waits for a rendezvous CTS on the same
    /// rank), and only the matching one will consume; the rest re-register.
    pub fn deliver(&self, ctx: &ProcCtx, env: Envelope, latency: SimDuration) {
        let forward = {
            let mut st = self.inner.lock();
            if st.poisoned {
                // The owning rank is dead: the wire drops the message on the
                // floor, exactly like a real NIC with no host behind it.
                return;
            }
            match &st.forward_to {
                Some(target) => target.clone(),
                None => {
                    if env.wire_seq != 0 && !st.seen.insert(env.wire_seq) {
                        // Second wire copy of an already-delivered message.
                        return;
                    }
                    let seq = st.next_arrival;
                    st.next_arrival += 1;
                    st.arrived.push((ctx.now() + latency, seq, env));
                    for w in std::mem::take(&mut st.waiters) {
                        ctx.unblock(w, latency);
                    }
                    return;
                }
            }
        };
        // A standby took this mailbox over: the wire now lands there.
        forward.deliver(ctx, env, latency);
    }

    /// Hand this store's queue over to `target` (Co-Pilot failover): queued
    /// envelopes move across preserving their arrival instants and relative
    /// order, the dedup set merges so retransmitted copies of anything the
    /// old owner already saw stay suppressed, future [`MailStore::deliver`]
    /// calls forward to `target`, and any process blocked receiving on this
    /// store is woken to find it dead ([`StorePoll::Dead`]).
    pub fn take_over(&self, ctx: &ProcCtx, target: &MailStore) {
        let (moved, seen, waiters) = {
            let mut st = self.inner.lock();
            st.forward_to = Some(target.clone());
            let mut moved = std::mem::take(&mut st.arrived);
            moved.sort_by_key(|(at, seq, _)| (*at, *seq));
            (
                moved,
                std::mem::take(&mut st.seen),
                std::mem::take(&mut st.waiters),
            )
        };
        {
            let mut tgt = target.inner.lock();
            for (at, _, env) in moved {
                let seq = tgt.next_arrival;
                tgt.next_arrival += 1;
                tgt.arrived.push((at, seq, env));
            }
            tgt.seen.extend(seen);
            let tw = std::mem::take(&mut tgt.waiters);
            for w in tw {
                ctx.unblock(w, SimDuration::ZERO);
            }
        }
        // Wake the old owner's blocked receivers so they notice retirement
        // and unwind (their next pass sees `forward_to` set).
        for w in waiters {
            ctx.unblock(w, SimDuration::ZERO);
        }
    }

    /// True once [`MailStore::take_over`] has redirected this store.
    pub fn is_retired(&self) -> bool {
        self.inner.lock().forward_to.is_some()
    }

    /// Kill the owning rank's mailbox: pending and future deliveries are
    /// discarded and any process receiving on the store unwinds as dead.
    /// Called by the rank-death reaper a fault plan schedules.
    pub fn poison(&self, ctx: &ProcCtx) {
        let mut st = self.inner.lock();
        st.poisoned = true;
        st.arrived.clear();
        for w in std::mem::take(&mut st.waiters) {
            ctx.unblock(w, SimDuration::ZERO);
        }
    }

    /// True once [`MailStore::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Receive the envelope matching `pred`, honouring arrival times: among
    /// simultaneously matching envelopes the earliest-arriving wins, which
    /// preserves per-pair FIFO order. Every wait is an awaited [`Step`], a
    /// block reported as `"{label}: {what()}"`. With a `deadline`, gives up
    /// at that instant: a message arriving later does not count.
    pub async fn recv_async<F>(
        &self,
        ctx: &ProcCtx,
        what: impl Fn() -> String,
        pred: F,
        deadline: Option<SimTime>,
    ) -> Recv
    where
        F: Fn(&Envelope) -> bool,
    {
        loop {
            let left = deadline.map(|at| at - ctx.now());
            match self.poll_where(ctx, &pred) {
                StorePoll::Ready(env) => return Recv::Got(env),
                StorePoll::InFlight(wait) => match left {
                    Some(left) if wait > left => {
                        // It will arrive, but too late to matter.
                        Step::Advance(left).await;
                        return Recv::TimedOut;
                    }
                    _ => Step::Advance(wait).await,
                },
                StorePoll::Empty => {
                    let block = Step::Block {
                        label: self.label.clone(),
                        what: what().into(),
                        deadline: left,
                    };
                    // No time left: give up without blocking.
                    if left == Some(SimDuration::ZERO) || !block.woken().await {
                        // Out of time, perhaps while parked: deregister.
                        self.inner.lock().waiters.retain(|&p| p != ctx.pid());
                        return Recv::TimedOut;
                    }
                }
                StorePoll::Dead => return Recv::Dead,
            }
        }
    }

    /// One round of [`MailStore::recv_async`] without its kernel call: the
    /// matching envelope if it has arrived, how long the earliest match is
    /// still in flight, the caller registered as a waiter because nothing
    /// matches, or the store poisoned / taken over.
    pub fn poll_where<F>(&self, ctx: &ProcCtx, pred: F) -> StorePoll
    where
        F: Fn(&Envelope) -> bool,
    {
        let mut st = self.inner.lock();
        if st.poisoned || st.forward_to.is_some() {
            return StorePoll::Dead;
        }
        match earliest(&st, pred) {
            Some((idx, at)) if at <= ctx.now() => StorePoll::Ready(st.arrived.remove(idx).2),
            Some((_, at)) => StorePoll::InFlight(at - ctx.now()),
            None => {
                st.waiters.push_back(ctx.pid());
                StorePoll::Empty
            }
        }
    }

    /// Blocking probe: like a receive, but leaves the envelope in place and
    /// returns a clone. A dead store unwinds the caller.
    pub fn probe_where<F>(&self, ctx: &ProcCtx, what: &str, pred: F) -> Envelope
    where
        F: Fn(&Envelope) -> bool,
    {
        loop {
            let mut st = self.inner.lock();
            if st.poisoned || st.forward_to.is_some() {
                drop(st);
                std::panic::resume_unwind(Box::new(RankDeadUnwind));
            }
            match earliest(&st, &pred) {
                Some((idx, at)) if at <= ctx.now() => return st.arrived[idx].2.clone(),
                Some((_, at)) => {
                    drop(st);
                    ctx.advance(at - ctx.now());
                }
                None => {
                    st.waiters.push_back(ctx.pid());
                    drop(st);
                    ctx.block_on(&self.label, what);
                }
            }
        }
    }

    /// Non-blocking probe: is a matching envelope available right now?
    pub fn iprobe<F>(&self, ctx: &ProcCtx, pred: F) -> Option<Envelope>
    where
        F: Fn(&Envelope) -> bool,
    {
        let st = self.inner.lock();
        st.arrived
            .iter()
            .filter(|(at, _, e)| *at <= ctx.now() && pred(e))
            .min_by_key(|(at, seq, _)| (*at, *seq))
            .map(|(_, _, e)| e.clone())
    }

    /// Number of queued envelopes (diagnostics).
    pub fn queued(&self) -> usize {
        self.inner.lock().arrived.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_des::Simulation;

    fn env(src: Rank, tag: Tag, byte: u8) -> Envelope {
        Envelope {
            src,
            dst: 0,
            tag,
            dtype: Datatype::Byte,
            count: 1,
            wire_seq: 0,
            payload: Payload::Data(vec![byte]),
        }
    }

    /// Receive `pred`'s match on `store` from a thread, through the future a
    /// component awaits, or give up at `deadline`.
    fn drive_recv(
        store: &MailStore,
        ctx: &ProcCtx,
        what: &'static str,
        pred: impl Fn(&Envelope) -> bool + Send + 'static,
        deadline: Option<SimTime>,
    ) -> Recv {
        let (s, c) = (store.clone(), ctx.clone());
        ctx.drive(async move { s.recv_async(&c, || what.into(), pred, deadline).await })
    }

    /// Receive from a thread, through the future a component awaits.
    fn recv(
        store: &MailStore,
        ctx: &ProcCtx,
        pred: impl Fn(&Envelope) -> bool + Send + 'static,
    ) -> Envelope {
        match drive_recv(store, ctx, "recv", pred, None) {
            Recv::Got(env) => env,
            other => panic!("expected an envelope, got {other:?}"),
        }
    }

    #[test]
    fn recv_matches_by_source_and_tag() {
        let store = MailStore::new("r0");
        let mut sim = Simulation::new();
        let (s1, s2) = (store.clone(), store);
        sim.spawn("sender", move |ctx| {
            s1.deliver(ctx, env(1, 10, b'a'), SimDuration::ZERO);
            s1.deliver(ctx, env(2, 20, b'b'), SimDuration::ZERO);
            s1.deliver(ctx, env(1, 20, b'c'), SimDuration::ZERO);
        });
        sim.spawn("recv", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            let m = recv(&s2, ctx, |e| e.matches_recv(Some(2), Some(20)));
            assert_eq!(m.payload, Payload::Data(vec![b'b']));
            let m = recv(&s2, ctx, |e| e.matches_recv(None, Some(20)));
            assert_eq!(m.src, 1);
            let m = recv(&s2, ctx, |e| e.matches_recv(None, None));
            assert_eq!(m.tag, 10);
        });
        sim.run().unwrap();
    }

    #[test]
    fn earliest_arrival_wins_not_delivery_order() {
        let store = MailStore::new("r0");
        let mut sim = Simulation::new();
        let (s1, s2) = (store.clone(), store);
        sim.spawn("sender", move |ctx| {
            // Delivered first but arrives later (slow path).
            s1.deliver(ctx, env(1, 0, b'x'), SimDuration::from_micros(100));
            // Delivered second, arrives sooner (fast local path).
            s1.deliver(ctx, env(2, 0, b'y'), SimDuration::from_micros(10));
        });
        sim.spawn("recv", move |ctx| {
            let m = recv(&s2, ctx, |e| e.matches_recv(None, None));
            assert_eq!(m.src, 2);
            assert_eq!(ctx.now().as_micros_f64(), 10.0);
            let m = recv(&s2, ctx, |e| e.matches_recv(None, None));
            assert_eq!(m.src, 1);
            assert_eq!(ctx.now().as_micros_f64(), 100.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn same_pair_order_is_fifo() {
        let store = MailStore::new("r0");
        let mut sim = Simulation::new();
        let (s1, s2) = (store.clone(), store);
        sim.spawn("sender", move |ctx| {
            s1.deliver(ctx, env(1, 0, 1), SimDuration::from_micros(5));
            s1.deliver(ctx, env(1, 0, 2), SimDuration::from_micros(5));
        });
        sim.spawn("recv", move |ctx| {
            for expect in [1u8, 2] {
                let m = recv(&s2, ctx, |e| e.matches_recv(Some(1), None));
                assert_eq!(m.payload, Payload::Data(vec![expect]));
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn probe_does_not_consume() {
        let store = MailStore::new("r0");
        let mut sim = Simulation::new();
        let (s1, s2) = (store.clone(), store);
        sim.spawn("sender", move |ctx| {
            ctx.advance(SimDuration::from_micros(3));
            s1.deliver(ctx, env(1, 7, 9), SimDuration::ZERO);
        });
        sim.spawn("recv", move |ctx| {
            assert!(s2.iprobe(ctx, |e| e.matches_recv(None, None)).is_none());
            let p = s2.probe_where(ctx, "probe", |e| e.matches_recv(None, Some(7)));
            assert_eq!(p.src, 1);
            assert_eq!(s2.queued(), 1);
            let m = recv(&s2, ctx, |e| e.matches_recv(None, Some(7)));
            assert_eq!(m.payload, Payload::Data(vec![9]));
            assert_eq!(s2.queued(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn sequenced_duplicate_is_discarded_unsequenced_is_not() {
        let store = MailStore::new("r0");
        let mut sim = Simulation::new();
        let (s1, s2) = (store.clone(), store);
        sim.spawn("sender", move |ctx| {
            let mut sequenced = env(1, 0, b'a');
            sequenced.wire_seq = 7;
            // Two wire copies of one logical send: only the first lands.
            s1.deliver(ctx, sequenced.clone(), SimDuration::ZERO);
            s1.deliver(ctx, sequenced, SimDuration::from_micros(3));
            // Unsequenced envelopes never dedup.
            s1.deliver(ctx, env(2, 0, b'b'), SimDuration::ZERO);
            s1.deliver(ctx, env(2, 0, b'b'), SimDuration::ZERO);
        });
        sim.spawn("recv", move |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            assert_eq!(s2.queued(), 3);
            let m = recv(&s2, ctx, |e| e.matches_recv(Some(1), None));
            assert_eq!(m.payload, Payload::Data(vec![b'a']));
            assert!(s2.iprobe(ctx, |e| e.matches_recv(Some(1), None)).is_none());
        });
        sim.run().unwrap();
    }

    #[test]
    fn take_over_moves_queue_forwards_and_keeps_dedup() {
        let old = MailStore::new("primary");
        let new = MailStore::new("standby");
        let mut sim = Simulation::new();
        let (old_s, new_s) = (old.clone(), new.clone());
        sim.spawn("driver", move |ctx| {
            let mut first = env(1, 0, b'x');
            first.wire_seq = 11;
            old_s.deliver(ctx, first.clone(), SimDuration::ZERO);
            old_s.take_over(ctx, &new_s);
            assert!(old_s.is_retired());
            // The queued envelope moved across.
            assert_eq!(old_s.queued(), 0);
            assert_eq!(new_s.queued(), 1);
            // A retransmitted copy of the pre-takeover message forwards to
            // the new store and is still deduped there.
            old_s.deliver(ctx, first, SimDuration::ZERO);
            assert_eq!(new_s.queued(), 1);
            // Fresh traffic addressed to the old store lands in the new one.
            let mut second = env(1, 0, b'y');
            second.wire_seq = 12;
            old_s.deliver(ctx, second, SimDuration::ZERO);
            assert_eq!(new_s.queued(), 2);
            let m = recv(&new_s, ctx, |e| e.matches_recv(Some(1), None));
            assert_eq!(m.payload, Payload::Data(vec![b'x']));
        });
        sim.run().unwrap();
    }

    #[test]
    fn receiver_blocked_on_taken_over_store_finds_it_dead() {
        let old = MailStore::new("primary");
        let new = MailStore::new("standby");
        let mut sim = Simulation::new();
        let (old_a, old_b, new_b) = (old.clone(), old, new);
        sim.spawn("pump", move |ctx| {
            let any = |e: &Envelope| e.matches_recv(None, None);
            let got = drive_recv(&old_a, ctx, "pump recv", any, None);
            assert_eq!(got, Recv::Dead, "pump must retire on takeover");
        });
        sim.spawn("watchdog", move |ctx| {
            ctx.advance(SimDuration::from_micros(5));
            old_b.take_over(ctx, &new_b);
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_with_a_deadline_gives_up_exactly_at_it() {
        let store = MailStore::new("r0");
        let mut sim = Simulation::new();
        let (s1, s2) = (store.clone(), store);
        sim.spawn("sender", move |ctx| {
            s1.deliver(ctx, env(1, 0, b'x'), SimDuration::from_micros(45));
        });
        sim.spawn("recv", move |ctx| {
            let any = |e: &Envelope| e.matches_recv(None, None);
            let mut log = Vec::new();
            for deadline_us in [10, 40, 100, 120] {
                let at = SimTime::ZERO + SimDuration::from_micros(deadline_us);
                let got = drive_recv(&s2, ctx, "recv", any, Some(at));
                log.push((matches!(got, Recv::Got(_)), ctx.now().as_nanos()));
            }
            // The message lands at 45 µs: twice too late, then in time; then
            // nothing more comes.
            let want = [
                (false, 10_000),
                (false, 40_000),
                (true, 45_000),
                (false, 120_000),
            ];
            assert_eq!(log, want);
        });
        sim.run().unwrap();
    }

    #[test]
    fn control_payloads_do_not_match_user_recv() {
        let e = Envelope {
            src: 0,
            dst: 1,
            tag: 5,
            dtype: Datatype::Byte,
            count: 0,
            wire_seq: 0,
            payload: Payload::Cts { id: 3 },
        };
        assert!(!e.matches_recv(None, None));
        let rts = Envelope {
            payload: Payload::Rts { id: 1, bytes: 100 },
            ..e.clone()
        };
        assert!(rts.matches_recv(Some(0), Some(5)));
    }
}
