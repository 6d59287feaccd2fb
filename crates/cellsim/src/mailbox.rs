//! SPE mailboxes: the Cell's 32-bit word channels between PPE and SPE.
//!
//! Each SPE has a 4-entry **inbound** mailbox (PPE → SPE), a 1-entry
//! **outbound** mailbox and a 1-entry **outbound interrupt** mailbox
//! (SPE → PPE). SPU-side accesses are cheap channel instructions; PPE-side
//! accesses are MMIO operations into the SPE's problem-state area, which is
//! what makes mailbox synchronization cost microseconds, not nanoseconds.
//!
//! CellPilot's Co-Pilot protocol is built entirely from these words plus
//! effective-address `memcpy`/MPI transfers, so their costs dominate the
//! SPE-connected channel types in Table II.

use crate::costs::CellCosts;
use cp_des::sync::MsgQueue;
use cp_des::{ProcCtx, SimDuration, Step};
use cp_trace::{HbOp, Recorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One mailbox word queue plus the send/receive sequence counters the
/// happens-before instrumentation matches edges with.
struct MboxQueue {
    q: MsgQueue<u32>,
    label: String,
    sent: AtomicU64,
    received: AtomicU64,
}

impl MboxQueue {
    fn new(label: String, depth: usize) -> MboxQueue {
        MboxQueue {
            q: MsgQueue::new(&label, Some(depth)),
            label,
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        }
    }

    /// Record the send edge *before* the (possibly blocking) push: the
    /// word cannot be popped before the push inserts it, so the matching
    /// receive always lands later in the recorder's execution order.
    fn note_send(&self, rec: &Option<Recorder>, ctx: &ProcCtx) {
        if let Some(r) = rec {
            let seq = self.sent.fetch_add(1, Ordering::Relaxed);
            r.record_hb(
                &ctx.name(),
                ctx.now().as_nanos(),
                HbOp::MsgSend {
                    queue: self.label.clone(),
                    seq,
                },
            );
        }
    }

    /// Send `word`: record the edge, then push it with the mailbox latency,
    /// waiting while the queue is full.
    async fn send(&self, rec: Option<Recorder>, ctx: &ProcCtx, latency_us: f64, word: u32) {
        self.note_send(&rec, ctx);
        let latency = SimDuration::from_micros_f64(latency_us);
        self.q.push_async(ctx, word, latency).await;
    }

    /// Write `word`: `op_us` of access cost, then [`MboxQueue::send`].
    async fn write(
        &self,
        rec: Option<Recorder>,
        ctx: &ProcCtx,
        op_us: f64,
        latency_us: f64,
        word: u32,
    ) {
        Step::Advance(SimDuration::from_micros_f64(op_us)).await;
        self.send(rec, ctx, latency_us, word).await;
    }

    /// Record the receive edge after a completed pop. Pops are FIFO and
    /// each queue has a single consumer, so the running counter matches
    /// the sender's sequence.
    fn note_recv(&self, rec: &Option<Recorder>, ctx: &ProcCtx) {
        if let Some(r) = rec {
            let seq = self.received.fetch_add(1, Ordering::Relaxed);
            r.record_hb(
                &ctx.name(),
                ctx.now().as_nanos(),
                HbOp::MsgRecv {
                    queue: self.label.clone(),
                    seq,
                },
            );
        }
    }
}

/// The mailbox set of one SPE.
pub struct Mailboxes {
    inbound: MboxQueue,
    outbound: MboxQueue,
    outbound_intr: MboxQueue,
    /// Inline payloads riding inbound words (see
    /// [`Mailboxes::ppe_write_inbox_inline`]): the PPE's store-gather
    /// buffer lets a ≤16-byte payload travel in the same MMIO burst as a
    /// mailbox word, so eager completions deliver small messages without a
    /// separate DMA. FIFO per SPE — only inline completions push here and
    /// the SPU pops in completion order.
    inline: Mutex<std::collections::VecDeque<Vec<u8>>>,
    recorder: Mutex<Recorder>,
}

impl Mailboxes {
    /// Create the mailbox set for the SPE labelled `label` in diagnostics.
    pub fn new(label: &str) -> Mailboxes {
        Mailboxes {
            inbound: MboxQueue::new(format!("{label}.mbox_in"), 4),
            outbound: MboxQueue::new(format!("{label}.mbox_out"), 1),
            outbound_intr: MboxQueue::new(format!("{label}.mbox_intr"), 1),
            inline: Mutex::new(std::collections::VecDeque::new()),
            recorder: Mutex::new(Recorder::disabled()),
        }
    }

    /// Attach a happens-before recorder (see [`cp_trace::hb`]); mailbox
    /// words then carry ordering edges for the race detector. Disabled by
    /// default: every operation pays one branch and nothing else.
    pub fn set_recorder(&self, rec: Recorder) {
        *self.recorder.lock() = rec;
    }

    /// A recorder clone when recording is on, `None` otherwise (so the
    /// disabled path never formats labels or bumps counters).
    fn rec(&self) -> Option<Recorder> {
        let r = self.recorder.lock();
        r.is_enabled().then(|| r.clone())
    }

    /// The thread form of [`MboxQueue::write`], made with the blocking
    /// calls: a charge, then a push that rarely finds the mailbox full —
    /// too short a wait for lending to save a hand-off (see
    /// `ProcCtx::drive`).
    fn write_word(&self, q: &MboxQueue, ctx: &ProcCtx, op_us: f64, costs: &CellCosts, word: u32) {
        ctx.advance(SimDuration::from_micros_f64(op_us));
        q.note_send(&self.rec(), ctx);
        let latency = SimDuration::from_micros_f64(costs.mailbox_latency_us);
        q.q.push(ctx, word, latency);
    }

    // --- SPU side (channel instructions) ---

    /// SPU: write a word to the outbound mailbox; blocks while it is full.
    pub fn spu_write_outbox(&self, ctx: &ProcCtx, costs: &CellCosts, word: u32) {
        self.write_word(&self.outbound, ctx, costs.spu_channel_op_us, costs, word);
    }

    /// SPU: write a word to the outbound interrupt mailbox.
    pub fn spu_write_outbox_intr(&self, ctx: &ProcCtx, costs: &CellCosts, word: u32) {
        self.write_word(
            &self.outbound_intr,
            ctx,
            costs.spu_channel_op_us,
            costs,
            word,
        );
    }

    /// SPU: blocking read of the inbound mailbox.
    pub fn spu_read_inbox(&self, ctx: &ProcCtx, costs: &CellCosts) -> u32 {
        let word = self.inbound.q.pop(ctx);
        self.inbound.note_recv(&self.rec(), ctx);
        ctx.advance(SimDuration::from_micros_f64(costs.spu_channel_op_us));
        word
    }

    /// [`Mailboxes::spu_read_inbox`] as a future, each wait an awaited
    /// [`Step`].
    pub async fn spu_read_inbox_async(&self, ctx: &ProcCtx, costs: &CellCosts) -> u32 {
        let word = self.inbound.q.pop_async(ctx).await;
        self.inbound.note_recv(&self.rec(), ctx);
        Step::Advance(SimDuration::from_micros_f64(costs.spu_channel_op_us)).await;
        word
    }

    /// SPU: number of words waiting in the inbound mailbox.
    pub fn spu_inbox_count(&self) -> usize {
        self.inbound.q.len()
    }

    /// SPU: true if the outbound mailbox has space for another word.
    pub fn spu_outbox_has_space(&self) -> bool {
        self.outbound.q.is_empty()
    }

    // --- PPE side (MMIO into problem-state area) ---

    /// PPE: blocking read of the SPE's outbound mailbox. The MMIO access
    /// cost is charged once the word is present (a poll loop would pay at
    /// least one access after arrival).
    pub fn ppe_read_outbox(&self, ctx: &ProcCtx, costs: &CellCosts) -> u32 {
        let word = self.outbound.q.pop(ctx);
        self.outbound.note_recv(&self.rec(), ctx);
        ctx.advance(SimDuration::from_micros_f64(costs.ppe_mmio_op_us));
        word
    }

    /// PPE: non-blocking read of the SPE's outbound mailbox
    /// (`spe_out_mbox_status` + read).
    pub fn ppe_try_read_outbox(&self, ctx: &ProcCtx, costs: &CellCosts) -> Option<u32> {
        ctx.advance(SimDuration::from_micros_f64(costs.ppe_mmio_op_us));
        let word = self.outbound.q.try_pop(ctx);
        if word.is_some() {
            self.outbound.note_recv(&self.rec(), ctx);
        }
        word
    }

    /// PPE: blocking read of the SPE's outbound interrupt mailbox.
    pub fn ppe_read_outbox_intr(&self, ctx: &ProcCtx, costs: &CellCosts) -> u32 {
        let word = self.outbound_intr.q.pop(ctx);
        self.outbound_intr.note_recv(&self.rec(), ctx);
        ctx.advance(SimDuration::from_micros_f64(costs.ppe_mmio_op_us));
        word
    }

    /// PPE: write a word into the SPE's 4-deep inbound mailbox; blocks while
    /// it is full (`SPE_MBOX_ALL_BLOCKING` behaviour).
    pub fn ppe_write_inbox(&self, ctx: &ProcCtx, costs: &CellCosts, word: u32) {
        self.write_word(&self.inbound, ctx, costs.ppe_mmio_op_us, costs, word);
    }

    /// [`Mailboxes::ppe_write_inbox`] as a future, each wait an awaited
    /// [`Step`].
    pub async fn ppe_write_inbox_async(&self, ctx: &ProcCtx, costs: &CellCosts, word: u32) {
        let (op_us, latency_us) = (costs.ppe_mmio_op_us, costs.mailbox_latency_us);
        self.inbound
            .write(self.rec(), ctx, op_us, latency_us, word)
            .await;
    }

    /// PPE: non-blocking status of the outbound mailbox (word available?).
    pub fn ppe_outbox_status(&self, ctx: &ProcCtx) -> bool {
        self.outbound.q.has_available(ctx)
    }

    /// PPE: write a word into the SPE's inbound mailbox with a small
    /// payload riding the same store-gather MMIO burst. Charges one MMIO
    /// operation (same as [`Mailboxes::ppe_write_inbox`]) plus a per-byte
    /// copy into the problem-state mapping — no second mailbox word, no
    /// DMA setup. The payload is queued FIFO for
    /// [`Mailboxes::spu_take_inline`]. Only a Co-Pilot makes it, so it
    /// exists only as a future.
    pub async fn ppe_write_inbox_inline(
        &self,
        ctx: &ProcCtx,
        costs: &CellCosts,
        word: u32,
        payload: Vec<u8>,
    ) {
        Step::Advance(SimDuration::from_micros_f64(
            costs.ppe_mmio_op_us + costs.ls_copy_per_byte_us * payload.len() as f64,
        ))
        .await;
        // Stage the payload before the word: by the time the SPU pops the
        // word, its payload is guaranteed present.
        self.inline.lock().push_back(payload);
        let latency_us = costs.mailbox_latency_us;
        self.inbound.send(self.rec(), ctx, latency_us, word).await;
    }

    /// SPU: take the oldest inline payload. Call exactly once per inbound
    /// word whose completion flags said the payload rode the word (the
    /// happens-before edge of the word itself orders the payload).
    pub fn spu_take_inline(&self) -> Option<Vec<u8>> {
        self.inline.lock().pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_des::Simulation;
    use std::sync::Arc;

    fn costs() -> CellCosts {
        CellCosts::default()
    }

    #[test]
    fn spu_to_ppe_word_costs_one_way_latency() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("spu", move |ctx| {
            m1.spu_write_outbox(ctx, &costs(), 0xCAFE);
        });
        sim.spawn("ppe", move |ctx| {
            let w = m2.ppe_read_outbox(ctx, &costs());
            assert_eq!(w, 0xCAFE);
            // spu op 0.1 + latency 4.9 + ppe mmio 2.5 = 7.5us
            assert!((ctx.now().as_micros_f64() - 7.5).abs() < 0.01);
        });
        sim.run().unwrap();
    }

    #[test]
    fn inbound_mailbox_depth_is_four() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("ppe", move |ctx| {
            for i in 0..5 {
                m1.ppe_write_inbox(ctx, &costs(), i);
            }
            // The 5th write must have blocked until the SPU drained one word
            // at t = 100us.
            assert!(ctx.now().as_micros_f64() >= 100.0);
        });
        sim.spawn("spu", move |ctx| {
            ctx.advance(SimDuration::from_micros(100));
            for i in 0..5 {
                assert_eq!(m2.spu_read_inbox(ctx, &costs()), i);
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn outbound_is_single_entry() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("spu", move |ctx| {
            m1.spu_write_outbox(ctx, &costs(), 1);
            assert!(!m1.spu_outbox_has_space());
            m1.spu_write_outbox(ctx, &costs(), 2); // blocks until PPE reads
            assert!(ctx.now().as_micros_f64() >= 50.0);
        });
        sim.spawn("ppe", move |ctx| {
            ctx.advance(SimDuration::from_micros(50));
            assert_eq!(m2.ppe_read_outbox(ctx, &costs()), 1);
            assert_eq!(m2.ppe_read_outbox(ctx, &costs()), 2);
        });
        sim.run().unwrap();
    }

    #[test]
    fn try_read_empty_returns_none() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        sim.spawn("ppe", move |ctx| {
            assert_eq!(mb.ppe_try_read_outbox(ctx, &costs()), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn status_and_count_channels() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("spu", move |ctx| {
            assert_eq!(m1.spu_inbox_count(), 0);
            ctx.advance(SimDuration::from_micros(50));
            assert_eq!(m1.spu_inbox_count(), 3);
            for i in 0..3 {
                assert_eq!(m1.spu_read_inbox(ctx, &costs()), i);
            }
            m1.spu_write_outbox(ctx, &costs(), 9);
        });
        sim.spawn("ppe", move |ctx| {
            assert!(!m2.ppe_outbox_status(ctx));
            for i in 0..3 {
                m2.ppe_write_inbox(ctx, &costs(), i);
            }
            ctx.advance(SimDuration::from_micros(100));
            assert!(m2.ppe_outbox_status(ctx));
            assert_eq!(m2.ppe_read_outbox(ctx, &costs()), 9);
        });
        sim.run().unwrap();
    }

    #[test]
    fn hb_edges_match_send_to_recv_by_sequence() {
        use cp_trace::{HbOp, Recorder};
        let mb = Arc::new(Mailboxes::new("node0.spe0"));
        let rec = Recorder::enabled();
        mb.set_recorder(rec.clone());
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("spu", move |ctx| {
            m1.spu_write_outbox(ctx, &costs(), 1);
            m1.spu_write_outbox(ctx, &costs(), 2);
        });
        sim.spawn("ppe", move |ctx| {
            m2.ppe_read_outbox(ctx, &costs());
            m2.ppe_read_outbox(ctx, &costs());
            m2.ppe_write_inbox(ctx, &costs(), 3);
        });
        sim.run().unwrap();
        let hb = rec.hb_events();
        let sends: Vec<_> = hb
            .iter()
            .filter_map(|e| match &e.op {
                HbOp::MsgSend { queue, seq } => Some((queue.clone(), *seq)),
                _ => None,
            })
            .collect();
        let recvs: Vec<_> = hb
            .iter()
            .filter_map(|e| match &e.op {
                HbOp::MsgRecv { queue, seq } => Some((queue.clone(), *seq)),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends,
            vec![
                ("node0.spe0.mbox_out".to_string(), 0),
                ("node0.spe0.mbox_out".to_string(), 1),
                ("node0.spe0.mbox_in".to_string(), 0),
            ]
        );
        // Every receive matches an already-recorded send of the same
        // queue and sequence.
        for r in &recvs {
            let send_pos = hb.iter().position(
                |e| matches!(&e.op, HbOp::MsgSend { queue, seq } if (queue.clone(), *seq) == *r),
            );
            let recv_pos = hb.iter().position(
                |e| matches!(&e.op, HbOp::MsgRecv { queue, seq } if (queue.clone(), *seq) == *r),
            );
            assert!(send_pos.unwrap() < recv_pos.unwrap(), "{hb:?}");
        }
        // The unread inbox word still records its send.
        assert_eq!(recvs.len(), 2);
    }

    #[test]
    fn inline_payload_rides_one_mmio_burst() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("ppe", move |ctx| {
            let c = ctx.clone();
            ctx.drive(async move {
                m1.ppe_write_inbox_inline(&c, &costs(), 12, vec![7u8; 12])
                    .await
            });
            // One MMIO op + 12 bytes at the LS copy rate — no second
            // mailbox word, no DMA setup.
            let want = 2.5 + 12.0 * 0.009375;
            assert!((ctx.now().as_micros_f64() - want).abs() < 0.002);
        });
        sim.spawn("spu", move |ctx| {
            ctx.advance(SimDuration::from_micros(50));
            let w = m2.spu_read_inbox(ctx, &costs());
            assert_eq!(w, 12);
            assert_eq!(m2.spu_take_inline(), Some(vec![7u8; 12]));
            assert_eq!(m2.spu_take_inline(), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn interrupt_mailbox_independent_of_outbound() {
        let mb = Arc::new(Mailboxes::new("spe0"));
        let mut sim = Simulation::new();
        let (m1, m2) = (mb.clone(), mb);
        sim.spawn("spu", move |ctx| {
            m1.spu_write_outbox(ctx, &costs(), 7);
            m1.spu_write_outbox_intr(ctx, &costs(), 8);
        });
        sim.spawn("ppe", move |ctx| {
            assert_eq!(m2.ppe_read_outbox_intr(ctx, &costs()), 8);
            assert_eq!(m2.ppe_read_outbox(ctx, &costs()), 7);
        });
        sim.run().unwrap();
    }
}
