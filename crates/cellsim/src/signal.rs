//! SPE signal-notification registers.
//!
//! Each SPE has two 32-bit signal registers. In **OR mode** (the mode the
//! Cell SDK's `SPE_CFG_SIGNOTIFY_OR` configures and the one BlockLib-style
//! synchronization uses), writes OR into the register and an SPU read
//! returns-and-clears the accumulated value, blocking while it is zero.

use crate::costs::CellCosts;
use cp_des::{Pid, ProcCtx, SimDuration};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Accumulation behaviour of a signal register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalMode {
    /// Writes OR into the register (many-to-one signalling).
    Or,
    /// Writes overwrite the register.
    Overwrite,
}

struct SigInner {
    value: u32,
    pending: bool,
    waiters: VecDeque<Pid>,
}

/// One signal-notification register.
pub struct SignalReg {
    inner: Arc<Mutex<SigInner>>,
    mode: SignalMode,
    label: Arc<str>,
}

impl Clone for SignalReg {
    fn clone(&self) -> Self {
        SignalReg {
            inner: self.inner.clone(),
            mode: self.mode,
            label: self.label.clone(),
        }
    }
}

impl SignalReg {
    /// A fresh register in the given mode.
    pub fn new(label: &str, mode: SignalMode) -> SignalReg {
        SignalReg {
            inner: Arc::new(Mutex::new(SigInner {
                value: 0,
                pending: false,
                waiters: VecDeque::new(),
            })),
            mode,
            label: label.into(),
        }
    }

    /// Write `bits` from the PPE side (MMIO cost + delivery latency).
    pub fn ppe_write(&self, ctx: &ProcCtx, costs: &CellCosts, bits: u32) {
        ctx.advance(SimDuration::from_micros_f64(costs.ppe_mmio_op_us));
        self.deliver(
            ctx,
            bits,
            SimDuration::from_micros_f64(costs.mailbox_latency_us),
        );
    }

    /// Write `bits` from a sibling SPE (sndsig DMA: setup cost + latency).
    pub fn spu_write(&self, ctx: &ProcCtx, costs: &CellCosts, bits: u32) {
        ctx.advance(SimDuration::from_micros_f64(costs.dma_setup_us));
        self.deliver(
            ctx,
            bits,
            SimDuration::from_micros_f64(costs.mailbox_latency_us),
        );
    }

    fn deliver(&self, ctx: &ProcCtx, bits: u32, latency: SimDuration) {
        let mut st = self.inner.lock();
        match self.mode {
            SignalMode::Or => st.value |= bits,
            SignalMode::Overwrite => st.value = bits,
        }
        st.pending = true;
        if let Some(w) = st.waiters.pop_front() {
            ctx.unblock(w, latency);
        }
    }

    /// SPU: blocking read-and-clear. Returns the accumulated bits.
    pub fn spu_read(&self, ctx: &ProcCtx, costs: &CellCosts) -> u32 {
        ctx.advance(SimDuration::from_micros_f64(costs.spu_channel_op_us));
        loop {
            {
                let mut st = self.inner.lock();
                if st.pending {
                    st.pending = false;
                    return std::mem::take(&mut st.value);
                }
                let me = ctx.pid();
                st.waiters.push_back(me);
            }
            ctx.block_on(&self.label, "signal read");
        }
    }

    /// SPU: non-blocking peek at the current value (status channel).
    pub fn spu_peek(&self) -> u32 {
        self.inner.lock().value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_des::Simulation;

    #[test]
    fn or_mode_accumulates_bits() {
        let sig = SignalReg::new("spe0.sig1", SignalMode::Or);
        let mut sim = Simulation::new();
        let (s1, s2) = (sig.clone(), sig);
        sim.spawn("ppe", move |ctx| {
            let c = CellCosts::default();
            s1.ppe_write(ctx, &c, 0b01);
            s1.ppe_write(ctx, &c, 0b10);
        });
        sim.spawn("spu", move |ctx| {
            let c = CellCosts::default();
            ctx.advance(SimDuration::from_micros(100));
            assert_eq!(s2.spu_read(ctx, &c), 0b11);
            assert_eq!(s2.spu_peek(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn overwrite_mode_keeps_last() {
        let sig = SignalReg::new("spe0.sig2", SignalMode::Overwrite);
        let mut sim = Simulation::new();
        let (s1, s2) = (sig.clone(), sig);
        sim.spawn("ppe", move |ctx| {
            let c = CellCosts::default();
            s1.ppe_write(ctx, &c, 5);
            s1.ppe_write(ctx, &c, 9);
        });
        sim.spawn("spu", move |ctx| {
            let c = CellCosts::default();
            ctx.advance(SimDuration::from_micros(100));
            assert_eq!(s2.spu_read(ctx, &c), 9);
        });
        sim.run().unwrap();
    }

    #[test]
    fn sibling_spe_signals_via_sndsig() {
        // SPE-to-SPE signalling (sndsig DMA): each sender ORs its own bit.
        let sig = SignalReg::new("spe3.sig1", SignalMode::Or);
        let mut sim = Simulation::new();
        for bit in 0..3u32 {
            let s = sig.clone();
            sim.spawn(&format!("sender{bit}"), move |ctx| {
                let c = CellCosts::default();
                ctx.advance(SimDuration::from_micros(bit as u64 * 3));
                s.spu_write(ctx, &c, 1 << bit);
            });
        }
        let s2 = sig.clone();
        sim.spawn("collector", move |ctx| {
            let c = CellCosts::default();
            let mut seen = 0;
            while seen != 0b111 {
                seen |= s2.spu_read(ctx, &c);
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn blocked_reader_wakes_on_write() {
        let sig = SignalReg::new("spe0.sig1", SignalMode::Or);
        let mut sim = Simulation::new();
        let (s1, s2) = (sig.clone(), sig);
        sim.spawn("spu", move |ctx| {
            let c = CellCosts::default();
            assert_eq!(s2.spu_read(ctx, &c), 1);
            assert!(ctx.now().as_micros_f64() > 10.0);
        });
        sim.spawn("ppe", move |ctx| {
            let c = CellCosts::default();
            ctx.advance(SimDuration::from_micros(10));
            s1.ppe_write(ctx, &c, 1);
        });
        sim.run().unwrap();
    }
}
