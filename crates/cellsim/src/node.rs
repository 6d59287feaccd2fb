//! A Cell node: main memory, PPE-visible effective-address space, and a set
//! of SPEs with their local stores, mailboxes, signals and MFCs.
//!
//! A "node" here is what the paper calls a Cell node — one or two PowerXCell
//! processors sharing main memory, presented as a single pool of SPEs (a
//! dual-processor QS22-style blade is simply a node with 16 SPEs).

use crate::costs::CellCosts;
use crate::localstore::LocalStore;
use crate::localstore::LsError;
use crate::mailbox::Mailboxes;
use crate::memory::{ls_ea, resolve, Backing, Ea, MainMemory, MemError};
use crate::mfc::{validate, DmaDir, DmaError, TagState};
use crate::signal::{SignalMode, SignalReg};
use cp_des::{Pid, ProcCtx, SimDuration, Step};
use cp_trace::{HbOp, Recorder};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// One Synergistic Processing Element.
pub struct Spe {
    /// Index within the owning node.
    pub index: usize,
    /// The 256 KB local store.
    pub ls: LocalStore,
    /// The PPE↔SPE mailbox set.
    pub mbox: Mailboxes,
    /// Signal-notification register 1 (OR mode).
    pub sig1: SignalReg,
    /// Signal-notification register 2 (OR mode).
    pub sig2: SignalReg,
    /// MFC tag-group completion state.
    pub tags: TagState,
    /// Name of the program currently loaded, if any.
    busy: Mutex<Option<String>>,
}

/// Errors from SPE context management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpeRunError {
    /// The SPE is already running a program.
    Busy {
        /// The occupied SPE.
        spe: usize,
        /// Name of the program it runs.
        running: String,
    },
    /// No such SPE index on this node.
    NoSuchSpe(usize),
    /// The program image does not fit the local store.
    ImageTooLarge {
        /// The target SPE.
        spe: usize,
        /// Image size that failed to fit.
        bytes: usize,
    },
}

impl fmt::Display for SpeRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeRunError::Busy { spe, running } => {
                write!(f, "SPE {spe} is busy running '{running}'")
            }
            SpeRunError::NoSuchSpe(i) => write!(f, "no SPE with index {i} on this node"),
            SpeRunError::ImageTooLarge { spe, bytes } => {
                write!(
                    f,
                    "program image of {bytes} B does not fit SPE {spe} local store"
                )
            }
        }
    }
}

impl std::error::Error for SpeRunError {}

/// A Cell node.
pub struct CellNode {
    /// Node identifier (cluster-wide).
    pub id: usize,
    /// Node main memory.
    pub mem: Arc<MainMemory>,
    /// The node's SPEs.
    pub spes: Vec<Arc<Spe>>,
    /// The node's cost model.
    pub costs: Arc<CellCosts>,
    /// EIB payload occupancy for the contention model.
    eib_busy_until: Mutex<cp_des::SimTime>,
    /// Happens-before recorder for the `cp-check` race detector; disabled
    /// (one branch per op) unless [`CellNode::set_recorder`] attaches one.
    recorder: Mutex<Recorder>,
}

impl CellNode {
    /// Build a node with `spe_count` SPEs and `main_bytes` of main memory.
    pub fn new(id: usize, spe_count: usize, main_bytes: usize, costs: CellCosts) -> Arc<CellNode> {
        let spes = (0..spe_count)
            .map(|i| {
                let label = format!("node{id}.spe{i}");
                Arc::new(Spe {
                    index: i,
                    ls: LocalStore::new(),
                    mbox: Mailboxes::new(&label),
                    sig1: SignalReg::new(&format!("{label}.sig1"), SignalMode::Or),
                    sig2: SignalReg::new(&format!("{label}.sig2"), SignalMode::Or),
                    tags: TagState::new(),
                    busy: Mutex::new(None),
                })
            })
            .collect();
        Arc::new(CellNode {
            id,
            mem: Arc::new(MainMemory::new(main_bytes)),
            spes,
            costs: Arc::new(costs),
            eib_busy_until: Mutex::new(cp_des::SimTime::ZERO),
            recorder: Mutex::new(Recorder::disabled()),
        })
    }

    /// Number of SPEs on this node.
    pub fn spe_count(&self) -> usize {
        self.spes.len()
    }

    /// Attach a happens-before recorder (see [`cp_trace::hb`]): MFC DMA
    /// issues and waits, mailbox words and recorded local-store accesses
    /// then feed the `cp-check` race detector. Propagates to every SPE's
    /// mailbox set. Recording never consumes virtual time.
    pub fn set_recorder(&self, rec: Recorder) {
        for spe in &self.spes {
            spe.mbox.set_recorder(rec.clone());
        }
        *self.recorder.lock() = rec;
    }

    /// A recorder clone when recording is on, `None` otherwise.
    fn rec(&self) -> Option<Recorder> {
        let r = self.recorder.lock();
        r.is_enabled().then(|| r.clone())
    }

    /// The effective address at which SPE `index`'s local-store byte
    /// `offset` is mapped (problem-state mapping).
    pub fn ls_effective_address(&self, spe_index: usize, offset: usize) -> Ea {
        ls_ea(spe_index, offset)
    }

    // --- Effective-address space ---

    /// Resolve `ea` and check that `len` bytes from it fit its backing.
    fn resolve_span(&self, ea: Ea, len: usize) -> Result<Backing, MemError> {
        let b = resolve(ea, self.mem.capacity(), self.spes.len())?;
        match b {
            Backing::Main(off) => self.mem.check(off, len)?,
            Backing::LocalStore { spe, offset } => {
                self.spes[spe]
                    .ls
                    .check(offset, len)
                    .map_err(|_| MemError::OutOfBounds {
                        ea: ls_ea(spe, offset),
                        len,
                    })?
            }
        }
        Ok(b)
    }

    /// Lend `f` the checked span of `len` bytes at `b`.
    fn lend<R>(&self, b: Backing, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let out = match b {
            Backing::Main(off) => self.mem.with_range(off, len, |bytes| f(bytes)).ok(),
            Backing::LocalStore { spe, offset } => self.spes[spe].ls.read_with(offset, len, f).ok(),
        };
        out.expect("span checked")
    }

    /// Lend `f` the checked span of `len` bytes at `b` to fill.
    fn lend_mut<R>(&self, b: Backing, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let out = match b {
            Backing::Main(off) => self.mem.with_range(off, len, f).ok(),
            Backing::LocalStore { spe, offset } => {
                self.spes[spe].ls.write_with(offset, len, f).ok()
            }
        };
        out.expect("span checked")
    }

    /// Copy `len` bytes between two checked spans, backing to backing with
    /// no buffer between. Local stores are locked in SPE-index order and
    /// main memory last, so copies running at once (`cp-native` runs SPE
    /// programs on real threads) cannot deadlock.
    fn copy_span(&self, dst: Backing, src: Backing, len: usize) {
        let rank = |b: Backing| match b {
            Backing::LocalStore { spe, .. } => spe,
            Backing::Main(_) => usize::MAX,
        };
        match (dst, src) {
            (Backing::Main(to), Backing::Main(from)) => {
                self.mem.copy_within(to, from, len).expect("spans checked")
            }
            (Backing::LocalStore { spe, offset: to }, Backing::LocalStore { offset: from, .. })
                if rank(src) == spe =>
            {
                self.spes[spe]
                    .ls
                    .copy_within(to, from, len)
                    .expect("spans checked")
            }
            _ if rank(src) < rank(dst) => self.lend(src, len, |from| {
                self.lend_mut(dst, len, |to| to.copy_from_slice(from))
            }),
            _ => self.lend_mut(dst, len, |to| {
                self.lend(src, len, |from| to.copy_from_slice(from))
            }),
        }
    }

    /// Read `len` bytes at effective address `ea` (no cost charged; callers
    /// charge via [`CellNode::ppe_memcpy`] or DMA cost models).
    pub fn ea_read(&self, ea: Ea, len: usize) -> Result<Vec<u8>, MemError> {
        Ok(self.lend(self.resolve_span(ea, len)?, len, <[u8]>::to_vec))
    }

    /// Write `bytes` at effective address `ea`.
    pub fn ea_write(&self, ea: Ea, bytes: &[u8]) -> Result<(), MemError> {
        let to = self.resolve_span(ea, bytes.len())?;
        self.lend_mut(to, bytes.len(), |to| to.copy_from_slice(bytes));
        Ok(())
    }

    /// How many of the two addresses fall in mapped local stores (0..=2) —
    /// determines the per-byte cost of a PPE copy between them.
    pub fn ls_sides(&self, a: Ea, b: Ea) -> u8 {
        let is_ls = |ea: Ea| {
            matches!(
                resolve(ea, self.mem.capacity(), self.spes.len()),
                Ok(Backing::LocalStore { .. })
            )
        };
        is_ls(a) as u8 + is_ls(b) as u8
    }

    /// A PPE `memcpy` between two effective addresses, charging the
    /// calibrated cost for uncached local-store mappings.
    pub fn ppe_memcpy(&self, ctx: &ProcCtx, dst: Ea, src: Ea, len: usize) -> Result<(), MemError> {
        ctx.advance(self.ppe_copy(ctx, dst, src, len)?);
        Ok(())
    }

    /// [`CellNode::ppe_memcpy`] as a future: the copy, then its charge as
    /// an awaited [`Step`].
    pub async fn ppe_memcpy_async(
        &self,
        ctx: &ProcCtx,
        dst: Ea,
        src: Ea,
        len: usize,
    ) -> Result<(), MemError> {
        Step::Advance(self.ppe_copy(ctx, dst, src, len)?).await;
        Ok(())
    }

    /// The copy of a PPE `memcpy`, recorded for the race detector; returns
    /// the time it costs.
    fn ppe_copy(
        &self,
        ctx: &ProcCtx,
        dst: Ea,
        src: Ea,
        len: usize,
    ) -> Result<SimDuration, MemError> {
        let (from, to) = (self.resolve_span(src, len)?, self.resolve_span(dst, len)?);
        self.copy_span(to, from, len);
        if let Some(r) = self.rec() {
            let actor = ctx.name();
            let ts = ctx.now().as_nanos();
            if let Backing::LocalStore { spe, offset } = from {
                r.record_hb(
                    &actor,
                    ts,
                    HbOp::LsRead {
                        node: self.id,
                        spe,
                        start: offset as u32,
                        len: len as u32,
                    },
                );
            }
            if let Backing::LocalStore { spe, offset } = to {
                r.record_hb(
                    &actor,
                    ts,
                    HbOp::LsWrite {
                        node: self.id,
                        spe,
                        start: offset as u32,
                        len: len as u32,
                    },
                );
            }
        }
        let cost = self.costs.memcpy_us(len, self.ls_sides(src, dst));
        Ok(SimDuration::from_micros_f64(cost))
    }

    /// An SPU program load from its own local store, recorded as a
    /// [`HbOp::LsRead`] for the race detector (no cost: local-store
    /// accesses are ordinary loads): `f` reads the `len` bytes at `addr` in
    /// place, under the store's lock, so it must make no kernel call and
    /// not touch this store. Programs that move data with raw MFC DMA
    /// should touch their buffers through these accessors so the analysis
    /// sees the program side of the ordering.
    pub fn ls_read_traced<R>(
        &self,
        ctx: &ProcCtx,
        spe_index: usize,
        addr: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, LsError> {
        let out = self.spes[spe_index].ls.read_with(addr, len, f)?;
        self.record_ls(ctx, spe_index, addr, len, false);
        Ok(out)
    }

    /// An SPU program store into its own local store, recorded as a
    /// [`HbOp::LsWrite`] for the race detector: `f` fills the `len` bytes
    /// at `addr` in place, under the same rules as
    /// [`CellNode::ls_read_traced`].
    pub fn ls_write_traced<R>(
        &self,
        ctx: &ProcCtx,
        spe_index: usize,
        addr: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, LsError> {
        let out = self.spes[spe_index].ls.write_with(addr, len, f)?;
        self.record_ls(ctx, spe_index, addr, len, true);
        Ok(out)
    }

    /// Record an SPU program's local-store access, if recording is on.
    fn record_ls(&self, ctx: &ProcCtx, spe: usize, addr: usize, len: usize, write: bool) {
        if let Some(r) = self.rec() {
            let (node, start, len) = (self.id, addr as u32, len as u32);
            let op = if write {
                HbOp::LsWrite {
                    node,
                    spe,
                    start,
                    len,
                }
            } else {
                HbOp::LsRead {
                    node,
                    spe,
                    start,
                    len,
                }
            };
            r.record_hb(&ctx.name(), ctx.now().as_nanos(), op);
        }
    }

    // --- MFC DMA (issued from an SPE program) ---

    /// Issue an MFC DMA command on SPE `spe_index` under tag group `tag`.
    /// The data moves immediately; completion is observable via
    /// [`CellNode::dma_wait`] at the modelled completion time.
    #[allow(clippy::too_many_arguments)] // mirrors the mfc_get/put signature
    pub fn dma(
        &self,
        ctx: &ProcCtx,
        spe_index: usize,
        dir: DmaDir,
        tag: u32,
        ls_addr: usize,
        ea: Ea,
        len: usize,
    ) -> Result<(), DmaError> {
        let spe = self.spes.get(spe_index).ok_or(DmaError::BadTag(tag))?;
        validate(ls_addr, ea, len)?;
        // Issue cost: a handful of channel writes.
        ctx.advance(SimDuration::from_micros_f64(self.costs.spu_channel_op_us));
        if let Some(r) = self.rec() {
            r.record_hb(
                &ctx.name(),
                ctx.now().as_nanos(),
                HbOp::DmaIssue {
                    node: self.id,
                    spe: spe_index,
                    put: matches!(dir, DmaDir::Put),
                    tag,
                    ls_start: ls_addr as u32,
                    len: len as u32,
                },
            );
        }
        self.dma_copy(spe_index, dir, ls_addr, ea, len)?;
        let done = self.eib_completion(ctx, len, self.costs.dma_transfer_us(len));
        spe.tags.record(tag, done)
    }

    /// The data movement of one DMA transfer between SPE `spe_index`'s
    /// local store at `ls_addr` and effective address `ea`: both sides
    /// checked, source first, then copied backing to backing.
    fn dma_copy(
        &self,
        spe_index: usize,
        dir: DmaDir,
        ls_addr: usize,
        ea: Ea,
        len: usize,
    ) -> Result<(), DmaError> {
        let local = Backing::LocalStore {
            spe: spe_index,
            offset: ls_addr,
        };
        let check_local = || self.spes[spe_index].ls.check(ls_addr, len);
        match dir {
            DmaDir::Get => {
                let from = self.resolve_span(ea, len)?;
                check_local()?;
                self.copy_span(local, from, len);
            }
            DmaDir::Put => {
                check_local()?;
                self.copy_span(self.resolve_span(ea, len)?, local, len);
            }
        }
        Ok(())
    }

    /// Completion instant of a DMA moving `bytes`, serializing the payload
    /// portion on the EIB when contention modelling is enabled.
    fn eib_completion(&self, ctx: &ProcCtx, bytes: usize, total_us: f64) -> cp_des::SimTime {
        if !self.costs.eib_contention {
            return ctx.now() + SimDuration::from_micros_f64(total_us);
        }
        let payload = SimDuration::from_micros_f64(bytes as f64 / self.costs.eib_bytes_per_us);
        let setup = SimDuration::from_micros_f64(total_us).saturating_sub(payload);
        let mut busy = self.eib_busy_until.lock();
        let start = ctx.now().max(*busy);
        let done = start + payload;
        *busy = done;
        done + setup
    }

    /// `mfc_write_tag_mask` + `mfc_read_tag_status_all`: wait for every
    /// command in the masked tag groups of SPE `spe_index`.
    pub fn dma_wait(&self, ctx: &ProcCtx, spe_index: usize, mask: u32) {
        self.spes[spe_index].tags.wait_all(ctx, mask);
        if let Some(r) = self.rec() {
            r.record_hb(
                &ctx.name(),
                ctx.now().as_nanos(),
                HbOp::DmaWait {
                    node: self.id,
                    spe: spe_index,
                    mask,
                },
            );
        }
    }

    /// Issue an MFC DMA-list command (`mfc_getl`/`mfc_putl`): gather from /
    /// scatter to the scattered effective-address elements of `list`,
    /// against one contiguous local-store region starting at `ls_addr`.
    /// Each element obeys the single-transfer rules; the list as a whole
    /// completes under one tag with a single setup cost plus a small
    /// per-element charge (the MFC walks the list autonomously).
    pub fn dma_list(
        &self,
        ctx: &ProcCtx,
        spe_index: usize,
        dir: DmaDir,
        tag: u32,
        ls_addr: usize,
        list: &[crate::mfc::DmaListElem],
    ) -> Result<(), DmaError> {
        let spe = self.spes.get(spe_index).ok_or(DmaError::BadTag(tag))?;
        if list.is_empty() || list.len() > crate::mfc::MFC_LIST_MAX {
            return Err(DmaError::BadListLength(list.len()));
        }
        let mut cursor = ls_addr;
        for e in list {
            validate(cursor, e.ea, e.size)?;
            cursor += e.size;
        }
        ctx.advance(SimDuration::from_micros_f64(self.costs.spu_channel_op_us));
        if let Some(r) = self.rec() {
            // One record for the whole list: it lands in one contiguous
            // local-store span under one tag.
            let total: usize = list.iter().map(|e| e.size).sum();
            r.record_hb(
                &ctx.name(),
                ctx.now().as_nanos(),
                HbOp::DmaIssue {
                    node: self.id,
                    spe: spe_index,
                    put: matches!(dir, DmaDir::Put),
                    tag,
                    ls_start: ls_addr as u32,
                    len: total as u32,
                },
            );
        }
        let mut cursor = ls_addr;
        let mut total = 0usize;
        for e in list {
            self.dma_copy(spe_index, dir, cursor, e.ea, e.size)?;
            cursor += e.size;
            total += e.size;
        }
        let us =
            self.costs.dma_transfer_us(total) + list.len() as f64 * self.costs.dma_list_elem_us;
        let done = self.eib_completion(ctx, total, us);
        spe.tags.record(tag, done)
    }

    // --- SPE program control ---

    /// Load a program of `image_bytes` onto SPE `spe_index` and run `body`
    /// as a new simulated process (the libspe2 pattern: a PPE pthread loads
    /// the context and the SPE runs asynchronously). Returns the process id
    /// to `join` on. The local store keeps `image_bytes` reserved until the
    /// program finishes.
    pub fn start_spe<F>(
        self: &Arc<Self>,
        ctx: &ProcCtx,
        spe_index: usize,
        name: &str,
        image_bytes: usize,
        body: F,
    ) -> Result<Pid, SpeRunError>
    where
        F: FnOnce(&ProcCtx) + Send + 'static,
    {
        let spe = self
            .spes
            .get(spe_index)
            .ok_or(SpeRunError::NoSuchSpe(spe_index))?
            .clone();
        {
            let mut busy = spe.busy.lock();
            if let Some(running) = busy.as_ref() {
                return Err(SpeRunError::Busy {
                    spe: spe_index,
                    running: running.clone(),
                });
            }
            *busy = Some(name.to_string());
        }
        if spe.ls.reserve_image(image_bytes).is_err() {
            *spe.busy.lock() = None;
            return Err(SpeRunError::ImageTooLarge {
                spe: spe_index,
                bytes: image_bytes,
            });
        }
        let load_us = self.costs.spe_load_us(image_bytes);
        let label = format!("node{}.spe{}:{}", self.id, spe_index, name);
        let pid = ctx.spawn(&label, move |sctx| {
            sctx.advance(SimDuration::from_micros_f64(load_us));
            body(sctx);
            spe.ls.release_image();
            *spe.busy.lock() = None;
        });
        Ok(pid)
    }

    /// Whether SPE `spe_index` currently runs a program.
    pub fn spe_busy(&self, spe_index: usize) -> bool {
        self.spes[spe_index].busy.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_des::Simulation;

    fn node() -> Arc<CellNode> {
        CellNode::new(0, 8, 1 << 20, CellCosts::default())
    }

    #[test]
    fn ea_roundtrip_through_ls_mapping() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("ppe", move |_ctx| {
            let ea = n2.ls_effective_address(2, 0x80);
            n2.ea_write(ea, &[7, 8, 9]).unwrap();
            assert_eq!(n2.spes[2].ls.read(0x80, 3).unwrap(), vec![7, 8, 9]);
            assert_eq!(n2.ea_read(ea, 3).unwrap(), vec![7, 8, 9]);
        });
        sim.run().unwrap();
    }

    /// A node whose main memory and SPE 0 and 1 local stores hold distinct
    /// byte patterns (SPE 1's only up to 4 KiB: past it, it reads zero).
    fn seeded_node() -> Arc<CellNode> {
        let n = node();
        let pattern: Vec<u8> = (0..8192u32).map(|i| (i * 7 + 3) as u8).collect();
        n.mem.write(0x1000, &pattern).unwrap();
        n.spes[0].ls.write(0, &pattern).unwrap();
        let reversed: Vec<u8> = pattern[..4096].iter().rev().copied().collect();
        n.spes[1].ls.write(0, &reversed).unwrap();
        n
    }

    #[test]
    fn backing_to_backing_copy_matches_read_then_write() {
        let cases = [
            ("LS to LS across SPEs", ls_ea(1, 256), ls_ea(0, 0), 1024),
            (
                "LS to LS, lower SPE written",
                ls_ea(0, 512),
                ls_ea(1, 3584),
                1024,
            ),
            (
                "overlapping, within one SPE",
                ls_ea(0, 16),
                ls_ea(0, 0),
                2048,
            ),
            ("overlapping backwards", ls_ea(0, 0), ls_ea(0, 16), 2048),
            ("LS to main memory", Ea(0x1100), ls_ea(1, 32), 512),
            ("main memory to LS", ls_ea(1, 4000), Ea(0x1000), 3000),
            (
                "overlapping, within main memory",
                Ea(0x1010),
                Ea(0x1000),
                4096,
            ),
        ];
        for (what, dst, src, len) in cases {
            let (copied, reference) = (seeded_node(), seeded_node());
            let from = copied.resolve_span(src, len).unwrap();
            let to = copied.resolve_span(dst, len).unwrap();
            copied.copy_span(to, from, len);
            let bytes = reference.ea_read(src, len).unwrap();
            reference.ea_write(dst, &bytes).unwrap();
            for n in [&copied, &reference] {
                assert_eq!(n.ea_read(dst, len).unwrap(), bytes, "{what}");
            }
            let contents = |n: &CellNode| {
                let mem = n.mem.read(0x1000, 16384).unwrap();
                let ls = |spe: usize| n.spes[spe].ls.read(0, 16384).unwrap();
                (mem, ls(0), ls(1))
            };
            assert_eq!(contents(&copied), contents(&reference), "{what}");
        }
    }

    #[test]
    fn memcpy_cost_depends_on_ls_sides() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("ppe", move |ctx| {
            let m1 = n2.mem.alloc(1600, 16).unwrap();
            let m2 = n2.mem.alloc(1600, 16).unwrap();
            let l1 = n2.ls_effective_address(0, 0);
            let l2 = n2.ls_effective_address(1, 0);
            let t0 = ctx.now();
            n2.ppe_memcpy(ctx, m2, m1, 1600).unwrap();
            let main_cost = (ctx.now() - t0).as_micros_f64();
            let t1 = ctx.now();
            n2.ppe_memcpy(ctx, l1, m1, 1600).unwrap();
            let one_ls = (ctx.now() - t1).as_micros_f64();
            let t2 = ctx.now();
            n2.ppe_memcpy(ctx, l2, l1, 1600).unwrap();
            let two_ls = (ctx.now() - t2).as_micros_f64();
            assert!(main_cost < one_ls && one_ls < two_ls);
            // Calibration anchors from Table II copy baselines.
            assert!((one_ls - 15.0).abs() < 0.5, "one_ls={one_ls}");
            assert!((two_ls - 30.0).abs() < 1.0, "two_ls={two_ls}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn dma_moves_data_and_completes_later() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            let buf = n2.mem.alloc(64, 16).unwrap();
            n2.mem.write(buf.0 as usize, &[5; 64]).unwrap();
            let ls = n2.spes[0].ls.alloc(64, 16).unwrap();
            n2.dma(ctx, 0, DmaDir::Get, 5, ls, buf, 64).unwrap();
            n2.dma_wait(ctx, 0, 1 << 5);
            assert_eq!(n2.spes[0].ls.read(ls, 64).unwrap(), vec![5; 64]);
            // dma_setup dominates: ~2us
            assert!(ctx.now().as_micros_f64() >= 2.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dma_list_gathers_scattered_regions() {
        use crate::mfc::DmaListElem;
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            // Three scattered main-memory chunks.
            let mut elems = Vec::new();
            for k in 0..3u8 {
                let ea = n2.mem.alloc(32, 16).unwrap();
                n2.mem.write(ea.0 as usize, &[k + 1; 32]).unwrap();
                elems.push(DmaListElem { ea, size: 32 });
            }
            let ls = n2.spes[0].ls.alloc(96, 16).unwrap();
            n2.dma_list(ctx, 0, DmaDir::Get, 7, ls, &elems).unwrap();
            n2.dma_wait(ctx, 0, 1 << 7);
            let got = n2.spes[0].ls.read(ls, 96).unwrap();
            assert_eq!(&got[..32], &[1u8; 32]);
            assert_eq!(&got[32..64], &[2u8; 32]);
            assert_eq!(&got[64..], &[3u8; 32]);
            // Scatter it back doubled.
            n2.spes[0].ls.write(ls, &[9u8; 96]).unwrap();
            n2.dma_list(ctx, 0, DmaDir::Put, 8, ls, &elems).unwrap();
            n2.dma_wait(ctx, 0, 1 << 8);
            assert_eq!(
                n2.mem.read(elems[2].ea.0 as usize, 32).unwrap(),
                vec![9u8; 32]
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn dma_list_rejects_bad_lists() {
        use crate::mfc::DmaListElem;
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            assert!(matches!(
                n2.dma_list(ctx, 0, DmaDir::Get, 0, 0, &[]),
                Err(DmaError::BadListLength(0))
            ));
            let ea = n2.mem.alloc(64, 16).unwrap();
            // Second element lands at a misaligned LS cursor.
            let bad = [DmaListElem { ea, size: 8 }, DmaListElem { ea, size: 32 }];
            assert!(matches!(
                n2.dma_list(ctx, 0, DmaDir::Get, 0, 0, &bad),
                Err(DmaError::Misaligned { .. })
            ));
        });
        sim.run().unwrap();
    }

    #[test]
    fn eib_contention_serializes_big_concurrent_dmas() {
        let costs = CellCosts {
            eib_contention: true,
            ..CellCosts::default()
        };
        let n = CellNode::new(0, 8, 1 << 20, costs);
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            let bytes = 16 * 1024; // 0.64us of ring payload each
            let buf = n2.mem.alloc(bytes, 16).unwrap();
            // Issue 8 back-to-back transfers under different tags, then
            // wait for the last: its completion must reflect serialized
            // payload (8 * bytes / bw), not one transfer's worth.
            for k in 0..8u32 {
                let ls = n2.spes[0].ls.alloc(bytes, 16).unwrap();
                n2.dma(ctx, 0, DmaDir::Get, k, ls, buf, bytes).unwrap();
            }
            n2.dma_wait(ctx, 0, 0xFF);
            let payload_us = 8.0 * bytes as f64 / n2.costs.eib_bytes_per_us;
            let now = ctx.now().as_micros_f64();
            assert!(
                now >= payload_us,
                "serialized payload {payload_us:.2}us, finished at {now:.2}us"
            );
        });
        sim.run().unwrap();
    }

    #[test]
    fn no_contention_dmas_overlap() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            let bytes = 16 * 1024;
            let buf = n2.mem.alloc(bytes, 16).unwrap();
            for k in 0..8u32 {
                let ls = n2.spes[0].ls.alloc(bytes, 16).unwrap();
                n2.dma(ctx, 0, DmaDir::Get, k, ls, buf, bytes).unwrap();
            }
            n2.dma_wait(ctx, 0, 0xFF);
            // All 8 overlap: the wait costs roughly one transfer.
            assert!(ctx.now().as_micros_f64() < 2.0 * n2.costs.dma_transfer_us(bytes) + 1.0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dma_rejects_misalignment() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            let buf = n2.mem.alloc(64, 16).unwrap();
            let err = n2.dma(ctx, 0, DmaDir::Get, 0, 3, buf, 32);
            assert!(matches!(err, Err(DmaError::Misaligned { .. })));
        });
        sim.run().unwrap();
    }

    #[test]
    fn spe_exclusive_occupancy() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("ppe", move |ctx| {
            let pid = n2
                .start_spe(ctx, 0, "worker", 10_000, |sctx| {
                    sctx.advance(SimDuration::from_micros(500));
                })
                .unwrap();
            ctx.yield_now();
            assert!(n2.spe_busy(0));
            match n2.start_spe(ctx, 0, "other", 10_000, |_| {}) {
                Err(SpeRunError::Busy { spe: 0, .. }) => {}
                other => panic!("expected Busy, got {other:?}"),
            }
            ctx.join(pid);
            assert!(!n2.spe_busy(0));
            // Reusable after completion.
            let pid2 = n2.start_spe(ctx, 0, "again", 10_000, |_| {}).unwrap();
            ctx.join(pid2);
        });
        sim.run().unwrap();
    }

    #[test]
    fn spe_load_charges_time_and_reserves_ls() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("ppe", move |ctx| {
            let n3 = n2.clone();
            let pid = n2
                .start_spe(ctx, 1, "p", 10_336, move |sctx| {
                    assert_eq!(n3.spes[1].ls.reserved_bytes(), 10_336);
                    assert!(sctx.now().as_micros_f64() >= 150.0, "load cost charged");
                })
                .unwrap();
            ctx.join(pid);
            assert_eq!(n2.spes[1].ls.reserved_bytes(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn hb_recorder_sees_dma_issue_and_wait() {
        use cp_trace::{HbOp, Recorder};
        let n = node();
        let rec = Recorder::enabled();
        n.set_recorder(rec.clone());
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("spu", move |ctx| {
            let buf = n2.mem.alloc(64, 16).unwrap();
            let ls = n2.spes[0].ls.alloc(64, 16).unwrap();
            n2.dma(ctx, 0, DmaDir::Get, 3, ls, buf, 64).unwrap();
            n2.dma_wait(ctx, 0, 1 << 3);
            n2.ls_write_traced(ctx, 0, ls, 8, |to| to.fill(1)).unwrap();
            let read = n2.ls_read_traced(ctx, 0, ls, 8, <[u8]>::to_vec).unwrap();
            assert_eq!(read, vec![1; 8]);
        });
        sim.run().unwrap();
        let hb = rec.hb_events();
        assert_eq!(hb.len(), 4, "{hb:?}");
        assert!(
            matches!(
                hb[0].op,
                HbOp::DmaIssue {
                    put: false,
                    tag: 3,
                    len: 64,
                    ..
                }
            ),
            "{:?}",
            hb[0]
        );
        assert!(matches!(hb[1].op, HbOp::DmaWait { mask, .. } if mask == 1 << 3));
        assert!(matches!(hb[2].op, HbOp::LsWrite { len: 8, .. }));
        assert!(matches!(hb[3].op, HbOp::LsRead { len: 8, .. }));
        assert_eq!(hb[0].actor, "spu");
    }

    #[test]
    fn hb_recording_never_consumes_virtual_time() {
        use cp_trace::Recorder;
        let run = |rec: Option<Recorder>| {
            let n = node();
            if let Some(r) = rec {
                n.set_recorder(r);
            }
            let mut sim = Simulation::new();
            let n2 = n.clone();
            sim.spawn("spu", move |ctx| {
                let buf = n2.mem.alloc(128, 16).unwrap();
                let ls = n2.spes[0].ls.alloc(128, 16).unwrap();
                n2.dma(ctx, 0, DmaDir::Get, 0, ls, buf, 128).unwrap();
                n2.dma_wait(ctx, 0, 1);
                n2.dma(ctx, 0, DmaDir::Put, 1, ls, buf, 128).unwrap();
                n2.dma_wait(ctx, 0, 2);
            });
            sim.run().unwrap().end_time
        };
        assert_eq!(run(None), run(Some(Recorder::enabled())));
    }

    #[test]
    fn image_too_large_is_rejected_and_spe_freed() {
        let n = node();
        let mut sim = Simulation::new();
        let n2 = n.clone();
        sim.spawn("ppe", move |ctx| {
            match n2.start_spe(ctx, 0, "huge", 300 * 1024, |_| {}) {
                Err(SpeRunError::ImageTooLarge { .. }) => {}
                other => panic!("expected ImageTooLarge, got {other:?}"),
            }
            assert!(!n2.spe_busy(0));
        });
        sim.run().unwrap();
    }
}
