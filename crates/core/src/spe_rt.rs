//! The SPE-resident CellPilot runtime: the tiny library an SPE program
//! links against (10 336 bytes of local store in the paper).
//!
//! The design principle the paper emphasizes — "the bulk of SPE messaging
//! logic has been off-loaded onto the Co-Pilot PPE process, thereby
//! conserving scarce SPE memory" — shows in how little happens here: a
//! write packs the message into a local-store buffer and posts a one-word
//! request; a read posts a request and unpacks whatever the Co-Pilot
//! deposits. All routing, MPI and pairing lives on the PPE side.

use crate::error::CpError;
use crate::location::{ChannelMode, CpChannel, CpProcess};
use crate::protocol::{
    completion_is_inline, decode_completion, CompletionError, Request, EAGER_INLINE_MAX, OP_POLL,
    OP_READ, OP_WRITE, OP_WRITE_INLINE, REQ_BLOCK_BYTES,
};
use crate::runtime::{doorbell_look, look_before_landing, AppShared, POLL};
use crate::tables::CoEvent;
use cp_cellsim::LsAddr;
use cp_des::{IncidentCategory, ProcCtx, SimDuration, Step};
use cp_pilot::{
    check_write,
    fmt::{parse_format, Conversion, CountSpec},
    pack_message, pack_message_into, packed_len, unpack_checked,
    value::payload_bytes,
    PiScalar, PiValue, PilotError,
};
use cp_simnet::{NodeId, ParkedReader};
use cp_trace::{Measure, Op};
use std::sync::Arc;

/// Unwind payload used to retire an SPE process killed by a scripted
/// [`cp_simnet::FaultPlan`] crash. `run_spe` catches it, runs the normal
/// teardown (local-store free, hardware-SPE release), and — under a
/// [`crate::SupervisionPolicy`] — restarts the work function in place;
/// otherwise the simulated process retires cleanly so only channels
/// touching the dead SPE fail.
pub(crate) struct SpeCrashUnwind;

/// One acknowledged channel operation of a supervised SPE process. The
/// Co-Pilot-side effects already happened, so a restarted attempt must not
/// re-issue it: the per-process journal is the lightweight checkpoint
/// cursor supervision restarts from. On restart the runtime replays
/// entries in order — writes become no-ops, reads re-yield the recorded
/// bytes, polls re-yield the recorded answer — then resumes live.
#[derive(Debug, Clone)]
pub(crate) enum JournalEntry {
    /// A completed write on the channel.
    Write { chan: usize },
    /// A completed read on the channel, with the delivered message bytes.
    Read { chan: usize, bytes: Vec<u8> },
    /// A completed `channel_has_data` poll on the channel and its answer.
    Poll { chan: usize, has: bool },
}

/// The context handed to an SPE program entry (what the `__ea`-decorated
/// globals and `PI_SPE_PROCESS` machinery give SPE code in C).
pub struct SpeCtx {
    ctx: ProcCtx,
    shared: Arc<AppShared>,
    me: CpProcess,
    node: NodeId,
    hw: usize,
    req_block: LsAddr,
    /// Replay cursor into this process's supervision journal: positions
    /// before it were acknowledged by an earlier (crashed) attempt.
    cursor: std::cell::Cell<usize>,
}

impl SpeCtx {
    pub(crate) fn new(
        ctx: ProcCtx,
        shared: Arc<AppShared>,
        me: CpProcess,
        node: NodeId,
        hw: usize,
    ) -> SpeCtx {
        let cell = &shared.node_shared[&node].cell;
        // Processes on an eager channel stage inline payloads directly
        // behind the request-block header, so their block is one inline
        // window larger. Everyone else keeps the classic 16-byte block —
        // local-store layout (and with it every golden trace) is untouched
        // unless eager inlining was asked for.
        let touches_eager = shared.tables.channels.iter().enumerate().any(|(c, e)| {
            let ends = shared.tables.ends(c);
            e.eager.is_some() && (ends.from == me.0 || ends.to == me.0)
        });
        let block_len = REQ_BLOCK_BYTES + if touches_eager { EAGER_INLINE_MAX } else { 0 };
        let req_block = cell.spes[hw]
            .ls
            .alloc(block_len, 16)
            .expect("room for the request block");
        // Register this process's one-sided windows (it is the reader of
        // those channels): allocate the landing region in the local store
        // and publish it in the cluster-wide window table. The physical
        // SPE is only known now, which is why registration happens at
        // launch rather than configure time. A crash-restart finds its
        // windows already registered and reuses them — landed-but-untaken
        // data survives the restart, and window regions are deliberately
        // never freed at teardown for the same reason.
        for (c, e) in shared.tables.channels.iter().enumerate() {
            if e.mode != ChannelMode::OneSided || shared.tables.ends(c).to != me.0 {
                continue;
            }
            if shared.fabric.window(c as u32).is_some() {
                continue;
            }
            let len = e
                .window
                .map(|(_, l)| l as usize)
                .unwrap_or(shared.costs.spe_read_buffer);
            let start = cell.spes[hw]
                .ls
                .alloc(len, 16)
                .expect("room for the one-sided window");
            shared
                .fabric
                .register(cp_simnet::WindowDesc {
                    chan: c as u32,
                    node: node.0,
                    spe: hw,
                    start: start as u32,
                    len: len as u32,
                    owner_rank: shared.copilot_rank(node),
                })
                .expect("allocator-placed windows cannot overlap");
        }
        SpeCtx {
            ctx,
            shared,
            me,
            node,
            hw,
            req_block,
            cursor: std::cell::Cell::new(0),
        }
    }

    pub(crate) fn teardown(&self) {
        let cell = &self.shared.node_shared[&self.node].cell;
        let _ = cell.spes[self.hw].ls.free(self.req_block);
    }

    /// This SPE process's handle.
    pub fn process(&self) -> CpProcess {
        self.me
    }

    /// This process's configured name.
    pub fn name(&self) -> String {
        self.proc_name().to_string()
    }

    /// This process's configured name, borrowed from the tables.
    fn proc_name(&self) -> &Arc<str> {
        self.shared.tables.name(self.me.0)
    }

    /// The Cell node hosting this SPE.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The index this process was configured with at `PI_CreateSPE` time
    /// (distinct from the `PI_RunSPE` arguments, which arrive as the entry
    /// function's parameters).
    pub fn index(&self) -> i32 {
        self.shared.tables.processes[self.me.0].index
    }

    /// The hardware SPE index this process was placed on.
    pub fn hw_spe(&self) -> usize {
        self.hw
    }

    /// The simulated-process context (for modelling compute time).
    pub fn ctx(&self) -> &ProcCtx {
        &self.ctx
    }

    pub(crate) fn shared_tables(&self) -> Arc<crate::tables::CpTables> {
        self.shared.tables.clone()
    }

    /// Free local-store bytes (after the program image and the resident
    /// runtime).
    pub fn local_store_free(&self) -> usize {
        self.shared.node_shared[&self.node].cell.spes[self.hw]
            .ls
            .free_bytes()
    }

    /// Create a code-overlay window in this SPE's local store (the
    /// capability the paper points at for programs whose code exceeds
    /// 256 KB: "an overlay capability is available"). Segment swaps charge
    /// DMA time; see [`cp_cellsim::OverlayRegion`].
    pub fn create_overlay(
        &self,
        window_len: usize,
        segments: Vec<cp_cellsim::OverlaySegment>,
    ) -> Result<cp_cellsim::OverlayRegion, CpError> {
        cp_cellsim::OverlayRegion::new(
            self.shared.node_shared[&self.node].cell.clone(),
            self.hw,
            window_len,
            segments,
        )
        .map_err(|e| match e {
            cp_cellsim::OverlayError::Ls(ls) => CpError::LocalStore(ls),
            other => CpError::SpeRun(cp_cellsim::SpeRunError::ImageTooLarge {
                spe: self.hw,
                bytes: match other {
                    cp_cellsim::OverlayError::SegmentTooLarge { bytes, .. } => bytes,
                    _ => 0,
                },
            }),
        })
    }

    fn charge(&self, bytes: usize) {
        let us = self.shared.costs.spu_op_us + bytes as f64 * self.shared.costs.spu_per_byte_us;
        self.ctx.advance(SimDuration::from_micros_f64(us));
    }

    /// Crash checkpoint at each channel-op entry point: a scripted SPE
    /// crash fires at the first communication attempt at or after its
    /// scheduled time (the fault model's stand-in for an SPE image dying
    /// mid-kernel). Each scheduled crash fires exactly once — consumed via
    /// [`cp_simnet::FaultPlan::take_spe_crash`] — so a supervised restart
    /// is not instantly re-killed by the same entry, while stacking
    /// entries deterministically exhausts a restart budget. The crash is
    /// logged as an `spe-crash` incident and the attempt unwinds through
    /// [`SpeCrashUnwind`].
    fn crash_checkpoint(&self) {
        if let Some(at) = self.shared.faults.take_spe_crash(self.me.0, self.ctx.now()) {
            self.ctx.report_incident(
                IncidentCategory::SpeCrash,
                &format!("SPE process '{}' crashed (scheduled at {at})", self.name()),
            );
            std::panic::resume_unwind(Box::new(SpeCrashUnwind));
        }
    }

    /// Supervised-restart replay: if this process's journal still has an
    /// entry at the cursor, the op being attempted was already
    /// acknowledged before the last crash — consume and return the entry
    /// instead of re-issuing the operation to the Co-Pilot.
    fn replay_next(&self) -> Option<JournalEntry> {
        self.shared.supervision?;
        let journals = self.shared.journals.lock();
        let entry = journals.get(&self.me.0)?.get(self.cursor.get())?.clone();
        self.cursor.set(self.cursor.get() + 1);
        Some(entry)
    }

    /// Record an acknowledged op (supervision only) and keep the cursor at
    /// the journal's end so live operation continues.
    fn journal(&self, entry: JournalEntry) {
        if self.shared.supervision.is_none() {
            return;
        }
        let mut journals = self.shared.journals.lock();
        let j = journals.entry(self.me.0).or_default();
        j.push(entry);
        self.cursor.set(j.len());
    }

    /// A journal entry that does not match the op the restarted program is
    /// attempting means the work function is not deterministic — replay
    /// cannot be trusted, so abort loudly rather than corrupt the run.
    fn replay_diverged(&self, got: &JournalEntry, attempting: &str) -> ! {
        self.ctx.abort(&format!(
            "supervised replay diverged in SPE process '{}': journal has {got:?} \
             but the restarted program issued {attempting}",
            self.name()
        ));
    }

    /// Post `req` (with an eager write's `inline` payload staged right
    /// behind it) and wait for the Co-Pilot's completion word. Returns the
    /// byte count and whether the completion's payload rode the word
    /// inline.
    ///
    /// The Co-Pilot polls the SPE's outbound mailbox, and once the word is
    /// there reads it (an MMIO access) and fetches the block through the
    /// problem-state mapping. When the word is written, the instant that
    /// poll succeeds is already known, so no process stands polling: the
    /// SPE's own wait rings the request onto the node's event queue at
    /// exactly that instant, then waits for its inbound mailbox. The fetch
    /// of the block's last part is a step of its own, so the push is made
    /// at the instant, and in the same-instant order, that a polling
    /// process would have made it.
    fn transact(&self, req: Request, inline: Option<Vec<u8>>) -> Result<(usize, bool), CpError> {
        let ns = self.shared.node_shared[&self.node].clone();
        let (cell, hw) = (&ns.cell, self.hw);
        let ls = &cell.spes[hw].ls;
        ls.write(self.req_block, &req.encode())?;
        if let Some(payload) = &inline {
            ls.write(self.req_block + REQ_BLOCK_BYTES, payload)?;
        }
        let costs = &cell.costs;
        let us = SimDuration::from_micros_f64;
        let fetch = |n: usize| us(costs.memcpy_us(n, 1));
        let polled =
            us(costs.spu_channel_op_us) + us(costs.mailbox_latency_us) + us(costs.ppe_mmio_op_us);
        // An eager write's payload comes in the same mapped read as the
        // header, charged for its extra bytes only.
        let (fetched, last) = match &inline {
            Some(payload) => (polled + fetch(REQ_BLOCK_BYTES), fetch(payload.len())),
            None => (polled, fetch(REQ_BLOCK_BYTES)),
        };
        let ctx = self.ctx.clone();
        let word = self.ctx.drive(async move {
            Step::Advance(fetched).await;
            Step::Advance(last).await;
            ns.note_queue_push(&ctx);
            let event = CoEvent::Request { hw, req, inline };
            ns.queue.push(&ctx, event, SimDuration::ZERO);
            let cell = &ns.cell;
            cell.spes[hw]
                .mbox
                .spu_read_inbox_async(&ctx, &cell.costs)
                .await
        });
        let chan = req.chan as usize;
        match decode_completion(word) {
            Ok(n) => Ok((n, completion_is_inline(word))),
            Err(CompletionError::Overflow) => Err(CpError::SpeBufferOverflow {
                channel: chan,
                capacity: req.len as usize,
            }),
            Err(CompletionError::PeerLost) => {
                let tables = &self.shared.tables;
                let peer = tables
                    .decls
                    .channel(chan)
                    .map(|e| tables.name(e.from).to_string())
                    .unwrap_or_else(|_| "<unknown>".to_string());
                Err(PilotError::PeerLost {
                    channel: chan,
                    peer,
                }
                .into())
            }
            Err(CompletionError::Internal) => {
                panic!("Co-Pilot reported an internal protocol error")
            }
        }
    }

    /// `PI_Write` from an SPE process: pack into local store, hand the
    /// buffer to the Co-Pilot, wait for completion.
    pub fn write(&self, chan: CpChannel, format: &str, values: &[PiValue]) -> Result<(), CpError> {
        self.crash_checkpoint();
        let (ends, entry) = self.shared.tables.channel(chan.0)?;
        PilotError::check_writer(
            ends.from == self.me.0,
            chan.0,
            self.proc_name(),
            self.shared.tables.name(ends.from),
        )?;
        if let Some(done) = self.replay_next() {
            match done {
                JournalEntry::Write { chan: c } if c == chan.0 => return Ok(()),
                other => self.replay_diverged(&other, &format!("write on channel {}", chan.0)),
            }
        }
        check_write(format, values)?;
        let (len, payload) = (packed_len(values), payload_bytes(values));
        let t0 = self.ctx.now();
        // Flow control: consume a send credit before the message enters
        // the pipeline (a replayed write above skipped this — its credit
        // was consumed by the acknowledged original).
        self.shared
            .acquire_credit(&self.ctx, self.proc_name(), chan.0)?;
        self.charge(payload);
        let cell = &self.shared.node_shared[&self.node].cell;
        let ls = &cell.spes[self.hw].ls;
        let one_sided = self.shared.one_sided_chan(chan.0);
        let eager_inline = entry.eager_limit() > 0 && len <= entry.eager_limit();
        let result = if eager_inline && !one_sided {
            // Eager fast path: the payload rides the request block itself,
            // so there is no staging buffer, no address translation, and no
            // DMA read-back on the Co-Pilot side. Relay errors need no
            // unwind (the Co-Pilot drain point returns the credit).
            let req = Request {
                op: OP_WRITE_INLINE,
                chan: chan.0 as u32,
                addr: 0,
                len: len as u32,
            };
            self.transact(req, Some(pack_message(values)))
                .map(|(n, _)| n)
        } else {
            let buf = match ls.alloc(len.max(1), 16) {
                Ok(buf) => buf,
                Err(e) => {
                    // Staging failed before the message entered the pipeline:
                    // unwind the credit.
                    self.shared.release_credit(chan.0);
                    return Err(e.into());
                }
            };
            // Pack straight into the staging buffer.
            let staged = cell.ls_write_traced(&self.ctx, self.hw, buf, len, |to| {
                pack_message_into(values, to)
            });
            if let Err(e) = staged {
                let _ = ls.free(buf);
                self.shared.release_credit(chan.0);
                return Err(e.into());
            }
            let result = if one_sided {
                // One-sided channel: the SPE issues the MFC put itself and the
                // staged buffer lands straight in the reader's local-store
                // window — no Co-Pilot proxying, no relay leg. Only the DMA
                // issue is charged locally; the fabric hop is charged inside
                // the put. An eager-qualified small put skips even the DMA
                // setup: it rides the doorbell update.
                let setup =
                    (!eager_inline).then(|| SimDuration::from_micros_f64(cell.costs.dma_setup_us));
                let who = self.proc_name();
                let data = ls.read(buf, len).expect("staged buffer within the store");
                self.shared
                    .one_sided_put(&self.ctx, who, chan.0, self.node, data, setup)
                    .map_err(|cap| {
                        // The put never landed: unwind the credit.
                        self.shared.release_credit(chan.0);
                        CpError::SpeBufferOverflow {
                            channel: chan.0,
                            capacity: cap as usize,
                        }
                    })
            } else {
                // Relay errors need no unwind here: a write the Co-Pilot
                // failed (e.g. a type-4 overflow) was still drained by it, and
                // the drain point already returned the credit.
                let req = Request {
                    op: OP_WRITE,
                    chan: chan.0 as u32,
                    addr: buf as u32,
                    len: len as u32,
                };
                self.transact(req, None).map(|(n, _)| n)
            };
            let _ = ls.free(buf);
            result
        };
        if result.is_ok() {
            self.journal(JournalEntry::Write { chan: chan.0 });
            self.shared.recorder.record_op(
                self.ctx.now().0,
                self.proc_name(),
                Some(Op::SpeWrite),
                chan.0,
                len,
                Some(entry.kind.measure(true, payload, t0)),
            );
        }
        result.map(|_| ())
    }

    /// `PI_Read` from an SPE process. For formats with only fixed counts
    /// the local-store buffer is sized exactly; a `%*` format falls back to
    /// the configured read-buffer limit (the C API's explicit capacity
    /// argument), and an over-long message aborts with a diagnostic.
    pub fn read(&self, chan: CpChannel, format: &str) -> Result<Vec<PiValue>, CpError> {
        self.read_with_limit(chan, format, self.shared.costs.spe_read_buffer)
    }

    /// [`SpeCtx::read`] with an explicit capacity for `%*` formats.
    pub fn read_with_limit(
        &self,
        chan: CpChannel,
        format: &str,
        limit: usize,
    ) -> Result<Vec<PiValue>, CpError> {
        self.crash_checkpoint();
        let (ends, entry) = self.shared.tables.channel(chan.0)?;
        PilotError::check_reader(
            ends.to == self.me.0,
            chan.0,
            self.proc_name(),
            self.shared.tables.name(ends.to),
        )?;
        let conv = parse_format(format)?;
        if let Some(done) = self.replay_next() {
            match done {
                JournalEntry::Read { chan: c, bytes } if c == chan.0 => {
                    return Ok(unpack_checked(chan.0, &conv, &bytes)?);
                }
                other => self.replay_diverged(&other, &format!("read on channel {}", chan.0)),
            }
        }
        let cap = exact_packed_size(&conv).unwrap_or(limit);
        let t0 = self.ctx.now();
        self.charge(0);
        let cell = &self.shared.node_shared[&self.node].cell;
        let ls = &cell.spes[self.hw].ls;
        let buf = ls.alloc(cap.max(1), 16)?;
        let got = if self.shared.one_sided_chan(chan.0) {
            self.one_sided_recv(chan.0, buf, cap)
        } else {
            let req = Request {
                op: OP_READ,
                chan: chan.0 as u32,
                addr: buf as u32,
                len: cap as u32,
            };
            self.transact(req, None).and_then(|(n, inline)| {
                if inline {
                    // The payload rode the completion word: pop it from
                    // the mailbox side-queue into the posted buffer (a
                    // plain local store, already paid for by the
                    // Co-Pilot's store-gather burst).
                    let payload = cell.spes[self.hw]
                        .mbox
                        .spu_take_inline()
                        .expect("inline completion carries a staged payload");
                    debug_assert_eq!(payload.len(), n);
                    ls.write(buf, &payload)?;
                }
                Ok(n)
            })
        };
        let result = got.and_then(|n| {
            // Unpack straight out of the buffer; a copy of the bytes only
            // for the supervision journal.
            let journaled = self.shared.supervision.is_some();
            let (values, bytes) = cell.ls_read_traced(&self.ctx, self.hw, buf, n, |raw| {
                let values = unpack_checked(chan.0, &conv, raw)?;
                Ok::<_, PilotError>((values, journaled.then(|| raw.to_vec())))
            })??;
            self.charge(payload_bytes(&values));
            if let Some(bytes) = bytes {
                self.journal(JournalEntry::Read {
                    chan: chan.0,
                    bytes,
                });
            }
            self.shared.recorder.record_op(
                self.ctx.now().0,
                self.proc_name(),
                Some(Op::SpeRead),
                chan.0,
                n,
                Some(entry.kind.measure(false, payload_bytes(&values), t0)),
            );
            Ok(values)
        });
        let _ = ls.free(buf);
        result
    }

    /// One-sided read body: the window lives in *this* SPE's own local
    /// store, so the reader watches its doorbell — a local load every 1 µs
    /// from the instant the read began, deterministic under the DES —
    /// until a put lands, then moves the payload into the posted buffer
    /// with a local MFC transfer. The Co-Pilot never touches the data. The
    /// watch and the landing are one wait driven for the reader
    /// ([`ProcCtx::drive`]).
    ///
    /// Only the looks that can find something are taken: with a put in
    /// flight the reader skips to the look before the first one at or
    /// after its announced landing, and with none it parks on the window
    /// until a writer announces one (or until the look that finds its
    /// writer's scripted loss). Each look it does take happens at the
    /// instant, and after the step, that it would have when polling every
    /// period.
    fn one_sided_recv(&self, chan: usize, buf: usize, cap: usize) -> Result<usize, CpError> {
        let (ctx, shared, name) = (
            self.ctx.clone(),
            self.shared.clone(),
            self.proc_name().clone(),
        );
        let (node, hw) = (self.node, self.hw);
        self.ctx.drive(async move {
            let origin = ctx.now();
            let window = chan as u32;
            let loss = shared
                .scripted_writer_loss(chan)
                .map(|at| doorbell_look(origin, at));
            let landed = loop {
                if let Ok(Some(l)) = shared.fabric.take(window) {
                    break l;
                }
                let now = ctx.now();
                if shared.chan_writer_gone(chan, now) {
                    let peer = shared
                        .tables
                        .name(shared.tables.ends(chan).from)
                        .to_string();
                    ctx.report_incident(
                        IncidentCategory::PeerLost,
                        &format!(
                            "SPE process '{name}' failing one-sided read on channel \
                             {chan}: writer '{peer}' is lost"
                        ),
                    );
                    return Err(PilotError::PeerLost {
                        channel: chan,
                        peer,
                    }
                    .into());
                }
                // A put in flight: skip the looks that cannot see it. None:
                // park until a writer announces one, or until the look that
                // finds the writer's scripted loss.
                let next = match shared.fabric.landing(window).filter(|&at| at >= now) {
                    Some(lands) => look_before_landing(origin, lands).max(now + POLL),
                    None => {
                        let me = ParkedReader {
                            pid: ctx.pid(),
                            origin,
                            deadline: loss,
                        };
                        if shared.fabric.park(window, me, now) {
                            let woken = Step::Block {
                                label: format!("one-sided window c{chan}").into(),
                                what: "doorbell (no put in flight)".into(),
                                deadline: loss.map(|at| at - now),
                            }
                            .woken()
                            .await;
                            if !woken {
                                shared.fabric.unpark(window);
                            }
                        }
                        continue;
                    }
                };
                let next = loss.map_or(next, |at| next.min(at));
                Step::Advance(next - now).await;
            };
            // The payload left the fabric with the `take` above — the
            // channel is drained by that amount even if the posted buffer
            // turns out too small, so its send credit returns here.
            shared.release_credit(chan);
            let n = landed.bytes.len();
            if n > cap {
                return Err(CpError::SpeBufferOverflow {
                    channel: chan,
                    capacity: cap,
                });
            }
            let t0 = ctx.now();
            let ns = &shared.node_shared[&node];
            let desc = shared
                .fabric
                .window(chan as u32)
                .expect("payload taken from a registered window");
            ns.record_hb(
                &name,
                ctx.now().as_nanos(),
                cp_trace::HbOp::OneSidedGet {
                    chan: chan as u32,
                    node: desc.node,
                    spe: desc.spe,
                    start: desc.start,
                    len: n as u32,
                    seq: landed.seq,
                },
            );
            Step::Advance(SimDuration::from_micros_f64(
                ns.cell.costs.dma_transfer_us(n),
            ))
            .await;
            ns.cell
                .ls_write_traced(&ctx, hw, buf, n, |to| to.copy_from_slice(&landed.bytes))?;
            let get = Measure::OneSided {
                put: false,
                t0_ns: t0.0,
            };
            shared.recorder.record_op(
                ctx.now().0,
                &name,
                Some(Op::OneSidedDeliver),
                chan,
                n,
                Some(get),
            );
            Ok(n)
        })
    }

    /// Typed single-segment write: sends `data` as one runtime-counted
    /// segment of `T`'s wire type, with the Pilot format string derived
    /// from `T` (`%*d` for `i32`, `%*lf` for `f64`, ...). The SPE twin of
    /// [`crate::CellPilot::write_slice`].
    pub fn write_slice<T: PiScalar>(&self, chan: CpChannel, data: &[T]) -> Result<(), CpError> {
        let format = format!("%*{}", T::CONV);
        self.write(chan, &format, &[T::wrap(data.to_vec())])
    }

    /// Typed single-segment read: receives one segment of `T`'s wire type
    /// (format `%*{conv}`) and returns it as a `Vec<T>`. The SPE twin of
    /// [`crate::CellPilot::read_vec`].
    pub fn read_vec<T: PiScalar>(&self, chan: CpChannel) -> Result<Vec<T>, CpError> {
        let format = format!("%*{}", T::CONV);
        let mut values = self.read(chan, &format)?;
        let v = values.pop().expect("format has exactly one segment");
        Ok(T::unwrap(v).expect("segment dtype verified against format"))
    }

    /// Typed write on a [`crate::TypedChannel`] — the SPE twin of
    /// [`crate::CellPilot::send`].
    pub fn send<T: PiScalar>(
        &self,
        chan: crate::config::TypedChannel<T>,
        data: &[T],
    ) -> Result<(), CpError> {
        self.write_slice(chan.channel(), data)
    }

    /// Typed read on a [`crate::TypedChannel`] — the SPE twin of
    /// [`crate::CellPilot::recv`].
    pub fn recv<T: PiScalar>(
        &self,
        chan: crate::config::TypedChannel<T>,
    ) -> Result<Vec<T>, CpError> {
        self.read_vec(chan.channel())
    }

    /// One-sided fence from an SPE process: block (in virtual time) until
    /// every put applied on `chan` has been taken by the reader. The SPE
    /// twin of [`crate::CellPilot::fence`].
    pub fn fence(&self, chan: CpChannel) -> Result<(), CpError> {
        self.crash_checkpoint();
        self.shared.fence_on(&self.ctx, chan)
    }

    /// `PI_ChannelHasData` from an SPE (extension): non-blocking check
    /// whether a read on `chan` would find a message already at the
    /// Co-Pilot. Costs one mailbox round trip on relay channels; on
    /// one-sided channels it is a local doorbell load.
    pub fn channel_has_data(&self, chan: CpChannel) -> Result<bool, CpError> {
        self.crash_checkpoint();
        let (ends, _) = self.shared.tables.channel(chan.0)?;
        PilotError::check_reader(
            ends.to == self.me.0,
            chan.0,
            self.proc_name(),
            self.shared.tables.name(ends.to),
        )?;
        if let Some(done) = self.replay_next() {
            match done {
                JournalEntry::Poll { chan: c, has } if c == chan.0 => return Ok(has),
                other => self.replay_diverged(&other, &format!("poll on channel {}", chan.0)),
            }
        }
        let has = if self.shared.one_sided_chan(chan.0) {
            // The window is in this SPE's own local store: checking the
            // doorbell is a local load, no mailbox round trip needed.
            self.charge(0);
            self.shared
                .fabric
                .pending(chan.0 as u32)
                .is_ok_and(|pending| pending > 0)
        } else {
            let req = Request {
                op: OP_POLL,
                chan: chan.0 as u32,
                addr: 0,
                len: 0,
            };
            self.transact(req, None)?.0 != 0
        };
        self.journal(JournalEntry::Poll { chan: chan.0, has });
        Ok(has)
    }

    /// Abort the application with a diagnostic carrying the source
    /// location (SPE-side twin of `CellPilot::abort_loc`).
    pub fn abort_loc(&self, err: &CpError, file: &str, line: u32) -> ! {
        self.ctx.abort(&format!(
            "[{}:{}] in SPE process '{}': {}",
            file,
            line,
            self.name(),
            err
        ));
    }
}

/// The exact packed wire size of a message under `conv`, if every count is
/// fixed: 4-byte segment count + per segment 5-byte header + elements.
fn exact_packed_size(conv: &[Conversion]) -> Option<usize> {
    let mut total = 4usize;
    for c in conv {
        match c.count {
            CountSpec::Fixed(n) => total += 5 + n * c.dtype.wire_size(),
            CountSpec::Runtime => return None,
        }
    }
    Some(total)
}

/// `PI_Write` from an SPE process, aborting with a source-located
/// diagnostic on misuse.
#[macro_export]
macro_rules! spe_write {
    ($p:expr, $chan:expr, $fmt:expr $(, $val:expr)* $(,)?) => {
        match $p.write($chan, $fmt, &[$(cp_pilot::PiValue::from($val)),*]) {
            Ok(()) => (),
            Err(e) => $p.abort_loc(&e, file!(), line!()),
        }
    };
}

/// `PI_Read` from an SPE process, aborting with a source-located
/// diagnostic on misuse.
#[macro_export]
macro_rules! spe_read {
    ($p:expr, $chan:expr, $fmt:expr) => {
        match $p.read($chan, $fmt) {
            Ok(v) => v,
            Err(e) => $p.abort_loc(&e, file!(), line!()),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::completion_ok;

    #[test]
    fn exact_size_counts_headers() {
        let conv = parse_format("%100d").unwrap();
        // 4 + (5 + 400) = 409
        assert_eq!(exact_packed_size(&conv), Some(409));
        let conv = parse_format("%b %100Lf").unwrap();
        // 4 + (5+1) + (5+1600) = 1615
        assert_eq!(exact_packed_size(&conv), Some(1615));
        let conv = parse_format("%*d").unwrap();
        assert_eq!(exact_packed_size(&conv), None);
    }

    #[test]
    fn exact_size_matches_pack_message() {
        let vals = [
            PiValue::Byte(vec![0]),
            PiValue::LongDouble(vec![cp_mpisim::LongDouble(0.0); 100]),
        ];
        let conv = parse_format("%b %100Lf").unwrap();
        assert_eq!(
            exact_packed_size(&conv),
            Some(cp_pilot::pack_message(&vals).len()),
            "completion_ok roundtrip sanity: {}",
            completion_ok(0)
        );
    }
}
