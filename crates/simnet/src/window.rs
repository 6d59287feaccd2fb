//! The one-sided **window fabric**: a cluster-wide table of remotely
//! writable memory windows backed by EA-mapped SPE local stores.
//!
//! A Co-Pilot (or the configuration layer on its behalf) *registers* a
//! region of one of its SPEs' local stores as a window keyed by channel
//! id. A remote writer then *puts* a payload straight at that window —
//! one fabric hop, no intermediate relay buffering — and the reader side
//! *takes* landed payloads in FIFO order. The fabric is the data-plane
//! bookkeeping only: who owns which window, what has landed, and which
//! put sequence numbers were already applied (the exactly-once guard).
//! Transport cost, local-store bytes, mailbox completion and
//! happens-before recording stay with the caller, which is what keeps
//! this model independent of the runtime above it.
//!
//! Ownership is per Cell node: when a standby Co-Pilot adopts a node
//! after a failover, [`WindowFabric::take_over_node`] migrates every
//! window of that node to the adopting rank so in-flight puts keep
//! routing to a live owner.
//!
//! The window is also the reader's **doorbell**. A writer
//! [announces](WindowFabric::announce) the instant its put will land
//! before the bytes are on their way, and a reader with nothing in
//! flight [parks](WindowFabric::park) on the window until one is
//! announced. The fabric only keeps those two facts; when to wake whom is
//! the caller's decision.

use cp_des::{Pid, SimTime};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Why a fabric operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowError {
    /// A window for this channel id already exists.
    Duplicate(u32),
    /// The new window overlaps an existing window (`other`) on the same
    /// SPE local store.
    Overlap {
        /// Channel whose registration was refused.
        chan: u32,
        /// Channel owning the already-registered overlapping window.
        other: u32,
    },
    /// The window would be empty (zero length).
    Empty(u32),
    /// No window is registered for this channel id.
    Unregistered(u32),
    /// The payload does not fit the registered window.
    Overflow {
        /// Target channel.
        chan: u32,
        /// Payload length that was offered.
        len: usize,
        /// Registered window capacity.
        window: u32,
    },
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::Duplicate(c) => write!(f, "window for channel {c} already registered"),
            WindowError::Overlap { chan, other } => write!(
                f,
                "window for channel {chan} overlaps the window of channel {other}"
            ),
            WindowError::Empty(c) => write!(f, "window for channel {c} has zero length"),
            WindowError::Unregistered(c) => write!(f, "no window registered for channel {c}"),
            WindowError::Overflow { chan, len, window } => write!(
                f,
                "put of {len} B does not fit the {window} B window of channel {chan}"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// Where a window lives and who services it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDesc {
    /// Channel id the window belongs to.
    pub chan: u32,
    /// Cell node holding the backing local store.
    pub node: usize,
    /// Hardware SPE index on that node.
    pub spe: usize,
    /// First local-store byte of the window.
    pub start: u32,
    /// Window capacity in bytes.
    pub len: u32,
    /// MPI rank of the Co-Pilot currently servicing the window's node.
    pub owner_rank: usize,
}

/// One payload that landed in a window and has not been taken yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LandedPut {
    /// Writer-side sequence number of the put.
    pub seq: u64,
    /// The payload bytes.
    pub bytes: Vec<u8>,
}

/// What [`WindowFabric::put`] did with the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutStatus {
    /// The payload landed and is queued for the reader.
    Landed,
    /// The sequence number was already applied — the put was a replay
    /// (crash-restart or failover retry) and was dropped without
    /// re-delivering.
    Duplicate,
}

/// A reader parked on a window's doorbell: it looked, found nothing landed
/// and no put in flight, and waits for a writer to announce one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParkedReader {
    /// The reader's process.
    pub pid: Pid,
    /// When its read began: the reader looks at the doorbell at this
    /// instant and at every poll period after it.
    pub origin: SimTime,
    /// When the reader wakes by itself if no put is announced first.
    pub deadline: Option<SimTime>,
}

/// Progress counters of one window, read by fence/flush primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowCounters {
    /// Puts applied (duplicates excluded).
    pub puts: u64,
    /// Payloads taken by the reader side.
    pub taken: u64,
    /// Landed payloads not yet taken (`puts - taken`).
    pub pending: u64,
}

#[derive(Debug)]
struct WindowState {
    desc: WindowDesc,
    landed: VecDeque<LandedPut>,
    /// Next put sequence number that is *new*; anything below was applied.
    next_seq: u64,
    taken: u64,
    /// When the put in flight to this window lands, as its writer
    /// announced it.
    landing: Option<SimTime>,
    parked: Option<ParkedReader>,
}

#[derive(Debug, Default)]
struct FabricState {
    windows: BTreeMap<u32, WindowState>,
}

/// The cluster-wide window table. Clones are shallow handles onto one
/// shared table, mirroring how `Cluster` and the recorder are shared.
#[derive(Debug, Clone, Default)]
pub struct WindowFabric {
    inner: Arc<Mutex<FabricState>>,
}

impl WindowFabric {
    /// An empty fabric.
    pub fn new() -> WindowFabric {
        WindowFabric::default()
    }

    /// Register a window. Refuses zero-length windows, a second window
    /// for the same channel, and any region that overlaps an existing
    /// window on the same SPE local store.
    pub fn register(&self, desc: WindowDesc) -> Result<(), WindowError> {
        if desc.len == 0 {
            return Err(WindowError::Empty(desc.chan));
        }
        let mut st = self.inner.lock();
        if st.windows.contains_key(&desc.chan) {
            return Err(WindowError::Duplicate(desc.chan));
        }
        let end = u64::from(desc.start) + u64::from(desc.len);
        for w in st.windows.values() {
            if w.desc.node == desc.node && w.desc.spe == desc.spe {
                let w_end = u64::from(w.desc.start) + u64::from(w.desc.len);
                if u64::from(desc.start) < w_end && u64::from(w.desc.start) < end {
                    return Err(WindowError::Overlap {
                        chan: desc.chan,
                        other: w.desc.chan,
                    });
                }
            }
        }
        st.windows.insert(
            desc.chan,
            WindowState {
                desc,
                landed: VecDeque::new(),
                next_seq: 0,
                taken: 0,
                landing: None,
                parked: None,
            },
        );
        Ok(())
    }

    /// The registered window for `chan`, if any.
    pub fn window(&self, chan: u32) -> Option<WindowDesc> {
        self.inner.lock().windows.get(&chan).map(|w| w.desc)
    }

    /// The rank currently servicing `chan`'s window.
    pub fn owner_rank(&self, chan: u32) -> Option<usize> {
        self.window(chan).map(|d| d.owner_rank)
    }

    /// Land `bytes` in the window of `chan`. `seq` is the writer's
    /// monotonically increasing per-channel sequence number; a sequence
    /// number that was already applied is dropped
    /// ([`PutStatus::Duplicate`]) so crash-restart and failover replays
    /// deliver exactly once. Either way the put announced for this window
    /// has now landed.
    pub fn put(&self, chan: u32, seq: u64, bytes: Vec<u8>) -> Result<PutStatus, WindowError> {
        let mut st = self.inner.lock();
        let w = st
            .windows
            .get_mut(&chan)
            .ok_or(WindowError::Unregistered(chan))?;
        w.landing = None;
        if bytes.len() as u64 > u64::from(w.desc.len) {
            return Err(WindowError::Overflow {
                chan,
                len: bytes.len(),
                window: w.desc.len,
            });
        }
        if seq < w.next_seq {
            return Ok(PutStatus::Duplicate);
        }
        w.next_seq = seq + 1;
        w.landed.push_back(LandedPut { seq, bytes });
        Ok(PutStatus::Landed)
    }

    /// Take the oldest landed payload, if one is queued.
    pub fn take(&self, chan: u32) -> Result<Option<LandedPut>, WindowError> {
        let mut st = self.inner.lock();
        let w = st
            .windows
            .get_mut(&chan)
            .ok_or(WindowError::Unregistered(chan))?;
        let front = w.landed.pop_front();
        if front.is_some() {
            w.taken += 1;
        }
        Ok(front)
    }

    /// Announce that a put to `chan` lands at `at`, and take the reader
    /// parked on the window, if any, for the caller to wake.
    pub fn announce(&self, chan: u32, at: SimTime) -> Option<ParkedReader> {
        let mut st = self.inner.lock();
        let w = st.windows.get_mut(&chan)?;
        w.landing = Some(at);
        w.parked.take()
    }

    /// When the put announced for `chan` lands, if one is in flight.
    pub fn landing(&self, chan: u32) -> Option<SimTime> {
        self.inner.lock().windows.get(&chan)?.landing
    }

    /// Park `reader` on the window of `chan` at `now`, unless a payload
    /// has landed there or a put is announced to land at or after `now` —
    /// then `false`, and the reader should look again. A landing announced
    /// for before `now` that never arrived (its writer unwound
    /// mid-transfer) is dropped.
    pub fn park(&self, chan: u32, reader: ParkedReader, now: SimTime) -> bool {
        let mut st = self.inner.lock();
        let Some(w) = st.windows.get_mut(&chan) else {
            return false;
        };
        if !w.landed.is_empty() || w.landing.is_some_and(|at| at >= now) {
            return false;
        }
        w.landing = None;
        w.parked = Some(reader);
        true
    }

    /// Take the reader parked on the window of `chan`, if any.
    pub fn unpark(&self, chan: u32) -> Option<ParkedReader> {
        self.inner.lock().windows.get_mut(&chan)?.parked.take()
    }

    /// Landed-but-untaken payload count (0 means the window is drained —
    /// the fence condition).
    pub fn pending(&self, chan: u32) -> Result<usize, WindowError> {
        let st = self.inner.lock();
        st.windows
            .get(&chan)
            .map(|w| w.landed.len())
            .ok_or(WindowError::Unregistered(chan))
    }

    /// Progress counters for fence/flush decisions.
    pub fn counters(&self, chan: u32) -> Result<WindowCounters, WindowError> {
        let st = self.inner.lock();
        let w = st
            .windows
            .get(&chan)
            .ok_or(WindowError::Unregistered(chan))?;
        Ok(WindowCounters {
            puts: w.next_seq,
            taken: w.taken,
            pending: w.landed.len() as u64,
        })
    }

    /// Migrate every window on `node` to `new_rank` (Co-Pilot failover:
    /// the standby that adopted the node now services its windows).
    /// Returns how many windows moved.
    pub fn take_over_node(&self, node: usize, new_rank: usize) -> usize {
        let mut st = self.inner.lock();
        let mut moved = 0;
        for w in st.windows.values_mut() {
            if w.desc.node == node && w.desc.owner_rank != new_rank {
                w.desc.owner_rank = new_rank;
                moved += 1;
            }
        }
        moved
    }

    /// Number of registered windows.
    pub fn window_count(&self) -> usize {
        self.inner.lock().windows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(chan: u32, node: usize, spe: usize, start: u32, len: u32) -> WindowDesc {
        WindowDesc {
            chan,
            node,
            spe,
            start,
            len,
            owner_rank: 10 + node,
        }
    }

    #[test]
    fn register_and_route() {
        let f = WindowFabric::new();
        f.register(desc(0, 1, 2, 0x1000, 2048)).unwrap();
        assert_eq!(f.window(0).unwrap().spe, 2);
        assert_eq!(f.owner_rank(0), Some(11));
        assert_eq!(f.owner_rank(9), None);
        assert_eq!(f.window_count(), 1);
    }

    #[test]
    fn rejects_duplicate_empty_and_overlap() {
        let f = WindowFabric::new();
        f.register(desc(0, 0, 0, 0x100, 256)).unwrap();
        assert_eq!(
            f.register(desc(0, 1, 1, 0x8000, 64)),
            Err(WindowError::Duplicate(0))
        );
        assert_eq!(
            f.register(desc(1, 0, 0, 0x0, 0)),
            Err(WindowError::Empty(1))
        );
        // Same LS, overlapping tail.
        assert_eq!(
            f.register(desc(2, 0, 0, 0x1ff, 16)),
            Err(WindowError::Overlap { chan: 2, other: 0 })
        );
        // Same region on a *different* SPE is fine.
        f.register(desc(3, 0, 1, 0x100, 256)).unwrap();
        // Adjacent (touching, not overlapping) is fine.
        f.register(desc(4, 0, 0, 0x200, 16)).unwrap();
    }

    #[test]
    fn put_take_fifo_and_overflow() {
        let f = WindowFabric::new();
        f.register(desc(7, 0, 3, 0, 8)).unwrap();
        assert_eq!(f.put(7, 0, vec![1, 2]), Ok(PutStatus::Landed));
        assert_eq!(f.put(7, 1, vec![3]), Ok(PutStatus::Landed));
        assert_eq!(
            f.put(7, 2, vec![0; 9]),
            Err(WindowError::Overflow {
                chan: 7,
                len: 9,
                window: 8
            })
        );
        assert_eq!(f.pending(7), Ok(2));
        assert_eq!(
            f.take(7).unwrap(),
            Some(LandedPut {
                seq: 0,
                bytes: vec![1, 2]
            })
        );
        assert_eq!(
            f.take(7).unwrap(),
            Some(LandedPut {
                seq: 1,
                bytes: vec![3]
            })
        );
        assert_eq!(f.take(7).unwrap(), None);
        assert_eq!(f.take(8), Err(WindowError::Unregistered(8)));
        assert_eq!(f.put(8, 0, vec![]), Err(WindowError::Unregistered(8)));
    }

    #[test]
    fn replayed_seq_is_deduplicated() {
        let f = WindowFabric::new();
        f.register(desc(1, 0, 0, 0, 64)).unwrap();
        assert_eq!(f.put(1, 0, vec![1]), Ok(PutStatus::Landed));
        assert_eq!(f.put(1, 1, vec![2]), Ok(PutStatus::Landed));
        // Crash-restart replays put 1: dropped, nothing re-delivered.
        assert_eq!(f.put(1, 1, vec![2]), Ok(PutStatus::Duplicate));
        assert_eq!(f.put(1, 0, vec![1]), Ok(PutStatus::Duplicate));
        let c = f.counters(1).unwrap();
        assert_eq!((c.puts, c.taken, c.pending), (2, 0, 2));
        assert_eq!(f.take(1).unwrap().unwrap().bytes, vec![1]);
        assert_eq!(f.take(1).unwrap().unwrap().bytes, vec![2]);
        assert_eq!(f.take(1).unwrap(), None);
        let c = f.counters(1).unwrap();
        assert_eq!((c.puts, c.taken, c.pending), (2, 2, 0));
    }

    #[test]
    fn takeover_migrates_node_windows_only() {
        let f = WindowFabric::new();
        f.register(desc(0, 0, 0, 0, 64)).unwrap();
        f.register(desc(1, 0, 1, 0, 64)).unwrap();
        f.register(desc(2, 1, 0, 0, 64)).unwrap();
        f.put(0, 0, vec![9]).unwrap();
        assert_eq!(f.take_over_node(0, 42), 2);
        assert_eq!(f.owner_rank(0), Some(42));
        assert_eq!(f.owner_rank(1), Some(42));
        assert_eq!(f.owner_rank(2), Some(11));
        // Landed data and dedup state survive the migration.
        assert_eq!(f.put(0, 0, vec![9]), Ok(PutStatus::Duplicate));
        assert_eq!(f.take(0).unwrap().unwrap().bytes, vec![9]);
        // Idempotent: nothing left to move.
        assert_eq!(f.take_over_node(0, 42), 0);
    }

    fn reader(deadline: Option<SimTime>) -> ParkedReader {
        ParkedReader {
            pid: 7,
            origin: SimTime(1_000),
            deadline,
        }
    }

    #[test]
    fn announce_hands_the_parked_reader_to_the_writer() {
        let f = WindowFabric::new();
        f.register(desc(0, 0, 0, 0, 64)).unwrap();
        assert_eq!(f.landing(0), None);
        assert!(f.park(0, reader(None), SimTime(1_000)));
        assert_eq!(f.announce(0, SimTime(5_500)), Some(reader(None)));
        assert_eq!(f.landing(0), Some(SimTime(5_500)));
        // Announced: nothing to hand over again, and no reader may park
        // until the put has landed.
        assert_eq!(f.announce(0, SimTime(5_500)), None);
        assert!(!f.park(0, reader(None), SimTime(2_000)));
        assert!(!f.park(0, reader(None), SimTime(5_500)));
        assert_eq!(f.put(0, 0, vec![1]), Ok(PutStatus::Landed));
        assert_eq!(f.landing(0), None);
        // Landed but not taken: looking again finds it.
        assert!(!f.park(0, reader(None), SimTime(6_000)));
        assert_eq!(f.take(0).unwrap().unwrap().bytes, vec![1]);
        assert!(f.park(0, reader(None), SimTime(6_000)));
        assert_eq!(f.unpark(0), Some(reader(None)));
        assert_eq!(f.unpark(0), None);
        assert_eq!(f.announce(9, SimTime(1)), None);
        assert!(!f.park(9, reader(None), SimTime(1)));
    }

    #[test]
    fn a_landing_that_never_arrives_is_dropped() {
        let f = WindowFabric::new();
        f.register(desc(0, 0, 0, 0, 64)).unwrap();
        f.announce(0, SimTime(5_500));
        // The writer unwound mid-transfer: once its landing has passed, a
        // reader may park again.
        assert!(f.park(0, reader(Some(SimTime(9_000))), SimTime(6_000)));
        assert_eq!(f.landing(0), None);
        assert_eq!(f.unpark(0), Some(reader(Some(SimTime(9_000)))));
    }

    #[test]
    fn a_duplicate_put_lands_nothing_and_lets_the_reader_park_again() {
        let f = WindowFabric::new();
        f.register(desc(0, 0, 0, 0, 64)).unwrap();
        assert_eq!(f.put(0, 0, vec![1]), Ok(PutStatus::Landed));
        assert_eq!(f.take(0).unwrap().unwrap().bytes, vec![1]);
        // A failover replay of put 0 announces itself and wakes the reader
        // parked for put 1; the dedup swallows it on landing.
        assert!(f.park(0, reader(None), SimTime(2_000)));
        assert_eq!(f.announce(0, SimTime(3_000)), Some(reader(None)));
        assert_eq!(f.put(0, 0, vec![1]), Ok(PutStatus::Duplicate));
        assert_eq!(f.landing(0), None);
        assert_eq!(f.take(0).unwrap(), None);
        assert!(f.park(0, reader(None), SimTime(3_000)));
    }

    proptest::proptest! {
        /// Registration never admits two overlapping windows on the same
        /// local store: whatever interval set we offer, the accepted set
        /// is pairwise disjoint per (node, spe).
        #[test]
        fn accepted_windows_never_overlap(
            regions in proptest::collection::vec(
                (0usize..2, 0usize..4, 0u32..4096, 1u32..512), 1..40)
        ) {
            let f = WindowFabric::new();
            let mut accepted: Vec<WindowDesc> = Vec::new();
            for (i, (node, spe, start, len)) in regions.into_iter().enumerate() {
                let d = desc(i as u32, node, spe, start, len);
                if f.register(d).is_ok() {
                    accepted.push(d);
                }
            }
            for (i, a) in accepted.iter().enumerate() {
                for b in &accepted[i + 1..] {
                    if a.node == b.node && a.spe == b.spe {
                        let disjoint = u64::from(a.start) + u64::from(a.len)
                            <= u64::from(b.start)
                            || u64::from(b.start) + u64::from(b.len) <= u64::from(a.start);
                        proptest::prop_assert!(
                            disjoint,
                            "accepted overlapping windows {a:?} and {b:?}"
                        );
                    }
                }
            }
            // And everything accepted is still routable.
            for a in &accepted {
                proptest::prop_assert_eq!(f.window(a.chan), Some(*a));
            }
        }
    }
}
