//! Per-node effective-address space: main memory plus memory-mapped SPE
//! local stores.
//!
//! On a real Cell, each SPE's 256 KB local store can be mapped into the
//! PPE's effective-address space (the *problem state* mapping); CellPilot
//! exploits this so the Co-Pilot can `memcpy`/MPI directly in and out of
//! local stores. We reproduce that address-space shape: effective addresses
//! below [`LS_MAP_BASE`] are node main memory, and each SPE's local store
//! occupies a window at `LS_MAP_BASE + index * LS_MAP_STRIDE`.

use parking_lot::Mutex;
use std::fmt;

/// Size of one SPE local store: 256 KB.
pub const LS_SIZE: usize = 256 * 1024;

/// Base effective address of the local-store mapping windows.
pub const LS_MAP_BASE: u64 = 0xF000_0000;

/// Stride between consecutive SPEs' mapping windows.
pub const LS_MAP_STRIDE: u64 = 0x0010_0000;

/// An effective address within one node's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ea(pub u64);

impl fmt::Debug for Ea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ea({:#x})", self.0)
    }
}

impl Ea {
    /// Offset this address by `delta` bytes.
    pub fn offset(self, delta: u64) -> Ea {
        Ea(self.0 + delta)
    }

    /// True if the address is aligned to `align` (a power of two).
    pub fn is_aligned(self, align: u64) -> bool {
        self.0.is_multiple_of(align)
    }
}

/// What backs a resolved effective address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Node main memory at the given byte offset.
    Main(usize),
    /// SPE `index`'s local store at the given byte offset.
    LocalStore {
        /// The SPE whose local store backs the address.
        spe: usize,
        /// Byte offset within that local store.
        offset: usize,
    },
}

/// Errors raised by address-space operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Address resolves to no mapped region.
    Unmapped(Ea),
    /// Access runs past the end of its backing region.
    OutOfBounds {
        /// Start of the offending access.
        ea: Ea,
        /// Its length.
        len: usize,
    },
    /// Allocation request cannot be satisfied.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped(ea) => write!(f, "unmapped effective address {ea:?}"),
            MemError::OutOfBounds { ea, len } => {
                write!(f, "access of {len} bytes at {ea:?} exceeds region")
            }
            MemError::OutOfMemory { requested } => {
                write!(f, "main memory exhausted allocating {requested} bytes")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Resolve an effective address to its backing, given the node's SPE count.
pub fn resolve(ea: Ea, main_capacity: usize, spe_count: usize) -> Result<Backing, MemError> {
    if ea.0 < LS_MAP_BASE {
        let off = ea.0 as usize;
        if off < main_capacity {
            Ok(Backing::Main(off))
        } else {
            Err(MemError::Unmapped(ea))
        }
    } else {
        let rel = ea.0 - LS_MAP_BASE;
        let spe = (rel / LS_MAP_STRIDE) as usize;
        let offset = (rel % LS_MAP_STRIDE) as usize;
        if spe < spe_count && offset < LS_SIZE {
            Ok(Backing::LocalStore { spe, offset })
        } else {
            Err(MemError::Unmapped(ea))
        }
    }
}

/// The effective address of byte `offset` within SPE `index`'s mapped
/// local store.
pub fn ls_ea(spe_index: usize, offset: usize) -> Ea {
    debug_assert!(offset < LS_SIZE);
    Ea(LS_MAP_BASE + spe_index as u64 * LS_MAP_STRIDE + offset as u64)
}

struct MainInner {
    data: Vec<u8>,
    bump: usize,
}

/// A node's main memory: byte-addressable storage with a bump allocator for
/// carving out buffers (simulated `malloc`).
pub struct MainMemory {
    inner: Mutex<MainInner>,
    capacity: usize,
}

impl MainMemory {
    /// Main memory with the given capacity in bytes.
    pub fn new(capacity: usize) -> MainMemory {
        MainMemory {
            inner: Mutex::new(MainInner {
                data: Vec::new(),
                bump: 16, // keep EA 0 unmapped-looking ("null")
            }),
            capacity,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocate `len` bytes aligned to `align` (power of two); returns the
    /// base effective address.
    pub fn alloc(&self, len: usize, align: usize) -> Result<Ea, MemError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut inner = self.inner.lock();
        let base = (inner.bump + align - 1) & !(align - 1);
        let end = base
            .checked_add(len)
            .ok_or(MemError::OutOfMemory { requested: len })?;
        if end > self.capacity {
            return Err(MemError::OutOfMemory { requested: len });
        }
        inner.bump = end;
        if inner.data.len() < end {
            inner.data.resize(end, 0);
        }
        Ok(Ea(base as u64))
    }

    /// Read `len` bytes at main-memory offset `off`.
    pub fn read(&self, off: usize, len: usize) -> Result<Vec<u8>, MemError> {
        self.with_range(off, len, |bytes| bytes.to_vec())
    }

    /// Write `bytes` at main-memory offset `off`.
    pub fn write(&self, off: usize, bytes: &[u8]) -> Result<(), MemError> {
        self.with_range(off, bytes.len(), |to| to.copy_from_slice(bytes))
    }

    /// `Ok` if `[off, off + len)` lies within the capacity.
    pub(crate) fn check(&self, off: usize, len: usize) -> Result<(), MemError> {
        match off.checked_add(len) {
            Some(end) if end <= self.capacity => Ok(()),
            _ => Err(MemError::OutOfBounds {
                ea: Ea(off as u64),
                len,
            }),
        }
    }

    /// Lend `f` the `len` bytes at offset `off`, under main memory's lock,
    /// and return what it returns. `f` must not touch main memory.
    pub(crate) fn with_range<R>(
        &self,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, MemError> {
        self.check(off, len)?;
        let mut inner = self.inner.lock();
        let end = off + len;
        if inner.data.len() < end {
            inner.data.resize(end, 0);
        }
        Ok(f(&mut inner.data[off..end]))
    }

    /// Copy `len` bytes from offset `src` to offset `dst`; the two ranges
    /// may overlap.
    pub(crate) fn copy_within(&self, dst: usize, src: usize, len: usize) -> Result<(), MemError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let mut inner = self.inner.lock();
        let end = src.max(dst) + len;
        if inner.data.len() < end {
            inner.data.resize(end, 0);
        }
        inner.data.copy_within(src..src + len, dst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_main_and_ls() {
        assert_eq!(resolve(Ea(0x100), 1 << 20, 8), Ok(Backing::Main(0x100)));
        assert_eq!(
            resolve(ls_ea(3, 0x40), 1 << 20, 8),
            Ok(Backing::LocalStore {
                spe: 3,
                offset: 0x40
            })
        );
    }

    #[test]
    fn resolve_rejects_unmapped() {
        // Past main capacity but below the LS window.
        assert!(resolve(Ea(0x200000), 1 << 20, 8).is_err());
        // SPE index past the node's SPE count.
        assert!(resolve(ls_ea(9, 0), 1 << 20, 8).is_err());
        // Offset past the 256KB local store within the 1MB stride.
        assert!(resolve(Ea(LS_MAP_BASE + LS_SIZE as u64), 1 << 20, 8).is_err());
    }

    #[test]
    fn alloc_respects_alignment_and_capacity() {
        let mem = MainMemory::new(4096);
        let a = mem.alloc(10, 16).unwrap();
        assert!(a.is_aligned(16));
        let b = mem.alloc(100, 128).unwrap();
        assert!(b.is_aligned(128));
        assert!(b.0 >= a.0 + 10);
        assert!(mem.alloc(1 << 20, 16).is_err());
    }

    #[test]
    fn read_write_roundtrip() {
        let mem = MainMemory::new(1 << 16);
        let ea = mem.alloc(64, 16).unwrap();
        mem.write(ea.0 as usize, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.read(ea.0 as usize, 4).unwrap(), vec![1, 2, 3, 4]);
        // Unwritten memory reads as zero.
        assert_eq!(mem.read(ea.0 as usize + 4, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn oob_write_rejected() {
        let mem = MainMemory::new(128);
        assert!(mem.write(120, &[0; 16]).is_err());
    }
}
