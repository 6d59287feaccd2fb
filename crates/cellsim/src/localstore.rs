//! The SPE local store: 256 KB of software-managed memory.
//!
//! The paper stresses two constraints this module enforces: the 256 KB
//! capacity shared by code and data (exceeding it is a hard error, so
//! library footprint matters — see the paper's cellpilot.o vs libdacs.a
//! comparison), and the alignment discipline DMA transfers demand.

use crate::memory::LS_SIZE;
use parking_lot::Mutex;
use std::fmt;

/// A byte offset within a local store.
pub type LsAddr = usize;

/// Errors from local-store management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsError {
    /// Not enough contiguous free space.
    OutOfLocalStore {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free (possibly fragmented).
        free: usize,
    },
    /// Access outside the 256 KB store.
    OutOfBounds {
        /// Start of the offending access.
        addr: LsAddr,
        /// Its length.
        len: usize,
    },
    /// Freeing an address that was never allocated.
    BadFree(LsAddr),
    /// A second program image / runtime reservation was attempted.
    AlreadyReserved,
}

impl fmt::Display for LsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsError::OutOfLocalStore { requested, free } => write!(
                f,
                "SPE local store exhausted: requested {requested} B, {free} B free of {LS_SIZE}"
            ),
            LsError::OutOfBounds { addr, len } => {
                write!(f, "local-store access [{addr:#x}..+{len}] out of bounds")
            }
            LsError::BadFree(a) => write!(f, "free of unallocated local-store address {a:#x}"),
            LsError::AlreadyReserved => write!(f, "local store already has a resident image"),
        }
    }
}

impl std::error::Error for LsError {}

struct LsInner {
    /// Backing bytes of the written prefix only, grown on demand like
    /// `MainMemory`'s: everything past `data.len()` reads as zero.
    data: Vec<u8>,
    /// Sorted, disjoint free regions `(start, len)`.
    free: Vec<(usize, usize)>,
    /// Allocated regions `(start, len)` for free() validation.
    allocated: Vec<(usize, usize)>,
    /// Bytes reserved at the top for program image + library runtime.
    reserved: usize,
    high_water: usize,
}

/// One SPE's local store with a first-fit allocator and a reservation ledger
/// for the resident program image / library runtime.
pub struct LocalStore {
    inner: Mutex<LsInner>,
}

impl Default for LocalStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalStore {
    /// A fresh, empty local store.
    pub fn new() -> LocalStore {
        LocalStore {
            inner: Mutex::new(LsInner {
                data: Vec::new(),
                free: vec![(0, LS_SIZE)],
                allocated: Vec::new(),
                reserved: 0,
                high_water: 0,
            }),
        }
    }

    /// Reserve `bytes` at the top of the store for a program image and any
    /// resident library runtime. Fails if the store already hosts an image
    /// or cannot fit the reservation.
    pub fn reserve_image(&self, bytes: usize) -> Result<(), LsError> {
        let mut st = self.inner.lock();
        if st.reserved != 0 {
            return Err(LsError::AlreadyReserved);
        }
        if bytes > LS_SIZE {
            return Err(LsError::OutOfLocalStore {
                requested: bytes,
                free: LS_SIZE,
            });
        }
        // Carve from the top: shrink or split the final free region.
        let cut = LS_SIZE - bytes;
        let mut ok = false;
        for region in st.free.iter_mut() {
            let (start, len) = *region;
            if start + len == LS_SIZE {
                if start > cut {
                    break; // top region does not reach down to the cut line
                }
                *region = (start, cut - start);
                ok = true;
                break;
            }
        }
        if !ok {
            let free = st.free.iter().map(|&(_, l)| l).sum();
            return Err(LsError::OutOfLocalStore {
                requested: bytes,
                free,
            });
        }
        st.free.retain(|&(_, l)| l > 0);
        st.reserved = bytes;
        st.high_water = st.high_water.max(bytes);
        Ok(())
    }

    /// Release the image reservation (context destroyed / program unloaded).
    pub fn release_image(&self) {
        let mut st = self.inner.lock();
        if st.reserved == 0 {
            return;
        }
        let start = LS_SIZE - st.reserved;
        st.reserved = 0;
        insert_free(&mut st.free, start, LS_SIZE - start);
    }

    /// Allocate `len` bytes aligned to `align` (power of two), first-fit.
    pub fn alloc(&self, len: usize, align: usize) -> Result<LsAddr, LsError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        let mut st = self.inner.lock();
        for i in 0..st.free.len() {
            let (start, flen) = st.free[i];
            let base = (start + align - 1) & !(align - 1);
            let pad = base - start;
            if pad + len <= flen {
                // Split: [start,pad) stays free, [base,len) allocated,
                // remainder stays free.
                st.free.remove(i);
                if pad > 0 {
                    insert_free(&mut st.free, start, pad);
                }
                let rem = flen - pad - len;
                if rem > 0 {
                    insert_free(&mut st.free, base + len, rem);
                }
                st.allocated.push((base, len));
                let used = LS_SIZE - st.free.iter().map(|&(_, l)| l).sum::<usize>();
                st.high_water = st.high_water.max(used);
                return Ok(base);
            }
        }
        let free = st.free.iter().map(|&(_, l)| l).sum();
        Err(LsError::OutOfLocalStore {
            requested: len,
            free,
        })
    }

    /// Free an allocation returned by [`LocalStore::alloc`].
    pub fn free(&self, addr: LsAddr) -> Result<(), LsError> {
        let mut st = self.inner.lock();
        let idx = st
            .allocated
            .iter()
            .position(|&(a, _)| a == addr)
            .ok_or(LsError::BadFree(addr))?;
        let (start, len) = st.allocated.swap_remove(idx);
        insert_free(&mut st.free, start, len);
        Ok(())
    }

    /// Read `len` bytes at `addr`.
    pub fn read(&self, addr: LsAddr, len: usize) -> Result<Vec<u8>, LsError> {
        self.read_with(addr, len, <[u8]>::to_vec)
    }

    /// Write `bytes` at `addr`.
    pub fn write(&self, addr: LsAddr, bytes: &[u8]) -> Result<(), LsError> {
        self.write_with(addr, bytes.len(), |to| to.copy_from_slice(bytes))
    }

    /// `Ok` if `[addr, addr + len)` lies within the store.
    pub(crate) fn check(&self, addr: LsAddr, len: usize) -> Result<(), LsError> {
        match addr.checked_add(len) {
            Some(end) if end <= LS_SIZE => Ok(()),
            _ => Err(LsError::OutOfBounds { addr, len }),
        }
    }

    /// Lend `f` the `len` bytes at `addr`, under the store's lock, and
    /// return what it returns. `f` must not touch this store.
    pub fn read_with<R>(
        &self,
        addr: LsAddr,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, LsError> {
        self.check(addr, len)?;
        let st = self.inner.lock();
        Ok(match st.data.get(addr..addr + len) {
            Some(bytes) => f(bytes),
            // The range reaches past the written prefix.
            None => {
                let mut bytes = st.data.get(addr..).unwrap_or(&[]).to_vec();
                bytes.resize(len, 0);
                f(&bytes)
            }
        })
    }

    /// Lend `f` the `len` bytes at `addr` to fill, under the store's lock,
    /// and return what it returns. `f` must not touch this store.
    pub fn write_with<R>(
        &self,
        addr: LsAddr,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, LsError> {
        self.check(addr, len)?;
        let mut st = self.inner.lock();
        let end = addr + len;
        if st.data.len() < end {
            st.data.resize(end, 0);
        }
        Ok(f(&mut st.data[addr..end]))
    }

    /// Copy `len` bytes from `src` to `dst` within the store; the two
    /// ranges may overlap.
    pub(crate) fn copy_within(&self, dst: LsAddr, src: LsAddr, len: usize) -> Result<(), LsError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        let mut st = self.inner.lock();
        let end = src.max(dst) + len;
        if st.data.len() < end {
            st.data.resize(end, 0);
        }
        st.data.copy_within(src..src + len, dst);
        Ok(())
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> usize {
        self.inner.lock().free.iter().map(|&(_, l)| l).sum()
    }

    /// Bytes currently in use (allocations + image reservation).
    pub fn used_bytes(&self) -> usize {
        LS_SIZE - self.free_bytes()
    }

    /// Peak bytes ever in use.
    pub fn high_water(&self) -> usize {
        self.inner.lock().high_water
    }

    /// Bytes reserved for the resident image/runtime.
    pub fn reserved_bytes(&self) -> usize {
        self.inner.lock().reserved
    }
}

/// Insert a region into the sorted free list, coalescing neighbours.
fn insert_free(free: &mut Vec<(usize, usize)>, start: usize, len: usize) {
    let pos = free.partition_point(|&(s, _)| s < start);
    free.insert(pos, (start, len));
    // Coalesce with successor then predecessor.
    if pos + 1 < free.len() && free[pos].0 + free[pos].1 == free[pos + 1].0 {
        free[pos].1 += free[pos + 1].1;
        free.remove(pos + 1);
    }
    if pos > 0 && free[pos - 1].0 + free[pos - 1].1 == free[pos].0 {
        free[pos - 1].1 += free[pos].1;
        free.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_coalesce_roundtrip() {
        let ls = LocalStore::new();
        let a = ls.alloc(1000, 16).unwrap();
        let b = ls.alloc(2000, 16).unwrap();
        let c = ls.alloc(3000, 16).unwrap();
        assert_eq!(ls.used_bytes(), (1000 + 2000 + 3000));
        ls.free(b).unwrap();
        ls.free(a).unwrap();
        ls.free(c).unwrap();
        assert_eq!(ls.free_bytes(), LS_SIZE);
        assert_eq!(ls.high_water(), 6000);
    }

    #[test]
    fn alignment_is_honoured() {
        let ls = LocalStore::new();
        let _ = ls.alloc(3, 1).unwrap();
        let q = ls.alloc(64, 128).unwrap();
        assert_eq!(q % 128, 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let ls = LocalStore::new();
        let _ = ls.alloc(200 * 1024, 16).unwrap();
        match ls.alloc(100 * 1024, 16) {
            Err(LsError::OutOfLocalStore { requested, free }) => {
                assert_eq!(requested, 100 * 1024);
                assert!(free < 100 * 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn image_reservation_carves_from_top() {
        let ls = LocalStore::new();
        ls.reserve_image(10_336).unwrap(); // the paper's cellpilot.o size
        assert_eq!(ls.reserved_bytes(), 10_336);
        assert_eq!(ls.free_bytes(), LS_SIZE - 10_336);
        assert_eq!(ls.reserve_image(4), Err(LsError::AlreadyReserved));
        ls.release_image();
        assert_eq!(ls.free_bytes(), LS_SIZE);
    }

    #[test]
    fn image_too_large_rejected() {
        let ls = LocalStore::new();
        assert!(ls.reserve_image(LS_SIZE + 1).is_err());
        // Fill the top, then the image cannot fit.
        let _ = ls.alloc(LS_SIZE, 1).unwrap();
        assert!(ls.reserve_image(1).is_err());
    }

    #[test]
    fn double_free_rejected() {
        let ls = LocalStore::new();
        let a = ls.alloc(16, 16).unwrap();
        ls.free(a).unwrap();
        assert_eq!(ls.free(a), Err(LsError::BadFree(a)));
    }

    #[test]
    fn read_write_roundtrip_and_bounds() {
        let ls = LocalStore::new();
        let a = ls.alloc(16, 16).unwrap();
        ls.write(a, &[9; 16]).unwrap();
        assert_eq!(ls.read(a, 16).unwrap(), vec![9; 16]);
        assert!(ls.write(LS_SIZE - 4, &[0; 8]).is_err());
        assert!(ls.read(LS_SIZE - 4, 8).is_err());
    }

    #[test]
    fn never_written_bytes_read_as_zero() {
        let ls = LocalStore::new();
        assert_eq!(ls.read(0, 64).unwrap(), vec![0; 64]);
        assert_eq!(ls.read(LS_SIZE - 64, 64).unwrap(), vec![0; 64]);
        // A write further up leaves the gap below it zero.
        ls.write(4096, &[5; 4]).unwrap();
        assert_eq!(ls.read(4090, 6).unwrap(), vec![0; 6]);
    }

    #[test]
    fn write_may_end_exactly_at_ls_size_and_not_one_byte_past() {
        let ls = LocalStore::new();
        ls.write(LS_SIZE - 8, &[7; 8]).unwrap();
        assert_eq!(ls.read(LS_SIZE - 8, 8).unwrap(), vec![7; 8]);
        assert_eq!(
            ls.write(LS_SIZE - 8, &[7; 9]),
            Err(LsError::OutOfBounds {
                addr: LS_SIZE - 8,
                len: 9
            })
        );
        assert_eq!(
            ls.read(LS_SIZE - 8, 9),
            Err(LsError::OutOfBounds {
                addr: LS_SIZE - 8,
                len: 9
            })
        );
    }

    #[test]
    fn read_straddling_the_written_prefix_is_prefix_then_zeros() {
        let ls = LocalStore::new();
        ls.write(0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(ls.read(2, 6).unwrap(), vec![3, 4, 0, 0, 0, 0]);
        // Exactly at and past the end of the prefix: all zeros.
        assert_eq!(ls.read(4, 3).unwrap(), vec![0; 3]);
        assert_eq!(ls.read(100, 3).unwrap(), vec![0; 3]);
    }
}
