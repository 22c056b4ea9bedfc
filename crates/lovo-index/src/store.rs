//! Borrowed-or-shared row storage for index arenas.
//!
//! The scan kernels don't care where their row-major `&[f32]` lives, so a
//! sealed segment's rows, the flat scan arena and the IVF rescore arena are
//! all one [`RowStore`]: either a heap vector behind an `Arc`, shared
//! copy-on-write, or a [`MappedSlice`] view into a memory-mapped `.lseg`
//! file kept alive by an `Arc` owner. Cloning either variant clones an
//! `Arc`, never the payload, so a segment's retained rows and the index
//! built over them are one allocation on both paths.
//!
//! This crate knows nothing about files or `mmap` — the storage layer
//! (which owns the mapping type) constructs [`MappedSlice`]s and hands them
//! down. The owner is type-erased as `Arc<dyn Any + Send + Sync>` so no
//! dependency cycle forms between the index and storage crates.

use std::any::Any;
use std::sync::Arc;

/// A read-only `f32` slice borrowed from a reference-counted owner (in
/// practice: a memory-mapped segment file). Cloning is cheap — it clones
/// the `Arc`, not the data — so one mapping can back several arenas.
pub struct MappedSlice {
    /// Keeps the backing allocation (the mapping) alive. The slice below
    /// points into memory this owner controls; dropping the last clone
    /// releases the mapping.
    owner: Arc<dyn Any + Send + Sync>,
    ptr: *const f32,
    len: usize,
}

// The view is read-only over immutable bytes (a PROT_READ file mapping)
// and has no interior mutability, so sharing or moving it across threads
// cannot race.
// SAFETY: immutable data, and the owner keeping it alive is Send + Sync.
unsafe impl Send for MappedSlice {}
// SAFETY: see the Send impl — immutable data, Send + Sync owner.
unsafe impl Sync for MappedSlice {}

impl MappedSlice {
    /// Wraps `bytes` as an `f32` row view kept alive by `owner`.
    ///
    /// Returns `None` (caller should fall back to a heap copy) unless
    /// `bytes` is 4-byte aligned and a whole number of `f32`s — the segment
    /// writer 64-byte-aligns vector sections precisely so this succeeds,
    /// but legacy files make no such promise.
    ///
    /// # Safety
    ///
    /// `bytes` must point into memory that stays valid and unmodified for
    /// as long as `owner` (or any clone of it) is alive. The storage layer
    /// upholds this by deriving `bytes` from the mapping it passes as
    /// `owner`.
    // SAFETY: the body performs no unsafe operation — the `unsafe` keyword
    // carries the caller contract documented above (bytes outlive owner).
    pub unsafe fn new(owner: Arc<dyn Any + Send + Sync>, bytes: &[u8]) -> Option<Self> {
        if bytes.as_ptr().align_offset(std::mem::align_of::<f32>()) != 0
            || bytes.len() % std::mem::size_of::<f32>() != 0
        {
            return None;
        }
        Some(Self {
            owner,
            ptr: bytes.as_ptr().cast::<f32>(),
            len: bytes.len() / std::mem::size_of::<f32>(),
        })
    }

    /// The rows as one row-major `f32` slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        // Construction checked alignment and length, and every f32 bit
        // pattern is a valid value, so there is no initialization hazard.
        // SAFETY: the owner Arc held by self keeps ptr..ptr+len valid and
        // immutable for the lifetime of the returned borrow.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The `Arc` that keeps the backing mapping alive (exposed so the
    /// storage layer can recognise which mapping a view borrows from).
    pub fn owner(&self) -> &Arc<dyn Any + Send + Sync> {
        &self.owner
    }
}

impl Clone for MappedSlice {
    fn clone(&self) -> Self {
        Self {
            owner: Arc::clone(&self.owner),
            ptr: self.ptr,
            len: self.len,
        }
    }
}

impl std::fmt::Debug for MappedSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MappedSlice({} f32s)", self.len)
    }
}

/// Row-major `f32` storage that is either a shared heap vector or a view
/// into a memory-mapped file. The scan paths only ever call
/// [`RowStore::as_slice`], so both representations score bit-identically;
/// mutation goes through [`RowStore::to_mut`], which copies first when the
/// rows are shared or mapped (only a growing buffer is ever written, and it
/// is the sole holder of its rows until it seals).
#[derive(Debug, Clone)]
pub enum RowStore {
    /// Heap rows, shared copy-on-write between the clones of this store.
    Owned(Arc<Vec<f32>>),
    /// Zero-copy view into a mapping.
    Mapped(MappedSlice),
}

impl Default for RowStore {
    fn default() -> Self {
        RowStore::Owned(Arc::default())
    }
}

impl From<Vec<f32>> for RowStore {
    fn from(rows: Vec<f32>) -> Self {
        RowStore::Owned(Arc::new(rows))
    }
}

impl RowStore {
    /// An empty owned store (what every growing arena starts as).
    pub fn new() -> Self {
        Self::default()
    }

    /// All values as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        match self {
            RowStore::Owned(rows) => rows.as_slice(),
            RowStore::Mapped(view) => view.as_slice(),
        }
    }

    /// Number of `f32` values stored (rows × dim for an arena).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RowStore::Owned(rows) => rows.len(),
            RowStore::Mapped(view) => view.len,
        }
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the rows live in a mapping rather than on the heap.
    pub fn is_mapped(&self) -> bool {
        matches!(self, RowStore::Mapped(_))
    }

    /// Mutable access as a heap vector. Rows shared with another clone are
    /// copied first, and a mapped store is copied onto the heap (and stays
    /// owned thereafter) — mappings are read-only.
    pub fn to_mut(&mut self) -> &mut Vec<f32> {
        if let RowStore::Mapped(view) = self {
            *self = RowStore::from(view.as_slice().to_vec());
        }
        match self {
            RowStore::Owned(rows) => Arc::make_mut(rows),
            // lint:allow(panic, the arm above replaced any Mapped variant)
            RowStore::Mapped(_) => unreachable!("mapped store was just converted to owned"),
        }
    }

    /// Heap bytes held by this store: the full payload when owned (whether
    /// or not a clone shares it), zero when mapped (mapped rows are
    /// file-backed page cache, not heap).
    pub fn heap_bytes(&self) -> usize {
        match self {
            RowStore::Owned(rows) => rows.len() * std::mem::size_of::<f32>(),
            RowStore::Mapped(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a MappedSlice over an Arc'd Vec<f32>, the test stand-in for a
    /// file mapping (same ownership shape: bytes live as long as the Arc).
    /// The f32 backing buffer guarantees 4-byte alignment, which a Vec<u8>
    /// would not.
    fn mapped_from_f32s(values: &[f32]) -> (Arc<Vec<f32>>, MappedSlice) {
        let owner = Arc::new(values.to_vec());
        // SAFETY: reinterprets the owner's f32 buffer as its raw bytes —
        // same allocation, same length in bytes.
        let bytes: &[u8] = unsafe {
            std::slice::from_raw_parts(
                owner.as_ptr().cast::<u8>(),
                owner.len() * std::mem::size_of::<f32>(),
            )
        };
        // SAFETY: `bytes` borrows from the Vec inside `owner`, which the
        // returned view keeps alive; the Vec never reallocates after
        // construction here.
        let view = unsafe { MappedSlice::new(owner.clone() as Arc<dyn Any + Send + Sync>, bytes) }
            .expect("an f32 buffer is 4-byte aligned");
        (owner, view)
    }

    #[test]
    fn owned_and_mapped_expose_identical_slices() {
        let values = [1.0f32, -2.5, 3.25, 0.0, f32::MIN_POSITIVE];
        let owned = RowStore::from(values.to_vec());
        let (_owner, view) = mapped_from_f32s(&values);
        let mapped = RowStore::Mapped(view);
        assert_eq!(owned.as_slice(), mapped.as_slice());
        assert_eq!(owned.len(), mapped.len());
        assert!(!owned.is_mapped());
        assert!(mapped.is_mapped());
        assert_eq!(owned.heap_bytes(), values.len() * 4);
        assert_eq!(mapped.heap_bytes(), 0);
    }

    #[test]
    fn to_mut_copies_mapped_rows_onto_the_heap() {
        let values = [4.0f32, 5.0, 6.0];
        let (_owner, view) = mapped_from_f32s(&values);
        let mut store = RowStore::Mapped(view);
        store.to_mut().push(7.0);
        assert!(!store.is_mapped());
        assert_eq!(store.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn owned_clones_share_rows_until_one_is_written() {
        let mut written = RowStore::from(vec![1.0f32, 2.0]);
        let kept = written.clone();
        assert_eq!(written.as_slice().as_ptr(), kept.as_slice().as_ptr());
        written.to_mut().push(3.0);
        assert_eq!(kept.as_slice(), &[1.0, 2.0]);
        assert_eq!(written.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn misaligned_or_ragged_bytes_are_refused() {
        // f32 backing buffer so the base pointer is guaranteed 4-aligned;
        // offsetting it by one byte is then guaranteed misaligned.
        let buffer = Arc::new(vec![0.0f32; 16]);
        // SAFETY: raw byte view of the f32 buffer — same allocation.
        let bytes: &[u8] = unsafe { std::slice::from_raw_parts(buffer.as_ptr().cast::<u8>(), 64) };
        let owner: Arc<dyn Any + Send + Sync> = buffer.clone();
        // Length not a multiple of 4.
        // SAFETY: bytes borrow from the Arc'd Vec passed as owner.
        assert!(unsafe { MappedSlice::new(owner.clone(), &bytes[..33]) }.is_none());
        // Offset by one byte: misaligned for f32.
        // SAFETY: as above.
        assert!(unsafe { MappedSlice::new(owner.clone(), &bytes[1..33]) }.is_none());
        // Aligned whole-f32 window works.
        // SAFETY: as above.
        assert!(unsafe { MappedSlice::new(owner, &bytes[..32]) }.is_some());
    }

    #[test]
    fn clones_share_the_owner() {
        let (owner, view) = mapped_from_f32s(&[9.0f32; 16]);
        let a = RowStore::Mapped(view.clone());
        let b = RowStore::Mapped(view);
        drop(a);
        assert_eq!(b.as_slice(), &[9.0f32; 16]);
        // owner + the Arc inside b's view.
        assert!(Arc::strong_count(&owner) >= 2);
    }
}
