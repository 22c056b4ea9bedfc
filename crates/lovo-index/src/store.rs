//! Shared row storage for index arenas.
//!
//! The scan kernels don't care where their row-major `&[f32]` lives, so a
//! sealed segment's rows, the flat scan arena and the IVF rescore arena are
//! all one [`RowStore`]: a heap vector behind an `Arc`, shared
//! copy-on-write. Cloning a store clones the `Arc`, never the payload, so a
//! segment's retained rows and the index built over them are one
//! allocation.

// The row store hands every sealed segment's rows straight into the scan
// kernels; a panic here is a panic on the query path.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::Arc;

/// Row-major `f32` storage shared copy-on-write between its clones. The
/// scan paths only ever call [`RowStore::as_slice`]; mutation goes through
/// [`RowStore::to_mut`], which copies first when the rows are shared (only
/// a growing buffer is ever written, and it is the sole holder of its rows
/// until it seals).
#[derive(Debug, Clone, Default)]
pub struct RowStore {
    rows: Arc<Vec<f32>>,
}

impl From<Vec<f32>> for RowStore {
    fn from(rows: Vec<f32>) -> Self {
        Self {
            rows: Arc::new(rows),
        }
    }
}

impl RowStore {
    /// An empty store (what every growing arena starts as).
    pub fn new() -> Self {
        Self::default()
    }

    /// All values as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.rows.as_slice()
    }

    /// Number of `f32` values stored (rows × dim for an arena).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Mutable access to the rows. Rows shared with another clone are
    /// copied first.
    pub fn to_mut(&mut self) -> &mut Vec<f32> {
        Arc::make_mut(&mut self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_clones_share_rows_until_one_is_written() {
        let mut written = RowStore::from(vec![1.0f32, 2.0]);
        let kept = written.clone();
        assert_eq!(written.as_slice().as_ptr(), kept.as_slice().as_ptr());
        written.to_mut().push(3.0);
        assert_eq!(kept.as_slice(), &[1.0, 2.0]);
        assert_eq!(written.as_slice(), &[1.0, 2.0, 3.0]);
    }
}
