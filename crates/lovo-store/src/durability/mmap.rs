//! Read-only memory mapping of sealed segment files.
//!
//! The mmap read path (PR 9) serves sealed-segment vector payloads straight
//! from page-cache-backed file bytes instead of heap copies. This module is
//! the only place the store touches the virtual-memory syscalls; everything
//! above it deals in [`Mapping`] handles and plain `&[u8]` views.
//!
//! The workspace builds offline (no crates.io), so the Linux syscalls are
//! declared `extern "C"` against the system libc the binary already links.
//! On non-Linux platforms (or non-little-endian targets, whose in-memory
//! `f32` layout would not match the little-endian file encoding)
//! [`Mapping::map_file`] returns an error and callers degrade to the heap
//! load path — mmap is an optimization, never a requirement.
//!
//! Lifetime contract: a [`Mapping`] unmaps in `Drop`. Readers hand out views
//! that hold an `Arc<Mapping>`, so the address range stays valid for as long
//! as any view is alive, and dropping the last view (e.g. when compaction
//! retires a segment) unmaps *before* the store deletes the file.

use super::fault::points;
use super::io::{self, Faults};
use super::StorageError;
use std::path::Path;
use std::sync::Arc;

/// Whether this build can map segment files at all (Linux, little-endian).
/// Callers use this to pick defaults; [`Mapping::map_file`] re-checks and
/// fails gracefully regardless.
pub const MMAP_SUPPORTED: bool = cfg!(all(target_os = "linux", target_endian = "little"));

#[cfg(all(target_os = "linux", target_endian = "little"))]
mod sys {
    //! Raw libc declarations and constants (x86-64 / aarch64 Linux values;
    //! both architectures share these).
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_SHARED: c_int = 0x01;
    pub const MAP_POPULATE: c_int = 0x8000;
    pub const MADV_WILLNEED: c_int = 3;
    pub const MADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
    }
}

#[cfg(not(all(target_os = "linux", target_endian = "little")))]
mod sys {
    //! Placeholder advice constants so the advisory entry points type-check
    //! on platforms where no mapping can exist.
    pub const MADV_WILLNEED: i32 = 0;
    pub const MADV_DONTNEED: i32 = 0;
}

/// A read-only, shared memory mapping of one file. Unmapped on drop.
///
/// `Send + Sync` is sound because the mapping is `PROT_READ`: no writer
/// exists, so concurrent reads from any thread observe the immutable file
/// bytes (segment files are written once via atomic rename and never
/// modified in place).
#[derive(Debug)]
pub struct Mapping {
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(all(target_os = "linux", target_endian = "little"))]
// The mapping is PROT_READ and backed by an immutable, atomically renamed
// file; no &mut access is ever handed out.
// SAFETY: read-only mapping of immutable bytes — cross-thread reads are
// data-race-free.
unsafe impl Send for Mapping {}
#[cfg(all(target_os = "linux", target_endian = "little"))]
// SAFETY: see the Send impl — read-only mapping of immutable bytes.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only. `populate` asks the kernel to pre-fault the
    /// whole range (`MAP_POPULATE`), trading open latency for warm first
    /// queries. Honours a fault armed at [`points::SEGMENT_MMAP`]; any
    /// failure (injected or real) is an I/O-class error the caller treats
    /// as "fall back to heap", never as corruption.
    pub fn map_file(
        path: &Path,
        populate: bool,
        faults: &Faults,
    ) -> Result<Arc<Self>, StorageError> {
        if io::fault_check(faults, points::SEGMENT_MMAP).is_some() {
            return Err(StorageError::Io {
                context: format!("injected fault at {}", points::SEGMENT_MMAP),
                source: std::io::Error::other("injected mmap fault"),
            });
        }
        Self::map_file_raw(path, populate)
    }

    #[cfg(all(target_os = "linux", target_endian = "little"))]
    fn map_file_raw(path: &Path, populate: bool) -> Result<Arc<Self>, StorageError> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)
            .map_err(|e| io::io_err(format!("open of {}", path.display()), e))?;
        let len = file
            .metadata()
            .map_err(|e| io::io_err(format!("stat of {}", path.display()), e))?
            .len() as usize;
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty file has nothing to map.
            return Err(StorageError::Io {
                context: format!("mmap of {}", path.display()),
                source: std::io::Error::other("cannot map an empty file"),
            });
        }
        let flags = if populate {
            sys::MAP_SHARED | sys::MAP_POPULATE
        } else {
            sys::MAP_SHARED
        };
        // addr = null lets the kernel choose a page-aligned address, and the
        // fd may be closed after mmap returns — the mapping keeps its own
        // reference.
        // SAFETY: fd is a valid open descriptor, len is its nonzero on-disk
        // size, and PROT_READ/MAP_SHARED creates no aliasing writers.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                flags,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(StorageError::Io {
                context: format!("mmap of {}", path.display()),
                source: std::io::Error::last_os_error(),
            });
        }
        Ok(Arc::new(Self { ptr, len }))
    }

    #[cfg(not(all(target_os = "linux", target_endian = "little")))]
    fn map_file_raw(path: &Path, _populate: bool) -> Result<Arc<Self>, StorageError> {
        Err(StorageError::Io {
            context: format!("mmap of {}", path.display()),
            source: std::io::Error::other(
                "mmap segment reads are only supported on little-endian Linux",
            ),
        })
    }

    /// Length of the mapped range in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is mapped (never the case for a live mapping; kept
    /// for API completeness alongside [`Mapping::len`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file bytes.
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self —
        // valid, initialized file bytes, immutable until Drop unmaps them.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// The mapped file bytes (unsupported-platform stub; unreachable because
    /// no `Mapping` can be constructed there).
    #[cfg(not(all(target_os = "linux", target_endian = "little")))]
    pub fn bytes(&self) -> &[u8] {
        &[]
    }

    /// Asks the kernel to fault the whole mapping in (`MADV_WILLNEED`) —
    /// the warm-up hint. Returns the number of bytes advised (0 when the
    /// hint failed or was faulted out); advisory, so errors are swallowed.
    pub fn advise_willneed(&self, faults: &Faults) -> usize {
        self.advise(sys::MADV_WILLNEED, faults)
    }

    /// Asks the kernel to drop the mapping's resident pages
    /// (`MADV_DONTNEED`) — the larger-than-RAM churn knob: a read-only
    /// file mapping loses only clean page-cache copies, never data.
    /// Returns bytes advised; advisory, errors swallowed.
    pub fn advise_dontneed(&self, faults: &Faults) -> usize {
        self.advise(sys::MADV_DONTNEED, faults)
    }

    #[cfg(all(target_os = "linux", target_endian = "little"))]
    fn advise(&self, advice: std::os::raw::c_int, faults: &Faults) -> usize {
        if io::fault_check(faults, points::SEGMENT_MADVISE).is_some() {
            // Advisory path: an injected failure is simply "the kernel
            // ignored the hint" — the caller proceeds either way.
            return 0;
        }
        // SAFETY: ptr/len describe a live mapping owned by self; madvise on
        // a PROT_READ file mapping only tunes paging, never its contents.
        let rc = unsafe { sys::madvise(self.ptr, self.len, advice) };
        if rc == 0 {
            self.len
        } else {
            0
        }
    }

    #[cfg(not(all(target_os = "linux", target_endian = "little")))]
    fn advise(&self, _advice: i32, faults: &Faults) -> usize {
        let _ = io::fault_check(faults, points::SEGMENT_MADVISE);
        0
    }

    /// Number of mapped bytes currently resident in physical memory, via
    /// `mincore`. Best-effort: returns 0 when the probe fails.
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    pub fn resident_bytes(&self) -> usize {
        let page = 4096usize; // worst-case probe granularity; see below
        let pages = self.len.div_ceil(page);
        let mut residency = vec![0u8; pages];
        // For kernels with pages larger than 4 KiB the vector is over-long,
        // which is harmless — the kernel writes the first len/page_size
        // entries.
        // SAFETY: ptr/len describe a live mapping owned by self, and the
        // residency vector has one byte per page as mincore requires.
        let rc = unsafe { sys::mincore(self.ptr, self.len, residency.as_mut_ptr()) };
        if rc != 0 {
            return 0;
        }
        let resident_pages = residency.iter().filter(|&&b| b & 1 != 0).count();
        (resident_pages * page).min(self.len)
    }

    /// Resident-byte probe (unsupported-platform stub).
    #[cfg(not(all(target_os = "linux", target_endian = "little")))]
    pub fn resident_bytes(&self) -> usize {
        0
    }
}

#[cfg(all(target_os = "linux", target_endian = "little"))]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped only
        // here; no view outlives self (every view holds an Arc<Mapping>).
        unsafe {
            let _ = sys::munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_file(tag: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("lovo-mmap-{tag}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    fn maps_and_reads_file_bytes() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let path = scratch_file("read", &data);
        let mapping = Mapping::map_file(&path, false, &None).unwrap();
        assert_eq!(mapping.len(), data.len());
        assert_eq!(mapping.bytes(), &data[..]);
        // Advisory calls succeed on a live mapping and report the range.
        assert_eq!(mapping.advise_willneed(&None), data.len());
        assert!(mapping.resident_bytes() <= mapping.len().next_multiple_of(4096));
        assert_eq!(mapping.advise_dontneed(&None), data.len());
        drop(mapping);
        // The file can be removed after unmap (and, on Linux, even before).
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg(all(target_os = "linux", target_endian = "little"))]
    fn populate_prefaults_the_range() {
        let data = vec![7u8; 1 << 16];
        let path = scratch_file("populate", &data);
        let mapping = Mapping::map_file(&path, true, &None).unwrap();
        // MAP_POPULATE faulted the range in; every page should be resident.
        assert_eq!(mapping.resident_bytes(), mapping.len());
        drop(mapping);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_missing_files_fail_cleanly() {
        let path = scratch_file("empty", b"");
        assert!(Mapping::map_file(&path, false, &None).is_err());
        let _ = std::fs::remove_file(&path);
        let missing = std::env::temp_dir().join("lovo-mmap-definitely-missing");
        assert!(Mapping::map_file(&missing, false, &None).is_err());
    }

    #[cfg(any(debug_assertions, feature = "failpoints"))]
    #[test]
    fn injected_mmap_fault_fails_the_map_call() {
        use super::super::fault::{FaultAction, FaultPlan};
        let data = vec![1u8; 4096];
        let path = scratch_file("fault", &data);
        let plan = std::sync::Arc::new(FaultPlan::new());
        plan.inject(points::SEGMENT_MMAP, FaultAction::Fail);
        let faults: Faults = Some(plan.clone());
        assert!(Mapping::map_file(&path, false, &faults).is_err());
        assert_eq!(plan.triggered(), vec![points::SEGMENT_MMAP.to_string()]);
        // One-shot: the next map succeeds (on supported platforms).
        if MMAP_SUPPORTED {
            assert!(Mapping::map_file(&path, false, &faults).is_ok());
        }
        let _ = std::fs::remove_file(&path);
    }
}
