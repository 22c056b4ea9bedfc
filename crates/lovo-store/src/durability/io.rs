//! Checked file I/O: every write, fsync, and rename the durability layer
//! performs goes through these helpers, which consult the armed
//! [`FaultPlan`] (debug builds / `failpoints` feature only) and map OS
//! errors to typed [`StorageError`]s with the failing path in the message.
//!
//! The core primitive is [`write_file_atomic`]: build the bytes in memory,
//! write them to `<dst>.tmp`, fsync the file, rename over `dst`, fsync the
//! parent directory. A crash at any instant leaves either the old `dst`
//! (possibly plus a garbage `.tmp` that recovery deletes) or the complete
//! new one — never a torn visible file.

use super::fault::{FaultAction, FaultPlan};
use super::StorageError;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// The optional fault plan threaded through every I/O call.
pub(crate) type Faults = Option<Arc<FaultPlan>>;

/// Consults the fault plan for `point`. Compiled to a no-op in release
/// builds without the `failpoints` feature, so the production I/O paths
/// carry no injection branches.
#[inline]
pub(crate) fn fault_check(faults: &Faults, point: &'static str) -> Option<FaultAction> {
    #[cfg(any(debug_assertions, feature = "failpoints"))]
    {
        faults.as_ref().and_then(|plan| plan.take(point))
    }
    #[cfg(not(any(debug_assertions, feature = "failpoints")))]
    {
        let _ = (faults, point);
        None
    }
}

fn injected_io_error(point: &'static str) -> StorageError {
    StorageError::Io {
        context: format!("injected fault at {point}"),
        source: std::io::Error::other("injected I/O fault"),
    }
}

/// Wraps an OS error with the operation and path that hit it.
pub(crate) fn io_err(context: impl Into<String>, source: std::io::Error) -> StorageError {
    StorageError::Io {
        context: context.into(),
        source,
    }
}

/// Writes `buf` to `file`, honouring any fault armed at `point`: `Fail`
/// writes nothing, `ShortWrite(n)`/`CrashAfter(n)` land the first `n` bytes
/// before failing — the torn-write shapes the recovery tests exercise.
pub(crate) fn write_all(
    file: &mut File,
    buf: &[u8],
    path: &Path,
    point: &'static str,
    faults: &Faults,
) -> Result<(), StorageError> {
    match fault_check(faults, point) {
        Some(FaultAction::Fail) => return Err(injected_io_error(point)),
        Some(action) => {
            let n = match action {
                FaultAction::ShortWrite(n) | FaultAction::CrashAfter(n) => n.min(buf.len()),
                FaultAction::Fail => 0,
            };
            if let Some(prefix) = buf.get(..n) {
                // Land the partial bytes the way a real crash would: whatever
                // the process flushed before dying is what the reopened store
                // sees on disk.
                file.write_all(prefix)
                    .map_err(|e| io_err(format!("partial write to {}", path.display()), e))?;
                let _ = file.flush();
            }
            return Err(match action {
                FaultAction::CrashAfter(_) => StorageError::InjectedCrash { point },
                _ => injected_io_error(point),
            });
        }
        None => {}
    }
    file.write_all(buf)
        .map_err(|e| io_err(format!("write to {}", path.display()), e))
}

/// Fsyncs `file`. A fault armed at `point` fails the sync (any action —
/// syncs cannot short-write); `CrashAfter` maps to
/// [`StorageError::InjectedCrash`], the rest to an I/O error.
pub(crate) fn sync_file(
    file: &File,
    path: &Path,
    point: &'static str,
    faults: &Faults,
) -> Result<(), StorageError> {
    match fault_check(faults, point) {
        Some(FaultAction::CrashAfter(_)) => return Err(StorageError::InjectedCrash { point }),
        Some(_) => return Err(injected_io_error(point)),
        None => {}
    }
    file.sync_all()
        .map_err(|e| io_err(format!("fsync of {}", path.display()), e))
}

/// Renames `from` to `to` (atomic within a filesystem). A fault armed at
/// `point` fails before the rename executes.
pub(crate) fn rename(
    from: &Path,
    to: &Path,
    point: &'static str,
    faults: &Faults,
) -> Result<(), StorageError> {
    match fault_check(faults, point) {
        Some(FaultAction::CrashAfter(_)) => return Err(StorageError::InjectedCrash { point }),
        Some(_) => return Err(injected_io_error(point)),
        None => {}
    }
    std::fs::rename(from, to)
        .map_err(|e| io_err(format!("rename {} -> {}", from.display(), to.display()), e))
}

/// Fsyncs the directory containing `path`, making a completed rename
/// durable. Best-effort on platforms where directories cannot be opened.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), StorageError> {
    let Some(parent) = path.parent() else {
        return Ok(());
    };
    match File::open(parent) {
        Ok(dir) => dir
            .sync_all()
            .map_err(|e| io_err(format!("fsync of directory {}", parent.display()), e)),
        // Opening a directory read-only can fail on exotic platforms; the
        // rename itself already succeeded, so degrade to OS-buffered.
        Err(_) => Ok(()),
    }
}

/// Writes `bytes` to `dst` atomically: temp file, fsync, rename, directory
/// fsync. The three fault points let tests kill the sequence at each stage.
pub(crate) fn write_file_atomic(
    dst: &Path,
    bytes: &[u8],
    write_point: &'static str,
    sync_point: &'static str,
    rename_point: &'static str,
    faults: &Faults,
) -> Result<(), StorageError> {
    let tmp = temp_path(dst);
    let mut file =
        File::create(&tmp).map_err(|e| io_err(format!("create of {}", tmp.display()), e))?;
    write_all(&mut file, bytes, &tmp, write_point, faults)?;
    sync_file(&file, &tmp, sync_point, faults)?;
    drop(file);
    rename(&tmp, dst, rename_point, faults)?;
    sync_parent_dir(dst)
}

/// The temp-file path used by [`write_file_atomic`]: `<dst>.tmp`. Recovery
/// deletes stray `.tmp` files on open — they are by construction invisible,
/// unreferenced leftovers of an interrupted write.
pub(crate) fn temp_path(dst: &Path) -> std::path::PathBuf {
    let mut name = dst.as_os_str().to_os_string();
    name.push(".tmp");
    std::path::PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    #[cfg(any(debug_assertions, feature = "failpoints"))]
    use super::super::fault::points;
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lovo-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_round_trips() {
        let dir = scratch_dir("atomic");
        let dst = dir.join("file.bin");
        write_file_atomic(&dst, b"hello", "w", "s", "r", &None).unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"hello");
        // Overwrite is atomic too.
        write_file_atomic(&dst, b"goodbye", "w", "s", "r", &None).unwrap();
        assert_eq!(std::fs::read(&dst).unwrap(), b"goodbye");
        assert!(!temp_path(&dst).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(any(debug_assertions, feature = "failpoints"))]
    #[test]
    fn short_write_fault_leaves_a_torn_temp_file_only() {
        let dir = scratch_dir("short");
        let dst = dir.join("file.bin");
        let plan = Arc::new(FaultPlan::new());
        plan.inject(points::SEGMENT_WRITE, FaultAction::ShortWrite(3));
        let faults: Faults = Some(plan.clone());
        let err = write_file_atomic(
            &dst,
            b"hello world",
            points::SEGMENT_WRITE,
            points::SEGMENT_SYNC,
            points::SEGMENT_RENAME,
            &faults,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err:?}");
        // The destination never appeared; only the torn temp file exists.
        assert!(!dst.exists());
        assert_eq!(std::fs::read(temp_path(&dst)).unwrap(), b"hel");
        assert_eq!(plan.triggered(), vec![points::SEGMENT_WRITE.to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(any(debug_assertions, feature = "failpoints"))]
    #[test]
    fn rename_fault_fails_cleanly() {
        let dir = scratch_dir("rename");
        let dst = dir.join("file.bin");
        let plan = Arc::new(FaultPlan::new());
        plan.inject(points::MANIFEST_RENAME, FaultAction::CrashAfter(0));
        let faults: Faults = Some(plan);
        let err = write_file_atomic(
            &dst,
            b"data",
            points::MANIFEST_WRITE,
            points::MANIFEST_SYNC,
            points::MANIFEST_RENAME,
            &faults,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::InjectedCrash { .. }));
        assert!(!dst.exists());
        assert!(temp_path(&dst).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
