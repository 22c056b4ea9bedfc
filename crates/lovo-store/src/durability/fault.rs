//! Deterministic fault injection for the durability layer.
//!
//! A [`FaultPlan`] arms one-shot faults at named I/O points (see [`points`]);
//! the checked I/O helpers in the private `io` module consult the plan
//! before every write, fsync, and rename. Three actions model the
//! interesting failure shapes:
//!
//! * [`FaultAction::Fail`] — the call fails cleanly with an I/O error and
//!   writes nothing (a full disk, a permission flip). The store instance
//!   stays usable; callers may retry.
//! * [`FaultAction::ShortWrite`] — the first `n` bytes land, then the call
//!   fails with an I/O error (ENOSPC halfway through a buffer).
//! * [`FaultAction::CrashAfter`] — the first `n` bytes land, then the call
//!   returns [`StorageError::InjectedCrash`]. Tests treat this as `kill -9`:
//!   they drop the store instance without further syncs and reopen from
//!   disk, which sees exactly the bytes that made it through — a torn write.
//!
//! Fault checks are compiled into debug builds and behind the `failpoints`
//! feature; `cargo build --release` without the feature compiles them out of
//! the I/O paths entirely (see `io::fault_check`).
//!
//! [`StorageError::InjectedCrash`]: crate::durability::StorageError::InjectedCrash

use parking_lot::Mutex;

/// Named I/O points where faults can be injected. The constant's value is
/// the string tests pass to [`FaultPlan::inject`] and the string reported in
/// errors and the trigger log.
pub mod points {
    /// Creating + header-writing a fresh WAL file.
    pub const WAL_CREATE: &str = "wal.create";
    /// Appending one record to the WAL.
    pub const WAL_APPEND: &str = "wal.append";
    /// Fsyncing the WAL after an append (the acknowledgement point).
    pub const WAL_SYNC: &str = "wal.sync";
    /// Writing a sealed segment's temp file during a seal.
    pub const SEGMENT_WRITE: &str = "segment.write";
    /// Fsyncing a sealed segment's temp file.
    pub const SEGMENT_SYNC: &str = "segment.sync";
    /// Renaming a sealed segment's temp file into place.
    pub const SEGMENT_RENAME: &str = "segment.rename";
    /// Writing a merged segment's temp file during compaction.
    pub const COMPACT_SEGMENT_WRITE: &str = "compact.segment.write";
    /// Writing the manifest's temp file.
    pub const MANIFEST_WRITE: &str = "manifest.write";
    /// Fsyncing the manifest's temp file.
    pub const MANIFEST_SYNC: &str = "manifest.sync";
    /// Renaming the manifest's temp file over the live manifest (the swap).
    pub const MANIFEST_RENAME: &str = "manifest.rename";
}

/// What happens when an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails with an I/O error before touching the file.
    Fail,
    /// The first `n` bytes are written, then the operation fails with an
    /// I/O error. Only meaningful at write points; at sync/rename points it
    /// behaves like [`FaultAction::Fail`].
    ShortWrite(usize),
    /// The first `n` bytes are written, then the operation returns
    /// [`crate::durability::StorageError::InjectedCrash`] — the simulated
    /// `kill -9`.
    CrashAfter(usize),
}

#[derive(Debug)]
struct Injection {
    point: String,
    /// Occurrences of the point to let pass before firing.
    skip: usize,
    action: FaultAction,
    spent: bool,
}

/// A deterministic set of armed one-shot faults plus a log of which fired.
///
/// Plans are `Sync`; tests share one `Arc<FaultPlan>` between the store
/// under test and their assertions.
#[derive(Debug, Default)]
pub struct FaultPlan {
    injections: Mutex<Vec<Injection>>,
    triggered: Mutex<Vec<String>>,
}

impl FaultPlan {
    /// An empty plan (no faults armed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a one-shot fault at the next occurrence of `point`.
    pub fn inject(&self, point: &str, action: FaultAction) {
        self.inject_nth(point, 0, action);
    }

    /// Arms a one-shot fault at the `skip`-th *subsequent* occurrence of
    /// `point` (0 = the next one). This is how a test targets, say, the
    /// third WAL append of a workload.
    pub fn inject_nth(&self, point: &str, skip: usize, action: FaultAction) {
        self.injections.lock().push(Injection {
            point: point.to_string(),
            skip,
            action,
            spent: false,
        });
    }

    /// Consumes and returns the armed action for `point`, if one fires now.
    /// Called by the checked I/O helpers; decrements skip counters as a side
    /// effect, so every call represents one occurrence of the point.
    pub fn take(&self, point: &str) -> Option<FaultAction> {
        let mut injections = self.injections.lock();
        for injection in injections.iter_mut() {
            if injection.spent || injection.point != point {
                continue;
            }
            if injection.skip > 0 {
                injection.skip -= 1;
                continue;
            }
            injection.spent = true;
            let action = injection.action;
            drop(injections);
            self.triggered.lock().push(point.to_string());
            return Some(action);
        }
        None
    }

    /// The points whose faults have fired, in firing order. Tests assert on
    /// this to prove the fault they armed actually exercised the code path.
    pub fn triggered(&self) -> Vec<String> {
        self.triggered.lock().clone()
    }

    /// Number of armed faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.injections
            .lock()
            .iter()
            .filter(|injection| !injection.spent)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fires_once() {
        let plan = FaultPlan::new();
        plan.inject(points::WAL_APPEND, FaultAction::Fail);
        assert_eq!(plan.pending(), 1);
        assert_eq!(plan.take(points::WAL_SYNC), None);
        assert_eq!(plan.take(points::WAL_APPEND), Some(FaultAction::Fail));
        assert_eq!(plan.take(points::WAL_APPEND), None);
        assert_eq!(plan.triggered(), vec![points::WAL_APPEND.to_string()]);
        assert_eq!(plan.pending(), 0);
    }

    #[test]
    fn skip_counter_targets_the_nth_occurrence() {
        let plan = FaultPlan::new();
        plan.inject_nth(points::SEGMENT_WRITE, 2, FaultAction::CrashAfter(10));
        assert_eq!(plan.take(points::SEGMENT_WRITE), None);
        assert_eq!(plan.take(points::SEGMENT_WRITE), None);
        assert_eq!(
            plan.take(points::SEGMENT_WRITE),
            Some(FaultAction::CrashAfter(10))
        );
        assert_eq!(plan.take(points::SEGMENT_WRITE), None);
    }

    #[test]
    fn independent_points_coexist() {
        let plan = FaultPlan::new();
        plan.inject(points::MANIFEST_RENAME, FaultAction::Fail);
        plan.inject(points::WAL_SYNC, FaultAction::ShortWrite(3));
        assert_eq!(
            plan.take(points::WAL_SYNC),
            Some(FaultAction::ShortWrite(3))
        );
        assert_eq!(plan.take(points::MANIFEST_RENAME), Some(FaultAction::Fail));
        assert_eq!(plan.triggered().len(), 2);
    }
}
