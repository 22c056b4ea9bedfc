//! The lint families: each submodule implements one composable pass over the
//! parsed workspace and returns [`crate::Finding`]s.

pub mod index;
pub mod invariants;
pub mod locks;

use crate::model::ParsedFile;
use crate::{Finding, Severity};

/// True when `path` (workspace-relative, `/`-separated) falls under any of
/// the configured path prefixes/suffix patterns. A pattern matches when the
/// normalized path contains it as a substring — patterns are written like
/// `crates/lovo-serve/src/service.rs` or `crates/lovo-index/src`.
pub(crate) fn path_matches(path: &std::path::Path, patterns: &[String]) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    patterns.iter().any(|p| normalized.contains(p.as_str()))
}

/// Records a finding unless a `lint:allow(<lint>, …)` marker covers `line`.
pub(crate) fn push_unless_allowed(
    file: &ParsedFile,
    lint: &'static str,
    line: u32,
    severity: Severity,
    message: String,
    findings: &mut Vec<Finding>,
) {
    if file.allow_for(lint, line).is_some() {
        return;
    }
    findings.push(Finding {
        file: file.path.clone(),
        line,
        lint,
        severity,
        message,
    });
}
