//! Workspace-aware static analysis for the LOVO codebase.
//!
//! `lovo-analyze` is a dependency-free analyzer (its Rust lexer is
//! hand-rolled, see [`lexer`]) with three lint families:
//!
//! - **lock-order** ([`lints::locks`]) — extracts per-function
//!   lock-acquisition sequences, builds an inter-procedural lock-order graph
//!   through the call graph, and reports cycles (potential deadlocks) and
//!   orders contradicting the hierarchy documented in ARCHITECTURE.md.
//! - **index** ([`lints::index`]) — denies unchecked indexing of slices,
//!   `Vec`s and maps alike in designated always-on modules (the serve tier,
//!   the executor, the metadata table, the motion fields).
//!   `unwrap`/`expect`/`panic!` there are clippy's to deny: each always-on
//!   module carries `#![deny(clippy::unwrap_used, …)]`.
//! - **float-sort / safety-comment** ([`lints::invariants`]) — total-order
//!   float comparators and `// SAFETY:` comments on `unsafe`.
//!
//! Intentional violations are suppressed inline with
//! `// lint:allow(<lint>, <reason>)` on the offending line or the line
//! above; the reason is mandatory.
//!
//! Run it as the CI gate with
//! `cargo run -p lovo-analyze --release -- --deny-warnings`, or embed it:
//!
//! ```
//! use lovo_analyze::lints::index::IndexConfig;
//! use lovo_analyze::lints::locks::LockConfig;
//! use lovo_analyze::{analyze, Config, Workspace};
//! use std::path::PathBuf;
//!
//! let config = Config {
//!     index: IndexConfig {
//!         index_paths: vec!["demo.rs".to_string()],
//!     },
//!     locks: LockConfig { hierarchy: vec![] },
//! };
//! let source = "fn f(v: &[u32]) -> u32 { v[0] }";
//! let ws = Workspace::from_sources(vec![(PathBuf::from("demo.rs"), source.to_string())]);
//! let findings = analyze(&ws, &config);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, "index");
//! ```

pub mod lexer;
pub mod lints;
pub mod model;

use lints::index::IndexConfig;
use lints::locks::LockConfig;
use model::ParsedFile;
use std::path::{Path, PathBuf};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory; fails the build only under `--deny-warnings`.
    Warning,
    /// Always fails the build.
    Error,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is anchored in.
    pub file: PathBuf,
    /// 1-based line (0 for file/workspace-level findings).
    pub line: u32,
    /// Lint name, matching the allow-marker vocabulary.
    pub lint: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description with the suggested fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{sev}[{lint}] {file}:{line}: {msg}",
            lint = self.lint,
            file = self.file.display(),
            line = self.line,
            msg = self.message
        )
    }
}

/// The full analyzer configuration.
pub struct Config {
    /// Index-audit scope.
    pub index: IndexConfig,
    /// Documented lock hierarchy.
    pub locks: LockConfig,
}

/// The default configuration for this repository: index-denied modules are
/// the serve tier's service and cache, the executor, the metadata table and
/// the motion fields; the lock hierarchy is whatever `hierarchy` pairs the
/// caller parsed from ARCHITECTURE.md (see [`parse_hierarchy_doc`]).
pub fn default_config(hierarchy: &[(String, String)]) -> Config {
    Config {
        index: IndexConfig {
            index_paths: vec![
                "lovo-serve/src/service.rs".to_string(),
                "lovo-serve/src/cache.rs".to_string(),
                "lovo-core/src/exec.rs".to_string(),
                // Positions into the table come from its own directory, but
                // a wrong one must cost an answer, not a worker.
                "lovo-store/src/metadata.rs".to_string(),
                // Noise-window and per-block claim lookups use `get`.
                "lovo-video/src/motion.rs".to_string(),
            ],
        },
        locks: LockConfig {
            hierarchy: hierarchy.to_vec(),
        },
    }
}

/// A parsed set of source files to analyze together.
pub struct Workspace {
    /// The parsed files.
    pub files: Vec<ParsedFile>,
}

impl Workspace {
    /// Parses in-memory sources — the fixture-test entry point.
    pub fn from_sources(sources: Vec<(PathBuf, String)>) -> Self {
        Workspace {
            files: sources
                .into_iter()
                .map(|(path, src)| ParsedFile::parse(path, &src))
                .collect(),
        }
    }

    /// Loads and parses every `.rs` file under `crates/*/src` and `src/`
    /// relative to `root`. Paths in findings are workspace-relative.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut paths = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for crate_dir in crate_dirs {
                collect_rs(&crate_dir.join("src"), &mut paths)?;
            }
        }
        collect_rs(&root.join("src"), &mut paths)?;
        let mut files = Vec::new();
        for path in paths {
            let source = std::fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(ParsedFile::parse(rel, &source));
        }
        Ok(Workspace { files })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Extracts the documented lock hierarchy from a markdown document: the
/// fenced code block tagged `lock-order`, one `A -> B` pair per line
/// (`#`-prefixed lines inside the block are comments).
pub fn parse_hierarchy_doc(markdown: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let mut in_block = false;
    for line in markdown.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            if in_block {
                in_block = false;
            } else if trimmed.trim_start_matches('`').trim() == "lock-order" {
                in_block = true;
            }
            continue;
        }
        if !in_block || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some((from, to)) = trimmed.split_once("->") {
            pairs.push((from.trim().to_string(), to.trim().to_string()));
        }
    }
    pairs
}

/// Runs every lint family over the workspace and returns the findings,
/// sorted by file then line.
pub fn analyze(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Allow markers must carry a reason — an empty one is itself a finding.
    for file in &ws.files {
        for marker in &file.allows {
            if marker.reason.is_empty() {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: marker.end_line,
                    lint: "allow-reason",
                    severity: Severity::Error,
                    message: format!(
                        "`lint:allow({})` without a reason — write \
                         `// lint:allow({}, why this is sound)`",
                        marker.name, marker.name
                    ),
                });
            }
        }
    }

    for file in &ws.files {
        lints::index::check(file, &config.index, &mut findings);
        lints::invariants::check_file(file, &mut findings);
    }
    lints::locks::check(&ws.files, &config.locks, &mut findings);

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}
