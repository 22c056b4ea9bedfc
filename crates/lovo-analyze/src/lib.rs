//! Workspace-aware static analysis for the LOVO codebase.
//!
//! `lovo-analyze` is a dependency-free analyzer (its Rust lexer is
//! hand-rolled, see [`lexer`]) with three lint families:
//!
//! - **lock-order** ([`lints::locks`]) — extracts per-function
//!   lock-acquisition sequences, builds an inter-procedural lock-order graph
//!   through the call graph, and reports cycles (potential deadlocks) and
//!   orders contradicting the hierarchy documented in ARCHITECTURE.md.
//! - **panic / index** ([`lints::panics`]) — denies `unwrap`/`expect`/
//!   `panic!`-family macros and unchecked slice indexing in designated
//!   always-on modules (the serve tier, the executor, the index scan
//!   kernels).
//! - **float-sort / stats-merge / safety-comment** ([`lints::invariants`]) —
//!   total-order float comparators, full field coverage in stats `merge`
//!   bodies, and `// SAFETY:` comments on `unsafe`.
//!
//! Intentional violations are suppressed inline with
//! `// lint:allow(<lint>, <reason>)` on the offending line or the line
//! above; the reason is mandatory.
//!
//! Run it as the CI gate with
//! `cargo run -p lovo-analyze --release -- --deny-warnings`, or embed it:
//!
//! ```
//! use lovo_analyze::lints::locks::LockConfig;
//! use lovo_analyze::lints::panics::PanicConfig;
//! use lovo_analyze::{analyze, Config, Workspace};
//! use std::path::PathBuf;
//!
//! let config = Config {
//!     panics: PanicConfig {
//!         panic_paths: vec!["demo.rs".to_string()],
//!         index_paths: vec![],
//!     },
//!     locks: LockConfig { hierarchy: vec![] },
//!     stats: vec![],
//! };
//! let source = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
//! let ws = Workspace::from_sources(vec![(PathBuf::from("demo.rs"), source.to_string())]);
//! let findings = analyze(&ws, &config);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].lint, "panic");
//! ```

pub mod lexer;
pub mod lints;
pub mod model;

use lints::invariants::StatsPair;
use lints::locks::LockConfig;
use lints::panics::PanicConfig;
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
    /// Panic-audit scope.
    pub panics: PanicConfig,
    /// Documented lock hierarchy.
    pub locks: LockConfig,
    /// Stats structs whose merge coverage is enforced.
    pub stats: Vec<StatsPair>,
}

/// The default configuration for this repository: panic-denied modules are
/// the serve tier, the executor, the rerank scorer, the index scan kernels,
/// the metadata table and the ingest path (motion fields, key frames,
/// k-means); the covered stats structs are
/// `SearchStats`/`ServeStats`/`IngestStats`; the lock hierarchy
/// is whatever `hierarchy` pairs the caller parsed from
/// ARCHITECTURE.md (see [`parse_hierarchy_doc`]).
pub fn default_config(hierarchy: &[(String, String)]) -> Config {
    Config {
        panics: PanicConfig {
            panic_paths: vec![
                "lovo-serve/src".to_string(),
                "lovo-core/src/exec.rs".to_string(),
                // The rerank scorer runs where the executor runs: on
                // `QueryService` workers and submitting threads.
                "lovo-encoder/src/cross_modality.rs".to_string(),
                "lovo-index/src/flat.rs".to_string(),
                "lovo-index/src/ivf.rs".to_string(),
                "lovo-index/src/hnsw.rs".to_string(),
                "lovo-index/src/pq.rs".to_string(),
                // The durability layer: recovery code that panics on a
                // corrupt byte defeats its whole purpose — every parse
                // failure must surface as a typed StorageError (quarantine,
                // truncate, or report) instead.
                "lovo-store/src/durability".to_string(),
                // The row store hands every sealed segment's rows straight
                // into the scan kernels above; a panic here is a panic on the
                // query path.
                "lovo-index/src/store.rs".to_string(),
                // The metadata table runs inside every filtered query's
                // resolve and every hit's join, and the postings it shares
                // are tested inside the scans.
                "lovo-store/src/metadata.rs".to_string(),
                // Ingest: key-frame selection inside every `add_videos`, and
                // the codebook training every seal runs — also on the
                // `QueryService` maintenance thread (seal, compaction), where
                // a panic would end maintenance for good.
                "lovo-video/src/motion.rs".to_string(),
                "lovo-video/src/keyframe.rs".to_string(),
                "lovo-index/src/kmeans.rs".to_string(),
            ],
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
        stats: vec![
            StatsPair {
                struct_name: "SearchStats".to_string(),
                merge_fn: "merge".to_string(),
            },
            StatsPair {
                struct_name: "ServeStats".to_string(),
                merge_fn: "merge".to_string(),
            },
            StatsPair {
                struct_name: "IngestStats".to_string(),
                merge_fn: "accumulate".to_string(),
            },
        ],
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
        lints::panics::check(file, &config.panics, &mut findings);
        lints::invariants::check_file(file, &mut findings);
    }
    lints::invariants::check_stats_merge(&ws.files, &config.stats, &mut findings);
    lints::locks::check(&ws.files, &config.locks, &mut findings);

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}
