//! CLI entry point: walks the workspace, runs every lint, prints findings,
//! and exits nonzero when the build should fail.
//!
//! ```text
//! cargo run -p lovo-analyze --release -- [--deny-warnings] [--root <dir>]
//! ```
//!
//! Exit codes: 0 clean, 1 findings at failing severity, 2 usage or I/O
//! error.

// The analyzer is a terminal tool; stdout IS its interface.
#![allow(clippy::print_stdout)]

use lovo_analyze::{analyze, default_config, parse_hierarchy_doc, Severity, Workspace};
use std::path::PathBuf;

fn main() {
    let mut deny_warnings = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory argument");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "lovo-analyze: workspace static analysis\n\n\
                     USAGE: lovo-analyze [--deny-warnings] [--root <dir>]\n\n\
                     Lints: lock-order, index, float-sort, safety-comment.\n\
                     unwrap/expect/panic! are clippy's to deny (see docs/static-analysis.md).\n\
                     Suppress intentional findings with `// lint:allow(<lint>, <reason>)`."
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let hierarchy = match std::fs::read_to_string(root.join("ARCHITECTURE.md")) {
        Ok(doc) => parse_hierarchy_doc(&doc),
        Err(_) => Vec::new(), // no doc, no documented hierarchy to check against
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("failed to load workspace under {}: {err}", root.display());
            std::process::exit(2);
        }
    };
    let config = default_config(&hierarchy);
    let findings = analyze(&ws, &config);

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for finding in &findings {
        println!("{finding}");
        match finding.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
        }
    }
    println!(
        "lovo-analyze: {} files, {} errors, {} warnings{}",
        ws.files.len(),
        errors,
        warnings,
        if deny_warnings {
            " (warnings denied)"
        } else {
            ""
        }
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}
