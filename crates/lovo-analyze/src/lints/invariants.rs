//! Invariant lints: total-order float comparators and `// SAFETY:` comments
//! on `unsafe` blocks.
//!
//! These encode repo-specific correctness rules that `rustc`/clippy cannot
//! know about:
//!
//! - **float-sort** — `sort_by`/`sort_unstable_by` comparators built on
//!   `partial_cmp` panic on NaN when unwrapped, and (since the Rust 1.81
//!   sort rewrite) a non-total comparator can panic *inside the sort
//!   itself*. Comparators must use `total_cmp` or the documented
//!   `unwrap_or(Equal)`-plus-tie-break pattern (see
//!   `lovo_baselines::finalize_hits`).
//! - **safety-comment** — any `unsafe` block must carry a `// SAFETY:`
//!   comment on the same or the preceding two lines.

use crate::lints::push_unless_allowed;
use crate::model::{matching_close, ParsedFile};
use crate::{Finding, Severity};

/// Lint name for non-total float comparators.
pub const FLOAT_SORT_LINT: &str = "float-sort";
/// Lint name for `unsafe` without a `// SAFETY:` comment.
pub const SAFETY_LINT: &str = "safety-comment";

/// Checks float-sort comparators and SAFETY comments in one file.
pub fn check_file(file: &ParsedFile, findings: &mut Vec<Finding>) {
    check_float_sorts(file, findings);
    check_safety_comments(file, findings);
}

const SORT_METHODS: [&str; 2] = ["sort_by", "sort_unstable_by"];
const SELECT_METHODS: [&str; 2] = ["max_by", "min_by"];

fn check_float_sorts(file: &ParsedFile, findings: &mut Vec<Finding>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if file.in_test(i) {
            continue;
        }
        let t = &tokens[i];
        let is_sort = SORT_METHODS.iter().any(|m| t.is_ident(m));
        let is_select = SELECT_METHODS.iter().any(|m| t.is_ident(m));
        if !is_sort && !is_select {
            continue;
        }
        if !(i > 0 && tokens[i - 1].is_punct('.')) {
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let close = matching_close(tokens, i + 1);
        let body: Vec<&str> = tokens[i + 2..close]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        if !body.contains(&"partial_cmp") {
            continue; // not a float comparator (or a key-projection sort)
        }
        if body.contains(&"total_cmp") {
            continue;
        }
        let line = t.line;
        if body.contains(&"unwrap") || body.contains(&"expect") {
            push_unless_allowed(
                file,
                FLOAT_SORT_LINT,
                line,
                Severity::Error,
                format!(
                    "`{}` comparator unwraps `partial_cmp`: panics on NaN; use `total_cmp` \
                     or `unwrap_or(Ordering::Equal)` with a total tie-break",
                    t.text
                ),
                findings,
            );
            continue;
        }
        // `unwrap_or(..)`-style comparators are panic-free but not total:
        // NaN compares Equal to everything, which breaks transitivity. For
        // sorts that is only acceptable with a deterministic tie-break
        // (`.then`/`.then_with`); selection methods tolerate it.
        if is_sort && !body.contains(&"then") && !body.contains(&"then_with") {
            push_unless_allowed(
                file,
                FLOAT_SORT_LINT,
                line,
                Severity::Warning,
                format!(
                    "`{}` float comparator has no total order: add `total_cmp` or a \
                     `.then_with(..)` tie-break (see finalize_hits for the documented pattern)",
                    t.text
                ),
                findings,
            );
        }
    }
}

fn check_safety_comments(file: &ParsedFile, findings: &mut Vec<Finding>) {
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") || file.in_test(i) {
            continue;
        }
        let line = t.line;
        let documented = file
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 2 >= line);
        if !documented {
            push_unless_allowed(
                file,
                SAFETY_LINT,
                line,
                Severity::Error,
                "`unsafe` without a `// SAFETY:` comment on or directly above the block"
                    .to_string(),
                findings,
            );
        }
    }
}
