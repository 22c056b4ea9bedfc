//! Fixture-driven integration tests: each lint family must fire on
//! known-bad input and stay quiet when the code is fixed or the finding is
//! suppressed with a reasoned allow marker.

use lovo_analyze::lints::index::IndexConfig;
use lovo_analyze::lints::locks::LockConfig;
use lovo_analyze::{analyze, parse_hierarchy_doc, Config, Finding, Severity, Workspace};
use std::path::PathBuf;

fn fixture(name: &str) -> (PathBuf, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).expect("read fixture");
    (PathBuf::from(name), source)
}

/// A config with every lint family unscoped: only path-independent lints
/// (lock-order, float-sort, safety-comment, allow-reason) can fire.
fn quiet_config() -> Config {
    Config {
        index: IndexConfig {
            index_paths: vec![],
        },
        locks: LockConfig { hierarchy: vec![] },
    }
}

fn run(names: &[&str], config: &Config) -> Vec<Finding> {
    let ws = Workspace::from_sources(names.iter().map(|n| fixture(n)).collect());
    analyze(&ws, config)
}

fn of_lint<'a>(findings: &'a [Finding], lint: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.lint == lint).collect()
}

// --- index audit (the analyzer's share of the panic audit; clippy denies
// unwrap/expect/panic!) ---

fn index_config_for(name: &str) -> Config {
    Config {
        index: IndexConfig {
            index_paths: vec![name.to_string()],
        },
        locks: LockConfig { hierarchy: vec![] },
    }
}

#[test]
fn panic_audit_fires_on_every_denied_construct() {
    let findings = run(&["index_bad.rs"], &index_config_for("index_bad.rs"));
    // The slice index and the map lookup; the range slice is out of scope.
    let lines: Vec<u32> = of_lint(&findings, "index").iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![7, 11], "index findings: {findings:?}");
    assert_eq!(findings.len(), 2, "findings: {findings:?}");
    assert!(findings.iter().all(|f| f.severity == Severity::Error));
}

#[test]
fn panic_audit_exempts_test_code() {
    // The #[cfg(test)] module in the fixture indexes freely; nothing in it
    // may be reported (all findings sit above line 18).
    let findings = run(&["index_bad.rs"], &index_config_for("index_bad.rs"));
    assert!(
        findings.iter().all(|f| f.line < 18),
        "findings: {findings:?}"
    );
}

#[test]
fn panic_audit_is_scoped_to_configured_paths() {
    let findings = run(&["index_bad.rs"], &index_config_for("some_other_module.rs"));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn reasoned_allow_markers_suppress_the_panic_audit() {
    let findings = run(&["index_allowed.rs"], &index_config_for("index_allowed.rs"));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn allow_marker_without_reason_is_itself_an_error() {
    let source = "pub fn f(v: &[u32]) -> u32 {\n    v[0] // lint:allow(index)\n}\n";
    let ws = Workspace::from_sources(vec![(PathBuf::from("demo.rs"), source.to_string())]);
    let findings = analyze(&ws, &index_config_for("demo.rs"));
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].lint, "allow-reason");
    assert_eq!(findings[0].severity, Severity::Error);
}

// --- lock-order analysis ---

#[test]
fn opposite_acquisition_orders_are_a_cycle() {
    let findings = run(&["lock_cycle.rs"], &quiet_config());
    let errors: Vec<_> = of_lint(&findings, "lock-order")
        .into_iter()
        .filter(|f| f.severity == Severity::Error)
        .collect();
    assert_eq!(errors.len(), 1, "findings: {findings:?}");
    assert!(errors[0].message.contains("cycle"), "{}", errors[0].message);
    assert!(errors[0].message.contains("Pair.left"));
    assert!(errors[0].message.contains("Pair.right"));
}

#[test]
fn nested_acquisition_through_a_call_is_an_edge() {
    // Undocumented: the inter-procedural edge surfaces as a warning naming
    // the callee it flows through.
    let findings = run(&["lock_interproc.rs"], &quiet_config());
    let warnings = of_lint(&findings, "lock-order");
    assert_eq!(warnings.len(), 1, "findings: {findings:?}");
    assert_eq!(warnings[0].severity, Severity::Warning);
    assert!(warnings[0].message.contains("Store.data -> Store.meta"));
    assert!(warnings[0].message.contains("bump_meta"));
}

#[test]
fn documented_edges_are_clean() {
    let config = Config {
        locks: LockConfig {
            hierarchy: vec![("Store.data".to_string(), "Store.meta".to_string())],
        },
        ..quiet_config()
    };
    let findings = run(&["lock_interproc.rs"], &config);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn contradicting_the_documented_hierarchy_is_an_error() {
    let config = Config {
        locks: LockConfig {
            hierarchy: vec![("Db.catalog".to_string(), "Db.journal".to_string())],
        },
        ..quiet_config()
    };
    let findings = run(&["lock_contra.rs"], &config);
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].lint, "lock-order");
    assert_eq!(findings[0].severity, Severity::Error);
    assert!(findings[0].message.contains("contradicts"));
}

#[test]
fn allow_marker_drops_the_lock_edge() {
    let config = Config {
        locks: LockConfig {
            hierarchy: vec![("Db.catalog".to_string(), "Db.journal".to_string())],
        },
        ..quiet_config()
    };
    let findings = run(&["lock_allow.rs"], &config);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn temporary_guards_end_with_their_statement_or_construct() {
    let findings = run(&["lock_temp.rs"], &quiet_config());
    assert!(
        findings
            .iter()
            .all(|f| !f.message.contains("Table.entries")),
        "a dropped temporary guard was reported held: {findings:?}"
    );
    let reentrant: Vec<&str> = of_lint(&findings, "lock-order")
        .into_iter()
        .filter(|f| f.severity == Severity::Error && f.message.contains("already held"))
        .map(|f| f.message.as_str())
        .collect();
    for held in [
        "InBody.entries",
        "InElse.entries",
        "InArm.entries",
        "AfterLet.entries",
    ] {
        assert!(
            reentrant.iter().any(|m| m.contains(held)),
            "`{held}` is still held at its second acquisition: {findings:?}"
        );
    }
    assert_eq!(findings.len(), 4, "findings: {findings:?}");
}

#[test]
fn stale_hierarchy_entries_warn() {
    let config = Config {
        locks: LockConfig {
            hierarchy: vec![("Gone.lock".to_string(), "Db.journal".to_string())],
        },
        ..quiet_config()
    };
    let findings = run(&["lock_contra.rs"], &config);
    assert!(
        findings
            .iter()
            .any(|f| f.severity == Severity::Warning && f.message.contains("Gone.lock")),
        "findings: {findings:?}"
    );
}

// --- invariant lints ---

#[test]
fn float_sort_shapes() {
    let findings = run(&["float_sort.rs"], &quiet_config());
    let sorts = of_lint(&findings, "float-sort");
    assert_eq!(sorts.len(), 2, "findings: {findings:?}");
    // `bad` unwraps: error. `lax` is panic-free but non-total: warning.
    assert_eq!(sorts[0].severity, Severity::Error);
    assert!(sorts[0].message.contains("NaN"));
    assert_eq!(sorts[1].severity, Severity::Warning);
    assert!(sorts[1].message.contains("tie-break"));
    // `good` (total_cmp) and `tied` (unwrap_or + then_with) are clean.
    assert_eq!(findings.len(), 2);
}

#[test]
fn unsafe_requires_a_safety_comment() {
    let findings = run(&["safety.rs"], &quiet_config());
    let safety = of_lint(&findings, "safety-comment");
    assert_eq!(safety.len(), 1, "findings: {findings:?}");
    assert_eq!(safety[0].line, 4); // `undocumented` only
}

// --- hierarchy doc parsing ---

#[test]
fn hierarchy_doc_round_trip() {
    let markdown = "\
# Concurrency

```lock-order
# comments are skipped
A.x -> B.y
B.y -> C.z
```

```rust
// other fences are ignored, even with arrows: X -> Y
```
";
    assert_eq!(
        parse_hierarchy_doc(markdown),
        vec![
            ("A.x".to_string(), "B.y".to_string()),
            ("B.y".to_string(), "C.z".to_string()),
        ]
    );
}
