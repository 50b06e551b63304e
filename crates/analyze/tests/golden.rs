//! Golden tests for `vphi-analyze`: the real workspace must be clean
//! modulo the checked-in baseline, the report must be byte-stable, and
//! the pass must catch its seeded fixture violation.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Load one fixture as an in-memory source tree rooted at the fixtures
/// path (which opts it into the taint pass's scope).
fn fixture(name: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    vec![(format!("crates/analyze/fixtures/{name}"), src)]
}

fn keys(report: &vphi_analyze::Report) -> Vec<String> {
    report.findings.iter().map(|f| f.key()).collect()
}

#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = repo_root();
    let report = vphi_analyze::analyze_root(&root).unwrap();
    let baseline = vphi_analyze::load_baseline(&root);
    let (new, _waived, stale) = report.against(&baseline);
    let rendered: Vec<String> = new.iter().map(|f| f.key()).collect();
    assert!(new.is_empty(), "new findings not in analyze-baseline.txt: {rendered:#?}");
    assert!(stale.is_empty(), "stale baseline entries (fixed code — prune them): {stale:#?}");
}

#[test]
fn report_is_byte_stable_across_runs() {
    let root = repo_root();
    let a = vphi_analyze::analyze_root(&root).unwrap().render(&BTreeSet::new());
    let b = vphi_analyze::analyze_root(&root).unwrap().render(&BTreeSet::new());
    assert_eq!(a, b);
    assert!(a.contains("vphi-analyze report"));
}

#[test]
fn seeded_unvalidated_taint_is_caught() {
    let report = vphi_analyze::analyze_sources(&fixture("unchecked_len.rs")).unwrap();
    let keys = keys(&report);
    let rel = "crates/analyze/fixtures/unchecked_len.rs";
    for want in [
        format!("guest-taint|{rel}|copy_in|len:allocation size"),
        format!("guest-taint|{rel}|copy_in|slot:index"),
        format!("guest-unwrap|{rel}|head_id|first.unwrap"),
    ] {
        assert!(keys.contains(&want), "missing {want}: {keys:?}");
    }
}
