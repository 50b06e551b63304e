//! vphi-analyze: whole-workspace static analysis for the vPHI tree.
//!
//! One pass over a token-level model of every non-test source file
//! (parsed with the offline `syn` shim — no rustc, no network): **guest
//! taint** ([`taint`]) — values decoded from guest memory must pass a
//! bounds check before indexing, sizing an allocation, or forming a DMA
//! range; guest-reachable `unwrap()` is flagged.  Lock order is checked at
//! run time, by `vphi-sync`'s order graph (DESIGN.md #12).
//!
//! Run as `cargo run -p xtask -- analyze`.  Output is deterministic and
//! byte-stable; known findings live in `analyze-baseline.txt` at the
//! repo root with one justified key per line.

pub mod exempt;
pub mod model;
pub mod report;
pub mod taint;

use std::collections::BTreeSet;
use std::path::Path;

pub use report::{parse_baseline, Finding, Report, Summary};

/// Collect workspace sources as `(rel_path, contents)`, sorted by path,
/// honoring [`exempt::skip_dir`].  Shared with the xtask lint walker so
/// both tools see the same tree.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {dir:?}: {e}"))?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        if path.is_dir() {
            if exempt::skip_dir(&rel) {
                continue;
            }
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.push((rel, src));
        }
    }
    Ok(())
}

/// Run the pass over in-memory sources and return a normalized report.
/// This is the seam golden tests use to analyze fixture trees.
pub fn analyze_sources(sources: &[(String, String)]) -> Result<Report, String> {
    let ws = model::Workspace::parse(sources)?;
    let mut findings = Vec::new();
    let mut summary = Summary { files: ws.files.len(), ..Summary::default() };
    for f in &ws.files {
        summary.functions += f.functions.len();
        summary.test_functions += f.functions.iter().filter(|f| f.is_test).count();
    }
    taint::run(&ws, &mut findings, &mut summary);

    let mut report = Report { findings, summary };
    report.normalize();
    Ok(report)
}

/// Analyze the workspace rooted at `root`.
pub fn analyze_root(root: &Path) -> Result<Report, String> {
    let sources = collect_sources(root)?;
    analyze_sources(&sources)
}

/// Load the checked-in baseline next to `root` (missing file = empty).
pub fn load_baseline(root: &Path) -> BTreeSet<String> {
    std::fs::read_to_string(root.join("analyze-baseline.txt"))
        .map(|t| parse_baseline(&t))
        .unwrap_or_default()
}
