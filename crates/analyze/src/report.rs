//! Findings, the baseline/allowlist, and deterministic rendering.
//!
//! A finding's identity (its baseline key) is `rule|file|function|detail`
//! — deliberately line-free, so unrelated edits that move code do not
//! invalidate the allowlist.  Rendering sorts by key and is byte-stable
//! across runs on the same tree.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub function: String,
    pub line: usize,
    /// Stable discriminator within (rule, file, function) — e.g. the
    /// tainted ident and its sink, `len:allocation size`.
    pub detail: String,
    pub message: String,
}

impl Finding {
    pub fn key(&self) -> String {
        format!("{}|{}|{}|{}", self.rule, self.file, self.function, self.detail)
    }
}

/// The run's aggregate counters, printed with every report so a reviewer
/// can tell "no findings" from "analyzed nothing".
#[derive(Debug, Default, Clone)]
pub struct Summary {
    pub files: usize,
    pub functions: usize,
    pub test_functions: usize,
    pub taint_sources: usize,
    pub taint_sinks: usize,
}

/// A full analysis result.
pub struct Report {
    pub findings: Vec<Finding>,
    pub summary: Summary,
}

impl Report {
    /// Sort findings into their canonical (byte-stable) order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| a.key().cmp(&b.key()).then(a.line.cmp(&b.line)));
        self.findings.dedup_by(|a, b| a.key() == b.key());
    }

    /// Render the whole report against a baseline.  Waived findings are
    /// counted but not listed; stale baseline entries are warned about so
    /// the allowlist shrinks as code is fixed.
    pub fn render(&self, baseline: &BTreeSet<String>) -> String {
        let mut out = String::new();
        let s = &self.summary;
        let _ = writeln!(out, "vphi-analyze report");
        let _ = writeln!(out, "  files analyzed:      {}", s.files);
        let _ = writeln!(out, "  functions:           {} ({} test)", s.functions, s.test_functions);
        let _ = writeln!(out, "  taint sources:       {}", s.taint_sources);
        let _ = writeln!(out, "  taint sinks checked: {}", s.taint_sinks);
        let (new, waived, stale) = self.against(baseline);
        let _ = writeln!(
            out,
            "  findings:            {} ({} waived by baseline, {} new)",
            self.findings.len(),
            waived,
            new.len()
        );
        for f in &new {
            let _ =
                writeln!(out, "{}:{}: [{}] {} ({})", f.file, f.line, f.rule, f.message, f.key());
        }
        for k in &stale {
            let _ = writeln!(out, "warning: stale baseline entry (nothing matches): {k}");
        }
        out
    }

    /// Split findings into (new, waived-count, stale-baseline-entries).
    pub fn against<'a>(
        &'a self,
        baseline: &BTreeSet<String>,
    ) -> (Vec<&'a Finding>, usize, Vec<String>) {
        let mut waived = 0usize;
        let mut new = Vec::new();
        let mut used: BTreeSet<&str> = BTreeSet::new();
        for f in &self.findings {
            let key = f.key();
            if let Some(hit) = baseline.iter().find(|b| **b == key) {
                waived += 1;
                used.insert(hit.as_str());
            } else {
                new.push(f);
            }
        }
        let stale: Vec<String> =
            baseline.iter().filter(|b| !used.contains(b.as_str())).cloned().collect();
        (new, waived, stale)
    }
}

/// Parse a baseline file: one key per line, `#` comments and blank lines
/// ignored.
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, detail: &str) -> Finding {
        Finding {
            rule,
            file: "crates/x/src/lib.rs".into(),
            function: "f".into(),
            line: 3,
            detail: detail.into(),
            message: "msg".into(),
        }
    }

    #[test]
    fn baseline_waives_exact_keys_and_reports_stale_ones() {
        let mut r = Report {
            findings: vec![finding("guest-taint", "len"), finding("guest-taint", "idx")],
            summary: Summary::default(),
        };
        r.normalize();
        let base = parse_baseline(
            "# allowed\nguest-taint|crates/x/src/lib.rs|f|len\nguest-taint|crates/x/src/lib.rs|gone|old\n",
        );
        let (new, waived, stale) = r.against(&base);
        assert_eq!(waived, 1);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].detail, "idx");
        assert_eq!(stale, ["guest-taint|crates/x/src/lib.rs|gone|old"]);
    }

    #[test]
    fn rendering_is_stable_across_runs() {
        let mk = || {
            let mut r = Report {
                findings: vec![finding("b-rule", "z"), finding("a-rule", "a")],
                summary: Summary::default(),
            };
            r.normalize();
            r.render(&BTreeSet::new())
        };
        assert_eq!(mk(), mk());
        assert!(mk().contains("[a-rule]"));
    }
}
