//! The `planaria-lint-v2` report schema.
//!
//! Like the perf and contention schemas, the report has a fixed key order
//! and is emitted through [`planaria_common::json`], so equal lint
//! outcomes serialize to byte-identical documents.
//!
//! v2 extends v1 with an `"analysis"` object carrying the structural
//! pass's call-graph size (`functions`, `call_edges`) — the number CI
//! watches so analyzer-cost regressions are visible. The per-rule summary
//! array holds one entry per id in [`RULES`].

use planaria_common::json::{self, Value, Writer};

use crate::baseline::BaselineEntry;
use crate::rules::{Violation, RULES};

/// Schema identifier of the report document.
pub const REPORT_SCHEMA: &str = "planaria-lint-v2";

/// The complete outcome of one lint run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Rust files + manifests scanned.
    pub files_scanned: usize,
    /// Function nodes in the workspace call graph.
    pub functions: usize,
    /// Resolved call edges in the workspace call graph.
    pub call_edges: usize,
    /// Violations not covered by the baseline, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Violations covered by a baseline entry, same order.
    pub suppressed: Vec<Violation>,
    /// Baseline entries that matched nothing (they must be deleted).
    pub stale_entries: Vec<BaselineEntry>,
}

impl Outcome {
    /// True when `--check` should exit zero: nothing unsuppressed and no
    /// stale baseline entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_entries.is_empty()
    }

    /// Renders the `planaria-lint-v2` JSON document.
    pub fn render(&self, root_label: &str) -> String {
        let mut w = Writer::pretty();
        w.begin_object();
        w.key("schema");
        w.string(REPORT_SCHEMA);
        w.key("root");
        w.string(root_label);
        w.key("files_scanned");
        w.u64(self.files_scanned as u64);
        w.key("analysis");
        w.begin_inline_object();
        w.key("functions");
        w.u64(self.functions as u64);
        w.key("call_edges");
        w.u64(self.call_edges as u64);
        w.end_object();
        w.key("clean");
        w.bool(self.is_clean());

        w.key("rules");
        w.begin_array();
        for rule in RULES {
            let count = self.violations.iter().filter(|v| v.rule == rule.id).count();
            w.begin_inline_object();
            w.key("id");
            w.string(rule.id);
            w.key("name");
            w.string(rule.name);
            w.key("violations");
            w.u64(count as u64);
            w.end_object();
        }
        w.end_array();

        w.key("violations");
        w.begin_array();
        for v in &self.violations {
            write_violation(&mut w, v);
        }
        w.end_array();

        w.key("suppressed");
        w.begin_array();
        for v in &self.suppressed {
            write_violation(&mut w, v);
        }
        w.end_array();

        w.key("baseline_stale");
        w.begin_array();
        for e in &self.stale_entries {
            w.begin_inline_object();
            w.key("rule");
            w.string(&e.rule);
            w.key("file");
            w.string(&e.file);
            w.key("pattern");
            w.string(&e.pattern);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Human-readable console rendering (stderr companion of the JSON).
    pub fn render_text(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
            let _ = writeln!(out, "    {}", v.snippet);
        }
        let _ = writeln!(
            out,
            "planaria-lint: {} violation(s), {} suppressed by baseline, {} stale baseline \
             entr(ies), {} file(s) scanned, call graph {} fn(s) / {} edge(s)",
            self.violations.len(),
            self.suppressed.len(),
            self.stale_entries.len(),
            self.files_scanned,
            self.functions,
            self.call_edges
        );
        out
    }
}

fn write_violation(w: &mut Writer, v: &Violation) {
    w.begin_inline_object();
    w.key("rule");
    w.string(v.rule);
    w.key("file");
    w.string(&v.file);
    w.key("line");
    w.u64(v.line as u64);
    w.key("snippet");
    w.string(&v.snippet);
    w.key("message");
    w.string(&v.message);
    w.end_object();
}

/// Validates a written `planaria-lint-v2` report document.
///
/// # Errors
///
/// Reports malformed JSON, a wrong schema id, missing top-level keys or
/// a malformed `"analysis"` object.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(REPORT_SCHEMA) => {}
        other => return Err(format!("schema must be {REPORT_SCHEMA:?}, found {other:?}")),
    }
    for key in [
        "root",
        "files_scanned",
        "analysis",
        "clean",
        "rules",
        "violations",
        "suppressed",
        "baseline_stale",
    ] {
        if doc.get(key).is_none() {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    let analysis = doc.get("analysis").ok_or("missing \"analysis\"")?;
    for key in ["functions", "call_edges"] {
        if analysis.get(key).and_then(Value::as_f64).is_none() {
            return Err(format!("\"analysis\" lacks numeric key {key:?}"));
        }
    }
    let rules = doc.get("rules").and_then(Value::as_array).ok_or("\"rules\" must be an array")?;
    if rules.len() != RULES.len() {
        return Err(format!("expected {} rule summaries, found {}", RULES.len(), rules.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_outcome_renders_a_valid_clean_report() {
        let doc = Outcome { files_scanned: 3, ..Outcome::default() }.render(".");
        validate_report(&doc).expect("valid report");
        let parsed = json::parse(&doc).expect("parses");
        assert_eq!(parsed.get("clean"), Some(&Value::Bool(true)));
    }

    #[test]
    fn violations_make_the_report_dirty_but_still_valid() {
        let outcome = Outcome {
            files_scanned: 1,
            violations: vec![Violation {
                rule: "R12",
                file: "crates/x/src/lib.rs".to_string(),
                line: 3,
                snippet: "let (tx, rx) = std::sync::mpsc::channel();".to_string(),
                message: "unbounded channel".to_string(),
            }],
            ..Outcome::default()
        };
        let doc = outcome.render(".");
        validate_report(&doc).expect("valid report");
        assert_eq!(json::parse(&doc).expect("parses").get("clean"), Some(&Value::Bool(false)));
    }
}
