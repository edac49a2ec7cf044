//! The grandfathering baseline: explicitly accepted violations.
//!
//! A committed `lint-baseline.json` lists sites that are allowed to break
//! a rule, each with a **required, non-empty justification** — the lint
//! ships with an empty baseline, so every future entry is a reviewed,
//! deliberate exception rather than silent drift. Entries match by
//! `(rule, file, pattern)` where `pattern` is a substring of the
//! offending source line; entries that stop matching anything are
//! reported as *stale* and fail `--check`, keeping the file minimal.

use planaria_common::json::{self, Value};

use crate::rules::{known_ids, Violation, RULES};

/// Schema identifier of the baseline document.
///
/// v2 accompanies the `planaria-lint-v2` report: entries may name any id
/// in [`RULES`], and unknown rule ids — including the retired ones now
/// enforced by clippy — are rejected at parse time (such an entry could
/// never match, so it would be permanently stale).
pub const BASELINE_SCHEMA: &str = "planaria-lint-baseline-v2";

/// One grandfathered site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule id the site is excused from (one of [`RULES`]).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Substring of the offending source line.
    pub pattern: String,
    /// Why the exception is sound (must be non-empty).
    pub justification: String,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Entries in file order.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, a wrong/missing schema id, non-string
    /// fields, unknown rule ids and — deliberately — empty
    /// justifications.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        match doc.get("schema").and_then(Value::as_str) {
            Some(BASELINE_SCHEMA) => {}
            other => {
                return Err(format!(
                    "baseline: schema must be {BASELINE_SCHEMA:?}, found {other:?}"
                ))
            }
        }
        let raw_entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("baseline: missing \"entries\" array")?;
        let mut entries = Vec::new();
        for (i, e) in raw_entries.iter().enumerate() {
            let field = |name: &str| {
                e.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("baseline: entry {i} lacks string field {name:?}"))
            };
            let entry = BaselineEntry {
                rule: field("rule")?,
                file: field("file")?,
                pattern: field("pattern")?,
                justification: field("justification")?,
            };
            if !RULES.iter().any(|r| r.id == entry.rule) {
                return Err(format!(
                    "baseline: entry {i} names unknown rule {:?} (known: {})",
                    entry.rule,
                    known_ids()
                ));
            }
            if entry.justification.trim().is_empty() {
                return Err(format!(
                    "baseline: entry {i} ({} in {}) has an empty justification — every \
                     grandfathered site must say why the exception is sound",
                    entry.rule, entry.file
                ));
            }
            entries.push(entry);
        }
        Ok(Baseline { entries })
    }

    /// True if `v` is covered by some entry; marks that entry as used.
    pub fn matches(&self, v: &Violation, used: &mut [bool]) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == v.rule && e.file == v.file && v.snippet.contains(&e.pattern) {
                used[i] = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_baseline_parses() {
        let b = Baseline::parse(
            "{\n  \"schema\": \"planaria-lint-baseline-v2\",\n  \"entries\": []\n}\n",
        )
        .expect("valid baseline");
        assert!(b.entries.is_empty());
    }

    #[test]
    fn empty_justification_is_rejected() {
        let text = r#"{"schema": "planaria-lint-baseline-v2", "entries": [
            {"rule": "R9", "file": "crates/x.rs", "pattern": "fn drive", "justification": " "}
        ]}"#;
        let err = Baseline::parse(text).expect_err("must reject");
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        // The v1 schema id is deliberately not accepted: the v2 rule set
        // changes what entries can mean, so old files must be re-reviewed.
        assert!(Baseline::parse("{\"schema\": \"nope\", \"entries\": []}").is_err());
        assert!(Baseline::parse("{\"schema\": \"planaria-lint-baseline-v1\", \"entries\": []}")
            .is_err());
    }

    #[test]
    fn unknown_rule_ids_are_rejected() {
        // R3 and friends are retired (clippy enforces them now).
        for bad in ["R0", "R1", "R3", "R5", "R7", "R11", "R13", "R99", "X2"] {
            let text = format!(
                r#"{{"schema": "planaria-lint-baseline-v2", "entries": [
                    {{"rule": "{bad}", "file": "f.rs", "pattern": "x", "justification": "y"}}
                ]}}"#
            );
            let err = Baseline::parse(&text).expect_err("must reject");
            assert!(err.contains("unknown rule"), "{err}");
            assert!(err.contains("known: R4, R6, R8, R9, R10, R12"), "{err}");
        }
        let ok = r#"{"schema": "planaria-lint-baseline-v2", "entries": [
            {"rule": "R12", "file": "f.rs", "pattern": "Mutex", "justification": "reviewed"}
        ]}"#;
        assert_eq!(Baseline::parse(ok).expect("R12 is known").entries.len(), 1);
    }
}
