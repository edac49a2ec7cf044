//! EXPERIMENTS.md's measured numbers, pinned to the committed `results/`.
//!
//! A section whose heading names a committed entry in backticks
//! (``## Figure 4 — `fig4_overlap` ``), or a bullet that opens with one
//! (``* `ablation_coordinator` — …``), quotes that entry's output. Every
//! number in bold (`**…**`) inside it must occur as a number in
//! `results/NAME.txt`. A number is a run of digits with an optional
//! fractional part; its sign is ignored, so `−22.4%` (U+2212) in the
//! prose matches `-22.4%` in the file. `ci.sh` pins each results file to
//! the `figures` binary byte for byte, so the prose is pinned to the
//! binary too. Nothing here runs a simulation.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn experiments_doc() -> String {
    let path = repo_root().join("EXPERIMENTS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed output of entry `name`, if there is one.
fn committed(name: &str) -> Option<String> {
    std::fs::read_to_string(repo_root().join("results").join(format!("{name}.txt"))).ok()
}

/// The unsigned numbers in `text`, in order.
fn numbers(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        let digits = |mut j: usize| {
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            j
        };
        i = digits(i);
        if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
            i = digits(i + 1);
        }
        out.push(&text[start..i]);
    }
    out
}

/// The first backticked name in `line` that has a committed results file.
fn entry_in(line: &str) -> Option<String> {
    line.split('`').skip(1).step_by(2).find(|name| committed(name).is_some()).map(str::to_string)
}

/// Splits `doc` into passages that quote one committed entry: `(entry,
/// text)` per results-backed section, and per results-backed bullet (a
/// bullet line and its indented continuation lines).
fn passages(doc: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut section: Option<String> = None;
    let mut bullet: Option<String> = None;
    for line in doc.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            section = entry_in(heading);
            bullet = None;
        } else if let Some(item) = line.strip_prefix("* ").or_else(|| line.strip_prefix("- ")) {
            bullet = item.trim_start().starts_with('`').then(|| entry_in(item)).flatten();
        } else if !line.starts_with("  ") {
            bullet = None;
        }
        let Some(entry) = bullet.as_ref().or(section.as_ref()) else { continue };
        match out.last_mut() {
            Some((last, text)) if last == entry => {
                text.push('\n');
                text.push_str(line);
            }
            _ => out.push((entry.clone(), line.to_string())),
        }
    }
    out
}

/// Checks every bold number of `doc` against the results file of its
/// passage. Returns how many numbers were checked and one line per number
/// missing from its file.
fn check(doc: &str) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut missing = Vec::new();
    for (entry, text) in passages(doc) {
        let file = committed(&entry).expect("a passage names a committed entry");
        let known: BTreeSet<&str> = numbers(&file).into_iter().collect();
        for bold in text.split("**").skip(1).step_by(2) {
            for n in numbers(bold) {
                checked += 1;
                if !known.contains(n) {
                    missing.push(format!("{n} (in **{bold}**) is not in results/{entry}.txt"));
                }
            }
        }
    }
    (checked, missing)
}

#[test]
fn every_bold_number_occurs_in_its_results_file() {
    let (checked, missing) = check(&experiments_doc());
    assert!(checked > 0, "no bold number in a results-backed passage was found");
    assert!(missing.is_empty(), "EXPERIMENTS.md disagrees with results/:\n{}", missing.join("\n"));
}

#[test]
fn a_doctored_section_number_is_reported() {
    let doc = experiments_doc();
    let doctored = doc.replacen("86.7% average**", "86.8% average**", 1);
    assert_ne!(doc, doctored, "Figure 4's section quotes its 86.7% average in bold");
    let (_, missing) = check(&doctored);
    assert_eq!(
        missing,
        ["86.8 (in **83.4%–89.1% per app, 86.8% average**) is not in results/fig4_overlap.txt"]
    );
}

#[test]
fn a_doctored_bullet_number_is_reported() {
    let doc = experiments_doc();
    let doctored = doc.replacen("**12.2** points (HoK)", "**12.3** points (HoK)", 1);
    assert_ne!(doc, doctored, "the coordinator bullet quotes HoK's margin in bold");
    let (_, missing) = check(&doctored);
    assert_eq!(missing, ["12.3 (in **12.3**) is not in results/ablation_coordinator.txt"]);
}

#[test]
fn numbers_ignore_signs_and_split_at_non_digits() {
    assert_eq!(
        numbers("−22.4% @64, 345.1 KB (8.4%) 3. x1.5"),
        ["22.4", "64", "345.1", "8.4", "3", "1.5"]
    );
}
