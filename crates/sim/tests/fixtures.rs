//! The clippy negative control's fixtures, checked without clippy.
//! `ci.sh` compiles every `tests/clippy_negative/bad_r*.rs` in a scratch
//! crate under the workspace's lint tables and `clippy.toml`, and expects
//! each fixture's lints to fire. Each test below pins both halves for one
//! retired rule (R1–R12): the workspace config still carries the ban, and
//! the fixture still holds the construct that trips it. Where the bans are
//! opted out of or tightened is pinned by `tests/workspace_policy.rs`.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A workspace file, read relative to the repository root.
fn repo_file(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The fixture `bad_r{n}.rs`, which the negative control must compile.
fn fixture(n: u32) -> String {
    let module = format!("\npub mod bad_r{n};\n");
    assert!(repo_file("ci.sh").contains(&module), "the negative control skips bad_r{n}.rs");
    repo_file(&format!("tests/clippy_negative/bad_r{n}.rs"))
}

/// Asserts that `clippy.toml`'s `key` list bans `std::{path}` for each path.
fn banned<S: AsRef<str>>(key: &str, paths: &[S]) {
    let clippy = repo_file("clippy.toml");
    let start = clippy.find(&format!("{key} = [")).unwrap_or_else(|| panic!("no {key} list"));
    let body = &clippy[start..];
    let body = &body[..body.find("\n]").expect("list closes")];
    let list: Vec<&str> =
        body.split("path = \"").skip(1).map(|s| &s[..s.find('"').expect("quoted")]).collect();
    for path in paths {
        let path = format!("std::{}", path.as_ref());
        assert!(list.contains(&path.as_str()), "{key} must ban {path}");
    }
}

/// Asserts that the root `Cargo.toml` sets each lint level.
fn levels(lines: &[&str]) {
    let manifest = repo_file("Cargo.toml");
    for line in lines {
        assert!(manifest.lines().any(|l| l == *line), "root Cargo.toml lost `{line}`");
    }
}

/// How code calls a banned path: `time::Instant::now` as `Instant::now(`.
fn call(path: &str) -> String {
    let mut tail = path.rsplit("::");
    let name = tail.next().expect("a name");
    let owner = tail.next().expect("a qualified path");
    format!("{owner}::{name}(")
}

#[test]
fn r1_default_hasher_map_in_hot_crate() {
    let types = ["collections::HashMap", "collections::HashSet"];
    banned("disallowed-types", &types);
    let src = fixture(1);
    for ty in types {
        assert!(src.contains(&call(&format!("{ty}::new"))), "bad_r1.rs builds no {ty}");
    }
}

#[test]
fn r1_is_silent_outside_hot_crate_roots() {
    // The workspace level allows the type bans; a crate root's deny turns
    // them on, and the negative control's root denies them as a hot crate's does.
    levels(&["disallowed_types = \"allow\""]);
    assert!(repo_file("ci.sh").contains("\n#![deny(clippy::disallowed_types)]\n"));
}

#[test]
fn r2_wall_clock_in_simulated_code() {
    let env = "args args_os var var_os vars vars_os current_dir current_exe temp_dir";
    let methods: Vec<String> = ["time::Instant::now", "time::SystemTime::now"]
        .map(String::from)
        .into_iter()
        .chain(env.split(' ').map(|m| format!("env::{m}")))
        .collect();
    banned("disallowed-methods", &methods);
    let src = fixture(2);
    for m in &methods {
        assert!(src.contains(&call(m)), "bad_r2.rs never calls {m}");
    }
}

#[test]
fn r3_bare_unwrap_in_library_code() {
    levels(&["unwrap_used = \"warn\""]);
    assert!(repo_file("clippy.toml").contains("\nallow-unwrap-in-tests = true\n"));
    assert!(fixture(3).contains(".unwrap()"));
}

#[test]
fn r5_float_sum_over_map_iteration() {
    banned("disallowed-methods", &["collections::HashMap::values"]);
    assert!(fixture(5).contains(".values().sum::<f64>()"));
}

#[test]
fn r7_stub_macros() {
    levels(&["todo = \"warn\"", "dbg_macro = \"warn\"", "unimplemented = \"warn\""]);
    let src = fixture(7);
    for mac in ["todo!(", "dbg!(", "unimplemented!("] {
        assert!(src.contains(mac), "bad_r7.rs lost `{mac}`");
    }
}

#[test]
fn r10_map_iteration_into_ordered_sink() {
    levels(&["iter_over_hash_type = \"warn\""]);
    // `HashMap::values` is `bad_r5.rs`'s.
    let map = ["iter", "iter_mut", "keys", "values_mut", "drain", "into_keys", "into_values"];
    let set = ["iter", "drain"];
    let methods: Vec<String> = map
        .map(|m| format!("collections::HashMap::{m}"))
        .into_iter()
        .chain(set.map(|m| format!("collections::HashSet::{m}")))
        .collect();
    banned("disallowed-methods", &methods);
    let src = fixture(10);
    assert!(src.contains("in by_page {"), "bad_r10.rs lost its `for` over a map");
    let calls = map.map(|m| format!(".{m}()")).into_iter().chain(set.map(|m| format!("set.{m}()")));
    for m in calls {
        assert!(src.contains(&m), "bad_r10.rs never calls `{m}`");
    }
}

#[test]
fn r11_narrowing_cast_in_parsing_module() {
    // The control denies the lint on the fixture's module, as the two
    // parsing modules do on themselves.
    let deny = "\n#[deny(clippy::cast_possible_truncation)]\npub mod bad_r11;\n";
    assert!(repo_file("ci.sh").contains(deny));
    let src = fixture(11);
    assert!(src.contains("(count: u64)") && src.contains("count as usize"), "no narrowing cast");
}

#[test]
fn r11_is_silent_outside_parsing_modules() {
    // The pedantic cast lint is denied only in the two parsing modules.
    assert!(!repo_file("Cargo.toml").contains("cast_possible_truncation"));
}

#[test]
fn r12_checks_depend_on_the_crate() {
    // The type bans bite only under a crate root's deny (the hot crates
    // and `serve`); the channel is a method ban, live in every crate and
    // lifted only by the opt-out files.
    let types = ["rc::Rc", "cell::RefCell", "sync::Mutex", "sync::RwLock", "sync::Condvar"];
    banned("disallowed-types", &types);
    banned("disallowed-methods", &["sync::mpsc::channel"]);
    assert!(!repo_file("Cargo.toml").contains("disallowed_methods"), "a workspace level for it");
    let src = fixture(12);
    assert!(src.contains(&call("sync::mpsc::channel")), "bad_r12.rs opens no channel");
    for ty in types {
        assert!(src.contains(&call(&format!("{ty}::new"))), "bad_r12.rs builds no {ty}");
    }
}
