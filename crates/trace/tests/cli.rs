//! `trace_pack` end to end: its subcommands, encodings and exit codes,
//! driven through the built binary.

use std::fs;
use std::process::{Command, Output};

use planaria_trace::io::read_chunked;
use planaria_trace::Trace;

fn trace_pack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_pack")).args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The first stdout line of a successful run.
fn head(out: Output) -> String {
    assert!(out.status.success(), "{}", stderr(&out));
    String::from_utf8_lossy(&out.stdout).lines().next().unwrap_or_default().to_string()
}

/// Records 2,000 HoK accesses to `hok.ptrace` in an empty directory of the
/// test's own under the target directory; returns (directory, file).
fn record(test: &str) -> (String, String) {
    let dir = format!("{}/trace_pack_cli/{test}", env!("CARGO_TARGET_TMPDIR"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the test directory");
    let packed = format!("{dir}/hok.ptrace");
    head(trace_pack(&["record", "--app", "HoK", "--len", "2000", "--out", &packed]));
    (dir, packed)
}

fn load(path: &str) -> Trace {
    read_chunked(fs::File::open(path).expect("open")).expect("valid v1")
}

#[test]
fn record_then_info() {
    let (_, packed) = record("record_then_info");
    let head = head(trace_pack(&["info", &packed]));
    assert!(head.starts_with("HoK: 2000 accesses, ") && head.ends_with("% reads (v1)"), "{head}");
    assert_eq!(load(&packed).len(), 2000);
}

#[test]
fn v1_to_text_to_v1_keeps_every_access() {
    let (dir, packed) = record("v1_to_text_to_v1");
    let text = format!("{dir}/hok.txt");
    let repacked = format!("{dir}/again.ptrace");
    for (from, to) in [(&packed, &text), (&text, &repacked)] {
        head(trace_pack(&["convert", from, to]));
    }
    assert!(fs::read_to_string(&text).expect("text output").starts_with("# trace: HoK\n"));
    assert_eq!(load(&repacked).accesses(), load(&packed).accesses());
    let head = head(trace_pack(&["info", &text]));
    assert!(head.starts_with("hok: 2000 accesses, ") && head.ends_with("% reads (text)"), "{head}");
}

#[test]
fn in_place_convert_is_refused_and_leaves_the_input_intact() {
    let (dir, packed) = record("in_place_convert");
    let before = fs::read(&packed).expect("read input");
    // The same file under a second spelling must be caught too.
    for out_path in [packed.clone(), format!("{dir}/./hok.ptrace")] {
        let out = trace_pack(&["convert", &packed, &out_path]);
        assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
        assert!(stderr(&out).contains("onto itself"), "{}", stderr(&out));
        assert_eq!(fs::read(&packed).expect("read input"), before);
    }
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    let out = trace_pack(&["generate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn truncated_input_exits_1_with_the_typed_error() {
    let (dir, packed) = record("truncated_input");
    let bytes = fs::read(&packed).expect("read");
    fs::write(&packed, &bytes[..bytes.len() - 6]).expect("truncate");
    let info = trace_pack(&["info", &packed]);
    let convert = trace_pack(&["convert", &packed, &format!("{dir}/out.ptrace")]);
    for out in [info, convert] {
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.contains("truncated while reading record"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}
