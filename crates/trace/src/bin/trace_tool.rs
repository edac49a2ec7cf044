//! `trace_tool` — generate, inspect and convert Planaria memory traces.
//!
//! ```text
//! trace_tool generate --app HoK --len 100000 --out hok.bin
//! trace_tool generate --app Fort --len 50000 --out fort.trace --text
//! trace_tool info hok.bin
//! trace_tool convert hok.bin hok.trace
//! ```
//!
//! Formats are selected by extension: `.bin` is the compact binary format,
//! anything else is the human-readable text format.

#![allow(clippy::disallowed_methods)]

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;

use planaria_trace::apps::{profile, AppId};
use planaria_trace::{io, Trace};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool generate --app <ABBR> --len <N> --out <FILE> [--seed <S>]\n  \
         trace_tool info <FILE>\n  trace_tool convert <IN> <OUT>\n\n\
         apps: {}",
        AppId::ALL.map(|a| a.abbr()).join(", ")
    );
    ExitCode::from(2)
}

fn is_binary(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "bin")
}

fn load(path: &Path) -> Result<Trace, String> {
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace").to_string();
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let result =
        if is_binary(path) { io::read_binary(name, reader) } else { io::read_text(name, reader) };
    result.map_err(|e| format!("parse {}: {e}", path.display()))
}

fn store(trace: &Trace, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let writer = BufWriter::new(file);
    let result = if is_binary(path) {
        io::write_binary(trace, writer)
    } else {
        io::write_text(trace, writer)
    };
    result.map_err(|e| format!("write {}: {e}", path.display()))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut app = None;
    let mut len = None;
    let mut out = None;
    let mut seed: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--app" => {
                let v = it.next().ok_or("--app needs a value")?;
                app = Some(
                    AppId::ALL
                        .into_iter()
                        .find(|x| x.abbr().eq_ignore_ascii_case(v))
                        .ok_or_else(|| format!("unknown app {v:?}"))?,
                );
            }
            "--len" => {
                let v = it.next().ok_or("--len needs a value")?;
                len = Some(v.replace('_', "").parse::<usize>().map_err(|e| e.to_string())?);
            }
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|e: std::num::ParseIntError| e.to_string())?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let app = app.ok_or("--app is required")?;
    let len = len.ok_or("--len is required")?;
    let out = out.ok_or("--out is required")?;
    let mut spec = profile(app).scaled(len);
    if let Some(s) = seed {
        spec.seed = s;
    }
    let trace = spec.build();
    store(&trace, Path::new(&out))?;
    println!("wrote {} — {}", out, trace.summary());
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a file")?;
    let trace = load(Path::new(path))?;
    println!("{}", trace.summary());
    // Per-device histogram.
    let mut devices: std::collections::BTreeMap<String, usize> = Default::default();
    for a in trace.iter() {
        *devices.entry(a.device.to_string()).or_default() += 1;
    }
    for (d, n) in devices {
        println!("  {d:<5} {n:>10} ({:.1}%)", n as f64 / trace.len().max(1) as f64 * 100.0);
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else { return Err("convert needs <IN> <OUT>".into()) };
    let trace = load(Path::new(input))?;
    store(&trace, Path::new(output))?;
    println!("converted {input} -> {output} ({} accesses)", trace.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "info" => cmd_info(rest),
        "convert" => cmd_convert(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
