//! `trace_pack` — record, convert and inspect traces on disk, in the
//! chunked `planaria-trace-v1` format (the streaming replay format; byte
//! layout in `TRACE_FORMAT.md`) or the text format.
//!
//! ```text
//! trace_pack record --app HoK --len 10000000 --out hok.ptrace
//! trace_pack convert hok.ptrace hok.txt
//! trace_pack convert hok.txt hok.ptrace
//! trace_pack info hok.ptrace
//! ```
//!
//! Inputs are sniffed: a file opening with the v1 magic is streamed in
//! constant memory, anything else is parsed (and materialized) as text.
//! `convert` writes text to an output path ending in `.txt` and v1 to any
//! other, and refuses to overwrite its own input. `record` renders the
//! app's synthetic workload straight to a v1 file through the streaming
//! generators — memory use is independent of `--len`, so packing 100M+
//! access traces is routine. `info` prints the header and per-device
//! histogram.

#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;
use std::process::ExitCode;

use planaria_trace::apps::{profile, AppId};
use planaria_trace::io::{self, ChunkedTraceReader, ChunkedTraceWriter};
use planaria_trace::stream::AccessStream;
use planaria_trace::Trace;

/// Accesses moved per `next_chunk`/`write_chunk` round.
const COPY_CHUNK: usize = 65_536;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_pack record --app <ABBR> --len <N> --out <FILE> [--seed <S>]\n  \
         trace_pack convert <IN> <OUT>   (OUT ending in .txt is text, anything else v1)\n  \
         trace_pack info <FILE>\n\n\
         apps: {}",
        AppId::ALL.map(|a| a.abbr()).join(", ")
    );
    ExitCode::from(2)
}

fn open(path: &str) -> Result<File, String> {
    File::open(path).map_err(|e| format!("open {path}: {e}"))
}

/// Returns `true` if the file starts with the v1 magic (a file shorter
/// than the magic is text).
fn is_v1(path: &str) -> Result<bool, String> {
    let mut magic = [0u8; 8];
    Ok(open(path)?.read_exact(&mut magic).is_ok() && &magic == b"PLNTRACE")
}

/// Opens a v1 file for streaming.
fn open_v1(path: &str) -> Result<ChunkedTraceReader<BufReader<File>>, String> {
    ChunkedTraceReader::new(BufReader::new(open(path)?)).map_err(|e| format!("parse {path}: {e}"))
}

/// Reads a whole trace into memory, in either encoding.
fn load(path: &str) -> Result<Trace, String> {
    let reader = BufReader::new(open(path)?);
    if is_v1(path)? {
        io::read_chunked(reader)
    } else {
        let name = Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        io::read_text(name, reader)
    }
    .map_err(|e| format!("parse {path}: {e}"))
}

/// Drains `stream` into a v1 file at `out`, in constant memory.
fn pack_stream(stream: &mut dyn AccessStream, out: &str) -> Result<u64, String> {
    let total = stream.total_len().ok_or("cannot pack a stream of unknown length")?;
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let name = stream.name().to_string();
    let mut writer = ChunkedTraceWriter::new(BufWriter::new(file), &name, total)
        .map_err(|e| format!("write {out}: {e}"))?;
    let mut chunk = Vec::new();
    while stream.next_chunk(COPY_CHUNK, &mut chunk) > 0 {
        writer.write_chunk(&chunk).map_err(|e| format!("write {out}: {e}"))?;
    }
    if let Some(e) = stream.error() {
        return Err(format!("input stream failed: {e}"));
    }
    writer.finish().map_err(|e| format!("write {out}: {e}"))?;
    Ok(total)
}

fn cmd_record(args: &[String]) -> Result<(), String> {
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
    let total = pack_stream(&mut spec.stream(), &out)?;
    println!("wrote {out} — {} ({total} accesses, streamed)", spec.abbr);
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else { return Err("convert needs <IN> <OUT>".into()) };
    // `File::create(output)` would truncate an input the reader has not
    // finished with.
    let canonical = std::fs::canonicalize::<&str>;
    if canonical(input).is_ok_and(|a| canonical(output).is_ok_and(|b| a == b)) {
        return Err(format!("refusing to convert {input} onto itself"));
    }
    let total = if output.ends_with(".txt") {
        let trace = load(input)?;
        let file = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
        io::write_text(&trace, BufWriter::new(file)).map_err(|e| format!("write {output}: {e}"))?;
        trace.len() as u64
    } else if is_v1(input)? {
        pack_stream(&mut open_v1(input)?, output)?
    } else {
        pack_stream(&mut load(input)?.stream(), output)?
    };
    println!("converted {input} -> {output} ({total} accesses)");
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else { return Err("info needs <FILE>".into()) };
    if is_v1(path)? {
        info(&mut open_v1(path)?, path, "v1")
    } else {
        info(&mut load(path)?.stream(), path, "text")
    }
}

/// Prints one input's summary line and per-device histogram.
fn info(reader: &mut dyn AccessStream, path: &str, format: &str) -> Result<(), String> {
    // Stream the whole input, aggregating summary stats in constant memory.
    let mut devices: BTreeMap<String, usize> = BTreeMap::new();
    let mut reads = 0u64;
    let mut count = 0u64;
    let mut first_cycle = None;
    let mut last_cycle = 0u64;
    let mut chunk = Vec::new();
    while reader.next_chunk(COPY_CHUNK, &mut chunk) > 0 {
        for a in &chunk {
            *devices.entry(a.device.to_string()).or_default() += 1;
            reads += u64::from(a.kind.is_read());
            first_cycle.get_or_insert(a.cycle.as_u64());
            last_cycle = a.cycle.as_u64();
        }
        count += chunk.len() as u64;
    }
    if let Some(e) = reader.error() {
        return Err(format!("parse {path}: {e}"));
    }
    let duration = last_cycle - first_cycle.unwrap_or(0);
    println!(
        "{}: {count} accesses, {duration} cycles, {:.1}% reads ({format})",
        reader.name(),
        reads as f64 / count.max(1) as f64 * 100.0
    );
    for (d, n) in devices {
        println!("  {d:<5} {n:>10} ({:.1}%)", n as f64 / count.max(1) as f64 * 100.0);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { return usage() };
    let result = match cmd.as_str() {
        "record" => cmd_record(rest),
        "convert" => cmd_convert(rest),
        "info" => cmd_info(rest),
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
