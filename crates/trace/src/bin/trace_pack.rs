//! `trace_pack` — record, convert and inspect chunked `planaria-trace-v1`
//! files (the streaming replay format; byte layout in `TRACE_FORMAT.md`).
//!
//! ```text
//! trace_pack record --app HoK --len 10000000 --out hok.ptrace
//! trace_pack convert hok.bin hok.ptrace
//! trace_pack info hok.ptrace
//! ```
//!
//! `record` renders the app's synthetic workload straight to disk through
//! the streaming generators — memory use is independent of `--len`, so
//! packing 100M+ access traces is routine. `convert` re-encodes a legacy
//! `.bin`/text trace (materialized, the legacy format is not chunked) or
//! stream-copies an existing v1 file. `info` replays a v1 file in constant
//! memory and prints its header and per-device histogram.

#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::Path;
use std::process::ExitCode;

use planaria_trace::apps::{profile, AppId};
use planaria_trace::io::{ChunkedTraceReader, ChunkedTraceWriter};
use planaria_trace::stream::AccessStream;
use planaria_trace::{io, Trace};

/// Accesses moved per `next_chunk`/`write_chunk` round.
const COPY_CHUNK: usize = 65_536;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_pack record --app <ABBR> --len <N> --out <FILE> [--seed <S>]\n  \
         trace_pack convert <IN> <OUT>\n  trace_pack info <FILE>\n\n\
         apps: {}",
        AppId::ALL.map(|a| a.abbr()).join(", ")
    );
    ExitCode::from(2)
}

/// Returns `true` if the file starts with the v1 chunk magic.
fn sniff_v1(path: &Path) -> Result<bool, String> {
    let mut file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut magic = [0u8; 8];
    let n = file.read(&mut magic).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(n == 8 && &magic == b"PLNTRACE")
}

/// Drains `stream` into a v1 file at `out`, in constant memory.
fn pack_stream(stream: &mut dyn AccessStream, out: &Path) -> Result<u64, String> {
    let total = stream.total_len().ok_or("cannot pack a stream of unknown length")?;
    let file = File::create(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let name = stream.name().to_string();
    let mut writer = ChunkedTraceWriter::new(BufWriter::new(file), &name, total)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    let mut chunk = Vec::new();
    while stream.next_chunk(COPY_CHUNK, &mut chunk) > 0 {
        writer.write_chunk(&chunk).map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    if let Some(e) = stream.error() {
        return Err(format!("input stream failed: {e}"));
    }
    writer.finish().map_err(|e| format!("write {}: {e}", out.display()))?;
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
    let total = pack_stream(&mut spec.stream(), Path::new(&out))?;
    println!("wrote {out} — {} ({total} accesses, streamed)", spec.abbr);
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else { return Err("convert needs <IN> <OUT>".into()) };
    let in_path = Path::new(input);
    let out_path = Path::new(output);
    let total = if sniff_v1(in_path)? {
        // v1 → v1: stream-copy, constant memory.
        let file = File::open(in_path).map_err(|e| format!("open {input}: {e}"))?;
        let mut reader = ChunkedTraceReader::new(BufReader::new(file))
            .map_err(|e| format!("parse {input}: {e}"))?;
        pack_stream(&mut reader, out_path)?
    } else {
        // Legacy binary/text → v1: the legacy formats are not chunked, so
        // the input is materialized once.
        let name = in_path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace").to_string();
        let file = File::open(in_path).map_err(|e| format!("open {input}: {e}"))?;
        let reader = BufReader::new(file);
        let trace: Trace = if in_path.extension().is_some_and(|e| e == "bin") {
            io::read_binary(name, reader)
        } else {
            io::read_text(name, reader)
        }
        .map_err(|e| format!("parse {input}: {e}"))?;
        pack_stream(&mut trace.stream(), out_path)?
    };
    println!("converted {input} -> {output} ({total} accesses)");
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a file")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut reader =
        ChunkedTraceReader::new(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))?;
    // Stream the whole file, aggregating summary stats in constant memory.
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
        "{}: {count} accesses, {duration} cycles, {:.1}% reads (planaria-trace-v1)",
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
