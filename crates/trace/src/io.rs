//! Text and binary trace serialisation.
//!
//! Two interchangeable encodings are provided:
//!
//! * **Text** — one access per line, `R|W <hex addr> <device> <cycle>`,
//!   with `#` comment lines; convenient for inspection and diffing.
//! * **Chunked binary (`planaria-trace-v1`)** — fixed 18-byte
//!   little-endian records framed into length-prefixed chunks behind a
//!   versioned, self-naming header, so a [`ChunkedTraceReader`] can replay
//!   arbitrarily long traces in constant memory. The byte layout is
//!   normatively specified in `TRACE_FORMAT.md` at the repository root and
//!   pinned byte-for-byte by `tests/streaming.rs`.
//!
//! Both formats round-trip exactly (tested by unit and property tests).
//! Every size and count field read from disk is bounds-checked before it
//! is trusted: readers fail with a specific [`ParseTraceError`] variant
//! instead of over-allocating or misparsing on corrupt input.

#![deny(clippy::cast_possible_truncation)]

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use planaria_common::{AccessKind, Cycle, DeviceId, MemAccess, PhysAddr};

use crate::stream::AccessStream;
use crate::Trace;

/// Errors produced while parsing a trace.
///
/// Variants are specific enough for a caller (or a test) to tell *what*
/// was rejected — a truncated stream reads differently from a corrupt
/// record or an over-large declared count.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A malformed text line (1-based line number and message).
    Line(usize, String),
    /// The input does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not one this reader understands.
    UnsupportedVersion(u32),
    /// The header carries flag bits this reader does not understand.
    UnsupportedFlags(u32),
    /// The input ended in the middle of the named structure.
    Truncated {
        /// What was being read when the input ran out.
        what: &'static str,
    },
    /// A size or count field exceeds its documented bound.
    FieldTooLarge {
        /// The offending field.
        what: &'static str,
        /// The value found in the input.
        value: u64,
        /// The documented maximum.
        max: u64,
    },
    /// A record carries an invalid byte in the named field.
    BadRecord {
        /// Zero-based record index within the trace.
        index: u64,
        /// The offending field (`"kind"` or `"device"`).
        what: &'static str,
        /// The value found in the input.
        value: u8,
    },
    /// A record's cycle is smaller than its predecessor's — the format
    /// requires arrival order, which streamed replay cannot repair by
    /// sorting.
    OutOfOrder {
        /// Zero-based index of the out-of-order record.
        index: u64,
    },
    /// The frames ended but their record counts do not sum to the
    /// header's declared total.
    CountMismatch {
        /// Total accesses declared by the header.
        declared: u64,
        /// Records actually present.
        found: u64,
    },
    /// Bytes follow the terminator frame.
    TrailingData,
    /// The embedded trace name is not valid UTF-8.
    BadName,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "trace io error: {e}"),
            ParseTraceError::Line(n, msg) => write!(f, "trace line {n}: {msg}"),
            ParseTraceError::BadMagic => write!(f, "binary trace: bad magic"),
            ParseTraceError::UnsupportedVersion(v) => {
                write!(f, "binary trace: unsupported version {v}")
            }
            ParseTraceError::UnsupportedFlags(bits) => {
                write!(f, "binary trace: unsupported flags {bits:#x}")
            }
            ParseTraceError::Truncated { what } => {
                write!(f, "binary trace: truncated while reading {what}")
            }
            ParseTraceError::FieldTooLarge { what, value, max } => {
                write!(f, "binary trace: {what} {value} exceeds maximum {max}")
            }
            ParseTraceError::BadRecord { index, what, value } => {
                write!(f, "binary trace: record {index}: bad {what} {value}")
            }
            ParseTraceError::OutOfOrder { index } => {
                write!(f, "binary trace: record {index} is out of cycle order")
            }
            ParseTraceError::CountMismatch { declared, found } => {
                write!(f, "binary trace: header declared {declared} accesses but found {found}")
            }
            ParseTraceError::TrailingData => {
                write!(f, "binary trace: trailing data after terminator frame")
            }
            ParseTraceError::BadName => write!(f, "binary trace: name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseTraceError {
    fn from(e: io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

fn device_from_str(s: &str) -> Option<DeviceId> {
    match s {
        "gpu" => Some(DeviceId::Gpu),
        "npu" => Some(DeviceId::Npu),
        "isp" => Some(DeviceId::Isp),
        "dsp" => Some(DeviceId::Dsp),
        _ => s.strip_prefix("cpu").and_then(|n| n.parse::<u8>().ok()).map(DeviceId::Cpu),
    }
}

/// Writes a trace in the text format and flushes the writer.
///
/// # Errors
///
/// Returns any IO error from the writer, including the final flush.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(w, "# trace: {}", trace.name())?;
    writeln!(w, "# format: kind addr device cycle")?;
    for a in trace.iter() {
        writeln!(w, "{} {:#x} {} {}", a.kind, a.addr, a.device, a.cycle.as_u64())?;
    }
    w.flush()
}

/// Reads a trace from the text format.
///
/// # Errors
///
/// Returns [`ParseTraceError::Line`] on malformed lines and
/// [`ParseTraceError::Io`] on IO failures.
pub fn read_text<R: Read>(name: impl Into<String>, r: R) -> Result<Trace, ParseTraceError> {
    let reader = BufReader::new(r);
    let mut accesses = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = match parts.next() {
            Some("R") => AccessKind::Read,
            Some("W") => AccessKind::Write,
            other => {
                return Err(ParseTraceError::Line(
                    lineno,
                    format!("expected R or W, got {other:?}"),
                ))
            }
        };
        let addr = parts
            .next()
            .and_then(|s| s.strip_prefix("0x"))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(PhysAddr::new)
            .ok_or_else(|| ParseTraceError::Line(lineno, "bad address".into()))?;
        let device = parts
            .next()
            .and_then(device_from_str)
            .ok_or_else(|| ParseTraceError::Line(lineno, "bad device".into()))?;
        let cycle = parts
            .next()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Cycle::new)
            .ok_or_else(|| ParseTraceError::Line(lineno, "bad cycle".into()))?;
        if parts.next().is_some() {
            return Err(ParseTraceError::Line(lineno, "trailing fields".into()));
        }
        accesses.push(MemAccess::new(addr, kind, device, cycle));
    }
    Ok(Trace::new(name, accesses))
}

const RECORD_SIZE: usize = 18;

/// Upper bound on records per chunk frame in `planaria-trace-v1`
/// (normative; see `TRACE_FORMAT.md` §frames). Also used as the
/// pre-allocation clamp when materializing: a corrupt or hostile count
/// field can never make a reader reserve more than
/// `MAX_CHUNK_RECORDS × 24` bytes up front.
pub const MAX_CHUNK_RECORDS: u32 = 1 << 20;

/// Upper bound on the embedded name length in `planaria-trace-v1`
/// (normative; see `TRACE_FORMAT.md` §header).
pub const MAX_NAME_LEN: u16 = 4096;

/// Magic bytes opening a `planaria-trace-v1` file.
const CHUNK_MAGIC: &[u8; 8] = b"PLNTRACE";

/// Version written and accepted by this reader/writer pair.
const CHUNK_VERSION: u32 = 1;

/// [`MAX_CHUNK_RECORDS`] as an in-memory count (checked, never cast).
fn max_chunk_records() -> usize {
    usize::try_from(MAX_CHUNK_RECORDS).expect("u32 chunk bound fits usize")
}

/// Clamps an untrusted declared total to at most one chunk frame's worth
/// of up-front allocation.
fn clamped_capacity(total: u64) -> usize {
    usize::try_from(total.min(u64::from(MAX_CHUNK_RECORDS))).expect("clamped to u32 bound")
}

/// Reads exactly `buf.len()` bytes, mapping a clean EOF to
/// [`ParseTraceError::Truncated`] for the named structure.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), ParseTraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ParseTraceError::Truncated { what }
        } else {
            ParseTraceError::Io(e)
        }
    })
}

/// Decodes one 18-byte record; `index` is used for error reporting only.
fn decode_record(rec: &[u8; RECORD_SIZE], index: u64) -> Result<MemAccess, ParseTraceError> {
    let addr = PhysAddr::new(u64::from_le_bytes(rec[..8].try_into().expect("sized slice")));
    let cycle = Cycle::new(u64::from_le_bytes(rec[8..16].try_into().expect("sized slice")));
    let kind = match rec[16] {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        value => return Err(ParseTraceError::BadRecord { index, what: "kind", value }),
    };
    let device = decode_device(rec[17]).ok_or(ParseTraceError::BadRecord {
        index,
        what: "device",
        value: rec[17],
    })?;
    Ok(MemAccess::new(addr, kind, device, cycle))
}

/// Encodes one access as an 18-byte record.
fn encode_record(a: &MemAccess) -> [u8; RECORD_SIZE] {
    let mut rec = [0u8; RECORD_SIZE];
    rec[..8].copy_from_slice(&a.addr.as_u64().to_le_bytes());
    rec[8..16].copy_from_slice(&a.cycle.as_u64().to_le_bytes());
    rec[16] = if a.kind.is_write() { 1 } else { 0 };
    rec[17] = encode_device(a.device);
    rec
}

fn encode_device(d: DeviceId) -> u8 {
    match d {
        DeviceId::Cpu(i) => i, // 0..=7
        DeviceId::Gpu => 8,
        DeviceId::Npu => 9,
        DeviceId::Isp => 10,
        DeviceId::Dsp => 11,
    }
}

fn decode_device(b: u8) -> Option<DeviceId> {
    match b {
        0..=7 => Some(DeviceId::Cpu(b)),
        8 => Some(DeviceId::Gpu),
        9 => Some(DeviceId::Npu),
        10 => Some(DeviceId::Isp),
        11 => Some(DeviceId::Dsp),
        _ => None,
    }
}

/// Incremental writer for the chunked `planaria-trace-v1` format.
///
/// The writer takes the total access count up front (the header is the
/// first thing on the wire) and enforces it: over- or under-feeding is an
/// error at [`ChunkedTraceWriter::write_chunk`] / `finish` time, so a
/// packed file's header can always be trusted by readers that honour the
/// bounds rules. It enforces arrival order the same way: a cycle smaller
/// than its predecessor's, within one call or across calls, is rejected
/// before any of that call's records are written, so every file it
/// finishes is one [`ChunkedTraceReader`] accepts. Chunks passed in may
/// be any size; they are re-framed to at most [`MAX_CHUNK_RECORDS`]
/// records per frame.
///
/// See `TRACE_FORMAT.md` for the byte layout.
pub struct ChunkedTraceWriter<W: Write> {
    w: W,
    declared: u64,
    written: u64,
    /// Cycle of the last written record, for order validation.
    last_cycle: Cycle,
    buf: Vec<u8>,
}

impl<W: Write> ChunkedTraceWriter<W> {
    /// Writes the header and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] from the underlying writer, or one of kind
    /// [`io::ErrorKind::InvalidInput`] if `name` exceeds
    /// [`MAX_NAME_LEN`] bytes.
    pub fn new(mut w: W, name: &str, total_accesses: u64) -> io::Result<Self> {
        if name.len() > usize::from(MAX_NAME_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace name is {} bytes (max {MAX_NAME_LEN})", name.len()),
            ));
        }
        w.write_all(CHUNK_MAGIC)?;
        w.write_all(&CHUNK_VERSION.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?; // flags
        w.write_all(&total_accesses.to_le_bytes())?;
        let name_len = u16::try_from(name.len()).expect("checked against MAX_NAME_LEN");
        w.write_all(&name_len.to_le_bytes())?;
        w.write_all(name.as_bytes())?;
        Ok(Self {
            w,
            declared: total_accesses,
            written: 0,
            last_cycle: Cycle::ZERO,
            buf: Vec::new(),
        })
    }

    /// Appends `accesses` to the trace, framing as needed.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] from the underlying writer, or one of kind
    /// [`io::ErrorKind::InvalidInput`] if this write would exceed the
    /// declared total or steps back in cycle order.
    pub fn write_chunk(&mut self, accesses: &[MemAccess]) -> io::Result<()> {
        if self.written + accesses.len() as u64 > self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "write_chunk past declared total: {} + {} > {}",
                    self.written,
                    accesses.len(),
                    self.declared
                ),
            ));
        }
        let mut last = self.last_cycle;
        for (i, a) in accesses.iter().enumerate() {
            if a.cycle < last {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "write_chunk out of cycle order: access {} at cycle {} follows cycle {}",
                        self.written + i as u64,
                        a.cycle.as_u64(),
                        last.as_u64()
                    ),
                ));
            }
            last = a.cycle;
        }
        for frame in accesses.chunks(max_chunk_records()) {
            let frame_len = u32::try_from(frame.len()).expect("frame chunked to MAX_CHUNK_RECORDS");
            self.w.write_all(&frame_len.to_le_bytes())?;
            self.buf.clear();
            self.buf.reserve(frame.len() * RECORD_SIZE);
            for a in frame {
                self.buf.extend_from_slice(&encode_record(a));
            }
            self.w.write_all(&self.buf)?;
        }
        self.written += accesses.len() as u64;
        self.last_cycle = last;
        Ok(())
    }

    /// Writes the terminator frame, flushes, and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] from the underlying writer, or one of kind
    /// [`io::ErrorKind::InvalidInput`] if fewer accesses were written than
    /// the header declared.
    pub fn finish(mut self) -> io::Result<W> {
        if self.written != self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("finish after {} of {} declared accesses", self.written, self.declared),
            ));
        }
        self.w.write_all(&0u32.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Writes a whole in-memory trace in the chunked `planaria-trace-v1`
/// format (convenience over [`ChunkedTraceWriter`]).
///
/// # Errors
///
/// Returns any IO error from the writer.
pub fn write_chunked<W: Write>(trace: &Trace, w: W) -> io::Result<()> {
    let mut cw = ChunkedTraceWriter::new(w, trace.name(), trace.len() as u64)?;
    cw.write_chunk(trace.accesses())?;
    cw.finish()?;
    Ok(())
}

/// Streaming reader for the chunked `planaria-trace-v1` format.
///
/// Parses and validates the header eagerly in [`ChunkedTraceReader::new`],
/// then yields records through the [`AccessStream`] interface in constant
/// memory. Every length field is bounds-checked before use, record order
/// is verified to be cycle-sorted, and the frame counts must reconcile
/// with the header's declared total — a file that fails any of these
/// checks latches the specific [`ParseTraceError`] (see
/// [`AccessStream::error`]) and ends the stream.
///
/// # Examples
///
/// ```
/// use planaria_trace::apps::{profile, AppId};
/// use planaria_trace::io::{write_chunked, ChunkedTraceReader};
/// use planaria_trace::stream::AccessStream;
///
/// let trace = profile(AppId::HoK).scaled(1_000).build();
/// let mut packed = Vec::new();
/// write_chunked(&trace, &mut packed).unwrap();
///
/// let mut reader = ChunkedTraceReader::new(packed.as_slice()).unwrap();
/// assert_eq!(reader.name(), "HoK");
/// assert_eq!(reader.total_len(), Some(1_000));
/// let mut chunk = Vec::new();
/// let mut replayed = Vec::new();
/// while reader.next_chunk(256, &mut chunk) > 0 {
///     replayed.extend_from_slice(&chunk);
/// }
/// assert!(reader.error().is_none());
/// assert_eq!(replayed, trace.accesses());
/// ```
pub struct ChunkedTraceReader<R: Read> {
    r: R,
    name: String,
    total: u64,
    /// Records delivered so far (equals records read — delivery is
    /// immediate).
    seen: u64,
    /// Records remaining in the currently open frame.
    frame_left: u32,
    /// Cycle of the last delivered record, for order validation.
    last_cycle: Cycle,
    done: bool,
    error: Option<ParseTraceError>,
    buf: Vec<u8>,
}

impl<R: Read> ChunkedTraceReader<R> {
    /// Parses and validates the header.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError::BadMagic`] /
    /// [`ParseTraceError::UnsupportedVersion`] /
    /// [`ParseTraceError::UnsupportedFlags`] on a foreign or newer file,
    /// [`ParseTraceError::FieldTooLarge`] or [`ParseTraceError::BadName`]
    /// on a corrupt name field, and [`ParseTraceError::Truncated`] /
    /// [`ParseTraceError::Io`] on short or failing reads.
    pub fn new(mut r: R) -> Result<Self, ParseTraceError> {
        let mut fixed = [0u8; 26];
        read_exact_or(&mut r, &mut fixed, "header")?;
        if &fixed[..8] != CHUNK_MAGIC {
            return Err(ParseTraceError::BadMagic);
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().expect("sized slice"));
        if version != CHUNK_VERSION {
            return Err(ParseTraceError::UnsupportedVersion(version));
        }
        let flags = u32::from_le_bytes(fixed[12..16].try_into().expect("sized slice"));
        if flags != 0 {
            return Err(ParseTraceError::UnsupportedFlags(flags));
        }
        let total = u64::from_le_bytes(fixed[16..24].try_into().expect("sized slice"));
        let name_len = u16::from_le_bytes(fixed[24..26].try_into().expect("sized slice"));
        if name_len > MAX_NAME_LEN {
            return Err(ParseTraceError::FieldTooLarge {
                what: "name length",
                value: name_len as u64,
                max: MAX_NAME_LEN as u64,
            });
        }
        let mut name_bytes = vec![0u8; usize::from(name_len)];
        read_exact_or(&mut r, &mut name_bytes, "name")?;
        let name = String::from_utf8(name_bytes).map_err(|_| ParseTraceError::BadName)?;
        Ok(Self {
            r,
            name,
            total,
            seen: 0,
            frame_left: 0,
            last_cycle: Cycle::ZERO,
            done: false,
            error: None,
            buf: Vec::new(),
        })
    }

    /// Latches `err`, permanently ending the stream.
    fn fail(&mut self, err: ParseTraceError) {
        self.error = Some(err);
        self.done = true;
    }

    /// Opens the next frame. Returns `false` when the stream ends (clean
    /// terminator or latched error).
    fn open_frame(&mut self) -> bool {
        let mut len_buf = [0u8; 4];
        if let Err(e) = read_exact_or(&mut self.r, &mut len_buf, "frame header") {
            self.fail(e);
            return false;
        }
        let count = u32::from_le_bytes(len_buf);
        if count == 0 {
            // Terminator: totals must reconcile and the input must end.
            self.done = true;
            if self.seen != self.total {
                self.fail(ParseTraceError::CountMismatch {
                    declared: self.total,
                    found: self.seen,
                });
            } else if self.r.read(&mut len_buf[..1]).is_ok_and(|n| n > 0) {
                self.fail(ParseTraceError::TrailingData);
            }
            return false;
        }
        if count > MAX_CHUNK_RECORDS {
            self.fail(ParseTraceError::FieldTooLarge {
                what: "frame record count",
                value: count as u64,
                max: MAX_CHUNK_RECORDS as u64,
            });
            return false;
        }
        if self.seen + count as u64 > self.total {
            self.fail(ParseTraceError::CountMismatch {
                declared: self.total,
                found: self.seen + count as u64,
            });
            return false;
        }
        self.frame_left = count;
        true
    }
}

impl<R: Read> AccessStream for ChunkedTraceReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn total_len(&self) -> Option<u64> {
        Some(self.total)
    }

    fn next_chunk(&mut self, max: usize, out: &mut Vec<MemAccess>) -> usize {
        out.clear();
        while out.len() < max && !self.done {
            if self.frame_left == 0 && !self.open_frame() {
                break;
            }
            let frame_left = usize::try_from(self.frame_left).expect("u32 count fits usize");
            let n = (max - out.len()).min(frame_left);
            self.buf.resize(n * RECORD_SIZE, 0);
            if let Err(e) = read_exact_or(&mut self.r, &mut self.buf, "record") {
                self.fail(e);
                break;
            }
            for (i, raw) in self.buf.chunks_exact(RECORD_SIZE).enumerate() {
                let rec: &[u8; RECORD_SIZE] = raw.try_into().expect("sized chunk");
                match decode_record(rec, self.seen + i as u64) {
                    Ok(access) => {
                        if access.cycle < self.last_cycle {
                            self.fail(ParseTraceError::OutOfOrder { index: self.seen + i as u64 });
                            break;
                        }
                        self.last_cycle = access.cycle;
                        out.push(access);
                    }
                    Err(e) => {
                        self.fail(e);
                        break;
                    }
                }
            }
            if self.done {
                break;
            }
            self.seen += n as u64;
            self.frame_left -= u32::try_from(n).expect("n clamped to frame_left");
        }
        out.len()
    }

    fn error(&self) -> Option<&ParseTraceError> {
        self.error.as_ref()
    }
}

/// Materializes a chunked `planaria-trace-v1` file into a [`Trace`].
///
/// The trace name comes from the file header (the format is
/// self-describing). Pre-allocation is clamped to [`MAX_CHUNK_RECORDS`]
/// records regardless of the declared total.
///
/// # Errors
///
/// Returns the specific [`ParseTraceError`] variant describing the first
/// corruption found, or [`ParseTraceError::Io`] on IO failures.
pub fn read_chunked<R: Read>(r: R) -> Result<Trace, ParseTraceError> {
    let mut reader = ChunkedTraceReader::new(r)?;
    let total = reader.total_len().unwrap_or(0);
    let mut accesses = Vec::with_capacity(clamped_capacity(total));
    let mut chunk = Vec::new();
    while reader.next_chunk(max_chunk_records(), &mut chunk) > 0 {
        accesses.extend_from_slice(&chunk);
    }
    if let Some(e) = reader.error.take() {
        return Err(e);
    }
    Ok(Trace::new(reader.name, accesses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        Trace::new(
            "sample",
            vec![
                MemAccess::new(
                    PhysAddr::new(0x1000),
                    AccessKind::Read,
                    DeviceId::Cpu(2),
                    Cycle::new(5),
                ),
                MemAccess::new(
                    PhysAddr::new(0x2040),
                    AccessKind::Write,
                    DeviceId::Gpu,
                    Cycle::new(9),
                ),
                MemAccess::new(
                    PhysAddr::new(0x30c0),
                    AccessKind::Read,
                    DeviceId::Dsp,
                    Cycle::new(14),
                ),
            ],
        )
    }

    #[test]
    fn text_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).expect("write");
        let back = read_text("sample", buf.as_slice()).expect("read");
        assert_eq!(back.accesses(), t.accesses());
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let src = "# hello\n\nR 0x40 cpu0 1\n";
        let t = read_text("t", src.as_bytes()).expect("read");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(read_text("t", "X 0x40 cpu0 1\n".as_bytes()).is_err());
        assert!(read_text("t", "R zz cpu0 1\n".as_bytes()).is_err());
        assert!(read_text("t", "R 0x40 speaker 1\n".as_bytes()).is_err());
        assert!(read_text("t", "R 0x40 cpu0 abc\n".as_bytes()).is_err());
        assert!(read_text("t", "R 0x40 cpu0 1 extra\n".as_bytes()).is_err());
    }

    #[test]
    fn error_display_nonempty() {
        let e = ParseTraceError::Line(3, "bad".into());
        assert!(e.to_string().contains("line 3"));
        let e = ParseTraceError::Truncated { what: "record" };
        assert!(e.to_string().contains("record"));
        let e = ParseTraceError::CountMismatch { declared: 5, found: 3 };
        assert!(e.to_string().contains('5') && e.to_string().contains('3'));
    }

    #[test]
    fn chunked_round_trip_via_writer_and_reader() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_chunked(&t, &mut buf).expect("write");
        let back = read_chunked(buf.as_slice()).expect("read");
        assert_eq!(back.name(), t.name());
        assert_eq!(back.accesses(), t.accesses());
    }

    #[test]
    fn chunked_writer_reframes_across_write_calls() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let mut w = ChunkedTraceWriter::new(&mut buf, t.name(), t.len() as u64).expect("header");
        for a in t.iter() {
            w.write_chunk(std::slice::from_ref(a)).expect("chunk");
        }
        w.finish().expect("finish");
        let back = read_chunked(buf.as_slice()).expect("read");
        assert_eq!(back.accesses(), t.accesses());
    }

    #[test]
    fn chunked_writer_enforces_declared_total() {
        let t = sample_trace();
        let mut w = ChunkedTraceWriter::new(Vec::new(), "t", 2).expect("header");
        assert!(w.write_chunk(t.accesses()).is_err(), "overfeed must fail");
        let mut w = ChunkedTraceWriter::new(Vec::new(), "t", 5).expect("header");
        w.write_chunk(t.accesses()).expect("chunk");
        assert!(w.finish().is_err(), "underfeed must fail at finish");
    }

    #[test]
    fn chunked_writer_rejects_cycles_out_of_order() {
        let at = |cycle| MemAccess::read(PhysAddr::new(0x40), Cycle::new(cycle));
        let mut w = ChunkedTraceWriter::new(Vec::new(), "t", 2).expect("header");
        let err = w.write_chunk(&[at(5), at(3)]).expect_err("a step back within a call");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The check spans calls, and a rejected call writes nothing.
        let mut w = ChunkedTraceWriter::new(Vec::new(), "t", 2).expect("header");
        w.write_chunk(&[at(5)]).expect("first");
        let err = w.write_chunk(&[at(3)]).expect_err("a step back across calls");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        w.write_chunk(&[at(5)]).expect("an equal cycle is in order");
        let packed = w.finish().expect("finish");
        assert_eq!(read_chunked(packed.as_slice()).expect("read").len(), 2);
    }

    /// A well-formed single-frame packed copy of [`sample_trace`].
    fn packed_sample() -> Vec<u8> {
        let mut buf = Vec::new();
        write_chunked(&sample_trace(), &mut buf).expect("write");
        buf
    }

    #[test]
    fn chunked_rejects_corrupt_headers() {
        let buf = packed_sample();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(ChunkedTraceReader::new(bad.as_slice()), Err(ParseTraceError::BadMagic)));
        let mut badv = buf.clone();
        badv[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            ChunkedTraceReader::new(badv.as_slice()),
            Err(ParseTraceError::UnsupportedVersion(9))
        ));
        let mut badf = buf.clone();
        badf[12..16].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            ChunkedTraceReader::new(badf.as_slice()),
            Err(ParseTraceError::UnsupportedFlags(2))
        ));
        let mut badn = buf.clone();
        badn[24..26].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            ChunkedTraceReader::new(badn.as_slice()),
            Err(ParseTraceError::FieldTooLarge { what: "name length", .. })
        ));
        assert!(matches!(
            ChunkedTraceReader::new(&buf[..10]),
            Err(ParseTraceError::Truncated { what: "header" })
        ));
    }

    /// Offset of the first record in [`packed_sample`]: the 26-byte fixed
    /// header, the name `"sample"` and one 4-byte frame count.
    const SAMPLE_RECORD0: usize = 26 + "sample".len() + 4;

    #[test]
    fn chunked_rejects_bad_kind_and_device() {
        let buf = packed_sample();
        let mut bad_kind = buf.clone();
        bad_kind[SAMPLE_RECORD0 + 16] = 7; // first record's kind byte
        assert!(matches!(
            read_chunked(bad_kind.as_slice()),
            Err(ParseTraceError::BadRecord { index: 0, what: "kind", value: 7 })
        ));
        let mut bad_dev = buf;
        bad_dev[SAMPLE_RECORD0 + RECORD_SIZE + 17] = 200; // second record's device byte
        assert!(matches!(
            read_chunked(bad_dev.as_slice()),
            Err(ParseTraceError::BadRecord { index: 1, what: "device", value: 200 })
        ));
    }

    #[test]
    fn chunked_bounds_checks_untrusted_count() {
        // A header declaring u64::MAX accesses must fail once the frames
        // end — and must NOT try to reserve u64::MAX capacity first (this
        // test would abort the process if it did).
        let mut buf = packed_sample();
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_chunked(buf.as_slice()),
            Err(ParseTraceError::CountMismatch { declared: u64::MAX, found: 3 })
        ));
    }

    /// Every single-bit flip of `input`, in bit order.
    fn bit_flips(input: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
        (0..input.len() * 8).map(move |bit| {
            let mut flipped = input.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            (bit, flipped)
        })
    }

    #[test]
    fn chunked_mutation_sweep_errs_or_reserialises_exactly() {
        let packed = packed_sample();
        for (bit, flipped) in bit_flips(&packed) {
            if let Ok(trace) = read_chunked(flipped.as_slice()) {
                let mut again = Vec::new();
                write_chunked(&trace, &mut again).expect("write");
                assert_eq!(again, flipped, "bit {bit} parsed to a different trace");
            }
        }
        for len in 0..packed.len() {
            assert!(read_chunked(&packed[..len]).is_err(), "truncation to {len} bytes parsed");
        }
    }

    #[test]
    fn text_mutation_sweep_never_panics() {
        let mut text = Vec::new();
        write_text(&sample_trace(), &mut text).expect("write");
        for (_, flipped) in bit_flips(&text) {
            let _ = read_text("t", flipped.as_slice());
        }
        for len in 0..text.len() {
            let _ = read_text("t", &text[..len]);
        }
    }

    #[test]
    fn chunked_rejects_truncation_and_frame_corruption() {
        let buf = packed_sample();
        // Truncated mid-record.
        assert!(matches!(
            read_chunked(&buf[..buf.len() - 6]),
            Err(ParseTraceError::Truncated { .. })
        ));
        // Missing terminator frame.
        assert!(matches!(
            read_chunked(&buf[..buf.len() - 4]),
            Err(ParseTraceError::Truncated { what: "frame header" })
        ));
        // Oversized frame count (header is 26 + "sample".len() = 32 bytes).
        let frame_at = 26 + "sample".len();
        let mut huge = buf.clone();
        huge[frame_at..frame_at + 4].copy_from_slice(&(MAX_CHUNK_RECORDS + 1).to_le_bytes());
        assert!(matches!(
            read_chunked(huge.as_slice()),
            Err(ParseTraceError::FieldTooLarge { what: "frame record count", .. })
        ));
        // Frame total exceeding the declared header total.
        let mut over = buf.clone();
        over[frame_at..frame_at + 4].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(
            read_chunked(over.as_slice()),
            Err(ParseTraceError::CountMismatch { declared: 3, found: 4 })
        ));
        // Frames reconciling short of the declared total.
        let mut short = buf.clone();
        short[16..24].copy_from_slice(&9u64.to_le_bytes());
        assert!(matches!(
            read_chunked(short.as_slice()),
            Err(ParseTraceError::CountMismatch { declared: 9, found: 3 })
        ));
        // Trailing bytes after the terminator.
        let mut trailing = buf.clone();
        trailing.push(0xAB);
        assert!(matches!(read_chunked(trailing.as_slice()), Err(ParseTraceError::TrailingData)));
        // Out-of-order records (swap the first record's cycle up).
        let mut unsorted = buf.clone();
        unsorted[SAMPLE_RECORD0 + 8..SAMPLE_RECORD0 + 16].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            read_chunked(unsorted.as_slice()),
            Err(ParseTraceError::OutOfOrder { index: 1 })
        ));
    }

    #[test]
    fn chunked_reader_latches_error_through_stream_interface() {
        let mut buf = packed_sample();
        let n = buf.len();
        buf.truncate(n - 6);
        let mut reader = ChunkedTraceReader::new(buf.as_slice()).expect("header ok");
        let mut chunk = Vec::new();
        while reader.next_chunk(2, &mut chunk) > 0 {}
        assert!(
            matches!(reader.error(), Some(ParseTraceError::Truncated { .. })),
            "truncation must latch: {:?}",
            reader.error()
        );
        // Exhaustion is permanent after a latched error.
        assert_eq!(reader.next_chunk(2, &mut chunk), 0);
    }

    fn arb_access() -> impl Strategy<Value = MemAccess> {
        (0u64..1 << 40, 0u64..1 << 40, any::<bool>(), 0u8..12).prop_map(|(addr, cyc, wr, dev)| {
            MemAccess::new(
                PhysAddr::new(addr),
                if wr { AccessKind::Write } else { AccessKind::Read },
                decode_device(dev).expect("device range"),
                Cycle::new(cyc),
            )
        })
    }

    proptest! {
        #[test]
        fn prop_text_round_trip(accs in proptest::collection::vec(arb_access(), 0..50)) {
            let t = Trace::new("p", accs);
            let mut buf = Vec::new();
            write_text(&t, &mut buf).expect("write");
            let back = read_text("p", buf.as_slice()).expect("read");
            prop_assert_eq!(back.accesses(), t.accesses());
        }

        #[test]
        fn prop_chunked_round_trip(accs in proptest::collection::vec(arb_access(), 0..50)) {
            let t = Trace::new("p", accs);
            let mut buf = Vec::new();
            write_chunked(&t, &mut buf).expect("write");
            let back = read_chunked(buf.as_slice()).expect("read");
            prop_assert_eq!(back.name(), t.name());
            prop_assert_eq!(back.accesses(), t.accesses());
        }
    }
}
