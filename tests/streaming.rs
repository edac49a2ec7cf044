//! Streaming engine equivalence: the pull-based [`AccessStream`] path
//! must be bit-identical to the materialized path everywhere it is
//! offered — open loop, closed loop, through the parallel runner at any
//! thread count, under any chunk schedule, and across a round trip
//! through the on-disk `planaria-trace-v1` format (whose byte layout is
//! pinned here exactly as TRACE_FORMAT.md specifies it).

use planaria_common::{AccessKind, Cycle, DeviceId, MemAccess, PhysAddr};
use planaria_sim::experiment::PrefetcherKind;
use planaria_sim::runner::{Job, Runner};
use planaria_sim::{MemorySystem, SystemConfig, TrafficConfig, TrafficModel};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::io::{read_chunked, write_chunked, ChunkedTraceReader, ParseTraceError};
use planaria_trace::{AccessStream, Trace};

fn sys() -> MemorySystem {
    MemorySystem::new(SystemConfig::default(), PrefetcherKind::Planaria.build())
}

#[test]
fn streamed_open_loop_is_bit_identical_to_materialized() {
    for app in [AppId::HoK, AppId::TikT] {
        let spec = profile(app).scaled(20_000);
        let materialized = sys().run_stream(&mut spec.build().stream());
        let streamed = sys().run_stream(&mut spec.stream());
        assert_eq!(materialized, streamed, "{app:?}: streamed open-loop run diverged");
        assert_eq!(materialized.fingerprint(), streamed.fingerprint());
    }
}

#[test]
fn streamed_warmup_is_bit_identical_to_materialized() {
    let spec = profile(AppId::Fort).scaled(20_000);
    let materialized = sys().run_stream_telemetry(&mut spec.build().stream(), 0.25);
    let streamed = sys().run_stream_telemetry(&mut spec.stream(), 0.25);
    assert_eq!(materialized, streamed, "streamed warmup run diverged");
}

#[test]
fn streamed_closed_loop_is_bit_identical_to_materialized() {
    let spec = profile(AppId::Cfm).scaled(15_000);
    let model = |window| TrafficModel::new(TrafficConfig::new(window));
    for window in [2, 8] {
        let (mr, mc, _) = model(window).run_stream_telemetry(sys(), &mut spec.build().stream());
        let (sr, sc, _) = model(window).run_stream_telemetry(sys(), &mut spec.stream());
        assert_eq!(mr, sr, "window {window}: streamed closed-loop result diverged");
        assert_eq!(mc, sc, "window {window}: streamed closed-loop report diverged");
    }
}

#[test]
fn runner_streamed_jobs_are_thread_count_independent() {
    const APPS: [AppId; 4] = [AppId::Cfm, AppId::HoK, AppId::Ko, AppId::Pm];
    let jobs = || -> Vec<Job> {
        APPS.iter().map(|&app| Job::grid_cell(app, PrefetcherKind::Planaria, 10_000)).collect()
    };
    // The materialized trace stays the reference the streamed cells match.
    let materialized: Vec<_> = APPS
        .iter()
        .map(|&app| sys().run_stream(&mut profile(app).scaled(10_000).build().stream()))
        .collect();
    for threads in [1, 8] {
        let cells = Runner::new(threads).run(jobs()).into_results();
        assert_eq!(cells, materialized, "runner cells at {threads} threads diverged");
    }
}

#[test]
fn pack_round_trip_preserves_the_trace_exactly() {
    let trace = profile(AppId::IdV).scaled(12_000).build();
    let mut bytes = Vec::new();
    write_chunked(&trace, &mut bytes).expect("in-memory write cannot fail");

    // Whole-file decode.
    let back = read_chunked(&bytes[..]).expect("round trip must parse");
    assert_eq!(trace.name(), back.name());
    assert_eq!(trace.accesses(), back.accesses());

    // Streaming decode through the engine: replaying the packed bytes must
    // give the same simulation result as the in-memory trace.
    let mut reader = ChunkedTraceReader::new(&bytes[..]).expect("header must parse");
    assert_eq!(reader.total_len(), Some(trace.len() as u64));
    let streamed = sys().run_stream(&mut reader);
    let materialized = sys().run_stream(&mut trace.stream());
    assert_eq!(materialized, streamed, "packed replay diverged from in-memory run");
}

/// Clips every pull to at most `cap` records, exercising arbitrary chunk
/// schedules against a stream that would otherwise fill `max`.
struct Rechunk<S> {
    inner: S,
    cap: usize,
}

impl<S: AccessStream> AccessStream for Rechunk<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_len(&self) -> Option<u64> {
        self.inner.total_len()
    }

    fn next_chunk(&mut self, max: usize, out: &mut Vec<MemAccess>) -> usize {
        self.inner.next_chunk(max.min(self.cap), out)
    }

    fn error(&self) -> Option<&ParseTraceError> {
        self.inner.error()
    }
}

#[test]
fn chunk_schedule_does_not_change_results() {
    let spec = profile(AppId::Qsm).scaled(15_000);
    let reference = sys().run_stream(&mut spec.build().stream());
    for cap in [1usize, 4096, 1 << 20] {
        let mut stream = Rechunk { inner: spec.stream(), cap };
        let r = sys().run_stream(&mut stream);
        assert_eq!(reference, r, "chunk cap {cap} changed the simulation result");
    }
}

#[test]
fn v1_byte_layout_is_pinned() {
    // Two accesses with every field exercised; the expected bytes below
    // are the normative TRACE_FORMAT.md encoding, written out by hand.
    // If this test fails, the format changed: bump the version, do not
    // reinterpret v1.
    let trace = Trace::new(
        "ab",
        vec![
            MemAccess::new(
                PhysAddr::new(0x1122_3344_5566_7788),
                AccessKind::Read,
                DeviceId::Cpu(3),
                Cycle::new(5),
            ),
            MemAccess::new(
                PhysAddr::new(0x00AA),
                AccessKind::Write,
                DeviceId::Gpu,
                Cycle::new(0x0100),
            ),
        ],
    );
    let mut bytes = Vec::new();
    write_chunked(&trace, &mut bytes).expect("in-memory write cannot fail");

    let mut expected = Vec::new();
    expected.extend_from_slice(b"PLNTRACE"); // magic
    expected.extend_from_slice(&1u32.to_le_bytes()); // version
    expected.extend_from_slice(&0u32.to_le_bytes()); // flags
    expected.extend_from_slice(&2u64.to_le_bytes()); // total accesses
    expected.extend_from_slice(&2u16.to_le_bytes()); // name length
    expected.extend_from_slice(b"ab"); // name
    expected.extend_from_slice(&2u32.to_le_bytes()); // frame: 2 records
    expected.extend_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes()); // addr
    expected.extend_from_slice(&5u64.to_le_bytes()); // cycle
    expected.push(0); // kind: Read
    expected.push(3); // device: Cpu(3)
    expected.extend_from_slice(&0x00AAu64.to_le_bytes()); // addr
    expected.extend_from_slice(&0x0100u64.to_le_bytes()); // cycle
    expected.push(1); // kind: Write
    expected.push(8); // device: Gpu
    expected.extend_from_slice(&0u32.to_le_bytes()); // terminator frame

    assert_eq!(bytes, expected, "planaria-trace-v1 byte layout changed");

    // And the pinned bytes decode back to the original trace.
    let back = read_chunked(&expected[..]).expect("pinned bytes must parse");
    assert_eq!(back.name(), "ab");
    assert_eq!(back.accesses(), trace.accesses());
}
