//! Layer-boundary wrappers: spans and tapes recorded from outside the
//! library, around the calls the simulator makes into the `trace` and
//! `core` layers.
//!
//! Both wrappers forward every trait method to the wrapped value, so a
//! wrapped run produces the same results as an unwrapped one (the tests
//! below and the traced-versus-untraced fingerprint check pin that).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use planaria_common::{MemAccess, PrefetchOrigin, PrefetchRequest};
use planaria_core::Prefetcher;
use planaria_telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
use planaria_trace::io::ParseTraceError;
use planaria_trace::stream::AccessStream;

use crate::stats::{Digest, Span};

/// An [`AccessStream`] that records a span around every `next_chunk` of
/// the stream it borrows.
pub struct TracedStream<'a> {
    inner: &'a mut dyn AccessStream,
    /// Time inside `next_chunk`; `calls` counts chunks requested.
    pub span: Span,
}

impl<'a> TracedStream<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn AccessStream) -> Self {
        Self { inner, span: Span::default() }
    }
}

impl AccessStream for TracedStream<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn total_len(&self) -> Option<u64> {
        self.inner.total_len()
    }

    fn next_chunk(&mut self, max: usize, out: &mut Vec<MemAccess>) -> usize {
        let t0 = Instant::now();
        let n = self.inner.next_chunk(max, out);
        self.span.close(t0);
        n
    }

    fn error(&self) -> Option<&ParseTraceError> {
        self.inner.error()
    }
}

/// What a [`TracedPrefetcher`] saw during one run.
#[derive(Debug, Default)]
pub struct CoreRecord {
    /// Time inside `on_access`/`on_batch`; `calls` counts accesses seen.
    pub span: Span,
    /// Accesses observed with `hit == false` (the prefetcher's triggers).
    pub triggers: u64,
    /// Prefetch requests the prefetcher emitted.
    pub requests: u64,
    /// Digest of the emitted requests in order (see [`request_words`]).
    pub request_digest: Digest,
    /// The prefetcher's metadata-table accesses at the end of the run.
    pub table_accesses: u64,
    /// Every observed `(access, hit)` in order — the input tape the
    /// standalone replay feeds a fresh prefetcher.
    pub tape: Vec<(MemAccess, bool)>,
    /// Every emitted request with the tape index of its trigger.
    pub emitted: Vec<(usize, PrefetchRequest)>,
}

/// The words a prefetch request contributes to a request digest.
pub fn request_words(req: &PrefetchRequest) -> [u64; 3] {
    let origin = match req.origin {
        PrefetchOrigin::Slp => 0,
        PrefetchOrigin::Tlp => 1,
        PrefetchOrigin::Baseline => 2,
    };
    [req.addr.as_u64(), origin, req.triggered_at.as_u64()]
}

/// Shared slot a [`TracedPrefetcher`] hands its [`CoreRecord`] into when
/// the memory system that owns it is dropped.
pub type CoreSlot = Arc<Mutex<Option<CoreRecord>>>;

/// A [`Prefetcher`] that times every call into the wrapped prefetcher and
/// records its input and output tapes.
///
/// The memory system owns its prefetcher and drops it when the run
/// finishes; the record is then moved into the [`CoreSlot`] returned by
/// [`TracedPrefetcher::new`].
pub struct TracedPrefetcher {
    inner: Box<dyn Prefetcher>,
    rec: CoreRecord,
    slot: CoreSlot,
}

impl TracedPrefetcher {
    /// Wraps `inner`; the returned slot receives the record on drop.
    pub fn new(inner: Box<dyn Prefetcher>) -> (Self, CoreSlot) {
        let slot = CoreSlot::default();
        (Self { inner, rec: CoreRecord::default(), slot: Arc::clone(&slot) }, slot)
    }

    fn record(&mut self, access: &MemAccess, hit: bool, emitted: &[PrefetchRequest]) {
        let index = self.rec.tape.len();
        self.rec.tape.push((*access, hit));
        self.rec.triggers += u64::from(!hit);
        self.rec.requests += emitted.len() as u64;
        for req in emitted {
            for w in request_words(req) {
                self.rec.request_digest.word(w);
            }
            self.rec.emitted.push((index, *req));
        }
    }
}

impl Prefetcher for TracedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.on_access(access, hit, out);
        self.rec.span.close(t0);
        self.record(access, hit, &out[before..]);
    }

    /// Forwards the whole batch; its requests are attributed to the
    /// batch's last access on the emitted tape (the batch API does not
    /// say which access produced which request).
    fn on_batch(&mut self, batch: &[(MemAccess, bool)], out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.on_batch(batch, out);
        let ns = crate::stats::elapsed_ns(t0);
        self.rec.span.ns += ns;
        self.rec.span.calls += batch.len() as u64;
        if let Some((last, rest)) = batch.split_last() {
            for (access, hit) in rest {
                self.record(access, *hit, &[]);
            }
            self.record(&last.0, last.1, &out[before..]);
        }
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn table_accesses(&self) -> u64 {
        self.inner.table_accesses()
    }

    fn configure_telemetry(&mut self, cfg: &TelemetryConfig) {
        self.inner.configure_telemetry(cfg);
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.inner.telemetry()
    }

    fn telemetry_report(&mut self) -> Option<TelemetryReport> {
        self.inner.telemetry_report()
    }
}

impl Drop for TracedPrefetcher {
    fn drop(&mut self) {
        self.rec.table_accesses = self.inner.table_accesses();
        // A poisoned slot means the run already panicked; the record is
        // dropped and the run is reported failed by its caller.
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(std::mem::take(&mut self.rec));
        }
    }
}

/// Takes the record out of a slot once the owning system was dropped.
pub fn take_record(slot: &CoreSlot) -> Option<CoreRecord> {
    slot.lock().ok().and_then(|mut s| s.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use planaria_common::{Cycle, PhysAddr};
    use planaria_sim::experiment::PrefetcherKind;
    use planaria_sim::{MemorySystem, SystemConfig};
    use planaria_trace::apps::{profile, AppId};
    use planaria_trace::io::{write_chunked, ChunkedTraceReader};

    fn accesses(n: usize) -> Vec<MemAccess> {
        profile(AppId::HoK).scaled(n).build().accesses().to_vec()
    }

    #[test]
    fn prefetcher_wrapper_forwards_every_method() {
        for kind in [PrefetcherKind::Planaria, PrefetcherKind::Bop] {
            let mut plain = kind.build();
            let (mut traced, slot) = TracedPrefetcher::new(kind.build());
            assert_eq!(traced.name(), plain.name());
            assert_eq!(traced.storage_bits(), plain.storage_bits());

            let events = TelemetryConfig::events();
            plain.configure_telemetry(&events);
            traced.configure_telemetry(&events);
            assert_eq!(traced.telemetry().is_some(), plain.telemetry().is_some());

            let tape: Vec<(MemAccess, bool)> =
                accesses(3_000).into_iter().enumerate().map(|(i, a)| (a, i % 3 == 0)).collect();
            let (mut out_plain, mut out_traced) = (Vec::new(), Vec::new());
            for (a, hit) in &tape[..2_000] {
                plain.on_access(a, *hit, &mut out_plain);
                traced.on_access(a, *hit, &mut out_traced);
            }
            plain.on_batch(&tape[2_000..], &mut out_plain);
            traced.on_batch(&tape[2_000..], &mut out_traced);
            assert_eq!(out_traced, out_plain);
            assert_eq!(traced.table_accesses(), plain.table_accesses());
            assert_eq!(traced.telemetry_report(), plain.telemetry_report());

            let table_accesses = plain.table_accesses();
            drop(traced);
            let rec = take_record(&slot).expect("record handed over on drop");
            assert_eq!(rec.tape, tape);
            assert_eq!(rec.span.calls, 3_000);
            assert_eq!(rec.requests, out_plain.len() as u64);
            assert_eq!(rec.emitted.len(), out_plain.len());
            assert_eq!(rec.triggers, tape.iter().filter(|(_, hit)| !hit).count() as u64);
            assert_eq!(rec.table_accesses, table_accesses);
        }
    }

    #[test]
    fn stream_wrapper_forwards_every_method() {
        let spec = profile(AppId::Cfm).scaled(1_000);
        let mut plain = spec.stream();
        let mut inner = spec.stream();
        let mut traced = TracedStream::new(&mut inner);
        assert_eq!(traced.name(), plain.name());
        assert_eq!(traced.total_len(), plain.total_len());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        while plain.next_chunk(300, &mut a) > 0 {
            assert_eq!(traced.next_chunk(300, &mut b), a.len());
            assert_eq!(a, b);
        }
        assert_eq!(traced.next_chunk(300, &mut b), 0);
        assert_eq!(traced.span.calls, 5);
        assert!(traced.error().is_none());

        // A truncated packed trace latches an error; the wrapper reports it.
        let mut packed = Vec::new();
        write_chunked(&spec.build(), &mut packed).expect("pack");
        packed.truncate(packed.len() - 100);
        let mut reader = ChunkedTraceReader::new(packed.as_slice()).expect("header");
        let mut broken = TracedStream::new(&mut reader);
        while broken.next_chunk(256, &mut b) > 0 {}
        assert!(broken.error().is_some());
        assert_eq!(broken.total_len(), Some(1_000));
    }

    #[test]
    fn wrappers_leave_results_and_telemetry_unchanged() {
        for kind in [PrefetcherKind::Planaria, PrefetcherKind::Bop] {
            let spec = profile(AppId::TikT).scaled(20_000);
            let plain = MemorySystem::new(SystemConfig::default(), kind.build());
            let (want, want_tel) = plain.run_stream_telemetry(&mut spec.stream(), 0.0);

            let (pf, slot) = TracedPrefetcher::new(kind.build());
            let traced = MemorySystem::new(SystemConfig::default(), Box::new(pf));
            let mut inner = spec.stream();
            let mut stream = TracedStream::new(&mut inner);
            let (got, got_tel) = traced.run_stream_telemetry(&mut stream, 0.0);
            assert_eq!(got.fingerprint(), want.fingerprint());
            assert_eq!(got_tel.counters, want_tel.counters);
            let rec = take_record(&slot).expect("record");
            assert_eq!(rec.span.calls, 20_000);
            assert_eq!(stream.span.calls, 4, "three 8192-access chunks and the end");
        }
    }

    #[test]
    fn request_words_distinguish_origin() {
        let mut a = PrefetchRequest::new(PhysAddr::new(0x40), PrefetchOrigin::Slp, Cycle::new(1));
        let w = request_words(&a);
        a.origin = PrefetchOrigin::Tlp;
        assert_ne!(request_words(&a), w);
    }
}
