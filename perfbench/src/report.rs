//! Metric definitions, the result document and its validator.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use std::collections::BTreeMap;

use planaria_common::json::{self, Value};

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    m("accesses_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("sim_amat_cycles", "cycles"),
    m("success_rate", "fraction"),
];

/// Per-layer metrics, reported by a traced run. A layer that is not on a
/// workload's path reports 0 there (the `serve` rows on the `open-*`
/// workloads).
pub const PER_LAYER: [MetricDef; 37] = [
    m("trace.ns_per_access", "ns"),
    m("trace.chunks", "count"),
    m("core.ns_per_access", "ns"),
    m("core.alone_ns_per_access", "ns"),
    m("core.calls", "count"),
    m("core.triggers", "count"),
    m("core.requests", "count"),
    m("core.table_accesses", "count"),
    m("core.late", "count"),
    m("core.accuracy", "fraction"),
    m("core.coverage", "fraction"),
    m("core.filtered_frac", "fraction"),
    m("sim.ns_per_access", "ns"),
    m("sim.self_ns_per_access", "ns"),
    m("sim.finish_ms", "ms"),
    m("sim.glue_ns_per_access", "ns"),
    m("cache.alone_ns_per_access", "ns"),
    m("cache.hit_rate", "fraction"),
    m("cache.misses", "count"),
    m("cache.polluting", "count"),
    m("dram.alone_ns_per_request", "ns"),
    m("dram.requests_per_access", "ratio"),
    m("dram.demand_reads", "count"),
    m("dram.prefetch_reads", "count"),
    m("dram.writebacks", "count"),
    m("dram.writebacks_dropped", "count"),
    m("dram.row_hit_rate", "fraction"),
    m("serve.pump_ns_per_access", "ns"),
    m("serve.loop_ns_per_access", "ns"),
    m("serve.turn_p50_ns", "ns"),
    m("serve.turn_p99_ns", "ns"),
    m("serve.turns", "count"),
    m("serve.idle_turns", "count"),
    m("serve.rounds", "count"),
    m("serve.build_us_per_device", "us"),
    m("serve.rss_kb_per_device", "KiB"),
    m("traced.overhead_frac", "fraction"),
];

/// The metric set a run reports.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Everything one benchmark run found, before rendering.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (cells or sessions, including verification
    /// runs).
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Result fingerprint per operation label (cell app or `fleet`).
    pub fingerprints: Vec<(String, u64)>,
    /// Replay output digests per layer (traced runs only).
    pub replay_hashes: Vec<(&'static str, u64)>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records `n` operations, `bad` of which failed for `why`.
    pub fn count(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.problems.push(why());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn write_metrics(w: &mut json::Writer, defs: &[MetricDef], outcome: &Outcome) {
    w.key("metrics");
    w.begin_object();
    for d in defs {
        w.key(d.name);
        w.begin_inline_object();
        w.key("value");
        w.raw(&number(outcome.metrics.get(d.name).copied().unwrap_or(f64::NAN)));
        w.key("unit");
        w.string(d.unit);
        w.end_object();
    }
    w.end_object();
}

/// A metric value with every digit it has (shortest round-trip form);
/// non-finite values render as `null`, which the validator rejects.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The one-line result the benchmark prints last.
pub fn result_line(traced: bool, outcome: &Outcome) -> String {
    let mut w = json::Writer::compact();
    w.begin_object();
    w.key("correct");
    w.bool(outcome.failed == 0);
    w.key("attempted");
    w.u64(outcome.attempted);
    w.key("failed");
    w.u64(outcome.failed);
    write_metrics(&mut w, defs(traced), outcome);
    w.end_object();
    w.finish()
}

/// Schema tag of the full report document.
pub const REPORT_SCHEMA: &str = "planaria-perfbench-v1";

/// The full report: the result plus the workload identity, every
/// operation's fingerprint and, when traced, the replay digests.
pub fn report_doc(workload: &str, seed: u64, traced: bool, outcome: &Outcome) -> String {
    let mut w = json::Writer::pretty();
    w.begin_object();
    w.key("schema");
    w.string(REPORT_SCHEMA);
    w.key("workload");
    w.string(workload);
    w.key("seed");
    w.u64(seed);
    w.key("trace");
    w.bool(traced);
    w.key("correct");
    w.bool(outcome.failed == 0);
    w.key("attempted");
    w.u64(outcome.attempted);
    w.key("failed");
    w.u64(outcome.failed);
    write_metrics(&mut w, defs(traced), outcome);
    w.key("fingerprints");
    w.begin_object();
    for (label, fp) in &outcome.fingerprints {
        w.key(label);
        w.string(&crate::stats::hex(*fp));
    }
    w.end_object();
    w.key("replay_hashes");
    w.begin_object();
    for (layer, h) in &outcome.replay_hashes {
        w.key(layer);
        w.string(&crate::stats::hex(*h));
    }
    w.end_object();
    w.key("problems");
    w.begin_array();
    for p in &outcome.problems {
        w.string(p);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Checks the `metrics` object of a result or report: every metric of the
/// mode present, with a finite number value and the declared unit.
fn check_metrics(doc: &Value, traced: bool) -> Result<(), String> {
    let metrics = doc.get("metrics").ok_or("missing \"metrics\"")?;
    for d in defs(traced) {
        let entry = metrics.get(d.name).ok_or_else(|| format!("missing metric {:?}", d.name))?;
        entry
            .get("value")
            .and_then(Value::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {:?} has no numeric value", d.name))?;
        match entry.get("unit").and_then(Value::as_str) {
            Some(u) if u == d.unit => {}
            Some(u) => {
                return Err(format!("metric {:?} has unit {u:?}, want {:?}", d.name, d.unit))
            }
            None => return Err(format!("metric {:?} has no unit", d.name)),
        }
    }
    Ok(())
}

fn count(doc: &Value, key: &str) -> Result<u64, String> {
    let v = doc.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing {key:?}"))?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("{key:?} is not a whole number"));
    }
    Ok(v as u64)
}

/// Validates the one-line result: exactly the four keys, whole counts
/// with `attempted ≥ 1`, and every metric of the mode.
pub fn validate_result(text: &str, traced: bool) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("malformed result: {e}"))?;
    let keys: Vec<&str> =
        doc.as_object().ok_or("result is not an object")?.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}, want correct/attempted/failed/metrics"));
    }
    if !matches!(doc.get("correct"), Some(Value::Bool(_))) {
        return Err("\"correct\" is not a boolean".into());
    }
    if count(&doc, "attempted")? == 0 {
        return Err("\"attempted\" is 0".into());
    }
    count(&doc, "failed")?;
    check_metrics(&doc, traced)
}

/// Validates a full report: schema, metrics, and a well-formed
/// fingerprint for every label in `expect_fingerprints`.
pub fn validate_report(text: &str, expect_fingerprints: &[&str]) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("malformed report: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(REPORT_SCHEMA) {
        return Err(format!("missing schema {REPORT_SCHEMA:?}"));
    }
    let traced = match doc.get("trace") {
        Some(Value::Bool(t)) => *t,
        _ => return Err("missing boolean \"trace\"".into()),
    };
    check_metrics(&doc, traced)?;
    let fps = doc.get("fingerprints").ok_or("missing \"fingerprints\"")?;
    for label in expect_fingerprints {
        let fp = fps
            .get(label)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("missing fingerprint for {label:?}"))?;
        let ok = fp
            .strip_prefix("0x")
            .is_some_and(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()));
        if !ok {
            return Err(format!("fingerprint {fp:?} for {label:?} is not 0x + 16 hex digits"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(traced: bool) -> Outcome {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        for (i, d) in defs(traced).iter().enumerate() {
            o.set(d.name, 1.5 + i as f64);
        }
        o.fingerprints = vec![("HoK".into(), 0x0123_4567_89ab_cdef), ("Cfm".into(), 7)];
        o
    }

    #[test]
    fn fresh_documents_validate() {
        for traced in [false, true] {
            let o = outcome(traced);
            let line = result_line(traced, &o);
            assert!(!line.contains('\n'));
            validate_result(&line, traced).expect("result validates");
            validate_report(&report_doc("open-planaria", 0, traced, &o), &["HoK", "Cfm"])
                .expect("report validates");
        }
    }

    #[test]
    fn validator_rejects_a_missing_metric() {
        let mut o = outcome(false);
        o.metrics.remove("setup_s");
        let err = validate_result(&result_line(false, &o), false).expect_err("missing metric");
        assert!(err.contains("setup_s"), "{err}");
        // A traced document lacks the end-to-end metrics altogether.
        let traced = result_line(true, &outcome(true));
        assert!(validate_result(&traced, false).is_err());
    }

    #[test]
    fn validator_rejects_a_missing_or_wrong_unit() {
        let line = result_line(false, &outcome(false));
        let no_unit = line.replace(",\"unit\":\"MiB\"", "");
        assert_ne!(no_unit, line);
        assert!(validate_result(&no_unit, false).expect_err("no unit").contains("no unit"));
        let wrong = line.replace("\"MiB\"", "\"MB\"");
        assert!(validate_result(&wrong, false).expect_err("wrong unit").contains("unit"));
    }

    #[test]
    fn validator_rejects_a_missing_or_malformed_fingerprint() {
        let doc = report_doc("open-planaria", 0, false, &outcome(false));
        let err = validate_report(&doc, &["HoK", "Cfm", "TikT"]).expect_err("missing label");
        assert!(err.contains("TikT"), "{err}");
        let bad = doc.replace("0x0123456789abcdef", "0x0123");
        assert!(validate_report(&bad, &["HoK"]).expect_err("short").contains("hex"));
    }

    #[test]
    fn validator_rejects_bad_counts_and_keys() {
        let mut o = outcome(false);
        o.attempted = 0;
        assert!(validate_result(&result_line(false, &o), false).is_err());
        let mut nan = outcome(false);
        nan.set("setup_s", f64::NAN);
        assert!(validate_result(&result_line(false, &nan), false).is_err());
        assert!(validate_result("{\"correct\":true}", false).is_err());
    }

    #[test]
    fn definitions_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, want) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let got: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Value::as_str).expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                want.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
            assert_eq!(got, want, "{key} in BENCHMARK.json");
        }
    }
}
