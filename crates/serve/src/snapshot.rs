//! Versioned device snapshot / restore.
//!
//! A quiesced [`ServedDevice`] serialises to a small JSON document —
//! schema `planaria-serve-snapshot-v1`, specified field-by-field in
//! `SERVING.md` — from which [`ServedDevice::restore`] rebuilds a device
//! whose continuation is bit-identical to the original (pinned by
//! `tests/serve.rs`). That property is what lets a device migrate
//! between shards, workers or hosts mid-session.
//!
//! v1 is *replay-based*: the snapshot records the workload identity and
//! the stream position (`consumed`), not the internal state of the cache,
//! prefetcher and DRAM model. Restore re-renders the first `consumed`
//! accesses from the seeded stream and re-simulates them. Because the
//! whole stack is deterministic, the rebuilt state machine is identical;
//! the cost is restore time proportional to the elapsed session, which
//! SERVING.md documents as the accepted v1 trade-off.

#![deny(clippy::cast_possible_truncation)]

use planaria_common::json::{Value, Writer};
use planaria_sim::{PrefetcherKind, SystemConfig};
use planaria_trace::apps::AppId;

use crate::device::{DevicePump, ServedDevice};

/// The schema tag every snapshot document carries.
pub const SNAPSHOT_SCHEMA: &str = "planaria-serve-snapshot-v1";

fn kind_from_label(label: &str) -> Result<PrefetcherKind, String> {
    PrefetcherKind::ALL
        .into_iter()
        .find(|k| k.label() == label)
        .ok_or_else(|| format!("unknown prefetcher label {label:?}"))
}

fn app_from_abbr(abbr: &str) -> Result<AppId, String> {
    AppId::ALL
        .into_iter()
        .find(|a| a.abbr() == abbr)
        .ok_or_else(|| format!("unknown app abbreviation {abbr:?}"))
}

fn str_field<'a>(doc: &'a Value, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("snapshot field {key:?} missing or not a string"))
}

/// Reads a numeric field. The vendored parser carries numbers as `f64`,
/// which is lossless only below 2^53 — fine for the counts stored
/// numerically; full-range u64 fields (`seed`, `home_page`) are strings.
#[allow(clippy::cast_possible_truncation, reason = "range-checked to an integer in 0..=2^53")]
fn num_field(doc: &Value, key: &str) -> Result<u64, String> {
    let v = doc
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("snapshot field {key:?} missing or not a number"))?;
    if v < 0.0 || v.fract() != 0.0 || v > 9_007_199_254_740_992.0 {
        return Err(format!("snapshot field {key:?} is not an exact count: {v}"));
    }
    Ok(v as u64)
}

/// Reads a numeric field that must fit the platform's `usize` (lengths,
/// window and mailbox sizes). An out-of-range value is a typed error,
/// never a silent truncation.
fn usize_field(doc: &Value, key: &str) -> Result<usize, String> {
    let v = num_field(doc, key)?;
    usize::try_from(v)
        .map_err(|_| format!("snapshot field {key:?} value {v} exceeds this platform's usize"))
}

fn u64_string_field(doc: &Value, key: &str) -> Result<u64, String> {
    str_field(doc, key)?
        .parse::<u64>()
        .map_err(|e| format!("snapshot field {key:?} is not a decimal u64: {e}"))
}

impl ServedDevice {
    /// Serialises this device to a `planaria-serve-snapshot-v1` JSON
    /// document, quiescing it first (snapshots are only meaningful at the
    /// input-starved point, where the mailbox is empty and the simulated
    /// state is a pure function of the accesses consumed so far).
    ///
    /// # Errors
    ///
    /// Fails for externally fed devices (their traffic is not
    /// replayable) and for devices that already finished.
    ///
    /// # Examples
    ///
    /// Snapshot round-trip — the restored device continues bit-identically:
    ///
    /// ```
    /// use planaria_serve::{DeviceSpec, ServedDevice};
    /// use planaria_trace::apps::AppId;
    ///
    /// let spec = DeviceSpec::new(7, AppId::Cfm).scaled(600);
    ///
    /// // Run a device halfway, snapshot it, restore, finish both.
    /// let mut original = ServedDevice::from_spec(spec.clone());
    /// original.ingest(300);
    /// original.quiesce();
    /// let doc = original.snapshot().unwrap();
    /// assert!(doc.contains("planaria-serve-snapshot-v1"));
    ///
    /// let parsed = planaria_common::json::parse(&doc).unwrap();
    /// let mut restored = ServedDevice::restore(&parsed, spec.system).unwrap();
    ///
    /// while !original.is_done() { original.ingest(usize::MAX); original.quiesce(); }
    /// while !restored.is_done() { restored.ingest(usize::MAX); restored.quiesce(); }
    /// assert_eq!(original.report(), restored.report());
    /// ```
    pub fn snapshot(&mut self) -> Result<String, String> {
        if self.source.is_none() {
            return Err("externally fed devices cannot snapshot (no replayable source)".into());
        }
        if self.is_done() {
            return Err("session already finished; persist its report instead".into());
        }
        if self.quiesce() != DevicePump::Starved {
            return Err("device finished while quiescing; persist its report instead".into());
        }
        debug_assert_eq!(self.mailbox_len(), 0, "quiesced device has an empty mailbox");

        let mut w = Writer::pretty();
        w.begin_object();
        w.key("schema");
        w.string(SNAPSHOT_SCHEMA);
        w.key("device");
        w.u64(self.spec.id);
        // Full-range u64s go through strings: the parser's f64 numbers
        // would silently round values above 2^53.
        w.key("home_page");
        w.string(&self.spec.home_page.to_string());
        w.key("app");
        w.string(self.spec.app.abbr());
        w.key("length");
        w.u64(self.spec.length as u64);
        w.key("seed");
        w.string(&self.spec.seed.to_string());
        w.key("window");
        w.u64(self.spec.window as u64);
        w.key("mailbox");
        w.u64(self.spec.mailbox as u64);
        w.key("pool_cap");
        match self.spec.pool_cap {
            Some(cap) => w.u64(cap as u64),
            None => w.null(),
        }
        w.key("prefetcher");
        w.string(self.spec.kind.label());
        w.key("consumed");
        w.u64(self.consumed);
        w.key("eof");
        w.bool(self.source_eof);
        w.end_object();
        Ok(w.finish())
    }

    /// Rebuilds a device from a parsed snapshot document so that its
    /// continuation is bit-identical to the snapshotted original.
    ///
    /// `system` supplies the memory-system sizing: v1 snapshots
    /// deliberately do not serialise [`SystemConfig`] (it is fleet
    /// configuration, not session state — SERVING.md requires the
    /// operator to restore under the same config the device ran with).
    ///
    /// # Errors
    ///
    /// Fails on a wrong/missing schema tag, missing or ill-typed fields,
    /// unknown app/prefetcher labels, or a source stream shorter than the
    /// recorded `consumed` position.
    pub fn restore(doc: &Value, system: SystemConfig) -> Result<ServedDevice, String> {
        let schema = str_field(doc, "schema")?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "unsupported snapshot schema {schema:?} (want {SNAPSHOT_SCHEMA:?})"
            ));
        }
        let spec = crate::DeviceSpec {
            id: num_field(doc, "device")?,
            home_page: u64_string_field(doc, "home_page")?,
            app: app_from_abbr(str_field(doc, "app")?)?,
            length: usize_field(doc, "length")?,
            seed: u64_string_field(doc, "seed")?,
            window: usize_field(doc, "window")?,
            mailbox: usize_field(doc, "mailbox")?,
            pool_cap: match doc.get("pool_cap") {
                Some(Value::Null) => None,
                Some(_) => Some(usize_field(doc, "pool_cap")?),
                None => return Err("snapshot field \"pool_cap\" missing".into()),
            },
            system,
            kind: kind_from_label(str_field(doc, "prefetcher")?)?,
        };
        let target = num_field(doc, "consumed")?;
        let eof = doc
            .get("eof")
            .and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            })
            .ok_or("snapshot field \"eof\" missing or not a bool")?;

        // Replay: re-render exactly the consumed prefix of the seeded
        // stream through a fresh device. Feeding happens only at the
        // driver's NeedInput boundaries (inside pump), so chunking here
        // cannot perturb the rebuilt state.
        let mut dev = ServedDevice::from_spec(spec);
        while dev.consumed < target {
            // `want` is an upper bound for ingest, so clamping the u64
            // remainder is loss-free — the loop simply iterates again.
            let want = usize::try_from(target - dev.consumed).unwrap_or(usize::MAX);
            if dev.ingest(want) == 0 {
                return Err(format!(
                    "source stream ended at {} accesses but snapshot consumed {target}",
                    dev.consumed
                ));
            }
            if dev.quiesce() == DevicePump::Done {
                break;
            }
        }
        if dev.consumed != target {
            return Err(format!(
                "replay consumed {} accesses, snapshot recorded {target}",
                dev.consumed
            ));
        }
        if eof && !dev.source_eof {
            // The original had observed end-of-stream; observe it here
            // too so the rebuilt flag state matches exactly.
            if dev.ingest(1) != 0 || !dev.source_eof {
                return Err("snapshot says eof but the rebuilt stream has more accesses".into());
            }
            dev.quiesce();
        }
        Ok(dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_kind_from_label() {
        for kind in PrefetcherKind::ALL {
            assert_eq!(kind_from_label(kind.label()).unwrap(), kind);
        }
        assert!(kind_from_label("nope").is_err());
    }

    #[test]
    fn apps_round_trip_through_abbr() {
        for app in AppId::ALL {
            assert_eq!(app_from_abbr(app.abbr()).unwrap(), app);
        }
        assert!(app_from_abbr("nope").is_err());
    }

    #[test]
    fn external_devices_cannot_snapshot() {
        let spec = crate::DeviceSpec::new(1, AppId::HoK);
        let mut dev = ServedDevice::external(spec);
        assert!(dev.snapshot().unwrap_err().contains("externally fed"));
    }

    #[test]
    fn num_field_admits_only_exact_counts() {
        let doc = |v: &str| planaria_common::json::parse(&format!("{{\"n\": {v}}}")).unwrap();
        assert_eq!(num_field(&doc("0"), "n"), Ok(0));
        assert_eq!(num_field(&doc("9007199254740992"), "n"), Ok(1 << 53));
        // -1, a fraction, 2^53 + 2 (the next f64 above 2^53) and a string.
        for bad in ["-1", "0.5", "9007199254740994", "\"7\""] {
            assert!(num_field(&doc(bad), "n").is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn restore_rejects_wrong_schema() {
        let doc = planaria_common::json::parse("{\"schema\": \"other-v9\"}").unwrap();
        assert!(ServedDevice::restore(&doc, SystemConfig::default())
            .unwrap_err()
            .contains("unsupported snapshot schema"));
    }
}
