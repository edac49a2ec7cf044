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

use crate::device::{DevicePump, ServedDevice, MAX_MAILBOX};

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

/// Reads a size field that must be at least 1 (`window`, `mailbox`): a
/// zero would build a device that can never inject or never pull.
fn positive_field(doc: &Value, key: &str) -> Result<usize, String> {
    match usize_field(doc, key)? {
        0 => Err(format!("snapshot field {key:?} must be at least 1")),
        v => Ok(v),
    }
}

/// Reads `mailbox`: at least 1 and at most [`MAX_MAILBOX`], since a
/// device reserves room for a whole pull before it renders one.
fn mailbox_field(doc: &Value) -> Result<usize, String> {
    match positive_field(doc, "mailbox")? {
        v if v > MAX_MAILBOX => {
            Err(format!("snapshot field \"mailbox\" is {v}, above the largest pull {MAX_MAILBOX}"))
        }
        v => Ok(v),
    }
}

impl ServedDevice {
    /// Serialises this device to a `planaria-serve-snapshot-v1` JSON
    /// document, quiescing it first: it pumps without pulling until the
    /// driver waits for input, where the simulated state is a pure
    /// function of the accesses consumed so far.
    ///
    /// # Errors
    ///
    /// Fails for a device that has finished, or finishes while quiescing
    /// (its driver was closed by an empty pull).
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
    /// // Run a device for one turn (one pull of 256), snapshot it,
    /// // restore, finish both.
    /// let mut original = ServedDevice::from_spec(spec.clone());
    /// original.pump(usize::MAX);
    /// let doc = original.snapshot().unwrap();
    /// assert!(doc.contains("planaria-serve-snapshot-v1"));
    ///
    /// let parsed = planaria_common::json::parse(&doc).unwrap();
    /// let mut restored = ServedDevice::restore(&parsed, spec.system).unwrap();
    ///
    /// while !original.is_done() { original.pump(usize::MAX); }
    /// while !restored.is_done() { restored.pump(usize::MAX); }
    /// assert_eq!(original.report(), restored.report());
    /// ```
    pub fn snapshot(&mut self) -> Result<String, String> {
        if self.quiesce() != DevicePump::Starved {
            return Err("session finished; persist its report instead".into());
        }

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
        // An empty pull closes the driver, and the device finishes in
        // that call or in the quiesce above, so a device that snapshots
        // has never seen its stream end: v1 keeps the key, always false.
        w.key("eof");
        w.bool(false);
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
    /// a zero `window` or `mailbox`, a `mailbox` above
    /// [`MAX_CHUNK_RECORDS`](planaria_trace::io::MAX_CHUNK_RECORDS),
    /// unknown app/prefetcher labels, `"eof": true`, or a source stream
    /// shorter than the recorded `consumed` position.
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
            window: positive_field(doc, "window")?,
            mailbox: mailbox_field(doc)?,
            pool_cap: match doc.get("pool_cap") {
                Some(Value::Null) => None,
                Some(_) => Some(usize_field(doc, "pool_cap")?),
                None => return Err("snapshot field \"pool_cap\" missing".into()),
            },
            system,
            kind: kind_from_label(str_field(doc, "prefetcher")?)?,
        };
        let target = num_field(doc, "consumed")?;
        match doc.get("eof") {
            Some(Value::Bool(false)) => {}
            Some(Value::Bool(true)) => {
                return Err("snapshot field \"eof\" is true, but a device that has seen its \
                            stream end finishes before it can snapshot"
                    .into())
            }
            _ => return Err("snapshot field \"eof\" missing or not a bool".into()),
        }

        // Replay: re-pull exactly the consumed prefix of the seeded stream
        // through a fresh device, in pulls of at most `mailbox`. The
        // driver takes input only at its NeedInput boundaries, so the
        // chunking cannot perturb the rebuilt state.
        let mut dev = ServedDevice::from_spec(spec);
        while dev.consumed < target && !dev.is_done() {
            let left = usize::try_from(target - dev.consumed).unwrap_or(usize::MAX);
            dev.advance(usize::MAX, left.min(dev.spec.mailbox));
        }
        if dev.consumed != target || dev.is_done() {
            return Err(format!(
                "source stream ended at {} accesses but snapshot consumed {target}",
                dev.consumed
            ));
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

    /// A lean fleet device (`PlanariaLean`, 64 KiB SC) on a 300-access
    /// session in pulls of 64, snapshotted after `turns` turns.
    fn lean_snapshot(turns: usize) -> (String, SystemConfig) {
        let mut spec = crate::DeviceSpec::new(3, AppId::HoK).scaled(300);
        spec.kind = PrefetcherKind::PlanariaLean;
        spec.system.cache.size_bytes = 64 * 1024;
        spec.pool_cap = Some(64);
        spec.mailbox = 64;
        let system = spec.system;
        let mut dev = ServedDevice::from_spec(spec);
        for _ in 0..turns {
            dev.pump(usize::MAX);
        }
        (dev.snapshot().expect("a live device snapshots"), system)
    }

    /// Restores `doc` with its `key` member replaced by `value`.
    fn restore_with(doc: &str, key: &str, value: Value, system: SystemConfig) -> String {
        let mut parsed = planaria_common::json::parse(doc).expect("snapshots are valid JSON");
        let Value::Object(members) = &mut parsed else { panic!("a snapshot is an object") };
        members.iter_mut().find(|(k, _)| k == key).expect("every v1 key is written").1 = value;
        ServedDevice::restore(&parsed, system).expect_err("the edited snapshot must be rejected")
    }

    #[test]
    fn restore_rejects_a_zero_window() {
        let (doc, system) = lean_snapshot(1);
        let err = restore_with(&doc, "window", Value::Num(0.0), system);
        assert!(err.contains("\"window\" must be at least 1"), "{err}");
    }

    #[test]
    fn restore_rejects_a_zero_mailbox() {
        let (doc, system) = lean_snapshot(1);
        let err = restore_with(&doc, "mailbox", Value::Num(0.0), system);
        assert!(err.contains("\"mailbox\" must be at least 1"), "{err}");
    }

    #[test]
    fn restore_rejects_an_oversized_mailbox() {
        // Restore replays in pulls of `mailbox`, and each pull reserves
        // room for that many accesses before rendering them.
        let (doc, system) = lean_snapshot(1);
        let over = Value::Num((MAX_MAILBOX + 1) as f64);
        let err = restore_with(&doc, "mailbox", over, system);
        assert!(err.contains("\"mailbox\" is 1048577, above the largest pull 1048576"), "{err}");
        let mut parsed = planaria_common::json::parse(&doc).expect("snapshots are valid JSON");
        let Value::Object(members) = &mut parsed else { panic!("a snapshot is an object") };
        members.iter_mut().find(|(k, _)| k == "mailbox").expect("v1 writes mailbox").1 =
            Value::Num(MAX_MAILBOX as f64);
        let dev = ServedDevice::restore(&parsed, system).expect("the bound itself restores");
        assert_eq!(dev.consumed(), 64);
    }

    #[test]
    fn restore_rejects_eof_true() {
        // Five turns pull the whole stream (the fifth pull is its
        // 44-access tail), but no pull has come back empty yet.
        let (doc, system) = lean_snapshot(5);
        assert!(doc.contains("\"consumed\": 300") && doc.contains("\"eof\": false"), "{doc}");
        let err = restore_with(&doc, "eof", Value::Bool(true), system);
        assert!(err.contains("\"eof\" is true"), "{err}");
    }

    #[test]
    fn restore_never_panics_on_a_flipped_or_truncated_snapshot() {
        // Every single-bit flip and every truncation of one document must
        // restore to `Ok` or `Err`; a panic fails the test. One of the
        // flips turns `"window": 8` into `"window": 0` (0x38 -> 0x30).
        let (doc, system) = lean_snapshot(1);
        let mut outcomes = [0u32; 2]; // [Ok, Err] over documents that parse
        let mut restore = |bytes: &[u8]| {
            let text = std::str::from_utf8(bytes).ok();
            if let Some(v) = text.and_then(|t| planaria_common::json::parse(t).ok()) {
                outcomes[usize::from(ServedDevice::restore(&v, system).is_err())] += 1;
            }
        };
        let bytes = doc.as_bytes();
        for i in 0..bytes.len() {
            restore(&bytes[..i]);
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                restore(&flipped);
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "[Ok, Err] = {outcomes:?}");
    }
}
