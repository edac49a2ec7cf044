//! Pinned results at the default seed, and the per-run fingerprint check.
//!
//! Regenerate after a deliberate model change: run each workload with
//! `--seed 0 --report FILE` and copy the report's `fingerprints`.

/// `SimResult::fingerprint()` of every `open-planaria` cell.
pub const OPEN_PLANARIA: [(&str, u64); 10] = [
    ("CFM", 0xcda8_1b18_204b_e323),
    ("HoK", 0xd258_8193_e7d8_32e7),
    ("Id-V", 0x15b0_c6db_6bcd_0e98),
    ("QSM", 0xc502_c2cd_5d91_8d0a),
    ("TikT", 0x7d18_0a85_252c_85c4),
    ("Fort", 0x85b8_ab5c_d8b4_3523),
    ("HI3", 0xbbff_2a23_640a_e9b1),
    ("KO", 0x531e_cb48_22d0_6b22),
    ("NBA2", 0xbc38_04fa_bf2e_f6e9),
    ("PM", 0x3281_7415_6d81_8d3d),
];

/// `SimResult::fingerprint()` of every `open-bop-packed` cell.
pub const OPEN_BOP_PACKED: [(&str, u64); 10] = [
    ("CFM", 0xc8f7_5eaa_3317_ce2b),
    ("HoK", 0xda6d_1950_e41c_e820),
    ("Id-V", 0x8c62_dc90_41dd_87b2),
    ("QSM", 0x5d6b_b9d5_df1a_0e71),
    ("TikT", 0x33cc_656f_a09e_80cc),
    ("Fort", 0x2af6_c38d_0a81_b483),
    ("HI3", 0x77f8_fb2f_846f_7d43),
    ("KO", 0xf5c5_1d81_0470_fbbf),
    ("NBA2", 0xd421_2ecf_cc86_a8fe),
    ("PM", 0x8073_2809_6fc0_2ad5),
];

/// The `served-fleet` digest: every session's result and closed-loop
/// report, folded in device-id order.
pub const FLEET: u64 = 0xba64_e02d_41ed_9c70;

/// Checks each execution of an operation against its pinned value (when
/// the run uses the default seed) and against the first execution in the
/// same run.
#[derive(Debug)]
pub struct Checker {
    labels: Vec<String>,
    pinned: Vec<Option<u64>>,
    first: Vec<Option<u64>>,
}

impl Checker {
    /// A checker for `labels`; `pinned` applies only at the default seed.
    pub fn new(labels: Vec<String>, pinned: Option<&[(&str, u64)]>) -> Self {
        let pinned = labels
            .iter()
            .map(|l| pinned.and_then(|p| p.iter().find(|(k, _)| k == l).map(|&(_, v)| v)))
            .collect();
        let first = vec![None; labels.len()];
        Self { labels, pinned, first }
    }

    /// Checks one execution of operation `i`.
    pub fn check(&mut self, i: usize, fp: u64, what: &str) -> Result<(), String> {
        let label = &self.labels[i];
        let first = *self.first[i].get_or_insert(fp);
        if let Some(p) = self.pinned[i].filter(|&p| p != fp) {
            return Err(format!(
                "{what} {label}: fingerprint {} != pinned {}",
                crate::stats::hex(fp),
                crate::stats::hex(p)
            ));
        }
        if first != fp {
            return Err(format!(
                "{what} {label}: fingerprint {} != {} earlier in this run",
                crate::stats::hex(fp),
                crate::stats::hex(first)
            ));
        }
        Ok(())
    }

    /// The first fingerprint seen per label.
    pub fn fingerprints(&self) -> Vec<(String, u64)> {
        self.labels.iter().zip(&self.first).filter_map(|(l, f)| f.map(|f| (l.clone(), f))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_flags_pinned_and_run_mismatches() {
        let labels = vec!["a".to_string(), "b".to_string()];
        let mut c = Checker::new(labels.clone(), Some(&[("a", 1)]));
        assert!(c.check(0, 1, "cell").is_ok());
        assert!(c.check(0, 2, "cell").expect_err("pinned").contains("pinned"));
        assert!(c.check(1, 5, "cell").is_ok(), "no pin for b");
        assert!(c.check(1, 6, "cell").expect_err("run").contains("earlier"));
        assert_eq!(c.fingerprints(), vec![("a".into(), 1), ("b".into(), 5)]);

        let mut unpinned = Checker::new(labels, None);
        assert!(unpinned.check(0, 9, "cell").is_ok());
    }

    #[test]
    fn pinned_labels_are_the_table_2_apps() {
        let apps: Vec<String> = crate::workload::cells(0, 1).into_iter().map(|s| s.abbr).collect();
        for table in [&OPEN_PLANARIA, &OPEN_BOP_PACKED] {
            let labels: Vec<&str> = table.iter().map(|(l, _)| *l).collect();
            assert_eq!(labels, apps);
        }
    }
}
