//! Figure 9 — breakdown of Planaria's improvement into SLP and TLP shares.
//!
//! Paper result: SLP contributes nearly 80% of the overall improvement on
//! average; on CFM, QSM, HI3, KO and NBA2 TLP's effect is limited, while on
//! Fort TLP contributes most of the improvement.
//!
//! Methodology (matching the paper's "performance breakdown"): run the
//! coordinator with only one sub-prefetcher's issuing phase enabled at a
//! time and attribute the composite AMAT improvement proportionally to the
//! two single-issuer improvements. The origin-tagged useful-prefetch split
//! of the full run is reported as a secondary, direct measurement.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin fig9_breakdown [--len N|--full]
//! ```

use planaria_bench::{bar, HarnessArgs};
use planaria_sim::experiment::{mean, PrefetcherKind};
use planaria_sim::table::{pct0, TextTable};

const KINDS: [PrefetcherKind; 4] = [
    PrefetcherKind::None,
    PrefetcherKind::PlanariaSlpIssue,
    PrefetcherKind::PlanariaTlpIssue,
    PrefetcherKind::Planaria,
];

fn main() {
    let args = HarnessArgs::from_env();
    println!("Figure 9: Planaria performance breakdown (SLP vs TLP)\n");

    let grid = args.grid(&KINDS);

    let mut t =
        TextTable::new(["app", "SLP share", "TLP share", "SLP ▍TLP", "useful SLP/TLP (full run)"]);
    let mut slp_shares = Vec::new();
    for (app, results) in args.apps.iter().zip(&grid) {
        let (none, slp_only, tlp_only, full) = (&results[0], &results[1], &results[2], &results[3]);
        let d_slp = (none.amat_cycles - slp_only.amat_cycles).max(0.0);
        let d_tlp = (none.amat_cycles - tlp_only.amat_cycles).max(0.0);
        let slp_share = if d_slp + d_tlp > 0.0 { d_slp / (d_slp + d_tlp) } else { 0.0 };
        slp_shares.push(slp_share);
        t.row([
            app.abbr().to_string(),
            pct0(slp_share),
            pct0(1.0 - slp_share),
            bar(slp_share, 24),
            format!("{} / {}", full.useful_slp, full.useful_tlp),
        ]);
    }
    let avg = mean(slp_shares.iter().copied());
    t.rule().row(["avg".to_string(), pct0(avg), pct0(1.0 - avg), bar(avg, 24), String::new()]);
    println!("{}", t.render());
    println!(
        "paper shape: SLP ≈80% of the improvement on average; CFM/QSM/HI3/KO/NBA2\n\
         SLP-dominated; Fort TLP-dominated. Measured SLP average: {}",
        pct0(avg)
    );
}
