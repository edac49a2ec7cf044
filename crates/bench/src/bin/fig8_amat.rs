//! Figure 8 — AMAT of the memory system per application and prefetcher.
//!
//! Paper result: Planaria reduces AMAT by 24.3% over no prefetcher, 21.3%
//! over BOP and 15.1% over SPP; BOP *raises* AMAT on Fort, NBA2 and PM
//! despite raising their hit rates (superfluous prefetch traffic).
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin fig8_amat [--len N|--full]
//! ```

use planaria_bench::HarnessArgs;
use planaria_sim::experiment::{mean, PrefetcherKind};
use planaria_sim::table::{pct, TextTable};

fn main() {
    let args = HarnessArgs::from_env();
    println!("Figure 8: AMAT (cycles) with different prefetchers\n");

    let kinds = PrefetcherKind::FIGURE_SET;
    let grid = args.grid(&kinds);

    let mut t = TextTable::new(["app", "None", "BOP", "SPP", "Planaria", "Pl vs None"]);
    let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); 3]; // vs none/bop/spp
    for (app, results) in args.apps.iter().zip(&grid) {
        let (none, bop, spp, planaria) = (&results[0], &results[1], &results[2], &results[3]);
        deltas[0].push(planaria.amat_delta(none));
        deltas[1].push(planaria.amat_delta(bop));
        deltas[2].push(planaria.amat_delta(spp));
        t.row([
            app.abbr().to_string(),
            format!("{:.1}", none.amat_cycles),
            format!("{:.1}", bop.amat_cycles),
            format!("{:.1}", spp.amat_cycles),
            format!("{:.1}", planaria.amat_cycles),
            pct(planaria.amat_delta(none)),
        ]);
    }
    t.rule();
    println!("{}", t.render());

    let labels = ["no prefetcher", "BOP", "SPP"];
    let paper = [-0.243, -0.213, -0.151];
    println!("Planaria AMAT reduction (average over apps):");
    for ((label, measured), paper) in labels.iter().zip(deltas.iter()).zip(paper) {
        println!(
            "  vs {:<13} measured {:>7}   (paper {:+.1}%)",
            label,
            pct(mean(measured.iter().copied())),
            paper * 100.0
        );
    }
}
