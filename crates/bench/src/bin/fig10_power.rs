//! Figure 10 — memory-system power per application and prefetcher.
//!
//! Paper result: Planaria adds only 0.5% power on average (range −3.3% on
//! HI3 to +2.8%), while BOP adds 13.5% and SPP 9.7%.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin fig10_power [--len N|--full]
//! ```

use planaria_bench::HarnessArgs;
use planaria_sim::experiment::{mean, PrefetcherKind};
use planaria_sim::table::{pct, TextTable};

fn main() {
    let args = HarnessArgs::from_env();
    println!("Figure 10: memory-system power (normalised to no prefetcher)\n");

    let kinds = PrefetcherKind::FIGURE_SET;
    let grid = args.grid(&kinds);

    let mut t = TextTable::new(["app", "None (mW)", "BOP", "SPP", "Planaria"]);
    let mut deltas: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (app, results) in args.apps.iter().zip(&grid) {
        let (none, bop, spp, planaria) = (&results[0], &results[1], &results[2], &results[3]);
        deltas[0].push(bop.power_delta(none));
        deltas[1].push(spp.power_delta(none));
        deltas[2].push(planaria.power_delta(none));
        t.row([
            app.abbr().to_string(),
            format!("{:.1}", none.power_mw),
            pct(bop.power_delta(none)),
            pct(spp.power_delta(none)),
            pct(planaria.power_delta(none)),
        ]);
    }
    t.rule().row([
        "avg".to_string(),
        String::new(),
        pct(mean(deltas[0].iter().copied())),
        pct(mean(deltas[1].iter().copied())),
        pct(mean(deltas[2].iter().copied())),
    ]);
    println!("{}", t.render());
    println!(
        "paper: BOP +13.5%, SPP +9.7%, Planaria +0.5% average (−3.3%..+2.8% per app).\n\
         The shape to check: Planaria's power cost is an order of magnitude\n\
         below the delta prefetchers', because its traffic is accurate."
    );
}
