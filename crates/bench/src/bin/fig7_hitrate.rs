//! Figure 7 — system-cache hit rate per application and prefetcher.
//!
//! Paper result: Planaria lifts the SC hit rate the most while BOP buys its
//! (smaller) hit-rate gains with heavy extra traffic.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin fig7_hitrate [--len N|--full]
//! ```

use planaria_bench::HarnessArgs;
use planaria_sim::experiment::{mean, PrefetcherKind};
use planaria_sim::table::{pct0, TextTable};

fn main() {
    let args = HarnessArgs::from_env();
    println!("Figure 7: SC hit rate with different prefetchers\n");

    let kinds = PrefetcherKind::FIGURE_SET;
    let grid = args.grid(&kinds);

    let mut header = vec!["app".to_string()];
    header.extend(kinds.iter().map(|k| k.label().to_string()));
    let mut t = TextTable::new(header);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for (app, results) in args.apps.iter().zip(&grid) {
        let mut cells = vec![app.abbr().to_string()];
        for (i, r) in results.iter().enumerate() {
            cols[i].push(r.hit_rate);
            cells.push(pct0(r.hit_rate));
        }
        t.row(cells);
    }
    let mut avg = vec!["avg".to_string()];
    for col in &cols {
        avg.push(pct0(mean(col.iter().copied())));
    }
    t.rule().row(avg);
    println!("{}", t.render());
    println!(
        "paper shape: Planaria raises the hit rate most; BOP raises it less\n\
         (and pays for it in traffic — see Figure 10); SPP sits between."
    );
}
