//! The paper's §1/§6 headline numbers: IPC improvement, AMAT reduction,
//! traffic overhead and metadata storage — paper vs measured.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin headline_summary [--len N|--full]
//! ```

use planaria_bench::HarnessArgs;
use planaria_core::{storage, PlanariaConfig};
use planaria_sim::experiment::{mean, PrefetcherKind};
use planaria_sim::ipc::ipc_improvement;
use planaria_sim::table::{pct, TextTable};

fn main() {
    let args = HarnessArgs::from_env();
    println!("Headline summary: Planaria vs no prefetcher / BOP / SPP\n");

    let kinds = PrefetcherKind::FIGURE_SET;
    let grid = args.grid(&kinds);

    // Per-app IPC improvements of each prefetcher vs the no-prefetcher run.
    let mut ipc = vec![Vec::new(); 3]; // bop, spp, planaria
    let mut amat = vec![Vec::new(); 3]; // planaria vs none/bop/spp
    let mut traffic = vec![Vec::new(); 3]; // bop, spp, planaria vs none
    let mut power = vec![Vec::new(); 3];
    for (app, results) in args.apps.iter().zip(&grid) {
        let (none, bop, spp, planaria) = (&results[0], &results[1], &results[2], &results[3]);
        let mi = app.mem_intensity();
        let rel =
            |r: &planaria_sim::SimResult| ipc_improvement(r.amat_cycles, none.amat_cycles, mi);
        // IPC of Planaria measured against each baseline's own IPC.
        let ipc_n = rel(planaria);
        let ipc_b = (1.0 + rel(planaria)) / (1.0 + rel(bop)) - 1.0;
        let ipc_s = (1.0 + rel(planaria)) / (1.0 + rel(spp)) - 1.0;
        ipc[0].push(ipc_n);
        ipc[1].push(ipc_b);
        ipc[2].push(ipc_s);
        amat[0].push(planaria.amat_delta(none));
        amat[1].push(planaria.amat_delta(bop));
        amat[2].push(planaria.amat_delta(spp));
        traffic[0].push(bop.traffic_delta(none));
        traffic[1].push(spp.traffic_delta(none));
        traffic[2].push(planaria.traffic_delta(none));
        power[0].push(bop.power_delta(none));
        power[1].push(spp.power_delta(none));
        power[2].push(planaria.power_delta(none));
    }

    let m = |v: &Vec<f64>| mean(v.iter().copied());
    let mut t = TextTable::new(["metric", "measured", "paper"]);
    t.row(["Planaria IPC vs none".to_string(), pct(m(&ipc[0])), "+28.9%".to_string()]);
    t.row(["Planaria IPC vs BOP".to_string(), pct(m(&ipc[1])), "+21.9%".to_string()]);
    t.row(["Planaria IPC vs SPP".to_string(), pct(m(&ipc[2])), "+15.3%".to_string()]);
    t.rule();
    t.row(["Planaria AMAT vs none".to_string(), pct(m(&amat[0])), "-24.3%".to_string()]);
    t.row(["Planaria AMAT vs BOP".to_string(), pct(m(&amat[1])), "-21.3%".to_string()]);
    t.row(["Planaria AMAT vs SPP".to_string(), pct(m(&amat[2])), "-15.1%".to_string()]);
    t.rule();
    t.row(["BOP traffic overhead".to_string(), pct(m(&traffic[0])), "+23.4%".to_string()]);
    t.row(["SPP traffic overhead".to_string(), pct(m(&traffic[1])), "+15.9%".to_string()]);
    t.row(["Planaria traffic overhead".to_string(), pct(m(&traffic[2])), "(small)".to_string()]);
    t.rule();
    t.row(["BOP power overhead".to_string(), pct(m(&power[0])), "+13.5%".to_string()]);
    t.row(["SPP power overhead".to_string(), pct(m(&power[1])), "+9.7%".to_string()]);
    t.row(["Planaria power overhead".to_string(), pct(m(&power[2])), "+0.5%".to_string()]);
    t.rule();
    let kb = storage::planaria_kilobytes(&PlanariaConfig::default());
    t.row([
        "Planaria storage".to_string(),
        format!("{kb:.1} KB ({:.1}% of SC)", kb / 4096.0 * 100.0),
        "345.2 KB (8.4%)".to_string(),
    ]);
    println!("{}", t.render());
}
