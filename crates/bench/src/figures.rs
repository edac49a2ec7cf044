//! Every table, figure and ablation of the paper's evaluation, one
//! [`FIGURES`] entry each, run by name through the `figures` binary:
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin figures -- fig8_amat --threads 4
//! cargo run --release -p planaria-bench --bin figures -- --help
//! ```
//!
//! An entry prints its table on stdout; the runner's batch summary goes to
//! stderr. Each entry's doc comment states the paper result it checks.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use planaria_analysis::{learnable_fraction, overlap_rate, reuse_histogram};
use planaria_baselines::Sms;
use planaria_cache::ReplacementKind;
use planaria_common::PageNum;
use planaria_core::{
    storage, PatternMerge, Planaria, PlanariaConfig, Prefetcher, Slp, SlpConfig, TlpConfig,
};
use planaria_dram::{PagePolicy, SchedulerKind};
use planaria_sim::experiment::{mean, PrefetcherKind};
use planaria_sim::ipc::ipc_improvement;
use planaria_sim::runner::Job;
use planaria_sim::table::{pct, pct0, TextTable};
use planaria_sim::{GovernorConfig, SimResult, SystemConfig};
use planaria_trace::apps::AppId::{Cfm, Fort, Hi3, HoK, Pm, TikT};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::WorkloadSpec;

use crate::{bar, cli, HarnessArgs};

/// One table, figure or ablation.
pub struct Figure {
    /// The name the `figures` binary takes.
    pub name: &'static str,
    /// Its line in `figures --help`.
    pub help: &'static str,
    /// The applications run when `--apps` is absent.
    pub apps: &'static [AppId],
    /// Prints the figure on stdout.
    pub run: fn(&HarnessArgs),
}

/// A [`Figure`] named after the function that prints it.
macro_rules! figure {
    ($run:ident, $help:literal, $apps:expr) => {
        Figure { name: stringify!($run), help: $help, apps: $apps, run: $run }
    };
}

const ALL: &[AppId] = &AppId::ALL;

/// Every entry, in `--help` order.
pub static FIGURES: [Figure; 19] = [
    figure!(fig2_snapshot, "Figure 2: one page's footprint snapshot over time", ALL),
    figure!(fig4_overlap, "Figure 4: snapshot overlap rate per app", ALL),
    figure!(fig5_neighbors, "Figure 5: pages with a learnable neighbour", ALL),
    figure!(fig7_hitrate, "Figure 7: SC hit rate per app x prefetcher", ALL),
    figure!(fig8_amat, "Figure 8: AMAT per app x prefetcher", ALL),
    figure!(fig9_breakdown, "Figure 9: Planaria's gain split into SLP and TLP shares", ALL),
    figure!(fig10_power, "Figure 10: memory-system power per app x prefetcher", ALL),
    figure!(headline_summary, "§1/§6: IPC, AMAT, traffic, power and storage", ALL),
    figure!(table2_workloads, "Table 2: the workloads and their trace statistics", ALL),
    figure!(motivation_reuse, "Observation 1: block reuse distances", ALL),
    figure!(ablation_replacement, "§1: SC replacement policies", ALL),
    figure!(ablation_cache_size, "§1: SC capacity growth", ALL),
    figure!(ablation_planaria_params, "§5: distance, timeout and merge sweeps", &[HoK, Fort]),
    figure!(ablation_coordinator, "§7: serial issuing vs the alternatives", &[Hi3, HoK, Fort]),
    figure!(ablation_degree, "prefetch-degree burst cap", &[Cfm, HoK]),
    figure!(ablation_dram, "DRAM scheduler, page policy and power-down", &[Cfm, TikT, Pm]),
    figure!(ablation_governor, "FDP-style governor on BOP vs Planaria", &[HoK, Pm]),
    figure!(relatedwork_spatial, "§7: per-page SLP vs global SMS signatures", &[Cfm, Hi3, Pm]),
    figure!(export_csv, "every SimResult metric of a 7-kind grid, as CSV", ALL),
];

/// The entry named `name`.
pub(crate) fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The `figures --help` text: the synopsis and one line per entry.
fn usage() -> String {
    let mut s = format!("usage: figures NAME {}\n\nNAME is one of:\n", HarnessArgs::USAGE);
    for f in &FIGURES {
        s.push_str(&format!("  {:<25} {}\n", f.name, f.help));
    }
    s
}

/// The `figures` binary: `figures NAME [options]`. A bad name or option
/// prints `error: …` and the usage, and exits 2.
pub fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let Some((name, options)) = argv.split_first() else {
        cli::usage_error(&usage(), "missing figure name")
    };
    let Some(figure) = find(name) else {
        cli::usage_error(&usage(), format!("unknown figure {name:?}"))
    };
    let args = HarnessArgs::parse(options.iter().cloned(), figure.apps)
        .unwrap_or_else(|e| cli::usage_error(&usage(), e));
    (figure.run)(&args);
}

/// A Planaria cell under a non-default configuration.
fn planaria_job(label: String, workload: WorkloadSpec, cfg: PlanariaConfig) -> Job {
    Job::with_factory(label, workload, Box::new(move || Box::new(Planaria::new(cfg))))
}

/// A cell with Table 1 defaults except for `edit`'s change to the system.
fn config_job(
    label: String,
    workload: WorkloadSpec,
    kind: PrefetcherKind,
    edit: impl FnOnce(&mut SystemConfig),
) -> Job {
    let mut cfg = SystemConfig::default();
    edit(&mut cfg);
    Job::new(label, workload, kind).config(cfg)
}

/// Appends one row per app: its abbreviation, then `cell` of each result.
fn app_rows(
    t: &mut TextTable,
    args: &HarnessArgs,
    rows: &[Vec<SimResult>],
    cell: impl Fn(&SimResult) -> String,
) {
    for (app, row) in args.apps.iter().zip(rows) {
        t.row(led(app.abbr(), row.iter().map(&cell)));
    }
}

/// Prints one `=== APP ===` table per app with the lines `lines` renders
/// from the app's results.
fn app_tables<const N: usize>(
    args: &HarnessArgs,
    rows: &[Vec<SimResult>],
    header: [&str; N],
    lines: impl Fn(&[SimResult]) -> Vec<[String; N]>,
) {
    for (app, row) in args.apps.iter().zip(rows) {
        println!("=== {} ===", app.abbr());
        let mut t = TextTable::new(header);
        for line in lines(row) {
            t.row(line);
        }
        println!("{}", t.render());
    }
}

/// A table row (or header) led by `label`.
fn led(label: &str, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// Figure 2: an ASCII scatter of (arrival time × block) for the most
/// revisited page of a CFM-like trace, showing the paper's three
/// observations — a stable block set, long reuse distance between visit
/// bursts, and non-deterministic intra-visit order. It always draws
/// 400,000 CFM accesses, whatever the options.
fn fig2_snapshot(_: &HarnessArgs) {
    const TIME_COLS: usize = 100;
    let trace = profile(AppId::Cfm).scaled(400_000).build();

    // Pick the most accessed page; many footprint pages tie, and the
    // lowest of them wins so every run draws the same page.
    let mut counts: BTreeMap<PageNum, usize> = BTreeMap::new();
    for a in trace.iter() {
        *counts.entry(a.addr.page()).or_default() += 1;
    }
    let (&page, &n) =
        counts.iter().max_by_key(|&(&page, &c)| (c, Reverse(page))).expect("non-empty trace");
    println!("Figure 2: footprint snapshot of {page} ({n} accesses) in a CFM-like trace\n");

    let events: Vec<(u64, usize)> = trace
        .iter()
        .filter(|a| a.addr.page() == page)
        .map(|a| (a.cycle.as_u64(), a.addr.block_index().as_usize()))
        .collect();
    let (t0, t1) = (events.first().expect("events").0, events.last().expect("events").0);
    let span = (t1 - t0).max(1);

    let mut grid = vec![[' '; TIME_COLS]; 64];
    for &(t, b) in &events {
        let col = ((t - t0) as f64 / span as f64 * (TIME_COLS - 1) as f64) as usize;
        grid[b][col] = '*';
    }
    println!("block│ time ─▶  ({} cycles)", span);
    for (b, row) in grid.iter().enumerate().rev() {
        let line: String = row.iter().collect();
        if line.trim().is_empty() {
            continue;
        }
        println!("{b:>5}│{line}");
    }
    println!("     └{}", "─".repeat(TIME_COLS));
    println!(
        "\nEach column of *s is one visit: the same block set recurs (spatial\n\
         locality), visits are far apart (long reuse distance), and the order\n\
         within a visit varies (unpredictable delta sequence)."
    );
}

/// Figure 4: the average footprint-snapshot overlap rate exceeds 80% on
/// every app, which licenses page-number-only snapshot signatures.
fn fig4_overlap(args: &HarnessArgs) {
    println!("Figure 4: overlap rate of footprint windows (paper: >80% average)\n");
    let mut t = TextTable::new(["app", "overlap", "", "pages", "window pairs"]);
    let mut rates = Vec::new();
    for &app in &args.apps {
        let r = overlap_rate(&args.workload(app).build());
        rates.push(r.mean_overlap);
        t.row([
            app.abbr().to_string(),
            pct0(r.mean_overlap),
            bar(r.mean_overlap, 30),
            r.pages_measured.to_string(),
            r.window_pairs.to_string(),
        ]);
    }
    let avg = mean(rates.iter().copied());
    t.rule().row(["avg".to_string(), pct0(avg), bar(avg, 30), String::new(), String::new()]);
    println!("{}", t.render());
    println!("paper: every app above 80%, average well above 80% — measured average {}", pct0(avg));
}

/// Figure 5: on average 26.95% of pages have a learnable neighbour at
/// distance threshold 4, rising to 39.26% at 64.
fn fig5_neighbors(args: &HarnessArgs) {
    const THRESHOLDS: [u64; 3] = [4, 16, 64];
    println!(
        "Figure 5: proportion of learnable neighbouring pages\n\
         (bitmap difference ≤ 4 bits; paper averages: 26.95% @4, 39.26% @64)\n"
    );
    let mut t = TextTable::new(["app", "dist ≤ 4", "dist ≤ 16", "dist ≤ 64", "pages"]);
    let mut per_threshold: Vec<Vec<f64>> = vec![Vec::new(); THRESHOLDS.len()];
    for &app in &args.apps {
        let trace = args.workload(app).build();
        let mut cells = vec![app.abbr().to_string()];
        let mut pages = 0;
        for (i, &d) in THRESHOLDS.iter().enumerate() {
            let r = learnable_fraction(&trace, d);
            per_threshold[i].push(r.learnable_fraction);
            cells.push(pct0(r.learnable_fraction));
            pages = r.total_pages;
        }
        cells.push(pages.to_string());
        t.row(cells);
    }
    let avg = per_threshold.iter().map(|col| pct0(mean(col.iter().copied())));
    t.rule().row(led("avg", avg.chain([String::new()])));
    println!("{}", t.render());
    println!(
        "paper: the learnable fraction grows with the distance threshold\n\
         (≈27% at 4 → ≈39% at 64); the measured averages above follow the\n\
         same monotone shape."
    );
}

/// Figure 7: Planaria lifts the SC hit rate the most, while BOP buys its
/// smaller gains with heavy extra traffic.
fn fig7_hitrate(args: &HarnessArgs) {
    println!("Figure 7: SC hit rate with different prefetchers\n");
    let kinds = PrefetcherKind::FIGURE_SET;
    let grid = args.grid(&kinds);
    let mut t = TextTable::new(led("app", kinds.map(|k| k.label().to_string())));
    app_rows(&mut t, args, &grid, |r| pct0(r.hit_rate));
    let avg = (0..kinds.len()).map(|i| pct0(mean(grid.iter().map(|row| row[i].hit_rate))));
    t.rule().row(led("avg", avg));
    println!("{}", t.render());
    println!(
        "paper shape: Planaria raises the hit rate most; BOP raises it less\n\
         (and pays for it in traffic — see Figure 10); SPP sits between."
    );
}

/// Figure 8: Planaria cuts AMAT by 24.3% over no prefetcher, 21.3% over
/// BOP and 15.1% over SPP; BOP *raises* AMAT on Fort, NBA2 and PM despite
/// raising their hit rates (superfluous prefetch traffic).
fn fig8_amat(args: &HarnessArgs) {
    println!("Figure 8: AMAT (cycles) with different prefetchers\n");
    let grid = args.grid(&PrefetcherKind::FIGURE_SET);
    let mut t = TextTable::new(["app", "None", "BOP", "SPP", "Planaria", "Pl vs None"]);
    for (app, r) in args.apps.iter().zip(&grid) {
        let amat = r.iter().map(|r| format!("{:.1}", r.amat_cycles));
        t.row(led(app.abbr(), amat.chain([pct(r[3].amat_delta(&r[0]))])));
    }
    t.rule();
    println!("{}", t.render());

    println!("Planaria AMAT reduction (average over apps):");
    for (i, (label, paper)) in
        [("no prefetcher", -0.243), ("BOP", -0.213), ("SPP", -0.151)].into_iter().enumerate()
    {
        let measured = mean(grid.iter().map(|r| r[3].amat_delta(&r[i])));
        println!("  vs {label:<13} measured {:>7}   (paper {:+.1}%)", pct(measured), paper * 100.0);
    }
}

/// Figure 9: SLP contributes nearly 80% of Planaria's improvement on
/// average; TLP's effect is limited on CFM, QSM, HI3, KO and NBA2, while on
/// Fort it contributes most. As in the paper's breakdown, each
/// sub-prefetcher issues alone in turn and the composite AMAT gain is split
/// in proportion to the two single-issuer gains; the full run's
/// origin-tagged useful prefetches are a second, direct measurement.
fn fig9_breakdown(args: &HarnessArgs) {
    println!("Figure 9: Planaria performance breakdown (SLP vs TLP)\n");
    let grid = args.grid(&[
        PrefetcherKind::None,
        PrefetcherKind::PlanariaSlpIssue,
        PrefetcherKind::PlanariaTlpIssue,
        PrefetcherKind::Planaria,
    ]);
    let mut t =
        TextTable::new(["app", "SLP share", "TLP share", "SLP ▍TLP", "useful SLP/TLP (full run)"]);
    let mut slp_shares = Vec::new();
    for (app, results) in args.apps.iter().zip(&grid) {
        let [none, slp_only, tlp_only, full] = &results[..] else { unreachable!("four kinds") };
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

/// Figure 10: Planaria adds only 0.5% memory-system power on average
/// (−3.3% on HI3 to +2.8%), while BOP adds 13.5% and SPP 9.7%.
fn fig10_power(args: &HarnessArgs) {
    println!("Figure 10: memory-system power (normalised to no prefetcher)\n");
    let grid = args.grid(&PrefetcherKind::FIGURE_SET);
    let mut t = TextTable::new(["app", "None (mW)", "BOP", "SPP", "Planaria"]);
    for (app, r) in args.apps.iter().zip(&grid) {
        let deltas = r[1..].iter().map(|x| pct(x.power_delta(&r[0])));
        t.row([app.abbr().to_string(), format!("{:.1}", r[0].power_mw)].into_iter().chain(deltas));
    }
    let avg = (1..4).map(|i| pct(mean(grid.iter().map(|r| r[i].power_delta(&r[0])))));
    t.rule().row(["avg".to_string(), String::new()].into_iter().chain(avg));
    println!("{}", t.render());
    println!(
        "paper: BOP +13.5%, SPP +9.7%, Planaria +0.5% average (−3.3%..+2.8% per app).\n\
         The shape to check: Planaria's power cost is an order of magnitude\n\
         below the delta prefetchers', because its traffic is accurate."
    );
}

/// §1/§6: the headline IPC, AMAT, traffic and power numbers and the
/// metadata storage, paper vs measured.
fn headline_summary(args: &HarnessArgs) {
    /// `(metric, paper)` per row, in the order of the per-app values
    /// below; a rule closes every group of three.
    const ROWS: [(&str, &str); 12] = [
        ("Planaria IPC vs none", "+28.9%"),
        ("Planaria IPC vs BOP", "+21.9%"),
        ("Planaria IPC vs SPP", "+15.3%"),
        ("Planaria AMAT vs none", "-24.3%"),
        ("Planaria AMAT vs BOP", "-21.3%"),
        ("Planaria AMAT vs SPP", "-15.1%"),
        ("BOP traffic overhead", "+23.4%"),
        ("SPP traffic overhead", "+15.9%"),
        ("Planaria traffic overhead", "(small)"),
        ("BOP power overhead", "+13.5%"),
        ("SPP power overhead", "+9.7%"),
        ("Planaria power overhead", "+0.5%"),
    ];
    println!("Headline summary: Planaria vs no prefetcher / BOP / SPP\n");
    let grid = args.grid(&PrefetcherKind::FIGURE_SET);
    let per_app: Vec<[[f64; 3]; 4]> = args
        .apps
        .iter()
        .zip(&grid)
        .map(|(app, row)| {
            let [none, bop, spp, planaria] = &row[..] else { unreachable!("four kinds") };
            let rel = |r: &SimResult| {
                ipc_improvement(r.amat_cycles, none.amat_cycles, app.mem_intensity())
            };
            // IPC of Planaria measured against each baseline's own IPC.
            [
                [
                    rel(planaria),
                    (1.0 + rel(planaria)) / (1.0 + rel(bop)) - 1.0,
                    (1.0 + rel(planaria)) / (1.0 + rel(spp)) - 1.0,
                ],
                [planaria.amat_delta(none), planaria.amat_delta(bop), planaria.amat_delta(spp)],
                [bop.traffic_delta(none), spp.traffic_delta(none), planaria.traffic_delta(none)],
                [bop.power_delta(none), spp.power_delta(none), planaria.power_delta(none)],
            ]
        })
        .collect();

    let mut t = TextTable::new(["metric", "measured", "paper"]);
    for (k, &(metric, paper)) in ROWS.iter().enumerate() {
        let measured = mean(per_app.iter().map(|v| v[k / 3][k % 3]));
        t.row([metric.to_string(), pct(measured), paper.to_string()]);
        if k % 3 == 2 {
            t.rule();
        }
    }
    let kb = storage::planaria_kilobytes(&PlanariaConfig::default());
    t.row([
        "Planaria storage".to_string(),
        format!("{kb:.1} KB ({:.1}% of SC)", kb / 4096.0 * 100.0),
        "345.2 KB (8.4%)".to_string(),
    ]);
    println!("{}", t.render());
}

/// Table 2: the targeted applications, plus summary statistics of the
/// synthetic traces standing in for them.
fn table2_workloads(args: &HarnessArgs) {
    println!("Table 2: the targeted representative applications\n");
    let mut t = TextTable::new([
        "workload",
        "description",
        "paper len (M)",
        "abbr",
        "trace pages",
        "reads",
    ]);
    for &app in &args.apps {
        let trace = args.workload(app).build();
        t.row([
            app.name().to_string(),
            app.description().to_string(),
            format!("{:.2}", app.paper_length_m()),
            app.abbr().to_string(),
            trace.unique_pages().to_string(),
            pct0(trace.read_fraction()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(The paper's traces are proprietary bus captures; these synthetic\n\
         stand-ins reproduce their measured regularities — see DESIGN.md.)"
    );
}

/// Observation 1's temporal half ("the reuse distance of the snapshots is
/// usually long") and §1's claim that neither replacement policies nor
/// modest capacity growth rescue the SC: reuses beyond the 4 MB SC's 65,536
/// blocks cannot hit under any stack-property policy, and only the band
/// between the old and new capacity benefits from growing the cache.
fn motivation_reuse(args: &HarnessArgs) {
    /// 4 MB / 64 B blocks.
    const SC_BLOCKS: u64 = 65_536;
    println!("Motivation: block reuse distances (SC capacity = {SC_BLOCKS} blocks)\n");
    let mut t = TextTable::new([
        "app",
        "cold",
        "median dist",
        "≥ SC capacity",
        "≥ 2× capacity",
        "≥ 4× capacity",
    ]);
    for &app in &args.apps {
        let r = reuse_histogram(&args.workload(app).build());
        t.row([
            app.abbr().to_string(),
            pct0(r.cold as f64 / r.accesses.max(1) as f64),
            r.median_distance().map_or("—".into(), |d| format!("≥{d}")),
            pct0(r.fraction_at_least(SC_BLOCKS)),
            pct0(r.fraction_at_least(2 * SC_BLOCKS)),
            pct0(r.fraction_at_least(4 * SC_BLOCKS)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Reuses at or beyond the SC's capacity are LRU-hopeless: no\n\
         replacement tweak recovers them, and doubling the cache only\n\
         rescues the thin band between the two capacity columns — the\n\
         motivation for prefetching rather than resizing (paper §1)."
    );
}

/// §1: "neither state-of-the-art cache replacement policies nor increasing
/// cache size significantly improve SC performance". Sweeps the
/// replacement policy with no prefetcher, next to Planaria on plain LRU.
fn ablation_replacement(args: &HarnessArgs) {
    println!("Ablation: SC replacement policy (no prefetcher) vs Planaria on LRU\n");
    let variants: Vec<Option<ReplacementKind>> =
        ReplacementKind::ALL.into_iter().map(Some).chain([None]).collect();
    let rows = args.sweep(&variants, |app, workload, repl| match repl {
        Some(repl) => {
            config_job(format!("{}/{repl}", app.abbr()), workload, PrefetcherKind::None, |c| {
                c.cache = c.cache.with_replacement(repl)
            })
        }
        None => Job::new(format!("{}/Planaria", app.abbr()), workload, PrefetcherKind::Planaria),
    });
    let header = variants.iter().map(|v| v.map_or("LRU+Planaria".into(), |k| k.to_string()));
    let mut t = TextTable::new(led("app", header));
    app_rows(&mut t, args, &rows, |r| pct0(r.hit_rate));
    println!("{}", t.render());
    println!("{}", replacement_footnote(args, &variants, &rows));
}

/// [`ablation_replacement`]'s footnote, measured from its rows: the largest
/// hit-rate gain of any policy over LRU, and the largest ratio of an app's
/// best-policy gain to what Planaria on LRU gains on the same app.
fn replacement_footnote(
    args: &HarnessArgs,
    variants: &[Option<ReplacementKind>],
    rows: &[Vec<SimResult>],
) -> String {
    let lru = variants.iter().position(|&v| v == Some(ReplacementKind::Lru)).expect("LRU swept");
    let planaria = variants.iter().position(Option::is_none).expect("Planaria swept");
    let mut top_gain = (0.0, None);
    let mut top_ratio = (0.0, None);
    for (&app, row) in args.apps.iter().zip(rows) {
        let gain = |i: usize| row[i].hit_rate - row[lru].hit_rate;
        let mut best = 0.0;
        for (i, kind) in variants.iter().enumerate() {
            let Some(kind) = kind else { continue };
            best = gain(i).max(best);
            if gain(i) > top_gain.0 {
                top_gain = (gain(i), Some((kind, app)));
            }
        }
        let ratio = match gain(planaria) {
            g if g > 0.0 => best / g,
            _ if best > 0.0 => f64::INFINITY,
            _ => 0.0,
        };
        if ratio > top_ratio.0 {
            top_ratio = (ratio, Some(app));
        }
    }
    let measured = match (top_gain, top_ratio) {
        ((gain, Some((kind, app))), (ratio, Some(ratio_app))) => {
            let share = if ratio.is_finite() {
                format!("at most {ratio:.2} of")
            } else {
                "more than".to_string()
            };
            format!(
                "the best policy lifts the hit rate over LRU by at most {:.1} points\n\
                 ({kind} on {}), {share} what Planaria on LRU adds to the same\n\
                 app ({}).",
                gain * 100.0,
                app.abbr(),
                ratio_app.abbr(),
            )
        }
        _ => "no policy lifts the hit rate over LRU.".to_string(),
    };
    format!("paper §1: no replacement policy significantly improves the SC. Measured:\n{measured}")
}

/// §1: growing the SC with no prefetcher, against Planaria on the baseline
/// 4 MB — doubling or quadrupling the SRAM buys far less than 345 KB of
/// prefetcher metadata does.
fn ablation_cache_size(args: &HarnessArgs) {
    println!("Ablation: SC capacity (no prefetcher) vs Planaria at 4 MB\n");
    let variants = [Some(2), Some(4), Some(8), Some(16), None];
    let rows = args.sweep(&variants, |app, workload, mb: Option<u64>| match mb {
        Some(mb) => {
            config_job(format!("{}/{mb}MB", app.abbr()), workload, PrefetcherKind::None, |c| {
                c.cache = c.cache.with_size(mb << 20)
            })
        }
        None => Job::new(format!("{}/Planaria", app.abbr()), workload, PrefetcherKind::Planaria),
    });
    let header = variants.map(|v| v.map_or("4 MB+Planaria".into(), |mb| format!("{mb} MB")));
    let mut t = TextTable::new(led("app", header));
    app_rows(&mut t, args, &rows, |r| pct0(r.hit_rate));
    println!("{}", t.render());
    println!(
        "paper shape: growing the SC yields shallow gains against footprint\n\
         working sets with long reuse distance; Planaria at 4 MB beats much\n\
         larger prefetch-less caches."
    );
}

/// §5: Planaria's key parameters — the TLP distance threshold (how far
/// apart two pages may be and still count as neighbours; Figure 5
/// motivates 64), the SLP AT timeout (how long a page stays idle before its
/// bitmap counts as a complete snapshot) and the PT merge policy.
fn ablation_planaria_params(args: &HarnessArgs) {
    let sweep = |tag: &str, configs: &[PlanariaConfig]| {
        args.sweep(configs, |app, workload, cfg| {
            planaria_job(format!("{}/{tag}", app.abbr()), workload, cfg)
        })
    };
    let hit_rate_table = |header: [&str; 5], rows: &[Vec<SimResult>]| {
        let mut t = TextTable::new(header);
        app_rows(&mut t, args, rows, |r| pct0(r.hit_rate));
        println!("{}", t.render());
    };

    println!("Ablation: TLP distance threshold (full Planaria)\n");
    let rows = sweep(
        "dist",
        &[4, 16, 64, 512].map(|distance_threshold| PlanariaConfig {
            tlp: TlpConfig { distance_threshold, ..TlpConfig::default() },
            ..PlanariaConfig::default()
        }),
    );
    hit_rate_table(["app", "dist=4", "dist=16", "dist=64", "dist=512"], &rows);

    println!("Ablation: SLP accumulation-table timeout (full Planaria)\n");
    let rows = sweep(
        "timeout",
        &[250, 1000, 2000, 8000].map(|timeout| PlanariaConfig {
            slp: SlpConfig { timeout, ..SlpConfig::default() },
            ..PlanariaConfig::default()
        }),
    );
    hit_rate_table(["app", "250cy", "1000cy", "2000cy", "8000cy"], &rows);

    println!("Ablation: PT snapshot-merge policy (DSPatch-style duality)\n");
    let rows = sweep(
        "merge",
        &[PatternMerge::Replace, PatternMerge::Union, PatternMerge::Intersect].map(
            |pattern_merge| PlanariaConfig {
                slp: SlpConfig { pattern_merge, ..SlpConfig::default() },
                ..PlanariaConfig::default()
            },
        ),
    );
    let mut t = TextTable::new(["app", "replace (paper)", "union", "intersect"]);
    app_rows(&mut t, args, &rows, |r| {
        format!("{} / {}", pct0(r.hit_rate), pct0(r.prefetch_accuracy))
    });
    println!("{}", t.render());
    println!(
        "Cells are hit rate / accuracy. Expected shapes: the hit rate\n\
         saturates once the distance threshold spans real neighbour clusters\n\
         (the paper picks 64); too short a timeout chops snapshots mid-visit;\n\
         union trades accuracy for coverage, intersect the reverse."
    );
}

/// §7's coordinator comparison: Planaria's "parallel training, serial
/// issuing" against its own halves and against a parallel coordinator that
/// lets both sub-prefetchers issue on every trigger (the ISB/MISB-style
/// hybrid). The serial rule only matters on a trigger where SLP has a
/// pattern and TLP has a neighbour too. On the Table 2 profiles that never
/// happens: their footprint-pool pages sit 131 pages apart, beyond TLP's
/// 64-page distance threshold, so the parallel and serial rows can
/// coincide. The footnote reports what the rows show.
fn ablation_coordinator(args: &HarnessArgs) {
    println!("Ablation: coordination policy\n");
    let rows = args.grid(&[
        PrefetcherKind::SlpOnly,
        PrefetcherKind::TlpOnly,
        PrefetcherKind::PlanariaParallel,
        PrefetcherKind::Planaria,
    ]);
    let header = ["coordinator", "hit rate", "accuracy", "coverage", "pf issued"];
    app_tables(args, &rows, header, |row| {
        row.iter()
            .map(|r| {
                [
                    r.prefetcher.clone(),
                    pct0(r.hit_rate),
                    pct0(r.prefetch_accuracy),
                    pct0(r.prefetch_coverage),
                    r.traffic.prefetch_reads.to_string(),
                ]
            })
            .collect()
    });
    println!("{}", coordinator_footnote(args, &rows));
}

/// [`ablation_coordinator`]'s footnote, measured from its rows (SLP, TLP,
/// parallel, serial): on how many apps the parallel and serial rows are
/// equal, the largest gap between them, and the range of serial Planaria's
/// hit-rate margin over the better sub-prefetcher.
fn coordinator_footnote(args: &HarnessArgs, rows: &[Vec<SimResult>]) -> String {
    let mut equal = 0;
    let (mut accuracy_gap, mut prefetch_gap) = (0.0f64, 0u64);
    let mut margins = Vec::new();
    for (&app, row) in args.apps.iter().zip(rows) {
        let [slp, tlp, parallel, serial] = [&row[0], &row[1], &row[2], &row[3]];
        let metrics = |r: &SimResult| {
            (r.hit_rate, r.prefetch_accuracy, r.prefetch_coverage, r.traffic.prefetch_reads)
        };
        if metrics(parallel) == metrics(serial) {
            equal += 1;
        }
        accuracy_gap =
            accuracy_gap.max((parallel.prefetch_accuracy - serial.prefetch_accuracy).abs());
        prefetch_gap = prefetch_gap
            .max(parallel.traffic.prefetch_reads.abs_diff(serial.traffic.prefetch_reads));
        margins.push((serial.hit_rate - slp.hit_rate.max(tlp.hit_rate), app));
    }
    margins.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (lo, lo_app) = *margins.first().expect("HarnessArgs names at least one app");
    let (hi, hi_app) = *margins.last().expect("HarnessArgs names at least one app");
    format!(
        "paper §7: serial issuing keeps both sub-prefetchers' strengths. Measured:\n\
         the parallel and serial rows are equal on {equal} of {} apps (largest gap {:.1}\n\
         accuracy points, {prefetch_gap} prefetches); serial Planaria's hit rate exceeds\n\
         the better sub-prefetcher's by {:+.1} ({}) to {:+.1} points ({}).",
        args.apps.len(),
        accuracy_gap * 100.0,
        lo * 100.0,
        lo_app.abbr(),
        hi * 100.0,
        hi_app.abbr(),
    )
}

/// Planaria's prefetch-degree throttle: a mobile SoC may clamp speculative
/// traffic per trigger, trading coverage for traffic by replaying only part
/// of the learned snapshot per miss.
fn ablation_degree(args: &HarnessArgs) {
    const DEGREES: [usize; 5] = [1, 2, 4, 8, 16];
    println!("Ablation: Planaria prefetch degree (per-trigger burst cap)\n");
    let rows = args.sweep(&DEGREES, |app, workload, max_degree| {
        let cfg = PlanariaConfig { max_degree, ..PlanariaConfig::default() };
        planaria_job(format!("{}/degree={max_degree}", app.abbr()), workload, cfg)
    });
    app_tables(args, &rows, ["degree", "hit rate", "AMAT", "pf issued", "accuracy"], |row| {
        DEGREES
            .iter()
            .zip(row)
            .map(|(d, r)| {
                [
                    d.to_string(),
                    pct0(r.hit_rate),
                    format!("{:.1}", r.amat_cycles),
                    r.traffic.prefetch_reads.to_string(),
                    pct0(r.prefetch_accuracy),
                ]
            })
            .collect()
    });
    println!(
        "Expected shape: coverage (and hit rate) grows with degree and\n\
         saturates once the whole snapshot fits in one burst; accuracy is\n\
         flat because the snapshot is accurate at any prefix."
    );
}

/// Memory-controller policies under Planaria: FR-FCFS vs strict FCFS (how
/// much comes from row-hit-first scheduling, which Planaria's page bursts
/// feed), open vs closed page, and CKE power-down on vs off (the LPDDR
/// low-power mechanism Table 1's tCKE/tXP model).
fn ablation_dram(args: &HarnessArgs) {
    println!("Ablation: DRAM scheduler and power-down (Planaria prefetcher)\n");
    let variants: [(&str, SchedulerKind, bool, PagePolicy); 4] = [
        ("frfcfs", SchedulerKind::FrFcfs, true, PagePolicy::Open),
        ("fcfs", SchedulerKind::Fcfs, true, PagePolicy::Open),
        ("closed", SchedulerKind::FrFcfs, true, PagePolicy::Closed),
        ("no-pd", SchedulerKind::FrFcfs, false, PagePolicy::Open),
    ];
    let rows = args.sweep(&variants, |app, workload, (tag, sched, powerdown, page)| {
        config_job(format!("{}/{tag}", app.abbr()), workload, PrefetcherKind::Planaria, |c| {
            c.dram = c.dram.with_scheduler(sched).with_page_policy(page);
            c.dram.powerdown = powerdown;
        })
    });
    let mut t = TextTable::new([
        "app",
        "FR-FCFS AMAT",
        "FCFS AMAT",
        "closed-pg AMAT",
        "row-hit FR/closed",
        "power PD-on",
        "power PD-off",
    ]);
    for (app, row) in args.apps.iter().zip(&rows) {
        let [frfcfs, fcfs, closed, no_pd] = &row[..] else { unreachable!("four variants") };
        t.row([
            app.abbr().to_string(),
            format!("{:.1}", frfcfs.amat_cycles),
            format!("{:.1}", fcfs.amat_cycles),
            format!("{:.1}", closed.amat_cycles),
            format!("{} / {}", pct0(frfcfs.dram_row_hit_rate), pct0(closed.dram_row_hit_rate)),
            format!("{:.1} mW", frfcfs.power_mw),
            format!("{:.1} mW", no_pd.power_mw),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Expected shapes: FCFS costs AMAT by forgoing row-hit reordering;\n\
         closed-page forfeits the row hits Planaria's page bursts create;\n\
         disabling power-down raises background power on idle channels."
    );
}

/// Feedback-directed prefetch throttling (Srinath et al., HPCA'07) vs
/// built-in accuracy: a governor samples accuracy per interval and gates a
/// prefetcher that wastes bandwidth. Can one rescue BOP, and does Planaria
/// even need one?
fn ablation_governor(args: &HarnessArgs) {
    println!("Ablation: FDP-style governor on BOP vs Planaria\n");
    // The no-prefetch baseline, then each contender with the governor off
    // and on.
    let variants = [
        (PrefetcherKind::None, false),
        (PrefetcherKind::Bop, false),
        (PrefetcherKind::Bop, true),
        (PrefetcherKind::Planaria, false),
        (PrefetcherKind::Planaria, true),
    ];
    let rows = args.sweep(&variants, |app, workload, (kind, governed)| {
        let tag = if governed { "+gov" } else { "" };
        config_job(format!("{}/{kind}{tag}", app.abbr()), workload, kind, |c| {
            c.governor = governed.then(GovernorConfig::default)
        })
    });
    let header = ["config", "hit rate", "AMAT", "traffic vs none", "power vs none", "accuracy"];
    app_tables(args, &rows, header, |row| {
        let none = &row[0];
        variants[1..]
            .iter()
            .zip(&row[1..])
            .map(|(&(kind, governed), r)| {
                [
                    format!("{kind}{}", if governed { " + governor" } else { "" }),
                    pct0(r.hit_rate),
                    format!("{:.1}", r.amat_cycles),
                    pct(r.traffic_delta(none)),
                    pct(r.power_delta(none)),
                    pct0(r.prefetch_accuracy),
                ]
            })
            .collect()
    });
    println!(
        "Expected shape: the governor trims BOP's traffic/power at some\n\
         coverage cost; Planaria's accuracy never trips it, so its rows\n\
         with and without the governor coincide — accuracy by construction\n\
         beats accuracy by after-the-fact policing."
    );
}

/// §7 argues that spatial prefetchers keyed by small *global* history
/// tables mispredict at the system cache, which is why SLP keys its
/// snapshots by page number. Measures that: SLP (per page) against a
/// PC-free SMS (one global pattern table indexed by trigger offset).
fn relatedwork_spatial(args: &HarnessArgs) {
    println!("Related work: per-page (SLP) vs global-table (SMS) spatial signatures\n");
    type MakePrefetcher = fn() -> Box<dyn Prefetcher>;
    let contenders: [(&str, MakePrefetcher); 2] =
        [("SMS", || Box::new(Sms::default())), ("SLP", || Box::new(Slp::default()))];
    let rows = args.sweep(&contenders, |app, workload, (tag, make)| {
        Job::with_factory(format!("{}/{tag}", app.abbr()), workload, Box::new(make))
    });
    let header = ["prefetcher", "hit rate", "accuracy", "coverage", "traffic"];
    app_tables(args, &rows, header, |row| {
        row.iter()
            .map(|r| {
                [
                    r.prefetcher.clone(),
                    pct0(r.hit_rate),
                    pct0(r.prefetch_accuracy),
                    pct0(r.prefetch_coverage),
                    r.traffic.total().to_string(),
                ]
            })
            .collect()
    });
    println!(
        "Expected shape: the global trigger-offset table cross-trains\n\
         unrelated pages and pays in accuracy; the per-page table does not\n\
         (the paper's rationale for PN-keyed snapshot signatures)."
    );
}

/// The evaluation grid as CSV for external plotting: one line per (app ×
/// prefetcher) run with every metric of [`SimResult`].
fn export_csv(args: &HarnessArgs) {
    let grid = args.grid(&[
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
        PrefetcherKind::Bop,
        PrefetcherKind::Spp,
        PrefetcherKind::SlpOnly,
        PrefetcherKind::Planaria,
    ]);
    println!("{}", SimResult::csv_header());
    for r in grid.iter().flatten() {
        println!("{}", r.csv_row());
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn every_entry_runs_at_a_tiny_size() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len(), "entry names must be unique");
        let options = ["--len", "2000", "--apps", "HoK", "--threads", "1"].map(String::from);
        for f in &FIGURES {
            let args = HarnessArgs::parse(options.clone(), f.apps).unwrap();
            (f.run)(&args);
        }
    }
}
