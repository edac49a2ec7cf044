//! Figure 2 — the footprint snapshot of one memory page over time.
//!
//! Renders an ASCII scatter of (arrival time × block number) for the most
//! revisited page of a footprint-dominated trace, showing the paper's three
//! qualitative observations: a stable block set, long reuse distance
//! between visit bursts, and non-deterministic intra-visit order.
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin fig2_snapshot
//! ```

use std::cmp::Reverse;
use std::collections::BTreeMap;

use planaria_common::PageNum;
use planaria_trace::apps::{profile, AppId};

const TIME_COLS: usize = 100;

fn main() {
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
