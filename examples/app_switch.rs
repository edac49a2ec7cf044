//! Phase change: the user switches apps mid-trace.
//!
//! Concatenates a Honor-of-Kings-like trace with a TikTok-like trace (time-
//! shifted), and tracks how Planaria's pattern tables ride out the program
//! phase switch — the scenario that motivates the paper's quantitative
//! check that footprint snapshots stay stable across phases (Figure 4).
//!
//! ```sh
//! cargo run --release --example app_switch
//! ```

use planaria_common::{Cycle, MemAccess};
use planaria_core::{Planaria, Prefetcher};
use planaria_sim::table::{pct0, TextTable};
use planaria_sim::{MemorySystem, SystemConfig};
use planaria_trace::apps::{profile, AppId};
use planaria_trace::Trace;

fn main() {
    let half = 250_000;
    let first = profile(AppId::HoK).scaled(half).build();
    let second = profile(AppId::TikT).scaled(half).build();

    // Shift the second app after the first and merge.
    let offset = first.duration() + 10_000;
    let mut accesses: Vec<MemAccess> = first.accesses().to_vec();
    accesses.extend(
        second.iter().map(|a| MemAccess { cycle: Cycle::new(a.cycle.as_u64() + offset), ..*a }),
    );
    let combined = Trace::new("HoK→TikT", accesses);
    println!("Simulating an app switch: {} accesses of HoK, then {} of TikT...\n", half, half);

    // Run the combined trace, sampling the hit rate in windows.
    let mut system = MemorySystem::new(
        SystemConfig::default(),
        Box::new(Planaria::default()) as Box<dyn Prefetcher>,
    );
    let window = combined.len() / 10;
    let mut t = TextTable::new(["progress", "phase", "cumulative hit rate"]);
    let mut rows = Vec::new();
    let mut done = 0;
    for batch in combined.accesses().chunks(window) {
        system.process_batch(batch);
        done += batch.len();
        if batch.len() == window {
            rows.push((done, done <= half, system.interim_hit_rate()));
        }
    }
    let r = system.finish(combined.name());
    for (i, in_first, hit) in rows {
        t.row([
            format!("{:>3}%", i * 100 / combined.len()),
            if in_first { "HoK" } else { "TikT" }.to_string(),
            pct0(hit),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Final combined run: hit rate {}, AMAT {:.1} cycles, accuracy {} —\n\
         the second app's pages retrain the FT→AT→PT pipeline within one\n\
         visit each; no explicit flush is needed on a phase switch.",
        pct0(r.hit_rate),
        r.amat_cycles,
        pct0(r.prefetch_accuracy),
    );
    for d in &r.device_stats {
        println!(
            "  {:<4} {:>9} accesses, hit rate {}, AMAT {:>6.1}",
            d.device,
            d.accesses,
            pct0(d.hit_rate()),
            d.amat_cycles
        );
    }
}
