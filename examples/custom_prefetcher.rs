//! Plug a user-defined prefetcher into the simulator.
//!
//! The [`planaria_core::Prefetcher`] trait is the extension point: anything
//! implementing it slots into [`planaria_sim::MemorySystem`] exactly like
//! Planaria or the paper's baselines. This example builds a toy
//! "page-burst" prefetcher (on a miss, grab the next three blocks of the
//! same page) and races it against Planaria on a mixed workload.
//!
//! ```sh
//! cargo run --release --example custom_prefetcher
//! ```

use planaria_common::{MemAccess, PhysAddr, PrefetchOrigin, PrefetchRequest, BLOCKS_PER_PAGE};
use planaria_core::{Planaria, Prefetcher};
use planaria_sim::table::{pct0, TextTable};
use planaria_sim::{MemorySystem, SystemConfig};
use planaria_trace::apps::{profile, AppId};

/// On every miss, prefetch the next `degree` blocks within the same page.
struct PageBurst {
    degree: usize,
    accesses: u64,
}

impl Prefetcher for PageBurst {
    fn name(&self) -> &str {
        "PageBurst"
    }

    fn on_access(&mut self, access: &MemAccess, hit: bool, out: &mut Vec<PrefetchRequest>) {
        self.accesses += 1;
        if hit {
            return;
        }
        let page = access.addr.page();
        let block = access.addr.block_index().as_usize();
        for k in 1..=self.degree {
            let target = block + k;
            if target >= BLOCKS_PER_PAGE {
                break;
            }
            let addr = PhysAddr::from_parts(page, planaria_common::BlockIndex::new(target));
            out.push(PrefetchRequest::new(addr, PrefetchOrigin::Baseline, access.cycle));
        }
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn table_accesses(&self) -> u64 {
        self.accesses
    }
}

fn main() {
    let trace = profile(AppId::IdV).scaled(200_000).build();
    println!("Racing a custom prefetcher against Planaria on {}...\n", trace.name());

    let contenders: Vec<Box<dyn Prefetcher>> =
        vec![Box::new(PageBurst { degree: 3, accesses: 0 }), Box::new(Planaria::default())];

    let mut t = TextTable::new(["prefetcher", "hit rate", "AMAT", "accuracy", "pf issued"]);
    for pf in contenders {
        let r = MemorySystem::new(SystemConfig::default(), pf).run_stream(&mut trace.stream());
        t.row([
            r.prefetcher.clone(),
            pct0(r.hit_rate),
            format!("{:.1}", r.amat_cycles),
            pct0(r.prefetch_accuracy),
            r.traffic.prefetch_reads.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Anything implementing `planaria_core::Prefetcher` gets the same treatment —\n\
         learning feed, miss-triggered issuing, queue dedup and power accounting."
    );
}
