//! Runs one table, figure or ablation of the paper's evaluation by name
//! (`planaria_bench::figures::FIGURES`).
//!
//! ```sh
//! cargo run --release -p planaria-bench --bin figures -- fig8_amat [--len N|--full] [--threads N]
//! cargo run --release -p planaria-bench --bin figures -- --help
//! ```

fn main() {
    planaria_bench::figures::main();
}
