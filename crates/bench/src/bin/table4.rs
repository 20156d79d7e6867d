//! Regenerates the paper's table4 on the simulated device.
//!
//! Usage: `cargo run --release -p flashmem-bench --bin table4 [-- --quick] [--json PATH]`
//! The `--quick` flag restricts the sweep to a reduced model set; `--json`
//! additionally writes the deterministic columns as machine-readable JSON.

use flashmem_bench::experiments::table4;

fn main() {
    flashmem_bench::run_bin_with_json(table4::run, table4::Table4::to_json);
}
