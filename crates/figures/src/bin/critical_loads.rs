//! The paper's title, as a report: rank every static load of a workload by
//! its share of total load latency. Usage:
//!
//! ```text
//! cargo run --release -p gcl-figures --bin critical_loads [workload] [--tiny]
//! ```

fn main() -> std::process::ExitCode {
    gcl_figures::driver::figure_main("critical_loads")
}
